"""Exact character values of Ariki-Koike algebras on graded tensor powers.

Closed-form evaluators live next to a brute-force operator-trace oracle on
the same graded tensor space, together with the reflection-group and
truncated q -> 1 specializations and the supporting hook/tableau
combinatorics.  All arithmetic is exact.
"""

from .combinat import (
    count_semistandard,
    count_standard_multitableaux,
    format_multipartition,
    list_hook_multipartitions,
    list_multipartitions,
    parse_multipartition,
    word_hecke,
)
from .formulas import (
    CharSpec,
    bracket,
    character_value,
    coef,
    group_character_value,
    hook_sum_rhs,
    pair_regev_rhs,
    theta,
    theta_j,
    wreath_hook_value,
)
from .operators import (
    GradedAlphabet,
    char_value_oracle,
    check_ak_presentation,
    check_shoji_presentation,
    trace_of_word,
)
from .rings import (
    CycloElem,
    MultiPoly,
    TruncSeries,
    cyclotomic_polynomial,
    expand_at_q1,
    specialize_to_group,
)

__version__ = "0.1.0"

__all__ = [
    "CharSpec",
    "CycloElem",
    "GradedAlphabet",
    "MultiPoly",
    "TruncSeries",
    "bracket",
    "char_value_oracle",
    "character_value",
    "check_ak_presentation",
    "check_shoji_presentation",
    "coef",
    "count_semistandard",
    "count_standard_multitableaux",
    "cyclotomic_polynomial",
    "expand_at_q1",
    "format_multipartition",
    "group_character_value",
    "hook_sum_rhs",
    "list_hook_multipartitions",
    "list_multipartitions",
    "pair_regev_rhs",
    "parse_multipartition",
    "specialize_to_group",
    "theta",
    "theta_j",
    "trace_of_word",
    "word_hecke",
    "wreath_hook_value",
]
