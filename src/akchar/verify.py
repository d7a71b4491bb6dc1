"""Verification sweeps: each suite runs one family of identities over a
bounded grid of shapes and sizes and reports every counterexample.

A suite is a builder that returns its grid of cases, in a fixed order, and
one ``check`` that maps a case to None or to the report of its failure.
``run_suite`` is the one runner: it checks the bounds, builds the grid, runs
the check on the i-th of J contiguous slices of the cases for
``part=(i, J)`` and counts every case of the suite.  So J processes can
share one suite, and their failures, joined in slice order, are those of
the whole suite (``akchar verify --jobs J``).
"""
from __future__ import annotations

import itertools
from collections import namedtuple

from .combinat import (
    check_int,
    count_semistandard,
    count_standard_multitableaux,
    format_multipartition,
    list_hook_multipartitions,
    list_multipartitions,
    mp_num_nonzero,
)
from .formulas import (
    CharSpec,
    _slices,
    bracket,
    character_value,
    coef,
    coef_first_order,
    group_character_value,
    hook_sum_rhs,
    theta,
    theta1_closed,
    theta2_closed,
    theta_j,  # unread here; bench/spans.py wraps verify.theta_j by name
    wreath_hook_value,
)
from .operators import char_value_oracle, check_ak_presentation, check_shoji_presentation
from .rings import CycloElem, MultiPoly, TruncSeries, expand_at_q1, specialize_to_group

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite"]


SuiteResult = namedtuple("SuiteResult", "name cases failures")
SuiteResult.__doc__ = ("A suite's name, its case count and the report of "
                       "each failed case.")


def _alphabet_configs(m: int, entry_cap: int, dim_lo: int, dim_hi: int):
    for vec in itertools.product(range(entry_cap + 1), repeat=2 * m):
        if dim_lo <= sum(vec) <= dim_hi:
            yield vec[:m], vec[m:]


def _ms(m_values, m_only):
    return [m for m in m_values if m_only is None or m == m_only]


def _ns(n_lo, n_hi, max_n, n_only):
    hi = max_n if max_n is not None else n_hi
    if n_only is not None:
        return [n_only] if n_lo <= n_only <= hi else []
    return list(range(n_lo, hi + 1))


def _character_cases(m_values, max_n, m_only, n_only):
    """The ``(mu, k, l, spec)`` grid of the oracle and specialization
    suites: for each color count m, every multipartition of each size that
    ``_ns(1, 4, ...)`` picks, on every alphabet of 1 to 4 letters with at
    most 2 of each color and parity."""
    cases = []
    for m in _ms(m_values, m_only):
        mus = [mu for n in _ns(1, 4, max_n, n_only) for mu in list_multipartitions(m, n)]
        for k, l in _alphabet_configs(m, 2, 1, 4):
            spec = CharSpec(m, k, l)
            cases += [(mu, k, l, spec) for mu in mus]
    return cases


def _hook_cases(n_hi, max_n, m_only, n_only):
    """The ``(m, ones, mu)`` grid of the single-hook suites: every
    multipartition mu of each size that ``_ns(1, n_hi, ...)`` picks, with m
    colors, on the alphabet of one letter of each color and parity."""
    cases = []
    for m in _ms((1, 2, 3), m_only):
        ones = (1,) * m
        cases += [(m, ones, mu) for n in _ns(1, n_hi, max_n, n_only)
                  for mu in list_multipartitions(m, n)]
    return cases


def _oracle(max_n, m_only, n_only):
    """Closed form versus brute-force trace, as canonical polynomials."""

    def check(case):
        mu, k, l, spec = case
        closed = character_value(mu, spec)
        oracle = char_value_oracle(mu, k, l)
        if closed != oracle:
            return {
                "mu": format_multipartition(mu), "k": list(k), "l": list(l),
                "closed_form": closed.to_text(), "oracle": oracle.to_text(),
            }
        return None

    return _character_cases((1, 2, 3), max_n, m_only, n_only), check


def _relations(checker, n_lo, max_n, m_only, n_only):
    """A generator presentation as operator identities, on each size from
    ``n_lo`` and each alphabet of 1 to 3 letters: the cyclotomic-generator
    one (ak-relations) or the braid/color-scaling one (shoji-relations)."""
    cases = []
    for m in _ms((1, 2, 3), m_only):
        for k, l in _alphabet_configs(m, 3, 1, 3):
            for n in _ns(n_lo, 3, max_n, n_only):
                cases.append((n, k, l))

    def check(case):
        n, k, l = case
        bad = [r for r in checker(n, k, l) if r["status"] != "pass"]
        if bad:
            return {"n": n, "k": list(k), "l": list(l), "failed": bad}
        return None

    return cases, check


def _specialization(max_n, m_only, n_only):
    """Root-of-unity specialization of the oracle versus the group formula."""

    def check(case):
        mu, k, l, spec = case
        specialized = specialize_to_group(char_value_oracle(mu, k, l), spec.m)
        direct = group_character_value(mu, spec)
        if specialized != direct:
            return {
                "mu": format_multipartition(mu), "k": list(k), "l": list(l),
                "specialized_oracle": specialized.to_text(),
                "group_formula": direct.to_text(),
            }
        return None

    return _character_cases((1, 2, 3, 4), max_n, m_only, n_only), check


def _theta_closed_forms(max_n, m_only, n_only):
    """Enumerated length slices versus the two closed forms."""
    cases = [(i, a) for i in _ms((1, 2, 3), m_only) for a in _ns(1, 8, max_n, n_only)]

    def check(case):
        i, a = case
        slices = _slices(i, a)  # one pass over the pairs gives both slices
        for j, closed in ((1, theta1_closed(a)), (2, theta2_closed(i, a))):
            if slices[j] != closed:
                return {"slice": j, "i": i, "a": a,
                        "enumerated": slices[j].to_text(), "closed": closed.to_text()}
        return None

    return cases, check


def _coef(max_n, m_only, n_only):
    """Single-hook coefficient identities: the exact first-color value, the
    first-order expansion, and reassembly into the block trace."""
    sizes = _ns(1, 8, max_n, n_only)
    cases = [("exact", 1, a) for a in sizes if m_only in (None, 1)]
    cases += [("first-order", i, a) for i in _ms((1, 2, 3), m_only) for a in sizes]
    cases += [
        ("reassembly", m, (r, a))
        for m in _ms((1, 2, 3), m_only)
        for r in range(1, m + 1)
        for a in sizes
        if a <= 5
    ]

    def check(case):
        kind, x, y = case
        if kind == "exact":
            got, want = coef(y, 1), 2 * bracket(y)
            if got != want:
                return {"check": kind, "a": y, "coef": got.to_text(),
                        "expected": want.to_text()}
        elif kind == "first-order":
            got = expand_at_q1(coef(y, x), 2)
            want = expand_at_q1(coef_first_order(y, x), 2)
            if got != want:
                return {"check": kind, "i": x, "a": y, "coef": got.to_text(),
                        "expected": want.to_text()}
        else:
            m, (r, a) = x, y
            spec = CharSpec.ones(m)
            total = MultiPoly.zero(m)
            for i in range(1, m + 1):
                total = total + coef(a, i).embed(m) * MultiPoly.u_power(i, m, r - 1)
            want = theta(r, a, spec)
            if total != want:
                return {"check": kind, "m": m, "r": r, "a": a,
                        "sum": total.to_text(), "theta": want.to_text()}
        return None

    return cases, check


def _hook_sum(max_n, m_only, n_only):
    """Truncated expansion of the single-hook oracle trace versus the
    weighted hook-sum product, plus the exact single-row values."""
    cases = [("mod-t2", *case) for case in _hook_cases(4, max_n, m_only, n_only)]
    for n in _ns(1, 6, max_n, n_only):
        if m_only in (None, 1):
            cases.append(("exact-row", 1, (1,), ((n,),)))
    # pinned value: the two-color single two-cycle expands to exactly 8t
    if m_only in (None, 2) and n_only in (None, 2):
        cases.append(("pinned-8t", 2, (1, 1), ((2,), ())))

    def check(case):
        kind, m, ones, mu = case
        if kind == "exact-row":
            got = char_value_oracle(mu, ones, ones)
            want = 2 * bracket(mu[0][0], 1)
            if got != want:
                return {"check": kind, "mu": format_multipartition(mu),
                        "oracle": got.to_text(), "expected": want.to_text()}
            return None
        if kind == "pinned-8t":
            got = hook_sum_rhs(mu, m)
            if got != 8 * TruncSeries.t_power(m, 2):
                return {"check": kind, "got": got.to_text()}
            return None
        got = expand_at_q1(char_value_oracle(mu, ones, ones), 2)
        want = hook_sum_rhs(mu, m)
        if got != want:
            return {"check": kind, "m": m, "mu": format_multipartition(mu),
                    "oracle_mod_t2": got.to_text(), "hook_sum": want.to_text()}
        return None

    return cases, check


def _wreath(max_n, m_only, n_only):
    """Group specialization of the single-hook oracle versus the wreath
    closed form (an integer)."""

    def check(case):
        m, ones, mu = case
        got = specialize_to_group(char_value_oracle(mu, ones, ones), m)
        want = CycloElem.from_int(m, wreath_hook_value(mu, m))
        if got != want:
            return {"m": m, "mu": format_multipartition(mu),
                    "specialized": got.to_text(), "wreath": want.to_text()}
        return None

    return _hook_cases(5, max_n, m_only, n_only), check


def _dimension_identity(max_n, m_only, n_only):
    """Tableau-count identities: filling counts are positive exactly on hook
    shapes, single-hook counts are powers of two, and the weighted counts
    resolve the full tensor-power dimension."""
    cases = []
    for m in _ms((1, 2), m_only):
        sizes = [(n, list_multipartitions(m, n)) for n in _ns(0, 5, max_n, n_only)]
        for k, l in _alphabet_configs(m, 2, 1, 4 * m):
            for n, mus in sizes:
                cases.append(("dimension", k, l, n, mus))
    for m in _ms((1, 2, 3), m_only):
        ones = (1,) * m
        for n in _ns(0, 5, max_n, n_only):
            cases.append(("power-of-two", ones, ones, n, ()))

    def check(case):
        kind, k, l, n, mus = case
        hooks = set(list_hook_multipartitions(n, k, l))
        if kind == "power-of-two":
            for mu in hooks:
                s = count_semistandard(mu, k, l)
                if s != 2 ** mp_num_nonzero(mu):
                    return {"check": kind, "mu": format_multipartition(mu),
                            "count": s, "expected": 2 ** mp_num_nonzero(mu)}
            return None
        total = 0
        for mu in mus:
            s = count_semistandard(mu, k, l)
            if (s > 0) != (mu in hooks):
                return {"check": "hook-support", "mu": format_multipartition(mu),
                        "k": list(k), "l": list(l), "count": s}
            if s:
                total += s * count_standard_multitableaux(mu)
        expected = (sum(k) + sum(l)) ** n
        if total != expected:
            return {"check": kind, "k": list(k), "l": list(l), "n": n,
                    "sum": total, "expected": expected}
        return None

    return cases, check


# suite name -> builder(max_n, m_only, n_only) -> (cases, check).  The
# presentation suites name their checker when they are built, not here, so a
# checker patched on this module (as bench/spans.py does) is the one they run.
_SUITES = {
    "oracle": _oracle,
    "ak-relations": lambda *bounds: _relations(check_ak_presentation, 1, *bounds),
    "shoji-relations": lambda *bounds: _relations(check_shoji_presentation, 2,
                                                  *bounds),
    "specialization": _specialization,
    "theta-closed-forms": _theta_closed_forms,
    "coef": _coef,
    "hook-sum": _hook_sum,
    "wreath": _wreath,
    "dimension-identity": _dimension_identity,
}

SUITE_NAMES = list(_SUITES)


def run_suite(name: str, max_n=None, m_only=None, n_only=None,
              part=(0, 1)) -> SuiteResult:
    """Run suite ``name`` on sizes up to ``max_n`` (default: the suite's own
    bound), only on m = ``m_only`` and n = ``n_only`` where given, and only
    on slice i of J of its cases for ``part=(i, J)``; the result still
    counts every case of the suite."""
    try:
        build = _SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or all"
        )
    i, jobs = part if isinstance(part, tuple) and len(part) == 2 else (None, None)
    if not (type(i) is int and type(jobs) is int and 0 <= i < jobs):
        raise ValueError(
            f"part must be (i, J) with integers 0 <= i < J, got {part!r}")
    for value, what, low in ((max_n, "max_n", 0), (m_only, "m_only", 1),
                             (n_only, "n_only", 0)):
        if value is not None:
            check_int(value, what, low)
    cases, check = build(max_n, m_only, n_only)
    total = len(cases)
    mine = cases[total * i // jobs:total * (i + 1) // jobs]
    return SuiteResult(name, total, [r for r in map(check, mine) if r is not None])
