"""Closed-form character evaluators.

The generic value of a standard element factors over the parts of the
multipartition; each factor is a sum over bounded composition pairs with a
sign, a power of (1-q), a color variable, and binomial multiplicities,
evaluated by a dynamic program over the colors that is polynomial in the
block size.
Specializations: values at roots of unity (group algebra), expansions mod
t**2 around q = 1 (t = 1 - q), and the literal two-component comparison
formula.  The single-hook slices and coefficients (one even and one odd
letter per color) are summed from one pass over ``list_graded_pairs``, so
they check the dynamic program pair by pair.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .combinat import (
    check_alphabet, check_int, check_multipartition, list_graded_pairs, mp_length,
    mp_size,
)
from .rings import CycloElem, MultiPoly, TruncSeries, _cyclo_reduce, expand_at_q1

__all__ = [
    "CharSpec",
    "bracket",
    "theta",
    "character_value",
    "group_character_value",
    "theta_j",
    "theta1_closed",
    "theta2_closed",
    "coef",
    "coef_first_order",
    "hook_sum_rhs",
    "wreath_hook_value",
    "pair_regev_rhs",
]


class CharSpec(namedtuple("CharSpec", "m k l")):
    """Shape of a character problem: the color count and the letter counts."""

    __slots__ = ()

    def __new__(cls, m: int, k, l) -> "CharSpec":
        k, l = check_alphabet(k, l)
        check_int(m, "color count", 1)
        if len(k) != m:
            raise ValueError("k and l must both have length m")
        if sum(k) + sum(l) < 1:
            raise ValueError("need at least one letter overall")
        return super().__new__(cls, m, k, l)

    @classmethod
    def _make(cls, iterable) -> "CharSpec":
        # namedtuple's own _make, which _replace calls too, skips __new__
        return cls(*iterable)

    @classmethod
    def ones(cls, m: int) -> "CharSpec":
        return cls(m, (1,) * m, (1,) * m)


def bracket(a: int, m: int = 0) -> MultiPoly:
    """The q-integer [a]_{-q}: the sum of (-q)**j for j < a."""
    check_int(a, "bracket argument", 0)
    return MultiPoly(m, {(j,) + (0,) * m: (-1) ** j for j in range(a)})


def _neg_q_power(e: int, m: int) -> MultiPoly:
    # (-q)**e for any integer e
    p = MultiPoly.q_power(e, m)
    return -p if e % 2 else p


def _one_minus_q(m: int) -> MultiPoly:
    return MultiPoly.one(m) - MultiPoly.q_power(1, m)


def _hook_factor(x: int, c, m: int) -> MultiPoly:
    """The per-part hook factor [x]_{-q} + c*x(1-q)[x-1]_{-q}, where ``c`` is
    an integer or a polynomial."""
    return bracket(x, m) + c * x * _one_minus_q(m) * bracket(x - 1, m)


def _add_slot(states: dict, bound: int, a: int, odd: bool) -> dict:
    """Fold one composition slot with at most ``bound`` parts into the
    ``(size, parts, odd excess)`` counts ``states``.  A slot of size s in p
    parts has C(bound, p) * C(s-1, p-1) choices; its excess is s - p on odd
    slots and 0 on even ones.  Sizes above ``a`` are dropped."""
    out = dict(states)
    for p in range(1, min(bound, a) + 1):
        ways = math.comb(bound, p)
        for s in range(p, a + 1):
            count = ways * math.comb(s - 1, p - 1)
            excess = s - p if odd else 0
            for (size, parts, e), c in states.items():
                if size + s <= a:
                    key = (size + s, parts + p, e + excess)
                    out[key] = out.get(key, 0) + c * count
    return out


@lru_cache(maxsize=None)
def _theta(r: int, a: int, m: int, k, l) -> MultiPoly:
    # A pair enters only through its length j, last occupied color L, odd
    # excess e = |beta| - len(beta) and binomial multiplicity c; the summand
    # is c * (-q)**e * (1-q)**(j-1) * u_L**(r-1).  Count (size, j, e) over
    # the colors up to L; the pairs whose last occupied color is L are those
    # counted up to L but not up to L - 1.
    terms: dict[tuple[int, ...], int] = {}
    states = {(0, 0, 0): 1}
    for last in range(1, m + 1):
        grown = _add_slot(_add_slot(states, k[last - 1], a, False),
                          l[last - 1], a, True)
        u_key = tuple(r - 1 if i == last else 0 for i in range(1, m + 1))
        for (size, j, e), c in grown.items():
            c -= states.get((size, j, e), 0)
            if size != a or not c:
                continue
            c = -c if e % 2 else c
            for t in range(j):  # (1-q)**(j-1)
                key = (e + t,) + u_key
                terms[key] = terms.get(key, 0) + (-1) ** t * math.comb(j - 1, t) * c
        states = grown
    return MultiPoly(m, terms)


def theta(r: int, a: int, spec: CharSpec) -> MultiPoly:
    """Trace contribution of one standard block of size ``a`` in color ``r``.
    The result is the caller's own copy of the cached value."""
    check_int(r, "color", 1, spec.m)
    check_int(a, "block size", 1)
    cached = _theta(r, a, spec.m, spec.k, spec.l)
    return MultiPoly._raw(spec.m, dict(cached.terms))


def character_value(mu, spec: CharSpec) -> MultiPoly:
    """Closed-form character value of the standard element of ``mu``:
    the product of per-part block traces."""
    mu = check_multipartition(mu, spec.m)
    return MultiPoly.product(spec.m, [
        _theta(r, part, spec.m, spec.k, spec.l)
        for r, comp in enumerate(mu, start=1)
        for part in comp
    ])


@lru_cache(maxsize=64)  # callers walk one alphabet at a time
def _group_factor(r: int, odd: int, m: int, k, l) -> tuple[int, ...]:
    # sum_i w_i x**((r-1)(i-1)) in Z[x]/(x**m - 1), where w_i is
    # k_i + l_i for an odd part and k_i - l_i for an even one
    coeffs = [0] * m
    for i in range(m):
        coeffs[(r - 1) * i % m] += k[i] + l[i] if odd else k[i] - l[i]
    return tuple(coeffs)


def group_character_value(mu, spec: CharSpec) -> CycloElem:
    """Character value in the reflection-group specialization (q = 1 and
    u_i the powers of a primitive m-th root of unity).

    The block factors are multiplied as integer residues in Z[x]/(x**m - 1)
    and reduced mod Phi_m once at the end; that quotient map is a ring
    homomorphism, so the value is the same as reducing after every step."""
    mu = check_multipartition(mu, spec.m)
    m = spec.m
    result = [1] + [0] * (m - 1)
    for r, comp in enumerate(mu, start=1):
        for part in comp:
            factor = _group_factor(r, part % 2, m, spec.k, spec.l)
            prod = [0] * m
            for i, a in enumerate(result):
                if a:
                    for j, b in enumerate(factor):
                        prod[(i + j) % m] += a * b
            result = prod
    return CycloElem._raw(m, _cyclo_reduce(result, m))


def _slices(i: int, a: int) -> list[MultiPoly]:
    """The single-hook block trace of size ``a`` with last occupied color
    ``i``, split by pair length: entry j is the length-j slice, j = 0..2i
    (entry 0 is zero).  One pass over the pairs for one even and one odd
    letter per color; a pair of length j and odd excess e adds
    (-q)**e (1-q)**(j-1) to its slice."""
    check_int(i, "last color", 1)
    check_int(a, "block size", 1)
    counts: dict[tuple[int, int], int] = {}
    for alpha, beta in list_graded_pairs(a, (1,) * i, (1,) * i):
        if alpha[-1] or beta[-1]:
            j = sum(map(len, alpha + beta))
            e = sum(map(sum, beta)) - sum(map(len, beta))
            counts[j, e] = counts.get((j, e), 0) + 1
    slices = [MultiPoly.zero(0)] * (2 * i + 1)
    for (j, e), c in counts.items():
        slices[j] = slices[j] + c * _neg_q_power(e, 0) * _one_minus_q(0) ** (j - 1)
    return slices


def theta_j(j: int, i: int, a: int) -> MultiPoly:
    """Length-j slice of the single-hook block trace: one even and one odd
    letter per color, last occupied color fixed at ``i``."""
    return _slices(i, a)[check_int(j, "length", 1, 2 * i)]


def theta1_closed(a: int) -> MultiPoly:
    """Length-1 slice in closed form: 1 + (-q)**(a-1)."""
    check_int(a, "block size", 1)
    return MultiPoly.one(0) + _neg_q_power(a - 1, 0)


def theta2_closed(i: int, a: int) -> MultiPoly:
    """Length-2 slice in closed form:
    (1-q) * ((i-1)(a-1)(1 + (-q)**(a-2)) + (2i-1) * [a-1]_{-q})."""
    check_int(i, "last color", 1)
    check_int(a, "block size", 1)
    inner = MultiPoly.const((i - 1) * (a - 1), 0) * (
        MultiPoly.one(0) + _neg_q_power(a - 2, 0)
    )
    inner = inner + MultiPoly.const(2 * i - 1, 0) * bracket(a - 1)
    return _one_minus_q(0) * inner


def coef(a: int, i: int) -> MultiPoly:
    """Coefficient of u_i**(r-1) in the single-hook block trace (independent
    of the color r): the sum of all length slices."""
    return sum(_slices(i, a), MultiPoly.zero(0))


def coef_first_order(a: int, i: int) -> MultiPoly:
    """First-order model of ``coef``: 2[a]_{-q} + 2(i-1)a(1-q)[a-1]_{-q};
    exact for i = 1, and exact mod (1-q)^2 in general."""
    return 2 * _hook_factor(a, check_int(i, "last color", 1) - 1, 0)


def hook_sum_rhs(mu, m: int) -> TruncSeries:
    """Expansion mod t**2 of the weighted hook-character sum: the product
    over parts x of 2 * sum_i ([x]_{-q} + x(i-1)(1-q)[x-1]_{-q}) u_i**(r-1),
    expanded around q = 1."""
    mu = check_multipartition(mu, m)
    poly = MultiPoly.const(2 ** mp_length(mu), m)
    for r, comp in enumerate(mu, start=1):
        for part in comp:
            inner = MultiPoly.zero(m)
            for i in range(1, m + 1):
                u_power = MultiPoly.u_power(i, m, r - 1)
                inner = inner + _hook_factor(part, i - 1, m) * u_power
            poly = poly * inner
    return expand_at_q1(poly, 2)


def wreath_hook_value(mu, m: int) -> int:
    """Weighted hook-character sum in the reflection group: (2m)**len when
    only the first component is occupied and all its parts are odd, else 0."""
    mu = check_multipartition(mu, m)
    if any(comp for comp in mu[1:]):
        return 0
    if any(part % 2 == 0 for part in mu[0]):
        return 0
    return (2 * m) ** len(mu[0])


def pair_regev_rhs(mu) -> tuple[TruncSeries, int]:
    """Literal evaluation of the stated two-component shortcut (u_1 = 1,
    u_2 kept as the free variable): the series mod t**2 and the group-case
    number.  For comparison reporting only; the constants are not asserted
    against the oracle."""
    mu = check_multipartition(mu, 2)
    if mp_size(mu) < 1:
        raise ValueError("the pair must be nonempty")
    m = 2
    poly = MultiPoly.const(2 ** (mp_length(mu) - 1), m)
    for c, comp in zip((1, MultiPoly.u_power(2, m)), mu):
        for part in comp:
            poly = poly * _hook_factor(part, c, m)
    group_value = (2 * m) ** mp_length(mu) // 2
    return expand_at_q1(poly, 2), group_value
