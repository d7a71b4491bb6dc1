"""Verification sweeps: each suite runs one family of identities over a
bounded grid of shapes and sizes and reports every counterexample.

The sweeps are pure and deterministic: cases run one after another in a
fixed order, so the output is fixed too.
"""
from __future__ import annotations

import itertools
from collections import namedtuple

from .combinat import (
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


class SuiteResult(namedtuple("SuiteResult", "name cases failures")):
    """A suite's name, its case count and the report of each failed case."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _collect(name, cases, check) -> SuiteResult:
    failures = [r for r in map(check, cases) if r is not None]
    return SuiteResult(name, len(cases), failures)


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


def suite_oracle(max_n=None, m_only=None, n_only=None) -> SuiteResult:
    """Closed form versus brute-force trace, as canonical polynomials."""
    cases = _character_cases((1, 2, 3), max_n, m_only, n_only)

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

    return _collect("oracle", cases, check)


def _relation_suite(name, checker, n_lo, max_n, m_only, n_only) -> SuiteResult:
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

    return _collect(name, cases, check)


def suite_ak_relations(max_n=None, m_only=None, n_only=None) -> SuiteResult:
    """Cyclotomic-generator presentation as operator identities."""
    return _relation_suite(
        "ak-relations", check_ak_presentation, 1, max_n, m_only, n_only
    )


def suite_shoji_relations(max_n=None, m_only=None, n_only=None) -> SuiteResult:
    """Braid/color-scaling presentation as operator identities."""
    return _relation_suite(
        "shoji-relations", check_shoji_presentation, 2, max_n, m_only, n_only
    )


def suite_specialization(max_n=None, m_only=None, n_only=None) -> SuiteResult:
    """Root-of-unity specialization of the oracle versus the group formula."""
    cases = _character_cases((1, 2, 3, 4), max_n, m_only, n_only)

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

    return _collect("specialization", cases, check)


def suite_theta_closed_forms(max_n=None, m_only=None, n_only=None) -> SuiteResult:
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

    return _collect("theta-closed-forms", cases, check)


def suite_coef(max_n=None, m_only=None, n_only=None) -> SuiteResult:
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

    return _collect("coef", cases, check)


def suite_hook_sum(max_n=None, m_only=None, n_only=None) -> SuiteResult:
    """Truncated expansion of the single-hook oracle trace versus the
    weighted hook-sum product, plus the exact single-row values."""
    cases = []
    for m in _ms((1, 2, 3), m_only):
        ones = (1,) * m
        for n in _ns(1, 4, max_n, n_only):
            for mu in list_multipartitions(m, n):
                cases.append(("mod-t2", m, ones, mu))
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

    return _collect("hook-sum", cases, check)


def suite_wreath(max_n=None, m_only=None, n_only=None) -> SuiteResult:
    """Group specialization of the single-hook oracle versus the wreath
    closed form (an integer)."""
    cases = []
    for m in _ms((1, 2, 3), m_only):
        ones = (1,) * m
        for n in _ns(1, 5, max_n, n_only):
            for mu in list_multipartitions(m, n):
                cases.append((m, ones, mu))

    def check(case):
        m, ones, mu = case
        got = specialize_to_group(char_value_oracle(mu, ones, ones), m)
        want = CycloElem.from_int(m, wreath_hook_value(mu, m))
        if got != want:
            return {"m": m, "mu": format_multipartition(mu),
                    "specialized": got.to_text(), "wreath": want.to_text()}
        return None

    return _collect("wreath", cases, check)


def suite_dimension_identity(max_n=None, m_only=None, n_only=None) -> SuiteResult:
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

    return _collect("dimension-identity", cases, check)


_SUITES = {
    "oracle": suite_oracle,
    "ak-relations": suite_ak_relations,
    "shoji-relations": suite_shoji_relations,
    "specialization": suite_specialization,
    "theta-closed-forms": suite_theta_closed_forms,
    "coef": suite_coef,
    "hook-sum": suite_hook_sum,
    "wreath": suite_wreath,
    "dimension-identity": suite_dimension_identity,
}

SUITE_NAMES = list(_SUITES)


def run_suite(name: str, max_n=None, m_only=None, n_only=None) -> SuiteResult:
    try:
        fn = _SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or all"
        )
    return fn(max_n=max_n, m_only=m_only, n_only=n_only)
