import math

import pytest
from hypothesis import given, settings, strategies as st

from akchar.combinat import list_graded_pairs, list_multipartitions
from akchar.formulas import (
    CharSpec,
    bracket,
    character_value,
    coef,
    coef_first_order,
    group_character_value,
    hook_sum_rhs,
    pair_regev_rhs,
    theta,
    theta1_closed,
    theta2_closed,
    theta_j,
    wreath_hook_value,
)
from akchar.operators import char_value_oracle
from akchar.rings import (
    CycloElem,
    MultiPoly,
    TruncSeries,
    expand_at_q1,
    specialize_to_group,
)


def mp(text, m=0):
    return MultiPoly.from_text(text, m)


class TestCharSpec:
    @pytest.mark.parametrize("args, message", [
        ((2, (1,), (1,)), "k and l must both have length m"),
        ((1, (0,), (0,)), "need at least one letter overall"),
    ], ids=["length", "empty"])
    def test_rejects(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CharSpec(*args)

    def test_replace_and_make_check(self):
        # namedtuple's _replace and _make build through _make, which must
        # run the same checks as the constructor
        with pytest.raises(ValueError, match="^k and l must both have length m$"):
            CharSpec.ones(1)._replace(m=2)
        with pytest.raises(ValueError,
                           match="^color count must be a positive integer, got 0$"):
            CharSpec._make((0, (0,), (0,)))
        with pytest.raises(ValueError, match="^need at least one letter overall$"):
            CharSpec._make((1, (0,), (0,)))
        assert CharSpec.ones(2)._replace(k=[2, 0]) == CharSpec(2, (2, 0), (1, 1))
        assert CharSpec._make([1, [1], [1]]) == CharSpec.ones(1)

    def test_immutable(self):
        spec = CharSpec(1, (1,), (1,))
        with pytest.raises(AttributeError):
            spec.k = (2,)
        assert spec.k == (1,)


class TestBracket:
    def test_empty(self):
        assert bracket(0) == 0

    def test_two(self):
        assert bracket(2) == mp("1 - q")

    def test_three(self):
        assert bracket(3) == mp("1 - q + q^2")


class TestTheta:
    def test_identity_block(self):
        spec = CharSpec.ones(1)
        assert theta(1, 1, spec) == 2

    def test_two_block(self):
        spec = CharSpec.ones(1)
        assert theta(1, 2, spec) == mp("2 - 2*q", 1)

    def test_color_two_singleton(self):
        spec = CharSpec(2, (1, 1), (0, 0))
        assert theta(2, 1, spec) == mp("u1 + u2", 2)

    def test_range_checks(self):
        spec = CharSpec.ones(1)
        with pytest.raises(ValueError):
            theta(2, 1, spec)
        with pytest.raises(ValueError):
            theta(1, 0, spec)

    def test_result_is_a_copy(self):
        # mutating a returned block trace, or a one-block character value,
        # must not reach the cached block trace
        spec = CharSpec(1, (1,), (1,))
        theta(1, 2, spec).terms.clear()
        assert theta(1, 2, spec) == mp("2 - 2*q", 1)
        character_value(((2,),), spec).terms.clear()
        assert theta(1, 2, spec) == mp("2 - 2*q", 1)
        assert character_value(((2,),), spec) == mp("2 - 2*q", 1)


def theta_by_pairs(r, a, spec):
    """Reference block trace: the signed sum over every bounded composition
    pair, one term per pair."""
    m, k, l = spec.m, spec.k, spec.l
    one_minus_q = MultiPoly.one(m) - MultiPoly.q_power(1, m)
    total = MultiPoly.zero(m)
    for alpha, beta in list_graded_pairs(a, k, l):
        length = sum(map(len, alpha + beta))
        last = max(i for i in range(1, m + 1) if alpha[i - 1] or beta[i - 1])
        mult = 1
        for i in range(m):
            mult *= math.comb(k[i], len(alpha[i]))
            mult *= math.comb(l[i], len(beta[i]))
        excess = sum(map(sum, beta)) - sum(map(len, beta))
        term = MultiPoly.const(-mult if excess % 2 else mult, m)
        term = term * MultiPoly.u_power(last, m, r - 1)
        term = term * MultiPoly.q_power(excess, m)
        term = term * one_minus_q ** (length - 1)
        total = total + term
    return total


class TestThetaByColors:
    """The dynamic program over colors against the pair-by-pair sum."""

    @pytest.mark.parametrize("k,l", [
        ((1,), (1,)),
        ((2,), (0,)),
        ((0,), (3,)),
        ((2, 1), (1, 2)),
        ((1, 0), (0, 0)),
        ((3, 2, 1), (1, 2, 3)),
        ((2, 0, 1), (0, 2, 1)),
        ((2, 2, 2), (2, 2, 2)),
    ])
    def test_matches_pair_enumeration(self, k, l):
        spec = CharSpec(len(k), k, l)
        for a in range(1, 8):
            for r in range(1, spec.m + 1):
                assert theta(r, a, spec) == theta_by_pairs(r, a, spec), (r, a)

    def test_large_block_group_value(self):
        # 30 boxes is far beyond what pair enumeration reaches
        spec = CharSpec(3, (2, 2, 2), (2, 2, 2))
        for r in range(1, 4):
            mu = tuple((30,) if i == r else () for i in range(1, 4))
            assert specialize_to_group(theta(r, 30, spec), 3) == (
                group_character_value(mu, spec)), r


class TestCharacterValue:
    def test_identity(self):
        assert character_value(((1, 1),), CharSpec.ones(1)) == 4

    def test_matches_oracle_example(self):
        value = character_value(((2,),), CharSpec.ones(1))
        assert value == mp("2 - 2*q", 1)
        assert value == char_value_oracle(((2,),), (1,), (1,))

    def test_two_colors(self):
        spec = CharSpec(2, (1, 1), (0, 0))
        assert character_value(((1,), (1,)), spec) == mp("2*u1 + 2*u2", 2)

    def test_cost_does_not_grow_with_letter_counts(self):
        # a block of size a has at most a parts per slot, so the cost must be
        # bounded by the block size, not by the letter counts
        spec = CharSpec(1, (10**6,), (1,))
        assert character_value(((1, 1),), spec) == (10**6 + 1) ** 2
        value = character_value(((2,),), spec)
        assert specialize_to_group(value, 1) == group_character_value(((2,),), spec)

    @pytest.mark.parametrize("k,l", [((1,), (1,)), ((2,), (0,)), ((1, 0), (1, 1))])
    def test_oracle_equivalence_small(self, k, l):
        m = len(k)
        spec = CharSpec(m, k, l)
        for n in range(1, 4):
            for mu in list_multipartitions(m, n):
                assert character_value(mu, spec) == char_value_oracle(mu, k, l), mu


class TestGroupValue:
    def test_first_component_singleton(self):
        spec = CharSpec(2, (1, 1), (1, 1))
        assert group_character_value(((1,), ()), spec) == 4

    def test_second_component_singleton(self):
        spec = CharSpec(2, (1, 1), (1, 1))
        assert group_character_value(((), (1,)), spec) == 0

    def test_balanced_two_cycle(self):
        spec = CharSpec.ones(1)
        value = group_character_value(((2,),), spec)
        assert value == 0
        oracle = char_value_oracle(((2,),), (1,), (1,))
        assert specialize_to_group(oracle, 1) == value

    def test_specialization_commutes_small(self):
        for m, k, l in [(2, (1, 1), (1, 1)), (3, (1, 0, 1), (0, 1, 0))]:
            spec = CharSpec(m, k, l)
            for n in range(1, 4):
                for mu in list_multipartitions(m, n):
                    assert specialize_to_group(
                        char_value_oracle(mu, k, l), m
                    ) == group_character_value(mu, spec), mu


_SPEC2 = CharSpec(2, (1, 1), (1, 1))


@pytest.mark.parametrize("mu", [((2, 0), ()), ((3, -1), (1,)), ((), (1.5,))])
@pytest.mark.parametrize("evaluate", [
    lambda mu: character_value(mu, _SPEC2),
    lambda mu: group_character_value(mu, _SPEC2),
    lambda mu: char_value_oracle(mu, _SPEC2.k, _SPEC2.l),
    lambda mu: hook_sum_rhs(mu, 2),
    lambda mu: wreath_hook_value(mu, 2),
    pair_regev_rhs,
], ids=["character_value", "group_character_value", "char_value_oracle",
        "hook_sum_rhs", "wreath_hook_value", "pair_regev_rhs"])
def test_parts_must_be_positive_integers(evaluate, mu):
    # a zero, negative or fractional part used to give a silently wrong value
    with pytest.raises(ValueError, match="positive integers"):
        evaluate(mu)


def _group_value_by_cyclo_chain(mu, spec):
    # every term a CycloElem, reduced mod Phi_m at each + and *
    m = spec.m
    result = CycloElem.from_int(m, 1)
    for r, comp in enumerate(mu, start=1):
        for part in comp:
            sign = -1 if part % 2 else 1
            factor = CycloElem.from_int(m, 0)
            for i in range(1, m + 1):
                weight = spec.k[i - 1] - sign * spec.l[i - 1]
                if weight:
                    factor = factor + weight * CycloElem.x_power(m, (r - 1) * (i - 1))
            result = result * factor
    return result


@st.composite
def group_cases(draw):
    m = draw(st.integers(1, 6))
    entries = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    k = draw(entries)
    l = draw(entries.filter(lambda l: sum(k) + sum(l) > 0))
    mu = draw(st.sampled_from(list_multipartitions(m, draw(st.integers(0, 5)))))
    return mu, CharSpec(m, k, l)


@settings(max_examples=300, deadline=None)
@given(group_cases())
def test_group_value_matches_cyclo_chain(case):
    mu, spec = case
    got = group_character_value(mu, spec)
    assert got.coeffs == _group_value_by_cyclo_chain(mu, spec).coeffs


class TestSingleHookSlices:
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_theta1_at_3(self, i):
        assert theta_j(1, i, 3) == mp("1 + q^2")

    def test_theta2_examples(self):
        assert theta_j(2, 1, 3) == mp("1 - 2*q + q^2")
        assert theta_j(2, 2, 3) == mp("5 - 10*q + 5*q^2")

    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("a", range(1, 9))
    def test_closed_forms(self, i, a):
        assert theta_j(1, i, a) == theta1_closed(a)
        if 2 <= 2 * i:
            assert theta_j(2, i, a) == theta2_closed(i, a), (i, a)

    def test_coef_at_one(self):
        for i in (1, 2, 3):
            assert coef(1, i) == 2

    @pytest.mark.parametrize("a", range(1, 9))
    def test_coef_first_color_exact(self, a):
        assert coef(a, 1) == 2 * bracket(a)

    def test_coef_2_2_mod_t2(self):
        got = expand_at_q1(coef(2, 2), 2)
        assert got == 6 * TruncSeries.t_power(0, 2)

    @pytest.mark.parametrize("a", range(1, 9))
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_coef_first_order_mod_t2(self, a, i):
        assert expand_at_q1(coef(a, i), 2) == expand_at_q1(coef_first_order(a, i), 2)

    def test_coef_reassembles_theta(self):
        for m, a_hi in ((1, 4), (2, 4), (3, 4), (4, 6)):
            spec = CharSpec.ones(m)
            for r in range(1, m + 1):
                for a in range(1, a_hi + 1):
                    total = MultiPoly.zero(m)
                    for i in range(1, m + 1):
                        total = total + coef(a, i).embed(m) * MultiPoly.u_power(i, m, r - 1)
                    assert total == theta(r, a, spec), (m, r, a)


class TestHookSum:
    def test_single_three_cycle(self):
        got = hook_sum_rhs(((3,),), 1)
        t = TruncSeries.t_power(1, 2)
        assert got == 2 - 2 * t

    def test_identity_two(self):
        assert hook_sum_rhs(((1, 1),), 1) == TruncSeries.const(4, 1, 2)

    def test_two_color_two_cycle(self):
        got = hook_sum_rhs(((2,), ()), 2)
        assert got == 8 * TruncSeries.t_power(2, 2)
        oracle = char_value_oracle(((2,), ()), (1, 1), (1, 1))
        assert expand_at_q1(oracle, 2) == got

    def test_matches_oracle_small(self):
        for m in (1, 2):
            ones = (1,) * m
            for n in range(1, 4):
                for mu in list_multipartitions(m, n):
                    assert expand_at_q1(
                        char_value_oracle(mu, ones, ones), 2
                    ) == hook_sum_rhs(mu, m), mu


class TestWreath:
    def test_single_odd_part(self):
        assert wreath_hook_value(((3,),), 1) == 2

    def test_two_odd_parts_two_colors(self):
        assert wreath_hook_value(((3, 1), ()), 2) == 16

    def test_even_part(self):
        assert wreath_hook_value(((2,), ()), 2) == 0

    def test_occupied_later_component(self):
        assert wreath_hook_value(((), (1,)), 2) == 0

    def test_matches_group_specialization_small(self):
        for m in (1, 2):
            ones = (1,) * m
            for n in range(1, 5):
                for mu in list_multipartitions(m, n):
                    got = specialize_to_group(char_value_oracle(mu, ones, ones), m)
                    assert got == CycloElem.from_int(m, wreath_hook_value(mu, m)), mu


class TestPairFormula:
    def test_single_box(self):
        series, group = pair_regev_rhs(((1,), ()))
        assert series == TruncSeries.const(1, 2, 2)
        assert group == 2

    def test_two_boxes(self):
        series, group = pair_regev_rhs(((1, 1), ()))
        assert series == TruncSeries.const(2, 2, 2)
        assert group == 8

    def test_needs_two_components(self):
        with pytest.raises(ValueError):
            pair_regev_rhs(((1,),))
