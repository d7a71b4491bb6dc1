import itertools

import pytest

from akchar.combinat import (
    check_int,
    compositions,
    count_semistandard,
    count_standard_multitableaux,
    format_multipartition,
    list_graded_pairs,
    list_hook_multipartitions,
    list_multipartitions,
    mp_length,
    mp_num_nonzero,
    mp_size,
    parse_multipartition,
    word_hecke,
)
from akchar.formulas import (
    CharSpec,
    bracket,
    coef,
    coef_first_order,
    theta,
    theta1_closed,
    theta2_closed,
    theta_j,
)
from akchar.operators import (
    GradedAlphabet,
    char_value_oracle,
    check_ak_presentation,
    check_shoji_presentation,
    trace_of_word,
)
from akchar.rings import (
    CycloElem,
    MultiPoly,
    TruncSeries,
    cyclotomic_polynomial,
    expand_at_q1,
    specialize_to_group,
)


def partition_count(n):
    # independent oracle: classical recurrence p(n) = sum over parts
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for maxp in range(n + 1):
        table[maxp][0] = 1
    for maxp in range(1, n + 1):
        for tot in range(1, n + 1):
            table[maxp][tot] = table[maxp - 1][tot] + (
                table[maxp][tot - maxp] if tot >= maxp else 0
            )
    return table[n][n]


class TestMultipartitions:
    def test_m1_n3(self):
        assert list_multipartitions(1, 3) == [((3,),), ((2, 1),), ((1, 1, 1),)]

    def test_m2_n1(self):
        assert list_multipartitions(2, 1) == [(((1,), ())), ((), (1,))]

    def test_m2_n2_count(self):
        assert len(list_multipartitions(2, 2)) == 5

    def test_empty_size(self):
        assert list_multipartitions(3, 0) == [((), (), ())]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", range(9))
    def test_counts_against_convolution_oracle(self, m, n):
        # number of m-multipartitions of n = sum over size splits of products
        # of single-partition counts
        expected = 0
        for split in itertools.product(range(n + 1), repeat=m):
            if sum(split) == n:
                prod = 1
                for a in split:
                    prod *= partition_count(a)
                expected += prod
        got = list_multipartitions(m, n)
        assert len(got) == expected
        assert len(set(got)) == expected

    def test_sorted_and_duplicate_free(self):
        mps = list_multipartitions(3, 4)
        assert mps == sorted(mps, reverse=True)
        assert len(set(mps)) == len(mps)


class TestGradedPairs:
    def test_a1_m1(self):
        got = list_graded_pairs(1, (1,), (1,))
        assert set(got) == {
            ((((1,),)), ((),)),
            (((),), (((1,),))),
        }
        assert len(got) == 2

    def test_a2_m1(self):
        got = list_graded_pairs(2, (1,), (1,))
        assert set(got) == {
            ((((2,),)), ((),)),
            (((),), (((2,),))),
            ((((1,),)), (((1,),))),
        }

    def test_alpha_forbidden(self):
        got = list_graded_pairs(1, (0,), (1,))
        assert got == [(((),), ((1,),))]

    def test_empty_possible(self):
        assert list_graded_pairs(1, (0,), (0,)) == []

    def test_bounds_respected_and_duplicate_free(self):
        k, l = (2, 1), (0, 2)
        got = list_graded_pairs(3, k, l)
        assert got == sorted(set(got))
        for alpha, beta in got:
            assert sum(map(sum, alpha)) + sum(map(sum, beta)) == 3
            for comp, bound in zip(alpha + beta, k + l):
                assert len(comp) <= bound
                assert all(x > 0 for x in comp)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_unbounded_count_matches_enumeration_oracle(self, m, a):
        # with bounds >= a the list must realize every pair of m-tuples of
        # compositions; oracle by direct product enumeration
        def multicomps(total):
            out = []
            def rec(slot, left, acc):
                if slot == m:
                    if left == 0:
                        out.append(acc)
                    return
                for size in range(left + 1):
                    for comp in compositions(size, size):
                        rec(slot + 1, left - size, acc + (comp,))
            rec(0, total, ())
            return out

        expected = 0
        for b in range(a + 1):
            expected += len(multicomps(b)) * len(multicomps(a - b))
        got = list_graded_pairs(a, (a,) * m, (a,) * m)
        assert len(got) == expected


class TestHooks:
    def test_all_of_n3_are_11_hooks(self):
        assert list_hook_multipartitions(3, (1,), (1,)) == list_multipartitions(1, 3)

    def test_single_row_only(self):
        assert list_hook_multipartitions(3, (1,), (0,)) == [((3,),)]

    def test_m2_all_pass(self):
        got = list_hook_multipartitions(2, (1, 1), (1, 1))
        assert got == list_multipartitions(2, 2)


class TestSemistandard:
    def test_two_cells_row(self):
        assert count_semistandard(((2,),), (1,), (1,)) == 2

    def test_two_singletons(self):
        assert count_semistandard(((1,), (1,)), (1, 1), (1, 1)) == 4

    def test_square_not_a_hook(self):
        assert count_semistandard(((2, 2),), (1,), (1,)) == 0

    def test_positive_iff_hook_small(self):
        for n in range(5):
            for k1 in range(3):
                for l1 in range(3):
                    hooks = set(list_hook_multipartitions(n, (k1,), (l1,)))
                    for mu in list_multipartitions(1, n):
                        s = count_semistandard(mu, (k1,), (l1,))
                        assert (s > 0) == (mu in hooks), (mu, k1, l1, s)

    def test_power_of_two_on_single_hooks(self):
        for m in (1, 2, 3):
            ones = (1,) * m
            for n in range(1, 5):
                for mu in list_hook_multipartitions(n, ones, ones):
                    assert count_semistandard(mu, ones, ones) == 2 ** mp_num_nonzero(mu)


class TestStandardCounts:
    def test_hook_21(self):
        assert count_standard_multitableaux(((2, 1),)) == 2

    def test_two_singletons(self):
        assert count_standard_multitableaux(((1,), (1,))) == 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_single_row(self, n):
        assert count_standard_multitableaux(((n,),)) == 1

    def test_exhaustive_cross_check(self):
        def exhaustive(mu):
            # remove a corner carrying the largest label, in every way
            if mp_size(mu) == 0:
                return 1
            total = 0
            for ci, comp in enumerate(mu):
                for ri in range(len(comp)):
                    if ri == len(comp) - 1 or comp[ri + 1] < comp[ri]:
                        new = list(comp)
                        new[ri] -= 1
                        if new[ri] == 0:
                            new.pop(ri)
                        total += exhaustive(
                            mu[:ci] + (tuple(new),) + mu[ci + 1:]
                        )
            return total

        for m in (1, 2):
            for n in range(7):
                for mu in list_multipartitions(m, n):
                    assert count_standard_multitableaux(mu) == exhaustive(mu), mu


class TestWords:
    def test_hecke_single_braid(self):
        assert word_hecke(((2,),)) == (("g", 1),)

    def test_hecke_two_color_scalings(self):
        assert word_hecke(((), (1, 1))) == (("xi", 1, 1), ("xi", 2, 1))

    def test_hecke_first_block_silent(self):
        assert word_hecke(((1,), (1,))) == (("xi", 2, 1),)

    def test_symbol_count_invariant(self):
        for m in (1, 2, 3):
            for n in range(1, 6):
                for mu in list_multipartitions(m, n):
                    word = word_hecke(mu)
                    braids = [s for s in word if s[0] == "g"]
                    xis = [s for s in word if s[0] == "xi"]
                    assert len(braids) == n - mp_length(mu)
                    for r, comp in enumerate(mu, start=1):
                        with_power = [s for s in xis if s[2] == r - 1]
                        if r == 1:
                            continue
                        assert len(with_power) == len(comp)


class TestParsing:
    def test_round_trip(self):
        mu = ((3, 1), (), (2,))
        assert parse_multipartition(format_multipartition(mu)) == mu

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_multipartition("[[2,]]")

    def test_increasing_rejected(self):
        with pytest.raises(ValueError):
            parse_multipartition("[[1,2]]")

    def test_component_count_checked(self):
        with pytest.raises(ValueError):
            parse_multipartition("[[1]]", m=2)

    def test_bool_parts_rejected(self):
        # a JSON true is an int to Python; it must not pass as the part 1
        with pytest.raises(ValueError):
            parse_multipartition("[[true,true]]")


@pytest.mark.parametrize("k, l", [
    ((-1,), (1,)), ((1.5,), (1,)), ((True,), (1,)), ((1, 1), (1,)), ((), ()),
], ids=["negative", "fractional", "bool", "unequal", "empty"])
@pytest.mark.parametrize("build", [
    lambda k, l: CharSpec(len(k), k, l),
    GradedAlphabet,
    lambda k, l: list_graded_pairs(2, k, l),
    lambda k, l: list_hook_multipartitions(2, k, l),
    lambda k, l: count_semistandard(((1,),) * len(k), k, l),
    lambda k, l: char_value_oracle(((1,),) * len(k), k, l),
], ids=["CharSpec", "GradedAlphabet", "list_graded_pairs",
        "list_hook_multipartitions", "count_semistandard", "char_value_oracle"])
def test_alphabet_checked_at_every_entry_point(build, k, l):
    # int() used to truncate 1.5 to 1, and some entry points skipped the sign,
    # length or emptiness check, giving silently wrong answers
    with pytest.raises(ValueError, match="k and l must be|letter counts must be"):
        build(k, l)


@pytest.mark.parametrize("size", [1.5, True], ids=["fractional", "bool"])
@pytest.mark.parametrize("build", [
    lambda x: list_multipartitions(x, 1),
    lambda x: list_multipartitions(1, x),
    lambda x: list_hook_multipartitions(x, (1,), (1,)),
    lambda x: list_graded_pairs(x, (1,), (1,)),
], ids=["list_multipartitions-m", "list_multipartitions-n",
        "list_hook_multipartitions", "list_graded_pairs"])
def test_sizes_checked_at_every_enumerator(build, size):
    # sizes are ints as letter counts are: a fractional one must not reach
    # the recursion, and True must not pass as the size 1
    with pytest.raises(ValueError, match="must be a (positive|nonnegative) integer"):
        build(size)


def test_check_int_names_the_argument_and_its_bounds():
    assert check_int(3, "size", 1, 3) == 3
    assert check_int(-7, "q-exponent") == -7
    for args, message in [
        ((0, "size", 1), "size must be a positive integer, got 0"),
        ((-1, "size", 0), "size must be a nonnegative integer, got -1"),
        ((1, "n", 2), "n must be an integer >= 2, got 1"),
        ((4, "color", 1, 3), "color must be an integer in 1..3, got 4"),
        ((2.0, "exponent"), "exponent must be an integer, got 2.0"),
        ((False, "exponent"), "exponent must be an integer, got False"),
    ]:
        with pytest.raises(ValueError) as info:
            check_int(*args)
        assert str(info.value) == message


_SPEC1 = CharSpec(1, (1,), (1,))
_ALPH1 = GradedAlphabet((1,), (1,))

# every scalar integer argument outside the enumerators above, one entry
# point per argument
_SCALAR_ENTRY_POINTS = {
    "CharSpec-m": lambda x: CharSpec(x, (1,), (1,)),
    "bracket": bracket,
    "theta-r": lambda x: theta(x, 1, _SPEC1),
    "theta-a": lambda x: theta(1, x, _SPEC1),
    "theta_j-j": lambda x: theta_j(x, 1, 2),
    "theta_j-i": lambda x: theta_j(1, x, 2),
    "theta_j-a": lambda x: theta_j(1, 1, x),
    "theta1_closed": theta1_closed,
    "theta2_closed-i": lambda x: theta2_closed(x, 2),
    "theta2_closed-a": lambda x: theta2_closed(1, x),
    "coef-a": lambda x: coef(x, 1),
    "coef-i": lambda x: coef(1, x),
    "coef_first_order-a": lambda x: coef_first_order(x, 1),
    "coef_first_order-i": lambda x: coef_first_order(1, x),
    "trace-xi-position": lambda x: trace_of_word((("xi", x, 1),), 1, _ALPH1),
    "trace-xi-exponent": lambda x: trace_of_word((("xi", 1, x),), 1, _ALPH1),
    "trace-g-index": lambda x: trace_of_word((("g", x),), 2, _ALPH1),
    "check_ak_presentation": lambda x: check_ak_presentation(x, (1,), (1,)),
    "check_shoji_presentation": lambda x: check_shoji_presentation(x, (1,), (1,)),
    "pow": lambda x: MultiPoly.one(1) ** x,
    "MultiPoly-m": MultiPoly,
    "MultiPoly-q-exponent": lambda x: MultiPoly(1, {(x, 0): 1}),
    "MultiPoly-u-exponent": lambda x: MultiPoly(1, {(0, x): 1}),
    "MultiPoly-coefficient": lambda x: MultiPoly(1, {(0, 0): x}),
    "zero-m": MultiPoly.zero,
    "const": lambda x: MultiPoly.const(x, 1),
    "const-m": lambda x: MultiPoly.const(1, x),
    "one-m": MultiPoly.one,
    "q_power": lambda x: MultiPoly.q_power(x, 1),
    "q_power-m": lambda x: MultiPoly.q_power(1, x),
    "u_power-i": lambda x: MultiPoly.u_power(x, 1),
    "u_power-e": lambda x: MultiPoly.u_power(1, 1, x),
    "u_power-m": lambda x: MultiPoly.u_power(1, x),
    "from_text-m": lambda x: MultiPoly.from_text("q", x),
    "substitute_u_one": lambda x: MultiPoly.one(1).substitute_u_one(x),
    "embed": lambda x: MultiPoly.one(1).embed(x),
    "MultiPoly.from_json-c": lambda x: MultiPoly.from_json(
        {"terms": [{"c": x, "eq": 0, "eu": [0]}]}),
    "MultiPoly.from_json-eq": lambda x: MultiPoly.from_json(
        {"terms": [{"c": 1, "eq": x, "eu": [0]}]}),
    "MultiPoly.from_json-eu": lambda x: MultiPoly.from_json(
        {"terms": [{"c": 1, "eq": 0, "eu": [x]}]}),
    # the cache behind cyclotomic_polynomial would take True for a cached 1
    "cyclotomic_polynomial": lambda x: (cyclotomic_polynomial(1),
                                        cyclotomic_polynomial(x)),
    "CycloElem-m": CycloElem,
    "CycloElem-coefficient": lambda x: CycloElem(3, (x,)),
    "specialize_to_group-m": lambda x: specialize_to_group(MultiPoly.one(1), x),
    "x_power-m": lambda x: CycloElem.x_power(x, 1),
    "x_power-e": lambda x: CycloElem.x_power(2, x),
    "CycloElem.from_json-m": lambda x: CycloElem.from_json({"m": x, "coeffs": [1]}),
    "CycloElem.from_json-coeffs": lambda x: CycloElem.from_json(
        {"m": 2, "coeffs": [x]}),
    "TruncSeries-order": lambda x: TruncSeries(x, 1),
    "TruncSeries-m": lambda x: TruncSeries(2, x),
    "t_power": lambda x: TruncSeries.t_power(1, 2, x),
    "expand_at_q1": lambda x: expand_at_q1(MultiPoly.one(1), x),
}


@pytest.mark.parametrize("value", [1.5, True], ids=["fractional", "bool"])
@pytest.mark.parametrize("build", list(_SCALAR_ENTRY_POINTS.values()),
                         ids=list(_SCALAR_ENTRY_POINTS))
def test_scalar_arguments_checked_at_every_entry_point(build, value):
    # 1.5 used to be truncated, stored, or turned into a TypeError, and True
    # to pass as 1; check_int is the one check for all of them
    with pytest.raises(ValueError, match="must be an? (positive |nonnegative )?integer"):
        build(value)


@pytest.mark.parametrize("mu", [((2, 0), ()), ((3, -1), (1,)), ((), (1.5,))])
@pytest.mark.parametrize("count", [
    lambda mu: count_semistandard(mu, (1, 1), (1, 1)),
    count_standard_multitableaux,
    word_hecke,
], ids=["count_semistandard", "count_standard_multitableaux", "word_hecke"])
def test_parts_must_be_positive_integers(count, mu):
    # a zero, negative or fractional part used to pass unchecked
    with pytest.raises(ValueError, match="positive integers"):
        count(mu)
