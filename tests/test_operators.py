import functools
import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from akchar import operators
from akchar.combinat import (
    count_semistandard, list_graded_pairs, list_multipartitions, word_hecke,
)
from akchar.formulas import CharSpec, group_character_value
from akchar.operators import (
    _MONOMIALS,
    GradedAlphabet,
    _accumulate,
    _alphabet,
    _annihilator,
    _apply_steps,
    _braid_sums,
    _check_reach,
    _compile_word,
    _diagonal_sums,
    _exchange,
    _report,
    _shape,
    _start,
    _zero,
    char_value_oracle,
    check_ak_presentation,
    check_shoji_presentation,
    trace_of_word,
)
from akchar.rings import MultiPoly, specialize_to_group
from akchar.verify import _alphabet_configs


def mp(text, m):
    return MultiPoly.from_text(text, m)


def unit(word, m):
    return {tuple(word): MultiPoly.one(m)}


def word_key(word, alph):
    """The word bits of a flat key: letter i in field i."""
    return sum(a << (alph._letter_bits * i) for i, a in enumerate(word))


def apply_word(word, terms, alph, n):
    """``word`` applied to ``{basis word: MultiPoly}`` by the engine the
    library runs, ``_compile_word`` and ``_apply_steps``, with the basis
    field 0; like ``trace_of_word`` it checks the word's own reach."""
    steps = _compile_word(word, n, alph)
    _check_reach(sum(step[4] for step in steps))
    width = alph._letter_bits * n
    state = {(key << 2 * width) + word_key(w, alph): c
             for w, p in terms.items() for key, c in alph.poly_to_raw(p).items()}
    out = {}
    for key, c in _apply_steps(state, steps).items():
        out.setdefault(alph._word_of(key, n), {})[key >> 2 * width] = c
    return {w: alph.poly_from_raw(raw) for w, raw in out.items()}


class TestPackedRange:
    """u-exponents that would leave the packed 8-bit fields raise instead of
    wrapping into a neighbouring field; q-exponents, in the signed top field,
    are exact at any size, and a negative one makes the key negative."""

    def test_xi_power_256(self):
        alph = GradedAlphabet((1,), (1,))
        assert trace_of_word((("xi", 1, 255),), 1, alph) == mp("2*u1^255", 1)
        with pytest.raises(ValueError):
            trace_of_word((("xi", 1, 256),), 1, alph)

    def test_oracle_reach(self):
        # each of the 255 blocks of component 2 scales by u of the one
        # letter's color, 1
        assert char_value_oracle(((), (1,) * 255), (1, 0), (0, 0)) == mp("u1^255", 2)
        with pytest.raises(ValueError, match="u-exponents may reach 256"):
            char_value_oracle(((), (1,) * 256), (1, 0), (0, 0))

    def test_ginv_heavy_word(self):
        # on two equal odd letters T^-1 acts as -q^-1
        alph = GradedAlphabet((1,), (1,))
        state = unit((2, 2), 1)
        for e in range(1, 301):
            state = apply_word((("ginv", 1),), state, alph, 2)
            if e in (128, 129, 300):
                expected = (-1) ** e * MultiPoly.q_power(-e, 1)
                assert state == {(2, 2): expected}, e

    def test_long_trace_word(self):
        # the trace of T^e summed over the basis words, each pushed through
        # e applications of the MultiPoly reference
        alph = GradedAlphabet((1,), (1,))
        words = list(itertools.product(range(1, alph.size + 1), repeat=2))
        states = {w: {w: MultiPoly.one(1)} for w in words}
        for e in range(1, 131):
            states = {w: _reference_apply(("g", 1), s, alph, 1)
                      for w, s in states.items()}
            if e in (127, 128, 130):
                expected = sum((s.get(w, MultiPoly.zero(1))
                                for w, s in states.items()), MultiPoly.zero(1))
                assert trace_of_word((("g", 1),) * e, 2, alph) == expected, e


# u-exponents near both edges of the packed 8-bit fields, and a few beyond
# them, which must raise; q-exponents of either sign, large or small, which
# must stay exact
_EQ_EDGE = st.one_of(st.integers(-131, -124), st.integers(-2, 2), st.integers(124, 130))
_EU_EDGE = st.one_of(st.integers(0, 2), st.integers(124, 131), st.integers(250, 257))


@st.composite
def edge_polys(draw, m):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        key = (draw(_EQ_EDGE),) + tuple(draw(_EU_EDGE) for _ in range(m))
        terms[key] = draw(st.integers(-5, 5))
    return MultiPoly(m, terms)


def _fits(p, e=0):
    """Whether every u-exponent of ``p``, with ``e`` added to it, fits the
    packed fields."""
    return all(max(key[1:]) + e < 256 for key in p.terms)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(edge_polys(m), edge_polys(m))))
def test_packed_product_matches_multipoly(pair):
    a, b = pair
    alph = GradedAlphabet((1,) * a.m, (0,) * a.m)
    product = a * b
    for p in (a, b, product):
        if not _fits(p):
            with pytest.raises(ValueError):
                alph.poly_to_raw(p)
    if _fits(a) and _fits(b) and _fits(product):
        # a * b as one accumulate per monomial term of b
        raw, raw_a = {}, alph.poly_to_raw(a)
        for key, c in alph.poly_to_raw(b).items():
            _accumulate(raw, raw_a, key, c)
        assert alph.poly_from_raw(raw) == product


@st.composite
def xi_cases(draw):
    m = draw(st.integers(1, 3))
    k = tuple(draw(st.integers(0, 2)) for _ in range(m))
    l = tuple(draw(st.integers(0, 2)) for _ in range(m))
    if not sum(k) + sum(l):
        k = (1,) + k[1:]
    alph = GradedAlphabet(k, l)
    n = draw(st.integers(1, 3))
    letters = st.integers(1, alph.size)
    words = draw(st.lists(st.tuples(*[letters] * n), max_size=3, unique=True))
    terms = {w: draw(edge_polys(m)) for w in words}
    j = draw(st.integers(1, n))
    e = draw(st.one_of(st.integers(1, 3), st.integers(120, 260)))
    return alph, n, terms, j, e


@settings(max_examples=150, deadline=None)
@given(xi_cases())
def test_color_scaling_matches_multipoly(case):
    # an input exponent out of its field and a scaling power beyond it both
    # raise; a scaling that carries a fitting input out of its field is not
    # checked, since only the word's own reach is
    alph, n, terms, j, e = case
    m = alph.m
    if e >= 256 or not all(_fits(c) for c in terms.values()):
        with pytest.raises(ValueError):
            apply_word((("xi", j, e),), terms, alph, n)
        return
    got = apply_word((("xi", j, e),), terms, alph, n)
    if all(_fits(c, e) for c in terms.values()):
        assert got == {w: c * MultiPoly.u_power(alph.colors[w[j - 1]], m, e)
                       for w, c in terms.items() if c}


def _swap_reference(tag, a, b, alph, m):
    """(new letter pair, coefficient) terms of ``tag`` on the adjacent letters
    a, b, read off the signed quantum-swap definitions: T carries 1 - q on an
    ascending pair and q on a descending one, T^-1 inverts it, and the plain
    swap is T off its same-color blocks, with no 1 - q term."""
    one = MultiPoly.one(m)
    q, qinv = MultiPoly.q_power(1, m), MultiPoly.q_power(-1, m)
    sign = -one if alph.parities[a] and alph.parities[b] else one
    if tag == "swap" and alph.colors[a] != alph.colors[b]:
        return [((b, a), sign if a < b else sign * q)]
    if tag == "ginv":
        if a == b:
            return [((a, a), -qinv if alph.parities[a] else one)]
        if a < b:
            return [((b, a), sign * qinv)]
        return [((a, b), one - qinv), ((b, a), sign)]
    if a == b:
        return [((a, a), -q if alph.parities[a] else one)]
    if a < b:
        return [((a, b), one - q), ((b, a), sign)]
    return [((b, a), sign * q)]


def _reference_apply(sym, terms, alph, m):
    out = {}
    for w, c in terms.items():
        if sym[0] == "xi":
            j, e = sym[1], sym[2]
            images = [(w, c * MultiPoly.u_power(alph.colors[w[j - 1]], m, e))]
        else:
            i = sym[1]
            images = [
                (w[:i - 1] + pair + w[i + 1:], c * f)
                for pair, f in _swap_reference(sym[0], w[i - 1], w[i], alph, m)
            ]
        for v, f in images:
            out[v] = out.get(v, MultiPoly.zero(m)) + f
    return {v: c for v, c in out.items() if c}


@st.composite
def word_cases(draw):
    m = draw(st.integers(1, 2))
    k = tuple(draw(st.integers(0, 2)) for _ in range(m))
    l = tuple(draw(st.integers(0, 2)) for _ in range(m))
    if not sum(k) + sum(l):
        l = (1,) + l[1:]
    alph = GradedAlphabet(k, l)
    n = draw(st.integers(2, 3))
    letters = st.integers(1, alph.size)
    words = draw(st.lists(st.tuples(*[letters] * n), min_size=1, max_size=3,
                          unique=True))
    # q-exponents start near zero or far below it, where a negative one makes
    # the key negative, and ginv-heavy words take them further down
    eq = st.one_of(st.integers(-128, -124), st.integers(-2, 2))
    state = {}
    for w in words:
        terms = {
            (draw(eq),) + tuple(draw(st.integers(0, 2)) for _ in range(m)):
                draw(st.integers(-3, 3))
            for _ in range(draw(st.integers(1, 2)))
        }
        state[w] = MultiPoly(m, terms)
    braid = st.tuples(st.sampled_from(["g", "ginv", "ginv", "ginv", "swap"]),
                      st.integers(1, n - 1))
    xi = st.tuples(st.just("xi"), st.integers(1, n), st.integers(1, 2))
    word = draw(st.lists(st.one_of(braid, xi), min_size=1, max_size=10))
    return alph, n, state, word


@settings(max_examples=100, deadline=None)
@given(word_cases())
def test_words_match_multipoly_reference(case):
    alph, n, state, word = case
    expected = state
    # u-exponents stay below 2 + 10 * 2, far inside their fields, so every
    # word is computed exactly
    for sym in reversed(word):  # rightmost symbol acts first
        state = apply_word((sym,), state, alph, n)
        expected = _reference_apply(sym, expected, alph, alph.m)
        assert state == expected, sym


def test_raw_state_keeps_no_cancelled_word():
    # the presentation checks compare flat states with !=, so a zero left
    # under a cancelled key would read as a difference; on every ascending
    # pair two branches of the T^-1 step cancel
    alph = GradedAlphabet((1, 1), (1, 0))
    steps = _compile_word((("ginv", 1), ("g", 1)), 2, alph)
    for w in itertools.product(range(1, alph.size + 1), repeat=2):
        basis = word_key(w, alph)
        assert _apply_steps({basis: 1}, steps) == {basis: 1}, w


def _unpruned_diagonal_sums(steps, n, alph, ends):
    """``_diagonal_sums`` by another route: each basis word on its own, with
    a zero basis field and nothing dropped, then its image's entries on that
    word, whose monomials sit at ``2 f n``."""
    width = alph._letter_bits * n
    sums = {}
    for w in itertools.product(range(1, alph.size + 1), repeat=n):
        basis = word_key(w, alph)
        image = _apply_steps({basis: 1}, steps)
        diag = {key >> 2 * width: c for key, c in image.items()
                if key & ((1 << 2 * width) - 1) == basis}
        if diag:
            group = tuple(alph.colors[w[j]] for j in ends)
            _accumulate(sums.setdefault(group, {}), diag, 0, 1)
    return {group: acc for group, acc in sums.items() if acc}


def test_pruning_keeps_every_diagonal_on_criterion_01_grid():
    # the finished masks drop only branches that cannot return to their
    # basis word: per part sequence, the grouped diagonal sums of G equal
    # those of the unpruned kernel
    checked = 0
    for m in (1, 2, 3):
        for k, l in _alphabet_configs(m, 2, 1, 4):
            alph = GradedAlphabet(k, l)
            for n in range(1, 5):
                seen = set()
                for mu in list_multipartitions(m, n):
                    parts = tuple(p for comp in mu for p in comp)
                    if parts in seen:
                        continue
                    seen.add(parts)
                    ends = [j - 1 for j in itertools.accumulate(parts)]
                    word = [sym for sym in word_hecke(mu) if sym[0] != "xi"]
                    steps = _compile_word(word, n, alph)
                    assert _diagonal_sums(steps, n, alph, ends) == \
                        _unpruned_diagonal_sums(steps, n, alph, ends), (k, l, parts)
                    checked += 1
    assert checked > 1000


@st.composite
def negative_key_cases(draw):
    """A ginv/swap-heavy word on an alphabet of 5 or 3 letters, n <= 4, and
    the 0-based positions whose colors group the diagonal."""
    k, l = draw(st.sampled_from([((2, 1), (1, 1)), ((1, 1), (0, 1))]))
    n = draw(st.integers(2, 4))
    braid = st.tuples(st.sampled_from(["ginv", "ginv", "ginv", "swap", "swap", "g"]),
                      st.integers(1, n - 1))
    xi = st.tuples(st.just("xi"), st.integers(1, n), st.integers(1, 2))
    word = draw(st.lists(st.one_of(braid, braid, braid, xi), min_size=1, max_size=6))
    ends = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    return GradedAlphabet(k, l), n, word, ends


@settings(max_examples=60, deadline=None)
@given(negative_key_cases())
def test_one_pass_diagonal_matches_per_basis_reference(case):
    # every basis word rides in its key's basis field through one state; a
    # negative q-exponent makes the key negative, and the basis field, the
    # word and the letters at ends must still read back exactly
    alph, n, word, ends = case
    steps = _compile_word(word, n, alph)
    assert _diagonal_sums(steps, n, alph, ends) == \
        _unpruned_diagonal_sums(steps, n, alph, ends), word


def test_one_pass_diagonal_on_negative_keys():
    # ginv_i^2 on an ascending pair has diagonal q^-1 - q^-2, so the keys of
    # these words go negative on the 5-letter alphabet at n = 4
    alph = GradedAlphabet((2, 1), (1, 1))
    assert alph.size == 5
    word = [("ginv", 1), ("ginv", 1), ("swap", 2), ("ginv", 3), ("ginv", 3), ("swap", 2)]
    steps = _compile_word(word, 4, alph)
    for ends in ([], [3], [0, 1, 2, 3], [1, 3]):
        expected = _unpruned_diagonal_sums(steps, 4, alph, ends)
        assert any(mono < 0 for acc in expected.values() for mono in acc)
        assert len(expected) > 1 or not ends
        assert _diagonal_sums(steps, 4, alph, ends) == expected, ends


@st.composite
def revisit_cases(draw):
    """An alphabet, n <= 4 and a mixed word in which some position is left
    by one step and touched again by a later one."""
    m = draw(st.integers(1, 2))
    k = tuple(draw(st.integers(0, 1)) for _ in range(m))
    l = tuple(draw(st.integers(0, 1)) for _ in range(m))
    if not sum(k) + sum(l):
        k = (1,) + k[1:]
    n = draw(st.integers(2, 4))
    tags = st.sampled_from(["g", "ginv", "swap"])
    braid = st.tuples(tags, st.integers(1, n - 1))
    xi = st.tuples(st.just("xi"), st.integers(1, n), st.integers(1, 2))
    i = draw(st.integers(1, n - 1))
    # the middle symbol, a color scaling or a braid at another index,
    # changes at most one of the two positions of the outer symbols, and the
    # last outer symbol touches both again
    middle = [("xi", draw(st.integers(1, n)), 1)]
    middle += [(draw(tags), j) for j in range(1, n) if j != i]
    revisit = [(draw(tags), i), draw(st.sampled_from(middle)), (draw(tags), i)]
    word = draw(st.lists(st.one_of(braid, xi), max_size=3))
    at = draw(st.integers(0, len(word)))
    return GradedAlphabet(k, l), n, tuple(word[:at] + revisit + word[at:])


@settings(max_examples=60, deadline=None)
@given(revisit_cases())
def test_trace_of_revisiting_word_matches_multipoly_reference(case):
    alph, n, word = case
    m = alph.m
    expected = MultiPoly.zero(m)
    for w in itertools.product(range(1, alph.size + 1), repeat=n):
        state = {w: MultiPoly.one(m)}
        for sym in reversed(word):  # rightmost symbol acts first
            state = _reference_apply(sym, state, alph, m)
        expected = expected + state.get(w, MultiPoly.zero(m))
    assert trace_of_word(word, n, alph) == expected, word


def _per_term_apply_steps(state, steps, width=0, pending=None):
    """The step loop with the finished-position check made on every new
    term: a term is dropped as it is made when its word differs from its
    basis word at a position that neither a later step nor a later run
    (``pending``) can change."""
    finished = []
    if pending is not None:
        later = pending
        for step in reversed(steps):
            finished.append(((1 << width) - 1) & ~later)
            later |= step[3]
        finished.reverse()
    for (shift, mask, table, *_), done in zip(steps, finished or itertools.repeat(0)):
        new = {}
        for key, c in state.items():
            for delta, coeff in table[(key >> shift) & mask]:
                key2 = key + delta
                if ((key2 >> width) ^ key2) & done:
                    continue
                value = new.get(key2, 0) + c * coeff
                if value:
                    new[key2] = value
                else:
                    del new[key2]
        state = new
    return state


def _assert_per_term_result(state, steps, width, pending):
    # the same keys and coefficients, in the same order
    got = _apply_steps(state, steps, width, pending)
    assert list(got.items()) == \
        list(_per_term_apply_steps(state, steps, width, pending).items())
    return got


def test_step_loop_matches_per_term_check_on_oracle_block_runs(monkeypatch):
    # every block run of the oracle, with the chain's own pending masks, on
    # the criterion-01 grid and on the wreath grid of m = 2, n <= 6; every
    # step of those runs finishes the left position of its pair, so each
    # runs a pruned table
    runs = []

    def checked(state, steps, width=0, pending=None):
        runs.append(steps)
        return _assert_per_term_result(state, steps, width, pending)

    monkeypatch.setattr(operators, "_apply_steps", checked)
    cases = [(mu, k, l) for m in (1, 2, 3) for k, l in _alphabet_configs(m, 2, 1, 4)
             for n in range(1, 5) for mu in list_multipartitions(m, n)]
    cases += [(mu, (1, 1), (1, 1)) for n in range(1, 7)
              for mu in list_multipartitions(2, n)]
    _alphabet.cache_clear()
    for mu, k, l in cases:
        char_value_oracle(mu, k, l)
    assert len(runs) > 2000
    assert all(step[5] for steps in runs for step in steps)


@st.composite
def pending_word_cases(draw):
    """An alphabet of at most 4 letters, n <= 4, a word over g, ginv, swap,
    xi and g0, and a pending mask of whole positions or of any word bits."""
    m = draw(st.integers(1, 2))
    counts = st.lists(st.integers(0, 2), min_size=m, max_size=m)
    k, l = draw(st.tuples(counts, counts).filter(lambda kl: 1 <= sum(map(sum, kl)) <= 4))
    alph = GradedAlphabet(k, l)
    n = draw(st.integers(2, 4))
    braid = st.tuples(st.sampled_from(["g", "ginv", "swap"]), st.integers(1, n - 1))
    xi = st.tuples(st.just("xi"), st.integers(1, n), st.integers(1, 2))
    word = draw(st.lists(st.one_of(braid, braid, xi, st.just(("g0",))), max_size=6))
    f = alph._letter_bits
    positions = st.sets(st.integers(0, n - 1)).map(
        lambda ps: sum(((1 << f) - 1) << f * p for p in ps))
    pending = draw(st.one_of(positions, st.integers(0, (1 << f * n) - 1)))
    return alph, n, word, pending


@settings(max_examples=100, deadline=None)
@given(pending_word_cases())
def test_step_loop_matches_per_term_check_on_drawn_words(case):
    alph, n, word, pending = case
    steps = _compile_word(word, n, alph)
    _assert_per_term_result(_start(alph, n), steps, alph._letter_bits * n, pending)


@pytest.mark.parametrize("word, n", [((("g", 1), ("g", 1)), 2),
                                     ((("g", 1), ("g", 2), ("g", 1)), 3)])
def test_step_loop_matches_per_term_check_on_revisiting_words(word, n):
    # the last step revisits a position an earlier step may have changed, so
    # no step runs a pruned table: each finishing step filters its output
    alph = GradedAlphabet((1, 1), (1, 0))
    steps = _compile_word(word, n, alph)
    _assert_per_term_result(_start(alph, n), steps, alph._letter_bits * n, 0)
    assert not any(step[5] for step in steps)


class TestApplyGenerator:
    def test_quantum_swap_mixed_parity(self):
        alph = GradedAlphabet((1,), (1,))  # letter 1 even, letter 2 odd
        got = apply_word((("g", 1),), unit((1, 2), 1), alph, 2)
        assert got == {(1, 2): mp("1 - q", 1), (2, 1): mp("1", 1)}

    def test_quantum_swap_equal_odd(self):
        alph = GradedAlphabet((1,), (1,))
        got = apply_word((("g", 1),), unit((2, 2), 1), alph, 2)
        assert got == {(2, 2): mp("-q", 1)}

    def test_color_scaling_square(self):
        alph = GradedAlphabet((1,), (1,))
        got = apply_word((("xi", 1, 2),), unit((1, 2), 1), alph, 2)
        assert got == {(1, 2): mp("u1^2", 1)}

    def test_plain_swap_across_colors(self):
        alph = GradedAlphabet((1, 1), (0, 0))  # two even letters, colors 1, 2
        got = apply_word((("swap", 1),), unit((1, 2), 2), alph, 2)
        assert got == {(2, 1): mp("1", 2)}

    @pytest.mark.parametrize("n", [True, 1.5, "2", -1])
    def test_trace_rejects_bad_size(self, n):
        alph = GradedAlphabet((1,), (1,))
        with pytest.raises(ValueError, match="^n must be a nonnegative integer"):
            trace_of_word([], n, alph)

    def test_trace_of_empty_word_at_size_0(self):
        assert trace_of_word([], 0, GradedAlphabet((1,), (1,))) == 1

    def test_index_out_of_range(self):
        alph = GradedAlphabet((1,), (1,))
        with pytest.raises(ValueError):
            trace_of_word((("g", 2),), 2, alph)
        with pytest.raises(ValueError):
            trace_of_word((("xi", 3, 1),), 2, alph)

    def test_swap_followed_by_inverse_is_identity(self):
        # every alphabet with at most four letters, up to three colors
        for m in (1, 2, 3):
            for vec in itertools.product(range(5), repeat=2 * m):
                if not 1 <= sum(vec) <= 4:
                    continue
                k, l = vec[:m], vec[m:]
                alph = GradedAlphabet(k, l)
                for word in itertools.product(range(1, alph.size + 1), repeat=2):
                    state = unit(word, alph.m)
                    roundtrip = apply_word((("ginv", 1), ("g", 1)), state, alph, 2)
                    assert roundtrip == state, (k, l, word)

    def test_quadratic_minimal_polynomial(self):
        for k, l in [((1,), (1,)), ((1, 0), (0, 1)), ((2, 1), (0, 1))]:
            alph = GradedAlphabet(k, l)
            m = alph.m
            one_minus_q = MultiPoly.one(m) - MultiPoly.q_power(1, m)
            q = MultiPoly.q_power(1, m)
            for word in itertools.product(range(1, alph.size + 1), repeat=2):
                state = unit(word, m)
                tw = apply_word((("g", 1),), state, alph, 2)
                ttw = apply_word((("g", 1),), tw, alph, 2)
                expected_terms = {}
                for w, c in tw.items():
                    expected_terms[w] = c * one_minus_q
                for w, c in state.items():
                    expected_terms[w] = expected_terms.get(w, MultiPoly.zero(m)) + c * q
                assert ttw == {w: c for w, c in expected_terms.items() if c}, \
                    (k, l, word)


def test_terms_match_swap_reference():
    # each braid symbol's rule on every letter pair of alphabets that mix
    # even and odd letters in one, two and three colors
    for k, l in [((1,), (2,)), ((2, 1), (1, 1)), ((1, 0, 1), (1, 2, 1))]:
        alph = GradedAlphabet(k, l)
        m = alph.m
        for tag in ("g", "ginv", "swap"):
            for a, b in itertools.product(range(1, alph.size + 1), repeat=2):
                got = {}
                for pair, e, c in alph._terms(tag, a, b):
                    got[pair] = got.get(pair, MultiPoly.zero(m)) + \
                        c * MultiPoly.q_power(e, m)
                assert got == dict(_swap_reference(tag, a, b, alph, m)), \
                    (k, l, tag, a, b)


class TestTrace:
    def test_identity_word_gives_dimension(self):
        alph = GradedAlphabet((1,), (1,))
        assert trace_of_word((), 3, alph) == 8

    def test_single_braid(self):
        alph = GradedAlphabet((1,), (1,))
        assert trace_of_word((("g", 1),), 2, alph) == mp("2 - 2*q", 1)

    def test_color_scaling_trace(self):
        alph = GradedAlphabet((1, 1), (0, 0))
        assert trace_of_word((("xi", 1, 1),), 1, alph) == mp("u1 + u2", 2)

    def test_group_symbol_rejected(self):
        alph = GradedAlphabet((1,), (1,))
        with pytest.raises(ValueError):
            trace_of_word((("s", 1),), 2, alph)

    @pytest.mark.parametrize("sym", [
        ("xi", 1), ("g",), (), ("g", 1, 7), ("xi", 1, 1, 9),
    ])
    def test_malformed_symbol_rejected(self, sym):
        alph = GradedAlphabet((1,), (1,))
        with pytest.raises(ValueError, match="generator symbol"):
            trace_of_word((sym,), 2, alph)

    def test_mixed_words_match_apply_generator(self):
        # words with ginv, swap and g0 trace exactly: the trace is the sum of
        # the diagonal entries of the unpruned steps over the unit basis words
        rng = random.Random(20261018)
        for k, l in [((1,), (1,)), ((1, 0), (0, 1)), ((1, 1), (1, 0)),
                     ((0, 1, 1), (1, 0, 0))]:
            alph = GradedAlphabet(k, l)
            m = alph.m
            for n in (1, 2, 3):
                symbols = [("g0",)]
                symbols += [(t, i) for t in ("g", "ginv", "swap") for i in range(1, n)]
                symbols += [("xi", j, e) for j in range(1, n + 1) for e in (1, 2)]
                for _ in range(15):
                    word = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 5)))
                    expected = MultiPoly.zero(m)
                    for w in itertools.product(range(1, alph.size + 1), repeat=n):
                        state = apply_word(word, unit(w, m), alph, n)
                        expected = expected + state.get(w, MultiPoly.zero(m))
                    assert trace_of_word(word, n, alph) == expected, (k, l, word)

    def test_cyclicity(self):
        rng = random.Random(20240819)
        alph = GradedAlphabet((1,), (1,))
        n = 3
        symbols = [("g", 1), ("g", 2), ("xi", 1, 1), ("xi", 2, 1), ("xi", 3, 1)]
        for _ in range(25):
            a = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3)))
            b = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3)))
            assert trace_of_word(a + b, n, alph) == trace_of_word(b + a, n, alph)


def test_sweep_calls_leave_no_cyclic_garbage():
    # each call's objects are freed by reference counting alone: nothing is
    # left for the cycle collector, so no alphabet outlives its trace
    k, l = (2, 1), (0, 3)  # an alphabet no other test traces
    calls = [lambda mu=mu: char_value_oracle(mu, k, l)
             for mu in list_multipartitions(2, 3)]
    calls += [
        lambda: trace_of_word((("g0",), ("g", 1), ("g0",)), 3,
                              GradedAlphabet(k, l)),
        lambda: check_ak_presentation(2, (1, 1), (1, 0)),
        lambda: check_shoji_presentation(2, (1, 1), (1, 0)),
        lambda: list_multipartitions(3, 3),
        lambda: list_graded_pairs(3, (1, 2), (2, 1)),
        lambda: count_semistandard(((2, 1), (1, 1)), (1, 2), (2, 1)),
        lambda: group_character_value(((2, 1), (1,), ()),
                                      CharSpec(3, (1, 0, 2), (1, 1, 0))),
    ]
    gc.collect()
    gc.disable()
    try:
        for i, call in enumerate(calls):
            call()
            assert gc.collect() == 0, i
    finally:
        gc.enable()


class TestOracle:
    def test_identity_element(self):
        assert char_value_oracle(((1, 1),), (1,), (1,)) == 4

    def test_single_two_cycle(self):
        assert char_value_oracle(((2,),), (1,), (1,)) == mp("2 - 2*q", 1)

    def test_single_three_cycle(self):
        assert char_value_oracle(((3,),), (1,), (1,)) == mp("2 - 2*q + 2*q^2", 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            char_value_oracle(((), ()), (1, 1), (1, 1))

    def test_rejects_wrong_component_count(self):
        with pytest.raises(ValueError):
            char_value_oracle(((1,), (1,)), (1,), (1,))
        with pytest.raises(ValueError):
            char_value_oracle(((1,),), (1, 1), (1, 1))

    def test_result_is_a_copy(self):
        # mutating a returned value must not reach the cached one
        char_value_oracle(((2,),), (1,), (1,)).terms.clear()
        assert char_value_oracle(((2,),), (1,), (1,)) == mp("2 - 2*q", 1)

    def test_block_multiplicativity(self):
        for k, l in [((1,), (1,)), ((1, 1), (1, 1)), ((2, 0), (0, 1))]:
            m = len(k)
            for n in range(1, 4):
                for mu in list_multipartitions(m, n):
                    per_block = MultiPoly.one(m)
                    for r, comp in enumerate(mu, start=1):
                        for part in comp:
                            single = tuple(
                                (part,) if i == r else () for i in range(1, m + 1)
                            )
                            per_block = per_block * char_value_oracle(single, k, l)
                    assert char_value_oracle(mu, k, l) == per_block, (k, l, mu)

    def test_matches_full_trace_on_criterion_01_grid(self):
        # the shared diagonal of G against the full trace of D G, case by case
        for m in (1, 2, 3):
            for k, l in _alphabet_configs(m, 2, 1, 4):
                alph = GradedAlphabet(k, l)
                for n in range(1, 5):
                    for mu in list_multipartitions(m, n):
                        assert char_value_oracle(mu, k, l) == \
                            trace_of_word(word_hecke(mu), n, alph), (k, l, mu)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_full_trace_drawn(self, data):
        m = data.draw(st.integers(1, 4))
        counts = st.lists(st.integers(0, 2), min_size=m, max_size=m)
        k, l = data.draw(st.tuples(counts, counts).filter(lambda kl: sum(map(sum, kl))))
        n = data.draw(st.integers(1, 4))
        mu = data.draw(st.sampled_from(list_multipartitions(m, n)))
        assert char_value_oracle(mu, k, l) == \
            trace_of_word(word_hecke(mu), n, GradedAlphabet(k, l))

    def test_group_specialization_well_defined(self):
        for mu in list_multipartitions(2, 3):
            value = char_value_oracle(mu, (1, 1), (1, 1))
            specialize_to_group(value, 2)  # must not raise


class TestOracleCaches:
    """The shape cache, keyed by the checked multipartition, and the
    monomial tables, one per color count, are shared by every alphabet."""

    def test_values_survive_clearing_the_caches(self):
        # the two alphabets share m = 2 but have 3 and 5 letters, so their
        # letter fields differ in width; visiting them in turn evicts the
        # one-entry alphabet cache on every call
        alphabets = [((1, 1), (1, 0)), ((2, 1), (1, 1))]
        cases = [(mu, k, l) for n in range(1, 4)
                 for mu in list_multipartitions(2, n) for k, l in alphabets]
        first = [char_value_oracle(mu, k, l) for mu, k, l in cases]
        _alphabet.cache_clear()
        _shape.cache_clear()
        _MONOMIALS.clear()
        again = [char_value_oracle(mu, k, l) for mu, k, l in reversed(cases)]
        assert again[::-1] == first
        for (mu, k, l), value in zip(cases, first):
            n = sum(map(sum, mu))
            assert value == trace_of_word(word_hecke(mu), n, GradedAlphabet(k, l)), \
                (mu, k, l)

    def test_list_form_matches_tuple_form(self):
        assert char_value_oracle([[2, 1], [1]], [1, 1], [1, 0]) == \
            char_value_oracle(((2, 1), (1,)), (1, 1), (1, 0))

    @pytest.mark.parametrize("mu", [((0,),), ((True,),), ((1.0,),)])
    def test_bad_parts_raise_after_a_valid_shape_is_cached(self, mu):
        # True and 1.0 hash like 1, so only the check keeps them out of the
        # cached shape of ((1,),)
        assert char_value_oracle(((1,),), (1,), (1,)) == 2
        with pytest.raises(ValueError, match="positive integers"):
            char_value_oracle(mu, (1,), (1,))

    def test_bad_shapes_raise_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="u-exponents may reach 256"):
                char_value_oracle(((), (1,) * 256), (1, 0), (0, 0))
            with pytest.raises(ValueError, match="positive size"):
                char_value_oracle(((), ()), (1, 1), (1, 1))


@st.composite
def chain_requests(draw):
    """One to three alphabets of at most 5 letters and 3 colors, and part
    sequences of size n <= 5 requested of them in a random order, with the
    alphabets and the sizes interleaved."""
    alphabets = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 3))
        counts = st.lists(st.integers(0, 2), min_size=m, max_size=m)
        k, l = draw(st.tuples(counts, counts).filter(
            lambda kl: 1 <= sum(map(sum, kl)) <= 5))
        alphabets.append(GradedAlphabet(k, l))
    requests = []
    for _ in range(draw(st.integers(1, 12))):
        i = draw(st.integers(0, len(alphabets) - 1))
        n = draw(st.integers(1, 5))
        requests.append((i, draw(st.sampled_from(
            list_multipartitions(alphabets[i].m, n)))))
    return alphabets, requests


@settings(max_examples=40, deadline=None)
@given(chain_requests())
def test_block_chain_matches_whole_braid_word(case):
    # the chain shares the state after each leading block of size >= 2
    # between part sequences; every group sum must equal that of the whole
    # braid word of G, applied right to left in one run with no chain
    alphabets, requests = case
    chains = [{} for _ in alphabets]
    for i, mu in requests:
        alph = alphabets[i]
        n, parts, ends, _, blocks = _shape(mu)
        chain = chains[i].setdefault(n, [])
        got = _braid_sums(alph, n, ends, blocks, chain)
        braid = [sym for sym in word_hecke(mu) if sym[0] != "xi"]
        assert got == _diagonal_sums(_compile_word(braid, n, alph), n, alph, ends), \
            (alph, parts)
        assert len(chain) <= sum(part >= 2 for part in parts), (alph, parts)
        assert [span for span, _ in chain] == [span for span, _ in blocks]


def test_oracle_values_do_not_depend_on_request_order():
    k = l = (1, 1)
    mus = list_multipartitions(2, 5)
    _alphabet.cache_clear()
    forward = [char_value_oracle(mu, k, l) for mu in mus]
    _alphabet.cache_clear()
    backward = [char_value_oracle(mu, k, l) for mu in reversed(mus)]
    assert backward[::-1] == forward


def _assert_all_pass(report, context):
    bad = [entry for entry in report if entry["status"] != "pass"]
    assert not bad, (context, bad)


def _entry(report, relation):
    return next(entry for entry in report if entry["relation"] == relation)


def _break(monkeypatch, method, mutate):
    """Patch a GradedAlphabet method so that ``mutate(alphabet, result,
    *args)`` edits what it returns."""
    original = getattr(GradedAlphabet, method)
    monkeypatch.setattr(
        GradedAlphabet, method,
        lambda self, *args: mutate(self, original(self, *args), *args),
    )


def _per_basis_report(alph, n, relations):
    """``_report`` by another route: each basis word on its own, with a zero
    basis field, in lexicographic order; a failure's witness is the first
    word whose two images differ."""
    report = []
    for name, lhs, rhs in relations:
        sides = []
        for side in (lhs, rhs):
            if not callable(side):
                side = functools.partial(_apply_steps, steps=_compile_word(side, n, alph))
            sides.append(side)
        witness = None
        for w in itertools.product(range(1, alph.size + 1), repeat=n):
            basis = word_key(w, alph)
            if sides[0]({basis: 1}) != sides[1]({basis: 1}):
                witness = list(w)
                break
        report.append({"relation": name, "status": "fail" if witness else "pass",
                       "witness": witness})
    return report


def _nudged(word, n, alph, j, letter):
    """Flat state -> ``word`` applied to it, minus q^-1 times each of its
    terms whose word has ``letter`` at position j: off by negative keys on
    those words alone."""
    steps = _compile_word(word, n, alph)
    f = alph._letter_bits
    nudge = {alph._encode(-1, ()) << 2 * f * n: -1}

    def side(state):
        image = _apply_steps(state, steps)
        for key, c in state.items():
            if (key >> f * (j - 1)) & ((1 << f) - 1) == letter:
                _accumulate(image, nudge, key, c)
        return image

    return side


@st.composite
def relation_cases(draw):
    """An alphabet of at most 5 letters, n <= 3 and relations whose sides
    are ginv-heavy words, so that keys go negative, or the flat-state
    annihilator, exchange, nudge and zero sides.  Some pairs of sides are
    equal, and some differ only on some words: those with two colors where
    g and swap act, an ascending color pair at the exchange, or a given
    letter where a nudge differs by negative keys alone."""
    k, l = draw(st.sampled_from([((2, 1), (1, 1)), ((1, 1), (0, 1)), ((1,), (1,)),
                                 ((1, 0, 1), (0, 1, 0))]))
    alph = GradedAlphabet(k, l)
    m = alph.m
    n = draw(st.sampled_from([1, 2, 2, 3, 3]))
    xi = st.tuples(st.just("xi"), st.integers(1, n), st.integers(1, 2))
    symbol = xi
    if n >= 2:
        braid = st.tuples(st.sampled_from(["ginv", "ginv", "ginv", "swap", "g"]),
                          st.integers(1, n - 1))
        symbol = st.one_of(braid, braid, braid, xi)
    words = st.lists(symbol, min_size=1, max_size=5).map(tuple)
    width = alph._letter_bits * n
    one_minus_q = MultiPoly.one(m) - MultiPoly.q_power(1, m)
    corr = {
        (c, d): {key << 2 * width: v for key, v in alph.poly_to_raw(
            one_minus_q * (MultiPoly.u_power(c, m) - MultiPoly.u_power(d, m))
        ).items()}
        for c in range(1, m + 1) for d in range(c + 1, m + 1)
    }
    kinds = ["word", "same", "annihilator", "nudge", "nudge"]
    if n >= 2:
        kinds += ["identity", "g-or-swap", "g-or-swap", "exchange", "exchange"]
    relations = []
    for i in range(draw(st.integers(1, 4))):
        lhs = draw(words)
        kind = draw(st.sampled_from(kinds))
        if kind == "word":
            rhs = draw(words)
        elif kind == "same":
            rhs = lhs
        elif kind == "nudge":
            rhs = _nudged(lhs, n, alph, draw(st.integers(1, n)),
                          draw(st.integers(1, alph.size)))
        elif kind == "annihilator":
            roots = [(alph._u_key(c), 1) for c in range(1, m + 1)]
            if draw(st.booleans()):
                lhs = (("xi", draw(st.integers(1, n)), 1),)
            lhs, rhs = _annihilator(lhs, n, alph, roots), _zero
        else:
            j = draw(st.integers(1, n - 1))
            cut = draw(st.integers(0, len(lhs)))
            head, tail = lhs[:cut], lhs[cut:]
            if kind == "identity":  # g_j ginv_j is the identity
                rhs = head + (("g", j), ("ginv", j)) + tail
            elif kind == "g-or-swap":  # equal on letters of one color
                lhs, rhs = head + (("g", j),) + tail, head + (("swap", j),) + tail
            else:  # the exchange relation, true for sign 1
                lhs = (("g", j), ("xi", j, 1))
                rhs = _exchange((("xi", j + 1, 1), ("g", j)), n, alph, j, corr,
                                draw(st.sampled_from([1, -1])))
        relations.append((f"r{i}", lhs, rhs))
    return alph, n, relations


@settings(max_examples=60, deadline=None)
@given(relation_cases())
def test_one_pass_report_matches_per_basis_reference(case):
    # each side runs once with every basis word in its key's basis field; the
    # status and the first witness must match the per-basis loop
    alph, n, relations = case
    assert _report(alph, n, relations) == _per_basis_report(alph, n, relations)


def test_flat_sides_are_linear():
    # each side maps any flat state, not just a sum of unit basis terms: on
    # a state with several coefficients and monomials, the image is the sum
    # of the images of its terms
    alph = GradedAlphabet((1, 1), (1, 0))
    n, width = 2, alph._letter_bits * 2
    corr = {(1, 2): {alph._encode(1, (1, 0)) << 2 * width: 5}}
    roots = [(alph._u_key(1), 1), (alph._encode(-1, ()), 3)]
    state = {}
    for i, w in enumerate(itertools.product(range(1, alph.size + 1), repeat=n)):
        mono = alph._encode(i % 3 - 1, (i % 2, 0)) << 2 * width
        state[mono + word_key(w, alph)] = i - 4 or 7
    sides = [_exchange((("xi", 2, 1), ("g", 1)), n, alph, 1, corr, -1),
             _annihilator((("ginv", 1),), n, alph, roots)]
    for side in sides:
        expected = {}
        for key, c in state.items():
            _accumulate(expected, side({key: 1}), 0, c)
        assert side(state) == expected


class TestPresentations:
    def test_ak_two_colors(self):
        _assert_all_pass(check_ak_presentation(2, (1, 0), (0, 1)), "n2 m2")

    def test_ak_quadratic_single_color(self):
        report = check_ak_presentation(2, (1,), (1,))
        _assert_all_pass(report, "n2 m1")
        assert any(entry["relation"] == "quadratic-g1" for entry in report)

    def test_ak_three_colors(self):
        _assert_all_pass(check_ak_presentation(3, (1, 1, 0), (0, 0, 1)), "n3 m3")

    def test_shoji_two_colors_full(self):
        _assert_all_pass(check_shoji_presentation(2, (1, 1), (1, 1)), "n2 m2")

    def test_shoji_single_color_degenerate(self):
        report = check_shoji_presentation(2, (1,), (1,))
        _assert_all_pass(report, "n2 m1")
        assert any(e["relation"].startswith("exchange") for e in report)

    def test_shoji_n3(self):
        _assert_all_pass(check_shoji_presentation(3, (1, 0), (0, 1)), "n3 m2")

    @pytest.mark.parametrize("check", [check_ak_presentation, check_shoji_presentation])
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("k, l", [((1,), (1,)), ((1, 0), (0, 1))])
    def test_far_commutation(self, check, n, k, l):
        # g_i g_j = g_j g_i for |i - j| >= 2 first appears at n = 4
        report = check(n, k, l)
        _assert_all_pass(report, (n, k, l))
        assert "commute-g1-g3" in {entry["relation"] for entry in report}

    def test_exchange_correction(self):
        # letters 1, 2 are even, of colors 1, 2: each exchange relation is off
        # by (1-q)(u1-u2) on (1,2), where the colors increase, and exact on (2,1)
        alph = GradedAlphabet((1, 1), (0, 0))
        zero = MultiPoly.zero(2)
        corr = mp("1 - q", 2) * mp("u1 - u2", 2)

        def minus(lhs, rhs, w):
            a, b = (apply_word(side, unit(w, 2), alph, 2) for side in (lhs, rhs))
            diff = {v: a.get(v, zero) - b.get(v, zero) for v in a.keys() | b.keys()}
            return {v: c for v, c in diff.items() if c}

        g1, xi1, xi2 = ("g", 1), ("xi", 1, 1), ("xi", 2, 1)
        for w, expected in (((1, 2), {(1, 2): corr}), ((2, 1), {})):
            assert minus((g1, xi1), (xi2, g1), w) == expected, w
            assert minus((g1, xi2), (xi1, g1), w) == \
                {v: -c for v, c in expected.items()}, w

    def test_broken_quadratic_names_first_witness(self, monkeypatch):
        # letters 2 and 3 are odd, so T acts on (2, 2) and (3, 3) by -q; +q
        # there breaks the quadratic relation, first on (2, 2)
        def flip_odd_diagonal(alph, terms, tag, a, b):
            if tag == "g" and a == b and a in (2, 3):
                return (((a, a), 1, 1),)
            return terms

        _break(monkeypatch, "_terms", flip_odd_diagonal)
        failing = {"relation": "quadratic-g1", "status": "fail", "witness": [2, 2]}
        assert _entry(check_ak_presentation(2, (1,), (2,)), "quadratic-g1") == failing
        assert _entry(check_shoji_presentation(2, (1,), (2,)), "quadratic-g1") == failing
        monkeypatch.undo()
        _assert_all_pass(check_ak_presentation(2, (1,), (2,)), "unbroken")

    def test_broken_color_scaling_names_first_witness(self, monkeypatch):
        # letter 2 has color 2; scaling it by u2^(e+1) instead of u2^e breaks
        # the cyclotomic relation of xi_j on the first word with 2 at j
        def overscale_letter_2(alph, shifts, e):
            return shifts[:2] + (alph._encode(0, (0, e + 1)),)

        _break(monkeypatch, "_omega_shifts", overscale_letter_2)
        report = check_shoji_presentation(2, (1, 1), (0, 0))
        assert _entry(report, "cyclotomic-xi1") == {
            "relation": "cyclotomic-xi1", "status": "fail", "witness": [2, 1]}
        assert _entry(report, "cyclotomic-xi2") == {
            "relation": "cyclotomic-xi2", "status": "fail", "witness": [1, 2]}
        monkeypatch.undo()
        _assert_all_pass(check_shoji_presentation(2, (1, 1), (0, 0)), "unbroken")

    def test_broken_swap_names_braid_witness(self, monkeypatch):
        # letters 1, 2 have colors 1, 2; negating T's swap coefficient on that
        # pair, in both directions, breaks only the braid relation with g_0
        def negate_swap_1_2(alph, terms, tag, a, b):
            if tag != "g" or {a, b} != {1, 2}:
                return terms
            return tuple((pair, e, -c if pair == (b, a) else c)
                         for pair, e, c in terms)

        _break(monkeypatch, "_terms", negate_swap_1_2)
        report = check_ak_presentation(3, (1, 1, 1), (0, 0, 0))
        assert [entry for entry in report if entry["status"] != "pass"] == [
            {"relation": "braid-g0-g1", "status": "fail", "witness": [1, 1, 2]}]

    def test_missing_ascending_term_names_exchange_witnesses(self, monkeypatch):
        # without its (1-q) term on the ascending cross-color pair (1, 2), T
        # breaks the quadratic relation and both exchange relations at (1, 2)
        def drop_ascending_cross_color_term(alph, terms, tag, a, b):
            if tag == "g" and a < b and alph.colors[a] != alph.colors[b]:
                return tuple(term for term in terms if term[0] != (a, b))
            return terms

        _break(monkeypatch, "_terms", drop_ascending_cross_color_term)
        report = check_shoji_presentation(2, (1, 1), (0, 0))
        assert [entry for entry in report if entry["status"] != "pass"] == [
            {"relation": name, "status": "fail", "witness": [1, 2]}
            for name in ("quadratic-g1", "exchange-raise-g1", "exchange-lower-g1")
        ]

    def test_report_shape(self):
        report = check_ak_presentation(1, (1, 1), (0, 0))
        assert report == [
            {"relation": "cyclotomic-g0", "status": "pass", "witness": None}
        ]
