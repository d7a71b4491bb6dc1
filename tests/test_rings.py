import functools
import math
import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from akchar.rings import (
    CycloElem,
    MultiPoly,
    TruncSeries,
    cyclotomic_degree,
    cyclotomic_polynomial,
    expand_at_q1,
    specialize_to_group,
    _monomial_text,
)


def q(m=1, e=1):
    return MultiPoly.q_power(e, m)


@st.composite
def multipolys(draw, m):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        key = (draw(st.integers(-3, 3)),) + tuple(
            draw(st.integers(0, 3)) for _ in range(m)
        )
        terms[key] = draw(st.integers(-9, 9))
    return MultiPoly(m, terms)


class TestMultiPolyBasics:
    def test_additive_cancellation(self):
        one = MultiPoly.one(1)
        assert (one - q()) + q() == 1

    def test_laurent_inverse_pair(self):
        assert q(e=1) * q(e=-1) == 1

    def test_difference_of_squares(self):
        one = MultiPoly.one(1)
        assert (one - q()) * (one + q()) == one - q(e=2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MultiPoly.one(1) + MultiPoly.one(2)

    def test_negative_u_exponent_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly(1, {(0, -1): 1})

    def test_power(self):
        p = MultiPoly.one(1) - q()
        assert p ** 0 == 1
        assert p ** 3 == p * p * p
        with pytest.raises(ValueError):
            p ** -1

    def test_substitute_u_one(self):
        p = MultiPoly.u_power(1, 2) + MultiPoly.u_power(2, 2) * q(m=2)
        assert p.substitute_u_one(1) == 1 + MultiPoly.u_power(2, 2) * q(m=2)

    def test_embed(self):
        p = MultiPoly.one(0) + q(m=0)
        assert p.embed(2) == MultiPoly.one(2) + q(m=2)


class TestCyclotomic:
    def test_phi_1(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_phi_2(self):
        assert cyclotomic_polynomial(2) == (1, 1)

    def test_phi_6(self):
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)

    @pytest.mark.parametrize("m", range(1, 25))
    def test_product_over_divisors_is_x_m_minus_1(self, m):
        # independent check: the product of Phi_d over d | m must be x^m - 1
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                new = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        new[i + j] += a * b
                prod = new
        assert prod == [-1] + [0] * (m - 1) + [1]

    @pytest.mark.parametrize("m", range(1, 25))
    def test_degree_is_euler_phi(self, m):
        phi = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)
        assert cyclotomic_degree(m) == phi

    @pytest.mark.parametrize("m", range(2, 13))
    def test_root_of_unity_sums_vanish(self, m):
        for t in range(1, m):
            total = CycloElem.from_int(m, 0)
            for i in range(1, m + 1):
                total = total + CycloElem.x_power(m, t * (i - 1))
            assert total.is_zero()


class TestCycloElem:
    def test_m1_is_plain_integer(self):
        a = CycloElem.x_power(1, 5)
        assert a.is_integer() and a.as_integer() == 1

    def test_x_squared_mod_phi4(self):
        assert CycloElem.x_power(4, 2) == CycloElem.from_int(4, -1)

    def test_arithmetic(self):
        x = CycloElem.x_power(3, 1)
        assert x * x + x + 1 == 0
        assert (x - 1) * (x + 1) == x * x - 1

    def test_as_integer_raises(self):
        with pytest.raises(ValueError):
            CycloElem.x_power(4, 1).as_integer()

    def test_json_round_trip(self):
        a = CycloElem(5, (1, -2, 0, 3))
        assert CycloElem.from_json(a.to_json()) == a


class TestSpecializeToGroup:
    def test_one_minus_q_dies(self):
        p = MultiPoly.one(2) - q(m=2)
        assert specialize_to_group(p, 2).is_zero()

    def test_u2_at_m4(self):
        got = specialize_to_group(MultiPoly.u_power(2, 4), 4)
        assert got == CycloElem.x_power(4, 1)

    def test_full_cyclotomic_sum_at_m3(self):
        p = MultiPoly.one(3) + MultiPoly.u_power(2, 3) + MultiPoly.u_power(3, 3)
        assert specialize_to_group(p, 3).is_zero()

    def test_mismatch(self):
        with pytest.raises(ValueError):
            specialize_to_group(MultiPoly.one(2), 3)


class TestExpandAtQ1:
    def test_q_inverse(self):
        got = expand_at_q1(q(e=-1), 3)
        t = TruncSeries.t_power(1, 3)
        assert got == 1 + t + t * t
        # q * (1/q) must be 1 modulo t^3
        assert expand_at_q1(q(), 3) * got == 1

    def test_one_minus_q(self):
        got = expand_at_q1(MultiPoly.one(1) - q(), 2)
        assert got == TruncSeries.t_power(1, 2)

    def test_q_squared(self):
        got = expand_at_q1(q(e=2), 2)
        assert got == 1 - 2 * TruncSeries.t_power(1, 2)

    def test_series_mul_truncates(self):
        t = TruncSeries.t_power(1, 2)
        assert t * t == TruncSeries.zero(1, 2)


class TestSeriesType:
    def test_coefficients_reject_q(self):
        with pytest.raises(ValueError):
            TruncSeries(2, 1, [MultiPoly.q_power(1, 1)])

    def test_text(self):
        s = expand_at_q1(MultiPoly.const(8, 1) - 8 * q(), 2)
        assert s.to_text() == "8*t"

    def test_order_mismatch_not_equal(self):
        assert TruncSeries.const(1, 1, 2) != TruncSeries.const(1, 1, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(multipolys(m), multipolys(m))))
def test_ring_laws(pair):
    p, r = pair
    assert p + r == r + p
    assert p * r == r * p
    assert p * (r + r) == p * r + p * r
    assert p - p == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(multipolys))
def test_text_round_trip(p):
    assert MultiPoly.from_text(p.to_text(), p.m) == p


def _reference_text(p):
    """Canonical text written term by term, with no shared helper."""
    text = ""
    for key in sorted(p.terms):
        c = p.terms[key]
        factors = []
        if key[0]:
            factors.append("q" if key[0] == 1 else f"q^{key[0]}")
        for i, e in enumerate(key[1:], start=1):
            if e:
                factors.append(f"u{i}" if e == 1 else f"u{i}^{e}")
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        body = "*".join(factors)
        if not text:
            text = "-" + body if c < 0 else body
        else:
            text += (" - " if c < 0 else " + ") + body
    return text or "0"


@st.composite
def text_polys(draw, m):
    """Polynomials whose terms have negative q-exponents, coefficients +-1
    and larger ones, and sometimes a constant term."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        key = (draw(st.integers(-4, 4)),) + tuple(
            draw(st.integers(0, 3)) for _ in range(m)
        )
        terms[key] = draw(st.one_of(st.sampled_from([1, -1]), st.integers(-99, 99)))
    if draw(st.booleans()):
        terms[(0,) * (m + 1)] = draw(st.sampled_from([1, -1, 5, -12]))
    return MultiPoly(m, terms)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3).flatmap(text_polys))
@example(MultiPoly.zero(2))
@example(MultiPoly.const(-1, 1))
@example(MultiPoly.from_text("-q^-3 + 1", 0))
@example(MultiPoly.from_text("-q^-1*u1 - 1 + 2*q*u1^2*u2 - u2^3", 2))
def test_text_matches_reference_formatter(p):
    assert p.to_text() == _reference_text(p)


def test_text_same_with_cold_and_warm_memo():
    p = MultiPoly.from_text("-q^-2*u1 + 3 - u2^2 + q*u1*u2 - q^-1", 2)
    _monomial_text.cache_clear()
    cold = p.to_text()
    assert _monomial_text.cache_info().misses == len(p.terms)
    warm = p.to_text()
    assert _monomial_text.cache_info().hits == len(p.terms)
    assert cold == warm == "-q^-2*u1 - q^-1 + 3 - u2^2 + q*u1*u2"


@pytest.mark.parametrize("elem, text", [
    (CycloElem(5, (-1, 1, -3, 2)), "-1 + x - 3*x^2 + 2*x^3"),
    (CycloElem(3, (0, -1)), "-x"),
    (CycloElem(4, (-1, -2)), "-1 - 2*x"),
    (CycloElem(6, (1, -1)), "1 - x"),
    (CycloElem(1, (-7,)), "-7"),
    (CycloElem(4, (0, 0)), "0"),
])
def test_cyclo_text_pinned(elem, text):
    assert elem.to_text() == text


def _series(order, texts):
    return TruncSeries(order, 2, [MultiPoly.from_text(t, 2) for t in texts])


@pytest.mark.parametrize("series, text", [
    (_series(5, ["-2", "1", "-u1", "3 - u1^2", "2*u2"]),
     "-2 + t + (-u1)*t^2 + (3 - u1^2)*t^3 + 2*u2*t^4"),
    (_series(3, ["0", "-1", "u1"]), "(-1)*t + u1*t^2"),
    (_series(3, ["1"]), "1"),
    (_series(2, []), "0"),
])
def test_series_text_pinned(series, text):
    assert series.to_text() == text


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(multipolys))
def test_json_round_trip(p):
    assert MultiPoly.from_json(p.to_json(), p.m) == p


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), multipolys(m), multipolys(m))))
def test_specialize_is_ring_map(case):
    m, p, r = case
    assert specialize_to_group(p * r, m) == specialize_to_group(p, m) * specialize_to_group(r, m)
    assert specialize_to_group(p + r, m) == specialize_to_group(p, m) + specialize_to_group(r, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), multipolys(m))))
def test_specialize_matches_termwise_reference(case):
    # q^e u_1^a_1 ... u_m^a_m -> x^(sum (i-1) a_i), whatever the sign of e
    m, p = case
    expected = CycloElem.from_int(m, 0)
    for key, coeff in p.terms.items():
        expected += coeff * CycloElem.x_power(
            m, sum((i - 1) * a for i, a in enumerate(key[1:], start=1)))
    assert specialize_to_group(p, m) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda m: st.tuples(multipolys(m), multipolys(m))),
    st.integers(1, 4),
)
def test_expand_is_ring_map(pair, order):
    p, r = pair
    assert expand_at_q1(p * r, order) == expand_at_q1(p, order) * expand_at_q1(r, order)
    assert expand_at_q1(p + r, order) == expand_at_q1(p, order) + expand_at_q1(r, order)


@st.composite
def product_factors(draw, m):
    """A factor for ``MultiPoly.product``: zero, a monomial with a large
    coefficient, or a sum of terms with negative q-exponents and
    coefficients up to about 2**40."""
    kind = draw(st.sampled_from(["zero", "monomial", "sum", "sum"]))
    if kind == "zero":
        return MultiPoly.zero(m)
    coeffs = st.one_of(st.integers(-9, 9), st.integers(-(2 ** 40), 2 ** 40))
    terms = {}
    for _ in range(1 if kind == "monomial" else draw(st.integers(1, 5))):
        key = (draw(st.integers(-6, 6)),) + tuple(
            draw(st.integers(0, 3)) for _ in range(m)
        )
        terms[key] = draw(coeffs)
    return MultiPoly(m, terms)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(product_factors(m), max_size=5))))
def test_product_matches_chained_multiplication(case):
    m, factors = case
    expected = functools.reduce(operator.mul, factors, MultiPoly.one(m))
    assert MultiPoly.product(m, factors) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 2 ** 40),
                       st.lists(st.integers(0, 3), min_size=m, max_size=m)),
             min_size=2, max_size=5))))
def test_product_at_the_coefficient_bound(case):
    # a product of monomials has one coefficient, and its absolute value
    # is the product of the factors' l1-norms: the widest field there is
    m, monomials = case
    factors = [MultiPoly(m, {(eq, *eu): (-1) ** i * c})
               for i, (eq, c, eu) in enumerate(monomials)]
    expected = functools.reduce(operator.mul, factors, MultiPoly.one(m))
    assert abs(next(iter(expected.terms.values()))) == math.prod(
        c for _, c, _ in monomials)
    assert MultiPoly.product(m, factors) == expected


class TestProduct:
    def test_empty_product_is_one(self):
        assert MultiPoly.product(2, []) == MultiPoly.one(2)

    def test_zero_factor(self):
        p = MultiPoly.from_text("1 - q^-2*u1", 1)
        assert MultiPoly.product(1, [p, MultiPoly.zero(1), p]).is_zero()

    def test_one_factor_is_a_copy(self):
        p = MultiPoly.from_text("2 - 2*q", 1)
        got = MultiPoly.product(1, [p])
        got.terms.clear()
        assert p == MultiPoly.from_text("2 - 2*q", 1)

    def test_cancellation(self):
        # (1 - q)(1 + q) = 1 - q^2: the middle coefficient cancels to zero
        a = MultiPoly.from_text("1 - q", 0)
        b = MultiPoly.from_text("1 + q", 0)
        assert MultiPoly.product(0, [a, b]).terms == {(0,): 1, (2,): -1}

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            MultiPoly.product(1, [MultiPoly.one(1), MultiPoly.one(2)])
