"""Exact coefficient arithmetic for character computations.

Three value types share one set of conventions: ``MultiPoly`` (integer
Laurent polynomials in q, ordinary polynomials in u_1..u_m), ``CycloElem``
(residues modulo the m-th cyclotomic polynomial, i.e. integer combinations
of powers of a fixed primitive m-th root of unity), and ``TruncSeries``
(expansions in t = 1 - q truncated at a fixed order).  All values are
immutable once constructed, all arithmetic is exact, and coefficients are
arbitrary-precision integers.
"""
from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from .combinat import check_int

__all__ = [
    "MultiPoly",
    "CycloElem",
    "TruncSeries",
    "cyclotomic_polynomial",
    "cyclotomic_degree",
    "specialize_to_group",
    "expand_at_q1",
]


class _Ring:
    """Subtraction and powers, derived from a subclass's ``_coerce``, ``+``,
    unary ``-`` and ``*``."""

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __pow__(self, e: int):
        check_int(e, "power", 0)
        result = self._coerce(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result


def _join_terms(terms) -> str:
    """Canonical text of a sum from ``(coefficient, monomial text)`` pairs
    with nonzero coefficients; the constant term has empty monomial text.

    One pass: each term appends its separator and then its body, and the
    first separator becomes a bare sign at the end."""
    pieces = []
    for coeff, mono in terms:
        if coeff < 0:
            pieces.append(" - ")
            coeff = -coeff
        else:
            pieces.append(" + ")
        if not mono:
            pieces.append(str(coeff))
        elif coeff == 1:
            pieces.append(mono)
        else:
            pieces.append(f"{coeff}*{mono}")
    if not pieces:
        return "0"
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


@lru_cache(maxsize=4096)
def _monomial_text(key) -> str:
    """Text of the monomial with exponent key ``(e_q, e_1, ..., e_m)``; the
    empty string for the constant monomial.  The bound holds every distinct
    monomial of an 810-row table (2,240) with room to spare."""
    parts = []
    eq = key[0]
    if eq:
        parts.append("q" if eq == 1 else f"q^{eq}")
    for i, e in enumerate(key[1:], start=1):
        if e:
            parts.append(f"u{i}" if e == 1 else f"u{i}^{e}")
    return "*".join(parts)


class MultiPoly(_Ring):
    """Laurent polynomial in q with polynomial variables u_1..u_m over Z.

    ``terms`` maps exponent keys ``(e_q, e_1, ..., e_m)`` to nonzero integer
    coefficients.  The q-exponent may be negative; u-exponents may not.  No
    zero coefficient is ever stored, so equality is structural and the
    sorted-key serialization is canonical.
    """

    __slots__ = ("m", "terms", "_parts")

    def __init__(self, m: int, terms=None):
        check_int(m, "number of u-variables", 0)
        clean: dict[tuple[int, ...], int] = {}
        for key, coeff in (terms or {}).items():
            check_int(coeff, "coefficient")
            if len(key) != m + 1:
                raise ValueError(f"exponent key {key} does not match m={m}")
            check_int(key[0], "q-exponent")
            for e in key[1:]:
                check_int(e, "u-exponent", 0)
            if coeff:
                clean[key] = coeff
        self.m = m
        self.terms = clean

    @classmethod
    def _raw(cls, m, terms):
        # Internal fast path: ``terms`` must already be canonical.
        self = object.__new__(cls)
        self.m = m
        self.terms = terms
        return self

    @classmethod
    def zero(cls, m: int) -> "MultiPoly":
        return cls._raw(check_int(m, "number of u-variables", 0), {})

    @classmethod
    def const(cls, value: int, m: int) -> "MultiPoly":
        check_int(m, "number of u-variables", 0)
        if not check_int(value, "constant"):
            return cls._raw(m, {})
        return cls._raw(m, {(0,) * (m + 1): value})

    @classmethod
    def one(cls, m: int) -> "MultiPoly":
        return cls.const(1, m)

    @classmethod
    def q_power(cls, e: int, m: int) -> "MultiPoly":
        """The Laurent monomial q**e (e may be negative)."""
        check_int(m, "number of u-variables", 0)
        return cls._raw(m, {(check_int(e, "q-exponent"),) + (0,) * m: 1})

    @classmethod
    def u_power(cls, i: int, m: int, e: int = 1) -> "MultiPoly":
        """The monomial u_i**e for 1 <= i <= m, e >= 0."""
        check_int(m, "number of u-variables", 0)
        check_int(i, "u-index", 1, m)
        if not check_int(e, "u-exponent", 0):
            return cls.one(m)
        key = [0] * (m + 1)
        key[i] = e
        return cls._raw(m, {tuple(key): 1})

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.m != self.m:
                raise ValueError(
                    f"u-variable count mismatch: {self.m} != {other.m}"
                )
            return other
        if isinstance(other, int):
            return MultiPoly.const(other, self.m)
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            elif key in out:
                del out[key]
        return MultiPoly._raw(self.m, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.m, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out: dict[tuple[int, ...], int] = {}
        for kb, vb in b.items():
            for ka, va in a.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                new = out.get(key, 0) + va * vb
                if new:
                    out[key] = new
                elif key in out:
                    del out[key]
        return MultiPoly._raw(self.m, out)

    __rmul__ = __mul__

    @classmethod
    def product(cls, m: int, factors) -> "MultiPoly":
        """The exact product of ``factors``, polynomials over ``m``
        u-variables; the empty product is 1.

        Equal to chaining ``*``, but with no term-by-term products.  Each
        factor's terms are grouped by u-monomial, and each group's
        q-polynomial, shifted by the factor's lowest q-exponent, becomes one
        integer: its value at q = 2**W.  Each u-monomial becomes one integer
        key with fields wide enough for the total u-degree, so adding keys
        adds exponents.  The groups multiply as integers, and each sum is
        unpacked once into signed W-bit fields.  No coefficient of the
        product exceeds N, the product of the factors' l1-norms, in absolute
        value, so W = N.bit_length() + 1 bits (a sign bit included) hold
        every coefficient and no field wraps into the next.
        """
        factors = list(factors)
        for f in factors:
            if f.m != m:
                raise ValueError(f"u-variable count mismatch: {f.m} != {m}")
        if len(factors) < 2:
            return cls._raw(m, dict(factors[0].terms)) if factors else cls.one(m)
        if not all(f.terms for f in factors):
            return cls.zero(m)
        parts = [f._split() for f in factors]
        norm = 1
        degree = low = 0
        for f_norm, f_low, f_degree, _ in parts:
            norm *= f_norm
            low += f_low
            degree += f_degree
        width = norm.bit_length() + 1
        u_bits = max(degree.bit_length(), 1)
        acc = None
        for _, _, _, groups in parts:
            packed = {}
            for u, qs in groups:
                key = 0
                for e in reversed(u):
                    key = (key << u_bits) + e
                value = 0
                for c in reversed(qs):
                    value = (value << width) + c
                packed[key] = value
            if acc is None:
                acc = packed
                continue
            out: dict[int, int] = {}
            for ka, va in acc.items():
                for kb, vb in packed.items():
                    key = ka + kb
                    out[key] = out.get(key, 0) + va * vb
            acc = out
        half = 1 << (width - 1)
        full = 1 << width
        u_mask = (1 << u_bits) - 1
        shifts = range(0, u_bits * m, u_bits)
        terms: dict[tuple[int, ...], int] = {}
        for key, value in acc.items():
            u = tuple([(key >> s) & u_mask for s in shifts])
            e = low
            while value:
                c = value & (full - 1)
                if c >= half:
                    c -= full
                if c:
                    terms[(e,) + u] = c
                value = (value - c) >> width
                e += 1
        return cls._raw(m, terms)

    def _split(self) -> tuple:
        """``(l1-norm, lowest q-exponent, total u-degree, groups)`` of a
        nonzero polynomial, where ``groups`` pairs each u-exponent tuple
        with its q-coefficients from the lowest q-exponent up, zeros
        included.  Computed once per value, which never changes."""
        try:
            return self._parts
        except AttributeError:
            pass
        low = min(key[0] for key in self.terms)
        span = max(key[0] for key in self.terms) - low + 1
        groups: dict[tuple[int, ...], list] = {}
        for key, c in self.terms.items():
            row = groups.get(key[1:])
            if row is None:
                row = groups[key[1:]] = [0] * span
            row[key[0] - low] = c
        self._parts = (
            sum(abs(c) for c in self.terms.values()),
            low,
            max(sum(u) for u in groups),
            tuple((u, tuple(row)) for u, row in groups.items()),
        )
        return self._parts

    # -- variable manipulation -------------------------------------------

    def embed(self, m_new: int) -> "MultiPoly":
        """Reinterpret in a ring with more u-variables (the extra ones unused)."""
        check_int(m_new, "number of u-variables", self.m)
        pad = (0,) * (m_new - self.m)
        return MultiPoly._raw(m_new, {k + pad: c for k, c in self.terms.items()})

    def substitute_u_one(self, i: int) -> "MultiPoly":
        """Set u_i = 1, keeping the variable count (the slot goes unused)."""
        check_int(i, "u-index", 1, self.m)
        out: dict[tuple[int, ...], int] = {}
        for key, coeff in self.terms.items():
            new_key = key[:i] + (0,) + key[i + 1:]
            new = out.get(new_key, 0) + coeff
            if new:
                out[new_key] = new
            elif new_key in out:
                del out[new_key]
        return MultiPoly._raw(self.m, out)

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms sorted by (e_q, e_1, ..., e_m)."""
        terms = self.terms
        return _join_terms([(terms[key], _monomial_text(key)) for key in sorted(terms)])

    @classmethod
    def from_text(cls, text: str, m: int) -> "MultiPoly":
        """Parse the canonical text form back into a polynomial."""
        check_int(m, "number of u-variables", 0)
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return cls.zero(m)
        chunks: list[tuple[int, str]] = []
        sign, cur = 1, []
        for idx, ch in enumerate(s):
            if ch in "+-" and idx == 0:
                sign = 1 if ch == "+" else -1
            elif ch in "+-" and s[idx - 1] not in "^*":
                chunks.append((sign, "".join(cur)))
                cur = []
                sign = 1 if ch == "+" else -1
            else:
                cur.append(ch)
        chunks.append((sign, "".join(cur)))
        terms: dict[tuple[int, ...], int] = {}
        for sign, chunk in chunks:
            if not chunk:
                raise ValueError(f"malformed polynomial text {text!r}")
            coeff = sign
            key = [0] * (m + 1)
            for factor in chunk.split("*"):
                if not factor:
                    raise ValueError(f"malformed term in {text!r}")
                base, _, exp = factor.partition("^")
                if base.lstrip("-").isdigit():
                    if exp:
                        raise ValueError(f"integer factor with exponent in {text!r}")
                    coeff *= int(base)
                    continue
                e = int(exp) if exp else 1
                if base == "q":
                    key[0] += e
                elif base.startswith("u") and base[1:].isdigit():
                    i = check_int(int(base[1:]), "u-index", 1, m)
                    if e < 0:
                        raise ValueError("negative u-exponent")
                    key[i] += e
                else:
                    raise ValueError(f"unknown factor {factor!r} in {text!r}")
            k = tuple(key)
            new = terms.get(k, 0) + coeff
            if new:
                terms[k] = new
            elif k in terms:
                del terms[k]
        return cls(m, terms)

    def to_json(self) -> dict:
        """Canonical JSON form: {"terms": [{"c", "eq", "eu"}, ...]}."""
        return {
            "terms": [
                {"c": self.terms[key], "eq": key[0], "eu": list(key[1:])}
                for key in sorted(self.terms)
            ]
        }

    @classmethod
    def from_json(cls, obj: dict, m: int | None = None) -> "MultiPoly":
        entries = obj["terms"]
        if m is None:
            if not entries:
                raise ValueError("cannot infer variable count from empty terms")
            m = len(entries[0]["eu"])
        terms = {}
        for entry in entries:
            # checked here: an exponent 1.0 would merge into the key of 1
            key = tuple(check_int(e, "exponent") for e in (entry["eq"], *entry["eu"]))
            terms[key] = terms.get(key, 0) + check_int(entry["c"], "coefficient")
        return cls(m, terms)

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_text()!r}, m={self.m})"


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first.

    Computed by exact division of x**m - 1 by the cyclotomic polynomials of
    the proper divisors of m.  The index is checked before the cache, which
    would take ``True`` for a cached 1.
    """
    return _cyclotomic(check_int(m, "cyclotomic index", 1))


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_div_exact(poly, list(_cyclotomic(d)))
    return tuple(poly)


def cyclotomic_degree(m: int) -> int:
    """deg of the m-th cyclotomic polynomial (Euler phi of m)."""
    return len(cyclotomic_polynomial(m)) - 1


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, constant term first.
    num = list(num)
    deg_d = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - deg_d)
    for d in range(len(num) - 1, deg_d - 1, -1):
        c = num[d]
        if c == 0:
            continue
        if c % lead:
            raise ValueError("inexact polynomial division")
        f = c // lead
        quot[d - deg_d] = f
        for j, dj in enumerate(den):
            num[d - deg_d + j] -= f * dj
    if any(num):
        raise ValueError("inexact polynomial division")
    return quot


def _cyclo_reduce(coeffs: list[int], m: int) -> tuple[int, ...]:
    # Remainder of an integer polynomial modulo the (monic) m-th cyclotomic
    # polynomial, whose index ``m`` the caller has checked; returned with
    # fixed width = its degree.
    phi_poly = _cyclotomic(m)
    deg = len(phi_poly) - 1
    cs = list(coeffs)
    if len(cs) < deg:
        cs += [0] * (deg - len(cs))
    for d in range(len(cs) - 1, deg - 1, -1):
        c = cs[d]
        if c:
            for j, pj in enumerate(phi_poly):
                cs[d - deg + j] -= c * pj
    return tuple(cs[:deg])


class CycloElem(_Ring):
    """Residue class in Z[x]/Phi_m(x), x a fixed primitive m-th root of unity.

    ``coeffs`` has fixed length deg Phi_m; for m = 1 the type reduces to
    plain integers.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs=()):
        self.m = check_int(m, "modulus", 1)
        self.coeffs = _cyclo_reduce([check_int(c, "coefficient") for c in coeffs], m)

    @classmethod
    def _raw(cls, m, coeffs):
        self = object.__new__(cls)
        self.m = m
        self.coeffs = coeffs
        return self

    @classmethod
    def from_int(cls, m: int, value: int) -> "CycloElem":
        return cls(m, (value,))

    @classmethod
    def x_power(cls, m: int, e: int) -> "CycloElem":
        """The class of x**e; exponents reduce mod m since x**m = 1."""
        e = check_int(e, "x-exponent", 0) % check_int(m, "modulus", 1)
        return cls(m, (0,) * e + (1,))

    def _coerce(self, other):
        if isinstance(other, CycloElem):
            if other.m != self.m:
                raise ValueError(f"cyclotomic modulus mismatch: {self.m} != {other.m}")
            return other
        if isinstance(other, int):
            return CycloElem.from_int(self.m, other)
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloElem._raw(
            self.m, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CycloElem._raw(self.m, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        prod = [0] * (len(a) + len(b) - 1 or 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        return CycloElem._raw(self.m, _cyclo_reduce(prod, self.m))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self.to_text()} is not a rational integer")
        return self.coeffs[0]

    def to_text(self) -> str:
        return _join_terms(
            (coeff, "" if e == 0 else "x" if e == 1 else f"x^{e}")
            for e, coeff in enumerate(self.coeffs) if coeff
        )

    def to_json(self) -> dict:
        return {"m": self.m, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, obj: dict) -> "CycloElem":
        return cls(obj["m"], obj["coeffs"])

    def __repr__(self) -> str:
        return f"CycloElem({self.to_text()!r}, m={self.m})"


class TruncSeries(_Ring):
    """Truncated expansion in t = 1 - q: sum of c_j * t**j for j < order.

    Coefficients are integer polynomials in u_1..u_m with no q left in them.
    """

    __slots__ = ("order", "m", "coeffs")

    def __init__(self, order: int, m: int, coeffs=()):
        check_int(order, "truncation order", 1)
        check_int(m, "number of u-variables", 0)
        coeffs = list(coeffs)
        if len(coeffs) > order:
            raise ValueError("more coefficients than the truncation order")
        for c in coeffs:
            if not isinstance(c, MultiPoly) or c.m != m:
                raise ValueError("series coefficients must be MultiPoly with matching m")
            if any(key[0] for key in c.terms):
                raise ValueError("series coefficients may not contain q")
        coeffs += [MultiPoly.zero(m)] * (order - len(coeffs))
        self.order = order
        self.m = m
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, m: int, order: int) -> "TruncSeries":
        return cls(order, m)

    @classmethod
    def const(cls, value: int, m: int, order: int) -> "TruncSeries":
        return cls(order, m, [MultiPoly.const(value, m)])

    @classmethod
    def t_power(cls, m: int, order: int, e: int = 1) -> "TruncSeries":
        check_int(e, "t-exponent", 0)
        coeffs = [MultiPoly.zero(m)] * min(e, order)
        if e < order:
            coeffs.append(MultiPoly.one(m))
        return cls(order, m, coeffs)

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            if other.m != self.m or other.order != self.order:
                raise ValueError("series order or variable count mismatch")
            return other
        if isinstance(other, int):
            return TruncSeries.const(other, self.m, self.order)
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncSeries) and (
            other.m != self.m or other.order != self.order
        ):
            return False
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TruncSeries(
            self.order, self.m,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.order, self.m, [-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = [MultiPoly.zero(self.m) for _ in range(self.order)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.order - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(self.order, self.m, out)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def to_text(self) -> str:
        pieces = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            ct = c.to_text()
            if j == 0:
                pieces.append(ct)
                continue
            t = "t" if j == 1 else f"t^{j}"
            if ct == "1":
                body = t
            elif len(c.terms) > 1 or ct.startswith("-"):
                body = f"({ct})*{t}"
            else:
                body = f"{ct}*{t}"
            pieces.append(body)
        return " + ".join(pieces) if pieces else "0"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_json() for c in self.coeffs]}

    def __repr__(self) -> str:
        return f"TruncSeries({self.to_text()!r}, order={self.order}, m={self.m})"


def specialize_to_group(p: MultiPoly, m: int) -> CycloElem:
    """Ring map q -> 1 and u_i -> x**(i-1) into Z[x]/Phi_m(x).

    The polynomial must live over exactly m u-variables.
    """
    check_int(m, "modulus", 1)
    if p.m != m:
        raise ValueError(f"u-variable count mismatch: polynomial has {p.m}, modulus {m}")
    acc = [0] * m
    weights = (0, *range(m))  # q -> 1 and u_i -> x**(i-1)
    for key, coeff in p.terms.items():
        acc[sum(map(mul, key, weights)) % m] += coeff
    return CycloElem._raw(m, _cyclo_reduce(acc, m))


def _binomial_series(e: int, order: int) -> tuple[int, ...]:
    # Coefficients of (1 - t)**e mod t**order, e any integer.
    if e >= 0:
        return tuple(
            (-1) ** j * math.comb(e, j) if j <= e else 0 for j in range(order)
        )
    r = -e
    return tuple(math.comb(r - 1 + j, j) for j in range(order))


def expand_at_q1(p: MultiPoly, order: int) -> TruncSeries:
    """Substitute q = 1 - t and truncate mod t**order (a ring map).

    Negative q-powers expand through the geometric series.
    """
    check_int(order, "truncation order", 1)
    raw = [dict() for _ in range(order)]
    series_cache: dict[int, tuple[int, ...]] = {}
    for key, coeff in p.terms.items():
        eq = key[0]
        series = series_cache.get(eq)
        if series is None:
            series = _binomial_series(eq, order)
            series_cache[eq] = series
        u_key = (0,) + key[1:]
        for j, s in enumerate(series):
            if s:
                d = raw[j]
                new = d.get(u_key, 0) + coeff * s
                if new:
                    d[u_key] = new
                elif u_key in d:
                    del d[u_key]
    return TruncSeries(order, p.m, [MultiPoly._raw(p.m, d) for d in raw])
