"""The graded tensor space and its operator calculus.

Operators are never materialized as matrices.  A generator word is applied
symbol by symbol (rightmost symbol first) to each basis vector, with sparse
accumulation of output coefficients; each quantum-swap symbol branches a
basis word into at most two words.  A state travels through the hot loop as
one flat dict ``{key: integer coefficient}`` and becomes basis words with
``MultiPoly`` weights only at the boundary.

The key of the word ``w_1 ... w_n``, reached from the basis word ``b_1 ...
b_n``, times the monomial ``q^e u_1^a_1 ... u_m^a_m`` is ``(mono << 2fn) +
(basis << fn) + word``, where ``word = sum w_i << f(i-1)`` and ``basis`` packs
``b`` the same way.  The word fills the low ``f n`` bits, ``f =
K.bit_length()`` bits for each letter of an alphabet of K letters, and the
basis word the next ``f n``, which steps never change.  Above both sits the
monomial key ``mono = (e << 8m) + sum a_i << 8(i-1)``: each u-exponent has
an 8-bit field and q the signed top field, so the unit monomial is 0, a
product of monomials is the sum of their keys, and a negative q-exponent
makes the key negative without reaching a u-field or either word.

A compiled step acts at one position through a table indexed by the letter
there (a color scaling) or the letter pair there (a swap), read as ``(key >>
shift) & mask``.  Each entry is a tuple of ``(key delta, integer
coefficient)`` terms, so the step adds ``c * coeff`` under ``key + delta``
for each term, and no word tuple is rebuilt.  The tables are built once per
alphabet and size n, from the letter shifts of ``_omega_shifts`` and from
``_terms``, which states what ``g``, ``ginv`` and ``swap`` do to one letter
pair.  One loop, ``_apply_steps``, runs every step, and no state stores a
zero.  Each presentation check lists its relations as data, a name and two
sides, and each side runs once on a state that holds every basis word in
its key's basis field, so one pass per side checks the relation on all
basis words.

Every basis word is traced at once, in one state, by two pieces that
``trace_of_word`` and the oracle share: ``_apply_steps`` runs steps on a
state that holds each basis word in its key's basis field, and ``_group``
sums the resulting diagonal by the colors at given positions.  The start
state holds each basis word in both fields.  Given a ``pending`` mask, the
positions a later run may change, ``_apply_steps`` gives each step the mask
of the positions that neither a later step nor a later run can change.  A
new branch whose word differs from its own basis field at a masked position
can never return to it, so it is dropped as it is made; every diagonal entry
stays exact.  Once every step has run, every position is finished, so each
surviving word is its basis word, and the state is the whole diagonal.
``_group`` keeps the monomial and the letters at the grouping positions,
replaces each such letter by the first letter of its color, one position per
pass, and builds one color tuple per group.

The oracle splits the standard word as ``D G``: ``G``, the braid generators,
depends only on the part sequence, and ``D``, the block-end color scalings,
is diagonal.  ``G`` is a product of one braid per block, on disjoint
positions, so it runs one block at a time, leftmost first, and the state
after the first i blocks of size 2 or more is the same for every part
sequence that begins with them.  Each alphabet keeps, per n, a chain of
``((start, size), state)``, one state per block of size 2 or more of the
last part sequence traced.  A new part sequence cuts the chain back to its
longest matching block prefix and runs only its remaining blocks, each with
the positions past its end pending.  Every basis word still goes through
every generator of ``G``; only identical intermediate states are shared.
The exact diagonal of ``G`` is then summed once per part sequence and
alphabet, grouped by the colors at the block ends, and each multipartition
shifts each group's sum by its own u-monomial.  Per call the oracle does only
per-case work: the shape it reads of the standard word (``n``, the part
sequence, the block ends, D's powers there and G's blocks) is cached by the
checked multipartition, and a packed monomial's decoding, which depends only
on the color count m, is kept in one table per m that every alphabet with m
colors shares.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from operator import mul

from .combinat import check_alphabet, check_int, check_multipartition, word_hecke
from .rings import MultiPoly

__all__ = [
    "GradedAlphabet",
    "trace_of_word",
    "char_value_oracle",
    "check_ak_presentation",
    "check_shoji_presentation",
]

_FIELD_BITS = 8

# the decoded monomial of each packed key, one table per color count m: a
# key's decoding depends only on m, so every alphabet with m colors shares it
_MONOMIALS: dict[int, dict[int, tuple]] = {}


class GradedAlphabet:
    """Letters 1..k+l with a color in 1..m and a parity in {0, 1}.

    Within each color the even letters come first; letters are totally
    ordered by (color, position), so color is weakly increasing in the
    letter index.
    """

    __slots__ = (
        "k", "l", "m", "size", "colors", "parities",
        "_shift", "_letter_bits", "_steps", "_monomials",
    )

    def __init__(self, k, l):
        k, l = check_alphabet(k, l)
        if sum(k) + sum(l) < 1:
            raise ValueError("the alphabet needs at least one letter")
        self.k = k
        self.l = l
        self.m = len(k)
        colors: list[int] = [0]  # index 0 unused; letters are 1-based
        parities: list[int] = [0]
        for i, (ki, li) in enumerate(zip(k, l), start=1):
            colors.extend([i] * (ki + li))
            parities.extend([0] * ki + [1] * li)
        self.size = len(colors) - 1
        self.colors = tuple(colors)
        self.parities = tuple(parities)
        self._shift = _FIELD_BITS * self.m
        self._letter_bits = self.size.bit_length()
        self._steps: dict[tuple, tuple] = {}
        self._monomials = _MONOMIALS.setdefault(self.m, {})

    # -- packed-exponent helpers --------------------------------------

    def _encode(self, eq: int, eu) -> int:
        key = eq << self._shift
        for i, e in enumerate(eu):
            if e >= 1 << _FIELD_BITS:
                raise ValueError(f"u-exponent {e} too large for the packed engine")
            key += e << (_FIELD_BITS * i)
        return key

    def _decode(self, key: int) -> tuple[int, ...]:
        mask = (1 << _FIELD_BITS) - 1
        eu = tuple((key >> (_FIELD_BITS * i)) & mask for i in range(self.m))
        return (key >> self._shift,) + eu

    def poly_to_raw(self, p: MultiPoly) -> dict[int, int]:
        if p.m != self.m:
            raise ValueError(f"u-variable count mismatch: {p.m} != {self.m}")
        return {self._encode(key[0], key[1:]): c for key, c in p.terms.items()}

    def poly_from_raw(self, raw: dict[int, int]) -> MultiPoly:
        # each packed monomial is decoded once per color count
        monomials = self._monomials
        terms = {}
        for key, c in raw.items():
            mono = monomials.get(key)
            if mono is None:
                mono = monomials[key] = self._decode(key)
            terms[mono] = c
        return MultiPoly._raw(self.m, terms)

    def _u_key(self, color: int, e: int = 1) -> int:
        return e << (_FIELD_BITS * (color - 1))

    def _omega_shifts(self, e: int) -> tuple:
        # per-letter key shifts of a color scaling of power e
        return (None,) + tuple(
            self._u_key(self.colors[letter], e) for letter in range(1, self.size + 1)
        )

    def _terms(self, tag: str, a: int, b: int) -> tuple:
        """The ``((x, y), e, coeff)`` terms of the braid symbol ``tag`` on the
        adjacent letters a, b: it sends them to ``coeff q^e`` times x, y.
        T carries 1 - q on an ascending pair and q on a descending one, which
        is what makes T^2 = (1-q)T + q and T T^-1 = 1 hold.  The plain swap is
        T within a color; across colors it is T without its (1-q) part, and
        its descending branch keeps T's q, which gives the composite
        cyclotomic generator the eigenvalues u_1, ..., u_m."""
        sign = -1 if self.parities[a] and self.parities[b] else 1
        if tag == "swap":
            if self.colors[a] != self.colors[b]:
                return (((b, a), int(a > b), sign),)
            tag = "g"
        d = 1 if tag == "g" else -1  # the q-exponent of T or of T^-1
        if a == b:  # -q^d on an odd letter, 1 on an even one
            return (((a, a), d if sign < 0 else 0, sign),)
        if (a < b) == (d > 0):
            return (((a, b), 0, 1), ((a, b), d, -1), ((b, a), 0, sign))
        return (((b, a), d, sign),)

    # -- flat keys and compiled steps ---------------------------------

    def _word_of(self, key: int, n: int) -> tuple[int, ...]:
        f = self._letter_bits
        mask = (1 << f) - 1
        return tuple((key >> (f * i)) & mask for i in range(n))

    def _step(self, n: int, tag: str, pos: int, e: int) -> tuple:
        """The compiled step of one symbol at the 0-based position ``pos`` of
        the n-th tensor power: ``(shift, mask, table, moves, e)``, where
        ``moves`` holds the word bits the step may change and ``e`` is the
        power of a color scaling (0 for a swap).  Built once per alphabet
        and n; the first swap of a kind builds that kind at every position
        from one ``_terms`` call per letter pair."""
        step = self._steps.get((n, tag, pos, e))
        if step is not None:
            return step
        f = self._letter_bits
        above = 2 * f * n  # the monomial sits above the word and basis fields
        letters = range(1, self.size + 1)
        if tag == "xi":
            shifts = self._omega_shifts(e)
            table = [None] * (1 << f)
            for a in letters:
                table[a] = ((shifts[a] << above, 1),)
            step = self._steps[n, tag, pos, e] = (f * pos, (1 << f) - 1, table, 0, e)
            return step
        rules = {(a, b): self._terms(tag, a, b) for a in letters for b in letters}
        q_at = self._shift + above
        mask = (1 << 2 * f) - 1
        for i in range(n - 1):
            shift = f * i
            table = [None] * (mask + 1)
            for (a, b), terms in rules.items():
                table[a + (b << f)] = tuple([
                    ((eq << q_at) + ((x - a + ((y - b) << f)) << shift), coeff)
                    for (x, y), eq, coeff in terms
                ])
            self._steps[n, tag, i, 0] = (shift, mask, table, mask << shift, 0)
        return self._steps[n, tag, pos, e]

    def __repr__(self) -> str:
        return f"GradedAlphabet(k={self.k}, l={self.l})"


# -- raw coefficient helpers ------------------------------------------------

def _accumulate(acc: dict, c: dict, key: int, coeff: int) -> None:
    """``acc += coeff * monomial(key) * c`` in place; no zero is stored."""
    for k, v in c.items():
        k += key
        new = acc.get(k, 0) + coeff * v
        if new:
            acc[k] = new
        elif k in acc:
            del acc[k]


def _start(alph: GradedAlphabet, n: int) -> dict:
    """The flat state that holds every basis word of the n-th tensor power
    once, the word in both its key's word field and its basis field."""
    f = alph._letter_bits
    spread = (1 << f * n) + 1
    letters = range(1, alph.size + 1)
    return dict.fromkeys(map(sum, itertools.product(
        *[[(a << (f * i)) * spread for a in letters] for i in range(n)])), 1)


# -- word compilation and application ---------------------------------------

def _g0_expansion(n: int) -> list[tuple]:
    # product order: Tinv_1 .. Tinv_{n-1}  S_{n-1} .. S_1  omega_1
    word: list[tuple] = [("ginv", i) for i in range(1, n)]
    word += [("swap", i) for i in range(n - 1, 0, -1)]
    word.append(("xi", 1, 1))
    return word


# the length of each operator symbol, its tag included
_ARITY = {"g": 2, "ginv": 2, "swap": 2, "xi": 3, "g0": 1}


def _compile_word(word, n: int, alph: GradedAlphabet):
    """Translate a generator word into application-order steps.

    ``("g0",)`` is replaced by its expansion before one plain loop compiles
    the word.  The steps are the alphabet's cached tuples, so no closure is
    built and they hold no reference cycle: reference counting frees them
    with the alphabet."""
    symbols: list[tuple] = []
    for sym in word:
        tag = sym[0] if sym else None
        if tag == "s":
            raise ValueError(
                "group-generator words act only through specialization"
            )
        if len(sym) != _ARITY.get(tag):
            raise ValueError(f"unknown or malformed generator symbol {sym!r}")
        symbols += _g0_expansion(n) if tag == "g0" else (sym,)
    steps: list[tuple] = []
    for sym in symbols:
        tag = sym[0]
        if tag == "xi":
            j = check_int(sym[1], "position", 1, n)
            e = check_int(sym[2], "color-scaling exponent", 1)
            steps.append(alph._step(n, tag, j - 1, e))
        else:
            i = check_int(sym[1], "braid index", 1, n - 1)
            steps.append(alph._step(n, tag, i - 1, 0))
    steps.reverse()  # rightmost symbol acts first
    return steps


def _check_reach(top: int) -> None:
    """Raise ValueError when a u-exponent may reach ``top``, out of its
    packed field, where it would wrap into the neighbouring one.  A color
    scaling of power e raises one u-exponent by e, a swap by 0."""
    if top >= 1 << _FIELD_BITS:
        raise ValueError(
            f"u-exponents may reach {top}, beyond the packed engine's "
            f"{(1 << _FIELD_BITS) - 1}"
        )


def _apply_steps(state: dict, steps, width: int = 0, pending=None) -> dict:
    """Run compiled ``steps`` on a flat state.  With no ``pending`` mask
    nothing is dropped.  With one, the state holds each basis word in its
    basis field, ``width`` bits above the word, and each step drops the new
    branches that differ from their basis word at a position that neither a
    later step nor a later run can change; a later run may change the word
    bits of ``pending``."""
    finished = []
    if pending is not None:
        later = pending
        for step in reversed(steps):
            finished.append(((1 << width) - 1) & ~later)
            later |= step[3]
        finished.reverse()
    for (shift, mask, table, _, _), done in zip(
            steps, finished or itertools.repeat(0)):
        new: dict[int, int] = {}
        get = new.get
        for key, c in state.items():
            for delta, coeff in table[(key >> shift) & mask]:
                key2 = key + delta
                if ((key2 >> width) ^ key2) & done:
                    continue
                value = get(key2, 0) + c * coeff
                if value:
                    new[key2] = value
                else:
                    del new[key2]
        state = new
    return state


def _group(diag: dict, n: int, alph: GradedAlphabet, ends) -> dict:
    """The entries of an exact diagonal state, summed by the tuple of the
    word's colors at the 0-based positions ``ends``; no group's sum is 0.
    Each surviving word is its basis word, so only the monomial and the
    letters at ``ends`` are kept, and one pass per end replaces its letter by
    the first letter of the same color; so one color tuple is built per
    group."""
    f = alph._letter_bits
    width = f * n
    mask = (1 << f) - 1
    keep = -1 << 2 * width
    for j in ends:
        keep |= mask << (f * j)
    colors = alph.colors
    recolor = [0] * (mask + 1)  # the first letter of its color, minus it
    for a in range(1, alph.size + 1):
        recolor[a] = colors.index(colors[a]) - a
    summed: dict[int, int] = {}
    get = summed.get
    for key, c in diag.items():
        key &= keep
        summed[key] = get(key, 0) + c
    for j in ends:
        shift = f * j
        deltas = [d << shift for d in recolor]
        state, summed = summed, {}
        get = summed.get
        for key, c in state.items():
            key += deltas[(key >> shift) & mask]
            summed[key] = get(key, 0) + c
    groups: dict[int, dict] = {}  # the first letters at ends -> their sum
    sums: dict[tuple, dict] = {}
    for key, c in summed.items():
        if c:
            letters = key & ((1 << width) - 1)
            acc = groups.get(letters)
            if acc is None:
                group = tuple([colors[(key >> (f * j)) & mask] for j in ends])
                acc = groups[letters] = sums[group] = {}
            acc[key >> 2 * width] = c
    return sums


def _diagonal_sums(steps, n: int, alph: GradedAlphabet, ends) -> dict:
    """The exact diagonal entries of ``steps`` on every basis word, summed
    by the tuple of the word's colors at the 0-based positions ``ends``; no
    group's sum is 0.  All basis words run through the steps in one state,
    and each step drops the branches that differ from their basis word at a
    position no later step changes."""
    return _group(_apply_steps(_start(alph, n), steps, alph._letter_bits * n, 0),
                  n, alph, ends)


def trace_of_word(word, n: int, alphabet: GradedAlphabet) -> MultiPoly:
    """Exact trace of an operator word over all basis words of the n-th
    tensor power.  Its symbols are ``('g', i)``, ``('ginv', i)``, ``('swap',
    i)``, ``('xi', j, e)`` and ``('g0',)``."""
    steps = _compile_word(word, n, alphabet)
    _check_reach(sum(step[4] for step in steps))
    return alphabet.poly_from_raw(
        _diagonal_sums(steps, n, alphabet, ()).get((), {}))


@lru_cache(maxsize=1)
def _alphabet(k, l) -> tuple[GradedAlphabet, dict, dict]:
    # callers visit one alphabet for many multipartitions in a row; the
    # first dict holds its diagonal sums of G per part sequence, the second
    # its block chain per n
    return GradedAlphabet(k, l), {}, {}


@lru_cache(maxsize=1024)
def _shape(mu) -> tuple:
    """What the oracle reads of the standard word ``word_hecke(mu) = D G``
    of a checked multipartition: ``(n, parts, ends, powers, blocks)``, with
    ``ends`` the 0-based block ends, ``powers`` the power of D's color
    scaling at each end (0 for component 1) and ``blocks`` the
    ``((start, size), symbols)`` of each block of size 2 or more, left to
    right, with the symbols of G that act inside it.  A shape that is empty
    or whose u-exponents may leave their packed fields raises, on every
    call."""
    parts = tuple(p for comp in mu for p in comp)
    n = sum(parts)
    if n < 1:
        raise ValueError("the multipartition must have positive size")
    word = word_hecke(mu)
    scale = {sym[1]: sym[2] for sym in word if sym[0] == "xi"}
    _check_reach(sum(scale.values()))
    ends = tuple(itertools.accumulate(parts))
    blocks = tuple(
        ((end - size, size),
         tuple(sym for sym in word if sym[0] != "xi" and end - size < sym[1] < end))
        for end, size in zip(ends, parts) if size >= 2
    )
    return (n, parts, tuple(j - 1 for j in ends),
            tuple(scale.get(j, 0) for j in ends), blocks)


def _braid_sums(alph: GradedAlphabet, n: int, ends, blocks, chain: list) -> dict:
    """``_diagonal_sums`` of G, the product of ``blocks``, grouped by the
    colors at ``ends``.  The blocks act on disjoint positions, so G runs one
    block at a time, leftmost first, and the state after the first i blocks
    is the same for every part sequence of size n that begins with them.
    ``chain`` holds ``((start, size), state)`` after each block of the last
    part sequence; it is cut back to the longest prefix shared with
    ``blocks``, and only the remaining blocks run.  A block's steps may drop
    a branch only at its own positions, since every later block may change
    the positions past its end."""
    kept = 0
    for (span, _), (have, _) in zip(blocks, chain):
        if span != have:
            break
        kept += 1
    del chain[kept:]
    state = chain[-1][1] if chain else None
    f = alph._letter_bits
    width = f * n
    for (start, size), symbols in blocks[kept:]:
        # the start state is built only where it is needed, and no name
        # keeps it alive once the first step has run
        state = _apply_steps(_start(alph, n) if state is None else state,
                             _compile_word(symbols, n, alph), width,
                             ((1 << width) - 1) & (-1 << f * (start + size)))
        chain.append(((start, size), state))
    return _group(_start(alph, n) if state is None else state, n, alph, ends)


def char_value_oracle(mu, k, l) -> MultiPoly:
    """Brute-force character value, a fresh one: the trace of the standard
    word ``word_hecke(mu) = D G`` on the full tensor power.  ``D``, its
    ``xi`` symbols, is diagonal, so ``<w|D G|w>`` is ``<w|G|w>`` times
    ``u_c^e`` for each ``xi_j^e``, c the color of w at position j."""
    k, l = check_alphabet(k, l)
    n, parts, ends, powers, blocks = _shape(check_multipartition(mu, len(k)))
    alph, cache, chains = _alphabet(k, l)
    groups = cache.get(parts)
    if groups is None:
        sums = _braid_sums(alph, n, ends, blocks, chains.setdefault(n, []))
        # each group's u-field units at the block ends, with its diagonal sum
        groups = cache[parts] = [
            (tuple([alph._u_key(c) for c in group]), diag)
            for group, diag in sums.items()
        ]
    total: dict[int, int] = {}
    for units, diag in groups:
        _accumulate(total, diag, sum(map(mul, powers, units)), 1)
    return alph.poly_from_raw(total)


# -- presentation checks ------------------------------------------------------

def _zero(state):
    return {}


def _runner(word, n, alph):
    """Flat state -> ``word`` applied to it."""
    steps = _compile_word(word, n, alph)
    return lambda state: _apply_steps(state, steps)


def _report(alph, n, relations) -> list[dict]:
    """Check each ``(name, lhs, rhs)`` relation on every basis word, in
    order.  A side is an operator word or a callable from a flat state to a
    flat state.  Each side runs once, on a state that holds every basis word
    in its key's basis field; a failure's witness is the first basis word
    whose field the two sides' images differ on."""
    width = alph._letter_bits * n
    start = _start(alph, n)
    report: list[dict] = []
    for name, *sides in relations:
        lhs, rhs = (s if callable(s) else _runner(s, n, alph) for s in sides)
        left, right = lhs(start), rhs(start)
        witness = None
        if left != right:
            # the shift and _word_of's mask read the basis field of a
            # negative key too
            witness = list(min(alph._word_of(key >> width, n)
                               for key in left.keys() | right.keys()
                               if left.get(key) != right.get(key)))
        report.append({"relation": name, "status": "fail" if witness else "pass",
                       "witness": witness})
    return report


def _annihilator(word, n, alph, roots):
    """Flat state -> the product of (X - r) over the ``roots`` applied to it,
    where X acts by ``word`` and each root is a monomial ``(key, coeff)``;
    the empty state on every state when that polynomial annihilates X."""
    steps = _compile_word(word, n, alph)
    width = alph._letter_bits * n

    def lhs(state):
        for key, coeff in roots:
            image = _apply_steps(state, steps)
            _accumulate(image, state, key << 2 * width, -coeff)
            state = image
        return state

    return lhs


def _exchange(word, n, alph, j, corr, sign):
    """Flat state -> ``word`` applied to it, plus ``sign * corr[c, d]`` times
    each of its terms whose word has letters of colors (c, d) in ``corr`` at
    positions j, j+1; each ``corr`` entry is a flat state on the word key 0."""
    run = _runner(word, n, alph)
    f = alph._letter_bits
    mask = (1 << f) - 1
    colors = alph.colors

    def rhs(state):
        image = run(state)
        for key, c in state.items():
            factor = corr.get((colors[(key >> f * (j - 1)) & mask],
                               colors[(key >> f * j) & mask]))
            if factor:
                _accumulate(image, factor, key, sign * c)
        return image

    return rhs


def _hecke_relations(alph, n):
    """The quadratic, far-commutation and braid relations of g_1..g_{n-1};
    the quadratic one as (T - 1)(T + q) = 0, that is T^2 = (1-q)T + q."""
    roots = ((0, 1), (alph._encode(1, ()), -1))
    for i in range(1, n):
        yield f"quadratic-g{i}", _annihilator((("g", i),), n, alph, roots), _zero
    for i in range(1, n):
        for j in range(i + 2, n):
            yield f"commute-g{i}-g{j}", (("g", i), ("g", j)), (("g", j), ("g", i))
    for i in range(1, n - 1):
        yield (f"braid-g{i}-g{i + 1}", (("g", i), ("g", i + 1), ("g", i)),
               (("g", i + 1), ("g", i), ("g", i + 1)))


def check_ak_presentation(n: int, k, l) -> list[dict]:
    """Verify the cyclotomic-generator presentation as operator identities on
    every basis word; failures are reported with a witness, never raised.
    The relations are listed as data and checked by ``_report``."""
    check_int(n, "n", 1)
    alph = GradedAlphabet(k, l)
    roots = [(alph._u_key(c), 1) for c in range(1, alph.m + 1)]
    relations = [("cyclotomic-g0", _annihilator((("g0",),), n, alph, roots), _zero)]
    if n >= 2:
        relations.append(("braid-g0-g1", (("g0",), ("g", 1), ("g0",), ("g", 1)),
                          (("g", 1), ("g0",), ("g", 1), ("g0",))))
    relations += _hecke_relations(alph, n)
    return _report(alph, n, relations)


def check_shoji_presentation(n: int, k, l) -> list[dict]:
    """Verify the braid/color-scaling presentation as operator identities on
    every basis word; failures are reported with a witness, never raised.
    The relations are listed as data and checked by ``_report``.

    The two exchange relations are checked in eigenvalue form.  For a basis
    word w whose letters at positions j, j+1 have colors c, d::

        g_j xi_j w     = xi_{j+1} g_j w + [c < d] (1-q)(u_c - u_d) w
        g_j xi_{j+1} w = xi_j g_j w     - [c < d] (1-q)(u_c - u_d) w

    Shoji writes the correction through the interpolation polynomials F_c
    of the Vandermonde matrix V in u_1..u_m, cleared by Delta = det V.  From
    adj(V) V = Delta I we get F_c(u_d) = delta_cd Delta, so the cleared
    correction is Delta^2 times the one above and every other term carries
    Delta^2 as well.  Delta is nonzero in the integral domain Z[q^+-1, u],
    so dividing it out checks the same identity.
    """
    check_int(n, "n", 2)
    alph = GradedAlphabet(k, l)
    m = alph.m
    width = alph._letter_bits * n
    roots = [(alph._u_key(c), 1) for c in range(1, m + 1)]
    # u_c - u_d scaled by 1 - q, for the colors c < d of two adjacent letters
    one_minus_q = MultiPoly.one(m) - MultiPoly.q_power(1, m)
    corr = {
        (c, d): {key << 2 * width: v for key, v in alph.poly_to_raw(
            one_minus_q * (MultiPoly.u_power(c, m) - MultiPoly.u_power(d, m))
        ).items()}
        for c in range(1, m + 1)
        for d in range(c + 1, m + 1)
    }

    relations = list(_hecke_relations(alph, n))
    relations += [
        (f"commute-xi{i}-xi{j}",
         (("xi", i, 1), ("xi", j, 1)), (("xi", j, 1), ("xi", i, 1)))
        for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]
    relations += [
        (f"cyclotomic-xi{i}", _annihilator((("xi", i, 1),), n, alph, roots), _zero)
        for i in range(1, n + 1)
    ]
    relations += [
        (f"commute-g{j}-xi{i}", (("g", j), ("xi", i, 1)), (("xi", i, 1), ("g", j)))
        for j in range(1, n)
        for i in range(1, n + 1)
        if abs(i - j) >= 2
    ]
    for j in range(1, n):
        relations.append((f"exchange-raise-g{j}", (("g", j), ("xi", j, 1)),
                          _exchange((("xi", j + 1, 1), ("g", j)), n, alph, j, corr, 1)))
        relations.append((f"exchange-lower-g{j}", (("g", j), ("xi", j + 1, 1)),
                          _exchange((("xi", j, 1), ("g", j)), n, alph, j, corr, -1)))
    return _report(alph, n, relations)
