"""Enumeration combinatorics: multipartitions, bounded composition pairs,
hook shapes, tableau counts, and the standard-element generator words.

Conventions: partitions and compositions are tuples of strictly positive
integers; a multipartition is an m-tuple of partitions.  Every enumeration
returns a sorted, duplicate-free list so output is deterministic.
``check_int`` is the one check of a scalar integer argument across the
package: an ``int``, never a ``bool``, within its bounds.
"""
from __future__ import annotations

import json
import math

__all__ = [
    "partitions",
    "compositions",
    "list_multipartitions",
    "list_graded_pairs",
    "list_hook_multipartitions",
    "count_semistandard",
    "count_standard_multitableaux",
    "word_hecke",
    "mp_size",
    "mp_length",
    "mp_num_nonzero",
    "check_int",
    "check_multipartition",
    "check_alphabet",
    "parse_multipartition",
    "format_multipartition",
]


def check_int(x, what: str, low: int | None = None, high: int | None = None) -> int:
    """``x`` itself when it is an ``int`` (not a ``bool``) in ``low..high``,
    either bound open when ``None``; otherwise a ValueError naming ``what``."""
    if type(x) is int and (low is None or x >= low) and (high is None or x <= high):
        return x
    if high is not None:
        kind = f"an integer in {low}..{high}"
    else:
        kind = {None: "an integer", 0: "a nonnegative integer",
                1: "a positive integer"}.get(low, f"an integer >= {low}")
    raise ValueError(f"{what} must be {kind}, got {x!r}")


def partitions(n: int, max_part: int | None = None):
    """Yield the partitions of n, largest parts first (descending lex)."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def compositions(total: int, max_parts: int):
    """Yield the compositions of ``total`` into at most ``max_parts``
    strictly positive parts."""
    if total == 0:
        yield ()
        return
    if max_parts <= 0:
        return
    for first in range(total, 0, -1):
        for rest in compositions(total - first, max_parts - 1):
            yield (first,) + rest


def list_multipartitions(m: int, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All m-tuples of partitions of total size n, in canonical order."""
    check_int(m, "component count", 1)
    check_int(n, "size", 0)
    return sorted(_multipartitions(m, n), reverse=True)


def _multipartitions(components: int, left: int):
    if components == 1:
        for lam in partitions(left):
            yield (lam,)
        return
    for a in range(left, -1, -1):
        for lam in partitions(a):
            for rest in _multipartitions(components - 1, left - a):
                yield (lam,) + rest


def mp_size(mu) -> int:
    return sum(sum(comp) for comp in mu)


def mp_length(mu) -> int:
    return sum(len(comp) for comp in mu)


def mp_num_nonzero(mu) -> int:
    return sum(1 for comp in mu if comp)


def check_multipartition(mu, m: int) -> tuple:
    """``mu`` as a tuple of tuples, checked to have ``m`` components whose
    parts are positive integers."""
    mu = tuple(map(tuple, mu))
    if len(mu) != m:
        raise ValueError(f"expected {m} components, got {len(mu)}")
    for comp in mu:
        for p in comp:  # a plain loop: every evaluator call runs this
            if type(p) is not int or p < 1:
                raise ValueError(f"parts must be positive integers, got {list(comp)}")
    return mu


def check_alphabet(k, l) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(k, l)`` as tuples, checked to be nonempty, equally long vectors of
    nonnegative integer letter counts, one entry per color."""
    k, l = tuple(k), tuple(l)
    if len(k) != len(l) or not k:
        raise ValueError(f"k and l must be nonempty and equally long, got {k} and {l}")
    for x in k + l:
        if type(x) is not int or x < 0:
            raise ValueError(f"letter counts must be nonnegative integers, got {x!r}")
    return k, l


def parse_multipartition(text: str, m: int | None = None):
    """Parse the ``[[3,1],[],[2]]`` text form into a multipartition."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed multipartition {text!r}: {exc}") from None
    if not isinstance(obj, list) or not obj or not all(
            isinstance(comp, list) for comp in obj):
        raise ValueError(f"malformed multipartition {text!r}")
    mu = check_multipartition(obj, len(obj) if m is None else m)
    for parts in mu:
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing in {text!r}")
    return mu


def format_multipartition(mu) -> str:
    return json.dumps([list(comp) for comp in mu], separators=(",", ","))


def list_graded_pairs(a: int, k, l) -> list[tuple]:
    """All pairs ``(alpha, beta)`` of m-tuples of compositions with total
    size ``a`` whose component lengths are bounded by ``k`` (alpha side) and
    ``l`` (beta side), sorted.  The closed form's dynamic program counts
    these pairs without listing them; the single-hook slices sum this list
    pair by pair, and the tests check the dynamic program against it."""
    k, l = check_alphabet(k, l)
    check_int(a, "total size", 1)
    m = len(k)
    return sorted((t[:m], t[m:]) for t in _bounded_compositions(k + l, a))


def _bounded_compositions(bounds, left: int):
    # tuples of compositions of total size ``left``, one per bound, each with
    # at most that many parts
    if not bounds:
        if left == 0:
            yield ()
        return
    for size in range(left + 1):
        for comp in compositions(size, bounds[0]):
            for rest in _bounded_compositions(bounds[1:], left - size):
                yield (comp,) + rest


def list_hook_multipartitions(n: int, k, l) -> list[tuple[tuple[int, ...], ...]]:
    """Multipartitions of n whose component i fits a (k_i, l_i)-hook, i.e.
    row k_i + 1 has at most l_i boxes."""
    k, l = check_alphabet(k, l)
    out = []
    for mu in list_multipartitions(len(k), n):
        ok = True
        for comp, ki, li in zip(mu, k, l):
            if len(comp) > ki and comp[ki] > li:
                ok = False
                break
        if ok:
            out.append(mu)
    return out


def _hook_fillings(shape: tuple[int, ...], n_even: int, n_odd: int) -> int:
    # Exhaustive backtracking over row-major cells.  Even letters must form a
    # top-left partition sub-shape, weakly increasing in rows and strictly
    # increasing down columns; odd letters fill the complementary skew shape,
    # strictly increasing in rows and weakly increasing down columns.
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    return _place(cells, 0, {}, n_even, n_odd)


def _place(cells, idx: int, grid: dict, n_even: int, n_odd: int) -> int:
    # fillings of cells[idx:] given the (parity, letter) already in ``grid``
    if idx == len(cells):
        return 1
    r, c = cells[idx]
    left = grid.get((r, c - 1)) if c else None
    up = grid.get((r - 1, c)) if r else None
    total = 0
    if not (left and left[0]) and not (up and up[0]):
        for letter in range(1, n_even + 1):
            if left and left[0] == 0 and left[1] > letter:
                continue
            if up and up[0] == 0 and up[1] >= letter:
                continue
            grid[(r, c)] = (0, letter)
            total += _place(cells, idx + 1, grid, n_even, n_odd)
    for letter in range(1, n_odd + 1):
        if left and left[0] == 1 and left[1] >= letter:
            continue
        if up and up[0] == 1 and up[1] > letter:
            continue
        grid[(r, c)] = (1, letter)
        total += _place(cells, idx + 1, grid, n_even, n_odd)
    grid.pop((r, c), None)
    return total


def count_semistandard(mu, k, l) -> int:
    """Number of graded semistandard fillings of the multipartition, with
    k_i even and l_i odd letters available for component i."""
    k, l = check_alphabet(k, l)
    mu = check_multipartition(mu, len(k))
    total = 1
    for comp, ki, li in zip(mu, k, l):
        total *= _hook_fillings(comp, ki, li)
        if not total:
            return 0
    return total


def _conjugate(shape) -> tuple[int, ...]:
    if not shape:
        return ()
    return tuple(sum(1 for row in shape if row > c) for c in range(shape[0]))


def standard_tableau_count(shape) -> int:
    """Standard fillings of a single partition via the hook-length formula."""
    shape = tuple(shape)
    n = sum(shape)
    if n == 0:
        return 1
    conj = _conjugate(shape)
    hooks = 1
    for r, width in enumerate(shape):
        for c in range(width):
            hooks *= shape[r] - c + conj[c] - r - 1
    return math.factorial(n) // hooks


def count_standard_multitableaux(mu) -> int:
    """Standard fillings of a multipartition: a multinomial choice of which
    labels land in each component times the per-component counts."""
    mu = check_multipartition(mu, len(mu))
    n = mp_size(mu)
    total = math.factorial(n)
    for comp in mu:
        total //= math.factorial(sum(comp))
    for comp in mu:
        total *= standard_tableau_count(comp)
    return total


def word_hecke(mu) -> tuple[tuple, ...]:
    """Hecke-algebra word for the standard element of a multipartition.

    A block of size a ending at position b in component r contributes the
    color scaling xi_b**(r-1) (omitted for r = 1) followed by the braid
    generators strictly interior to the block, b-1 down to block start + 1.
    """
    syms: list[tuple] = []
    pos = 0
    for r, comp in enumerate(check_multipartition(mu, len(mu)), start=1):
        for part in comp:
            start, end = pos, pos + part
            if r > 1:
                syms.append(("xi", end, r - 1))
            for j in range(end - 1, start, -1):
                syms.append(("g", j))
            pos = end
    return tuple(syms)
