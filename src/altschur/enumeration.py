"""Canonical enumeration of the index sets behind the graded basis.

Four families are enumerated, each in a fixed deterministic order:

* ``M(n, d)``: all n-by-n grids of non-negative integers summing to d
  (multigraphs); count C(n^2 + d - 1, d).
* ``N(n, d)``: the 0/1 grids summing to d (simple graphs); count C(n^2, d),
  empty when n^2 < d.
* ``Lambda(n, d)``: weak compositions of d into n parts; count C(n + d - 1, d).
* ``B(n, d)``: configurations of d labelled balls in n boxes, i.e. words of
  length d over {1..n}; count n^d, streamed rather than materialized.

Graphs are listed in ascending lexicographic order of the row-major flattened
grid; compositions in descending lexicographic order (so ``(d, 0, .., 0)``
comes first, matching how diagonal symbols are usually written down).  Ball
configurations stream in odometer order with the last ball moving fastest,
so the first word is "all balls in box 1".

``B(n, d)`` carries a right permutation action ``(f . w)(k) = f(w(k))``,
exposed as :func:`act_word`; orbits of pairs under this action are what the
basis graphs index.
"""

from __future__ import annotations

import itertools
import math
import os
from functools import lru_cache
from typing import Dict, Iterator, List, Sequence, Tuple

from .graphs import BipartiteGraph, Word

__all__ = [
    "BudgetExceededError",
    "enum_M",
    "enum_M_rect",
    "enum_N",
    "enum_Lambda",
    "enum_B",
    "act_word",
    "content",
    "words_with_content",
    "count_M",
    "count_N",
    "basis_size",
    "check_power_budget",
    "check_basis_budget",
    "check_count_budget",
    "lambda_factorial",
    "sign_of_permutation",
    "graph_index",
]

DEFAULT_POWER_CAP = 10**6  # largest permitted n^d for ball-configuration work
DEFAULT_BASIS_CAP = 5000  # largest permitted |M| + |N| for table work

POWER_CAP_ENV = "ALTSCHUR_MAX_POWER"
BASIS_CAP_ENV = "ALTSCHUR_MAX_BASIS"


class BudgetExceededError(RuntimeError):
    """A requested enumeration or table is larger than the configured cap."""


def _cap(env: str, default: int, override: int | None) -> int:
    if override is not None:
        return override
    raw = os.environ.get(env)
    return int(raw) if raw else default


def check_power_budget(n: int, d: int, cap: int | None = None) -> None:
    """Raise :class:`BudgetExceededError` when n^d exceeds the cap."""
    limit = _cap(POWER_CAP_ENV, DEFAULT_POWER_CAP, cap)
    if n**d > limit:
        raise BudgetExceededError(f"n^d = {n}^{d} = {n**d} exceeds the cap {limit}")


def check_basis_budget(n: int, d: int, cap: int | None = None) -> None:
    """Raise :class:`BudgetExceededError` when |M(n,d)| + |N(n,d)| exceeds the cap."""
    check_count_budget("|M| + |N|", basis_size(n, d), n, d, cap)


def check_count_budget(what: str, size: int, n: int, d: int, cap: int | None = None) -> None:
    """Raise :class:`BudgetExceededError` when ``size``, the count named
    ``what`` at (n, d), exceeds the basis cap."""
    limit = _cap(BASIS_CAP_ENV, DEFAULT_BASIS_CAP, cap)
    if size > limit:
        raise BudgetExceededError(f"{what} = {size} at (n,d)=({n},{d}) exceeds the cap {limit}")


def count_M(n: int, d: int) -> int:
    return math.comb(n * n + d - 1, d)


def count_N(n: int, d: int) -> int:
    return math.comb(n * n, d) if d <= n * n else 0


def basis_size(n: int, d: int) -> int:
    return count_M(n, d) + count_N(n, d)


def _grids_lex(total: int, cells: int, max_entry: int | None) -> Iterator[Tuple[int, ...]]:
    """All length-``cells`` tuples of non-negative ints summing to ``total``,
    entries capped at ``max_entry``, in ascending lexicographic order."""
    if cells == 0:
        if total == 0:
            yield ()
        return
    if cells == 1:
        if max_entry is None or total <= max_entry:
            yield (total,)
        return
    hi = total if max_entry is None else min(total, max_entry)
    for first in range(hi + 1):
        for rest in _grids_lex(total - first, cells - 1, max_entry):
            yield (first,) + rest


def _to_graph(flat: Sequence[int], n_up: int, n_down: int) -> BipartiteGraph:
    return BipartiteGraph(
        n_up, n_down, tuple(tuple(flat[i * n_down : (i + 1) * n_down]) for i in range(n_up))
    )


def enum_M_rect(m: int, n: int, d: int) -> List[BipartiteGraph]:
    """All multigraphs on ``[m]' + [n]`` with d edges, ascending flattened-lex."""
    return [_to_graph(flat, m, n) for flat in _grids_lex(d, m * n, None)]


@lru_cache(maxsize=None)
def enum_M(n: int, d: int) -> List[BipartiteGraph]:
    """All square multigraphs with d edges, ascending flattened-lex.
    Cached; callers must not mutate the result.

    >>> [g.adj for g in enum_M(1, 3)]
    [((3,),)]
    >>> len(enum_M(2, 2))
    10
    """
    return enum_M_rect(n, n, d)


@lru_cache(maxsize=None)
def enum_N(n: int, d: int) -> List[BipartiteGraph]:
    """All square simple graphs with d edges, ascending flattened-lex.
    Cached; callers must not mutate the result.

    >>> len(enum_N(2, 2)), len(enum_N(1, 2))
    (6, 0)
    """
    return [_to_graph(flat, n, n) for flat in _grids_lex(d, n * n, 1)]


def enum_Lambda(n: int, d: int) -> List[Tuple[int, ...]]:
    """Weak compositions of d into n parts, descending lexicographic order.

    >>> enum_Lambda(2, 2)
    [(2, 0), (1, 1), (0, 2)]
    """
    return list(_grids_lex(d, n, None))[::-1]


def enum_B(n: int, d: int, cap: int | None = None) -> Iterator[Word]:
    """Stream all ball configurations (words of length d over {1..n}).

    Odometer order with the last ball moving fastest; the first word places
    every ball in box 1.  Guarded by the n^d budget.
    """
    check_power_budget(n, d, cap)
    return itertools.product(range(1, n + 1), repeat=d)


def act_word(f: Word, w: Sequence[int]) -> Word:
    """Right action of a permutation on a configuration: ``(f.w)(k) = f(w(k))``."""
    return tuple(f[wk - 1] for wk in w)


def content(f: Word, n: int) -> Tuple[int, ...]:
    """Number of balls in each box: the weak composition a word realizes."""
    counts = [0] * n
    for box in f:
        counts[box - 1] += 1
    return tuple(counts)


_WORD_CACHE: Dict[Tuple[int, ...], List[Word]] = {}


def words_with_content(counts: Sequence[int]) -> List[Word]:
    """All distinct words over {1..len(counts)} with the given letter counts,
    in lexicographic order.  Cached; callers must not mutate the result.

    >>> words_with_content((1, 2))
    [(1, 2, 2), (2, 1, 2), (2, 2, 1)]
    """
    key = tuple(counts)
    cached = _WORD_CACHE.get(key)
    if cached is not None:
        return cached
    total = sum(key)
    out: List[Word] = []
    word: List[int] = [0] * total
    remaining = list(key)

    def rec(pos: int) -> None:
        if pos == total:
            out.append(tuple(word))
            return
        for letter in range(len(remaining)):
            if remaining[letter]:
                remaining[letter] -= 1
                word[pos] = letter + 1
                rec(pos + 1)
                remaining[letter] += 1

    rec(0)
    _WORD_CACHE[key] = out
    return out


def lambda_factorial(lam: Sequence[int]) -> int:
    """Product of the factorials of the parts."""
    out = 1
    for part in lam:
        out *= math.factorial(part)
    return out


def sign_of_permutation(w: Sequence[int]) -> int:
    """Sign of a permutation in one-line notation."""
    inv = sum(1 for a in range(len(w)) for b in range(a + 1, len(w)) if w[a] > w[b])
    return -1 if inv % 2 else 1


@lru_cache(maxsize=None)
def graph_index(kind: str, n: int, d: int) -> Dict[BipartiteGraph, int]:
    """Graph -> position map for ``enum_M`` (kind "M") or ``enum_N`` (kind "N").
    Cached; callers must not mutate the result."""
    return {g: i for i, g in enumerate(enum_M(n, d) if kind == "M" else enum_N(n, d))}
