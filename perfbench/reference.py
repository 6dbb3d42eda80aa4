"""Brute-force structure constants, from first definitions only.

A product coefficient is a sum over every middle configuration T of
kernel1(S, T) * kernel2(T, U), where (S, U) is a configuration pair realizing
the target graph.  Nothing here imports altschur, so agreement with
``altschur.algebra.multiply`` is evidence rather than tautology.

Conventions match the package: a configuration is a word of boxes (ball k
sits in box ``word[k]``); the graph of a pair (S, T) takes its upper vertices
from T and its lower vertices from S; the sign of a pair is the inversion
parity of its ball-ordered edge sequence under lexicographic order.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

Adj = Tuple[Tuple[int, ...], ...]
Word = Tuple[int, ...]


def pair_adj(s: Word, t: Word, n: int) -> Adj:
    counts = [[0] * n for _ in range(n)]
    for sj, ti in zip(s, t):
        counts[ti - 1][sj - 1] += 1
    return tuple(tuple(row) for row in counts)


def pair_sign(s: Word, t: Word) -> int:
    """Sign of the ball labelling of the pair; 0 when two balls share an edge."""
    edges = list(zip(t, s))
    if len(set(edges)) != len(edges):
        return 0
    inversions = sum(1 for a in range(len(edges)) for b in range(a + 1, len(edges)) if edges[a] > edges[b])
    return -1 if inversions % 2 else 1


def kernel(parity: str, adj: Adj, s: Word, t: Word, n: int) -> int:
    if pair_adj(s, t, n) != adj:
        return 0
    return pair_sign(s, t) if parity == "odd" else 1


def coefficient(left: Tuple[str, Adj], right: Tuple[str, Adj], s: Word, u: Word, n: int) -> Tuple[str, Adj, int]:
    """Target (parity, graph) realized by (S, U) and its integer coefficient
    in left * right.  Odd targets are read with the sign of (S, U)."""
    d = len(s)
    parity = "odd" if (left[0] == "odd") != (right[0] == "odd") else "even"
    total = 0
    for t in itertools.product(range(1, n + 1), repeat=d):
        a = kernel(left[0], left[1], s, t, n)
        if a:
            total += a * kernel(right[0], right[1], t, u, n)
    if parity == "odd":
        sign = pair_sign(s, u)
        if sign == 0:
            raise ValueError("odd target needs a transverse pair")
        total *= sign
    return parity, pair_adj(s, u, n), total


def sorted_word(content: Sequence[int]) -> Word:
    return tuple(box for box, count in enumerate(content, start=1) for _ in range(count))


def column_sums(adj: Sequence[Sequence[int]]) -> List[int]:
    return [sum(col) for col in zip(*adj)]
