"""Bipartite multigraphs on ``[n_up]' + [n_down]`` and their labellings.

A basis symbol of the algebra is indexed by a bipartite multigraph with
``n_up`` upper vertices (written ``1'..n_up'``) and ``n_down`` lower vertices
(``1..n_down``).  The graph is stored as its biadjacency matrix: ``adj[i][j]``
is the number of edges joining upper vertex ``i+1`` and lower vertex ``j+1``.
The degree of the graph is the total number of edges; upper and lower degree
sequences are the row and column sums.

Orientation convention, used consistently everywhere: the graph of a pair of
configurations ``(S, T)`` takes its *upper* vertices from ``T`` and its
*lower* vertices from ``S``.  Configurations are words ``f`` of length d over
``[n]`` (ball ``k`` sits in box ``f[k-1]``), see :mod:`altschur.enumeration`.

Labellings and signs.  A labelling of a degree-d graph assigns the labels
``1..d`` bijectively to its edges; we encode it as the sequence of edges in
label order.  The *standard* labelling lists the edges in lexicographic order
``(upper, lower)``.  The sign of a labelling is the parity of the permutation
relating it to the standard one, i.e. the inversion parity of the edge
sequence under lexicographic comparison.  Signs are only defined for simple
graphs (all multiplicities at most 1): with a repeated edge, swapping the two
labels flips the sign, so any signed quantity on a non-simple graph is 0.

>>> g = BipartiteGraph.from_adj([[2, 0], [1, 1]])
>>> g.degree, g.upper_degrees, g.lower_degrees
(4, (2, 2), (3, 1))
>>> g.standard_labelling()
((1, 1), (1, 1), (2, 1), (2, 2))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

__all__ = [
    "BipartiteGraph",
    "NonTransverseError",
    "labelling_sign",
    "pair_graph",
    "pair_labelling",
    "pair_sign",
    "representative_pair",
    "gamma_lambda",
    "gamma_lambda_star",
    "gamma0_lambda",
    "gamma_perm",
    "complete_bipartite",
    "d_of",
    "u_of",
]

Edge = Tuple[int, int]  # (upper vertex, lower vertex), both 1-based
Word = Tuple[int, ...]  # configuration: ball k -> box word[k-1]


class NonTransverseError(ValueError):
    """Raised when a sign is requested for a pair whose graph has a repeated edge."""


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable bipartite multigraph given by its biadjacency matrix."""

    n_up: int
    n_down: int
    adj: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.adj) != self.n_up:
            raise ValueError(f"adj has {len(self.adj)} rows, expected {self.n_up}")
        for row in self.adj:
            if len(row) != self.n_down:
                raise ValueError(f"adj row has {len(row)} entries, expected {self.n_down}")
            for x in row:
                if not isinstance(x, int) or x < 0:
                    raise ValueError(f"edge multiplicities must be non-negative ints, got {x!r}")
        # margins and the hash are read far more often than graphs are built;
        # they are not dataclass fields, so equality still sees only the matrix.
        # The hash is the dataclass one over ints, so it agrees across processes.
        upper = tuple(sum(row) for row in self.adj)
        object.__setattr__(self, "_upper_degrees", upper)
        object.__setattr__(self, "_lower_degrees", tuple(map(sum, zip(*self.adj))) if self.adj else ())
        object.__setattr__(self, "_degree", sum(upper))
        object.__setattr__(self, "_hash", hash((self.n_up, self.n_down, self.adj)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_adj(cls, adj: Sequence[Sequence[int]]) -> "BipartiteGraph":
        """The graph of a biadjacency matrix whose entries are ints (not bools,
        floats or strings, which are refused rather than coerced)."""
        rows = tuple(tuple(row) for row in adj)
        if any(type(x) is not int for row in rows for x in row):
            raise TypeError(f"edge multiplicities must be ints, got {rows!r}")
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def upper_degrees(self) -> Tuple[int, ...]:
        return self._upper_degrees

    @property
    def lower_degrees(self) -> Tuple[int, ...]:
        return self._lower_degrees

    def is_simple(self) -> bool:
        return all(x <= 1 for row in self.adj for x in row)

    def star(self) -> "BipartiteGraph":
        """The graph with upper and lower vertex sets exchanged (transpose)."""
        return BipartiteGraph(
            self.n_down,
            self.n_up,
            tuple(tuple(self.adj[i][j] for i in range(self.n_up)) for j in range(self.n_down)),
        )

    def edges(self) -> Iterator[Edge]:
        """Edges in lexicographic (upper, lower) order, repeated with multiplicity."""
        for i, row in enumerate(self.adj, start=1):
            for j, m in enumerate(row, start=1):
                for _ in range(m):
                    yield (i, j)

    def standard_labelling(self) -> Tuple[Edge, ...]:
        """Edge sequence in label order for the standard (lexicographic) labelling."""
        return tuple(self.edges())

    def sort_key(self) -> Tuple[int, ...]:
        """Total-order key: row-major flattened biadjacency matrix."""
        return tuple(x for row in self.adj for x in row)

    def to_json_dict(self) -> dict:
        return {"n_up": self.n_up, "n_down": self.n_down, "adj": [list(row) for row in self.adj]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BipartiteGraph":
        g = cls.from_adj(data["adj"])
        if g.n_up != data["n_up"] or g.n_down != data["n_down"]:
            raise ValueError("adj shape disagrees with declared vertex counts")
        return g

    def __str__(self) -> str:
        return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]" for row in self.adj) + "]"


def labelling_sign(edge_seq: Sequence[Edge], graph: Optional[BipartiteGraph] = None) -> int:
    """Sign of the labelling encoded by ``edge_seq`` (edge with label k at k-1).

    Equals the inversion parity of the sequence under lexicographic edge
    order.  All edges must be distinct.  When ``graph`` is given, the sequence
    is first checked to be a labelling of that graph.

    >>> labelling_sign([(1, 1), (2, 2)])
    1
    >>> labelling_sign([(2, 2), (1, 1)])
    -1
    """
    if graph is not None and sorted(edge_seq) != list(graph.edges()):
        raise ValueError("edge sequence is not a labelling of the given graph")
    n = len(edge_seq)
    if len(set(edge_seq)) != n:
        raise NonTransverseError("sign undefined: labelling has a repeated edge")
    inv = 0
    for a in range(n):
        ea = edge_seq[a]
        for b in range(a + 1, n):
            if ea > edge_seq[b]:
                inv += 1
    return -1 if inv % 2 else 1


def pair_graph(s_word: Word, t_word: Word, n_down: int, n_up: Optional[int] = None) -> BipartiteGraph:
    """Graph of the configuration pair ``(S, T)``: upper from T, lower from S.

    ``adj[i][j]`` counts the balls lying in box ``i+1`` of T and box ``j+1``
    of S.

    >>> pair_graph((1, 1, 2), (1, 2, 2), 2).adj
    ((1, 0), (1, 1))
    """
    if n_up is None:
        n_up = n_down
    if len(s_word) != len(t_word):
        raise ValueError("configurations have different degrees")
    counts = [[0] * n_down for _ in range(n_up)]
    for sj, ti in zip(s_word, t_word):
        counts[ti - 1][sj - 1] += 1
    return BipartiteGraph(n_up, n_down, tuple(tuple(row) for row in counts))


def pair_labelling(s_word: Word, t_word: Word) -> Tuple[Edge, ...]:
    """Edge sequence of the pair graph in ball order: ball k gives edge k."""
    return tuple((ti, sj) for sj, ti in zip(s_word, t_word))


def pair_sign(s_word: Word, t_word: Word) -> int:
    """Sign of the ball labelling of the pair graph of ``(S, T)``.

    Raises :class:`NonTransverseError` when two balls give the same edge.
    """
    return labelling_sign(pair_labelling(s_word, t_word))


def representative_pair(g: BipartiteGraph) -> Tuple[Word, Word]:
    """A configuration pair ``(S, U)`` with pair graph ``g`` and ball sign +1.

    Balls are named after the standard labelling: ball k lives in the lower
    box of edge k (in S) and the upper box of edge k (in U).
    """
    std = g.standard_labelling()
    s_word = tuple(j for (_, j) in std)
    u_word = tuple(i for (i, _) in std)
    return s_word, u_word


def _padded(lam: Sequence[int], n: int) -> Tuple[int, ...]:
    if len(lam) > n:
        raise ValueError(f"composition {tuple(lam)!r} has more than {n} parts")
    return tuple(lam) + (0,) * (n - len(lam))


def gamma_lambda(lam: Sequence[int], n: int) -> BipartiteGraph:
    """Square graph on ``[n]' + [n]`` with lower degrees ``lam`` and upper degrees all 0/1.

    Upper vertex i is joined to lower vertex j exactly when
    ``lam[0] + .. + lam[j-2] < i <= lam[0] + .. + lam[j-1]``, so the first
    ``lam[0]`` upper vertices attach to lower vertex 1, the next ``lam[1]``
    to lower vertex 2, and so on.  ``lam`` is padded with zero parts to
    length n; requires ``n >= sum(lam)``.

    >>> sorted(gamma_lambda((2, 1), 3).edges())
    [(1, 1), (2, 1), (3, 2)]
    """
    lam = _padded(lam, n)
    d = sum(lam)
    if n < d:
        raise ValueError(f"need n >= {d} to place {d} disjoint upper endpoints")
    adj = [[0] * n for _ in range(n)]
    i = 0
    for j, part in enumerate(lam):
        for _ in range(part):
            adj[i][j] = 1
            i += 1
    return BipartiteGraph.from_adj(adj)


def gamma_lambda_star(lam: Sequence[int], n: int) -> BipartiteGraph:
    """Transpose of :func:`gamma_lambda`: upper degrees ``lam``, lower degrees 0/1."""
    return gamma_lambda(lam, n).star()


def gamma0_lambda(lam: Sequence[int], n: Optional[int] = None) -> BipartiteGraph:
    """Diagonal graph: ``lam[i]`` parallel edges joining vertex ``i+1`` to itself.

    >>> gamma0_lambda((2, 0, 1)).adj
    ((2, 0, 0), (0, 0, 0), (0, 0, 1))
    """
    lam = _padded(lam, n if n is not None else len(lam))
    n = len(lam)
    return BipartiteGraph(n, n, tuple(tuple(lam[i] if i == j else 0 for j in range(n)) for i in range(n)))


def complete_bipartite(n: int) -> BipartiteGraph:
    """Every upper vertex joined to every lower vertex once; degree n^2."""
    return BipartiteGraph(n, n, tuple(tuple(1 for _ in range(n)) for _ in range(n)))


def gamma_perm(w: Sequence[int], n: Optional[int] = None) -> BipartiteGraph:
    """Permutation graph: edge from upper ``i`` to lower ``w(i)`` for each i.

    ``w`` is given in one-line notation (``w[i-1] = w(i)``).

    >>> gamma_perm((2, 1)).adj
    ((0, 1), (1, 0))
    """
    d = len(w)
    if sorted(w) != list(range(1, d + 1)):
        raise ValueError(f"{w!r} is not a permutation of 1..{d}")
    if n is None:
        n = d
    if n < d:
        raise ValueError("permutation does not fit: n < len(w)")
    adj = [[0] * n for _ in range(n)]
    for i, wi in enumerate(w, start=1):
        adj[i - 1][wi - 1] = 1
    return BipartiteGraph.from_adj(adj)


def _square_with_room(g: BipartiteGraph) -> int:
    if g.n_up != g.n_down:
        raise ValueError("defined for square graphs only")
    if g.n_up < g.degree:
        raise ValueError(f"need n >= d, got n = {g.n_up}, d = {g.degree}")
    return g.n_up


def d_of(g: BipartiteGraph) -> BipartiteGraph:
    """Spread the lower endpoints of ``g`` out along ``[d] within [n]``.

    Edge k of the standard labelling, with upper endpoint i, becomes the edge
    ``(i, k)``.  The result is a simple square graph on the same vertex sets
    with upper degrees equal to those of ``g`` and lower degrees
    ``(1,..,1,0,..,0)`` (d ones).  Requires a square graph with n >= d.
    """
    n = _square_with_room(g)
    adj = [[0] * n for _ in range(n)]
    for k, (i, _) in enumerate(g.standard_labelling(), start=1):
        adj[i - 1][k - 1] = 1
    return BipartiteGraph.from_adj(adj)


def u_of(g: BipartiteGraph) -> BipartiteGraph:
    """Spread the upper endpoints of ``g`` out along ``[d] within [n]``.

    Edge k of the standard labelling, with lower endpoint j, becomes the edge
    ``(k, j)``.  The result is a simple square graph with lower degrees equal
    to those of ``g`` and upper degrees ``(1,..,1,0,..,0)`` (d ones).
    Requires a square graph with n >= d.
    """
    n = _square_with_room(g)
    adj = [[0] * n for _ in range(n)]
    for k, (_, j) in enumerate(g.standard_labelling(), start=1):
        adj[k - 1][j - 1] = 1
    return BipartiteGraph.from_adj(adj)
