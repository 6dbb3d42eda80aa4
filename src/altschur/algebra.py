"""The graded algebra on graph symbols and its signed structure constants.

The algebra at parameters (n, d) has a basis of even symbols, one per
multigraph in M(n, d), and odd symbols, one per simple graph in N(n, d).
Every symbol acts as an integral operator on ball configurations: the even
symbol of a graph g has kernel value 1 at each configuration pair whose pair
graph is g, and the odd symbol has kernel value equal to the ball-labelling
sign at such pairs (necessarily transverse since g is simple).

Products follow the Schur-algebra product rule (Green, *Polynomial
Representations of GL_n*, LNM 830, section 2.3).  The coefficient of a target
graph g in a product is the product kernel at one configuration pair (S, U)
realizing g, a sum over middle configurations T:

    (product kernel)(S, U) = sum over T of kernel1(S, T) * kernel2(T, U).

Grouping the T by how many balls go from each box of U through each middle
box to each box of S turns this into a sum over 3-way contingency tables
whose margins are the two factor graphs and the target.  Each table
contributes its number of T, times a ball-labelling sign that is constant on
the table when a factor is odd; :func:`convolve` gives the argument.  The test
suite keeps an independent walk over middle and target words as the reference.

All structure constants are integers, reduced into a field at the point of
use.  The index-keyed tables below are cached once per (n, d).

The odd part S⁻ is stored once, as the integer table of its left action
ξ_g ζ_a.  Every other product with an odd factor is read off that table
through the anti-involution ι(ξ_g) = ξ_{g*}, ι(ζ_a) = s_a ζ_{a*}
(s = :func:`iota_sign`):

* mirror: the coefficient of ζ_c in ζ_a ξ_g is s_a s_c times that of
  ζ_{c*} in ξ_{g*} ζ_{a*};
* trace form: the coefficient of ξ_h in ζ_a ζ_b is s_b · h! times that of
  ζ_{b*} in ξ_{h*} ζ_a, where h! = Π h_ij!.

Renaming the boxes by σ ∈ S_n, on both sides of every graph, maps the left
table to itself up to a sign: the coefficient of ζ_{σc} in ξ_{σg} ζ_{σa} is
s_σ(a) s_σ(c) times that of ζ_c in ξ_g ζ_a, where s_σ(a) =
:func:`relabel_sign` is the sign of a's standard labelling with its boxes
renamed, as a labelling of σa.  Renaming the boxes of every configuration
is an automorphism of the operators: it sends ξ_g to ξ_{σg} and ζ_a to
s_σ(a) ζ_{σa}, since the ball labelling that ζ_a reads is renamed with
the boxes.

On S(n, d) neither σ nor ι needs a sign: the coefficient of ξ_{σk} in
ξ_{σg} ξ_{σh}, and that of ξ_{k*} in ξ_{h*} ξ_{g*}, equal the coefficient
of ξ_k in ξ_g ξ_h.

So ξ·ξ products are convolved on one pair per S_n × ⟨ι⟩-orbit, and ξ·ζ
products on one pair per S_n-orbit.  Single products are read by index
through :func:`_product`, which :func:`build_table`, the duality diagnostics
and the matrix oracle share; :func:`multiply` convolves each product anew.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .fields import FieldSpec, Scalar
from .graphs import (
    BipartiteGraph,
    gamma0_lambda,
    gamma_lambda,
    labelling_sign,
    d_of,
    u_of,
)
from .enumeration import check_basis_budget, enum_Lambda, enum_M, enum_N, graph_index, lambda_factorial

__all__ = [
    "BasisSymbol",
    "GradedElement",
    "CheckReport",
    "xi",
    "zeta",
    "convolve",
    "structure_constants",
    "multiply",
    "identity",
    "anti_involution",
    "iota_sign",
    "factorization_check",
    "delta_check",
    "delta_checks",
    "rect_compose",
    "build_table",
    "save_table",
    "load_table",
]


@dataclass(frozen=True)
class BasisSymbol:
    """An even ("xi") or odd ("zeta") basis symbol, indexed by its graph."""

    parity: str  # "even" | "odd"
    graph: BipartiteGraph

    def __post_init__(self) -> None:
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if self.graph.n_up != self.graph.n_down:
            raise ValueError("basis symbols require square graphs")
        if self.parity == "odd" and not self.graph.is_simple():
            raise ValueError("odd symbols exist only for simple graphs")
        # built from ints only: a str hash differs between processes, and a
        # symbol unpickled from a worker keeps the hash it was built with
        object.__setattr__(self, "_hash", hash((self.parity == "odd", hash(self.graph))))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return self.graph.n_up

    @property
    def d(self) -> int:
        return self.graph.degree

    @property
    def is_odd(self) -> bool:
        return self.parity == "odd"

    def sort_key(self) -> Tuple:
        return (0 if self.parity == "even" else 1, self.graph.sort_key())

    def to_json_dict(self) -> dict:
        return {"parity": self.parity, "adj": [list(row) for row in self.graph.adj]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BasisSymbol":
        return cls(data["parity"], BipartiteGraph.from_adj(data["adj"]))

    def __str__(self) -> str:
        head = "xi" if self.parity == "even" else "zeta"
        return f"{head}{self.graph}"


def xi(g: BipartiteGraph) -> BasisSymbol:
    return BasisSymbol("even", g)


def zeta(g: BipartiteGraph) -> BasisSymbol:
    return BasisSymbol("odd", g)


@dataclass
class GradedElement:
    """A finitely supported field-linear combination of basis symbols."""

    n: int
    d: int
    field: FieldSpec
    terms: Dict[BasisSymbol, Scalar] = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {}
        for sym, coeff in self.terms.items():
            if sym.n != self.n or sym.d != self.d:
                raise ValueError(f"symbol {sym} does not live at (n,d)=({self.n},{self.d})")
            if coeff:
                cleaned[sym] = coeff
        self.terms = cleaned

    @classmethod
    def zero(cls, n: int, d: int, field: FieldSpec) -> "GradedElement":
        return cls(n, d, field, {})

    @classmethod
    def from_symbol(cls, sym: BasisSymbol, field: FieldSpec, coeff: Scalar | None = None) -> "GradedElement":
        return cls(sym.n, sym.d, field, {sym: field.one if coeff is None else coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def _require_compatible(self, other: "GradedElement") -> None:
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError(f"(n,d) mismatch: ({self.n},{self.d}) vs ({other.n},{other.d})")
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field.label} vs {other.field.label}")

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._require_compatible(other)
        f = self.field
        out = dict(self.terms)
        for sym, c in other.terms.items():
            out[sym] = f.add(out.get(sym, f.zero), c)
        return GradedElement(self.n, self.d, f, out)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + other.scale(self.field.neg(self.field.one))

    def scale(self, c: Scalar) -> "GradedElement":
        f = self.field
        return GradedElement(self.n, self.d, f, {sym: f.mul(c, v) for sym, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GradedElement)
            and (self.n, self.d, self.field) == (other.n, other.d, other.field)
            and self.terms == other.terms
        )

    def even_part(self) -> "GradedElement":
        return GradedElement(self.n, self.d, self.field, {s: c for s, c in self.terms.items() if not s.is_odd})

    def odd_part(self) -> "GradedElement":
        return GradedElement(self.n, self.d, self.field, {s: c for s, c in self.terms.items() if s.is_odd})

    def sorted_terms(self) -> List[Tuple[BasisSymbol, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, sym: BasisSymbol) -> Scalar:
        return self.terms.get(sym, self.field.zero)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "field": self.field.label,
            "terms": [
                dict(sym.to_json_dict(), coeff=self.field.format_scalar(c))
                for sym, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GradedElement":
        f = FieldSpec.from_label(data["field"])
        if type(data["n"]) is not int or type(data["d"]) is not int or type(data["terms"]) is not list:
            raise TypeError("n and d must be ints and terms a list")
        terms: Dict[BasisSymbol, Scalar] = {}
        for rec in data["terms"]:
            sym = BasisSymbol.from_json_dict(rec)
            coeff = f.parse_scalar(rec["coeff"])
            if sym in terms:
                raise ValueError(f"duplicate term for {sym}")
            terms[sym] = coeff
        return cls(data["n"], data["d"], f, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"{self.field.format_scalar(c)}*{sym}" for sym, c in self.sorted_terms()
        )


# -- the convolution kernel --------------------------------------------------

# a 2-way slice of convolve: its nonzero (flat cell, count) pairs, and the
# parity of its pairs of balls in cells c < c' with column j_c > j_c'
_Slice = Tuple[Tuple[Tuple[int, int], ...], int]


@lru_cache(maxsize=None)
def _tables(rows: Tuple[int, ...], cols: Tuple[int, ...]) -> Tuple[_Slice, ...]:
    """Every matrix of non-negative ints with row sums ``rows`` and column
    sums ``cols`` (non-empty, equal totals), flattened row-major, as a
    :data:`_Slice`.  Cached, since the products of one cell share margins."""
    n_rows, n_cols = len(rows), len(cols)
    out: List[_Slice] = []
    cells = [0] * (n_rows * n_cols)
    left = list(cols)
    last = (n_rows - 1) * n_cols

    def fill(k: int, row_left: int, room: int) -> None:
        # cell k = (i, j) takes x balls; the row's later cells have ``room``
        if k == last:
            nonzero = tuple((c, x) for c, x in enumerate(cells[:last] + left) if x)
            crossed = sum(
                x * y for at, (c, x) in enumerate(nonzero) for c2, y in nonzero[at + 1:] if c % n_cols > c2 % n_cols
            )
            out.append((nonzero, crossed & 1))
            return
        j = k % n_cols
        cap = left[j]
        room -= cap
        for x in range(max(0, row_left - room), min(row_left, cap) + 1):
            cells[k] = x
            left[j] = cap - x
            if j == n_cols - 1:
                fill(k + 1, rows[k // n_cols + 1], sum(left))
            else:
                fill(k + 1, row_left - x, room)
        left[j] = cap

    fill(0, rows[0], sum(cols))
    return tuple(out)


def _flips(partial: Tuple[int, ...], width: int, odd1: bool, odd2: bool) -> List[int]:
    """Per cell k of a partial sum: the parity of the old balls that a new
    ball in cell k is inverted with (see :func:`convolve`)."""
    out = [0] * len(partial)
    later = row_later = 0  # balls in later cells; in later cells of this row
    for k in range(len(partial) - 1, -1, -1):
        if k % width == width - 1:
            row_later = 0
        out[k] = ((later if odd1 else 0) + (row_later if odd2 else 0)) & 1
        later += partial[k]
        row_later += partial[k]
    return out


def convolve(
    g1: BipartiteGraph, g2: BipartiteGraph, odd1: bool, odd2: bool
) -> Dict[BipartiteGraph, int]:
    """Integer structure constants of the product (g1 symbol) * (g2 symbol).

    Works for rectangular graphs as well: g1 on [m]' + [l], g2 on [n]' + [m];
    the targets live on [n]' + [l].  Returns {} when the middle degree
    sequences disagree (the product is zero).

    The coefficient of a target g is the product kernel at the pair
    (S, U) = representative_pair(g), whose ball sign is +1:

        sum over T of kernel1(S, T) * kernel2(T, U).

    Each such T puts the balls of cell (i, j) of g (U-box i, S-box j) into
    middle boxes; let z[i][m][j] count the balls of cell (i, j) in middle
    box m.  T contributes only if row m of g1 is the S-margin of slice
    z[.][m][.] and column m of g2 its U-margin, and g = sum over m of the
    slices.  So the tables z are products over m of 2-way tables, and one
    table is realized by prod g_ij! / prod z_imj! middle configurations T.

    Two T of one table differ by permuting balls inside cells.  Swapping two
    balls of cell (i, j) that sit in distinct middle boxes m != m' swaps the
    edges (m, j) and (m', j) of the pair (S, T), and the edges (i, m) and
    (i, m') of (T, U): each ball sign flips once.  Hence

    * even * even: the weight of a table is its count of T;
    * odd * odd: every T of a table has the same sign product, read off one
      representative T (the balls of each cell in ascending middle boxes),
      and z <= 1, so the weight is that sign times prod g_ij!;
    * exactly one odd factor: z <= 1, so in a cell with g_ij >= 2 the swap
      pairs each T with one of opposite sign and the table sums to 0.
      Partial sums are pruned at 1; each surviving table is one signed T.

    The tables are built one middle box at a time.  A partial sum P gains
    a slice A with weight prod C(P_ij + A_ij, A_ij), and equal partial sums
    merge, with a signed count when a factor is odd, because the sign of
    the representative T factors over the slices.  Order its balls by cell
    (i, j), then by middle box m.  The sign of (S, T) (odd g1) is the
    inversion parity of the sequence (m, j), that of (T, U) (odd g2) the
    inversion parity of (i, m); each inversion is a pair of balls and
    depends on their (i, j, m) only.  When slice m joins P, every old ball
    has a smaller middle box, so a new ball of cell c is inverted, for
    (m, j), with every old ball of a cell c' > c and, for (i, m), with
    every old ball of its row at a larger j; two new balls of cells c < c'
    are inverted, for (m, j), when j_c > j_c'.  No other pair changes, so
    the sign of a step depends on (P, A) only.
    """
    if g1.n_up != g2.n_down:
        raise ValueError(
            f"inner vertex sets disagree: {g1.n_up} upper vs {g2.n_down} lower"
        )
    if g1.degree != g2.degree:
        raise ValueError(f"degree mismatch: {g1.degree} vs {g2.degree}")
    if odd1 and not g1.is_simple():
        raise ValueError("odd factor requires a simple graph")
    if odd2 and not g2.is_simple():
        raise ValueError("odd factor requires a simple graph")
    if g1.upper_degrees != g2.lower_degrees:
        return {}

    # only the upper boxes of g2 and the lower boxes of g1 that hold balls
    # can carry them; the tables live on those cells
    up = [i for i, deg in enumerate(g2.upper_degrees) if deg]
    down = [j for j, deg in enumerate(g1.lower_degrees) if deg]
    width = len(down)
    signed = odd1 or odd2
    prune = odd1 != odd2
    comb = math.comb
    # partial sum -> signed number of middle configurations
    states: Dict[Tuple[int, ...], int] = {(0,) * (len(up) * width): 1}
    for m, row in enumerate(g1.adj):
        if not g1.upper_degrees[m]:
            continue
        slices = _tables(tuple(g2.adj[i][m] for i in up), tuple(row[j] for j in down))
        nxt: Dict[Tuple[int, ...], int] = {}
        for partial, count in states.items():
            flips = _flips(partial, width, odd1, odd2) if signed else None
            for nonzero, crossed in slices:
                negative = odd1 and crossed
                weight = count
                total = list(partial)
                for k, x in nonzero:
                    p = partial[k]
                    if p:
                        if prune:
                            break
                        weight *= comb(p + x, x)
                    if signed and flips[k]:
                        negative = not negative
                    total[k] = p + x
                else:
                    key = tuple(total)
                    nxt[key] = nxt.get(key, 0) + (-weight if negative else weight)
        states = nxt

    n_up, n_down = g2.n_up, g1.n_down
    coeffs: Dict[BipartiteGraph, int] = {}
    for flat, count in states.items():
        if count:
            adj = [[0] * n_down for _ in range(n_up)]
            for k, x in enumerate(flat):
                adj[up[k // width]][down[k % width]] = x
            coeffs[BipartiteGraph(n_up, n_down, tuple(map(tuple, adj)))] = count
    return coeffs


def structure_constants(sym1: BasisSymbol, sym2: BasisSymbol) -> Dict[BasisSymbol, int]:
    """Integer coefficients of basis symbols in the product sym1 * sym2."""
    if sym1.n != sym2.n or sym1.d != sym2.d:
        raise ValueError(
            f"symbols live at different parameters: ({sym1.n},{sym1.d}) vs ({sym2.n},{sym2.d})"
        )
    if sym1.graph.upper_degrees != sym2.graph.lower_degrees:
        return {}  # convolve's answer; its input checks hold for basis symbols
    parity = "odd" if sym1.is_odd != sym2.is_odd else "even"
    raw = convolve(sym1.graph, sym2.graph, sym1.is_odd, sym2.is_odd)
    return {BasisSymbol(parity, g): c for g, c in raw.items()}


def product_int(
    a: Dict[BasisSymbol, int], b: Dict[BasisSymbol, int]
) -> Dict[BasisSymbol, int]:
    """Product of two integer combinations of symbols, over the integers."""
    out: Dict[BasisSymbol, int] = {}
    for s1, c1 in a.items():
        for s2, c2 in b.items():
            for s, c in structure_constants(s1, s2).items():
                acc = out.get(s, 0) + c1 * c2 * c
                if acc:
                    out[s] = acc
                else:
                    out.pop(s, None)
    return out


def multiply(x: GradedElement, y: GradedElement) -> GradedElement:
    """Bilinear extension of the basis products."""
    x._require_compatible(y)
    f = x.field
    out: Dict[BasisSymbol, Scalar] = {}
    for s1, c1 in x.terms.items():
        for s2, c2 in y.terms.items():
            scale = f.mul(c1, c2)
            if not scale:
                continue
            for s, c in structure_constants(s1, s2).items():
                out[s] = f.add(out.get(s, f.zero), f.mul(scale, f.from_int(c)))
    return GradedElement(x.n, x.d, f, out)


def identity(n: int, d: int, field: FieldSpec) -> GradedElement:
    """The unit: sum of the even diagonal symbols over all compositions."""
    terms = {xi(gamma0_lambda(lam)): field.one for lam in enum_Lambda(n, d)}
    return GradedElement(n, d, field, terms)


def iota_sign(g: BipartiteGraph) -> int:
    """Sign relating the reflected standard labelling of g to the standard
    labelling of the reflected graph."""
    return labelling_sign([(j, i) for (i, j) in g.standard_labelling()])


def relabel_sign(g: BipartiteGraph, sigma: Sequence[int]) -> int:
    """s_σ(g): the sign of the standard labelling of g with every box i
    renamed σ(i) on both sides, as a labelling of the renamed graph σg.
    ``sigma[i - 1]`` is σ(i) - 1: the boxes are numbered from 1 in the
    labelling and from 0 in ``sigma``."""
    return labelling_sign([(sigma[i - 1], sigma[j - 1]) for i, j in g.standard_labelling()])


def anti_involution(x: GradedElement) -> GradedElement:
    """The algebra anti-involution: even symbols reflect, odd symbols reflect
    and pick up :func:`iota_sign`."""
    f = x.field
    out: Dict[BasisSymbol, Scalar] = {}
    for sym, c in x.terms.items():
        if sym.is_odd:
            sign = iota_sign(sym.graph)
            out[zeta(sym.graph.star())] = f.mul(f.from_int(sign), c)
        else:
            out[xi(sym.graph.star())] = c
    return GradedElement(x.n, x.d, f, out)


# -- structural diagnostics ----------------------------------------------------


@dataclass
class CheckReport:
    ok: bool
    failures: List[str]

    def __bool__(self) -> bool:
        return self.ok


def factorization_check(g: BipartiteGraph) -> CheckReport:
    """Verify the three product factorizations of the odd symbol of ``g``.

    With D = d_of(g), U = u_of(g) and the diagonal matching graph on the
    first d lower vertices, the odd symbol of g must equal

      1. xi(U) * zeta(matching) * xi(D)
      2. zeta(U) * xi(D)
      3. xi(U) * zeta(D)

    Requires a square simple graph with n >= d.
    """
    if not g.is_simple():
        raise ValueError("factorization_check applies to simple graphs")
    n, d = g.n_up, g.degree
    dg, ug = d_of(g), u_of(g)
    matching = gamma_lambda((1,) * d, n)
    expected = {zeta(g): 1}
    candidates = [
        ("xi(U)*zeta(matching)*xi(D)", product_int(product_int({xi(ug): 1}, {zeta(matching): 1}), {xi(dg): 1})),
        ("zeta(U)*xi(D)", product_int({zeta(ug): 1}, {xi(dg): 1})),
        ("xi(U)*zeta(D)", product_int({xi(ug): 1}, {zeta(dg): 1})),
    ]
    failures = [
        f"{name} = {sorted((str(s), c) for s, c in got.items())}, expected zeta{g}"
        for name, got in candidates
        if got != expected
    ]
    return CheckReport(not failures, failures)


def delta_checks(graphs: Iterable[BipartiteGraph]) -> Iterator[CheckReport]:
    """:func:`delta_check` of each graph in turn, lazily.

    The probe ζ(d_of(g)*) depends only on the upper degrees of g, since the
    standard labelling lists the edges by upper endpoint first.  So the
    products ξ_{g'} · probe over every g' ∈ M(n, d) are convolved once per
    probe, when a graph first needs it, and each graph of that probe reads
    its coefficients at ζ(u_of(g)) from them.
    """
    # (n, d, upper degrees) -> {graph of a target: [(index of g', coeff)]}
    columns: Dict[Tuple[int, int, Margin], Dict[BipartiteGraph, List[Tuple[int, int]]]] = {}
    for g in graphs:
        n, d = g.n_up, g.degree
        probe = zeta(d_of(g).star())
        key = (n, d, g.upper_degrees)
        if key not in columns:
            column: Dict[BipartiteGraph, List[Tuple[int, int]]] = {}
            for k, other in enumerate(_symbols(n, d)[0]):
                for s, c in structure_constants(other, probe).items():
                    column.setdefault(s.graph, []).append((k, c))
            columns[key] = column
        i = graph_index("M", n, d)[g]
        coeffs = dict(columns[key].get(u_of(g), ()))
        coeffs.setdefault(i, 0)
        Ms = enum_M(n, d)
        failures = [
            f"coefficient at g'={Ms[k]} is {c}, expected {int(k == i)}"
            for k, c in sorted(coeffs.items())
            if c != int(k == i)
        ]
        yield CheckReport(not failures, failures)


def delta_check(g: BipartiteGraph) -> CheckReport:
    """Verify that only ``g`` itself hits zeta(u_of(g)) against zeta(d_of(g)*).

    For every multigraph g' with the same parameters, the coefficient of
    zeta(u_of(g)) in xi(g') * zeta(d_of(g).star()) must be 1 when g' = g and
    0 otherwise.  d_of(g) depends only on the upper degrees of g, and a run
    of :func:`delta_checks` over a whole cell convolves each product
    ξ_{g'} · ζ(d_of(g)*) once; this is its one-graph case.  Requires a
    square graph with n >= d.
    """
    return next(delta_checks([g]))


def rect_compose(g1: BipartiteGraph, g2: BipartiteGraph) -> Dict[BipartiteGraph, int]:
    """Even rectangular composition: g1 on [m]'+[l] after g2 on [n]'+[m].

    Same convolution as the square case; targets live on [n]' + [l].
    """
    return convolve(g1, g2, False, False)


# -- index-keyed integer tables (cached per (n, d)) ------------------------------

Margin = Tuple[int, ...]
IntTable = Tuple[Dict[int, Dict[int, int]], ...]


@lru_cache(maxsize=None)
def _symbols(n: int, d: int) -> Tuple[Tuple[BasisSymbol, ...], Tuple[BasisSymbol, ...]]:
    """ξ_g per even index (enum_M order) and ζ_a per odd index (enum_N order)."""
    return tuple(map(xi, enum_M(n, d))), tuple(map(zeta, enum_N(n, d)))


def all_symbols(n: int, d: int) -> List[BasisSymbol]:
    """The canonical basis listing: even symbols first, then odd."""
    evens, odds = _symbols(n, d)
    return [*evens, *odds]


@lru_cache(maxsize=None)
def _odd_margins(n: int, d: int) -> Tuple[Tuple[Margin, ...], Tuple[Margin, ...]]:
    """Lower and upper degree sequences of every odd symbol, in enum_N order."""
    Ns = enum_N(n, d)
    return tuple(a.lower_degrees for a in Ns), tuple(a.upper_degrees for a in Ns)


def _positions(keys: Iterable[Margin]) -> Dict[Margin, List[int]]:
    """Indices grouped by key, increasing within each group."""
    out: Dict[Margin, List[int]] = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


@lru_cache(maxsize=None)
def _relabellings(n: int, d: int) -> Tuple[Tuple[List[int], List[int], List[int]], ...]:
    """Per σ ∈ S_n: the index of σg per even index, the index of σa per odd
    index, and s_σ(a) = :func:`relabel_sign` per odd index.

    Only the adjacent transpositions τ are relabelled graph by graph; every
    other σ is reached as τ∘ρ, with (τρ)g = τ(ρg) and s_{τρ}(a) = s_τ(ρa) s_ρ(a)."""
    Ms, Ns = enum_M(n, d), enum_N(n, d)
    m_idx = {g.adj: k for k, g in enumerate(Ms)}
    n_idx = {a.adj: k for k, a in enumerate(Ns)}

    def moved(g: BipartiteGraph, tau: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
        # τ is an involution, so it is its own inverse
        return tuple(tuple(g.adj[tau[i]][tau[j]] for j in range(n)) for i in range(n))

    steps = []
    for k in range(n - 1):
        tau = tuple(k + 1 if i == k else k if i == k + 1 else i for i in range(n))
        gmap, amap = [m_idx[moved(g, tau)] for g in Ms], [n_idx[moved(a, tau)] for a in Ns]
        steps.append((tau, gmap, amap, [relabel_sign(a, tau) for a in Ns]))
    found = {tuple(range(n)): (list(range(len(Ms))), list(range(len(Ns))), [1] * len(Ns))}
    frontier = list(found)
    while frontier:
        nxt = []
        for rho in frontier:
            gmap, amap, sign = found[rho]
            for tau, tg, ta, ts in steps:
                key = tuple(tau[i] for i in rho)
                if key not in found:
                    found[key] = ([tg[g] for g in gmap], [ta[a] for a in amap], [ts[b] * s for b, s in zip(amap, sign)])
                    nxt.append(key)
        frontier = nxt
    return tuple(found.values())


@lru_cache(maxsize=None)
def _left_dicts(n: int, d: int) -> IntTable:
    """Per even index g: {a: {c: coeff of ζ_c in ξ_g ζ_a}} over odd indices.

    One margin-matched pair (g, a) per S_n-orbit is convolved; the others
    are filled by the box-relabelling identity (see the module docstring)."""
    evens, odds = _symbols(n, d)
    n_idx = graph_index("N", n, d)
    by_lower = _positions(_odd_margins(n, d)[0])
    moves = _relabellings(n, d)
    zero: Dict[int, int] = {}  # marks a pair whose product vanishes
    out: List[Dict[int, Dict[int, int]]] = [{} for _ in evens]
    for g, x in enumerate(evens):
        for a in by_lower.get(x.graph.upper_degrees, ()):
            if a in out[g]:
                continue  # filled from its orbit's representative
            col = {n_idx[s.graph]: c for s, c in structure_constants(x, odds[a]).items()}
            for gmap, amap, sign in moves:
                sa = sign[a]
                out[gmap[g]][amap[a]] = {amap[c]: sa * sign[c] * v for c, v in col.items()} if col else zero
    return tuple({a: per[a] for a in sorted(per) if per[a]} for per in out)


@lru_cache(maxsize=None)
def _even_dicts(n: int, d: int) -> IntTable:
    """Per even index g: {h: {k: coeff of ξ_k in ξ_g ξ_h}} over even indices.

    One margin-matched pair (g, h) per S_n × ⟨ι⟩-orbit is convolved; the
    others are filled by box relabelling and by ι (see the module docstring)."""
    evens = _symbols(n, d)[0]
    m_idx = graph_index("M", n, d)
    by_lower = _positions(x.graph.lower_degrees for x in evens)
    gstar = _iota_indices(n, d)[0]
    out: List[Dict[int, Dict[int, int]]] = [{} for _ in evens]
    for g, x in enumerate(evens):
        for h in by_lower.get(x.graph.upper_degrees, ()):
            if h in out[g]:
                continue  # filled from its orbit's representative
            col = {m_idx[s.graph]: c for s, c in structure_constants(x, evens[h]).items()}
            for gmap, _, _ in _relabellings(n, d):
                image = {gmap[k]: v for k, v in col.items()}
                out[gmap[g]][gmap[h]] = image
                out[gstar[gmap[h]]][gstar[gmap[g]]] = {gstar[k]: v for k, v in image.items()}
    return tuple({h: per[h] for h in sorted(per) if per[h]} for per in out)


@lru_cache(maxsize=None)
def _iota_indices(n: int, d: int) -> Tuple[List[int], List[int], List[int]]:
    """The anti-involution ι on indices: g* per even index, a* per odd index,
    and s_a = ``iota_sign(a)`` per odd index (s_{a*} = s_a as ι² = id)."""
    m_idx, n_idx = graph_index("M", n, d), graph_index("N", n, d)
    Ns = enum_N(n, d)
    return [m_idx[g.star()] for g in enum_M(n, d)], [n_idx[a.star()] for a in Ns], [iota_sign(a) for a in Ns]


@lru_cache(maxsize=None)
def _right_dicts(n: int, d: int) -> IntTable:
    """Per even index g: {a: {c: coeff of ζ_c in ζ_a ξ_g}} over odd indices,
    mirrored from :func:`_left_dicts`: the coefficient is s_a s_c times that
    of ζ_{c*} in ξ_{g*} ζ_{a*}."""
    gstar, star, sign = _iota_indices(n, d)
    left = _left_dicts(n, d)
    return tuple(
        {star[a]: {star[c]: sign[a] * sign[c] * v for c, v in col.items()} for a, col in left[gs].items()}
        for gs in gstar
    )


@lru_cache(maxsize=None)
def _odd_dicts(n: int, d: int) -> IntTable:
    """Per odd index a: {b: {h: coeff of ξ_h in ζ_a ζ_b}}, read off
    :func:`_left_dicts` by the trace form: the coefficient is s_b · h! times
    that of ζ_{b*} in ξ_{h*} ζ_a, with h! = Π h_ij!."""
    gstar, star, sign = _iota_indices(n, d)
    left = _left_dicts(n, d)
    out: List[Dict[int, Dict[int, int]]] = [{} for _ in star]
    for h, g in enumerate(enum_M(n, d)):
        fact = lambda_factorial([x for row in g.adj for x in row])
        for a, col in left[gstar[h]].items():
            for c, v in col.items():
                out[a].setdefault(star[c], {})[h] = sign[c] * fact * v
    return tuple(out)


def _product(n: int, d: int, i: int, left_odd: bool, j: int, right_odd: bool) -> Dict[int, int]:
    """The product of the i-th and the j-th basis symbol of the given
    parities, as {k: integer coefficient of the k-th basis symbol of the
    product's parity}.  Read-only: every product is read off a cached table."""
    if left_odd and right_odd:
        return _odd_dicts(n, d)[i].get(j, {})
    if left_odd:
        return _right_dicts(n, d)[j].get(i, {})
    if right_odd:
        return _left_dicts(n, d)[i].get(j, {})
    return _even_dicts(n, d)[i].get(j, {})


# -- the product table and its file --------------------------------------------

Pair = Tuple[BasisSymbol, BasisSymbol]
Terms = Dict[BasisSymbol, int]

_SAVE_BATCH = 1024  # entries per write in save_table


def build_table(n: int, d: int, cap: int | None = None) -> Dict[Pair, Terms]:
    """Every nonzero product of two basis symbols at (n, d), as
    {(a, b): {symbol: integer coefficient}}; a pair with a zero product is
    absent.

    A product vanishes unless the upper degree sequence of the left graph
    equals the lower degree sequence of the right one (the weight idempotents
    are orthogonal), so only those pairs are read, through :func:`_product`.
    """
    check_basis_budget(n, d, cap)
    syms = _symbols(n, d)
    table: Dict[Pair, Terms] = {}
    for left_odd, right_odd in itertools.product((False, True), repeat=2):
        right, target = syms[right_odd], syms[left_odd != right_odd]
        by_lower = _positions(b.graph.lower_degrees for b in right)
        for i, a in enumerate(syms[left_odd]):
            for j in by_lower.get(a.graph.upper_degrees, ()):
                terms = _product(n, d, i, left_odd, j, right_odd)
                if terms:
                    table[a, right[j]] = {target[k]: c for k, c in terms.items()}
    return table


def save_table(table: Dict[Pair, Terms], n: int, d: int, path: str) -> None:
    """Write ``table`` (as from :func:`build_table`) as canonical JSON.

    Entries are sorted by (left, right) and terms by symbol, both in
    ``sort_key`` order.  The text is streamed into a temporary file in the
    target directory, a batch of entries per write, and the file is renamed
    into place: ``path`` either holds a complete table or does not exist.
    """
    # each symbol is ranked and formatted once; the text is what json.dumps
    # writes with sort_keys=True and separators (",", ":")
    syms = sorted({s for pair, terms in table.items() for s in (*pair, *terms)}, key=BasisSymbol.sort_key)
    rank = {s: r for r, s in enumerate(syms)}
    frag = [json.dumps(s.to_json_dict(), separators=(",", ":"), sort_keys=True) for s in syms]
    order = sorted(table, key=lambda pair: rank[pair[0]] * len(syms) + rank[pair[1]])

    def entry(a: BasisSymbol, b: BasisSymbol) -> str:
        terms = ",".join(f"[{frag[r]},{c}]" for r, c in sorted((rank[s], c) for s, c in table[a, b].items()))
        return f'{{"left":{frag[rank[a]]},"right":{frag[rank[b]]},"terms":[{terms}]}}'

    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(f'{{"d":{d},"entries":[')
            for start in range(0, len(order), _SAVE_BATCH):
                batch = ",".join(entry(a, b) for a, b in order[start : start + _SAVE_BATCH])
                fh.write(f",{batch}" if start else batch)
            fh.write(f'],"n":{n}}}')
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _refuse_float(text: str) -> float:
    raise ValueError(f"{text} is not an integer")


def load_table(path: str) -> Tuple[int, int, Dict[Pair, Terms]]:
    """Read a table written by :func:`save_table`: its (n, d) and the pairs
    it lists with nonzero terms.

    The basis is not enumerated here, so a caller can compare the file's
    (n, d) with the one it wants at once.  Symbols are interned while the
    JSON is parsed: every record of one symbol becomes the same
    :class:`BasisSymbol`, so the parsed tree and the table hold one object
    per distinct symbol, not one per record.

    Raises ``ValueError`` when a required key is missing or mistyped, when
    the file holds a JSON true, false or float anywhere, when a coefficient
    is not an integer, when the file names a symbol outside the basis at
    its own (n, d), when it lists a (left, right) pair twice or a term twice
    in one entry, when a pair's margins do not match (the left graph's upper
    degrees against the right one's lower degrees), or when a term's parity
    is not the product's (odd exactly when one factor is odd).
    """
    # json.loads and the records loop allocate hundreds of thousands of
    # containers, none of them in a cycle: collecting while they run only
    # costs time, and pausing json.loads alone defers that cost to the loop
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        # save_table writes no JSON true, false or float, and parsed they
        # compare equal to ints (True == 1.0 == 1): the symbol memo below
        # would take them for an int matrix it has seen
        if "true" in text or "false" in text:
            raise ValueError("a JSON true or false is not an integer")
        symbols: Dict[tuple, BasisSymbol] = {}  # (parity, adj as tuples) -> symbol

        def intern(obj: dict) -> object:
            if "parity" not in obj and "adj" not in obj:
                return obj
            key = (obj["parity"], tuple(map(tuple, obj["adj"])))
            sym = symbols.get(key)
            if sym is None:
                try:
                    sym = symbols[key] = BasisSymbol.from_json_dict(obj)
                except ValueError as exc:
                    raise ValueError(f"symbol {obj} is not in the basis: {exc}") from None
            return sym

        try:
            data = json.loads(text, parse_float=_refuse_float, object_hook=intern)
            del text
            n, d, records = data["n"], data["d"], data["entries"]
            if not (type(n) is int and type(d) is int and n >= 1 and d >= 0):
                raise ValueError(f"(n, d) = ({n!r}, {d!r}) is not a pair of parameters")
            # n follows the entries in the file: membership is checked once
            # per distinct symbol, after the parse
            for sym in symbols.values():
                if sym.n != n or sym.d != d:
                    raise ValueError(f"symbol {sym.to_json_dict()} is not in the basis at (n,d)=({n},{d})")
            table: Dict[Pair, Terms] = {}
            empty = []  # the pairs listed with no terms, which the table omits
            for rec in records:
                a, b, listed = rec["left"], rec["right"], rec["terms"]
                if type(a) is not BasisSymbol or type(b) is not BasisSymbol:
                    raise TypeError(f"entry {rec} does not name two symbols")
                if a.graph.upper_degrees != b.graph.lower_degrees:
                    raise ValueError(f"pair ({a}, {b}) has unmatched margins, so its product is zero")
                parity = "even" if a.parity == b.parity else "odd"
                terms = {}
                for s, c in listed:
                    if type(c) is not int:
                        raise ValueError(f"coefficient {c!r} is not an integer")
                    if type(s) is not BasisSymbol:
                        raise TypeError(f"term {s!r} is not a symbol")
                    if s.parity != parity:
                        raise ValueError(f"term {s} of ({a}, {b}) is not {parity}")
                    terms[s] = c
                if len(terms) != len(listed):
                    raise ValueError(f"pair ({a}, {b}) lists a term twice")
                if table.setdefault((a, b), terms) is not terms:
                    raise ValueError(f"pair ({a}, {b}) is listed twice")
                if not terms:
                    empty.append((a, b))
            for pair in empty:
                del table[pair]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"missing or mistyped field: {exc!r}") from exc
    finally:
        if gc_was_enabled:
            gc.enable()
    return n, d, table
