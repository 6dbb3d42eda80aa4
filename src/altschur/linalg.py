"""Exact sparse linear algebra over a :class:`~altschur.fields.FieldSpec`.

A linear map is a list of sparse columns: column i is the image of basis
vector i, a zero-free :data:`SparseVec` with keys in increasing order.
:func:`add_scaled`, :func:`combine` and :func:`compose` apply and compose
maps in that form.  :class:`ExactMatrix` is only the dense report form of a
map (eta, hom spaces, isomorphism witnesses) and its rank.

There is one elimination core, :class:`SparseEchelon`: dict-keyed rows,
forward reduction only, the smallest key of a row as its pivot.  Everything
else is built on it: the rank of an :class:`ExactMatrix`, the fully reduced
form :func:`rref_sparse` (a unit pass, then the echelon and
back-substitution), the kernels of :func:`sparse_kernel` and the quotients
of :class:`QuotientSpace`.  Hom spaces are kernels: :mod:`altschur.koszul`
writes their defining relations as rows and reads coordinates in them off
the canonical kernel basis.

Everything here is deterministic: rows are reduced in their given order, so
ranks, kernels and reduced forms are reproducible across runs and platforms.
Scalars are raw values (``Fraction`` over Q, canonical ints over GF(p));
:func:`rref_sparse` also takes GF(p) entries outside ``range(p)`` and
reduces them first.  The large, redundant relation systems of phi and psi
in :mod:`altschur.koszul` are split into their weight-space blocks by the
caller and run one small echelon per block.  The quotient behind D and the
hom-space kernels run one :func:`rref_sparse` over the weight-matched
coordinates of their tensor space, numbered in increasing order, so the
idempotents' relations never reach it.  Its unit pass takes out the rows
that are left with one entry and the cascades they start (a third of the
pivots of D on the regular module at (3,4)), so the echelon sees only the
coordinates those rows leave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .fields import FieldSpec, Scalar

__all__ = [
    "ExactMatrix",
    "SparseVec",
    "add_scaled",
    "combine",
    "compose",
    "SparseEchelon",
    "QuotientSpace",
    "rref_sparse",
    "sparse_kernel",
]

SparseVec = Dict[int, Scalar]


@dataclass
class ExactMatrix:
    """A dense matrix with exact entries over a fixed field: the report form
    of a linear map (eta, hom spaces, isomorphism witnesses).

    ``ncols`` is stored, so a matrix without rows keeps its column count.
    """

    field: FieldSpec
    rows: List[List[Scalar]]
    ncols: int = -1

    def __post_init__(self) -> None:
        if self.ncols < 0:
            self.ncols = len(self.rows[0]) if self.rows else 0

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "ExactMatrix":
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence[int]]) -> "ExactMatrix":
        """Build from integer (or already-exact) entries, coercing into the field."""
        return cls(field, [[field.from_int(x) if isinstance(x, int) else x for x in row] for row in rows])

    @classmethod
    def from_columns(cls, field: FieldSpec, cols: Sequence[SparseVec], nrows: int) -> "ExactMatrix":
        """The dense form of a list of sparse columns with ``nrows`` rows."""
        z = field.zero
        return cls(field, [[col.get(i, z) for col in cols] for i in range(nrows)], len(cols))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    def rank(self) -> int:
        """Rank by forward elimination of the non-zero entries of each row."""
        ech = SparseEchelon(self.field)
        for row in self.rows:
            ech.add_row({j: x for j, x in enumerate(row) if x})
        return ech.rank


def add_scaled(acc: SparseVec, coef: Scalar, vec: SparseVec, field: FieldSpec) -> None:
    """``acc += coef * vec`` in place; entries that cancel are removed."""
    p = field.p
    for k, v in vec.items():
        new = acc.get(k, 0) + coef * v
        if p:
            new %= p
        if new:
            acc[k] = new
        else:
            acc.pop(k, None)


def combine(columns: Sequence[SparseVec], coeffs: SparseVec, field: FieldSpec) -> SparseVec:
    """``sum_r coeffs[r] * columns[r]``: the image of the vector ``coeffs``
    under the map with these columns, zero-free, keys in increasing order."""
    acc: SparseVec = {}
    for r, c in coeffs.items():
        add_scaled(acc, c, columns[r], field)
    return dict(sorted(acc.items()))


def compose(left: Sequence[SparseVec], right: Sequence[SparseVec], field: FieldSpec) -> List[SparseVec]:
    """Columns of ``left`` after ``right``: column k is ``right[k]`` mapped by ``left``."""
    return [combine(left, col, field) for col in right]


class SparseEchelon:
    """Incremental forward elimination on sparse rows over an exact field.

    Rows are dicts mapping coordinate to scalar.  Each incoming row is reduced
    against the stored pivot rows (leading coordinate = smallest key); if
    anything survives it is normalized to leading coefficient 1 and kept.  Only
    forward reduction is performed, which keeps stored rows sparse; use
    :func:`sparse_kernel` when an actual kernel basis is required.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.pivot_rows: Dict[int, SparseVec] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: SparseVec) -> SparseVec:
        """Return the residue of ``row`` after elimination (not stored)."""
        # field arithmetic inlined: this loop carries every large elimination
        p, zero = self.field.p, self.field.zero
        pivot_rows = self.pivot_rows
        row = {k: v for k, v in row.items() if v}
        while row:
            lead = min(row)
            prow = pivot_rows.get(lead)
            if prow is None:
                return row
            coef = row[lead]
            for k, v in prow.items():
                new = row.get(k, zero) - coef * v
                if p:
                    new %= p
                if new:
                    row[k] = new
                else:
                    row.pop(k, None)
        return row

    def add_row(self, row: SparseVec) -> bool:
        """Reduce and store ``row``; True if it increased the rank."""
        residue = self.reduce(row)
        if not residue:
            return False
        f = self.field
        lead = min(residue)
        inv = f.inv(residue[lead])
        self.pivot_rows[lead] = {k: f.mul(inv, v) for k, v in residue.items()}
        return True


def rref_sparse(rows: Iterable[SparseVec], field: FieldSpec) -> Dict[int, SparseVec]:
    """Fully reduced sparse echelon: pivot -> row, each row clear of all other
    pivots, leading coefficient 1.  The span of the rows is preserved.

    A unit pass runs before the echelon.  The rows are read once, every row
    through one filter: each entry is reduced into the field, zeros and the
    coordinates already known dead are dropped, and a row left with one
    entry {k: c} puts e_k in the span, so it marks k dead and is not
    stored.  Only the rows left with two or more entries are kept.  The same filter runs over them again until no
    new one-entry row appears (the cascade), at the end and whenever they
    have doubled since the last cascade, so that rows which a later unit row
    shrinks away are not held to the end.  What is left goes through
    :class:`SparseEchelon` and back-substitution, and each dead k adds the
    row {k: 1}.  The span is the dead unit vectors plus the kept rows with
    their dead coordinates dropped, so this is the reduced row echelon form
    of the rows, which is unique: the pivots and rows do not depend on the
    unit pass, only the key order inside the returned dicts, which is not
    promised.
    """
    f = field
    p = f.p
    dead: set = set()
    kept: List[SparseVec] = []

    def keep(row: SparseVec) -> None:
        # a row left with one entry kills its coordinate; one with more is kept
        if len(row) == 1:
            dead.update(row)
        elif row:
            kept.append(row)

    def cascade() -> None:
        # drop what was killed after a row was kept, until a pass kills nothing
        nonlocal kept
        seen = -1
        while seen != len(dead):
            seen, old, kept = len(dead), kept, []
            for row in old:
                for k in dead.intersection(row):
                    del row[k]
                keep(row)

    bound = 1
    for row in rows:
        if p:
            keep({k: v % p for k, v in row.items() if v % p and k not in dead})
        else:
            keep({k: v for k, v in row.items() if v and k not in dead})
        if len(kept) >= bound:  # at most twice the rows the last cascade left
            cascade()
            bound = 2 * len(kept) + 1
    cascade()
    ech = SparseEchelon(f)
    for row in kept:
        ech.add_row(row)
    del kept  # the echelon holds its own rows; free these before back-substitution
    reduced = ech.pivot_rows
    for lead in sorted(reduced, reverse=True):
        row = reduced[lead]
        for q in list(row):
            if q != lead and q in reduced:
                add_scaled(row, f.neg(row[q]), reduced[q], f)
    for k in dead:
        reduced[k] = {k: f.one}
    return reduced


def sparse_kernel(rows: Iterable[SparseVec], ncols: int, field: FieldSpec) -> List[SparseVec]:
    """Kernel basis of a sparse row system: all v with ``sum(row[j]*v[j]) == 0``.

    Returns sparse vectors, one per free column in increasing column order
    (free coordinate 1).  Columns never touched by any row are free and yield
    unit vectors, so the vectors stay sparse when the system only constrains
    a small corner of a huge space.

    The basis is canonical: a pivot is the smallest key of its reduced row,
    so the largest key of each vector is its free column, where it is 1 and
    every other vector is 0.  The basis depends only on the kernel, not on
    the rows that cut it out, and the coordinates of a kernel element are
    its values at those largest keys.

    The rows go through :func:`rref_sparse`, whose unit pass kills the
    coordinate of every one-entry row before the echelon; such a coordinate
    is a pivot whose reduced row is its unit vector, so it is 0 in every
    vector.  The reduced
    echelon form is unique, so the vectors are the same as those of a plain
    echelon, entry for entry; the key order inside each vector is not
    promised.
    """
    f = field
    reduced = rref_sparse(rows, f)
    # invert: for each free column, which pivot rows mention it
    col_uses: Dict[int, List[Tuple[int, Scalar]]] = {}
    for p, row in reduced.items():
        for k, v in row.items():
            if k != p:
                col_uses.setdefault(k, []).append((p, v))
    basis: List[SparseVec] = []
    for free in range(ncols):
        if free in reduced:
            continue
        v: SparseVec = {free: f.one}
        for p, coef in col_uses.get(free, ()):
            v[p] = f.neg(coef)
        basis.append(v)
    return basis


class QuotientSpace:
    """Ambient space modulo the span of relation rows, with explicit lifts.

    The quotient basis is the set of non-pivot coordinates of the reduced
    relation system, in increasing order, so every basis vector lifts to a
    unit vector of the ambient space.  :meth:`project` rewrites an ambient
    sparse vector in quotient coordinates.

    The relations are reduced by :func:`rref_sparse`, whose unit pass takes
    each relation that kills a coordinate outright out before the
    echelon.  The reduced echelon form is
    unique, so ``pivot_rows``, ``basis_coords`` and every projection are
    those of a plain echelon; the key order inside ``pivot_rows`` and its
    rows is not promised.
    """

    def __init__(self, field: FieldSpec, ambient_dim: int, relations: Iterable[SparseVec]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivot_rows = rref_sparse(relations, field)
        pivot_set = set(self.pivot_rows)
        self.basis_coords: List[int] = [c for c in range(ambient_dim) if c not in pivot_set]
        self._pos = {c: k for k, c in enumerate(self.basis_coords)}

    @property
    def dim(self) -> int:
        return len(self.basis_coords)

    def project(self, vec: SparseVec) -> SparseVec:
        """Quotient coordinates of an ambient vector: a zero-free sparse
        vector over basis positions, keys in increasing order."""
        p, pos = self.field.p, self._pos
        acc: SparseVec = {}
        for coord, val in vec.items():
            prow = self.pivot_rows.get(coord)
            if prow is None:
                k = pos[coord]
                acc[k] = acc.get(k, 0) + val
                continue
            # coord == -sum of the row's free entries
            for c2, v2 in prow.items():
                if c2 != coord:
                    k = pos[c2]
                    acc[k] = acc.get(k, 0) - val * v2
        out: SparseVec = {}
        for k in sorted(acc):
            x = acc[k] % p if p else acc[k]
            if x:
                out[k] = x
        return out

    def lift(self, k: int) -> SparseVec:
        """Ambient unit vector representing quotient basis vector ``k``."""
        return {self.basis_coords[k]: self.field.one}
