"""Duality diagnostics for the alternating Schur algebra.

The odd component S⁻ is an (S,S)-bimodule; tensoring with it over S defines
a functor D on finite-dimensional S-modules.  This module computes, in
exact arithmetic:

* ``phi_analysis``: rank and isomorphy of the multiplication map
  S⁻ ⊗_S S⁻ → S.
* ``psi_analysis``: kernel and image of the map S → End_S(S⁻) given by left
  multiplication, against the exact commutant of the right action.
* ``koszul_dual`` / ``eta_map`` / ``ringel_dual``: the functor D, the natural
  map D² → id, and Hom_S(S⁻, −).
* the equivalence between modules over the whole algebra and pairs (M, θ)
  of an S-module with a compatible map θ: D(M) → M.

Products are read from the integer tables of :mod:`altschur.algebra`, which
stores S⁻ once, as the table of its left action, and reads every other
product with an odd factor off it, one product at a time.  Single products
go through the index-keyed accessor ``_product``; the relation loops read
the tables at the generators only, and the right action is mirrored from
the left table there alone (``_generator_mirrors``).  The blocks of phi and
of psi's commutant, D, the hom
spaces and the Ringel dual are each a tensor product ``_Tensor``, whose one
loop imposes the relations ρ(g) = (x ξ_g) ⊗ y − x ⊗ (ξ_g y) from the tables
and indices each passes it.  A hom space Hom_S(B, A) is the
kernel of the rows A_g V − V B_g, with A_g read by rows as x ↦ x ξ_g and B_g
by columns, and the Ringel dual is Hom_S(S⁻, M) with S⁻ acting on the
right by precomposition.  ρ(g) is imposed only for the generators of
S(n, d): the divided powers E_i^(r) 1_λ and F_i^(r) 1_λ, which are the ξ_g
whose one off-diagonal entry sits at (i, i±1), and the idempotents 1_λ
(Doty–Giaquinto, *Presenting Schur algebras*, IMRN 2002; Green, LNM 830,
section 2).  That suffices: ρ is linear in g and

    ρ_{gh}(x, y) = ρ_h(x ξ_g, y) + ρ_g(x, ξ_h y),

so the relations of products of generators lie in the span of the
generators' relations over all (x, y), and the products of generators span
S(n, d) over Z.  For the same reason module maps need to commute only with
the generators.

Every linear map a module carries (the even and odd actions, θ, the actions
built by D and by Hom_S(S⁻, −), S⁻ itself) is a list of sparse columns:
column i is the image of basis vector i, a zero-free dict {row: scalar} with
rows in increasing order.  Dense :class:`~altschur.linalg.ExactMatrix`
values appear only as reports (eta, hom spaces, isomorphism witnesses).

The diagonal idempotents e_λ = ξ(γ0_λ) sum to the identity, so the systems
behind phi and psi split into weight-space blocks keyed by a pair of
compositions (λ, μ), and each block is a tensor product of its own.  Block
(λ, μ) of phi is (1_λ S⁻) ⊗_S (S⁻ 1_μ): the ζ_a with lower(a) = λ tensored
with the ζ_b with upper(b) = μ.  Block (λ, μ) of psi's commutant, the
entries θ[c, a] with lower(c) = λ and lower(a) = μ, is the same kind of
system, with the ζ_a with lower(a) = μ under the right action on one side
and the ζ_c with lower(c) = λ under its transpose on the other.  Each block
is built as one ``_Tensor`` from the odd indices of its two sides and solved
by one :class:`~altschur.linalg.SparseEchelon`, which stops taking rows once
its rank reaches the bound set by the image of the map under study.  The
relation rows hold the tables' integers as they are: the echelon reduces
each row into its field.

phi's image is read off the left action as well.  By the trace form
(:mod:`altschur.algebra`) the coefficient of ξ_h in ζ_a ζ_b is s_b · h!
times that of ζ_{b*} in ξ_{h*} ζ_a.  h ↦ h* maps the even symbols of block
(λ, μ) onto those of block (μ, λ) with h! = (h*)!, and neither the signs
s_b nor the renaming b ↔ b* changes a rank.  So the image on block (λ, μ)
is the rank over the field of the left-action columns
{(a, c): coefficient of ζ_c in ξ_g ζ_a} of the ξ_g in block (μ, λ) with
g! ≠ 0 in the field: the matrix that psi's kernel reads, on those g.  phi
reads no ζ·ζ product.  ι maps block (λ, μ) onto (μ, λ) with the
same image, so the columns of block (λ, μ) give the same ranks; the
direction the trace form gives is kept, but no rank checks it.

D, η, the (M, θ) equivalence, the hom spaces and the Ringel dual work on
bases of weight vectors, which the stock modules and D(M) have (the weight
spaces of Green, LNM 830): x 1_λ is x or 0 and so is 1_λ y, so ρ(1_λ) on
x ⊗ y is zero or kills x ⊗ y, and it kills it exactly when the weights of x
and y differ.  Since S = ⊕ e_λ S e_μ, ρ(g) of any other generator g on x ⊗ y is
zero unless x has weight lower(g) or y has weight upper(g), and on the pairs
that have only one of the two it lies in the span of the killed coordinates.
So ``_Tensor`` numbers only the weight-matched pairs (x, y), in increasing
order, and generates ρ(g) only for the generators other than the 1_λ, on the
pairs with x of weight lower(g) and y of weight upper(g).  For D of the
regular module at (3,2) that is 297 of the 1,620 coordinates and 720 rows,
where the whole ambient space has 10,098 rows, 8,658 of them ρ(1_λ).  The
numbering is monotone, so the one :func:`~altschur.linalg.rref_sparse` each
system runs, and the quotient basis, projections and kernel vectors read off
it, are those of the whole-ambient system with the killed coordinates left
out.  The weights are read off the 1_λ of each module once, and a basis that
is not one of weight vectors is refused (``_weights``).

Renaming the boxes by σ ∈ S_n is an automorphism of the algebra: it sends
ξ_g to ξ_{σg} and ζ_a to s_σ(a) ζ_{σa} (:mod:`altschur.algebra`).  So σ maps
block (λ, μ) of phi's tensor quotient, of psi's commutant and of psi's
kernel onto block (σλ, σμ), with the same size, relation rank and image.
For phi the anti-involution ι acts too: x ⊗ y ↦ ι(y) ⊗ ι(x) is well defined
on S⁻ ⊗_S S⁻, since it maps ρ_g(x, y) to −ρ_{g*}(ι(y), ι(x)), and it maps
block (λ, μ) onto (μ, λ).  psi uses S_n alone: ι turns the commutant of the
right action into that of the left one, a different system.  Two keys lie
in one S_n-orbit exactly when they have the same multiset of columns
(λ_i, μ_i).  So phi and psi solve one representative block per orbit and
count it once for every block of its orbit.  The keys and the orbit sizes
are read off the distinct margins (lower, upper) of the odd symbols, and
only the representatives' tensors are built, so no coordinate of another
block is ever numbered: at (3,4) phi numbers 366 and psi 504 of the 2,484
coordinates of each system.  psi's kernel vectors also need the other
blocks of each orbit whose representative has a non-zero kernel; those are
solved directly.

phi and psi share one rank path, ``_certified_dim``.  Over GF(p) it
eliminates mod p.  Over Q it eliminates mod a large prime p first, on every
cell.  Ranks of integer matrices only drop mod p, so on every block the
image of the map and the relation quotient satisfy

    image_p ≤ image_Q ≤ quotient_Q ≤ quotient_p,

and when the outer two meet, all four are equal and the mod-p answer is the
rational one.  Otherwise it eliminates over Q.  Every module axiom
(the even action, the mixed parity products, the square of θ) goes through
one product check, ``_check_products``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field as dataclass_field, InitVar
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .fields import FieldSpec, GF, Scalar
from .linalg import (
    ExactMatrix,
    QuotientSpace,
    SparseEchelon,
    SparseVec,
    add_scaled,
    combine,
    compose,
    sparse_kernel,
)
from .graphs import gamma0_lambda
from .enumeration import check_basis_budget, enum_Lambda, enum_M, enum_N, graph_index
from .algebra import GradedElement, Margin, _even_blocks, _left_dicts, _odd_margins, _positions, _product, xi
from .algebra import _right_action

__all__ = [
    "SModule",
    "ASModule",
    "ThetaPair",
    "IncompatibleTheta",
    "PhiReport",
    "PsiReport",
    "EtaReport",
    "odd_smodule",
    "phi_analysis",
    "psi_analysis",
    "koszul_dual",
    "eta_map",
    "ringel_dual",
    "pair_to_as_module",
    "as_module_to_pair",
    "regular_smodule",
    "regular_as_module",
    "column_module",
    "zero_smodule",
    "module_homs",
    "find_module_isomorphism",
]

# The prime that phi and psi over Q eliminate modulo first, on every cell
# (see _certified_dim).  The per-block echelons reduce with Python ints, so
# any prime works; a large one makes a rank drop mod p (and with it the
# elimination over Q) unlikely.
_CERT_PRIME = 999983

_SAMPLE_PAIRS = 25

# find_module_isomorphism: random combinations tried after the basis homs,
# and the seed that makes them reproducible.
_ISO_ATTEMPTS = 64
_ISO_SEED = 0

# A linear map as its list of sparse columns (see the module docstring).
Columns = List[SparseVec]
_ZERO: SparseVec = {}  # the zero column


class IncompatibleTheta(ValueError):
    """Raised when a theta map fails the compatibility square."""


# ---------------------------------------------------------------------------
# views of the integer tables
# ---------------------------------------------------------------------------


Pair = Tuple[int, int]
# a table indexed by even symbol: a tuple over all of them, or a dict over some
PerSymbol = Union[Sequence[Dict[int, SparseVec]], Dict[int, Dict[int, SparseVec]]]


def _transpose(columns: Iterable[Tuple[int, Dict[int, Scalar]]]) -> Dict[int, Dict[int, Scalar]]:
    """The rows {r: {a: entry}} of a map given by its (a, column a) pairs."""
    rows: Dict[int, Dict[int, Scalar]] = {}
    for a, col in columns:
        for r, v in col.items():
            rows.setdefault(r, {})[a] = v
    return rows


def _int_column(col: Dict[int, int], field: FieldSpec, offset: int = 0) -> SparseVec:
    """An integer column coerced into ``field``: rows shifted by ``offset``,
    in increasing order, entries that vanish in the field dropped."""
    out: SparseVec = {}
    for r in sorted(col):
        x = field.from_int(col[r])
        if x:
            out[offset + r] = x
    return out


# ---------------------------------------------------------------------------
# module types
# ---------------------------------------------------------------------------


def _diag_indices(n: int, d: int) -> List[int]:
    m_idx = graph_index("M", n, d)
    return [m_idx[gamma0_lambda(lam, n)] for lam in enum_Lambda(n, d)]


@lru_cache(maxsize=None)
def _generators(n: int, d: int) -> Tuple[int, ...]:
    """Even indices of the divided powers E_i^(r) 1_λ and F_i^(r) 1_λ: the
    graphs with exactly one non-zero off-diagonal entry, at (i, i+1) or
    (i+1, i).  With the diagonal idempotents they generate S(n, d) over Z."""
    out = []
    for k, g in enumerate(enum_M(n, d)):
        off = [i - j for i, row in enumerate(g.adj) for j, x in enumerate(row) if x and i != j]
        if len(off) == 1 and abs(off[0]) == 1:
            out.append(k)
    return tuple(out)


def _check_columns(what: str, columns: Sequence[SparseVec], nrows: int, field: FieldSpec) -> None:
    """Every row key in range(nrows) and every entry a non-zero scalar of
    ``field``: a ``Fraction`` over Q, an int in 1..p-1 over GF(p)."""
    p = field.p
    for col in columns:
        for r, x in col.items():
            if not 0 <= r < nrows:
                raise ValueError(f"{what} has an entry in row {r}, outside its shape ({nrows}, {len(columns)})")
            if not ((type(x) is int and 0 < x < p) if p else (isinstance(x, Fraction) and x != 0)):
                raise ValueError(f"{what} entry {x!r} is not a non-zero scalar of {field.label}")


def _check_maps(what: str, maps: Sequence[Columns], count: int, dim: int, field: FieldSpec) -> None:
    """``count`` square maps of size ``dim`` with entries in ``field``."""
    if len(maps) != count:
        raise ValueError(f"expected {count} {what} matrices, got {len(maps)}")
    for columns in maps:
        if len(columns) != dim:
            raise ValueError(f"{what} matrix has shape ({dim}, {len(columns)}), expected {(dim, dim)}")
        _check_columns(f"{what} matrix", columns, dim, field)


def _pairs(level: str, rng: random.Random, n1: int, n2: int) -> List[Tuple[int, int]]:
    """The basis pairs a module check multiplies: every pair of
    range(n1) × range(n2) at level "full", else ``_SAMPLE_PAIRS`` draws from
    ``rng`` (first index, then second), each checked once."""
    if level == "full":
        return [(i, j) for i in range(n1) for j in range(n2)]
    return list(dict.fromkeys((rng.randrange(n1), rng.randrange(n2)) for _ in range(_SAMPLE_PAIRS)))


def _check_products(
    n: int,
    d: int,
    field: FieldSpec,
    pairs: Iterable[Pair],
    maps: Sequence[Sequence[Columns]],
    left_odd: bool,
    right_odd: bool,
    error: Callable[[str], Exception],
    message: str,
) -> None:
    """Check ``left[i] ∘ right[j] == sum_k c_k target[k]`` for every pair (i, j).

    ``maps[False]`` and ``maps[True]`` hold the maps of the even and of the
    odd basis symbols; ``left``, ``right`` and ``target`` are those of the
    given parities and of the product's parity, and ``sum_k c_k`` (k-th basis
    symbol) is the product of the i-th and the j-th symbol (:func:`_product`).
    A mismatch raises ``error(message.format(g, h))`` with the graphs g, h of
    the two symbols.
    """
    left, right, target = maps[left_odd], maps[right_odd], maps[left_odd != right_odd]
    for i, j in pairs:
        expected: Columns = [{} for _ in right[j]]
        for k, c in _product(n, d, i, left_odd, j, right_odd).items():
            cf = field.from_int(c)
            for acc, col in zip(expected, target[k]):
                add_scaled(acc, cf, col, field)
        if compose(left[i], right[j], field) != expected:
            g = (enum_N if left_odd else enum_M)(n, d)[i]
            h = (enum_N if right_odd else enum_M)(n, d)[j]
            raise error(message.format(g, h))


def _check_even_action(n: int, d: int, field: FieldSpec, dim: int, action: Sequence[Columns], level: str) -> None:
    Ms = enum_M(n, d)
    _check_maps("action", action, len(Ms), dim, field)
    if level == "none":
        return
    ident: Columns = [{} for _ in range(dim)]
    for i in _diag_indices(n, d):
        for acc, col in zip(ident, action[i]):
            add_scaled(acc, field.one, col, field)
    if ident != [{k: field.one} for k in range(dim)]:
        raise ValueError("identity element does not act as the identity matrix")
    _check_products(
        n, d, field, _pairs(level, random.Random(0), len(Ms), len(Ms)), (action,), False, False,
        ValueError, "even action is not multiplicative at basis pair ({}, {})",
    )


def _resolve_level(validate: str, n: int, d: int) -> str:
    if validate == "auto":
        return "full" if len(enum_M(n, d)) <= 12 else "sample"
    if validate not in ("full", "sample", "none"):
        raise ValueError(f"unknown validation level {validate!r}")
    return validate


@dataclass
class SModule:
    """A finite-dimensional left module over the even subalgebra.

    ``action[i]`` is the map of the i-th even basis symbol (enum_M order)
    on a fixed basis of the carrier space, as ``dim`` sparse columns:
    column k is the image of basis vector k, a zero-free dict
    {row: scalar} with rows in increasing order.  Construction always
    checks the symbol count, the shape and that every entry is a non-zero
    scalar of ``field``.  Multiplicativity against the structure constants
    is checked in full for small (n, d), on a seeded sample otherwise, or
    not at all with ``validate="none"``.

    D, η, the (M, θ) equivalence, the hom spaces and the Ringel dual need a
    basis of weight vectors: each basis vector v is fixed by one diagonal
    idempotent 1_λ (its weight) and killed by the others, and each generator
    ξ_g maps v into weight lower(g) if v has weight upper(g), else to 0.  The
    stock modules and D(M) have such bases; those functions raise
    ``ValueError``, naming the basis vector, on a module without one.
    """

    n: int
    d: int
    field: FieldSpec
    dim: int
    action: List[Columns]
    quotient: Optional[QuotientSpace] = dataclass_field(default=None, repr=False, compare=False)
    validate: InitVar[str] = "auto"

    def __post_init__(self, validate: str) -> None:
        level = _resolve_level(validate, self.n, self.d)
        _check_even_action(self.n, self.d, self.field, self.dim, self.action, level)


@dataclass
class ASModule:
    """A module over the full algebra: even action plus odd action.

    ``odd_action[j]`` is the map of the j-th odd basis symbol (enum_N
    order), in the same sparse column format as ``action``.  Construction
    checks both actions' counts, shapes and entries, and multiplicativity
    across all four parity blocks at the same full/sample/none levels as
    :class:`SModule`.
    """

    n: int
    d: int
    field: FieldSpec
    dim: int
    action: List[Columns]
    odd_action: List[Columns]
    validate: InitVar[str] = "auto"

    def __post_init__(self, validate: str) -> None:
        level = _resolve_level(validate, self.n, self.d)
        _check_even_action(self.n, self.d, self.field, self.dim, self.action, level)
        _check_maps("odd action", self.odd_action, len(enum_N(self.n, self.d)), self.dim, self.field)
        if level != "none":
            self._check_mixed_blocks(level)

    def _check_mixed_blocks(self, level: str) -> None:
        n, d = self.n, self.d
        sizes = (len(enum_M(n, d)), len(enum_N(n, d)))
        if sizes[1] == 0:
            return
        maps, rng = (self.action, self.odd_action), random.Random(1)
        blocks = ((False, True, "even*odd"), (True, False, "odd*even"), (True, True, "odd*odd"))
        for left_odd, right_odd, name in blocks:
            pairs = _pairs(level, rng, sizes[left_odd], sizes[right_odd])
            message = name + " action mismatch at ({}, {})"
            _check_products(n, d, self.field, pairs, maps, left_odd, right_odd, ValueError, message)

    def even_part(self) -> SModule:
        return SModule(self.n, self.d, self.field, self.dim, self.action, validate="none")


@dataclass
class ThetaPair:
    """An S-module together with a map θ: D(base) → base.

    ``theta`` is written against the canonical basis of the tensor quotient
    D(base) produced by :func:`koszul_dual`, as sparse columns (column k is
    the image of the k-th basis vector of D(base)).  Construction checks
    that its rows lie in range(base.dim) and its entries in base.field;
    the column count and compatibility (the square that makes θ encode an
    odd action) are checked by :func:`pair_to_as_module`.
    """

    base: SModule
    theta: Columns

    def __post_init__(self) -> None:
        _check_columns("theta", self.theta, self.base.dim, self.base.field)


def odd_smodule(n: int, d: int, field: FieldSpec) -> SModule:
    """The odd component as a left module over the even subalgebra: ξ_g acts
    on the basis ζ_a (enum_N order) by left multiplication."""
    nN = len(enum_N(n, d))
    action = [[_int_column(per.get(a, {}), field) for a in range(nN)] for per in _left_dicts(n, d)]
    return SModule(n, d, field, nN, action)


# ---------------------------------------------------------------------------
# weight-space blocks
# ---------------------------------------------------------------------------


BlockKey = Tuple[Margin, Margin]


def _sn_rep(key: BlockKey) -> BlockKey:
    """The representative of the S_n-orbit of a block key (λ, μ): the boxes
    renamed so that the columns (λ_i, μ_i) increase."""
    return tuple(zip(*sorted(zip(*key))))


def _sn_iota_rep(key: BlockKey) -> BlockKey:
    """The representative of the S_n × ⟨ι⟩-orbit of a block key, where ι
    sends (λ, μ) to (μ, λ)."""
    return min(_sn_rep(key), _sn_rep(key[::-1]))


def _block_keys(left: Iterable[BlockKey], right: Iterable[BlockKey]) -> Iterator[BlockKey]:
    """The pairs (λ, μ) with (λ, ν) in ``left`` and (ν, μ) in ``right`` for
    some ν; a pair met through several ν is yielded once per ν."""
    by_first: Dict[Margin, List[Margin]] = {}
    for nu, mu in dict.fromkeys(right):
        by_first.setdefault(nu, []).append(mu)
    for lam, nu in dict.fromkeys(left):
        for mu in by_first.get(nu, ()):
            yield lam, mu


def _orbit_weights(keys: Iterable[BlockKey], rep: Callable[[BlockKey], BlockKey]) -> Dict[BlockKey, int]:
    """The representative of every orbit of the distinct block ``keys``, with
    the size of its orbit.  The group behind ``rep`` must map the keys onto
    keys, and blocks onto blocks of the same size, relation rank and image
    (see the module docstring)."""
    return dict(Counter(rep(key) for key in dict.fromkeys(keys)))


def _weights(M: SModule) -> List[Margin]:
    """The weight of every basis vector of M: the λ with 1_λ v = v.

    Raises ``ValueError``, naming the basis vector, unless the basis is one of
    weight vectors (see :class:`SModule`): every column of every 1_λ is {} or
    {k: 1}, each basis vector is fixed by exactly one 1_λ, and each
    generator ξ_g acts only on weight upper(g), with images in weight
    lower(g)."""
    n, d, f = M.n, M.d, M.field
    Ms = enum_M(n, d)
    weights: List[Optional[Margin]] = [None] * M.dim
    for e in _diag_indices(n, d):
        lam = Ms[e].upper_degrees
        for k, col in enumerate(M.action[e]):
            if not col:
                continue
            if col != {k: f.one}:
                raise ValueError(f"basis vector {k} is not a weight vector: 1_{lam} maps it to {col}")
            if weights[k] is not None:
                raise ValueError(f"basis vector {k} is not a weight vector: 1_{weights[k]} and 1_{lam} fix it")
            weights[k] = lam
    if None in weights:
        raise ValueError(f"basis vector {weights.index(None)} is not a weight vector: every 1_λ kills it")
    for g in _generators(n, d):
        lower, upper = Ms[g].lower_degrees, Ms[g].upper_degrees
        for y, col in enumerate(M.action[g]):
            if col and (weights[y] != upper or any(weights[r] != lower for r in col)):
                raise ValueError(f"basis vector {y} is not a weight vector: generator {g} moves it out of weight")
    return weights


def _generator_columns(n: int, d: int, action: Sequence[Columns]) -> Dict[int, Dict[int, SparseVec]]:
    """The non-zero columns {y: column of ξ_g y} of each generator's map."""
    return {g: {y: col for y, col in enumerate(action[g]) if col} for g in _generators(n, d)}


def _generator_mirrors(n: int, d: int) -> Dict[int, Dict[int, Dict[int, int]]]:
    """The right action {a: column of ζ_a ξ_g} of each generator g, mirrored
    from the left table (:func:`~altschur.algebra._right_action`): the only
    part of the right action a relation loop reads."""
    return {g: _right_action(n, d, g) for g in _generators(n, d)}


def _by_weight(indices: Iterable[int], weights: Sequence[Margin]) -> Dict[Margin, List[int]]:
    """``indices`` grouped by their weight, in the given order within each group."""
    out: Dict[Margin, List[int]] = {}
    for i in indices:
        out.setdefault(weights[i], []).append(i)
    return out


class _Tensor:
    """The weight-matched coordinates of a tensor product X ⊗_S Y and the
    relations ρ(g) on them.

    x runs over the increasing indices ``xs`` of a basis of X, with right
    weights ``x_weights`` (x 1_λ = x for λ = x_weights[x]), and y over the
    increasing indices ``ys`` of one of Y, with weights ``y_weights``.  X is
    closed under the right action and Y under the left one: ``right[g]``
    maps x to the column {x′: coefficient} of x ξ_g, ``left[g]`` maps y to
    the non-zero column of ξ_g y, a missing key is a zero column, and only
    the tables of the generators are read.  The coefficients may be integers
    or field scalars; the rows are not reduced into a field, as every
    consumer (the echelon, ``add_scaled``) does that itself.  ρ(1_λ) kills
    x ⊗ y unless the weights of x and y match, and ρ(g) of any other
    generator on the remaining pairs lies in the span of the matched x ⊗ y.
    ``pairs`` numbers the matched (x, y) in increasing order and ``coord``
    inverts it.  The numbering is monotone, so a reduced echelon form, quotient
    basis or canonical kernel basis over it is that of all the relations
    over every (x, y), with the unmatched coordinates left out.
    """

    def __init__(
        self, n: int, d: int, xs: Sequence[int], x_weights: Sequence[Margin], right: PerSymbol,
        ys: Sequence[int], y_weights: Sequence[Margin], left: PerSymbol,
    ):
        self.n, self.d, self.right, self.left = n, d, right, left
        self.xs, self.ys = _by_weight(xs, x_weights), _by_weight(ys, y_weights)
        self.pairs = [(x, y) for x in xs for y in self.ys.get(x_weights[x], ())]
        self.coord = {pair: k for k, pair in enumerate(self.pairs)}

    def rows(self) -> Iterator[SparseVec]:
        """ρ(g) = (x ξ_g) ⊗ y − x ⊗ (ξ_g y) over the matched coordinates for
        every generator g other than the 1_λ, on the pairs (x, y) with x of
        weight lower(g) and y of weight upper(g); the other pairs give rows
        that ρ(1_λ) already kills.  The entries are the tables' own, not
        reduced into a field, and only the zeros are dropped."""
        Ms, coord = enum_M(self.n, self.d), self.coord
        for g in _generators(self.n, self.d):
            xs, ys = self.xs.get(Ms[g].lower_degrees), self.ys.get(Ms[g].upper_degrees)
            if not (xs and ys):
                continue
            right_g, left_g = self.right[g], self.left[g]
            moved = [x for x in xs if right_g.get(x)]
            # y by y: at (4,4) the blocks of phi and of psi take about 17%
            # fewer reduction steps in this order than x by x
            for y in ys:
                yg = left_g.get(y, _ZERO)
                # a row is empty unless x ξ_g or ξ_g y is non-zero
                for x in xs if yg else moved:
                    # coord is injective, so each of the two terms hits a key once
                    row = {coord[c, y]: v for c, v in right_g.get(x, _ZERO).items()}
                    for c, v in yg.items():
                        k = coord[x, c]
                        row[k] = row[k] - v if k in row else -v
                    row = {k: v for k, v in row.items() if v}
                    if row:
                        yield row

    def unmatched(self) -> Iterator[Pair]:
        """The pairs (x, y) whose weights differ: ρ(1_λ) kills x ⊗ y."""
        for lam, xs in self.xs.items():
            for mu, ys in self.ys.items():
                if mu != lam:
                    for x in xs:
                        for y in ys:
                            yield x, y


def _relation_ranks(
    tensors: Dict[BlockKey, _Tensor], bounds: Dict[BlockKey, int], field: FieldSpec
) -> Dict[BlockKey, int]:
    """The rank over ``field`` of the integer relations of each block's
    tensor.  ``bounds[key]`` must bound it from above: the block's echelon
    takes no more rows once it is reached."""
    ranks = {}
    for key, tensor in tensors.items():
        ech = SparseEchelon(field)
        if bounds[key] > 0:
            for row in tensor.rows():
                if ech.add_row(row) and ech.rank == bounds[key]:
                    break
        ranks[key] = ech.rank
    return ranks


def _certified_dim(
    tensors: Dict[BlockKey, _Tensor],
    weights: Dict[BlockKey, int],
    field: FieldSpec,
    image: Callable[[FieldSpec], Dict[BlockKey, int]],
) -> Tuple[int, int, str]:
    """Dimension of the blocks' tensor quotients, the dimension of the image,
    and the method label of the rank path.

    ``tensors`` holds one tensor per representative block and ``weights``
    the size of each one's orbit: a representative counts once for every
    block of its orbit.  ``image(f)``
    gives, per representative block, the dimension over ``f`` of the image
    of an integer map that kills every relation, so a block's relation rank
    is at most its size minus its image: each block runs one echelon that
    stops there.  Over GF(p) one elimination mod p answers ("modp").  Over
    Q the ranks are first taken mod ``_CERT_PRIME``.  A rank mod p is at
    most the rank over Q, so on every block

        image_p ≤ image_Q ≤ quotient_Q ≤ quotient_p,

    and when the outer two meet all four are equal ("certificate"); else
    elimination over Q decides ("exact-fallback").
    """
    steps = [(field, "modp")] if field.kind == "GF" else [(GF(_CERT_PRIME), "certificate"), (field, "exact-fallback")]
    sizes = {key: len(tensor.pairs) for key, tensor in tensors.items()}
    for f, label in steps:
        image_f = image(f)
        ranks = _relation_ranks(tensors, {key: size - image_f[key] for key, size in sizes.items()}, f)
        dim = sum(weights[key] * (size - ranks[key]) for key, size in sizes.items())
        image_dim = sum(weights[key] * image_f[key] for key in sizes)
        if dim == image_dim:
            break
    return dim, image_dim, label


# ---------------------------------------------------------------------------
# phi: multiplication of the odd component over the even subalgebra
# ---------------------------------------------------------------------------


@dataclass
class PhiReport:
    n: int
    d: int
    field: FieldSpec
    tensor_dim: int
    phi_rank: int
    target_dim: int
    surjective: bool
    injective: bool
    iso: bool
    method: str

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "tensor_dim": self.tensor_dim,
            "phi_rank": self.phi_rank,
            "target_dim": self.target_dim,
            "surjective": self.surjective,
            "injective": self.injective,
            "iso": self.iso,
            "method": self.method,
        }


def _phi_blocks(n: int, d: int) -> Tuple[Dict[BlockKey, _Tensor], Dict[BlockKey, int]]:
    """phi's representative blocks, one per S_n × ⟨ι⟩-orbit, and the size of
    each one's orbit.  Block (λ, μ) is the tensor product
    (1_λ S⁻) ⊗_S (S⁻ 1_μ): the ζ_a with lower(a) = λ, of right weight
    upper(a), tensored with the ζ_b with upper(b) = μ, of weight lower(b).
    The keys are read off the distinct margins (lower, upper) of the odd
    symbols, so no coordinate of another block is numbered."""
    lower, upper = _odd_margins(n, d)
    by_lower, by_upper = _positions(lower), _positions(upper)
    margins = list(zip(lower, upper))
    weights = _orbit_weights(_block_keys(margins, margins), _sn_iota_rep)
    right, left = _generator_mirrors(n, d), _left_dicts(n, d)
    tensors = {(lam, mu): _Tensor(n, d, by_lower[lam], upper, right, by_upper[mu], lower, left) for lam, mu in weights}
    return tensors, weights


def phi_analysis(n: int, d: int, field: FieldSpec, cap: Optional[int] = None) -> PhiReport:
    """Rank data for the multiplication map out of the odd-odd tensor square.

    ``tensor_dim`` is the dimension of the quotient of the |N|²-dimensional
    space by the basis-triple relations; ``phi_rank`` the dimension of its
    image in the even subalgebra.  Both split over the weight blocks: the
    tensor coordinate ζ_a ⊗ ζ_b lies in block (a.lower, b.upper), and so do
    its relations and the even symbols in the expansion of ζ_a ζ_b.  Only
    one block per S_n × ⟨ι⟩-orbit is built and solved, as a tensor product
    of its own (:func:`_phi_blocks`; see the module docstring).  The
    product map kills every relation, so its image bounds the relation rank
    of each block, and :func:`_certified_dim` returns the quotient and the
    image together.  The image of block (λ, μ) is read by the trace form off
    the left action of the ξ_g in block (μ, λ) with g! ≠ 0 in the field
    (:func:`_left_kernel`), not off the ζ·ζ products.  An empty tensor square
    has no blocks and comes out as 0 and 0 on the same path.
    """
    check_basis_budget(n, d, cap)
    nM = len(enum_M(n, d))
    tensors, weights = _phi_blocks(n, d)
    members, factorials = _even_blocks(n, d)

    def image(f: FieldSpec) -> Dict[BlockKey, int]:
        # block (λ, μ): the left action of the ξ_g in block (μ, λ) with g! ≠ 0
        out = {}
        for lam, mu in tensors:
            gs = [g for g in members.get((mu, lam), ()) if f.from_int(factorials[g])]
            out[lam, mu] = len(gs) - len(_left_kernel(n, d, f, gs))
        return out

    tensor_dim, phi_rank, method = _certified_dim(tensors, weights, field, image)
    return PhiReport(
        n,
        d,
        field,
        tensor_dim,
        phi_rank,
        nM,
        surjective=(phi_rank == nM),
        injective=(phi_rank == tensor_dim),
        iso=(phi_rank == nM and tensor_dim == nM),
        method=method,
    )


# ---------------------------------------------------------------------------
# psi: the even subalgebra against the endomorphisms of the odd component
# ---------------------------------------------------------------------------


@dataclass
class PsiReport:
    n: int
    d: int
    field: FieldSpec
    kernel_dim: int
    commutant_dim: int
    source_dim: int
    iso: bool
    method: str
    kernel_vectors: List[Dict[int, Scalar]] = dataclass_field(repr=False, default_factory=list)

    def kernel_elements(self) -> List[GradedElement]:
        Ms = enum_M(self.n, self.d)
        out = []
        for vec in self.kernel_vectors:
            terms = {xi(Ms[i]): c for i, c in vec.items() if c}
            out.append(GradedElement(self.n, self.d, self.field, terms))
        return out

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "kernel_dim": self.kernel_dim,
            "commutant_dim": self.commutant_dim,
            "source_dim": self.source_dim,
            "iso": self.iso,
            "method": self.method,
        }


def _left_kernel(n: int, d: int, field: FieldSpec, hs: Sequence[int]) -> List[SparseVec]:
    """The kernel of left multiplication S → End(S⁻) on the span of the ξ_h,
    h in ``hs``, as its canonical basis (:func:`sparse_kernel`) over the even
    indices: the matrix of each ξ_h is read off :func:`_left_dicts`, one
    integer row per matrix entry (c, a)."""
    left = _left_dicts(n, d)
    rows: Dict[Pair, Dict[int, int]] = {}
    for k, h in enumerate(hs):
        for a, col in left[h].items():
            for c, v in col.items():
                rows.setdefault((c, a), {})[k] = v
    basis = sparse_kernel([rows[entry] for entry in sorted(rows)], len(hs), field)
    return [{hs[k]: x for k, x in vec.items()} for vec in basis]


def _psi_kernel(n: int, d: int, field: FieldSpec, keys: Iterable[BlockKey]) -> Dict[BlockKey, List[SparseVec]]:
    """The kernel of left multiplication S → End(S⁻) on each weight block of
    ``keys``, as its canonical basis over the even indices.

    The entry (c, a) of the matrix of ξ_h is non-zero only when h's block
    (h.lower, h.upper) is (c.lower, a.lower), so the kernel is the direct sum
    of the blocks' kernels, and the union of their canonical bases is the
    canonical basis of the whole kernel."""
    members = _even_blocks(n, d)[0]
    return {key: _left_kernel(n, d, field, members[key]) for key in keys}


def _psi_blocks(n: int, d: int) -> Tuple[Dict[BlockKey, _Tensor], Dict[BlockKey, int]]:
    """The representative blocks of psi's commutant, one per S_n-orbit, and
    the size of each one's orbit.  The entries of θ R_g − R_g θ are the
    relations ρ(g) with θ[c, a] as the tensor coordinate (a, c), R_g acting
    on a from the right and its transpose on c.  So block
    (λ, μ), the entries θ[c, a] with lower(c) = λ and lower(a) = μ, is a
    tensor product: the ζ_a with lower(a) = μ under the right action,
    tensored with the ζ_c with lower(c) = λ under the transposed one, both
    of weight upper.  The right action is mirrored and transposed at the
    generators only, once for all blocks."""
    lower, upper = _odd_margins(n, d)
    by_lower = _positions(lower)
    margins = list(zip(lower, upper))
    weights = _orbit_weights(_block_keys(margins, [key[::-1] for key in margins]), _sn_rep)
    right = _generator_mirrors(n, d)
    transposed = {g: _transpose(columns.items()) for g, columns in right.items()}
    tensors = {
        (lam, mu): _Tensor(n, d, by_lower[mu], upper, right, by_lower[lam], upper, transposed) for lam, mu in weights
    }
    return tensors, weights


def psi_analysis(n: int, d: int, field: FieldSpec, cap: Optional[int] = None) -> PsiReport:
    """Kernel of left multiplication on the odd component, and the exact
    commutant of the right action.

    The map is injective iff the kernel is zero and surjective iff the image
    dimension |M| − kernel_dim equals the commutant dimension.  The commutant
    system is solved against the generators of S(n, d): the diagonal
    idempotents in closed form (they force block-diagonal shape) and the
    divided powers as linear rows.  It splits over the weight blocks: the
    variable θ[c, a] lies in block (c.lower, a.lower), and so do its
    constraint rows and the images of the even symbols h with
    (h.lower, h.upper) equal to that pair.  Only one block per S_n-orbit is
    built and solved (:func:`_psi_blocks`), and the kernel also in the other blocks of every orbit where it
    is non-zero (see the module docstring).  The image of the map lies in
    the commutant, so it bounds the relation rank of each block in
    :func:`_certified_dim`.  The kernel over ``field`` is solved once here;
    over Q the rank path also solves it mod its prime on the representative
    blocks.
    """
    check_basis_budget(n, d, cap)
    nM = len(enum_M(n, d))
    tensors, weights = _psi_blocks(n, d)
    members = _even_blocks(n, d)[0]
    reps = [key for key in members if _sn_rep(key) == key]

    def image(kernel_f: Dict[BlockKey, List[SparseVec]]) -> Dict[BlockKey, int]:
        return {key: len(members[key]) - len(kernel_f.get(key, ())) for key in tensors}

    kernel = _psi_kernel(n, d, field, reps)
    others = [key for key in members if key not in kernel and kernel[_sn_rep(key)]]
    kernel.update(_psi_kernel(n, d, field, others))
    # a kernel vector's largest key is its free column (sparse_kernel)
    vectors = sorted((vec for basis in kernel.values() for vec in basis), key=max)
    kernel_dim = len(vectors)
    image_dim = nM - kernel_dim
    commutant_dim, _, method = _certified_dim(
        tensors, weights, field, lambda f: image(kernel if f == field else _psi_kernel(n, d, f, reps))
    )
    return PsiReport(
        n,
        d,
        field,
        kernel_dim,
        commutant_dim,
        nM,
        iso=(kernel_dim == 0 and image_dim == commutant_dim),
        method=method,
        kernel_vectors=vectors,
    )


# ---------------------------------------------------------------------------
# the functor D and its companions
# ---------------------------------------------------------------------------


def _tensor_quotient(M: SModule) -> Tuple[_Tensor, QuotientSpace]:
    """S⁻ ⊗_S M, where ζ_a ⊗ v_i is matched when upper(a) = wt(v_i), and the
    quotient its relations cut out: the carrier of D(M)."""
    n, d = M.n, M.d
    upper = _odd_margins(n, d)[1]
    left = _generator_columns(n, d, M.action)
    tensor = _Tensor(n, d, range(len(upper)), upper, _generator_mirrors(n, d), range(M.dim), _weights(M), left)
    return tensor, QuotientSpace(M.field, len(tensor.pairs), tensor.rows())


def _kills(tensor: _Tensor, column: Callable[[int, int], SparseVec], field: FieldSpec) -> bool:
    """Whether the linear map sending x ⊗ y to the sparse column
    ``column(x, y)`` vanishes on every relation of ``tensor``: on each
    unmatched x ⊗ y, which ρ(1_λ) kills, and on every row of
    :meth:`_Tensor.rows`, generated again here.  Only the columns of the
    matched coordinates are cached, as one recurs in many rows."""
    if any(column(x, y) for x, y in tensor.unmatched()):
        return False
    pairs = tensor.pairs
    matched = lru_cache(maxsize=None)(lambda k: column(*pairs[k]))
    for rel in tensor.rows():
        acc: SparseVec = {}
        for k, v in rel.items():
            add_scaled(acc, v, matched(k), field)
        if acc:
            return False
    return True


def _dual(M: SModule, validate: str) -> Tuple[SModule, _Tensor]:
    """D(M), as :func:`koszul_dual` returns it, and the tensor space it is a
    quotient of."""
    n, d, f = M.n, M.d, M.field
    tensor, quotient = _tensor_quotient(M)
    coord = tensor.coord
    basis = [tensor.pairs[k] for k in quotient.basis_coords]

    def column(g: int, a: int, i: int) -> SparseVec:
        # ξ_g (ζ_a ⊗ v_i) = (ξ_g ζ_a) ⊗ v_i, and ξ_g ζ_a keeps the weight of ζ_a
        return quotient.project({coord[c, i]: f.from_int(v) for c, v in _product(n, d, g, False, a, True).items()})

    action = [[column(g, a, i) for a, i in basis] for g in range(len(enum_M(n, d)))]
    return SModule(n, d, f, quotient.dim, action, quotient=quotient, validate=validate), tensor


def koszul_dual(M: SModule, validate: str = "auto") -> SModule:
    """The module D(M): the odd component tensored with M over the even
    subalgebra, carried by the canonical quotient basis.

    Only the pairs ζ_a ⊗ v_i with upper(a) = wt(v_i) survive the weight
    idempotents, so M needs a basis of weight vectors (see :class:`SModule`).
    The returned module keeps the :class:`~altschur.linalg.QuotientSpace`
    in its ``quotient`` field; its coordinates are those pairs (a, i),
    numbered in increasing order.
    """
    return _dual(M, validate)[0]


@dataclass
class EtaReport:
    matrix: ExactMatrix
    source_dim: int
    target_dim: int
    rank: int
    iso: bool

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "source_dim": self.source_dim,
            "target_dim": self.target_dim,
            "rank": self.rank,
            "iso": self.iso,
        }


def eta_map(M: SModule) -> EtaReport:
    """The natural map D²(M) → M induced by multiplying the two odd tensor
    factors: ζ_b ⊗ (ζ_a ⊗ v) goes to (ζ_b ζ_a)·v."""
    f, dim = M.field, M.dim
    D1, inner = _dual(M, validate="none")
    assert D1.quotient is not None
    lifts = [inner.pairs[k] for k in D1.quotient.basis_coords]  # (a, i) of each basis vector of D(M)
    tensor, outer = _tensor_quotient(D1)

    def column(b: int, k: int) -> SparseVec:
        a, i = lifts[k]
        col: SparseVec = {}
        for h, c in _product(M.n, M.d, b, True, a, True).items():
            add_scaled(col, f.from_int(c), M.action[h][i], f)
        return col

    # the map must kill the relations defining the outer quotient, otherwise
    # the basis columns below would depend on the chosen lifts
    if not _kills(tensor, column, f):
        raise RuntimeError("eta does not vanish on the tensor relations")

    matrix = ExactMatrix.from_columns(f, [column(*tensor.pairs[c]) for c in outer.basis_coords], nrows=dim)
    rank = matrix.rank()
    return EtaReport(
        matrix,
        source_dim=outer.dim,
        target_dim=dim,
        rank=rank,
        iso=(rank == dim and outer.dim == dim),
    )


def ringel_dual(M: SModule, validate: str = "auto") -> SModule:
    """Hom_S(S⁻, M) as a left S-module.

    The carrier is :func:`_hom_vectors` from the odd module to M; ξ_g acts
    by precomposition with right multiplication.  That basis is canonical
    (see :func:`~altschur.linalg.sparse_kernel`), so the coordinates of an
    image are its values at the basis vectors' largest keys.  An image they
    do not rebuild (one outside the hom space, or a basis that is not
    canonical) raises ``RuntimeError``.
    """
    f = M.field
    n, d = M.n, M.d
    basis = _hom_vectors(odd_smodule(n, d, f), M)
    keys = [max(h) for h in basis]
    action = []
    for g in range(len(enum_M(n, d))):
        rows_g, cols = _transpose(_right_action(n, d, g).items()), []
        for h in basis:
            image: Dict[Pair, Scalar] = {}
            for (r, k), val in h.items():
                add_scaled(image, val, {(r, c): f.from_int(v) for c, v in rows_g.get(k, {}).items()}, f)
            col = {j: image[key] for j, key in enumerate(keys) if key in image}
            if combine(basis, col, f) != image:
                raise RuntimeError("right action image is not rebuilt from the hom basis")
            cols.append(col)
        action.append(cols)
    return SModule(n, d, f, len(basis), action, validate=validate)


# ---------------------------------------------------------------------------
# modules over the full algebra as pairs (M, theta)
# ---------------------------------------------------------------------------


def pair_to_as_module(pair: ThetaPair, validate: str = "auto") -> ASModule:
    """Extend the even action of ``pair.base`` by the odd action encoded in
    theta: ζ_a acts on v as θ applied to the class of ζ_a ⊗ v.  Raises
    :class:`IncompatibleTheta` unless theta is a module map whose square
    realizes the even products of odd symbols."""
    M = pair.base
    f, dim = M.field, M.dim
    n, d = M.n, M.d
    nN = len(enum_N(n, d))
    D1, tensor = _dual(M, validate="none")
    quotient, coord = D1.quotient, tensor.coord
    assert quotient is not None
    theta = pair.theta
    if len(theta) != D1.dim:
        raise ValueError(f"theta has shape {(dim, len(theta))}, expected {(dim, D1.dim)}")
    for g in (*_generators(n, d), *_diag_indices(n, d)):
        if compose(theta, D1.action[g], f) != compose(M.action[g], theta, f):
            raise IncompatibleTheta("theta is not a module map")
    # the class of ζ_a ⊗ v_i in D(M), 0 unless upper(a) = wt(v_i)
    classes = [
        [quotient.project({coord[a, i]: f.one}) if (a, i) in coord else _ZERO for i in range(dim)] for a in range(nN)
    ]
    odd_action = [compose(theta, cols, f) for cols in classes]
    _check_products(
        n, d, f, ((bi, ai) for bi in range(nN) for ai in range(nN)), (M.action, odd_action), True, True,
        IncompatibleTheta, "theta squared misses the even product at odd pair ({}, {})",
    )
    return ASModule(n, d, f, dim, list(M.action), odd_action, validate=validate)


def as_module_to_pair(module: ASModule) -> ThetaPair:
    """Read theta off an AS-module: the odd action, seen through the tensor
    quotient of the even part."""
    base, odd = module.even_part(), module.odd_action
    tensor, quotient = _tensor_quotient(base)
    if not _kills(tensor, lambda a, i: odd[a][i], module.field):
        raise IncompatibleTheta("odd action does not descend to the tensor quotient")
    return ThetaPair(base=base, theta=[dict(odd[a][i]) for a, i in (tensor.pairs[k] for k in quotient.basis_coords)])


# ---------------------------------------------------------------------------
# stock modules and hom-space helpers
# ---------------------------------------------------------------------------


def _left_ideal(n: int, d: int, field: FieldSpec, members: Sequence[int], validate: str) -> SModule:
    """The even subalgebra acting from the left on the span of the even
    symbols of index ``members``, which must be closed under it."""
    local = {j: k for k, j in enumerate(members)}
    action = [
        [_int_column({local[k]: c for k, c in _product(n, d, i, False, j, False).items()}, field) for j in members]
        for i in range(len(enum_M(n, d)))
    ]
    return SModule(n, d, field, len(members), action, validate=validate)


def regular_smodule(n: int, d: int, field: FieldSpec, validate: str = "auto") -> SModule:
    """The even subalgebra acting on itself from the left."""
    return _left_ideal(n, d, field, range(len(enum_M(n, d))), validate)


def regular_as_module(n: int, d: int, field: FieldSpec, validate: str = "auto") -> ASModule:
    """The full algebra acting on itself from the left.

    Basis order: even symbols (enum_M) then odd symbols (enum_N).
    """
    nM = len(enum_M(n, d))
    basis = [(j, False) for j in range(nM)] + [(j, True) for j in range(len(enum_N(n, d)))]

    def columns(i: int, odd: bool) -> Columns:
        # an odd product's coordinates follow the nM even ones
        return [_int_column(_product(n, d, i, odd, j, j_odd), field, nM if odd != j_odd else 0) for j, j_odd in basis]

    action = [columns(i, odd) for i, odd in basis[:nM]]
    return ASModule(n, d, field, len(basis), action, [columns(i, odd) for i, odd in basis[nM:]], validate=validate)


def column_module(
    n: int, d: int, field: FieldSpec, lam: Sequence[int], validate: str = "auto"
) -> SModule:
    """The left ideal generated by the diagonal idempotent of composition
    ``lam``: spanned by the even symbols with upper degree sequence lam.
    Raises ``ValueError`` unless lam is a composition of d into n parts."""
    lam = tuple(lam)
    if lam not in enum_Lambda(n, d):
        raise ValueError(f"lam = {lam} is not a composition of {d} into {n} parts")
    return _left_ideal(n, d, field, [j for j, g in enumerate(enum_M(n, d)) if g.upper_degrees == lam], validate)


def zero_smodule(n: int, d: int, field: FieldSpec) -> SModule:
    return SModule(n, d, field, 0, [[] for _ in enum_M(n, d)], validate="none")


def _hom_vectors(source: SModule, target: SModule) -> List[Dict[Pair, Scalar]]:
    """Basis of Hom_S(source, target), each a sparse matrix {(r, c): entry}.

    The maps V with A_g V = V B_g for every generator g of S(n, d), A_g the
    action on ``target`` and B_g that on ``source``: the canonical kernel
    basis of the rows (A_g V − V B_g)[r, c], with A_g read by rows, over the
    entries (r, c) with wt(r) = wt(c), the only ones a module map can fill.
    The entries are numbered in increasing (r, c) order, so the largest key
    of a vector is its free entry (:func:`~altschur.linalg.sparse_kernel`).
    """
    if (source.n, source.d, source.field) != (target.n, target.d, target.field):
        raise ValueError("hom spaces need matching parameters and field")
    n, d, f = source.n, source.d, source.field
    right = {g: _transpose(enumerate(target.action[g])) for g in _generators(n, d)}
    left = _generator_columns(n, d, source.action)
    tensor = _Tensor(n, d, range(target.dim), _weights(target), right, range(source.dim), _weights(source), left)
    pairs = tensor.pairs
    return [{pairs[k]: v for k, v in vec.items()} for vec in sparse_kernel(tensor.rows(), len(pairs), f)]


def _hom_matrix(vec: Dict[Pair, Scalar], source: SModule, target: SModule) -> ExactMatrix:
    m = ExactMatrix.zeros(source.field, target.dim, source.dim)
    for (r, c), val in vec.items():
        m.rows[r][c] = val
    return m


def module_homs(source: SModule, target: SModule) -> List[ExactMatrix]:
    """Basis of Hom_S(source, target) as matrices target.dim × source.dim."""
    return [_hom_matrix(vec, source, target) for vec in _hom_vectors(source, target)]


def find_module_isomorphism(source: SModule, target: SModule) -> Optional[ExactMatrix]:
    """Search the hom space for an invertible element; None if not found.

    Tries each basis hom, then ``_ISO_ATTEMPTS`` random small-integer
    combinations seeded with ``_ISO_SEED``, so a returned witness is
    reproducible.  Absence of a witness is not a proof that none exists.
    """
    if source.dim != target.dim:
        return None
    vecs = _hom_vectors(source, target)
    if source.dim == 0:
        return ExactMatrix.zeros(source.field, 0, 0)
    f = source.field
    for vec in vecs:
        h = _hom_matrix(vec, source, target)
        if h.rank() == source.dim:
            return h
    rng = random.Random(_ISO_SEED)
    for _ in range(_ISO_ATTEMPTS):
        combo: Dict[Pair, Scalar] = {}
        for vec in vecs:
            add_scaled(combo, f.from_int(rng.randint(-3, 3)), vec, f)
        h = _hom_matrix(combo, source, target)
        if h.rank() == source.dim:
            return h
    return None
