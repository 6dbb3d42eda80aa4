"""Ground-truth operator matrices on ball configurations.

Every basis symbol acts on the free module over B(n, d) as an integral
operator.  This module materializes those operators as dense integer
matrices (numpy int64, exact at desk scale), multiplies them, and reads
products back into the graph basis.  Because the matrices are built directly
from the kernel definitions, entry by entry, agreement between matrix
products and the convolution structure constants is an independent check of
the whole combinatorial layer; :func:`verify_table` runs that check over a
complete basis.

Matrix convention: rows are indexed by the lower configuration and columns
by the upper one, both in ``enum_B`` order, so the matrix of a product of
symbols is the product of their matrices in the same order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fields import FieldSpec, QQ
from .graphs import BipartiteGraph, Word, pair_sign, representative_pair
from .enumeration import (
    act_word,
    check_power_budget,
    check_basis_budget,
    enum_B,
    enum_M,
    enum_N,
    sign_of_permutation,
    words_with_content,
)
from .algebra import BasisSymbol, GradedElement, structure_constants, all_symbols, xi, zeta

__all__ = [
    "OracleError",
    "NonEquivariantError",
    "NonZeroAtNonTransverseError",
    "DecompositionError",
    "OperatorMatrix",
    "word_index",
    "operator_matrix",
    "permutation_matrix",
    "decompose",
    "verify_table",
    "VerifyReport",
]

_ENTRY_GUARD = 2**62  # stay far from int64 overflow in products


class OracleError(RuntimeError):
    """Base class for oracle failures."""


class NonEquivariantError(OracleError):
    """A matrix handed to decompose fails the permutation-equivariance spot check."""


class NonZeroAtNonTransverseError(OracleError):
    """An odd decomposition target has weight at a pair with a repeated edge."""


class DecompositionError(OracleError):
    """The matrix is not a combination of basis operators of the stated parity."""


def word_index(word: Word, n: int) -> int:
    """Position of a configuration in ``enum_B(n, d)`` order."""
    idx = 0
    for box in word:
        idx = idx * n + (box - 1)
    return idx


@dataclass
class OperatorMatrix:
    """An integer kernel matrix indexed by ball configurations."""

    n: int
    d: int
    matrix: np.ndarray  # int64, shape (n^d, n^d)

    def __post_init__(self) -> None:
        size = self.n**self.d
        if self.matrix.shape != (size, size):
            raise ValueError(f"expected shape {(size, size)}, got {self.matrix.shape}")

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError("parameter mismatch")
        a, b = self.matrix, other.matrix
        bound = int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0)) * a.shape[0]
        if bound >= _ENTRY_GUARD:
            raise OverflowError("product entries may not fit in int64")
        return OperatorMatrix(self.n, self.d, a @ b)


def operator_matrix(sym: BasisSymbol, cap: int | None = None) -> OperatorMatrix:
    """The kernel matrix of a basis symbol (exact integer entries).

    Entry (S, U) is nonzero exactly when the pair graph of (S, U) is the
    symbol's graph; the value is 1 for even symbols and the ball-labelling
    sign for odd ones.
    """
    n, d = sym.n, sym.d
    check_power_budget(n, d, cap)
    g = sym.graph
    size = n**d
    out = np.zeros((size, size), dtype=np.int64)
    mu = g.lower_degrees
    scatter = [words_with_content(tuple(g.adj[i][j] for i in range(n))) for j in range(n)]
    odd = sym.is_odd
    for s_word in words_with_content(mu):
        s_idx = word_index(s_word, n)
        boxes: List[List[int]] = [[] for _ in range(n)]
        for ball, box in enumerate(s_word):
            boxes[box - 1].append(ball)
        u_buf = [0] * d
        for combo in itertools.product(*scatter):
            for balls, assignment in zip(boxes, combo):
                for ball, box in zip(balls, assignment):
                    u_buf[ball] = box
            u_word = tuple(u_buf)
            value = pair_sign(s_word, u_word) if odd else 1
            out[s_idx, word_index(u_word, n)] = value
    return OperatorMatrix(n, d, out)


def permutation_matrix(w: Sequence[int], n: int) -> np.ndarray:
    """0/1 matrix of the right permutation action on configurations.

    Row f, column f.w carries a 1; conjugating a kernel matrix by this
    permutation replaces the kernel K(S, U) by K(S.w, U.w).
    """
    size = n ** len(w)
    out = np.zeros((size, size), dtype=np.int64)
    out[np.arange(size), _conjugation_index(w, n)] = 1
    return out


def _conjugation_index(w: Sequence[int], n: int) -> np.ndarray:
    """perm[i] is the index of f.w for the configuration f of index i."""
    d = len(w)
    perm = np.empty(n**d, dtype=np.int64)
    for f in enum_B(n, d):
        perm[word_index(f, n)] = word_index(act_word(f, w), n)
    return perm


_MATRIX_CACHE: Dict[BasisSymbol, np.ndarray] = {}


def _cached_matrix(sym: BasisSymbol, cap: int | None = None) -> np.ndarray:
    m = _MATRIX_CACHE.get(sym)
    if m is None:
        m = operator_matrix(sym, cap).matrix
        _MATRIX_CACHE[sym] = m
    return m


def decompose(
    op: OperatorMatrix,
    parity: str,
    field: FieldSpec = QQ,
    rng_seed: int = 0,
    spot_checks: int = 8,
    rebuild_check: bool = True,
) -> GradedElement:
    """Read an equivariant integer matrix back as a combination of symbols.

    Coefficients are read at the representative pair of each graph of the
    stated parity.  Equivariance is spot-checked on ``spot_checks`` seeded
    random permutations (NonEquivariantError on failure); for odd parity the
    matrix must vanish at non-transverse pairs (NonZeroAtNonTransverse).
    With ``rebuild_check`` the combination is re-materialized and compared
    entrywise, so a successful return is a proof of membership.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    n, d, m = op.n, op.d, op.matrix
    p = field.characteristic
    rng = random.Random(rng_seed)
    sign_needed = parity == "odd"

    def differs(x: np.ndarray, y: np.ndarray) -> bool:
        delta = x - y
        if p:
            delta = delta % p
        return bool(np.any(delta))

    for _ in range(spot_checks if d > 1 else 0):
        w = list(range(1, d + 1))
        rng.shuffle(w)
        perm = _conjugation_index(w, n)
        conj = m[np.ix_(perm, perm)]
        expect = sign_of_permutation(w) * m if sign_needed else m
        if differs(conj, expect):
            raise NonEquivariantError(
                f"kernel is not {parity}-equivariant under the ball permutation {tuple(w)}"
            )
    graphs = enum_N(n, d) if parity == "odd" else enum_M(n, d)
    coeffs: Dict[BasisSymbol, int] = {}
    for g in graphs:
        s_word, u_word = representative_pair(g)
        c = int(m[word_index(s_word, n), word_index(u_word, n)])
        if c:
            coeffs[BasisSymbol(parity, g)] = c
    if rebuild_check:
        rebuilt = np.zeros_like(m)
        for sym, c in coeffs.items():
            rebuilt += c * _cached_matrix(sym)
        if differs(rebuilt, m):
            residue = (m - rebuilt) % p if p else m - rebuilt
            if parity == "odd":
                rows, cols = np.nonzero(residue)
                words = list(enum_B(n, d))
                for r, c2 in zip(rows, cols):
                    try:
                        pair_sign(words[r], words[c2])
                    except Exception:
                        raise NonZeroAtNonTransverseError(
                            f"odd kernel has value {int(residue[r, c2])} at the "
                            f"non-transverse pair ({words[r]}, {words[c2]})"
                        ) from None
            raise DecompositionError(
                "matrix is not an integer combination of basis operators "
                f"of parity {parity}"
            )
    terms = {sym: field.from_int(c) for sym, c in coeffs.items()}
    return GradedElement(n, d, field, terms)


@dataclass
class VerifyReport:
    n: int
    d: int
    field_label: str
    pairs_checked: int
    mismatches: List[str] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "field": self.field_label,
            "pairs_checked": self.pairs_checked,
            "ok": self.ok,
            "mismatches": self.mismatches[:20],
        }


def verify_table(
    n: int, d: int, field: FieldSpec = QQ, cap: int | None = None, basis_cap: int | None = None
) -> VerifyReport:
    """Check every basis product against the matrix oracle.

    For each ordered pair of basis symbols, the product of their kernel
    matrices must equal the combination of kernel matrices dictated by the
    convolution structure constants; over a prime field the comparison is
    entrywise mod p.  Returns a report rather than raising, so callers can
    render diagnostics.  ``cap`` bounds n^d (see :func:`check_power_budget`)
    and ``basis_cap`` bounds |M| + |N| (see :func:`check_basis_budget`).
    """
    check_power_budget(n, d, cap)
    check_basis_budget(n, d, basis_cap)
    syms = all_symbols(n, d)
    mats = {sym: _cached_matrix(sym, cap) for sym in syms}
    p = field.characteristic
    report = VerifyReport(n, d, field.label, 0)
    for a in syms:
        ma = mats[a]
        for b in syms:
            prod = ma @ mats[b]
            expected = np.zeros_like(prod)
            for sym, c in structure_constants(a, b).items():
                expected += c * mats[sym]
            diff = prod - expected
            if p:
                diff = diff % p
            if np.any(diff):
                r, c2 = map(int, np.argwhere(diff)[0])
                report.mismatches.append(
                    f"{a} * {b}: oracle and convolution disagree at matrix "
                    f"position ({r}, {c2}): {int(prod[r, c2])} vs {int(expected[r, c2])}"
                )
            report.pairs_checked += 1
    return report
