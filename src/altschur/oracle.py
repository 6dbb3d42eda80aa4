"""Ground-truth operator matrices on ball configurations.

Every basis symbol acts on the free module over B(n, d) as an integral
operator.  Its kernel is nonzero only at pairs (S, U) whose pair graph is
the symbol's graph g, so S has content ``g.lower_degrees`` and U has content
``g.upper_degrees``: the n^d x n^d matrix has a single nonzero block, whose
rows are the words of the first content and whose columns are the words of
the second, each in ``enum_B`` order.  This module builds that block entry
by entry from the kernel definition (numpy int64, exact at desk scale), and
the same pass checks that the definition places no entry outside it.
The blocks come from the definitions and never from tables.  The structure
constants that :func:`verify_table` compares them with are read by index
through ``algebra._product``, off the integer tables that the product table
and the duality diagnostics read: convolved on one pair per orbit and filled
by box relabelling, the ι mirror and the trace form.  So agreement over a
complete basis is an independent check of the convolution and of every fill
together.  No dense n^d x n^d matrix is built here; the dense reference
that tests compare these blocks with, read off the pair graph of every
configuration pair, lives in ``tests/bruteforce.py``.

Matrix convention: rows are indexed by the lower configuration and columns
by the upper one, both in ``enum_B`` order, so the matrix of a product of
symbols is the product of their matrices in the same order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .fields import FieldSpec, QQ
from .graphs import Word, pair_sign
from .enumeration import check_power_budget, check_basis_budget, words_with_content
from .algebra import BasisSymbol, _product, _symbols

__all__ = [
    "OracleError",
    "OutsideBlockError",
    "word_index",
    "verify_table",
    "VerifyReport",
]


class OracleError(RuntimeError):
    """Base class for oracle failures."""


class OutsideBlockError(OracleError):
    """The kernel definition of a symbol places an entry outside its block."""


def word_index(word: Word, n: int) -> int:
    """Position of a configuration in ``enum_B(n, d)`` order."""
    idx = 0
    for box in word:
        idx = idx * n + (box - 1)
    return idx


# -- blocks -------------------------------------------------------------------

_Margins = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (lower content, upper content)


def _margins(sym: BasisSymbol) -> _Margins:
    g = sym.graph
    return g.lower_degrees, g.upper_degrees


@functools.lru_cache(maxsize=None)
def _positions(counts: Tuple[int, ...]) -> np.ndarray:
    """Matrix index of each word of the given content, ascending.  Cached;
    callers must not mutate the result."""
    return np.array([word_index(w, len(counts)) for w in words_with_content(counts)], dtype=np.int64)


def _kernel_entries(sym: BasisSymbol) -> Iterator[Tuple[Word, Word, int]]:
    """Every nonzero kernel entry (S, U, value) of a symbol, from the definition.

    The value at (S, U) is 1 for even symbols and the ball-labelling sign for
    odd ones when the pair graph of (S, U) is the symbol's graph.  Such U
    arise by scattering, for each box j of S, its balls over the upper boxes
    as column j of the graph prescribes.
    """
    n, d = sym.n, sym.d
    g = sym.graph
    scatter = [words_with_content(tuple(g.adj[i][j] for i in range(n))) for j in range(n)]
    odd = sym.is_odd
    for s_word in words_with_content(g.lower_degrees):
        boxes: List[List[int]] = [[] for _ in range(n)]
        for ball, box in enumerate(s_word):
            boxes[box - 1].append(ball)
        u_buf = [0] * d
        for combo in itertools.product(*scatter):
            for balls, assignment in zip(boxes, combo):
                for ball, box in zip(balls, assignment):
                    u_buf[ball] = box
            u_word = tuple(u_buf)
            yield s_word, u_word, pair_sign(s_word, u_word) if odd else 1


def _block(sym: BasisSymbol) -> np.ndarray:
    """The nonzero block of a symbol's kernel matrix.

    Raises :class:`OutsideBlockError` if the definition places an entry
    outside the block; this support check is what proves a product of two
    symbols with mismatched middle margins to be zero.
    """
    lower, upper = _margins(sym)
    rows = {w: k for k, w in enumerate(words_with_content(lower))}
    cols = {w: k for k, w in enumerate(words_with_content(upper))}
    out = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for s_word, u_word, value in _kernel_entries(sym):
        r, c = rows.get(s_word), cols.get(u_word)
        if r is None or c is None:
            raise OutsideBlockError(
                f"{sym}: the kernel definition places {value} at matrix position "
                f"({word_index(s_word, sym.n)}, {word_index(u_word, sym.n)}), outside "
                f"its block (lower content {lower}, upper content {upper})"
            )
        out[r, c] = value
    return out


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


def _first_difference(
    product: Optional[np.ndarray],
    margins: _Margins,
    terms: Dict[BasisSymbol, int],
    blocks: Dict[BasisSymbol, np.ndarray],
    p: int,
) -> Optional[Tuple[int, int, int, int]]:
    """Where a product and the combination ``terms`` first differ.

    ``product`` is the product's block at ``margins`` (None when the product
    is zero).  Blocks with different margins are disjoint, so the difference
    is compared one block at a time.  Block rows and columns ascend, so each
    block's first nonzero in row-major order is its first in the whole
    n^d x n^d matrix.  Returns (row, column, oracle value, expected value) at
    the first differing matrix position, or None when they agree.
    """
    # margins -> [oracle block, expected block]
    sums: Dict[_Margins, List[np.ndarray]] = {}
    if product is not None:
        sums[margins] = [product, np.zeros_like(product)]
    for sym, c in terms.items():
        block = blocks[sym]
        key = _margins(sym)
        if key not in sums:
            sums[key] = [np.zeros_like(block), np.zeros_like(block)]
        sums[key][1] += c * block
    first: Optional[Tuple[int, int, int, int]] = None
    for (lower, upper), (got, want) in sums.items():
        diff = got - want
        if p:
            diff %= p
        hits = np.argwhere(diff)
        if len(hits):
            r, c = hits[0]
            row, col = int(_positions(lower)[r]), int(_positions(upper)[c])
            if first is None or (row, col) < first[:2]:
                first = (row, col, int(got[r, c]), int(want[r, c]))
    return first


def verify_table(
    n: int, d: int, field: FieldSpec = QQ, cap: int | None = None, basis_cap: int | None = None
) -> VerifyReport:
    """Check every basis product against the matrix oracle.

    The product of the kernel matrices of an ordered pair must equal the
    combination of kernel matrices dictated by its structure constants, read
    off the engine's integer tables through ``algebra._product``; over a
    prime field the comparison is entrywise mod p.  When the upper content
    of the left factor is the lower content of the right one, the product is
    the product of their blocks and is compared with the combination on
    that block; when every term lies on that block too, the combination is
    summed there and the two blocks compared in place, and
    :func:`_first_difference` locates the first differing position only when
    they disagree or a term lies elsewhere.  Otherwise the product is zero,
    because every symbol's block holds its whole kernel (checked as the
    blocks are built), and the tables are keyed by matching margins, so
    they hold nothing for the pair; its constants are still read, and it
    passes exactly when each coefficient is zero in the field, since terms
    of one parity with distinct graphs have disjoint supports.  Every ordered pair counts in ``pairs_checked``; a
    mismatch names the first differing position of the full n^d x n^d
    matrices.  A symbol whose definition reaches outside its block is
    reported and no pair is checked.

    Returns a report rather than raising, so callers can render diagnostics.
    ``cap`` bounds n^d (see :func:`check_power_budget`) and ``basis_cap``
    bounds |M| + |N| (see :func:`check_basis_budget`).
    """
    check_power_budget(n, d, cap)
    check_basis_budget(n, d, basis_cap)
    syms = _symbols(n, d)  # (even symbols, odd symbols), each in index order
    p = field.characteristic
    report = VerifyReport(n, d, field.label, 0)
    blocks: Dict[BasisSymbol, np.ndarray] = {}
    for sym in itertools.chain(*syms):
        try:
            blocks[sym] = _block(sym)
        except OutsideBlockError as exc:
            report.mismatches.append(str(exc))
    if report.mismatches:
        return report
    # per parity, per index: the symbol's block and its (lower, upper) contents
    block_of = [[blocks[sym] for sym in syms[odd]] for odd in (False, True)]
    margins_of = [[_margins(sym) for sym in syms[odd]] for odd in (False, True)]
    factors = [
        (sym, odd, k, block_of[odd][k]) + margins_of[odd][k] for odd in (False, True) for k, sym in enumerate(syms[odd])
    ]
    for a, odd_a, i, block_a, lower_a, upper_a in factors:
        for b, odd_b, j, block_b, lower_b, upper_b in factors:
            found = _product(n, d, i, odd_a, j, odd_b)
            report.pairs_checked += 1
            odd = odd_a != odd_b
            if upper_a == lower_b:
                product: Optional[np.ndarray] = block_a @ block_b
                key = (lower_a, upper_b)
                if all(margins_of[odd][k] == key for k in found):
                    # every term lies on the product's block: compare in place
                    diff = product - sum(c * block_of[odd][k] for k, c in found.items())
                    if p:
                        diff %= p
                    if not diff.any():
                        continue
            elif not found or all(c % p == 0 if p else c == 0 for c in found.values()):
                continue
            else:
                product = None
            terms = {syms[odd][k]: c for k, c in found.items()}
            first = _first_difference(product, (lower_a, upper_b), terms, blocks, p)
            if first is not None:
                r, c2, got, want = first
                report.mismatches.append(
                    f"{a} * {b}: oracle and convolution disagree at matrix "
                    f"position ({r}, {c2}): {got} vs {want}"
                )
    return report
