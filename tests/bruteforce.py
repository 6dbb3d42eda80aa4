"""Independent brute-force reference computations for the test suite.

Everything here goes back to first definitions (ball configurations, pair
graphs, labelling signs) and deliberately avoids the convolution and matrix
code paths under test, so a match is evidence rather than tautology.
"""

import functools
import itertools
import json
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from altschur import BipartiteGraph, NonTransverseError, algebra, koszul, oracle, pair_graph
from altschur.algebra import (
    BasisSymbol,
    CheckReport,
    GradedElement,
    _left_dicts,
    _odd_margins,
    _product,
    _symbols,
    all_symbols,
    xi,
    zeta,
)
from altschur.enumeration import enum_B, enum_M, enum_N, graph_index, words_with_content
from altschur.fields import FieldSpec, Scalar
from altschur.graphs import Word, d_of, pair_sign, u_of
from altschur.linalg import QuotientSpace, SparseEchelon, SparseVec, add_scaled, combine, sparse_kernel
from altschur.oracle import VerifyReport


def kernel_value(elem: GradedElement, s_word: Word, u_word: Word) -> Scalar:
    """The integral kernel of ``elem`` evaluated at the configuration pair.

    Even symbols contribute their coefficient when the pair graph matches;
    odd symbols contribute the coefficient times the ball-labelling sign (and
    nothing at non-transverse pairs, where no simple graph can match).
    """
    f = elem.field
    g = pair_graph(s_word, u_word, elem.n)
    total = f.zero
    for sym, c in elem.terms.items():
        if sym.graph != g:
            continue
        if sym.is_odd:
            total = f.add(total, f.mul(f.from_int(pair_sign(s_word, u_word)), c))
        else:
            total = f.add(total, c)
    return total


def convolution_value(
    x: GradedElement, y: GradedElement, s_word: Word, u_word: Word
) -> Scalar:
    """Sum over all middle configurations T of kernel(x)(S,T) * kernel(y)(T,U)."""
    f = x.field
    total = f.zero
    for t_word in enum_B(x.n, x.d):
        total = f.add(
            total, f.mul(kernel_value(x, s_word, t_word), kernel_value(y, t_word, u_word))
        )
    return total


def all_pairs_realizing(g: BipartiteGraph, n: int, d: int) -> List[Tuple[Word, Word]]:
    """Every configuration pair whose pair graph is ``g``, by exhaustion."""
    return [
        (s, u)
        for s in enum_B(n, d)
        for u in enum_B(n, d)
        if pair_graph(s, u, n) == g
    ]


def latin_count(n: int) -> int:
    """Number of n x n Latin squares, by row-wise backtracking.

    Rows are permutations of 1..n; a partial square extends by any row that
    avoids repeating an entry in every column.
    """
    rows = list(itertools.permutations(range(1, n + 1)))
    count = 0

    def extend(chosen: List[Tuple[int, ...]]) -> None:
        nonlocal count
        if len(chosen) == n:
            count += 1
            return
        for row in rows:
            if all(row[j] != prev[j] for prev in chosen for j in range(n)):
                chosen.append(row)
                extend(chosen)
                chosen.pop()

    extend([])
    return count


def convolve_by_words(
    g1: BipartiteGraph, g2: BipartiteGraph, odd1: bool, odd2: bool
) -> Dict[BipartiteGraph, int]:
    """Structure constants of (g1 symbol) * (g2 symbol) by walking words.

    Fix the sorted word S with the lower degrees of g1.  Every middle word T
    with pair graph (S, T) = g1 is built by scattering each box of S along a
    column of g1, and every U with pair graph (T, U) = g2 likewise; the
    product kernel at (S, U) sums the signed products over T.  The
    coefficient of a target is the kernel value at any pair realizing it,
    times the ball sign for odd targets.  Every realizing pair is read, and
    a disagreement between two of them, or a non-zero odd kernel value at a
    non-transverse pair, raises ``RuntimeError``.  The margins must match.
    """
    d = g1.degree
    mu = g1.lower_degrees
    s_word: Word = tuple(j for j in range(1, g1.n_down + 1) for _ in range(mu[j - 1]))
    s_boxes: List[List[int]] = []
    pos = 0
    for part in mu:
        s_boxes.append(list(range(pos, pos + part)))
        pos += part

    t_choices = [
        words_with_content(tuple(g1.adj[i][j] for i in range(g1.n_up))) for j in range(g1.n_down)
    ]
    u_choices = [
        words_with_content(tuple(g2.adj[i][j] for i in range(g2.n_up))) for j in range(g2.n_down)
    ]

    entries: Dict[Word, int] = {}
    t_buf = [0] * d
    u_buf = [0] * d
    for t_combo in itertools.product(*t_choices):
        for balls, assignment in zip(s_boxes, t_combo):
            for ball, box in zip(balls, assignment):
                t_buf[ball] = box
        t_word = tuple(t_buf)
        sign1 = pair_sign(s_word, t_word) if odd1 else 1
        t_boxes: List[List[int]] = [[] for _ in range(g1.n_up)]
        for ball, box in enumerate(t_word):
            t_boxes[box - 1].append(ball)
        for u_combo in itertools.product(*u_choices):
            for balls, assignment in zip(t_boxes, u_combo):
                for ball, box in zip(balls, assignment):
                    u_buf[ball] = box
            u_word = tuple(u_buf)
            sign = sign1 * pair_sign(t_word, u_word) if odd2 else sign1
            entries[u_word] = entries.get(u_word, 0) + sign

    odd_target = odd1 != odd2
    coeffs: Dict[BipartiteGraph, int] = {}
    for u_word, entry in entries.items():
        target = pair_graph(s_word, u_word, g1.n_down, g2.n_up)
        if odd_target and not target.is_simple():
            if entry != 0:
                raise RuntimeError(
                    "convention breach: odd product has a non-zero kernel value "
                    f"at a non-transverse pair (target {target})"
                )
            continue
        coeff = entry * pair_sign(s_word, u_word) if odd_target else entry
        if target in coeffs:
            if coeffs[target] != coeff:
                raise RuntimeError(
                    "convention breach: kernel values disagree across pairs "
                    f"realizing {target}: {coeffs[target]} vs {coeff}"
                )
        else:
            coeffs[target] = coeff
    return {g: c for g, c in coeffs.items() if c}


def dense_rref(
    rows: Sequence[Sequence[Scalar]], ncols: int, field: FieldSpec
) -> Tuple[List[List[Scalar]], List[int]]:
    """Gauss–Jordan reduced row-echelon form and the list of pivot columns.

    Dense and column by column, sharing no code with the sparse echelon:
    within each column the first remaining row (top to bottom) with a
    non-zero entry is the pivot; pivots are normalized to 1 and cleared from
    every other row.
    """
    f = field
    rows = [list(row) for row in rows]
    nrows = len(rows)
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        sel = next((i for i in range(r, nrows) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                coef = rows[i][c]
                rows[i] = [f.sub(x, f.mul(coef, p)) for x, p in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return rows, pivots


def dense_kernel(rows: Sequence[Sequence[Scalar]], ncols: int, field: FieldSpec) -> List[List[Scalar]]:
    """Basis of ``{v : rows @ v = 0}`` read off :func:`dense_rref`: one
    vector per free column in increasing order, free coordinate 1."""
    f = field
    red, pivots = dense_rref(rows, ncols, f)
    basis: List[List[Scalar]] = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [f.zero] * ncols
        v[free] = f.one
        for r, p in enumerate(pivots):
            if red[r][free]:
                v[p] = f.neg(red[r][free])
        basis.append(v)
    return basis


def densify(columns: Sequence[Dict[int, Scalar]], nrows: int, field: FieldSpec) -> List[List[Scalar]]:
    """Dense rows of a map given as sparse columns (column i = image of e_i)."""
    return [[col.get(r, field.zero) for col in columns] for r in range(nrows)]


def dense_matmul(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]], field: FieldSpec) -> List[List[Scalar]]:
    """Row-by-column product of dense matrices (zero entries of ``a`` skipped)."""
    f = field
    out = [[f.zero] * (len(b[0]) if b else 0) for _ in a]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            if x:
                out[i] = [f.add(o, f.mul(x, y)) for o, y in zip(out[i], b[k])]
    return out


def dense_product_failure(
    n: int,
    d: int,
    field: FieldSpec,
    pairs: Iterable[Tuple[int, int]],
    left: Sequence[Sequence[Dict[int, Scalar]]],
    left_odd: bool,
    right: Sequence[Sequence[Dict[int, Scalar]]],
    right_odd: bool,
    target: Sequence[Sequence[Dict[int, Scalar]]],
) -> Optional[Tuple[int, int]]:
    """First pair (i, j) where the dense product of the densified maps
    left[i] and right[j] differs from sum_g c_g target[g], with the
    coefficients c_g of the product of the two basis symbols taken from
    :func:`convolve_by_words` (zero when the margins do not match); None if
    every pair agrees."""
    f = field
    Ms, Ns = enum_M(n, d), enum_N(n, d)
    index = graph_index("N" if left_odd != right_odd else "M", n, d)
    for i, j in pairs:
        dim = len(right[j])
        lhs = dense_matmul(densify(left[i], dim, f), densify(right[j], dim, f), f)
        rhs = [[f.zero] * dim for _ in range(dim)]
        g, h = (Ns if left_odd else Ms)[i], (Ns if right_odd else Ms)[j]
        product = convolve_by_words(g, h, left_odd, right_odd) if g.upper_degrees == h.lower_degrees else {}
        for s, c in product.items():
            term = densify(target[index[s]], dim, f)
            rhs = [[f.add(x, f.mul(f.from_int(c), y)) for x, y in zip(r1, r2)] for r1, r2 in zip(rhs, term)]
        if lhs != rhs:
            return i, j
    return None


# An iterated hom-space solver: it cuts the space down one pair at a time, so
# it checks the one-shot kernels of altschur.koszul by a different order of
# work.
def intertwiner_space(
    pairs: Sequence[Tuple[Sequence[SparseVec], Sequence[SparseVec]]],
    nrows: int,
    ncols: int,
    field: FieldSpec,
) -> List[SparseVec]:
    """Joint solution space ``{V in F^{nrows x ncols} : P V = V Q for all (P, Q)}``.

    ``P`` and ``Q`` are given as lists of sparse columns.  Returns sparse
    vectors over row-major coordinates ``r * ncols + c``.  The space is cut
    down one constraint at a time; constraints are imposed in order of
    increasing support so that near-diagonal ones (whose kernels are
    coordinate subspaces) collapse the dimension early.  Starting from the
    unit basis, each pair maps the current basis through ``V -> P V - V Q``
    and keeps the combinations in the kernel.  Every pair is imposed, none
    is assumed redundant.
    """

    def nnz(columns: Sequence[SparseVec]) -> int:
        return sum(len(col) for col in columns)

    order = sorted(range(len(pairs)), key=lambda i: (nnz(pairs[i][0]) + nnz(pairs[i][1]), i))
    f = field
    basis: List[SparseVec] = [{c: f.one} for c in range(nrows * ncols)]

    for idx in order:
        p_cols, q_cols = pairs[idx]
        q_rows: List[SparseVec] = [{} for _ in range(ncols)]
        for c, col in enumerate(q_cols):
            for k, v in col.items():
                q_rows[k][c] = v

        def constraint_image(vec: SparseVec) -> SparseVec:
            # image coordinate (r, c): sum_k P[r,k] V[k,c] - sum_k V[r,k] Q[k,c]
            out: SparseVec = {}
            for coord, val in vec.items():
                k, c = divmod(coord, ncols)
                add_scaled(out, val, {r * ncols + c: pv for r, pv in p_cols[k].items()}, f)
                add_scaled(out, f.neg(val), {k * ncols + c2: qv for c2, qv in q_rows[c].items()}, f)
            return out

        # kernel of the (output coords) x len(basis) sparse system
        rows_by_out: Dict[int, SparseVec] = {}
        for col, b in enumerate(basis):
            for out_coord, val in constraint_image(b).items():
                rows_by_out.setdefault(out_coord, {})[col] = val
        basis = [combine(basis, combo, f) for combo in sparse_kernel(rows_by_out.values(), len(basis), f)]
        if not basis:
            return []
    return basis


@functools.lru_cache(maxsize=None)
def dense_operators(n: int, d: int) -> Dict[BasisSymbol, np.ndarray]:
    """The dense n^d x n^d kernel matrix of every basis symbol, read off the
    pair graph of every configuration pair (rows S, columns U, ``enum_B``
    order).  Cached; callers must not mutate the matrices."""
    words = list(enum_B(n, d))
    size = len(words)
    mats = {sym: np.zeros((size, size), dtype=np.int64) for sym in all_symbols(n, d)}
    for r, s_word in enumerate(words):
        for c, u_word in enumerate(words):
            g = pair_graph(s_word, u_word, n)
            mats[xi(g)][r, c] = 1
            if g.is_simple():
                mats[zeta(g)][r, c] = pair_sign(s_word, u_word)
    return mats


def dense_verify_table(
    n: int,
    d: int,
    field: FieldSpec,
    pairs: Optional[Iterable[Tuple[BasisSymbol, BasisSymbol]]] = None,
) -> VerifyReport:
    """The all-pairs dense matrix oracle: for every ordered pair (or only the
    given ``pairs``), multiply the two dense kernel matrices and compare with
    the combination the structure constants dictate, entrywise mod p over
    GF(p).  The constants are read by index from ``oracle._product`` at
    call time, so a test that patches them there patches both oracles."""
    by_parity = _symbols(n, d)
    factors = [(sym, odd, k) for odd in (False, True) for k, sym in enumerate(by_parity[odd])]
    mats = dense_operators(n, d)
    wanted = None if pairs is None else set(pairs)
    p = field.characteristic
    report = VerifyReport(n, d, field.label, 0)
    for a, a_odd, i in factors:
        ma = mats[a]
        for b, b_odd, j in factors:
            if wanted is not None and (a, b) not in wanted:
                continue
            prod = ma @ mats[b]
            expected = np.zeros_like(prod)
            target = by_parity[a_odd != b_odd]
            for k, c in oracle._product(n, d, i, a_odd, j, b_odd).items():
                expected += c * mats[target[k]]
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


def delta_check(g: BipartiteGraph) -> CheckReport:
    """All-pairs reference for ``algebra.delta_check``: the coefficient of
    ζ(u_of(g)) in ξ_{g'} · ζ(d_of(g)*), convolved anew for every g' and
    every g, must be 1 when g' = g and 0 otherwise.  Reads
    ``algebra.structure_constants`` at call time, so a patch reaches it."""
    n, d = g.n_up, g.degree
    probe = zeta(d_of(g).star())
    target = zeta(u_of(g))
    failures = []
    for other in enum_M(n, d):
        coeff = algebra.structure_constants(xi(other), probe).get(target, 0)
        want = 1 if other == g else 0
        if coeff != want:
            failures.append(f"coefficient at g'={other} is {coeff}, expected {want}")
    return CheckReport(not failures, failures)


def delta_suite(n: int, d: int) -> Tuple[bool, int, str]:
    """The ``verify`` delta suite's (ok, checks, detail), one
    :func:`delta_check` per graph of M(n, d) in ``enum_M`` order."""
    if n < d:
        return True, 0, ""
    checks = 0
    for g in enum_M(n, d):
        report = delta_check(g)
        if not report.ok:
            return False, checks, f"delta reading fails on {g}: {report.failures[0]}"
        checks += 1
    return True, checks, ""


def table_json(table: Dict[Tuple[BasisSymbol, BasisSymbol], Dict[BasisSymbol, int]], n: int, d: int) -> str:
    """The canonical JSON text of a product table, built as nested dicts and
    serialised by one ``json.dumps(..., sort_keys=True)`` call: entries sorted
    by (left, right) and terms by symbol, both in ``sort_key`` order."""
    key = {s: s.sort_key() for pair, terms in table.items() for s in (*pair, *terms)}
    as_json = {s: s.to_json_dict() for s in key}
    entries = [
        {
            "left": as_json[a],
            "right": as_json[b],
            "terms": [[as_json[s], c] for s, c in sorted(terms.items(), key=lambda kv: key[kv[0]])],
        }
        for (a, b), terms in sorted(table.items(), key=lambda kv: (key[kv[0][0]], key[kv[0][1]]))
    ]
    return json.dumps({"n": n, "d": d, "entries": entries}, separators=(",", ":"), sort_keys=True)


# The relation systems of phi and psi over every weight block, on every
# coordinate that the diagonal relations leave, numbered here and generated
# by a ρ(g) loop of this module's own from the integer tables.  The block
# solver is checked against one echelon of all of these rows.
def phi_coordinates(n: int, d: int) -> List[Tuple[int, int]]:
    """The tensor coordinates ζ_a ⊗ ζ_b that the diagonal relations leave,
    those with upper(a) = lower(b), in increasing (a, b) order."""
    lower, upper = _odd_margins(n, d)
    return [(a, b) for a in range(len(upper)) for b in range(len(lower)) if upper[a] == lower[b]]


def commutant_coordinates(n: int, d: int) -> List[Tuple[int, int]]:
    """The entries θ[c, a] that commuting with the diagonal idempotents
    leaves free, those with upper(c) = upper(a), as the tensor coordinates
    (a, c), in increasing order."""
    upper = _odd_margins(n, d)[1]
    return [(a, c) for a in range(len(upper)) for c in range(len(upper)) if upper[a] == upper[c]]


def _relation_rows(
    n: int, d: int, right: Dict[int, Dict[int, Dict[int, int]]], left: Dict[int, Dict[int, Dict[int, int]]],
    coordinates: List[Tuple[int, int]],
) -> Iterator[Dict[int, int]]:
    """ρ(g) = (x ξ_g) ⊗ y − x ⊗ (ξ_g y) for every off-diagonal generator g
    and every pair (x, y) of odd indices with x ξ_g or ξ_g y non-zero, as
    integer rows over the numbering of ``coordinates``: ``right[g]`` maps x
    to the column of x ξ_g and ``left[g]`` maps y to that of ξ_g y.  The
    coordinates outside the list are killed by the diagonal relations and
    dropped, and a row left empty is skipped."""
    index = {pair: k for k, pair in enumerate(coordinates)}
    every = range(len(enum_N(n, d)))
    for g in koszul._generators(n, d):
        acting = right[g]
        pairs = [(x, y) for x in acting for y in every] + [(x, y) for y in left[g] for x in every if x not in acting]
        for x, y in pairs:
            row: Dict[int, int] = {}
            for c, v in acting.get(x, {}).items():
                if (c, y) in index:
                    row[index[c, y]] = row.get(index[c, y], 0) + v
            for c, v in left[g].get(y, {}).items():
                if (x, c) in index:
                    row[index[x, c]] = row.get(index[x, c], 0) - v
            row = {k: v for k, v in row.items() if v}
            if row:
                yield row


def right_table(n: int, d: int) -> Tuple[Dict[int, Dict[int, int]], ...]:
    """Per even index g: {a: {c: coefficient of ζ_c in ζ_a ξ_g}} over the odd
    a with a non-zero product, read pair by pair through ``_product``."""
    nN = len(enum_N(n, d))
    return tuple(
        {a: col for a in range(nN) for col in [_product(n, d, a, True, g, False)] if col}
        for g in range(len(enum_M(n, d)))
    )


def phi_relation_rows(n: int, d: int) -> Iterator[Dict[int, int]]:
    """phi's relations: ρ(g) on ζ_a ⊗ ζ_b over :func:`phi_coordinates`."""
    return _relation_rows(n, d, right_table(n, d), _left_dicts(n, d), phi_coordinates(n, d))


def zeta_zeta_image(n: int, d: int, pairs: Iterable[Tuple[int, int]], field: FieldSpec) -> int:
    """The rank over ``field`` of phi's product map ζ_a ⊗ ζ_b ↦ ζ_a ζ_b on
    the tensor coordinates ``pairs``, one row per pair: the expansion of
    ζ_a ζ_b over the even basis, read off the ζ·ζ table."""
    ech = SparseEchelon(field)
    for a, b in pairs:
        ech.add_row({h: field.from_int(v) for h, v in _product(n, d, a, True, b, True).items()})
    return ech.rank


def psi_kernel_rows(n: int, d: int) -> List[Dict[int, int]]:
    """One row per matrix entry (c, a) of the stacked left-multiplication
    matrices; columns are even basis indices."""
    rows: Dict[Tuple[int, int], Dict[int, int]] = {}
    for gi, per in enumerate(_left_dicts(n, d)):
        for a, col in per.items():
            for c, v in col.items():
                rows.setdefault((c, a), {})[gi] = v
    return [rows[key] for key in sorted(rows)]


def commutant_rows(n: int, d: int) -> Iterator[Dict[int, int]]:
    """Constraint rows of θ·R_g = R_g·θ over :func:`commutant_coordinates`:
    ρ(g) with θ[c, a] as the tensor coordinate (a, c), R_g acting on a from
    the right and its transpose on c."""
    right = right_table(n, d)
    transposed: Dict[int, Dict[int, Dict[int, int]]] = {}
    for g in koszul._generators(n, d):
        rows = transposed[g] = {}
        for a, col in right[g].items():
            for c, v in col.items():
                rows.setdefault(c, {})[a] = v
    return _relation_rows(n, d, right, transposed, commutant_coordinates(n, d))


# The relations of D, η and the hom spaces over the whole ambient space, as
# altschur.koszul generated them before it kept to the weight-matched
# coordinates: ρ(g) for every generator g, the diagonal idempotents
# included, on every pair (x, y), over the coordinates x * ny + y.  The
# matched-only functors are checked against these, which assume no weight
# basis.
def _every_generator(n: int, d: int) -> List[int]:
    """The divided powers and the diagonal idempotents, in enum_M order."""
    return sorted((*koszul._generators(n, d), *koszul._diag_indices(n, d)))


def ambient_rows(
    n: int, d: int, right: Dict[int, Dict[int, SparseVec]], left: Sequence[Sequence[SparseVec]], nx: int, ny: int,
    field: FieldSpec,
) -> Iterator[SparseVec]:
    """ρ(g) = (x ξ_g) ⊗ y − x ⊗ (ξ_g y) over x * ny + y for every generator g
    and every 1_λ: ``right[g]`` maps x to the column of x ξ_g, ``left[g]``
    is the map of ξ_g on the y side.  A pair with x ξ_g = 0 and ξ_g y = 0
    gives the zero row and is skipped."""
    for g in _every_generator(n, d):
        acted = [y for y in range(ny) if left[g][y]]
        for x in range(nx):
            xg = right[g].get(x, {})
            for y in range(ny) if xg else acted:
                row: SparseVec = {c * ny + y: v for c, v in xg.items()}
                for c, v in left[g][y].items():
                    k = x * ny + c
                    row[k] = field.sub(row[k], v) if k in row else field.neg(v)
                row = {k: v for k, v in row.items() if v}
                if row:
                    yield row


def _dual_right(n: int, d: int, field: FieldSpec) -> Dict[int, Dict[int, SparseVec]]:
    """ζ_a ↦ ζ_a ξ_g for every generator and 1_λ, coerced into ``field``."""
    right = right_table(n, d)
    return {
        g: {a: {c: field.from_int(v) for c, v in col.items() if field.from_int(v)} for a, col in right[g].items()}
        for g in _every_generator(n, d)
    }


def ambient_dual(M: "koszul.SModule") -> Tuple[List[Tuple[int, int]], List[List[SparseVec]]]:
    """D(M) from the whole-ambient relations: its basis as the pairs (a, i)
    of its lifts ζ_a ⊗ v_i, and its action."""
    n, d, f, dim = M.n, M.d, M.field, M.dim
    nN = len(enum_N(n, d))
    quotient = QuotientSpace(f, nN * dim, ambient_rows(n, d, _dual_right(n, d, f), M.action, nN, dim, f))
    basis = [divmod(c, dim) for c in quotient.basis_coords]
    action = [
        [
            quotient.project({c * dim + i: f.from_int(v) for c, v in algebra._product(n, d, g, False, a, True).items()})
            for a, i in basis
        ]
        for g in range(len(enum_M(n, d)))
    ]
    return basis, action


def ambient_eta(M: "koszul.SModule") -> List[SparseVec]:
    """The columns of η: D²(M) → M from the whole-ambient relations, after
    checking that η kills every one of D²'s."""
    n, d, f, dim = M.n, M.d, M.field, M.dim
    nN = len(enum_N(n, d))
    basis1, action1 = ambient_dual(M)
    D1 = koszul.SModule(n, d, f, len(basis1), action1, validate="none")
    basis2, _ = ambient_dual(D1)

    def column(b: int, k: int) -> SparseVec:
        a, i = basis1[k]
        col: SparseVec = {}
        for h, c in algebra._product(n, d, b, True, a, True).items():
            add_scaled(col, f.from_int(c), M.action[h][i], f)
        return col

    for row in ambient_rows(n, d, _dual_right(n, d, f), D1.action, nN, D1.dim, f):
        acc: SparseVec = {}
        for coord, v in row.items():
            add_scaled(acc, v, column(*divmod(coord, D1.dim)), f)
        assert not acc, "eta does not vanish on the ambient relations"
    return [column(b, k) for b, k in basis2]


def _rows_of(columns: Iterable[Tuple[int, Dict[int, Scalar]]]) -> Dict[int, Dict[int, Scalar]]:
    """The rows {r: {c: entry}} of a map given by its (c, column c) pairs."""
    rows: Dict[int, Dict[int, Scalar]] = {}
    for c, col in columns:
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    return rows


def ambient_hom_vectors(source: "koszul.SModule", target: "koszul.SModule") -> List[Dict[Tuple[int, int], Scalar]]:
    """The canonical basis of Hom_S(source, target) from the whole-ambient
    rows (A_g V − V B_g)[r, c], each as a sparse matrix {(r, c): entry}."""
    n, d, f = source.n, source.d, source.field
    right = {g: _rows_of(enumerate(target.action[g])) for g in _every_generator(n, d)}
    rows = ambient_rows(n, d, right, source.action, target.dim, source.dim, f)
    kernel = sparse_kernel(rows, target.dim * source.dim, f)
    return [{divmod(k, source.dim): v for k, v in vec.items()} for vec in kernel]


def ambient_ringel_action(M: "koszul.SModule") -> List[List[SparseVec]]:
    """The action of Hom_S(S⁻, M) on the whole-ambient hom basis, ξ_g acting
    by precomposition with right multiplication by ξ_g."""
    n, d, f = M.n, M.d, M.field
    basis = ambient_hom_vectors(koszul.odd_smodule(n, d, f), M)
    keys = [max(h) for h in basis]
    action = []
    for per in right_table(n, d):
        # (h ∘ R_g)[r, a] = sum_k h[r, k] (coefficient of ζ_k in ζ_a ξ_g)
        right_g = _rows_of(per.items())
        cols = []
        for h in basis:
            image: Dict[Tuple[int, int], Scalar] = {}
            for (r, k), val in h.items():
                add_scaled(image, val, {(r, a): f.from_int(v) for a, v in right_g.get(k, {}).items()}, f)
            cols.append({j: image[key] for j, key in enumerate(keys) if key in image})
            assert combine(basis, cols[-1], f) == dict(sorted(image.items()))
        action.append(cols)
    return action
