"""Exact linear algebra: maps as sparse columns, dense report matrices,
sparse elimination, kernels and quotients, and the iterated hom-space
reference of bruteforce."""

import random
from fractions import Fraction

import pytest

from altschur import GF, QQ
from altschur.linalg import (
    ExactMatrix,
    QuotientSpace,
    SparseEchelon,
    add_scaled,
    compose,
    rref_sparse,
    sparse_kernel,
)

from bruteforce import dense_kernel, dense_matmul, dense_rref, densify, intertwiner_space

FIELDS = [QQ, GF(5)]


# -- dense rank / kernel ------------------------------------------------------


def test_rank_identity():
    assert ExactMatrix.from_rows(QQ, [[1, 0], [0, 1]]).rank() == 2


def test_rank_zero_matrix():
    assert ExactMatrix.zeros(QQ, 3, 4).rank() == 0


def test_rank_dependent_rows():
    m = ExactMatrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert m.rank() == 1


def test_kernel_identity_empty():
    assert sparse_kernel(sparse_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3, QQ) == []


def test_kernel_single_row():
    (vec,) = sparse_kernel(sparse_rows([[1, 1]]), 2, QQ)
    assert vec[0] * Fraction(-1) == vec[1]


def test_rational_elimination_of_int_rows_stays_exact():
    """Rows with plain int entries over Q reduce to Fraction values only."""
    kernel = sparse_kernel([{0: 1, 1: 3}], 2, QQ)
    assert kernel == [{1: 1, 0: -3}]
    assert all(type(x) is Fraction for vec in kernel for x in vec.values())
    ech = SparseEchelon(QQ)
    assert ech.add_row({0: 3, 1: 1})
    assert ech.pivot_rows == {0: {0: 1, 1: Fraction(1, 3)}}
    assert all(type(x) is Fraction for row in ech.pivot_rows.values() for x in row.values())


def test_kernel_dependent_rows():
    (vec,) = sparse_kernel(sparse_rows([[1, 2], [2, 4]]), 2, QQ)
    # proportional to (2, -1)
    assert vec[0] * Fraction(-1, 2) == vec[1]


@pytest.mark.parametrize("field", FIELDS)
def test_rank_plus_nullity(field):
    rng = random.Random(11)
    for _ in range(10):
        rows = [[rng.randrange(-4, 5) for _ in range(7)] for _ in range(5)]
        m = ExactMatrix.from_rows(field, rows)
        kernel = sparse_kernel([{j: x for j, x in enumerate(row) if x} for row in m.rows], 7, field)
        assert m.rank() + len(kernel) == 7
        for vec in kernel:
            assert compose(columns(m.rows, field), [vec], field) == [{}]


def test_rank_invariant_under_permutation():
    rng = random.Random(12)
    rows = [[rng.randrange(-3, 4) for _ in range(5)] for _ in range(5)]
    base = ExactMatrix.from_rows(QQ, rows).rank()
    for _ in range(6):
        rp = rows[:]
        rng.shuffle(rp)
        cols = list(range(5))
        rng.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in rp]
        assert ExactMatrix.from_rows(QQ, shuffled).rank() == base


def test_rank_wraps_mod_p():
    # determinant 3, so singular exactly over GF(3)
    m = [[2, 1], [1, 2]]
    assert ExactMatrix.from_rows(GF(3), m).rank() == 1
    assert ExactMatrix.from_rows(QQ, m).rank() == 2


# -- maps as sparse columns, dense report matrices ---------------------------


def columns(rows, field):
    """Sparse columns of a dense matrix given by rows."""
    ncols = len(rows[0]) if rows else 0
    return [{i: field.from_int(row[j]) for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def test_matmul_and_inverse():
    a = columns([[2, 1, 0], [0, 1, 0], [1, 0, 1]], QQ)
    half = Fraction(1, 2)
    inv = columns([[half, -half, 0], [0, 1, 0], [-half, half, 1]], QQ)
    eye = [{k: QQ.one} for k in range(3)]
    assert compose(a, inv, QQ) == eye
    assert compose(inv, a, QQ) == eye


def test_from_columns_empty_needs_nrows():
    m = ExactMatrix.from_columns(QQ, [], nrows=3)
    assert m.shape == (3, 0)


def test_zero_row_matrices_keep_their_column_count():
    assert ExactMatrix.zeros(QQ, 0, 3).shape == (0, 3)
    assert ExactMatrix.from_columns(QQ, [{}, {}, {}], nrows=0).shape == (0, 3)
    assert ExactMatrix.zeros(QQ, 0, 3) == ExactMatrix.from_columns(QQ, [{}, {}, {}], nrows=0)
    assert ExactMatrix.zeros(QQ, 0, 3) != ExactMatrix.zeros(QQ, 0, 0)
    assert ExactMatrix.from_rows(QQ, [[1, 2, 3]]).shape == (1, 3)


def test_from_columns_densifies_sparse_columns():
    m = ExactMatrix.from_columns(QQ, [{0: QQ.one}, {}, {1: QQ.from_int(5)}], nrows=2)
    assert m == ExactMatrix.from_rows(QQ, [[1, 0, 0], [0, 0, 5]])


def test_add_scaled_drops_cancelled_entries():
    for field in FIELDS:
        acc = {0: field.one, 2: field.from_int(3)}
        add_scaled(acc, field.from_int(-1), {0: field.one, 1: field.from_int(2)}, field)
        assert acc == {2: field.from_int(3), 1: field.from_int(-2)}
    acc = {0: 1}
    add_scaled(acc, 1, {0: 4}, GF(5))
    assert acc == {}


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
def test_compose_matches_dense_reference(field):
    """Sparse composition and application against dense products: zero-free
    columns with rows in increasing order, equal to the dense product."""
    rng = random.Random(35)
    for k in range(40):
        # dense rows cannot carry the column count of a matrix without rows
        n1, n2, n3 = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(0, 6)
        a = random_rows(rng, field, n1, n2, rank=rng.randrange(0, min(n1, n2) + 1) if k % 2 else None)
        b = random_rows(rng, field, n2, n3)
        got = compose(columns(a, field), columns(b, field), field)
        for col in got:
            assert all(col.values()) and list(col) == sorted(col)
        assert densify(got, n1, field) == dense_matmul(a, b, field)


# -- sparse elimination -------------------------------------------------------


def sparse_rows(rows):
    return [{j: QQ.from_int(x) for j, x in enumerate(row) if x} for row in rows]


def test_sparse_echelon_matches_dense_rank():
    rng = random.Random(21)
    rows = [[rng.randrange(-3, 4) for _ in range(6)] for _ in range(8)]
    ech = SparseEchelon(QQ)
    for row in sparse_rows(rows):
        ech.add_row(row)
    assert ech.rank == ExactMatrix.from_rows(QQ, rows).rank()
    # a dependent row reduces to nothing
    combo = {
        j: QQ.add(QQ.from_int(rows[0][j]), QQ.from_int(rows[1][j])) for j in range(6)
    }
    assert ech.reduce({j: v for j, v in combo.items() if v}) == {}


def test_rref_sparse_is_fully_reduced():
    rows = sparse_rows([[1, 2, 3], [2, 4, 7], [0, 1, 1]])
    reduced = rref_sparse(rows, QQ)
    pivots = set(reduced)
    for p, row in reduced.items():
        assert row[p] == QQ.one
        assert all(q == p for q in row if q in pivots)
    # span preserved: every original row eliminates to zero
    ech = SparseEchelon(QQ)
    for p, row in reduced.items():
        ech.add_row(dict(row))
    for row in rows:
        assert ech.reduce(dict(row)) == {}


def test_sparse_kernel_annihilates_and_counts():
    rows = sparse_rows([[1, 1, 0, 0], [0, 1, 1, 0]])
    kernel = sparse_kernel(rows, 4, QQ)
    assert len(kernel) == 2
    for vec in kernel:
        for row in rows:
            total = QQ.zero
            for j, v in row.items():
                total = QQ.add(total, QQ.mul(v, vec.get(j, QQ.zero)))
            assert total == QQ.zero


def test_sparse_kernel_untouched_columns_fast_path():
    # two constraints in a 1000-dim ambient: 998 of the basis vectors are units
    rows = [{0: QQ.one, 1: QQ.one}, {1: QQ.one, 2: QQ.from_int(-1)}]
    kernel = sparse_kernel(rows, 1000, QQ)
    assert len(kernel) == 998
    units = [v for v in kernel if len(v) == 1]
    assert len(units) == 997  # every coordinate >= 3, and one inside the corner


# -- quotients ----------------------------------------------------------------


def test_quotient_dim_examples():
    assert QuotientSpace(QQ, 4, []).dim == 4
    e1, e2 = {0: QQ.one}, {1: QQ.one}
    assert QuotientSpace(QQ, 2, [e1, e2]).dim == 0
    rels = sparse_rows([[1, 1, 0], [0, 1, 1], [1, 2, 1]])
    assert QuotientSpace(QQ, 3, rels).dim == 1


def test_quotient_space_projection():
    rels = sparse_rows([[1, 1, 0], [0, 1, 1]])
    q = QuotientSpace(QQ, 3, rels)
    assert q.dim == 1
    # relations project to zero
    for rel in rels:
        assert q.project(rel) == {}
    # a basis coordinate's unit vector projects to its basis vector
    for k in range(q.dim):
        assert q.project({q.basis_coords[k]: QQ.one}) == {k: QQ.one}
    # e0 = -e1 = e2 in the quotient
    assert q.project({0: QQ.one}) == q.project({2: QQ.one})
    assert q.project({0: QQ.one}) == {k: QQ.neg(c) for k, c in q.project({1: QQ.one}).items()}


def test_quotient_space_no_relations():
    q = QuotientSpace(QQ, 3, [])
    assert q.dim == 3
    assert q.project({1: QQ.from_int(5), 2: QQ.zero}) == {1: QQ.from_int(5)}


# -- the iterated hom-space reference of bruteforce ----------------------------------


def test_intertwiner_identity_constraint_is_vacuous():
    eye = columns([[1, 0], [0, 1]], QQ)
    space = intertwiner_space([(eye, eye)], 2, 2, QQ)
    assert len(space) == 4


def test_intertwiner_diagonal_constraint():
    a = columns([[1, 0], [0, 2]], QQ)
    b = columns([[1, 0], [0, 3]], QQ)
    space = intertwiner_space([(a, b)], 2, 2, QQ)
    assert len(space) == 1
    assert space[0] == {0: QQ.one}  # only the (0,0) entry survives


def test_intertwiner_commutant_of_swap():
    swap = columns([[0, 1], [1, 0]], QQ)
    space = intertwiner_space([(swap, swap)], 2, 2, QQ)
    # commutant of a transposition: span{I, swap}
    assert len(space) == 2
    for vec in space:
        v = [vec.get(k, QQ.zero) for k in range(4)]
        assert v[0] == v[3] and v[1] == v[2]


def test_intertwiner_incompatible_pair_is_empty():
    a = columns([[0, 1], [0, 0]], QQ)
    zero = columns([[0, 0], [0, 0]], QQ)
    eye = columns([[1, 0], [0, 1]], QQ)
    # V must satisfy A V = 0 and V = V, i.e. rows of V in kernel of A...
    space = intertwiner_space([(a, zero), (eye, eye)], 2, 2, QQ)
    for vec in space:
        # A V = 0 forces the second row of V to vanish
        assert all(k < 2 for k in vec)


# -- the elimination core against the dense reference ------------------------------

REF_FIELDS = [QQ, GF(3), GF(5)]


def combine(field, coeffs, vectors, ncols):
    out = [field.zero] * ncols
    for c, vec in zip(coeffs, vectors):
        for j, x in enumerate(vec):
            out[j] = field.add(out[j], field.mul(c, x))
    return out


def random_rows(rng, field, nrows, ncols, rank=None):
    """Sparse-ish random entries; with ``rank``, the product of an
    nrows x rank and a rank x ncols random factor (rank at most ``rank``)."""
    if rank is not None:
        factor = random_rows(rng, field, rank, ncols)
        return [combine(field, row, factor, ncols) for row in random_rows(rng, field, nrows, rank)]
    return [[field.from_int(rng.choice([0, 0, 0, 1, -1, 2, -3])) for _ in range(ncols)] for _ in range(nrows)]


def random_systems(field, seed, count=40):
    rng = random.Random(seed)
    for k in range(count):
        nrows, ncols = rng.randrange(0, 8), rng.randrange(1, 9)
        rank = rng.randrange(0, min(nrows, ncols) + 1) if k % 2 else None
        yield random_rows(rng, field, nrows, ncols, rank), ncols


def to_sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


@pytest.mark.parametrize("field", REF_FIELDS)
def test_rank_matches_dense_reference(field):
    deficient = 0
    for rows, ncols in random_systems(field, 31):
        rank = ExactMatrix(field, rows).rank()
        assert rank == len(dense_rref(rows, ncols, field)[1])
        deficient += rank < min(len(rows), ncols)
    assert deficient >= 10


@pytest.mark.parametrize("field", REF_FIELDS)
def test_rref_sparse_matches_dense_reference(field):
    for rows, ncols in random_systems(field, 32):
        red, pivots = dense_rref(rows, ncols, field)
        expected = {p: to_sparse(red[r]) for r, p in enumerate(pivots)}
        assert rref_sparse([to_sparse(row) for row in rows], field) == expected


@pytest.mark.parametrize("field", REF_FIELDS)
def test_sparse_kernel_matches_dense_reference(field):
    for rows, ncols in random_systems(field, 33):
        kernel = sparse_kernel([to_sparse(row) for row in rows], ncols, field)
        assert kernel == [to_sparse(v) for v in dense_kernel(rows, ncols, field)]
        # canonical: each vector is 1 at its largest key, every other vector 0 there
        for j, vec in enumerate(kernel):
            assert vec[max(vec)] == field.one
            assert all(max(vec) not in other for i, other in enumerate(kernel) if i != j)


# -- one-entry rows and chains in rref_sparse ---------------------------------------


def nonzero(rng, field):
    if field.p:
        return rng.randrange(1, field.p)
    return Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 3]))


def unit_systems(field, seed, count=40):
    """Systems rich in one-entry rows and chains, as (rows, dense rows, ncols).

    Multi-entry rows come first, then the one-entry rows that kill some of
    their coordinates.  A chain {c0, c1}, {c1, c2}, ... reduces to one-entry
    rows one link at a time once c0 is killed, in either direction, as the
    chain may arrive reversed.  Some unit rows come twice, before or after
    the rows they meet, and all-zero rows and rows whose only entry is zero
    in the field are strewn in.  Over GF(p) the given entries are shifted by multiples of p;
    the dense rows hold the reduced values, for the reference.
    """
    rng = random.Random(seed)
    p = field.p
    for _ in range(count):
        ncols = rng.randrange(5, 13)
        chain = rng.sample(range(ncols), rng.randrange(3, 6))
        links = [{a: nonzero(rng, field), b: nonzero(rng, field)} for a, b in zip(chain, chain[1:])]
        if rng.random() < 0.5:
            links.reverse()
        multi = [
            {k: nonzero(rng, field) for k in rng.sample(range(ncols), rng.randrange(2, 5))}
            for _ in range(rng.randrange(0, 6))
        ]
        units = [{k: nonzero(rng, field)} for k in rng.sample(range(ncols), rng.randrange(0, 3))]
        early = [dict(unit) for unit in units if rng.random() < 0.3]
        rows = early + multi + links + [{chain[0]: nonzero(rng, field)}] + units + units[:1]
        zero = [{}, {rng.randrange(ncols): 0}, {rng.randrange(ncols): 0, rng.randrange(ncols): 0}]
        for row in zero:
            rows.insert(rng.randrange(len(rows) + 1), row)
        dense = [[row.get(j, field.zero) for j in range(ncols)] for row in rows]
        if p:
            rows = [{k: v + p * rng.randrange(-2, 3) for k, v in row.items()} for row in rows]
        yield rows, dense, ncols


def projection(vec, red, pivots, ncols, field):
    """Quotient coordinates of a dense vector, reduced by the dense rref."""
    residue = list(vec)
    for r, col in enumerate(pivots):
        coef = residue[col]
        residue = [field.sub(x, field.mul(coef, y)) for x, y in zip(residue, red[r])]
    free = [c for c in range(ncols) if c not in pivots]
    return {k: residue[c] for k, c in enumerate(free) if residue[c]}


@pytest.mark.parametrize("field", REF_FIELDS)
def test_unit_pass_matches_dense_reference(field):
    rng = random.Random(35)
    for rows, dense, ncols in unit_systems(field, 34):
        given = [dict(row) for row in rows]
        red, pivots = dense_rref(dense, ncols, field)
        expected = {col: to_sparse(red[r]) for r, col in enumerate(pivots)}
        assert rref_sparse(iter(rows), field) == expected  # one pass over the rows
        kernel = sparse_kernel(rows, ncols, field)
        assert kernel == [to_sparse(v) for v in dense_kernel(dense, ncols, field)]
        q = QuotientSpace(field, ncols, rows)
        assert q.pivot_rows == expected
        assert q.basis_coords == [c for c in range(ncols) if c not in pivots]
        probes = [[field.one if j == c else field.zero for j in range(ncols)] for c in range(ncols)]
        probes.append([field.from_int(rng.randrange(-3, 4)) for _ in range(ncols)])
        for vec in probes:
            assert q.project(to_sparse(vec)) == projection(vec, red, pivots, ncols, field)
        assert rows == given  # the caller's rows are not touched


@pytest.mark.parametrize("p", [3, 5])
def test_unreduced_entries_over_gf_p(p):
    field = GF(p)
    given = [{0: p, 1: 1, 2: -1}, {1: p + 1, 3: -1}, {2: p}, {3: 2 * p + 2, 4: -1 - p}]
    reduced = [{k: v % p for k, v in row.items() if v % p} for row in given]
    assert rref_sparse(given, field) == rref_sparse(reduced, field)
    assert sparse_kernel(given, 5, field) == sparse_kernel(reduced, 5, field)
    assert QuotientSpace(field, 5, given).pivot_rows == QuotientSpace(field, 5, reduced).pivot_rows
    # {k: p} is the zero row: it kills nothing
    assert rref_sparse([{2: p}], field) == {}
    assert sparse_kernel([{2: p}], 3, field) == [{0: 1}, {1: 1}, {2: 1}]
    assert QuotientSpace(field, 3, [{2: p}]).dim == 3


@pytest.mark.parametrize("p", [3, 5, 7])
def test_echelon_reduces_integer_rows_mod_p(p):
    """Integer rows with entries outside range(p), multiples of p among
    them, give the rank and pivot rows of the same rows reduced into GF(p)."""
    field, rng = GF(p), random.Random(p)
    for _ in range(30):
        ncols = rng.randrange(1, 8)
        rows = [
            {k: rng.randrange(-3 * p, 3 * p + 1) for k in rng.sample(range(ncols), rng.randrange(0, ncols + 1))}
            for _ in range(rng.randrange(0, 8))
        ]
        rows.append({rng.randrange(ncols): p * rng.randrange(-2, 3)})  # zero in GF(p)
        reduced = [{k: v % p for k, v in row.items() if v % p} for row in rows]
        given, field_ech = SparseEchelon(field), SparseEchelon(field)
        for row, red in zip(rows, reduced):
            assert given.add_row(row) == field_ech.add_row(red)
        assert given.pivot_rows == field_ech.pivot_rows
        assert all(0 < v < p for row in given.pivot_rows.values() for v in row.values())


def test_echelon_takes_int_rows_over_q():
    """Over Q, int rows give the rank and pivot rows of the same rows as
    ``Fraction`` values, and the stored pivot rows hold ``Fraction`` only."""
    rng = random.Random(36)
    for _ in range(30):
        ncols = rng.randrange(1, 8)
        rows = [
            {k: rng.randrange(-4, 5) for k in rng.sample(range(ncols), rng.randrange(0, ncols + 1))}
            for _ in range(rng.randrange(0, 8))
        ]
        ints, fractions = SparseEchelon(QQ), SparseEchelon(QQ)
        for row in rows:
            assert ints.add_row(row) == fractions.add_row({k: Fraction(v) for k, v in row.items()})
        assert ints.pivot_rows == fractions.pivot_rows
        assert all(type(v) is Fraction for row in ints.pivot_rows.values() for v in row.values())
        assert rref_sparse(rows, QQ) == rref_sparse([{k: Fraction(v) for k, v in row.items()} for row in rows], QQ)
