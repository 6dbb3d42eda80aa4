"""The matrix oracle: explicit operators on ball configurations, read-back of
equivariant matrices, and the full table comparison."""

import random

import numpy as np
import pytest

from altschur import (
    BipartiteGraph,
    BudgetExceededError,
    GF,
    QQ,
    anti_involution,
    enum_B,
    enum_M,
    enum_N,
    gamma_perm,
    multiply,
    pair_graph,
    representative_pair,
    verify_table,
    xi,
    zeta,
)
from altschur.algebra import GradedElement, all_symbols, iota_sign
from altschur.enumeration import sign_of_permutation
from altschur.oracle import (
    DecompositionError,
    NonEquivariantError,
    NonZeroAtNonTransverseError,
    OperatorMatrix,
    decompose,
    operator_matrix,
    permutation_matrix,
    word_index,
)
from altschur.linalg import ExactMatrix


def test_operator_matrix_trivial_cell():
    m = operator_matrix(xi(BipartiteGraph.from_adj([[3]])))
    assert m.matrix.tolist() == [[1]]


def test_even_row_sums_count_realizations():
    words = list(enum_B(2, 2))
    for g in enum_M(2, 2):
        m = operator_matrix(xi(g)).matrix
        for i, s_word in enumerate(words):
            expected = sum(1 for u in words if pair_graph(s_word, u, 2) == g)
            assert int(m[i].sum()) == expected


def test_odd_entries_signed():
    words = list(enum_B(2, 2))
    for g in enum_N(2, 2):
        m = operator_matrix(zeta(g)).matrix
        s_word, u_word = representative_pair(g)
        assert m[word_index(s_word, 2), word_index(u_word, 2)] == 1
        # every nonzero entry sits at a pair realizing g, with the ball sign
        for i, s in enumerate(words):
            for j, u in enumerate(words):
                if pair_graph(s, u, 2) == g:
                    from altschur.graphs import pair_sign

                    assert m[i, j] == pair_sign(s, u)
                else:
                    assert m[i, j] == 0


def test_operator_matrix_budget():
    with pytest.raises(BudgetExceededError):
        operator_matrix(xi(BipartiteGraph.from_adj([[30, 0], [0, 0]])))


def test_equivariance():
    rng = random.Random(3)
    m_even = operator_matrix(xi(enum_M(2, 3)[5])).matrix
    m_odd = operator_matrix(zeta(enum_N(2, 3)[1])).matrix
    for _ in range(20):
        w = [1, 2, 3]
        rng.shuffle(w)
        P = permutation_matrix(w, 2)
        assert np.array_equal(P.T @ m_even @ P, m_even)
        assert np.array_equal(P.T @ m_odd @ P, sign_of_permutation(w) * m_odd)


@pytest.mark.parametrize("n,d,expected", [(2, 2, 16), (2, 3, 24)])
def test_operator_matrices_linearly_independent(n, d, expected):
    rows = [
        [int(x) for x in operator_matrix(sym).matrix.flatten()]
        for sym in all_symbols(n, d)
    ]
    assert len(rows) == expected
    assert ExactMatrix.from_rows(QQ, rows).rank() == expected


def test_transpose_compatibility():
    """The anti-involution corresponds to matrix transposition."""
    for sym in all_symbols(2, 2):
        m = operator_matrix(sym).matrix
        image = anti_involution(GradedElement.from_symbol(sym, QQ))
        ((img_sym, coeff),) = image.terms.items()
        expected = int(coeff) * operator_matrix(img_sym).matrix
        assert np.array_equal(m.T, expected)
        if sym.is_odd:
            assert int(coeff) == iota_sign(sym.graph)
        else:
            assert coeff == QQ.one


# -- decompose ------------------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_decompose_roundtrip(field):
    for sym in all_symbols(2, 2):
        parity = sym.parity
        back = decompose(operator_matrix(sym), parity, field)
        assert back == GradedElement.from_symbol(sym, field)


def test_decompose_zero_matrix():
    z = OperatorMatrix(2, 2, np.zeros((4, 4), dtype=np.int64))
    assert decompose(z, "even").is_zero()
    assert decompose(z, "odd").is_zero()


def test_decompose_of_oracle_products():
    syms = all_symbols(2, 3)
    rng = random.Random(9)
    for _ in range(25):
        a, b = rng.choice(syms), rng.choice(syms)
        parity = "odd" if a.is_odd != b.is_odd else "even"
        product_matrix = operator_matrix(a) @ operator_matrix(b)
        got = decompose(product_matrix, parity)
        expected = multiply(
            GradedElement.from_symbol(a, QQ), GradedElement.from_symbol(b, QQ)
        )
        assert got == expected


def test_decompose_rejects_non_equivariant():
    m = OperatorMatrix(2, 2, np.diag(np.array([0, 1, 2, 3], dtype=np.int64)))
    with pytest.raises(NonEquivariantError):
        decompose(m, "even")


def test_decompose_rejects_wrong_parity():
    cross = operator_matrix(zeta(gamma_perm((2, 1))))
    with pytest.raises(DecompositionError):
        decompose(cross, "even", spot_checks=0)


def test_decompose_rejects_non_transverse_support():
    bad = np.zeros((4, 4), dtype=np.int64)
    bad[0, 0] = 1  # the pair ((1,1),(1,1)) has a repeated edge
    with pytest.raises(NonZeroAtNonTransverseError):
        decompose(OperatorMatrix(2, 2, bad), "odd", spot_checks=0)


def test_decompose_parity_argument():
    with pytest.raises(ValueError):
        decompose(operator_matrix(xi(gamma_perm((1, 2)))), "both")


def test_operator_matmul_parameter_mismatch():
    a = OperatorMatrix(2, 2, np.zeros((4, 4), dtype=np.int64))
    b = OperatorMatrix(2, 3, np.zeros((8, 8), dtype=np.int64))
    with pytest.raises(ValueError):
        a @ b


# -- whole-table comparison -------------------------------------------------------


def test_verify_table_2_2():
    report = verify_table(2, 2)
    assert report.ok
    assert report.pairs_checked == 256
    assert report.mismatches == []
    data = report.to_json_dict()
    assert data["ok"] is True
    assert data["field"] == "Q"
    assert data["pairs_checked"] == 256


def test_verify_table_2_4_gf5():
    report = verify_table(2, 4, GF(5))
    assert report.ok
    assert report.pairs_checked == 36 * 36
    assert report.field_label == "GF(5)"


def test_verify_table_budget():
    with pytest.raises(BudgetExceededError):
        verify_table(2, 20)


def test_verify_table_basis_cap_overrides_environment(monkeypatch):
    monkeypatch.setenv("ALTSCHUR_MAX_BASIS", "10")
    with pytest.raises(BudgetExceededError):
        verify_table(2, 2)
    assert verify_table(2, 2, basis_cap=100).ok
