"""The matrix oracle: operator blocks on ball configurations, checked against
the pair-graph reference, and the full table comparison."""

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
    multiply,
    pair_graph,
    representative_pair,
    verify_table,
    xi,
    zeta,
)
from altschur.algebra import GradedElement, _symbols, all_symbols, iota_sign
from altschur.enumeration import act_word, sign_of_permutation, words_with_content
from altschur import oracle
from altschur.oracle import OutsideBlockError, word_index
from altschur.linalg import ExactMatrix
from bruteforce import dense_operators, dense_verify_table


def _margins(sym):
    return sym.graph.lower_degrees, sym.graph.upper_degrees


def _dense(sym):
    """The symbol's n^d x n^d kernel matrix: the oracle's block scattered into zeros."""
    out = np.zeros((sym.n**sym.d,) * 2, dtype=np.int64)
    lower, upper = _margins(sym)
    out[np.ix_(oracle._positions(lower), oracle._positions(upper))] = oracle._block(sym)
    return out


def test_operator_matrix_trivial_cell():
    assert _dense(xi(BipartiteGraph.from_adj([[3]]))).tolist() == [[1]]


def test_even_row_sums_count_realizations():
    words = list(enum_B(2, 2))
    for g in enum_M(2, 2):
        m = _dense(xi(g))
        for i, s_word in enumerate(words):
            expected = sum(1 for u in words if pair_graph(s_word, u, 2) == g)
            assert int(m[i].sum()) == expected


def test_odd_entries_signed():
    words = list(enum_B(2, 2))
    for g in enum_N(2, 2):
        m = _dense(zeta(g))
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


def test_equivariance():
    rng = random.Random(3)
    m_even = _dense(xi(enum_M(2, 3)[5]))
    m_odd = _dense(zeta(enum_N(2, 3)[1]))
    for _ in range(20):
        w = [1, 2, 3]
        rng.shuffle(w)
        # entry (S, U) of the conjugated matrix is the kernel at (S.w, U.w)
        perm = [word_index(act_word(f, w), 2) for f in enum_B(2, 3)]
        assert np.array_equal(m_even[np.ix_(perm, perm)], m_even)
        assert np.array_equal(m_odd[np.ix_(perm, perm)], sign_of_permutation(w) * m_odd)


@pytest.mark.parametrize("n,d,expected", [(2, 2, 16), (2, 3, 24)])
def test_operator_matrices_linearly_independent(n, d, expected):
    rows = [
        [int(x) for x in _dense(sym).flatten()]
        for sym in all_symbols(n, d)
    ]
    assert len(rows) == expected
    assert ExactMatrix.from_rows(QQ, rows).rank() == expected


def test_transpose_compatibility():
    """The anti-involution corresponds to matrix transposition."""
    for sym in all_symbols(2, 2):
        m = _dense(sym)
        image = anti_involution(GradedElement.from_symbol(sym, QQ))
        ((img_sym, coeff),) = image.terms.items()
        expected = int(coeff) * _dense(img_sym)
        assert np.array_equal(m.T, expected)
        if sym.is_odd:
            assert int(coeff) == iota_sign(sym.graph)
        else:
            assert coeff == QQ.one


def test_decompose_of_oracle_products():
    """The product of two symbols' reference matrices is the combination of
    reference matrices that ``multiply`` gives."""
    mats = dense_operators(2, 3)
    syms = all_symbols(2, 3)
    rng = random.Random(9)
    for _ in range(25):
        a, b = rng.choice(syms), rng.choice(syms)
        terms = multiply(GradedElement.from_symbol(a, QQ), GradedElement.from_symbol(b, QQ)).terms
        assert all(c == int(c) for c in terms.values())
        expected = sum((int(c) * mats[s] for s, c in terms.items()), np.zeros_like(mats[a]))
        assert np.array_equal(mats[a] @ mats[b], expected)


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


# -- block oracle against the dense reference --------------------------------------

DENSE_CELLS = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (2, 4), (2, 6)]


def _same_report(n, d, field):
    got = verify_table(n, d, field)
    want = dense_verify_table(n, d, field)
    assert (got.pairs_checked, got.ok, got.mismatches) == (want.pairs_checked, want.ok, want.mismatches)
    assert got.pairs_checked == len(all_symbols(n, d)) ** 2


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
@pytest.mark.parametrize("n,d", DENSE_CELLS)
def test_block_oracle_equals_dense_reference(n, d, field):
    _same_report(n, d, field)


def test_block_oracle_equals_dense_reference_3_3_gf5():
    _same_report(3, 3, GF(5))


@pytest.mark.stretch
@pytest.mark.parametrize("n,d", [(2, 5), (3, 3)])
def test_block_oracle_equals_dense_reference_stretch(n, d):
    _same_report(n, d, QQ)


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (2, 4)])
def test_operator_matrix_equals_pair_graph_reference(n, d):
    mats = dense_operators(n, d)
    for sym in all_symbols(n, d):
        assert np.array_equal(_dense(sym), mats[sym])


# -- mutations: a wrong constant or a wrong operator is caught ---------------------------


def _pairs(n, d, matched, parities):
    for a in all_symbols(n, d):
        for b in all_symbols(n, d):
            if (a.parity, b.parity) == parities and (_margins(a)[1] == _margins(b)[0]) == matched:
                yield a, b


def _index(sym):
    """The position of a symbol in the index order of its parity."""
    return _symbols(sym.n, sym.d)[sym.is_odd].index(sym)


def _by_symbol(a, b, found):
    """Index-keyed constants of a * b, keyed by symbol."""
    target = _symbols(a.n, a.d)[a.is_odd != b.is_odd]
    return {target[k]: c for k, c in found.items()}


def _constants(a, b):
    """The structure constants of a * b as ``verify_table`` reads them."""
    return _by_symbol(a, b, oracle._product(a.n, a.d, _index(a), a.is_odd, _index(b), b.is_odd))


def _odd_sign_flip(n, d):
    """One odd*odd coefficient, nonzero mod 5, with its sign flipped."""
    for a, b in _pairs(n, d, True, ("odd", "odd")):
        for sym, c in _constants(a, b).items():
            if c % 5:
                return (a, b), lambda terms: {**terms, sym: -c}
    raise AssertionError("no odd*odd product with a unit coefficient")


def _even_raised(n, d, by=1):
    """One even*even coefficient raised by ``by``."""
    for a, b in _pairs(n, d, True, ("even", "even")):
        terms = _constants(a, b)
        if terms:
            sym, c = next(iter(terms.items()))
            return (a, b), lambda terms: {**terms, sym: c + by}
    raise AssertionError("no nonzero even*even product")


def _stray_term(n, d, coeff=1):
    """A term claimed for a margin-mismatched even*even pair, on a graph
    with the outer margins of the pair."""
    a, b = next(_pairs(n, d, False, ("even", "even")))
    outer = (_margins(a)[0], _margins(b)[1])
    target = next(s for s in all_symbols(n, d) if not s.is_odd and _margins(s) == outer)
    return (a, b), lambda terms: {target: coeff}


def _patch(monkeypatch, pair, change):
    """Make ``oracle._product`` return ``change`` of the symbol-keyed
    constants at ``pair`` and the tables' constants at every other pair."""
    real = oracle._product
    a, b = pair
    key = (a.n, a.d, _index(a), a.is_odd, _index(b), b.is_odd)

    def patched(*args):
        found = real(*args)
        if args != key:
            return found
        return {_index(s): c for s, c in change(_by_symbol(a, b, found)).items()}

    monkeypatch.setattr(oracle, "_product", patched)


MUTATION_CASES = [(2, 3, QQ), (2, 3, GF(5)), (3, 3, GF(5))]


@pytest.mark.parametrize("mutation", [_odd_sign_flip, _even_raised, _stray_term])
@pytest.mark.parametrize("n,d,field", MUTATION_CASES, ids=["2-3-Q", "2-3-GF5", "3-3-GF5"])
def test_wrong_constant_is_caught(monkeypatch, mutation, n, d, field):
    pair, change = mutation(n, d)
    _patch(monkeypatch, pair, change)
    got = verify_table(n, d, field)
    # the mutation changes one pair; the unmutated dense reports are clean
    # (see the equality tests), so at (3,3) the reference checks that pair only
    want = dense_verify_table(n, d, field, pairs=None if n ** d <= 8 else [pair])
    assert not got.ok
    assert len(got.mismatches) == 1
    assert got.mismatches == want.mismatches
    assert got.mismatches[0].startswith(f"{pair[0]} * {pair[1]}: ")
    assert got.pairs_checked == len(all_symbols(n, d)) ** 2


@pytest.mark.parametrize("n,d", [(2, 3), (3, 3)])
def test_multiple_of_p_on_mismatched_pair_passes_mod_p(monkeypatch, n, d):
    pair, change = _stray_term(n, d, coeff=5)
    _patch(monkeypatch, pair, change)
    assert verify_table(n, d, GF(5)).ok
    assert dense_verify_table(n, d, GF(5)).ok if n ** d <= 8 else dense_verify_table(n, d, GF(5), pairs=[pair]).ok
    if n ** d <= 8:
        over_q = verify_table(n, d, QQ)
        assert len(over_q.mismatches) == 1
        assert over_q.mismatches == dense_verify_table(n, d, QQ).mismatches


def test_coefficient_raised_by_p_passes_mod_p(monkeypatch):
    pair, change = _even_raised(2, 3, by=5)
    _patch(monkeypatch, pair, change)
    assert verify_table(2, 3, GF(5)).ok
    assert dense_verify_table(2, 3, GF(5)).ok
    assert verify_table(2, 3, QQ).mismatches == dense_verify_table(2, 3, QQ).mismatches


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
def test_mismatch_names_first_position_across_blocks(monkeypatch, field):
    """A wrong coefficient on the product's block and a stray term whose
    block holds matrix position (0, 0): the message names (0, 0)."""
    corner = xi(BipartiteGraph.from_adj([[3, 0], [0, 0]]))
    pair, raise_one = _even_raised(2, 3)
    assert _margins(pair[0])[0] != _margins(corner)[0]  # the product's block misses row 0
    _patch(monkeypatch, pair, lambda terms: {**raise_one(terms), corner: 1})
    got = verify_table(2, 3, field)
    assert got.mismatches == dense_verify_table(2, 3, field).mismatches
    assert got.mismatches == [f"{pair[0]} * {pair[1]}: oracle and convolution disagree at matrix position (0, 0): 0 vs 1"]


def test_entry_outside_block_is_reported(monkeypatch):
    victim = zeta(enum_N(2, 3)[1])
    real = oracle._kernel_entries
    lower, upper = _margins(victim)
    s_word = words_with_content(lower)[0]
    u_word = next(w for w in enum_B(2, 3) if w not in words_with_content(upper))

    def corrupted(sym):
        yield from real(sym)
        if sym == victim:
            yield s_word, u_word, 1

    monkeypatch.setattr(oracle, "_kernel_entries", corrupted)
    report = verify_table(2, 3)
    assert not report.ok
    assert report.pairs_checked == 0
    (message,) = report.mismatches
    assert message.startswith(f"{victim}: ")
    assert f"({word_index(s_word, 2)}, {word_index(u_word, 2)}), outside its block" in message
    with pytest.raises(OutsideBlockError):
        oracle._block(victim)


# -- new cells ------------------------------------------------------------------------


@pytest.mark.stretch
@pytest.mark.parametrize("n,d", [(3, 4), (4, 3), (3, 5)])
def test_verify_table_new_cells(n, d):
    report = verify_table(n, d, GF(5))
    assert report.ok, report.mismatches[:3]
    assert report.pairs_checked == len(all_symbols(n, d)) ** 2
