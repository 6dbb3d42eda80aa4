"""Enumeration of graphs, compositions, and ball configurations, the orbit
structure behind the basis, and the budget guards."""

import itertools
import math
import random

import pytest

from altschur import BipartiteGraph, BudgetExceededError, enum_B, enum_Lambda, enum_M, enum_N
from altschur.enumeration import (
    act_word,
    basis_size,
    check_basis_budget,
    check_count_budget,
    check_power_budget,
    content,
    count_M,
    count_N,
    enum_M_rect,
    graph_index,
    lambda_factorial,
    sign_of_permutation,
    words_with_content,
)
from altschur.graphs import pair_graph


# -- counts ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,d,expected",
    [(2, 2, 10), (3, 3, 165), (1, 3, 1), (2, 4, 35)],
)
def test_count_M(n, d, expected):
    assert count_M(n, d) == expected
    assert len(enum_M(n, d)) == expected


@pytest.mark.parametrize(
    "n,d,expected",
    [(2, 2, 6), (3, 3, 84), (2, 4, 1), (1, 2, 0), (2, 5, 0)],
)
def test_count_N(n, d, expected):
    assert count_N(n, d) == expected
    assert len(enum_N(n, d)) == expected


def test_basis_size():
    assert basis_size(2, 2) == 16
    assert basis_size(3, 3) == 249


def test_enum_M_single_cell():
    assert enum_M(1, 3) == [BipartiteGraph.from_adj([[3]])]


def test_enum_N_forced_graph():
    assert enum_N(2, 4) == [BipartiteGraph.from_adj([[1, 1], [1, 1]])]


def test_enum_properties():
    for g in enum_M(2, 3):
        assert g.degree == 3 and g.n_up == g.n_down == 2
    for g in enum_N(2, 2):
        assert g.is_simple() and g.degree == 2
    # N is exactly the simple slice of M
    simple = [g for g in enum_M(2, 2) if g.is_simple()]
    assert simple == enum_N(2, 2)


def test_enum_order_canonical():
    for listing in (enum_M(2, 3), enum_N(3, 3)):
        keys = [g.sort_key() for g in listing]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
    # stable across calls
    assert enum_M(2, 3) == enum_M(2, 3)


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2)])
def test_enum_listings_are_cached(n, d):
    """One listing per (n, d), and the graph index is built from it."""
    assert enum_M(n, d) is enum_M(n, d)
    assert enum_N(n, d) is enum_N(n, d)
    for kind, listing in (("M", enum_M(n, d)), ("N", enum_N(n, d))):
        assert graph_index(kind, n, d) is graph_index(kind, n, d)
        assert list(graph_index(kind, n, d)) == listing


def test_enum_M_rect():
    rect = enum_M_rect(2, 3, 2)
    assert all(g.n_up == 2 and g.n_down == 3 and g.degree == 2 for g in rect)
    assert len(rect) == math.comb(6 + 2 - 1, 2)


# -- compositions -----------------------------------------------------------------


def test_enum_Lambda_examples():
    assert enum_Lambda(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(enum_Lambda(3, 3)) == 10
    assert enum_Lambda(1, 5) == [(5,)]


def test_enum_Lambda_descending_weak_compositions():
    lams = enum_Lambda(3, 4)
    assert lams == sorted(lams, reverse=True)
    for lam in lams:
        assert len(lam) == 3 and sum(lam) == 4 and all(x >= 0 for x in lam)
    assert len(set(lams)) == len(lams) == math.comb(4 + 2, 2)


# -- ball configurations ------------------------------------------------------------


def test_enum_B_counts_and_start():
    words = list(enum_B(2, 3))
    assert len(words) == 8
    assert words[0] == (1, 1, 1)
    assert len(list(enum_B(3, 3))) == 27


def test_act_word_is_a_right_action():
    rng = random.Random(7)
    f = (1, 3, 2, 3)
    assert act_word(f, (2, 1, 3, 4)) == (3, 1, 2, 3)
    for _ in range(20):
        w1 = list(range(1, 5))
        w2 = list(range(1, 5))
        rng.shuffle(w1)
        rng.shuffle(w2)
        composed = tuple(w1[w2[k] - 1] for k in range(4))
        assert act_word(act_word(f, w1), w2) == act_word(f, composed)


def test_content_and_words_with_content():
    assert content((1, 2, 2), 2) == (1, 2)
    assert content((1, 2, 2), 3) == (1, 2, 0)
    assert words_with_content((1, 2)) == [(1, 2, 2), (2, 1, 2), (2, 2, 1)]
    words = words_with_content((2, 1, 1))
    assert len(words) == math.factorial(4) // 2
    assert words == sorted(words)
    assert all(content(w, 3) == (2, 1, 1) for w in words)


def test_lambda_factorial():
    assert lambda_factorial((2, 1, 0)) == 2
    assert lambda_factorial((3, 2)) == 12
    assert lambda_factorial(()) == 1


def test_sign_of_permutation():
    # cross-check against an independent cycle-structure computation
    for d in (2, 3, 4):
        for w in itertools.permutations(range(1, d + 1)):
            seen = [False] * d
            parity = 0
            for start in range(d):
                if seen[start]:
                    continue
                length = 0
                k = start
                while not seen[k]:
                    seen[k] = True
                    k = w[k] - 1
                    length += 1
                parity += length - 1
            assert sign_of_permutation(w) == (-1) ** parity


# -- orbits: the basis graphs index S_d-orbits of configuration pairs ---------------


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_pair_orbits_match_graphs(n, d):
    index = graph_index("M", n, d)
    realized = {}
    for s in enum_B(n, d):
        for t in enum_B(n, d):
            g = pair_graph(s, t, n)
            assert g in index
            realized.setdefault(g, []).append((s, t))
    assert set(realized) == set(index)
    perms = list(itertools.permutations(range(1, d + 1)))
    for g, pairs in realized.items():
        multiplicities = math.prod(
            math.factorial(x) for row in g.adj for x in row
        )
        assert len(pairs) == math.factorial(d) // multiplicities
        # one orbit: translating any member reaches every member
        s0, t0 = pairs[0]
        orbit = {(act_word(s0, w), act_word(t0, w)) for w in perms}
        assert orbit == set(pairs)


def test_graph_index_positions():
    idx = graph_index("N", 2, 2)
    for pos, g in enumerate(enum_N(2, 2)):
        assert idx[g] == pos


# -- the dimension identity ----------------------------------------------------------


def test_dimension_identity():
    """Sum over compositions of products of binomials equals C(n^2, d)."""
    for n in range(1, 5):
        for d in range(1, 5):
            total = sum(
                math.prod(math.comb(n, part) for part in lam)
                for lam in enum_Lambda(n, d)
            )
            assert total == math.comb(n * n, d)


# -- budgets -----------------------------------------------------------------------


def test_power_budget():
    check_power_budget(2, 19)  # 2^19 < 10^6
    with pytest.raises(BudgetExceededError):
        check_power_budget(2, 20)
    with pytest.raises(BudgetExceededError):
        enum_B(2, 30)
    with pytest.raises(BudgetExceededError):
        enum_B(2, 3, cap=7)


def test_basis_budget():
    check_basis_budget(3, 3)
    with pytest.raises(BudgetExceededError):
        check_basis_budget(3, 7)  # |M| alone is 6435
    with pytest.raises(BudgetExceededError):
        check_basis_budget(2, 2, cap=15)


def _refused(check, *args):
    try:
        check(*args)
    except BudgetExceededError:
        return True
    return False


def test_budgets_agree_with_the_exact_counts():
    """Each check refuses exactly when the exact n^d, |M| + |N|, |M|, |N| or
    |Lambda| is above the cap, on both sides of every boundary."""
    for n in range(1, 6):
        for d in range(9):
            sizes = {
                ("M", "N"): basis_size(n, d),
                ("M",): count_M(n, d),
                ("N",): count_N(n, d),
                ("Lambda",): len(enum_Lambda(n, d)),
            }
            for cap in {0, 1, n**d // 2, n**d - 1, n**d, n**d + 1}:
                assert _refused(check_power_budget, n, d, cap) == (n**d > cap)
            for families, size in sizes.items():
                for cap in {0, 1, size // 2, size - 1, size, size + 1}:
                    assert _refused(check_count_budget, families, n, d, cap) == (size > cap)


@pytest.mark.parametrize(
    "check,n,d,message",
    [
        (check_power_budget, 3, 10**4, "n^d at (n,d)=(3,10000) exceeds the cap 1000000"),
        (check_basis_budget, 1000, 10**6, "|M| + |N| at (n,d)=(1000,1000000) exceeds the cap 5000"),
        (lambda n, d: check_count_budget(("N",), n, d), 1000, 10**4, "|N| at (n,d)=(1000,10000) exceeds the cap 5000"),
    ],
)
def test_budgets_decide_without_computing_past_the_cap(monkeypatch, check, n, d, message):
    """A cell far past its cap is refused at once, with the quantity, (n, d)
    and the cap, and no count of thousands of digits is formed."""

    comb = math.comb

    def small_comb(m, k):
        assert min(k, m - k) <= 64, f"C({m}, {k}) computed in full"
        return comb(m, k)

    monkeypatch.setattr(math, "comb", small_comb)
    with pytest.raises(BudgetExceededError) as exc:
        check(n, d)
    assert str(exc.value) == message


def test_budget_env_overrides(monkeypatch):
    monkeypatch.setenv("ALTSCHUR_MAX_POWER", "7")
    with pytest.raises(BudgetExceededError):
        check_power_budget(2, 3)
    check_power_budget(2, 3, cap=8)  # explicit cap wins over the environment
    monkeypatch.setenv("ALTSCHUR_MAX_BASIS", "3")
    with pytest.raises(BudgetExceededError):
        check_basis_budget(2, 2)
    check_basis_budget(2, 2, cap=16)
