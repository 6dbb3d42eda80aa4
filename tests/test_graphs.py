"""Bipartite multigraphs, labellings and signs, configuration pairs, and the
canonical graph constructions."""

import dataclasses
import math
import pickle
import random

import pytest

from altschur import (
    BipartiteGraph,
    NonTransverseError,
    complete_bipartite,
    d_of,
    enum_B,
    enum_M,
    enum_N,
    gamma0_lambda,
    gamma_lambda,
    gamma_lambda_star,
    gamma_perm,
    labelling_sign,
    pair_graph,
    pair_labelling,
    pair_sign,
    representative_pair,
    u_of,
)
from altschur.enumeration import act_word, enum_Lambda, enum_M_rect, sign_of_permutation


# -- construction and basic queries -------------------------------------------


def test_from_adj_and_degrees():
    g = BipartiteGraph.from_adj([[2, 0], [1, 1]])
    assert g.n_up == 2 and g.n_down == 2
    assert g.degree == 4
    assert g.upper_degrees == (2, 2)
    assert g.lower_degrees == (3, 1)
    assert not g.is_simple()
    assert BipartiteGraph.from_adj([[1, 0], [0, 1]]).is_simple()


def test_margins_are_stored_properties():
    # margins stay properties (readable through property.fget) and are
    # computed once; equality, hashing and pickling still work on the matrix
    for attr in ("degree", "upper_degrees", "lower_degrees"):
        assert isinstance(vars(BipartiteGraph)[attr], property)
    assert [f.name for f in dataclasses.fields(BipartiteGraph)] == ["n_up", "n_down", "adj"]
    for g in enum_M_rect(2, 3, 3) + enum_M(3, 2):
        assert g.degree == sum(sum(row) for row in g.adj)
        assert g.upper_degrees == tuple(sum(row) for row in g.adj)
        assert g.lower_degrees == tuple(sum(col) for col in zip(*g.adj))
        twin = BipartiteGraph.from_adj(g.adj)
        assert twin == g and hash(twin) == hash(g)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy.lower_degrees == g.lower_degrees
    empty = BipartiteGraph(0, 0, ())
    assert (empty.degree, empty.upper_degrees, empty.lower_degrees) == (0, (), ())


def test_adj_validation():
    with pytest.raises(ValueError):
        BipartiteGraph.from_adj([[1], [2, 3]])
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, ((1, 0),))
    with pytest.raises(ValueError):
        BipartiteGraph(1, 2, ((1, -1),))


def test_star_is_an_involution():
    g = BipartiteGraph.from_adj([[2, 0, 1], [0, 1, 0]])
    assert g.star().adj == ((2, 0), (0, 1), (1, 0))
    assert g.star().star() == g
    symmetric = BipartiteGraph.from_adj([[1, 2], [2, 0]])
    assert symmetric.star() == symmetric
    single = BipartiteGraph.from_adj([[0, 1], [0, 0]])
    assert list(single.star().edges()) == [(2, 1)]


def test_json_roundtrip():
    g = BipartiteGraph.from_adj([[2, 0], [1, 1]])
    assert BipartiteGraph.from_json_dict(g.to_json_dict()) == g
    with pytest.raises(ValueError):
        BipartiteGraph.from_json_dict({"n_up": 3, "n_down": 2, "adj": [[1, 0], [0, 1]]})


def test_str_is_the_adjacency_grid():
    assert str(BipartiteGraph.from_adj([[2, 0], [1, 1]])) == "[[2,0],[1,1]]"


# -- standard labelling and signs ----------------------------------------------


def test_standard_labelling_lexicographic():
    # edges (1',2), (2',1), (2',2), (3',2) get labels 1..4 in that order
    g = BipartiteGraph.from_adj([[0, 1, 0], [1, 1, 0], [0, 1, 0]])
    assert g.standard_labelling() == ((1, 2), (2, 1), (2, 2), (3, 2))


def test_standard_labelling_single_edge():
    g = BipartiteGraph.from_adj([[1]])
    assert g.standard_labelling() == ((1, 1),)


def test_standard_labelling_multigraph():
    # edges (1',1),(1',2),(1',3) then the double edge (3',3) as labels 4,5
    g = BipartiteGraph.from_adj([[1, 1, 1], [0, 0, 0], [0, 0, 2]])
    assert g.standard_labelling() == ((1, 1), (1, 2), (1, 3), (3, 3), (3, 3))


def test_labelling_sign_standard_is_positive():
    for g in enum_N(2, 2) + enum_N(3, 3):
        assert labelling_sign(g.standard_labelling(), g) == 1


def test_labelling_sign_permuted_orders():
    g = BipartiteGraph.from_adj([[0, 1, 0], [1, 1, 0], [0, 1, 0]])
    std = g.standard_labelling()
    # label order inducing the permutation 4231 is odd, 1342 is even
    perm_4231 = tuple(std[k - 1] for k in (4, 2, 3, 1))
    perm_1342 = tuple(std[k - 1] for k in (1, 3, 4, 2))
    assert labelling_sign(perm_4231, g) == -1
    assert labelling_sign(perm_1342, g) == 1
    assert sign_of_permutation((4, 2, 3, 1)) == -1
    assert sign_of_permutation((1, 3, 4, 2)) == 1


def test_labelling_sign_error_paths():
    with pytest.raises(NonTransverseError):
        labelling_sign([(1, 1), (1, 1)])
    g = BipartiteGraph.from_adj([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        labelling_sign([(1, 1), (2, 1)], g)


# -- configuration pairs --------------------------------------------------------


def test_pair_graph_example():
    assert pair_graph((1, 1, 2), (1, 2, 2), 2).adj == ((1, 0), (1, 1))


def test_pair_graph_multigraph_example():
    # S = ({1},{2},{3,4,5}), T = ({1,2,3},{},{4,5})
    s_word = (1, 2, 3, 3, 3)
    t_word = (1, 1, 1, 3, 3)
    g = pair_graph(s_word, t_word, 3)
    assert g.adj == ((1, 1, 1), (0, 0, 0), (0, 0, 2))
    assert pair_labelling(s_word, t_word) == ((1, 1), (1, 2), (1, 3), (3, 3), (3, 3))
    with pytest.raises(NonTransverseError):
        pair_sign(s_word, t_word)


def test_pair_graph_diagonal_pattern():
    words = list(enum_B(2, 3))
    for s in words:
        g = pair_graph(s, s, 2)
        # diagonal entries are the box sizes, off-diagonal vanish
        for i in range(2):
            for j in range(2):
                expected = s.count(i + 1) if i == j else 0
                assert g.adj[i][j] == expected


def test_pair_graph_length_mismatch():
    with pytest.raises(ValueError):
        pair_graph((1, 1), (1,), 2)


def test_pair_sign_swap_flips():
    s_word, t_word = (1, 2, 1), (2, 1, 1)
    base = pair_sign(s_word, t_word)
    swapped = pair_sign((2, 1, 1), (1, 2, 1))  # exchange balls 1 and 2
    assert swapped == -base


def test_pair_sign_cross_graph():
    assert pair_sign((1, 2), (2, 1)) == -1
    assert pair_sign((1, 2), (1, 2)) == 1


def test_pair_sign_equivariance():
    """kappa(S.w, T.w) = sgn(w) kappa(S, T) for the sign character."""
    rng = random.Random(5)
    for n, d in [(2, 3), (3, 3)]:
        words = list(enum_B(n, d))
        checked = 0
        while checked < 20:
            s, t = rng.choice(words), rng.choice(words)
            w = list(range(1, d + 1))
            rng.shuffle(w)
            try:
                base = pair_sign(s, t)
            except NonTransverseError:
                continue
            assert pair_sign(act_word(s, w), act_word(t, w)) == sign_of_permutation(w) * base
            checked += 1


def test_representative_pair_roundtrip():
    for g in enum_M(2, 2) + enum_M(2, 3):
        s_word, u_word = representative_pair(g)
        assert pair_graph(s_word, u_word, g.n_down, g.n_up) == g


def test_representative_pair_sign_positive():
    for g in enum_N(2, 2) + enum_N(3, 3):
        assert pair_sign(*representative_pair(g)) == 1


def test_representative_pair_multigraph_example():
    g = BipartiteGraph.from_adj([[1, 1, 1], [0, 0, 0], [0, 0, 2]])
    assert representative_pair(g) == ((1, 2, 3, 3, 3), (1, 1, 1, 3, 3))


# -- canonical constructions ------------------------------------------------------


def test_gamma_lambda_shape():
    # lower margins carry the composition; upper endpoints are spread out.
    # The companion identity zeta_G zeta_G* = lambda! xi_G0 (test_algebra)
    # pins this orientation.
    assert sorted(gamma_lambda((2, 1), 3).edges()) == [(1, 1), (2, 1), (3, 2)]
    assert sorted(gamma_lambda_star((2, 1), 3).edges()) == [(1, 1), (1, 2), (2, 3)]
    for lam in enum_Lambda(3, 3):
        g = gamma_lambda(lam, 3)
        assert g.lower_degrees == lam
        assert g.upper_degrees == (1, 1, 1)
        assert g.is_simple()
        assert gamma_lambda_star(lam, 3) == g.star()


def test_gamma_lambda_needs_room():
    with pytest.raises(ValueError):
        gamma_lambda((2, 1), 2)
    with pytest.raises(ValueError):
        gamma_lambda((1, 1, 1, 1), 3)


def test_gamma0_lambda():
    assert gamma0_lambda((2, 0, 1)).adj == ((2, 0, 0), (0, 0, 0), (0, 0, 1))
    assert gamma0_lambda((2,), 3).adj == ((2, 0, 0), (0, 0, 0), (0, 0, 0))


def test_gamma_perm():
    assert gamma_perm((2, 1)).adj == ((0, 1), (1, 0))
    eye = gamma_perm((1, 2, 3))
    assert eye.adj == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # embeds into a larger square when n > d
    padded = gamma_perm((2, 1), 3)
    assert padded.adj == ((0, 1, 0), (1, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        gamma_perm((1, 1))
    with pytest.raises(ValueError):
        gamma_perm((1, 2, 3), 2)


def test_complete_bipartite():
    f22 = complete_bipartite(2)
    assert f22.adj == ((1, 1), (1, 1))
    assert f22.degree == 4
    assert complete_bipartite(3).degree == 9


# -- the D and U constructions -----------------------------------------------------


def worked_example_graph():
    # n = d = 5; edges (1',1),(1',2),(2',3) and a double edge (3',2)
    return BipartiteGraph.from_adj(
        [
            [1, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 2, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ]
    )


def test_d_of_u_of_worked_example():
    g = worked_example_graph()
    assert sorted(d_of(g).edges()) == [(1, 1), (1, 2), (2, 3), (3, 4), (3, 5)]
    assert sorted(u_of(g).edges()) == [(1, 1), (2, 2), (3, 3), (4, 2), (5, 2)]


def test_d_of_parallel_edges():
    g = BipartiteGraph.from_adj([[3, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert sorted(d_of(g).edges()) == [(1, 1), (1, 2), (1, 3)]
    assert sorted(u_of(g).edges()) == [(1, 1), (2, 1), (3, 1)]


def test_d_of_fixes_spread_out_graphs():
    # a simple graph whose edge k already sits at lower vertex k
    g = BipartiteGraph.from_adj([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert d_of(g) == g


def test_d_of_u_of_margins():
    for g in enum_M(3, 3):
        dg, ug = d_of(g), u_of(g)
        assert dg.upper_degrees == g.upper_degrees
        assert dg.lower_degrees == (1, 1, 1)
        assert ug.lower_degrees == g.lower_degrees
        assert ug.upper_degrees == (1, 1, 1)
        assert dg.is_simple() and ug.is_simple()


@pytest.mark.parametrize("n,d", [(2, 2), (3, 3)])
def test_reconstruction_from_d_and_u(n, d):
    """The original graph is recovered by composing U(g) after D(g)."""
    for g in enum_M(n, d):
        dg, ug = d_of(g), u_of(g)
        composite = tuple(
            tuple(sum(dg.adj[i][k] * ug.adj[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        assert composite == g.adj


def test_d_of_requires_square_with_room():
    with pytest.raises(ValueError):
        d_of(BipartiteGraph.from_adj([[1, 0]]))
    with pytest.raises(ValueError):
        d_of(BipartiteGraph.from_adj([[2, 1], [0, 0]]))  # d = 3 > n = 2
    with pytest.raises(ValueError):
        u_of(BipartiteGraph.from_adj([[2, 1], [0, 0]]))
