"""Products in the graded algebra: symbols, elements, the four structure
constant cases, identity, anti-involution, the factorization diagnostics,
rectangular composition, and table persistence."""

import collections
import errno
import gc
import hashlib
import itertools
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

from altschur import (
    BasisSymbol,
    BipartiteGraph,
    BudgetExceededError,
    GF,
    GradedElement,
    QQ,
    anti_involution,
    complete_bipartite,
    delta_check,
    delta_checks,
    enum_B,
    enum_Lambda,
    enum_M,
    enum_N,
    factorization_check,
    gamma0_lambda,
    gamma_lambda,
    gamma_lambda_star,
    gamma_perm,
    identity,
    multiply,
    pair_graph,
    rect_compose,
    representative_pair,
    structure_constants,
    xi,
    zeta,
)
from altschur import algebra, cli
from altschur.algebra import all_symbols, build_table, convolve, load_table, save_table
from altschur.enumeration import act_word, enum_M_rect, lambda_factorial
from altschur.graphs import d_of, pair_sign, u_of

import bruteforce
from bruteforce import convolution_value, convolve_by_words, kernel_value, latin_count, table_json
from conftest import _release_cells


def elem(sym, field=QQ, coeff=None):
    return GradedElement.from_symbol(sym, field, coeff)


# -- symbols and elements -----------------------------------------------------


def test_basis_symbol_validation():
    g = BipartiteGraph.from_adj([[2, 0], [0, 0]])
    assert xi(g).parity == "even"
    assert not xi(g).is_odd
    with pytest.raises(ValueError):
        zeta(g)  # odd symbols require simple graphs
    with pytest.raises(ValueError):
        BasisSymbol("even", BipartiteGraph.from_adj([[1, 0]]))
    with pytest.raises(ValueError):
        BasisSymbol("mixed", g)


def test_cached_hashes_survive_pickling():
    for g in enum_M(2, 3):
        twin = BipartiteGraph.from_adj(g.adj)
        copy = pickle.loads(pickle.dumps(g))
        assert twin == g == copy and hash(twin) == hash(g) == hash(copy)
    for sym in all_symbols(2, 3):
        twin = BasisSymbol(sym.parity, BipartiteGraph.from_adj(sym.graph.adj))
        copy = pickle.loads(pickle.dumps(sym))
        assert twin == sym == copy and hash(twin) == hash(sym) == hash(copy)
    assert len({hash(sym) for sym in all_symbols(2, 3)}) == len(all_symbols(2, 3))


_LOOKUP_UNPICKLED = """
import pickle, sys
from altschur.algebra import all_symbols
syms = pickle.loads(sys.stdin.buffer.read())
fresh = {s: k for k, s in enumerate(all_symbols(2, 3))}
print(hash("odd"))
print(sum(1 for k, s in enumerate(syms) if fresh.get(s) != k))
"""


def test_unpickled_symbols_found_under_another_hash_seed():
    # a worker process hands symbols back pickled with the hashes it built
    syms = all_symbols(2, 3)
    src = os.path.dirname(os.path.dirname(algebra.__file__))
    seed = os.environ.get("PYTHONHASHSEED", "")
    env = dict(os.environ, PYTHONHASHSEED=str(int(seed) + 1) if seed.isdigit() else "1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _LOOKUP_UNPICKLED],
        input=pickle.dumps(syms),
        capture_output=True,
        env=env,
        timeout=60,
        check=True,
    )
    child_str_hash, missing = map(int, proc.stdout.split())
    assert child_str_hash != hash("odd")  # the two processes hash strings differently
    assert missing == 0


def test_symbol_strings():
    assert str(xi(BipartiteGraph.from_adj([[2, 0], [1, 1]]))) == "xi[[2,0],[1,1]]"
    assert str(zeta(gamma_perm((2, 1)))) == "zeta[[0,1],[1,0]]"


def test_all_symbols_order():
    syms = all_symbols(2, 2)
    assert len(syms) == 16
    assert [s.parity for s in syms] == ["even"] * 10 + ["odd"] * 6
    keys = [s.sort_key() for s in syms]
    assert keys == sorted(keys)


def test_element_arithmetic():
    a = elem(xi(gamma_perm((1, 2))))
    b = elem(xi(gamma_perm((2, 1))))
    s = a + b.scale(QQ.from_int(3))
    assert s.coefficient(xi(gamma_perm((2, 1)))) == 3
    assert (s - s).is_zero()
    assert s.even_part() == s
    assert s.odd_part().is_zero()
    assert str(a + b) == "1/1*xi[[0,1],[1,0]] + 1/1*xi[[1,0],[0,1]]"


def test_zero_coefficients_dropped():
    sym = xi(gamma_perm((1, 2)))
    e = GradedElement(2, 2, QQ, {sym: QQ.zero})
    assert e.is_zero() and not e.terms


def test_element_compat_checks():
    a = elem(xi(gamma_perm((1, 2))))
    b = elem(xi(gamma_perm((1, 2, 3))))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        multiply(a, b)
    with pytest.raises(ValueError):
        a + elem(xi(gamma_perm((1, 2))), GF(5))


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_element_json_roundtrip(field):
    e = elem(xi(gamma_perm((2, 1))), field) + elem(zeta(gamma_perm((1, 2))), field).scale(
        field.from_int(-2)
    )
    assert GradedElement.from_json_dict(e.to_json_dict()) == e


def test_element_json_duplicate_terms_rejected():
    e = elem(xi(gamma_perm((2, 1))))
    data = e.to_json_dict()
    data["terms"] = data["terms"] * 2
    with pytest.raises(ValueError):
        GradedElement.from_json_dict(data)


@pytest.mark.parametrize("n,d", [(0, -1), (-2, 2), (2, -1)])
def test_element_json_refuses_bad_parameters(n, d):
    """n < 1 or d < 0 is no parameter pair: refused as load_table refuses it."""
    data = {"n": n, "d": d, "field": "Q", "terms": []}
    with pytest.raises(ValueError, match=re.escape(f"(n, d) = ({n}, {d}) is not a pair of parameters")):
        GradedElement.from_json_dict(data)


# -- pinned products ------------------------------------------------------------


def test_worked_product():
    x = elem(xi(BipartiteGraph.from_adj([[2, 0], [1, 1]])))
    y = elem(xi(BipartiteGraph.from_adj([[2, 1], [0, 1]])))
    product = multiply(x, y)
    expected = elem(xi(BipartiteGraph.from_adj([[3, 0], [0, 1]])), coeff=QQ.from_int(3)) + elem(
        xi(BipartiteGraph.from_adj([[2, 1], [1, 0]]))
    )
    assert product == expected


def test_zetazeta_drawing_case():
    lam = (2, 1, 0)
    z1 = elem(zeta(gamma_lambda(lam, 3)))
    z2 = elem(zeta(gamma_lambda_star(lam, 3)))
    assert multiply(z1, z2) == elem(xi(gamma0_lambda(lam)), coeff=QQ.from_int(2))


@pytest.mark.parametrize("n", [1, 2])
def test_latin_square_coefficient(n):
    f = complete_bipartite(n)
    sq = multiply(elem(xi(f)), elem(xi(f)))
    assert sq.coefficient(xi(f)) == latin_count(n)


def test_permutation_homomorphism_s2():
    for w1 in itertools.permutations((1, 2)):
        for w2 in itertools.permutations((1, 2)):
            prod = multiply(elem(xi(gamma_perm(w1))), elem(xi(gamma_perm(w2))))
            composed = tuple(w1[w2[k] - 1] for k in range(2))
            assert prod == elem(xi(gamma_perm(composed)))


# -- identity -------------------------------------------------------------------


def test_identity_form():
    e = identity(2, 2, QQ)
    assert e == (
        elem(xi(BipartiteGraph.from_adj([[2, 0], [0, 0]])))
        + elem(xi(BipartiteGraph.from_adj([[1, 0], [0, 1]])))
        + elem(xi(BipartiteGraph.from_adj([[0, 0], [0, 2]])))
    )
    assert identity(1, 4, QQ) == elem(xi(BipartiteGraph.from_adj([[4]])))


def test_identity_fixes_odd_symbols():
    e = identity(2, 2, QQ)
    for g in enum_N(2, 2):
        z = elem(zeta(g))
        assert multiply(e, z) == z
        assert multiply(z, e) == z


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_identity_on_random_elements(field):
    rng = random.Random(17)
    syms = all_symbols(2, 3)
    e = identity(2, 3, field)
    for _ in range(10):
        x = GradedElement.zero(2, 3, field)
        for _ in range(3):
            x = x + elem(rng.choice(syms), field, field.from_int(rng.randrange(-3, 4)))
        assert multiply(e, x) == x
        assert multiply(x, e) == x


# -- structural properties ---------------------------------------------------------


def test_grading_closure():
    syms = all_symbols(2, 2)
    for a in syms:
        for b in syms:
            odd_target = a.is_odd != b.is_odd
            for s in structure_constants(a, b):
                assert s.is_odd == odd_target
                if s.is_odd:
                    assert s.graph.is_simple()
    rng = random.Random(23)
    syms23 = all_symbols(2, 3)
    for _ in range(40):
        a, b = rng.choice(syms23), rng.choice(syms23)
        for s in structure_constants(a, b):
            assert s.is_odd == (a.is_odd != b.is_odd)


def test_products_match_first_principles_at_2_2():
    """Every basis product agrees with the raw kernel convolution at every
    configuration pair.  This is the definition, with no shared code path."""
    syms = all_symbols(2, 2)
    words = list(enum_B(2, 2))
    for a in syms:
        for b in syms:
            x, y = elem(a), elem(b)
            product = multiply(x, y)
            for s_word in words:
                for u_word in words:
                    assert convolution_value(x, y, s_word, u_word) == kernel_value(
                        product, s_word, u_word
                    )


def test_odd_kernels_vanish_at_non_transverse_pairs():
    words = list(enum_B(2, 2))
    mixed = [
        (elem(xi(g1)), elem(zeta(g2)))
        for g1 in enum_M(2, 2)
        for g2 in enum_N(2, 2)
    ]
    mixed += [(y, x) for x, y in mixed]
    non_transverse = [
        (s, u)
        for s in words
        for u in words
        if not pair_graph(s, u, 2).is_simple()
    ]
    assert non_transverse
    for x, y in mixed:
        for s_word, u_word in non_transverse:
            assert convolution_value(x, y, s_word, u_word) == QQ.zero


def test_odd_coefficients_independent_of_target_labelling():
    """Reading an odd product at any translated pair gives sign * coefficient."""
    rng = random.Random(41)
    cases = [
        (elem(zeta(g)), elem(xi(gamma0_lambda(lam))))
        for g in enum_N(2, 2)
        for lam in enum_Lambda(2, 2)
    ]
    for x, y in cases:
        product = multiply(x, y)
        for sym, coeff in product.terms.items():
            s0, u0 = representative_pair(sym.graph)
            for _ in range(5):
                w = list(range(1, 3))
                rng.shuffle(w)
                s_word, u_word = act_word(s0, w), act_word(u0, w)
                expected = QQ.mul(QQ.from_int(pair_sign(s_word, u_word)), coeff)
                assert convolution_value(x, y, s_word, u_word) == expected


def test_associativity_full_2_2():
    syms = [elem(s) for s in all_symbols(2, 2)]
    for a in syms:
        for b in syms:
            ab = multiply(a, b)
            for c in syms:
                assert multiply(ab, c) == multiply(a, multiply(b, c))


@pytest.mark.parametrize("n,d", [(2, 3), (3, 3)])
def test_associativity_random_triples(n, d):
    rng = random.Random(43)
    syms = all_symbols(n, d)
    for _ in range(200):
        a, b, c = (elem(rng.choice(syms)) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


# -- anti-involution ---------------------------------------------------------------


def test_anti_involution_fixes_symmetric_even_symbols():
    g = BipartiteGraph.from_adj([[1, 2], [2, 0]])
    x = elem(xi(g))
    assert anti_involution(x) == x


def test_anti_involution_squares_to_identity():
    for sym in all_symbols(2, 2):
        x = elem(sym)
        assert anti_involution(anti_involution(x)) == x


def test_anti_involution_reverses_products():
    syms = [elem(s) for s in all_symbols(2, 2)]
    for x in syms:
        for y in syms:
            assert anti_involution(multiply(x, y)) == multiply(
                anti_involution(y), anti_involution(x)
            )


# -- factorization diagnostics ---------------------------------------------------


def test_factorization_check_2_2():
    for g in enum_N(2, 2):
        report = factorization_check(g)
        assert report.ok and bool(report)
        assert report.failures == []


def test_delta_check_2_2():
    graphs = enum_M(2, 2)
    reports = list(delta_checks(graphs))
    assert len(reports) == len(graphs) and all(r.ok for r in reports)
    assert [delta_check(g) for g in graphs] == reports


_DELTA_CELLS = [(2, 2), (3, 2), (3, 3), (4, 2), pytest.param(4, 3, marks=pytest.mark.stretch)]


@pytest.mark.parametrize("n,d", _DELTA_CELLS)
def test_delta_suite_matches_the_all_pairs_reference(n, d):
    """The per-cell loop convolves each probe's products once; its suite
    result equals the reference's, which convolves them once per graph."""
    assert cli._suite_delta(n, d, GF(5), (None, None)) == bruteforce.delta_suite(n, d) == (True, len(enum_M(n, d)), "")
    if n * d <= 9:
        graphs = enum_M(n, d)
        assert list(delta_checks(graphs)) == [bruteforce.delta_check(g) for g in graphs]


@pytest.mark.parametrize("matched", [True, False], ids=["margin-matched", "mismatched"])
def test_delta_suite_catches_one_wrong_product(monkeypatch, matched):
    """One extra 1 at ζ(u(g)) in a single product ξ_{g'} · ζ(d(g)*), g' ≠ g,
    fails the suite at g, with the reference's checks and detail."""
    n, d = 3, 3
    graphs = enum_M(n, d)
    g = graphs[100]
    probe, target = zeta(d_of(g).star()), zeta(u_of(g))
    other = next(h for h in graphs if h != g and (h.upper_degrees == g.upper_degrees) == matched)
    real = algebra.structure_constants

    def one_wrong(sym1, sym2):
        out = dict(real(sym1, sym2))
        if (sym1, sym2) == (xi(other), probe):
            out[target] = out.get(target, 0) + 1
        return out

    monkeypatch.setattr(algebra, "structure_constants", one_wrong)
    got = cli._suite_delta(n, d, GF(5), (None, None))
    assert got == bruteforce.delta_suite(n, d)
    assert got == (False, 100, f"delta reading fails on {g}: coefficient at g'={other} is 1, expected 0")


def test_factorization_rejects_bad_inputs():
    with pytest.raises(ValueError):
        factorization_check(BipartiteGraph.from_adj([[2, 0], [0, 0]]))
    with pytest.raises(ValueError):
        factorization_check(enum_N(2, 3)[0])  # n < d
    with pytest.raises(ValueError):
        delta_check(enum_M(2, 3)[0])


# -- rectangular composition -------------------------------------------------------


def test_rect_compose_square_case_matches_structure_constants():
    for g1 in enum_M(2, 2):
        for g2 in enum_M(2, 2):
            got = rect_compose(g1, g2)
            expected = {
                s.graph: c for s, c in structure_constants(xi(g1), xi(g2)).items()
            }
            assert got == expected


def test_rect_compose_single_middle_vertex():
    """With one middle vertex the middle configuration is forced, so every
    coefficient is 1 and the realizing pairs fill one orbit each."""
    g1 = BipartiteGraph.from_adj([[2, 1]])  # 1 upper vertex, 2 lower
    g2 = BipartiteGraph.from_adj([[2], [1]])  # 2 upper vertices, 1 lower
    got = rect_compose(g1, g2)
    assert got and all(c == 1 for c in got.values())
    assert set(got) == {
        pair_graph((1, 1, 2), u, 2)
        for u in [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    }
    # brute force: count configuration pairs realizing each target
    d = 3
    for target, coeff in got.items():
        realizations = [
            (s, u)
            for s in enum_B(2, d)
            for u in enum_B(2, d)
            if pair_graph(s, u, 2) == target
        ]
        mult = math.prod(math.factorial(x) for row in target.adj for x in row)
        assert len(realizations) == math.factorial(d) // mult
        assert coeff == 1


def test_rect_compose_with_identity_matching():
    eye = gamma_perm((1, 2, 3))
    for w in itertools.permutations((1, 2, 3)):
        g = gamma_perm(w)
        assert rect_compose(g, eye) == {g: 1}
        assert rect_compose(eye, g) == {g: 1}


def test_convolve_error_paths():
    g22 = gamma_perm((1, 2))
    g33 = gamma_perm((1, 2, 3))
    with pytest.raises(ValueError):
        convolve(g22, g33, False, False)  # inner vertex sets disagree
    a = BipartiteGraph.from_adj([[2, 0], [0, 0]])
    b = BipartiteGraph.from_adj([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        convolve(a, b, False, False)  # degree mismatch
    with pytest.raises(ValueError):
        convolve(a, a, True, False)  # odd factor on a non-simple graph


def test_structure_constants_parameter_mismatch():
    with pytest.raises(ValueError):
        structure_constants(xi(gamma_perm((1, 2))), xi(gamma_perm((1, 2, 3))))


# -- the table rule against the word walk -------------------------------------------

PARITY_CASES = [(False, False), (False, True), (True, False), (True, True)]


def _graphs(odd, n_up, n_down, d):
    graphs = enum_M_rect(n_up, n_down, d)
    return [g for g in graphs if g.is_simple()] if odd else graphs


def _margin_matched_pairs(n, d):
    """Every (g1, g2, odd1, odd2) at (n, d) whose middle margins agree."""
    syms = [(g, False) for g in enum_M(n, d)] + [(g, True) for g in enum_N(n, d)]
    by_lower = {}
    for g, odd in syms:
        by_lower.setdefault(g.lower_degrees, []).append((g, odd))
    return [
        (g1, g2, odd1, odd2)
        for g1, odd1 in syms
        for g2, odd2 in by_lower.get(g1.upper_degrees, ())
    ]


def _random_pairs(rng, count, left_shape, right_shape, d):
    """``count`` seeded margin-matched pairs, cycling through the parity cases.

    ``left_shape`` and ``right_shape`` are the (upper, lower) vertex counts
    of g1 and g2; g1's upper count must be g2's lower count.
    """
    lefts = {odd: _graphs(odd, *left_shape, d) for odd in (False, True)}
    by_lower = {False: {}, True: {}}
    for odd, bucket in by_lower.items():
        for g in _graphs(odd, *right_shape, d):
            bucket.setdefault(g.lower_degrees, []).append(g)
    cases = []
    for k in range(count):
        odd1, odd2 = PARITY_CASES[k % 4]
        while True:
            g1 = rng.choice(lefts[odd1])
            rights = by_lower[odd2].get(g1.upper_degrees)
            if rights:
                break
        cases.append((g1, rng.choice(rights), odd1, odd2))
    return cases


def _assert_matches_words(cases):
    for g1, g2, odd1, odd2 in cases:
        assert convolve(g1, g2, odd1, odd2) == convolve_by_words(g1, g2, odd1, odd2), (
            g1, g2, odd1, odd2,
        )


@pytest.mark.parametrize(
    "n,d",
    [(n, d) for n in (1, 2, 3) for d in (1, 2, 3)] + [(2, 4), (2, 5), (2, 6)],
)
def test_convolve_matches_word_walk_on_every_pair(n, d):
    cases = _margin_matched_pairs(n, d)
    parities = (False, True) if enum_N(n, d) else (False,)
    assert {(o1, o2) for _, _, o1, o2 in cases} == {(a, b) for a in parities for b in parities}
    _assert_matches_words(cases)


@pytest.mark.parametrize("n,d", [(3, 4), (3, 5), (4, 3), (4, 4)])
def test_convolve_matches_word_walk_on_random_pairs(n, d):
    rng = random.Random(1000 * n + d)
    _assert_matches_words(_random_pairs(rng, 76, (n, n), (n, n), d))


@pytest.mark.parametrize("left_shape,right_shape", [((2, 3), (3, 2)), ((3, 2), (2, 3))])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_convolve_matches_word_walk_on_rectangular_pairs(left_shape, right_shape, d):
    rng = random.Random(100 * left_shape[0] + d)
    _assert_matches_words(_random_pairs(rng, 24, left_shape, right_shape, d))


@pytest.mark.stretch
def test_convolve_matches_word_walk_on_every_pair_3_4():
    _assert_matches_words(_margin_matched_pairs(3, 4))


def test_word_walk_gate_catches_dropped_slice_crossings(monkeypatch):
    """With every slice reporting no crossings, the left sign loses the
    inversions between two balls of one middle box, and the word walk at
    (3,3) disagrees exactly where the left factor is odd."""
    tables = algebra._tables
    monkeypatch.setattr(
        algebra, "_tables", lambda rows, cols: tuple((nonzero, 0) for nonzero, _ in tables(rows, cols))
    )
    wrong = collections.Counter(
        (odd1, odd2)
        for g1, g2, odd1, odd2 in _margin_matched_pairs(3, 3)
        if convolve(g1, g2, odd1, odd2) != convolve_by_words(g1, g2, odd1, odd2)
    )
    assert set(wrong) == {(True, False), (True, True)}, wrong


# sha256 of repr(sorted((adj, coefficient), ...)) of the product, and its
# number of targets; recorded from the convolve that kept each table's slices
# for the sign, before signed products merged their partial sums
_K4_SQUARED = {
    False: (10147, "7eea25f1b50db4d335e2b07eb53b5c717386fbfe0e48708902441e544c0de656"),
    True: (10147, "d3a165c1f50bf519f0f800ab53c5edf02b453102b5cb0667271ae578f8bb33c8"),
}


@pytest.mark.stretch
@pytest.mark.parametrize("odd", [False, True], ids=["xi", "zeta"])
def test_k4_squared_is_pinned(odd):
    k4 = complete_bipartite(4)
    product = convolve(k4, k4, odd, odd)
    digest = hashlib.sha256(repr(sorted((g.adj, c) for g, c in product.items())).encode()).hexdigest()
    assert (len(product), digest) == _K4_SQUARED[odd]


@pytest.mark.stretch
@pytest.mark.parametrize("n,d", [(3, 8), (4, 6), (4, 7)])
def test_odd_products_follow_the_trace_form_at_products_cells(n, d):
    """Seeded ζ_a ζ_b, convolved with both ball signs, against the trace form
    read off ξ_{h*} ζ_a, convolved with the right sign only: the coefficient
    of ξ_h is s_b · h! times that of ζ_{b*} in ξ_{h*} ζ_a."""
    rng = random.Random(10 * n + d)
    odds = enum_N(n, d)
    by_lower = {}
    for b in odds:
        by_lower.setdefault(b.lower_degrees, []).append(b)
    targets = 0
    for a in rng.sample(odds, min(30, len(odds))):
        rights = by_lower.get(a.upper_degrees, [])
        for b in rng.sample(rights, min(2, len(rights))):
            for h, c in convolve(a, b, True, True).items():
                fact = lambda_factorial([x for row in h.adj for x in row])
                left = convolve(h.star(), a, False, True)
                assert c == algebra.iota_sign(b) * fact * left.get(b.star(), 0), (a, b, h)
                targets += 1
    assert targets


def _column_multinomials(g):
    """Number of words U with pair graph (S, U) = g, for a fixed sorted S."""
    out = 1
    for j in range(g.n_down):
        col = [g.adj[i][j] for i in range(g.n_up)]
        out *= math.factorial(sum(col)) // math.prod(math.factorial(x) for x in col)
    return out


def _assert_column_count(g1, g2):
    """Counting the (T, U) of a fixed S two ways: by target, or T then U."""
    product = convolve(g1, g2, False, False)
    assert sum(c * _column_multinomials(g) for g, c in product.items()) == (
        _column_multinomials(g1) * _column_multinomials(g2)
    )


@pytest.mark.parametrize("n,d", [(3, 4), (4, 4), (3, 6)])
def test_even_products_satisfy_column_count_identity(n, d):
    rng = random.Random(7 * n + d)
    # every fourth pair is even * even
    for g1, g2, _, _ in _random_pairs(rng, 40, (n, n), (n, n), d)[::4]:
        _assert_column_count(g1, g2)


def test_column_count_identity_for_k4_squared():
    k4 = complete_bipartite(4)
    start = time.perf_counter()
    _assert_column_count(k4, k4)
    assert time.perf_counter() - start < 5.0


# -- tables ------------------------------------------------------------------------


TABLE_SIZES = [(2, 2), (2, 3), (3, 2)]


@pytest.mark.parametrize("n,d", TABLE_SIZES)
def test_table_roundtrip(tmp_path, n, d):
    table = build_table(n, d)
    path = tmp_path / "table.json"
    save_table(table, n, d, str(path))
    loaded_n, loaded_d, loaded = load_table(str(path))
    assert (loaded_n, loaded_d) == (n, d)
    for key, terms in table.items():
        assert loaded[key] == terms


def _all_pairs_reference(n, d):
    # the table as a plain dict with an entry for every pair, zero or not
    syms = all_symbols(n, d)
    return {
        (a, b): {
            BasisSymbol("odd" if a.is_odd != b.is_odd else "even", g): c
            for g, c in convolve(a.graph, b.graph, a.is_odd, b.is_odd).items()
        }
        for a in syms
        for b in syms
    }


# every cell with n <= 3 and d <= 4, and (2,5) and (4,2); the all-pairs
# reference makes larger cells too slow for tier 1
TABLE_CELLS = [(n, d) for n in range(1, 4) for d in range(1, 5)] + [(2, 5), (4, 2)]


@pytest.mark.parametrize("n,d", TABLE_CELLS)
def test_table_mapping_contract(tmp_path, n, d):
    """The built table, and its file read back, hold exactly the pairs with
    a nonzero product, each with its convolved terms; the file holds the
    bytes of the reference writer."""
    nonzero = {k: v for k, v in _all_pairs_reference(n, d).items() if v}
    built = build_table(n, d)
    path = tmp_path / "table.json"
    save_table(built, n, d, str(path))
    assert built == nonzero
    assert path.read_bytes() == table_json(built, n, d).encode()
    assert load_table(str(path)) == (n, d, nonzero)


def test_structure_constants_skips_convolve_on_mismatched_margins(monkeypatch):
    def no_convolve(*args):
        raise AssertionError("convolve called")

    monkeypatch.setattr(algebra, "convolve", no_convolve)
    mismatched = [
        (a, b) for a in all_symbols(2, 3) for b in all_symbols(2, 3)
        if a.graph.upper_degrees != b.graph.lower_degrees
    ]
    assert mismatched
    for a, b in mismatched:
        assert structure_constants(a, b) == {}
    a, b = all_symbols(2, 2)[0], all_symbols(2, 3)[-1]
    for left, right in ((a, b), (b, a), (a, all_symbols(3, 2)[-1])):
        with pytest.raises(ValueError, match="different parameters"):
            structure_constants(left, right)
    with pytest.raises(AssertionError, match="convolve called"):
        structure_constants(a, a)


@pytest.mark.parametrize("n,d", TABLE_SIZES)
def test_table_agrees_with_multiply(n, d):
    table = build_table(n, d)
    for (a, b), terms in table.items():
        assert terms == structure_constants(a, b)


def test_table_file_bytes_are_stable(tmp_path):
    # digest recorded when every pair was convolved: skipping pairs must not change the bytes
    path = tmp_path / "table.json"
    save_table(build_table(2, 3), 2, 3, str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["table.json"]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "e55341e25a1900a9d12b0287158a52a5747fa98f1de70c21539c832c3f595539"


def test_table_file_bytes_are_stable_at_3_4(tmp_path):
    # digest of the (3,4) file before entries and terms were sorted by rank
    path = tmp_path / "table.json"
    save_table(build_table(3, 4), 3, 4, str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "505ebbd347b5de63bdee751988d4b655f9c6626c6e9d851f4caf2c65773f45fd"


def test_save_table_failure_leaves_no_file(tmp_path, monkeypatch):
    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()
            return False

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(algebra, "open", lambda *a, **k: HalfWriter(open(*a, **k)), raising=False)
    path = tmp_path / "table.json"
    with pytest.raises(OSError):
        save_table(build_table(2, 2), 2, 2, str(path))
    assert list(tmp_path.iterdir()) == []


def _write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_load_table_rejects_symbol_outside_basis(tmp_path):
    path = tmp_path / "table.json"
    save_table(build_table(2, 2), 2, 2, str(path))
    data = json.loads(path.read_text(encoding="utf-8"))
    data["entries"][0]["left"]["adj"] = [[3, 0], [1, 1]]  # degree 5 at d = 2
    with pytest.raises(ValueError, match="not in the basis"):
        load_table(_write_json(path, data))


def test_load_table_rejects_invalid_odd_symbol(tmp_path):
    entry = {
        "left": {"parity": "odd", "adj": [[2, 0], [0, 0]]},
        "right": {"parity": "even", "adj": [[2, 0], [0, 0]]},
        "terms": [],
    }
    with pytest.raises(ValueError, match="not in the basis"):
        load_table(_write_json(tmp_path / "t.json", {"n": 2, "d": 2, "entries": [entry]}))


def _one_symbol_table(record):
    """A (1,1) table whose one entry has ``record`` as its left symbol."""
    sym = {"parity": "even", "adj": [[1]]}
    return {"n": 1, "d": 1, "entries": [{"left": record, "right": sym, "terms": [[sym, 1]]}]}


@pytest.mark.parametrize(
    "data",
    [
        {"n": 2, "d": 2},
        {"d": 2, "entries": []},
        {"n": 2, "d": 2, "entries": [{"left": {"parity": "even", "adj": [[2, 0], [0, 0]]}}]},
        {"n": 2, "d": 2, "entries": [{"left": {"adj": [[2, 0], [0, 0]]}, "right": {}, "terms": []}]},
        {"n": "2", "d": 2, "entries": []},
        [],
        _one_symbol_table({"parity": "even", "adj": 5}),
        _one_symbol_table({"parity": ["even"], "adj": [[1]]}),
        _one_symbol_table({"parity": "even", "adj": [[1, "1"]]}),
    ],
)
def test_load_table_rejects_missing_or_mistyped_keys(tmp_path, data):
    with pytest.raises(ValueError):
        load_table(_write_json(tmp_path / "t.json", data))


def test_load_table_rejects_non_integer_coefficient(tmp_path):
    sym = {"parity": "even", "adj": [[2, 0], [0, 0]]}
    entry = {"left": sym, "right": sym, "terms": [[sym, "1"]]}
    with pytest.raises(ValueError, match="not an integer"):
        load_table(_write_json(tmp_path / "t.json", {"n": 2, "d": 2, "entries": [entry]}))


def _saved_entries(tmp_path, n, d):
    path = tmp_path / "table.json"
    save_table(build_table(n, d), n, d, str(path))
    return json.loads(path.read_text(encoding="utf-8"))


def _list_a_pair_twice(data):
    data["entries"].append(data["entries"][0])


def _list_a_term_twice(data):
    terms = data["entries"][0]["terms"]
    terms.append(terms[0])


def _list_a_term_of_the_wrong_parity(data):
    # the first entry is ξ·ξ, so every term of it is even
    assert data["entries"][0]["left"]["parity"] == data["entries"][0]["right"]["parity"] == "even"
    data["entries"][0]["terms"][0][0] = {"parity": "odd", "adj": [[1, 0], [0, 1]]}


def _list_a_pair_with_unmatched_margins(data):
    # upper degrees (2, 0) on the left, lower degrees (0, 2) on the right
    left, right = {"parity": "even", "adj": [[2, 0], [0, 0]]}, {"parity": "even", "adj": [[0, 0], [0, 2]]}
    data["entries"].append({"left": left, "right": right, "terms": [[left, 1]]})


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_list_a_pair_twice, "listed twice"),
        (_list_a_term_twice, "lists a term twice"),
        (_list_a_term_of_the_wrong_parity, "is not even"),
        (_list_a_pair_with_unmatched_margins, "unmatched margins"),
    ],
    ids=["pair-twice", "term-twice", "term-parity", "margins"],
)
def test_load_table_rejects_inconsistent_entries(tmp_path, corrupt, message):
    """A file whose every symbol is in the basis can still not be a product
    table: it lists a pair or a term twice, a product with a term of the
    wrong parity, or a pair whose product is zero by its margins."""
    data = _saved_entries(tmp_path, 2, 2)
    corrupt(data)
    with pytest.raises(ValueError, match=message):
        load_table(_write_json(tmp_path / "t.json", data))


def test_load_table_rejects_a_pair_listed_first_with_no_terms(tmp_path):
    """A pair listed with no terms is absent from the table read, and
    listing it again with terms is listing it twice."""
    data = _saved_entries(tmp_path, 2, 2)
    data["entries"].insert(0, dict(data["entries"][0], terms=[]))
    with pytest.raises(ValueError, match="listed twice"):
        load_table(_write_json(tmp_path / "t.json", data))
    del data["entries"][1]
    assert len(load_table(_write_json(tmp_path / "t.json", data))[2]) == len(build_table(2, 2)) - 1


def test_load_table_memory_is_proportional_to_its_distinct_symbols(tmp_path):
    """The parse interns symbol records: reading a (2,5) table peaks below
    8 times the file's bytes (16.7 times when every record was its own
    dict), and equal symbols across entries are one object."""
    path = tmp_path / "table.json"
    save_table(build_table(2, 5), 2, 5, str(path))
    tracemalloc.start()
    try:
        table = load_table(str(path))[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * path.stat().st_size
    first = {}  # symbol -> the first object read equal to it
    for pair, terms in table.items():
        for sym in (*pair, *terms):
            assert first.setdefault(sym, sym) is sym
    assert len(first) < sum(2 + len(terms) for terms in table.values())


@pytest.mark.stretch
def test_table_roundtrip_at_4_3(tmp_path):
    table = build_table(4, 3)
    path = tmp_path / "table.json"
    save_table(table, 4, 3, str(path))
    assert load_table(str(path)) == (4, 3, table)


def _one_entry_table(n=1, d=1, coeff=1, edges=1):
    sym = {"parity": "even", "adj": [[edges]]}
    return {"n": n, "d": d, "entries": [{"left": sym, "right": sym, "terms": [[sym, coeff]]}]}


def _right_edges(edges):
    """A one-entry table whose right symbol alone has ``edges`` in its
    ``adj``: the left one and the term, read first, hold the int 1."""
    data = _one_entry_table()
    data["entries"][0]["right"] = {"parity": "even", "adj": [[edges]]}
    return data


@pytest.mark.parametrize(
    "data",
    [
        _one_entry_table(n=True),
        _one_entry_table(d=True),
        _one_entry_table(coeff=True),
        _one_entry_table(edges=True),
        _right_edges(True),
        _right_edges(1.0),
    ],
    ids=["n", "d", "coefficient", "adj", "adj-after-int", "adj-float-after-int"],
)
def test_load_table_rejects_booleans(tmp_path, data):
    """JSON true is not the integer 1: as n, as d, as a coefficient or as an
    edge multiplicity in a symbol's ``adj``.  Neither true nor 1.0 passes in
    an ``adj`` read after an equal int matrix, whose key in the symbol memo
    they equal."""
    assert load_table(_write_json(tmp_path / "good.json", _one_entry_table()))[:2] == (1, 1)
    with pytest.raises(ValueError, match="not a pair of parameters|not an integer|mistyped field"):
        load_table(_write_json(tmp_path / "t.json", data))


@pytest.mark.parametrize("enabled", [True, False])
def test_load_table_restores_the_gc_state(tmp_path, monkeypatch, enabled):
    """Reading pauses the cyclic collector and hands back the caller's
    setting, after a good file, one that is not JSON and one with a bad
    record."""
    collector_on = []  # whether the collector was enabled during each parse
    parse = json.loads

    def recording_parse(text, **kwargs):
        collector_on.append(gc.isenabled())
        return parse(text, **kwargs)

    monkeypatch.setattr(json, "loads", recording_parse)
    good = tmp_path / "good.json"
    save_table(build_table(2, 2), 2, 2, str(good))
    truncated = tmp_path / "truncated.json"
    truncated.write_text(good.read_text(encoding="utf-8")[:-7], encoding="utf-8")
    bad_record = _write_json(tmp_path / "record.json", {"n": 2, "d": 2, "entries": [{"left": {}}]})
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert load_table(str(good))[:2] == (2, 2)
        assert gc.isenabled() is enabled
        for bad in (str(truncated), bad_record):
            with pytest.raises(ValueError):
                load_table(bad)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert collector_on == [False, False, False]


def test_build_table_budget():
    with pytest.raises(BudgetExceededError):
        build_table(2, 2, cap=3)


def test_releasing_the_cells_clears_every_algebra_cache():
    """``_release_cells``, which the stretch tests' fixture runs, empties
    every lru_cache that ``altschur.algebra`` defines or imports, so a new
    per-(n, d) cache cannot outlive a stretch test unseen."""
    caches = [f for f in vars(algebra).values() if hasattr(f, "cache_info")]
    build_table(2, 3)  # every table and product parity, convolve's slices
    assert [f.__name__ for f in caches if not f.cache_info().currsize] == []
    _release_cells()
    assert [f.__name__ for f in caches if f.cache_info().currsize] == []
