"""Acceptance gate: one test per release criterion, in order.

Each test prints a single ``criterion NN: PASS`` line (visible under ``-s``)
and enforces the stated runtime bound where one applies.  All equality checks
are exact; nothing here is approximate.
"""

import itertools
import math
import random
import time

from altschur import (
    GF,
    QQ,
    BipartiteGraph,
    anti_involution,
    complete_bipartite,
    delta_checks,
    enum_Lambda,
    enum_M,
    enum_N,
    factorization_check,
    gamma0_lambda,
    gamma_lambda,
    gamma_lambda_star,
    gamma_perm,
    multiply,
    verify_table,
    xi,
    zeta,
)
from altschur.algebra import GradedElement, all_symbols, rect_compose, structure_constants
from altschur.enumeration import graph_index, lambda_factorial
from altschur.koszul import (
    as_module_to_pair,
    eta_map,
    pair_to_as_module,
    phi_analysis,
    psi_analysis,
    regular_as_module,
    regular_smodule,
)
from altschur.linalg import SparseEchelon

import bruteforce


def elem(sym, field=QQ):
    return GradedElement.from_symbol(sym, field)


def test_criterion_01_worked_product():
    start = time.perf_counter()
    x = elem(xi(BipartiteGraph.from_adj([[2, 0], [1, 1]])))
    y = elem(xi(BipartiteGraph.from_adj([[2, 1], [0, 1]])))
    expected = GradedElement(
        2,
        4,
        QQ,
        {
            xi(BipartiteGraph.from_adj([[3, 0], [0, 1]])): QQ.from_int(3),
            xi(BipartiteGraph.from_adj([[2, 1], [1, 0]])): QQ.one,
        },
    )
    assert multiply(x, y) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 01: PASS (worked product at (2,4), {elapsed:.3f}s)")


def test_criterion_02_latin_square_coefficients():
    start = time.perf_counter()
    for n, count in [(1, 1), (2, 2), (3, 12)]:
        assert bruteforce.latin_count(n) == count
        f = elem(xi(complete_bipartite(n)))
        square = multiply(f, f)
        assert square.terms[xi(complete_bipartite(n))] == QQ.from_int(count)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 02: PASS (Latin square counts 1, 2, 12, {elapsed:.3f}s)")


def test_criterion_03_zetazeta_identity():
    start = time.perf_counter()
    for lam in enum_Lambda(3, 3):
        product = multiply(elem(zeta(gamma_lambda(lam, 3))), elem(zeta(gamma_lambda_star(lam, 3))))
        expected = GradedElement(
            3, 3, QQ, {xi(gamma0_lambda(lam, 3)): QQ.from_int(lambda_factorial(lam))}
        )
        assert product == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 03: PASS ({len(enum_Lambda(3, 3))} compositions, {elapsed:.3f}s)")


def test_criterion_04_permutation_homomorphism():
    perms = list(itertools.permutations((1, 2, 3)))
    for w1 in perms:
        for w2 in perms:
            composed = tuple(w1[w2[k] - 1] for k in range(3))
            got = multiply(elem(xi(gamma_perm(w1))), elem(xi(gamma_perm(w2))))
            assert got == elem(xi(gamma_perm(composed)))
    print("criterion 04: PASS (36 permutation products at (3,3))")


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    total = 0
    for n, d in [(2, 2), (2, 3), (2, 4), (3, 3)]:
        for field in (QQ, GF(5)):
            report = verify_table(n, d, field)
            assert report.ok, report.mismatches[:3]
            total += report.pairs_checked
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 05: PASS (oracle equivalence, {total} pairs, {elapsed:.3f}s)")


def test_criterion_06_anti_involution():
    syms22 = all_symbols(2, 2)
    for sym in syms22:
        x = elem(sym)
        assert anti_involution(anti_involution(x)) == x
    for a in syms22:
        for b in syms22:
            x, y = elem(a), elem(b)
            assert anti_involution(multiply(x, y)) == multiply(
                anti_involution(y), anti_involution(x)
            )
    syms33 = all_symbols(3, 3)
    rng = random.Random(2024)
    for _ in range(100):
        x, y = elem(rng.choice(syms33)), elem(rng.choice(syms33))
        assert anti_involution(multiply(x, y)) == multiply(anti_involution(y), anti_involution(x))
    print("criterion 06: PASS (anti-involution on 256 + 100 pairs)")


def test_criterion_07_factorization_and_delta_checks():
    odd_checked = 0
    for n, d in [(2, 2), (3, 3)]:
        for g in enum_N(n, d):
            assert factorization_check(g).ok
            odd_checked += 1
    even_checked = 0
    for n, d in [(2, 2), (3, 3)]:
        for report in delta_checks(enum_M(n, d)):
            assert report.ok
            even_checked += 1
    print(f"criterion 07: PASS (factorization {odd_checked} odd, delta {even_checked} even)")


def test_criterion_08_phi_dichotomy():
    start = time.perf_counter()
    for n, d in [(2, 2), (3, 3)]:
        for field in (QQ, GF(5)):
            assert phi_analysis(n, d, field).iso
    assert not phi_analysis(1, 2, QQ).iso
    assert not phi_analysis(2, 4, QQ).iso
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"criterion 08: PASS (phi dichotomy, {elapsed:.3f}s)")


def test_criterion_09_psi_dichotomy():
    cells = [(n, d) for n in range(1, 4) for d in range(1, 4)] + [(2, 4)]
    for n, d in cells:
        assert psi_analysis(n, d, QQ).iso == (n >= d)
    report = psi_analysis(2, 3, QQ)
    target = graph_index("M", 2, 3)[BipartiteGraph.from_adj([[3, 0], [0, 0]])]
    echelon = SparseEchelon(QQ)
    for vec in report.kernel_vectors:
        echelon.add_row(vec)
    # in the span: adding the target does not raise the rank
    assert not echelon.add_row({target: QQ.one})
    print("criterion 09: PASS (psi iso iff n >= d; parallel-edge kernel witness at (2,3))")


def test_criterion_10_module_correspondence():
    module = regular_as_module(2, 2, QQ)
    pair = as_module_to_pair(module)
    # reconstruction re-checks the compatibility square before accepting theta
    back = pair_to_as_module(pair, validate="full")
    assert back.action == module.action
    assert back.odd_action == module.odd_action
    print("criterion 10: PASS (module <-> pair roundtrip exact at (2,2))")


def test_criterion_11_eta_criterion():
    assert eta_map(regular_smodule(2, 2, QQ)).iso
    assert not eta_map(regular_smodule(2, 4, QQ)).iso
    print("criterion 11: PASS (eta iso at (2,2), not at (2,4))")


def test_criterion_12_dimension_identity():
    for n in range(1, 5):
        for d in range(1, 5):
            total = sum(
                math.prod(math.comb(n, part) for part in lam) for lam in enum_Lambda(n, d)
            )
            assert total == math.comb(n * n, d)
    print("criterion 12: PASS (dimension identity for n, d <= 4)")


def test_criterion_13_rectangular_composition():
    Ms = enum_M(2, 2)
    for g1 in Ms:
        for g2 in Ms:
            expected = {s.graph: c for s, c in structure_constants(xi(g1), xi(g2)).items()}
            assert rect_compose(g1, g2) == expected
    print("criterion 13: PASS (square-case composition matches structure constants)")
