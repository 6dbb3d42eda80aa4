"""Duality diagnostics: the odd-component bimodule, the phi and psi maps, the
functor D with its natural transformations, and the (M, theta) equivalence."""

import hashlib
import itertools
import json
import random
import re
import sys
from collections import Counter

import pytest

from altschur import GF, QQ, BipartiteGraph, algebra, koszul
from altschur.enumeration import enum_Lambda, enum_M, enum_N, graph_index
from altschur.koszul import (
    ASModule,
    IncompatibleTheta,
    SModule,
    ThetaPair,
    as_module_to_pair,
    column_module,
    eta_map,
    find_module_isomorphism,
    koszul_dual,
    module_homs,
    odd_smodule,
    pair_to_as_module,
    phi_analysis,
    psi_analysis,
    regular_as_module,
    regular_smodule,
    ringel_dual,
    zero_smodule,
)
from altschur.algebra import build_table, structure_constants, xi, zeta
from altschur.linalg import ExactMatrix, SparseEchelon, add_scaled, compose, sparse_kernel

from conftest import _TABLE_CACHES, _clear
from bruteforce import (
    ambient_dual,
    ambient_eta,
    ambient_hom_vectors,
    ambient_ringel_action,
    commutant_coordinates,
    commutant_rows,
    dense_product_failure,
    intertwiner_space,
    phi_coordinates,
    phi_relation_rows,
    psi_kernel_rows,
    right_table,
    zeta_zeta_image,
)


def scaled(columns, c, field):
    """A map in sparse column form, every entry multiplied by c."""
    return [{r: field.mul(c, x) for r, x in col.items()} for col in columns]


def scale_entry(columns, c, field):
    """Copy of the map with its first non-zero entry multiplied by c."""
    out = [dict(col) for col in columns]
    k = next(k for k, col in enumerate(out) if col)
    r = next(iter(out[k]))
    out[k][r] = field.mul(c, out[k][r])
    return out


def unit_columns(dim, field):
    return [{k: field.one} for k in range(dim)]


# -- the odd component as a bimodule ------------------------------------------------


def test_bimodule_trivial_cell():
    assert odd_smodule(1, 1, QQ).action == [[{0: QQ.one}]]
    assert right_table(1, 1) == ({0: {0: 1}},)


def test_bimodule_shapes():
    odd = odd_smodule(2, 3, QQ)
    assert odd.dim == 4
    assert len(odd.action) == len(enum_M(2, 3)) == 20
    assert all(len(cols) == 4 for cols in odd.action)
    assert len(right_table(2, 3)) == 20


def _apply_int(dicts, vec):
    """Image of the integer vector {a: x} under the map a -> dicts[a]."""
    out = {}
    for a, x in vec.items():
        for c, v in dicts.get(a, {}).items():
            out[c] = out.get(c, 0) + x * v
    return {c: v for c, v in out.items() if v}


def _commutation_failure(left, right, nN):
    """First even pair (g, h) with (ξ_g ζ_a) ξ_h != ξ_g (ζ_a ξ_h) for some
    odd basis symbol a, from the integer tables; None if they all commute."""
    for g, lg in enumerate(left):
        for h, rh in enumerate(right):
            for a in range(nN):
                unit = {a: 1}
                if _apply_int(rh, _apply_int(lg, unit)) != _apply_int(lg, _apply_int(rh, unit)):
                    return g, h
    return None


def test_bimodule_commutation_full():
    """Every left and every right even action on the odd component commute
    (the bimodule axiom), over the integers."""
    for n, d in [(2, 2), (2, 3), (3, 2)]:
        nN = len(enum_N(n, d))
        assert _commutation_failure(algebra._left_dicts(n, d), right_table(n, d), nN) is None


def test_bimodule_commutation_detects_corruption():
    left = list(algebra._left_dicts(2, 2))
    g = next(g for g, per in enumerate(left) if len(per) > 1)
    a = next(iter(left[g]))
    left[g] = {**left[g], a: {c: 2 * v for c, v in left[g][a].items()}}
    assert _commutation_failure(left, right_table(2, 2), len(enum_N(2, 2))) is not None


def _convolved_right_dicts(n, d):
    """The right action ζ_a ξ_g read directly off the structure constants,
    for every odd a whose upper margins meet the lower margins of g."""
    Ns = enum_N(n, d)
    n_idx = graph_index("N", n, d)
    out = []
    for g in enum_M(n, d):
        per = {}
        for ai, a in enumerate(Ns):
            if a.upper_degrees == g.lower_degrees:
                sc = structure_constants(zeta(a), xi(g))
                if sc:
                    per[ai] = {n_idx[s.graph]: c for s, c in sc.items()}
        out.append(per)
    return tuple(out)


MIRROR_CELLS = [(n, d) for n in range(1, 4) for d in range(1, 6)] + [(4, 2)]


@pytest.mark.parametrize("n,d", MIRROR_CELLS + [pytest.param(4, 3, marks=pytest.mark.stretch)])
def test_right_action_is_the_mirror_of_the_left(n, d):
    """The products ζ_a ξ_g, read off the left table through the
    anti-involution, equal the convolved ones on every ordered pair."""
    assert right_table(n, d) == _convolved_right_dicts(n, d)


def test_mirror_gate_catches_a_dropped_sign(monkeypatch):
    monkeypatch.setattr(algebra, "iota_sign", lambda g: 1)
    _clear(*_TABLE_CACHES)
    try:
        assert any(right_table(n, d) != _convolved_right_dicts(n, d) for n, d in MIRROR_CELLS)
    finally:
        _clear(*_TABLE_CACHES)  # drop the tables built with the wrong sign


def _convolved_odd_dicts(n, d):
    """The products ζ_a ζ_b read directly off the structure constants, for
    every pair of odd symbols with a non-zero product."""
    Ns = enum_N(n, d)
    m_idx = graph_index("M", n, d)
    out = []
    for a in Ns:
        per = {}
        for bi, b in enumerate(Ns):
            sc = structure_constants(zeta(a), zeta(b))
            if sc:
                per[bi] = {m_idx[s.graph]: c for s, c in sc.items()}
        out.append(per)
    return tuple(out)


def _odd_products(n, d):
    """The products ζ_a ζ_b read pair by pair through ``_product``, for
    every pair of odd symbols with a non-zero product."""
    nN = len(enum_N(n, d))
    return tuple({b: p for b in range(nN) for p in [algebra._product(n, d, a, True, b, True)] if p} for a in range(nN))


@pytest.mark.parametrize("n,d", MIRROR_CELLS + [pytest.param(4, 3, marks=pytest.mark.stretch)])
def test_odd_products_follow_the_trace_form(n, d):
    """The odd×odd products, read off the left action through the trace
    form, equal the convolved products ζ_a ζ_b on every ordered pair."""
    assert _odd_products(n, d) == _convolved_odd_dicts(n, d)


@pytest.mark.parametrize(
    "name,fake", [("lambda_factorial", lambda parts: 1), ("iota_sign", lambda g: 1)], ids=["h!", "iota_sign"]
)
def test_trace_form_gate_catches_a_mutation(monkeypatch, name, fake):
    monkeypatch.setattr(algebra, name, fake)
    _clear(*_TABLE_CACHES)  # the signs and the h! are cached with the tables
    try:
        assert any(_odd_products(n, d) != _convolved_odd_dicts(n, d) for n, d in MIRROR_CELLS)
    finally:
        _clear(*_TABLE_CACHES)  # drop the tables built with the mutation


def _convolutions(monkeypatch, run):
    """The (left, right, caller) of every ``structure_constants`` call that
    ``run()`` makes, with every table cache empty before and after."""
    calls = []
    convolved = algebra.structure_constants

    def recorder(x, y):
        calls.append((x, y, sys._getframe(1).f_code.co_name))
        return convolved(x, y)

    monkeypatch.setattr(algebra, "structure_constants", recorder)
    _clear(*_TABLE_CACHES)
    try:
        run()
    finally:
        _clear(*_TABLE_CACHES)
    return calls


def test_odd_products_are_read_off_the_left_table(monkeypatch):
    """No product with an odd left factor is convolved, ξ·ζ only while the
    left table is built, each pair once, and ξ·ξ only while the even table
    is built."""

    def run():
        for n, d in [(2, 3), (3, 2)]:
            phi_analysis(n, d, QQ)
            psi_analysis(n, d, QQ)
            M = regular_smodule(n, d, QQ)
            koszul_dual(M)
            eta_map(M)
            pair_to_as_module(as_module_to_pair(regular_as_module(n, d, GF(5))))
            build_table(n, d)

    calls = _convolutions(monkeypatch, run)
    assert not [(x, y) for x, y, _ in calls if x.is_odd]
    mixed = [(x, y) for x, y, _ in calls if y.is_odd]
    assert mixed and {caller for x, y, caller in calls if y.is_odd} == {"_left_dicts"}
    assert len(mixed) == len(set(mixed))
    assert {caller for x, y, caller in calls if not x.is_odd and not y.is_odd} == {"_even_dicts"}


def _relabelled(g, sigma):
    """g with box i renamed sigma[i] on both sides (0-based)."""
    adj = [[0] * g.n_up for _ in range(g.n_down)]
    for i, row in enumerate(g.adj):
        for j, x in enumerate(row):
            adj[sigma[i]][sigma[j]] = x
    return BipartiteGraph.from_adj(adj)


def _orbit(g, a):
    """The S_n-orbit of the pair (g, a), every box renamed on both sides."""
    return frozenset((_relabelled(g, s), _relabelled(a, s)) for s in itertools.permutations(range(g.n_up)))


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (3, 3)])
def test_build_table_convolves_each_even_odd_pair_once(monkeypatch, n, d):
    """``build_table`` convolves no product with an odd left factor.  Its ξ·ζ
    products are convolved only while the left table is built, each on a
    margin-matched pair, exactly one pair per S_n-orbit."""
    calls = _convolutions(monkeypatch, lambda: build_table(n, d))
    assert not [(x, y) for x, y, _ in calls if x.is_odd]
    mixed = [(x.graph, y.graph) for x, y, _ in calls if y.is_odd]
    assert all(g.upper_degrees == a.lower_degrees for g, a in mixed)
    orbits = {_orbit(g, a) for g in enum_M(n, d) for a in enum_N(n, d) if g.upper_degrees == a.lower_degrees}
    assert Counter(_orbit(g, a) for g, a in mixed) == Counter(dict.fromkeys(orbits, 1))
    assert {caller for x, y, caller in calls if y.is_odd} == {"_left_dicts"}


def _even_orbit(g, h):
    """The S_n × ⟨ι⟩-orbit of the pair (g, h): every box renamed on both
    sides, and ι sending (g, h) to (h*, g*)."""
    return _orbit(g, h) | frozenset((y.star(), x.star()) for x, y in _orbit(g, h))


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (3, 3)])
def test_build_table_convolves_one_even_pair_per_orbit(monkeypatch, n, d):
    """``build_table`` convolves ξ·ξ only while the even table is built, on
    margin-matched pairs, exactly one pair per S_n × ⟨ι⟩-orbit."""
    calls = _convolutions(monkeypatch, lambda: build_table(n, d))
    even = [(x.graph, y.graph, caller) for x, y, caller in calls if not x.is_odd and not y.is_odd]
    assert {caller for _, _, caller in even} == {"_even_dicts"}
    assert all(g.upper_degrees == h.lower_degrees for g, h, _ in even)
    Ms = enum_M(n, d)
    orbits = {_even_orbit(g, h) for g in Ms for h in Ms if g.upper_degrees == h.lower_degrees}
    assert Counter(_even_orbit(g, h) for g, h, _ in even) == Counter(dict.fromkeys(orbits, 1))


def test_duality_analyses_leave_the_even_table_unbuilt(monkeypatch):
    """phi and psi read only the S⁻ tables: they convolve no ξ·ξ product and
    never build the even table."""
    built = []

    def run():
        phi_analysis(3, 3, GF(5))
        psi_analysis(3, 3, GF(5))
        built.append(algebra._even_dicts.cache_info().currsize)

    calls = _convolutions(monkeypatch, run)
    assert not [(x, y) for x, y, _ in calls if not x.is_odd and not y.is_odd]
    assert built == [0]


def _convolved_left_dicts(n, d, right_odd=True):
    """The products ξ_g ζ_a (ξ_g ξ_h if not ``right_odd``) read directly off
    the structure constants, for every right factor whose lower margins meet
    the upper margins of g."""
    rights = (enum_N if right_odd else enum_M)(n, d)
    index = graph_index("N" if right_odd else "M", n, d)
    out = []
    for g in enum_M(n, d):
        per = {}
        for ai, a in enumerate(rights):
            if a.lower_degrees == g.upper_degrees:
                sc = structure_constants(xi(g), (zeta if right_odd else xi)(a))
                if sc:
                    per[ai] = {index[s.graph]: c for s, c in sc.items()}
        out.append(per)
    return tuple(out)


@pytest.mark.parametrize("n,d", MIRROR_CELLS + [(5, 2), pytest.param(4, 3, marks=pytest.mark.stretch)])
def test_left_table_orbit_fill_equals_the_convolved_table(n, d):
    """The left table, convolved on one pair per S_n-orbit and filled by
    box relabelling, equals the products ξ_g ζ_a convolved one by one."""
    assert algebra._left_dicts(n, d) == _convolved_left_dicts(n, d)


def test_orbit_fill_gate_catches_a_dropped_relabelling_sign(monkeypatch):
    monkeypatch.setattr(algebra, "relabel_sign", lambda g, sigma: 1)
    _clear(*_TABLE_CACHES)
    try:
        assert any(algebra._left_dicts(n, d) != _convolved_left_dicts(n, d) for n, d in MIRROR_CELLS if n >= 2)
    finally:
        _clear(*_TABLE_CACHES)  # drop the tables built with the wrong sign


@pytest.mark.parametrize("n,d", MIRROR_CELLS + [(5, 2), pytest.param(4, 3, marks=pytest.mark.stretch)])
def test_even_table_orbit_fill_equals_the_convolved_table(n, d):
    """The even table, convolved on one pair per S_n × ⟨ι⟩-orbit and filled
    by box relabelling and ι, equals the products ξ_g ξ_h convolved one by
    one."""
    assert algebra._even_dicts(n, d) == _convolved_left_dicts(n, d, right_odd=False)


def test_even_orbit_fill_gate_catches_a_wrong_iota(monkeypatch):
    iota = algebra._iota_indices

    def no_star(n, d):
        gstar, star, sign = iota(n, d)
        return list(range(len(gstar))), star, sign

    monkeypatch.setattr(algebra, "_iota_indices", no_star)
    _clear(*_TABLE_CACHES)
    try:
        assert any(
            algebra._even_dicts(n, d) != _convolved_left_dicts(n, d, right_odd=False) for n, d in MIRROR_CELLS if n >= 2
        )
    finally:
        _clear(*_TABLE_CACHES)  # drop the tables built with the wrong ι


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2)])
def test_odd_smodule_is_a_module(n, d):
    odd = odd_smodule(n, d, QQ)
    SModule(n, d, QQ, odd.dim, odd.action, validate="full")


# -- module construction checks -----------------------------------------------------


def test_regular_module_dims():
    assert regular_smodule(2, 2, QQ).dim == 10
    assert regular_as_module(2, 2, QQ).dim == 16


def test_smodule_rejects_corrupted_action():
    good = regular_smodule(2, 2, QQ).action
    bad = list(good)
    bad[3] = scaled(bad[3], QQ.from_int(2), QQ)
    with pytest.raises(ValueError, match="not multiplicative"):
        SModule(2, 2, QQ, 10, bad)
    # the same data passes with validation off
    assert SModule(2, 2, QQ, 10, bad, validate="none").dim == 10


def test_smodule_identity_check():
    doubled = [scaled(a, QQ.from_int(2), QQ) for a in regular_smodule(2, 2, QQ).action]
    with pytest.raises(ValueError, match="identity"):
        SModule(2, 2, QQ, 10, doubled)


def test_smodule_shape_and_count_checks():
    with pytest.raises(ValueError, match="action matrices"):
        SModule(2, 2, QQ, 3, [unit_columns(3, QQ)])
    with pytest.raises(ValueError, match="shape"):
        SModule(2, 2, QQ, 3, [unit_columns(2, QQ) for _ in range(10)])
    # a row key outside range(dim) is a shape error too, at every level
    outside = [[{0: QQ.one}, {1: QQ.one}, {3: QQ.one}] for _ in range(10)]
    with pytest.raises(ValueError, match="shape"):
        SModule(2, 2, QQ, 3, outside, validate="none")


def test_smodule_unknown_validation_level():
    with pytest.raises(ValueError, match="validation level"):
        regular_smodule(2, 2, QQ, validate="paranoid")


@pytest.mark.parametrize("level", ["none", "full"])
def test_modules_reject_entries_outside_their_field(level):
    """GF(5) entries in a module over Q (and the reverse) are refused by the
    field check, naming the module's field, before any product is formed."""
    AS = regular_as_module(2, 2, QQ)
    odd_gf5 = regular_as_module(2, 2, GF(5)).odd_action
    with pytest.raises(ValueError, match=r"odd action matrix entry .* not a non-zero scalar of Q"):
        ASModule(2, 2, QQ, 16, list(AS.action), odd_gf5, validate=level)
    even_q = regular_smodule(2, 2, QQ).action
    with pytest.raises(ValueError, match=r"action matrix entry .* not a non-zero scalar of GF\(5\)"):
        SModule(2, 2, GF(5), 10, even_q, validate=level)
    # a stored zero, or an int out of range, is no canonical scalar either
    for bad in (QQ.zero, 7):
        odd = [[dict(col) for col in cols] for cols in regular_as_module(2, 2, GF(5)).odd_action]
        odd[0][0] = {**odd[0][0], 15: bad}
        with pytest.raises(ValueError, match=r"not a non-zero scalar of GF\(5\)"):
            ASModule(2, 2, GF(5), 16, regular_as_module(2, 2, GF(5)).action, odd, validate=level)


def test_theta_rejects_entries_outside_the_field():
    pair = as_module_to_pair(regular_as_module(2, 2, QQ))
    theta_gf5 = as_module_to_pair(regular_as_module(2, 2, GF(5))).theta
    with pytest.raises(ValueError, match="theta entry .* not a non-zero scalar of Q"):
        ThetaPair(pair.base, theta_gf5)
    with pytest.raises(ValueError, match="shape"):
        ThetaPair(pair.base, [{16: QQ.one}])


def test_stock_actions_are_zero_free_sorted_columns():
    """The column format every module routine relies on: non-zero entries
    only, rows in increasing order."""
    A = regular_as_module(2, 3, GF(5))
    M = regular_smodule(2, 3, GF(5))
    pair = as_module_to_pair(A)
    maps = A.action + A.odd_action + M.action + column_module(2, 3, GF(5), (2, 1)).action
    maps += koszul_dual(M).action + ringel_dual(M).action + odd_smodule(2, 3, GF(5)).action
    maps += [pair.theta] + pair_to_as_module(pair).odd_action
    for cols in maps:
        for col in cols:
            assert all(col.values())
            assert list(col) == sorted(col)


def _reference_blocks(A):
    """The four parity blocks of an AS-module's axioms at full level, in the
    argument order of :func:`bruteforce.dense_product_failure`."""
    nM, nN = len(A.action), len(A.odd_action)
    every = lambda n1, n2: [(i, j) for i in range(n1) for j in range(n2)]
    even, odd = A.action, A.odd_action
    return [
        (every(nM, nM), even, False, even, False, even),
        (every(nM, nN), even, False, odd, True, odd),
        (every(nN, nM), odd, True, even, False, odd),
        (every(nN, nN), odd, True, odd, True, even),
    ]


def _dense_failure(A):
    for block in _reference_blocks(A):
        found = dense_product_failure(A.n, A.d, A.field, *block)
        if found is not None:
            return found
    return None


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("n,d", [(2, 2), (2, 3)])
def test_product_check_matches_dense_reference(n, d, field):
    """The sparse product check against dense matrix products of the
    densified columns, with coefficients from the word walk: both accept the
    regular module, and both reject one scaled even entry and one changed
    odd entry."""
    A = regular_as_module(n, d, field, validate="full")
    assert _dense_failure(A) is None
    two = field.from_int(2)
    diagonal = set(koszul._diag_indices(n, d))
    g = next(g for g in range(len(A.action)) if g not in diagonal and any(A.action[g]))
    even = list(A.action)
    even[g] = scale_entry(even[g], two, field)
    with pytest.raises(ValueError, match="not multiplicative"):
        ASModule(n, d, field, A.dim, even, A.odd_action, validate="full")
    assert _dense_failure(ASModule(n, d, field, A.dim, even, A.odd_action, validate="none")) is not None
    odd = list(A.odd_action)
    odd[1] = scale_entry(odd[1], two, field)
    with pytest.raises(ValueError, match="action mismatch"):
        ASModule(n, d, field, A.dim, A.action, odd, validate="full")
    assert _dense_failure(ASModule(n, d, field, A.dim, A.action, odd, validate="none")) is not None


def test_pair_sampler_draws_the_old_pairs():
    """One sampler serves every module check: all pairs at level "full";
    otherwise the seeded draws of each caller (seed 0 for the even action,
    seed 1 shared by the even*odd, odd*even and odd*odd blocks in that
    order), each pair once."""
    assert koszul._pairs("full", random.Random(0), 2, 3) == [(i, j) for i in range(2) for j in range(3)]
    nM, nN = 45, 36
    rng = random.Random(0)
    expected = {(rng.randrange(nM), rng.randrange(nM)) for _ in range(koszul._SAMPLE_PAIRS)}
    got = koszul._pairs("sample", random.Random(0), nM, nM)
    assert len(got) == len(set(got)) and set(got) == expected
    rng, shared = random.Random(1), random.Random(1)
    for n1, n2 in [(nM, nN), (nN, nM), (nN, nN)]:
        expected = {(rng.randrange(n1), rng.randrange(n2)) for _ in range(koszul._SAMPLE_PAIRS)}
        assert set(koszul._pairs("sample", shared, n1, n2)) == expected


# -- phi --------------------------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
def test_phi_iso_2_2(field):
    report = phi_analysis(2, 2, field)
    assert (report.tensor_dim, report.phi_rank, report.target_dim) == (10, 10, 10)
    assert report.iso


def test_phi_no_odd_part():
    """An empty tensor square takes the one rank path: no blocks, so the
    quotient and the image are both 0 and the pinch closes."""
    report = phi_analysis(1, 2, QQ)
    assert (report.tensor_dim, report.phi_rank) == (0, 0)
    assert not report.surjective
    assert report.injective
    assert not report.iso
    assert report.method == "certificate"
    assert phi_analysis(1, 2, GF(3)).method == "modp"


def test_phi_single_odd_symbol():
    report = phi_analysis(2, 4, QQ)
    assert report.tensor_dim == 1
    assert report.phi_rank == 1
    assert report.target_dim == 35
    assert report.injective and not report.surjective


def test_phi_json_keys():
    data = phi_analysis(2, 2, QQ).to_json_dict()
    assert set(data) == {
        "tensor_dim",
        "phi_rank",
        "target_dim",
        "surjective",
        "injective",
        "iso",
        "method",
    }


# -- psi --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,d,kernel_dim,commutant_dim",
    [
        (1, 1, 0, 1),
        (2, 2, 0, 10),
        (2, 3, 16, 4),
        (2, 4, 34, 1),
    ],
)
def test_psi_dims(n, d, kernel_dim, commutant_dim):
    report = psi_analysis(n, d, QQ)
    assert report.kernel_dim == kernel_dim
    assert report.commutant_dim == commutant_dim
    assert report.source_dim == len(enum_M(n, d))
    assert report.iso == (n >= d)


def test_psi_gf5_matches_rational():
    report = psi_analysis(2, 3, GF(5))
    assert report.kernel_dim == 16
    assert not report.iso


def test_psi_kernel_contains_parallel_edge_symbol():
    """Three parallel edges land on zero: the left multiplication by that even
    symbol kills every odd symbol."""
    report = psi_analysis(2, 3, QQ)
    target = graph_index("M", 2, 3)[BipartiteGraph.from_adj([[3, 0], [0, 0]])]
    echelon = SparseEchelon(QQ)
    for vec in report.kernel_vectors:
        echelon.add_row(vec)
    # in the span: adding the target does not raise the rank
    assert not echelon.add_row({target: QQ.one})


def test_psi_kernel_elements_annihilate():
    from altschur import multiply, zeta
    from altschur.algebra import GradedElement

    report = psi_analysis(2, 3, QQ)
    elems = report.kernel_elements()
    assert len(elems) == report.kernel_dim
    for x in elems[:4]:
        for a in enum_N(2, 3):
            assert multiply(x, GradedElement.from_symbol(zeta(a), QQ)).is_zero()


def test_psi_json_keys():
    data = psi_analysis(2, 2, QQ).to_json_dict()
    assert set(data) == {"kernel_dim", "commutant_dim", "source_dim", "iso", "method"}


# -- weight blocks ----------------------------------------------------------------

BLOCK_CELLS = [(n, d) for n in range(1, 4) for d in range(1, 5)] + [(2, 5), (2, 6)]


def _even_key(g):
    return (g.lower_degrees, g.upper_degrees)


def _product_rows(n, d):
    """The expansion of ζ_a ζ_b over the even basis, for every surviving
    tensor coordinate (a, b) of phi."""
    return [algebra._product(n, d, a, True, b, True) for a, b in phi_coordinates(n, d)]


def _row_multiset(rows):
    return Counter(tuple(sorted(row.items())) for row in rows)


def _check_blocks(blocks, coordinates, key, reference, rep):
    """The solver's blocks against the reference: one tensor per orbit of
    the keys of ``coordinates``, at its representative, weighted by the
    orbit's size and numbering exactly the coordinates of its block, and
    its rows, written over the reference numbering, are the reference rows
    of the representative blocks, in some order."""
    tensors, weights = blocks
    assert weights == Counter(rep(k) for k in set(key))
    assert set(tensors) == set(weights)
    index = {pair: k for k, pair in enumerate(coordinates)}
    for block, tensor in tensors.items():
        assert tensor.pairs == [pair for pair, k in zip(coordinates, key) if k == block]
    solved = [{index[t.pairs[k]]: v for k, v in row.items()} for t in tensors.values() for row in t.rows()]
    kept = [row for row in reference if key[next(iter(row))] in tensors]
    assert _row_multiset(solved) == _row_multiset(kept)


@pytest.mark.parametrize("n,d", BLOCK_CELLS)
def test_phi_rows_stay_in_one_block(n, d):
    """Every relation row of phi lies in one block (a.lower, b.upper), and the
    product row of a tensor coordinate only reaches even symbols whose
    margins are that coordinate's block.  The solver's block tensors are
    those of the representative blocks (:func:`_check_blocks`)."""
    Ms, Ns = enum_M(n, d), enum_N(n, d)
    coordinates = phi_coordinates(n, d)
    key = [(Ns[a].lower_degrees, Ns[b].upper_degrees) for a, b in coordinates]
    reference = list(phi_relation_rows(n, d))
    for row in reference:
        assert len({key[k] for k in row}) == 1
    for k, row in enumerate(_product_rows(n, d)):
        assert {_even_key(Ms[h]) for h in row} <= {key[k]}
    _check_blocks(koszul._phi_blocks(n, d), coordinates, key, reference, koszul._sn_iota_rep)


@pytest.mark.parametrize("n,d", BLOCK_CELLS)
def test_psi_rows_stay_in_one_block(n, d):
    """Every commutant row of psi lies in one block (c.lower, a.lower), and
    the kernel row of the entry (c, a) only involves even symbols whose
    margins are that block.  The solver's block tensors are those of the
    representative blocks (:func:`_check_blocks`)."""
    Ms, Ns = enum_M(n, d), enum_N(n, d)
    coordinates = commutant_coordinates(n, d)
    key = [(Ns[c].lower_degrees, Ns[a].lower_degrees) for a, c in coordinates]
    reference = list(commutant_rows(n, d))
    for row in reference:
        assert len({key[k] for k in row}) == 1
    for gi, per in enumerate(algebra._left_dicts(n, d)):
        for a, col in per.items():
            for c in col:
                assert _even_key(Ms[gi]) == (Ns[c].lower_degrees, Ns[a].lower_degrees)
    _check_blocks(koszul._psi_blocks(n, d), coordinates, key, reference, koszul._sn_rep)


def _representative_coordinates(n, d, phi):
    """The coordinates of phi's representative blocks, or of psi's, counted
    from the odd symbols' margins alone.  With P(λ, ν) the number of odd
    symbols of margins (lower, upper) = (λ, ν), block (λ, μ) has
    Σ_ν P(λ, ν) P(ν, μ) coordinates in phi and Σ_ν P(λ, ν) P(μ, ν) in psi."""
    margins = Counter(zip(*algebra._odd_margins(n, d)))
    size = Counter()
    for (lam, nu), x in margins.items():
        for (first, second), y in margins.items():
            if phi and first == nu:
                size[lam, second] += x * y
            elif not phi and second == nu:
                size[lam, first] += x * y
    rep = koszul._sn_iota_rep if phi else koszul._sn_rep
    return sum(size[key] for key in {rep(key) for key in size})


def test_block_tensors_number_the_representative_coordinates_only(monkeypatch):
    """At (3,4) phi and psi number the coordinates of their representative
    blocks and no others: 366 and 504, where the whole cell has 2,484 for
    each.  psi transposes the right action at the generators only."""
    init, numbered = koszul._Tensor.__init__, []

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        numbered.append(len(self.pairs))

    transpose, transposed = koszul._transpose, []

    def transposing(columns):
        columns = dict(columns)
        transposed.append(columns)
        return transpose(columns.items())

    monkeypatch.setattr(koszul._Tensor, "__init__", recording)
    monkeypatch.setattr(koszul, "_transpose", transposing)
    counts = []
    for analysis in (phi_analysis, psi_analysis):
        numbered.clear()
        analysis(3, 4, GF(3))
        counts.append(sum(numbered))
    expected = [_representative_coordinates(3, 4, True), _representative_coordinates(3, 4, False)]
    assert counts == expected == [366, 504]
    assert len(phi_coordinates(3, 4)) == len(commutant_coordinates(3, 4)) == 2484
    right = right_table(3, 4)
    assert transposed == [right[g] for g in koszul._generators(3, 4)]


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5), GF(7)])
@pytest.mark.parametrize("n,d", BLOCK_CELLS)
def test_phi_image_is_the_rank_of_the_zeta_zeta_rows(n, d, field, monkeypatch):
    """phi's image, read off the left action by the trace form, is on every
    representative block the rank of the ζ·ζ product rows of the block's
    coordinates (:func:`bruteforce.zeta_zeta_image`), over every field the
    rank path asks it for and over the field of the analysis."""
    certified_dim, captured, asked = koszul._certified_dim, [], []

    def capturing(tensors, weights, f, image):
        captured.append((tensors, image))
        return certified_dim(tensors, weights, f, lambda g: asked.append(g) or image(g))

    monkeypatch.setattr(koszul, "_certified_dim", capturing)
    phi_analysis(n, d, field)
    [(tensors, image)] = captured
    assert asked
    for f in {*asked, field}:
        assert image(f) == {key: zeta_zeta_image(n, d, t.pairs, f) for key, t in tensors.items()}


def _product_parities(monkeypatch, run):
    """The (left_odd, right_odd) of every ``_product`` call ``run()`` makes,
    from koszul or from algebra."""
    read, parities = algebra._product, []

    def recording(n, d, i, left_odd, j, right_odd):
        parities.append((left_odd, right_odd))
        return read(n, d, i, left_odd, j, right_odd)

    monkeypatch.setattr(algebra, "_product", recording)
    monkeypatch.setattr(koszul, "_product", recording)
    run()
    return parities


def test_phi_and_psi_leave_the_odd_table_unbuilt(monkeypatch):
    """phi reads its image off the left action, so neither phi nor psi
    reads a ζ·ζ product."""

    def run():
        for field in (QQ, GF(3)):
            phi_analysis(3, 3, field)
            psi_analysis(3, 3, field)

    assert (True, True) not in _product_parities(monkeypatch, run)


@pytest.mark.parametrize(
    "run",
    [lambda: phi_analysis(3, 3, GF(3)), lambda: psi_analysis(3, 3, QQ), lambda: koszul_dual(regular_smodule(3, 3, GF(5)))],
    ids=["phi", "psi", "koszul_dual"],
)
def test_relation_loops_mirror_the_left_table_at_the_generators_only(monkeypatch, run):
    """phi, psi and D mirror the left table into the right action once at
    each generator of S(n, d) and nowhere else, and read no ζ·ξ product."""
    mirror, mirrored = algebra._right_action, []

    def recording(n, d, g):
        mirrored.append(g)
        return mirror(n, d, g)

    monkeypatch.setattr(algebra, "_right_action", recording)
    monkeypatch.setattr(koszul, "_right_action", recording)
    assert (True, False) not in _product_parities(monkeypatch, run)
    assert sorted(mirrored) == list(koszul._generators(3, 3))


def _global_rank(rows, field, bound=None):
    ech = SparseEchelon(field)
    for row in rows:
        if ech.rank == bound:
            break
        ech.add_row({k: field.from_int(v) for k, v in row.items()})
    return ech.rank


def _one_echelon(n, d, field):
    """phi_rank, tensor_dim, psi's kernel vectors and commutant_dim from a
    reference that eliminates all rows of each system in one echelon,
    stopping only at the global rank bound (the map under study kills every
    relation, so the relation rank is at most the ambient dimension minus the
    image dimension)."""
    S = len(phi_coordinates(n, d))
    phi_rank = _global_rank(_product_rows(n, d), field)
    tensor_dim = S - _global_rank(phi_relation_rows(n, d), field, S - phi_rank)
    nM = len(enum_M(n, d))
    kernel_rows = [{k: field.from_int(v) for k, v in row.items()} for row in psi_kernel_rows(n, d)]
    kernel = sparse_kernel(kernel_rows, nM, field)
    V = len(commutant_coordinates(n, d))
    commutant_dim = V - _global_rank(commutant_rows(n, d), field, V - (nM - len(kernel)))
    return phi_rank, tensor_dim, kernel, commutant_dim


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
@pytest.mark.parametrize("n,d", BLOCK_CELLS)
def test_blockwise_reports_match_one_global_echelon(n, d, field):
    """The block solver against one echelon per system (:func:`_one_echelon`)."""
    phi, psi = phi_analysis(n, d, field), psi_analysis(n, d, field)
    assert (phi.phi_rank, phi.tensor_dim, psi.kernel_vectors, psi.commutant_dim) == _one_echelon(n, d, field)


def _block_solve(monkeypatch, analysis, n, d, field, every_block):
    """The report of ``analysis``, psi's kernel vectors, and the relation
    rank of every solved block by key, once per rank pass: from one block
    per orbit, or from every block with ``every_block``."""
    ranks, recorded = koszul._relation_ranks, []

    def recording(tensors, bounds, f):
        out = ranks(tensors, bounds, f)
        recorded.append(dict(out))
        return out

    with monkeypatch.context() as m:
        m.setattr(koszul, "_relation_ranks", recording)
        if every_block:
            m.setattr(koszul, "_sn_rep", lambda key: key)
            m.setattr(koszul, "_sn_iota_rep", lambda key: key)
        report = analysis(n, d, field, cap=6000)
    return recorded, report.to_json_dict(), getattr(report, "kernel_vectors", None)


def _orbit_gate_failures(monkeypatch, n, d, field):
    """Where phi and psi, solved on one block per orbit, differ from the
    all-blocks solve: per-block ranks (every block against its orbit's
    representative), reports or psi's kernel vectors."""
    failures = []
    for analysis, rep in [(phi_analysis, koszul._sn_iota_rep), (psi_analysis, koszul._sn_rep)]:
        ranks, report, kernel = _block_solve(monkeypatch, analysis, n, d, field, False)
        all_ranks, all_report, all_kernel = _block_solve(monkeypatch, analysis, n, d, field, True)
        if (report, kernel) != (all_report, all_kernel):
            failures.append((analysis.__name__, "report"))
        if len(ranks) != len(all_ranks) or any(
            set(solved) != {rep(key) for key in every} or any(r != solved[rep(key)] for key, r in every.items())
            for solved, every in zip(ranks, all_ranks)
        ):
            failures.append((analysis.__name__, "ranks"))
    return failures


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=str)
@pytest.mark.parametrize(
    "n,d", [(n, d) for n in range(1, 4) for d in range(1, 6)] + [pytest.param(4, 3, marks=pytest.mark.stretch)]
)
def test_representative_blocks_match_every_block(monkeypatch, n, d, field):
    """Every block has the relation rank of its orbit's representative, and
    the reports and psi's kernel vectors equal those of the all-blocks
    solve."""
    assert _orbit_gate_failures(monkeypatch, n, d, field) == []


def test_orbit_gate_catches_unweighted_representatives(monkeypatch):
    """With every representative counted once, ignoring its orbit's size,
    the gate fails."""
    orbit_weights = koszul._orbit_weights
    monkeypatch.setattr(koszul, "_orbit_weights", lambda keys, rep: dict.fromkeys(orbit_weights(keys, rep), 1))
    assert all(_orbit_gate_failures(monkeypatch, n, d, field) for n, d in [(2, 3), (3, 3)] for field in (QQ, GF(3)))


# -- relations for the generators only ------------------------------------------


def _generated_dim(n, d, field):
    """Dimension over ``field`` of the subalgebra generated by
    ``koszul._generators`` and the diagonal idempotents: the span of the
    generators, closed under left multiplication by them.  Every vector met
    lies in one weight block, so only the generators whose upper margin is
    that block's lower one act on it."""
    Ms = enum_M(n, d)
    gens = sorted({*koszul._generators(n, d), *koszul._diag_indices(n, d)})
    by_lower = algebra._positions(g.lower_degrees for g in Ms)
    acting = algebra._positions(Ms[g].upper_degrees for g in gens)
    left = {g: {h: algebra._product(n, d, g, False, h, False) for h in by_lower[Ms[g].upper_degrees]} for g in gens}
    ech = SparseEchelon(field)
    queue = [{g: field.one} for g in gens]
    while queue:
        vec = ech.reduce(queue.pop())
        if not vec:
            continue
        ech.add_row(vec)
        for k in acting.get(Ms[next(iter(vec))].lower_degrees, ()):
            g = gens[k]
            out = {}
            for h, x in vec.items():
                for t, c in left[g][h].items():
                    out[t] = field.add(out.get(t, field.zero), field.mul(x, field.from_int(c)))
            queue.append({t: x for t, x in out.items() if x})
    return ech.rank


GENERATOR_CELLS = [(n, d) for n in range(1, 4) for d in range(1, 5)] + [(4, 2)]
STRETCH_GENERATOR_CELLS = [pytest.param(4, d, marks=pytest.mark.stretch) for d in (3, 4)]


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=str)
@pytest.mark.parametrize("n,d", GENERATOR_CELLS + STRETCH_GENERATOR_CELLS)
def test_generators_generate_the_schur_algebra(n, d, field):
    assert _generated_dim(n, d, field) == len(enum_M(n, d))


def test_generators_are_the_divided_powers():
    """At (3, 2): E_i^(r) 1_λ and F_i^(r) 1_λ for i = 1, 2 and r = 1, 2, that
    is one off-diagonal entry r at (i, i+1) or (i+1, i) and 2 − r balls on
    the diagonal: 4 · 3 graphs with r = 1 and 4 with r = 2."""
    Ms = enum_M(3, 2)
    offs = [
        [(i, j) for i, row in enumerate(Ms[g].adj) for j, x in enumerate(row) if x and i != j]
        for g in koszul._generators(3, 2)
    ]
    assert len(offs) == 16
    assert all(len(off) == 1 and abs(off[0][0] - off[0][1]) == 1 for off in offs)


def _every_off_diagonal(n, d):
    """Every even index but the diagonal idempotents: ρ(g) for all of them is
    the all-rows relation stream."""
    diagonal = set(koszul._diag_indices(n, d))
    return tuple(g for g in range(len(enum_M(n, d))) if g not in diagonal)


def _analyses(monkeypatch, n, d, field, all_rows):
    """The per-block relation ranks that phi and psi reach, and their reports,
    from the generator rows or from all rows."""
    ranks, recorded = koszul._relation_ranks, []

    def recording(tensors, bounds, f):
        out = ranks(tensors, bounds, f)
        recorded.append(dict(out))
        return out

    with monkeypatch.context() as m:
        m.setattr(koszul, "_relation_ranks", recording)
        if all_rows:
            m.setattr(koszul, "_generators", _every_off_diagonal)
        phi, psi = phi_analysis(n, d, field, cap=6000), psi_analysis(n, d, field, cap=6000)
    return recorded, phi.to_json_dict(), psi.to_json_dict(), psi.kernel_vectors


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=str)
@pytest.mark.parametrize(
    "n,d",
    [(n, d) for n in range(1, 4) for d in range(1, 5)]
    + [pytest.param(n, 5, marks=pytest.mark.stretch) for n in range(1, 4)]
    + [pytest.param(4, 3, marks=pytest.mark.stretch)],
)
def test_generator_rows_reach_the_all_rows_ranks(monkeypatch, n, d, field):
    """phi and psi from the generators' relations against the all-rows
    stream: the same rank in every block, the same reports and kernel."""
    assert _analyses(monkeypatch, n, d, field, False) == _analyses(monkeypatch, n, d, field, True)


class _Reads:
    """A table indexed by even symbol that records the symbols it is read at."""

    def __init__(self, table, seen):
        self.table, self.seen = table, seen

    def __getitem__(self, g):
        self.seen.add(g)
        return self.table[g]


def test_relations_are_imposed_for_generators_only(monkeypatch):
    """Every ρ(g) that phi, psi, D, η and the (M, θ) round trip impose is
    for a generator or a diagonal idempotent: the tensors read their tables
    of x ξ_g and ξ_g y only there, and phi and psi each read some."""
    init, seen = koszul._Tensor.__init__, set()

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.right, self.left = _Reads(self.right, seen), _Reads(self.left, seen)

    monkeypatch.setattr(koszul._Tensor, "__init__", recording)
    for n, d in [(2, 3), (3, 2)]:
        allowed = {*koszul._generators(n, d), *koszul._diag_indices(n, d)}
        for run in (
            lambda: phi_analysis(n, d, QQ),
            lambda: psi_analysis(n, d, QQ),
            lambda: eta_map(regular_smodule(n, d, GF(5))),
            lambda: pair_to_as_module(as_module_to_pair(regular_as_module(n, d, GF(5)))),
        ):
            seen.clear()
            run()
            assert seen and seen <= allowed


CROSS_CELLS = [(1, 1), (2, 2), (2, 3), (3, 2), (2, 4)]
CROSS_PARAMS = [(n, d, f) for n, d in CROSS_CELLS for f in (QQ, GF(3), GF(5))] + [
    pytest.param(3, 3, f, marks=pytest.mark.stretch) for f in (GF(3), GF(5))
]


@pytest.mark.parametrize("n,d,field", CROSS_PARAMS, ids=str)
def test_phi_tensor_is_the_dual_of_the_odd_module(n, d, field):
    """S⁻ ⊗_S S⁻ = D(S⁻): phi's tensor quotient against the quotient D builds."""
    assert koszul_dual(odd_smodule(n, d, field), validate="none").dim == phi_analysis(n, d, field).tensor_dim


@pytest.mark.parametrize("n,d,field", CROSS_PARAMS, ids=str)
def test_psi_commutant_matches_intertwiner_space(n, d, field):
    """psi's commutant against the joint solution space of θ R_g = R_g θ,
    solved by the iterated reference from the convolved right action."""
    nN = len(enum_N(n, d))
    right = [
        [{c: field.from_int(v) for c, v in sorted(per.get(a, {}).items()) if field.from_int(v)} for a in range(nN)]
        for per in _convolved_right_dicts(n, d)
    ]
    commutant = intertwiner_space([(R, R) for R in right], nN, nN, field)
    assert psi_analysis(n, d, field).commutant_dim == len(commutant)


FORCED_CELLS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]


def _rank_fields(monkeypatch, n, d, drop):
    """phi and psi over Q, and the fields of every echelon koszul builds for
    them, in order.  With ``drop``, one relation rank comes out one short
    modulo the certificate prime, which widens the mod-p quotient past the
    image, so the pinch misses and the analyses must eliminate over Q."""
    ranks, fields = koszul._relation_ranks, []

    class Recording(SparseEchelon):
        def __init__(self, field):
            fields.append(field)
            super().__init__(field)

    def dropped(tensors, bounds, field):
        out = ranks(tensors, bounds, field)
        if drop and field == GF(koszul._CERT_PRIME):
            out[max(out, key=out.get)] -= 1
        return out

    with monkeypatch.context() as m:
        m.setattr(koszul, "SparseEchelon", Recording)
        m.setattr(koszul, "_relation_ranks", dropped)
        return phi_analysis(n, d, QQ), psi_analysis(n, d, QQ), fields


@pytest.mark.parametrize("n,d", FORCED_CELLS)
def test_certificate_branch_matches_exact(n, d, monkeypatch):
    """Over Q the pinch closes mod the certificate prime, and nothing is
    eliminated over Q: not phi's image, not a relation block.  The forced
    fallback is the exact reference."""
    exact_phi, exact_psi, _ = _rank_fields(monkeypatch, n, d, drop=True)
    assert (exact_phi.method, exact_psi.method) == ("exact-fallback", "exact-fallback")
    phi, psi, fields = _rank_fields(monkeypatch, n, d, drop=False)
    assert (phi.method, psi.method) == ("certificate", "certificate")
    assert set(fields) == {GF(koszul._CERT_PRIME)}
    assert {**phi.to_json_dict(), "method": "exact-fallback"} == exact_phi.to_json_dict()
    assert {**psi.to_json_dict(), "method": "exact-fallback"} == exact_psi.to_json_dict()
    assert psi.kernel_vectors == exact_psi.kernel_vectors


@pytest.mark.parametrize("n,d", FORCED_CELLS)
def test_exact_fallback_branch_matches_exact(n, d, monkeypatch):
    """When the pinch misses, the analyses eliminate over Q after the mod-p
    pass, and agree with one echelon per system over Q."""
    phi, psi, fields = _rank_fields(monkeypatch, n, d, drop=True)
    assert (phi.method, psi.method) == ("exact-fallback", "exact-fallback")
    assert QQ in fields and fields[0] == GF(koszul._CERT_PRIME)
    assert (phi.phi_rank, phi.tensor_dim, psi.kernel_vectors, psi.commutant_dim) == _one_echelon(n, d, QQ)


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (3, 3)])
def test_pinch_reads_the_image_mod_p_only_when_it_closes(n, d, monkeypatch):
    """With the image mod the certificate prime one short on one
    representative block, the quotient mod p no longer meets it, so the
    analyses must take the rational path and report the same numbers.  A
    pinch against the rational image that read phi_rank mod p would come
    out one orbit short here."""
    reference = phi_analysis(n, d, QQ), psi_analysis(n, d, QQ)
    certified_dim = koszul._certified_dim

    def short(tensors, weights, field, image):
        def image_short(f):
            out = dict(image(f))
            if f == GF(koszul._CERT_PRIME):
                out[next(key for key, x in out.items() if x)] -= 1
            return out

        return certified_dim(tensors, weights, field, image_short)

    monkeypatch.setattr(koszul, "_certified_dim", short)
    phi, psi = phi_analysis(n, d, QQ), psi_analysis(n, d, QQ)
    assert (phi.method, psi.method) == ("exact-fallback", "exact-fallback")
    for report, ref in zip((phi, psi), reference):
        assert ref.method == "certificate"
        assert {**report.to_json_dict(), "method": "certificate"} == ref.to_json_dict()
    assert psi.kernel_vectors == reference[1].kernel_vectors


@pytest.mark.stretch
@pytest.mark.parametrize("field,method", [(GF(5), "modp"), (QQ, "certificate")])
def test_phi_psi_4_3(field, method):
    phi, psi = phi_analysis(4, 3, field), psi_analysis(4, 3, field)
    assert phi.iso and psi.iso
    assert phi.tensor_dim == phi.phi_rank == psi.commutant_dim == 816
    assert (phi.method, psi.method) == (method, method)


def _below_three(n, d):
    """#{A in M(n, d) : every a_ij < 3}, the GF(3) image of phi for d ≤ n."""
    return sum(1 for g in enum_M(n, d) if all(x < 3 for row in g.adj for x in row))


@pytest.mark.stretch
@pytest.mark.parametrize(
    "n,d,field,phi_rank",
    [(4, 4, GF(5), 3876), (4, 4, GF(3), 3620), (4, 4, QQ, 3876), (5, 3, GF(5), 2925), (6, 3, GF(3), 8400)],
    ids=["4-4-GF(5)", "4-4-GF(3)", "4-4-Q", "5-3-GF(5)", "6-3-GF(3)"],
)
def test_phi_psi_beyond_the_default_cap(n, d, field, phi_rank):
    """Cells past the default basis cap, all with d ≤ n.  phi's tensor
    quotient has the dimension of S(n, d) in each.  Over GF(3) phi's rank is
    the number of symbols with every entry below 3, so it falls short by 256
    at (4, 4) and by 36 at (6, 3), and phi is no isomorphism there.  psi is
    an isomorphism in all of them."""
    nM = len(enum_M(n, d))
    phi, psi = phi_analysis(n, d, field, cap=40000), psi_analysis(n, d, field, cap=40000)
    assert (phi.tensor_dim, phi.phi_rank, phi.iso) == (nM, phi_rank, phi_rank == nM)
    assert (psi.kernel_dim, psi.commutant_dim, psi.iso) == (0, nM, True)
    if field == GF(3):
        assert phi_rank == _below_three(n, d)


@pytest.mark.stretch
def test_phi_psi_4_5_gf3():
    """(4, 5) over GF(3), where d > n: the tensor quotient equals the
    commutant, and psi is onto it with a kernel of 3136.  phi's rank is
    below the count of symbols with every entry below 3 (13,328), so the
    d ≤ n law does not extend here."""
    phi, psi = phi_analysis(4, 5, GF(3), cap=40000), psi_analysis(4, 5, GF(3), cap=40000)
    assert (phi.tensor_dim, phi.phi_rank, phi.target_dim, phi.iso) == (12368, 11792, 15504, False)
    assert (psi.kernel_dim, psi.commutant_dim, psi.source_dim, psi.iso) == (3136, 12368, 15504, False)
    assert phi.phi_rank < _below_three(4, 5) == 13328


# -- the functor D ----------------------------------------------------------------


def test_koszul_dual_of_regular():
    D1 = koszul_dual(regular_smodule(2, 2, QQ))
    assert D1.dim == 6
    assert koszul_dual(D1).dim == 10


def _conjugated(M, j, k):
    """M on the basis with v_k replaced by v_k + v_j: the map P = 1 + E_jk
    conjugates every action matrix, A ↦ P A P⁻¹."""
    f = M.field
    P, P_inv = unit_columns(M.dim, f), unit_columns(M.dim, f)
    P[k], P_inv[k] = dict(sorted({j: f.one, k: f.one}.items())), dict(sorted({j: f.neg(f.one), k: f.one}.items()))
    action = [compose(P, compose(A, P_inv, f), f) for A in M.action]
    return SModule(M.n, M.d, f, M.dim, action)


def test_functors_refuse_a_basis_that_mixes_two_weights():
    """A unipotent change of basis that adds a vector of one weight to one of
    another leaves a valid module, but not a basis of weight vectors: D, η,
    the hom spaces and the Ringel dual refuse it and name the vector."""
    M = regular_smodule(2, 2, QQ)
    weights = koszul._weights(M)
    j, k = 0, next(k for k, w in enumerate(weights) if w != weights[0])
    mixed = _conjugated(M, j, k)
    assert mixed.dim == M.dim  # validated in full at (2, 2)
    for call in (koszul_dual, eta_map, ringel_dual, lambda X: module_homs(X, M), lambda X: module_homs(M, X)):
        with pytest.raises(ValueError, match=f"basis vector {k} is not a weight vector"):
            call(mixed)


def _break_weights(case):
    """The regular module at (2, 2) with its action broken so that the basis
    is not one of weight vectors (unvalidated), and the basis vector the
    refusal names."""
    M = regular_smodule(2, 2, QQ)
    weights, Ms = koszul._weights(M), enum_M(2, 2)
    action = [list(A) for A in M.action]
    g = koszul._generators(2, 2)[0]
    lower, upper = Ms[g].lower_degrees, Ms[g].upper_degrees
    if case == "killed":  # no 1_λ fixes v_0
        y = 0
        for e in koszul._diag_indices(2, 2):
            action[e][y] = {}
    elif case == "acts off weight":  # ξ_g v_y ≠ 0 with wt(y) ≠ upper(g)
        y = next(y for y, w in enumerate(weights) if w != upper)
        action[g][y] = {y: QQ.one}
    else:  # ξ_g v_y has a component outside weight lower(g)
        y = next(y for y, col in enumerate(action[g]) if col)
        r = next(r for r, w in enumerate(weights) if w != lower)
        action[g][y] = dict(sorted({**action[g][y], r: QQ.one}.items()))
    return SModule(2, 2, QQ, M.dim, action, validate="none"), y


@pytest.mark.parametrize("case", ["killed", "acts off weight", "image off weight"])
def test_weight_reader_names_the_vector(case):
    M, y = _break_weights(case)
    for call in (koszul_dual, lambda X: module_homs(X, X)):
        with pytest.raises(ValueError, match=f"basis vector {y} is not a weight vector"):
            call(M)


def test_koszul_dual_of_zero():
    assert koszul_dual(zero_smodule(2, 2, QQ)).dim == 0


def test_koszul_dual_of_regular_is_odd_component():
    """D applied to the left regular module recovers the odd component with
    its left action."""
    D1 = koszul_dual(regular_smodule(2, 2, QQ))
    witness = find_module_isomorphism(D1, odd_smodule(2, 2, QQ))
    assert witness is not None
    assert witness.rank() == D1.dim


def test_eta_regular_2_2():
    report = eta_map(regular_smodule(2, 2, QQ))
    assert (report.source_dim, report.target_dim, report.rank) == (10, 10, 10)
    assert report.iso


@pytest.mark.parametrize("lam", [(1, 1), (2, 0)])
def test_eta_column_modules(lam):
    report = eta_map(column_module(2, 2, QQ, lam))
    assert report.iso


@pytest.mark.parametrize("lam", [(1, 1), (2, 2, 0), (1, 1, 1, 0), (-1, 2, 2)])
def test_column_module_refuses_a_non_composition(lam):
    """lam must be a composition of d into n parts; another gives no
    module, and the error names it."""
    with pytest.raises(ValueError, match=re.escape(str(lam))):
        column_module(3, 3, QQ, lam)


def test_eta_fails_when_phi_does():
    report = eta_map(regular_smodule(2, 4, QQ))
    assert report.source_dim == 1
    assert report.target_dim == 35
    assert not report.iso


def test_eta_zero_module():
    report = eta_map(zero_smodule(2, 2, QQ))
    assert report.iso
    assert report.to_json_dict()["rank"] == 0


def test_ringel_dual_dims():
    assert ringel_dual(regular_smodule(2, 2, QQ)).dim == 6
    assert ringel_dual(zero_smodule(2, 2, QQ)).dim == 0


def test_ringel_adjunction_dimensions():
    """Hom(D(M), N) and Hom(M, Hom(S⁻, N)) have the same dimension."""
    M = column_module(2, 2, QQ, (1, 1))
    N = regular_smodule(2, 2, QQ)
    assert len(module_homs(koszul_dual(M), N)) == len(module_homs(M, ringel_dual(N)))


def test_module_homs_of_regular():
    S = regular_smodule(2, 2, QQ)
    assert len(module_homs(S, S)) == 10


def test_module_homs_parameter_mismatch():
    with pytest.raises(ValueError, match="matching parameters"):
        module_homs(regular_smodule(2, 2, QQ), regular_smodule(2, 2, GF(5)))


# -- hom spaces against the iterated reference ---------------------------------------


HOM_CELLS = [(n, d) for n in range(1, 4) for d in range(1, 3)] + [(2, 3)]
HOM_PARAMS = [(n, d, f) for n, d in HOM_CELLS for f in (QQ, GF(3), GF(5))] + [
    pytest.param(3, 3, f, marks=pytest.mark.stretch) for f in (QQ, GF(3), GF(5))
]


@pytest.mark.parametrize("n,d,field", HOM_PARAMS, ids=str)
def test_hom_vectors_match_the_iterated_reference(n, d, field):
    """The one-shot kernel of the generator rows equals, list for list, the
    space the iterated reference cuts down one even symbol at a time, every
    symbol imposed, for Hom(M, M), Hom(D M, M), Hom(S⁻, M) and every
    Hom(column_module(λ), M) on the regular module M."""
    M = regular_smodule(n, d, field)
    sources = [M, koszul_dual(M), odd_smodule(n, d, field)]
    sources += [column_module(n, d, field, lam) for lam in enum_Lambda(n, d)]
    for source in sources:
        pairs = [(M.action[g], source.action[g]) for g in range(len(enum_M(n, d)))]
        homs = [{r * source.dim + c: v for (r, c), v in h.items()} for h in koszul._hom_vectors(source, M)]
        assert homs == intertwiner_space(pairs, M.dim, source.dim, field)


# -- the weight-matched coordinates against the whole ambient space ------------------


AMBIENT_PARAMS = [(n, d, f) for n, d in [*HOM_CELLS, (1, 3), (3, 3), (2, 4)] for f in (QQ, GF(3), GF(5))] + [
    pytest.param(3, 4, GF(5), marks=pytest.mark.stretch)
]


@pytest.mark.parametrize("n,d,field", AMBIENT_PARAMS, ids=str)
def test_matched_coordinates_match_the_whole_ambient_reference(n, d, field):
    """D, η, the hom spaces and the Ringel dual on the regular module, from
    the relations on the weight-matched coordinates, equal those from ρ(g)
    of every generator and 1_λ on every x ⊗ y of the ambient space: D's
    basis as the pairs (a, i) of its lifts and its action, η's matrix, the
    hom bases of Hom(M, M) and Hom(D(M), M), and the Ringel dual's action."""
    M = regular_smodule(n, d, field)
    D1, tensor = koszul._dual(M, "none")
    assert ([tensor.pairs[k] for k in D1.quotient.basis_coords], D1.action) == ambient_dual(M)
    assert eta_map(M).matrix == ExactMatrix.from_columns(field, ambient_eta(M), nrows=M.dim)
    for source in (M, D1):
        assert koszul._hom_vectors(source, M) == ambient_hom_vectors(source, M)
    assert ringel_dual(M).action == ambient_ringel_action(M)


@pytest.mark.stretch
def test_dual_and_eta_4_3_match_the_whole_ambient_reference():
    """The same gate at (4,3) over GF(5) for D, η and Hom(D(M), M); the Ringel
    dual, at 40 s alone there, is left to the smaller cells."""
    M = regular_smodule(4, 3, GF(5))
    D1, tensor = koszul._dual(M, "none")
    assert ([tensor.pairs[k] for k in D1.quotient.basis_coords], D1.action) == ambient_dual(M)
    assert eta_map(M).matrix == ExactMatrix.from_columns(GF(5), ambient_eta(M), nrows=M.dim)
    assert koszul._hom_vectors(D1, M) == ambient_hom_vectors(D1, M)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_ringel_dual_catches_a_basis_that_is_not_canonical(monkeypatch, field):
    """With the second kernel vector added to the first, the basis spans the
    same space but the coordinates read at the largest keys are wrong, so the
    right action must fail its rebuild check instead of coming out wrong."""
    kernel = koszul.sparse_kernel

    def skewed(rows, ncols, f):
        basis = kernel(rows, ncols, f)
        first = dict(basis[0])
        add_scaled(first, f.one, basis[1], f)
        return [first, *basis[1:]]

    M = regular_smodule(2, 2, field)
    assert len(koszul._hom_vectors(odd_smodule(2, 2, field), M)) >= 2
    monkeypatch.setattr(koszul, "sparse_kernel", skewed)
    with pytest.raises(RuntimeError, match="not rebuilt from the hom basis"):
        ringel_dual(M)


def _entries(m, nrows=None):
    """Dense entries as strings.  A map in sparse column form is densified
    first, with ``nrows`` rows (default: square)."""
    if m is None:
        return None
    if isinstance(m, ExactMatrix):
        return [[str(x) for x in row] for row in m.rows]
    return [[str(col.get(r, 0)) for col in m] for r in range(len(m) if nrows is None else nrows)]


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# sha256 of Hom(M, M), Hom(D(M), M), the action of the Ringel dual and the
# isomorphism witness M -> M (entries as strings), with eta's (rank,
# source_dim), on the regular module; recorded while ExactMatrix.rank, span
# coordinates and the iterated hom-space solver still ran their own
# elimination loops.
PINNED_HOMS = [
    (QQ, 2, 2, 10, 10, (
        "47cae0eb4b6d60c69bb5e016bad08c772b4ed9555271bb1ebb3446a56ff3a57f",
        "9f7dab44b019a8cd7c276401f4e73a072866d44ea6c0a12259ea092c1bda0667",
        "2d15a8eb1bee43474a2c02f1c5030fb543633ecaad1df7336c13b89e5fbb857b",
        "321d95d44c2f6962d06f1599d0bdcf5617026e8c4ff84c3a373befb38226009a",
    )),
    (QQ, 2, 3, 4, 4, (
        "7ebf975ba61061d35d901e65ca1a8d89fb2e94821eb733d4860e17f7827401d9",
        "3add794bc54e78708aaeebe6a520f3d50eae0c9cd4196bbc531b21b6517fb7e0",
        "4c94a9dddf73c213880e5c28b9844e8204edfed94f9e8e993a66a76ab5602fd9",
        "c9cfd48317b4e11d4ab4e130282d2da93bff60c3e0dc24d745f320bf972305a6",
    )),
    (QQ, 3, 2, 45, 45, (
        "5650b3ddbba93c9b7dc3c07a0e042dec9bfbc02716b535680af7ee7590ab222f",
        "5974e93bbcce037b6d8ac0e92ad1f2c87b63283bf118e55acd9f26bad51eeb9b",
        "5719a0e0a3e68108a45ce6ac4f546438b0717a89339538499505dbbd8ed6bae1",
        "7f4cb3baac09759b0615414803a5da78d7a2a98efbdef13b04b63d35a55a5102",
    )),
    (GF(5), 2, 2, 10, 10, (
        "c1c04b9f21f165325ecfef7450731d539cb14cf9e6204d218f433329f3b30d09",
        "4107935a357c363d3e895d4460eb759c5b511b96125d0ac3c8114b93c473f32a",
        "41c60c36d8627c4bf09b51cfe39931ad6013c11bacab76ddb8c20c0e3890b8a3",
        "99f9a66bc847d3cd3b09f630e62fd01c552e15dead6a1b369a02ea72f46314eb",
    )),
    (GF(5), 2, 3, 4, 4, (
        "ff153ae425759b4b0e8f16625b70f028fcd5ae150fe5b5d1188eedaf27a7de12",
        "860965b411ce7775a248f4d3d7550c50e03617340d94ea2a206cdcf664bbcb03",
        "f6fc27feed574b0b4fa634f5b724c797b29c379b75225f26085314dfd0dcf97d",
        "713e7e74ef9b4bd3445b71cebac69a72c1339b120aeeaf5180999b8e2fe7819b",
    )),
    (GF(5), 3, 2, 45, 45, (
        "c3f288f3c2e5ca59d4c3969eba497b5ee7794496dba6e39fcf275bec2b198925",
        "8bb8752fa14ec8e5f2ec845f566ac53ef37a509e4c32d6054dfcd59a9fa237d1",
        "716e770fab6892b69be6cf2c12f4636d778d83245d71e0add4e48b082ddabad6",
        "c2309a60ed479c69ea7d7445612bcf10f33b72b1291d35acaf20db95abf1ea36",
    )),
]


@pytest.mark.parametrize(
    "field,n,d,eta_rank,eta_source,digests",
    PINNED_HOMS,
    ids=[f"{field.label}-{n}-{d}" for field, n, d, *_ in PINNED_HOMS],
)
def test_hom_spaces_match_pinned_digests(field, n, d, eta_rank, eta_source, digests):
    M = regular_smodule(n, d, field)
    got = (
        _digest([_entries(h) for h in module_homs(M, M)]),
        _digest([_entries(h) for h in module_homs(koszul_dual(M), M)]),
        _digest([_entries(a) for a in ringel_dual(M).action]),
        _digest(_entries(find_module_isomorphism(M, M))),
    )
    assert got == digests
    eta = eta_map(M)
    assert (eta.rank, eta.source_dim) == (eta_rank, eta_source)


# sha256 of the dense form (entries as strings) of the actions of
# regular_smodule, of column_module(lam) for every lam, of regular_as_module
# (even, then odd), of koszul_dual and ringel_dual of the regular module, and
# of theta = as_module_to_pair(regular_as_module); recorded while every
# action was still a list of dense ExactMatrix values.
PINNED_ACTIONS = [
    (QQ, 2, 2, (
        "80e52ff5d397ff8224747c1067bd58a2fa4945e568651b9a3581a44883e9581f",
        "b8c4efcd4ce6cc37bbdac540ff3c9395eef43a554b4a819e3e974b7c6544231a",
        "55473db585671becfd41d455557e290de1aadf3f6f70ddb3b23a470b289babbb",
        "78d1bb1f7053b5985672ad2d03bd646674d7837777153c731550e508b6757571",
        "e619814cbda418874f9c53b66595d1309b43a0514f34096aced9ebdc2165da28",
        "2d15a8eb1bee43474a2c02f1c5030fb543633ecaad1df7336c13b89e5fbb857b",
        "fe05f8f177126e2a94b8eac49a942845d4603e0c459486ec50fd15f442b5b402",
    )),
    (QQ, 2, 3, (
        "8a5b699d399e4276719d4095e99063f63f2cc8279c29b42a166bc815ec2c6714",
        "01a526a8041ac65abe1e107e619592981af3adafc57513ea2f8e36d3b27dae24",
        "6557ca836496fa29ecffb0094c4f5ed85003e098991c4bf1e09392e4f976f1f8",
        "7dbce9af26ad53e1a403df070d0dfdefc4ab91c3eead808b072406c583383999",
        "e1c0a73127536d022841d28d0641b5b8d2ad6346e320432e52da713c3ef7a5fc",
        "4c94a9dddf73c213880e5c28b9844e8204edfed94f9e8e993a66a76ab5602fd9",
        "fb6ecd22695df37efaa48ea995ed525f3dc4d65509ad36a62fc0cf7a6a6b69ab",
    )),
    (QQ, 3, 2, (
        "937d262acccf1da7daada335eff76bccff5a1c2587eb8a38ce89d0ed07a6093c",
        "57e328a0753602786d09540a0891fcc8c9848e12764733dc1a21f311ddf4571f",
        "964c4c1288b9c8bd3bc4719cfd7a8b57854b8700120af71651d96602d96c5392",
        "d2ad1e5d29882f6831821be19b7ad354d77531ba0f1feb5e9622360f5caee447",
        "13341b20fae0d8c69b38ada8da1d2a3cb03e6e1d977925a48b293d0b3c9e8ce1",
        "5719a0e0a3e68108a45ce6ac4f546438b0717a89339538499505dbbd8ed6bae1",
        "5f9a347e9ca601d9bf8ce461335ca250804ea500d252ece5484150792237ae9e",
    )),
    (GF(5), 2, 2, (
        "80e52ff5d397ff8224747c1067bd58a2fa4945e568651b9a3581a44883e9581f",
        "b8c4efcd4ce6cc37bbdac540ff3c9395eef43a554b4a819e3e974b7c6544231a",
        "e136ef03a9bc471441767cd9d95ecbeb3a1adfde0968a5c3f77bc53e061001a8",
        "a13d0c5cd3535629c3bcccfebb04d43cbb4483d443598e5fccb83ab42e19fa25",
        "5e9f6c0bc1d526f6ab6c24dbd5a3976fb1767124941a1697e75225471bb6e8cd",
        "41c60c36d8627c4bf09b51cfe39931ad6013c11bacab76ddb8c20c0e3890b8a3",
        "42f46f69686d80d6212ce1b124e9eefde0be0c1f8c3a53226aef7cf02a717ba4",
    )),
    (GF(5), 2, 3, (
        "8a5b699d399e4276719d4095e99063f63f2cc8279c29b42a166bc815ec2c6714",
        "01a526a8041ac65abe1e107e619592981af3adafc57513ea2f8e36d3b27dae24",
        "dc046ee8588dc2f05335afe3ceb82005979a394aa2931cc5c4f512ef1be8238c",
        "634db10d6449de4513d1c1c1d10897f9bf5d20bc2e2091eb7089de2c743b52f6",
        "07310b0f1d85cd41a95bf636d716843ff538581e5edab49cf193aff6abfbc23b",
        "f6fc27feed574b0b4fa634f5b724c797b29c379b75225f26085314dfd0dcf97d",
        "cd5a80a5642313c08739b925e385db838ec3ab2e6b2168aaa25de3ae379f48c0",
    )),
    (GF(5), 3, 2, (
        "937d262acccf1da7daada335eff76bccff5a1c2587eb8a38ce89d0ed07a6093c",
        "57e328a0753602786d09540a0891fcc8c9848e12764733dc1a21f311ddf4571f",
        "19d36742fdb03c0ba276b5cd2b1d71aee3383109011d2f128e80651d62a7480e",
        "fd46ea7e61443069cc79c0b3a81dbb2e1f9b2e7018f2bbc03ac8e573eb4c4346",
        "a74b0ad402c347052edf86b58aa06403f4eb64f6f1e7d7db4d648d5bf2188602",
        "716e770fab6892b69be6cf2c12f4636d778d83245d71e0add4e48b082ddabad6",
        "d026f4ea9d7f7217cc0919f679844f8b90a99de593a99633c36e45a58d1ed7e6",
    )),
]


@pytest.mark.parametrize(
    "field,n,d,digests",
    PINNED_ACTIONS,
    ids=[f"{field.label}-{n}-{d}" for field, n, d, _ in PINNED_ACTIONS],
)
def test_actions_match_pinned_digests(field, n, d, digests):
    M = regular_smodule(n, d, field)
    A = regular_as_module(n, d, field)
    got = (
        _digest([_entries(a) for a in M.action]),
        _digest([[_entries(a) for a in column_module(n, d, field, lam).action] for lam in enum_Lambda(n, d)]),
        _digest([_entries(a) for a in A.action]),
        _digest([_entries(a) for a in A.odd_action]),
        _digest([_entries(a) for a in koszul_dual(M).action]),
        _digest([_entries(a) for a in ringel_dual(M).action]),
        _digest(_entries(as_module_to_pair(A).theta, A.dim)),
    )
    assert got == digests


@pytest.mark.stretch
def test_dual_and_eta_regular_3_3():
    M = regular_smodule(3, 3, GF(5))
    assert koszul_dual(M).dim == 84
    eta = eta_map(M)
    assert (eta.rank, eta.source_dim, eta.target_dim) == (165, 165, 165)
    assert eta.iso


@pytest.mark.stretch
def test_dual_and_eta_regular_4_3():
    M = regular_smodule(4, 3, GF(5))
    assert koszul_dual(M).dim == 560
    eta = eta_map(M)
    assert (eta.rank, eta.source_dim, eta.target_dim, eta.iso) == (816, 816, 816, True)


@pytest.mark.stretch
@pytest.mark.parametrize("field", [GF(5), QQ], ids=lambda f: f.label)
def test_dual_and_eta_regular_3_4(field):
    # d > n: eta on the regular module is injective on D² but not onto
    M = regular_smodule(3, 4, field)
    assert koszul_dual(M).dim == 126
    eta = eta_map(M)
    assert (eta.rank, eta.source_dim, eta.target_dim, eta.iso) == (270, 270, 495, False)


# -- modules over the full algebra as pairs ----------------------------------------


def test_pair_roundtrip_regular():
    AS = regular_as_module(2, 2, QQ)
    pair = as_module_to_pair(AS)
    assert len(pair.theta) == 16
    back = pair_to_as_module(pair)
    assert back.action == AS.action
    assert back.odd_action == AS.odd_action


def test_zero_theta_rejected():
    base = as_module_to_pair(regular_as_module(2, 2, QQ)).base
    D1 = koszul_dual(base, validate="none")
    zero_theta = [{} for _ in range(D1.dim)]
    with pytest.raises(IncompatibleTheta, match="squared"):
        pair_to_as_module(ThetaPair(base, zero_theta))


def test_theta_that_is_no_module_map_rejected():
    base = as_module_to_pair(regular_as_module(2, 2, QQ)).base
    D1 = koszul_dual(base, validate="none")
    theta = [{0: QQ.one}] + [{} for _ in range(D1.dim - 1)]
    with pytest.raises(IncompatibleTheta, match="module map"):
        pair_to_as_module(ThetaPair(base, theta))


def test_zero_module_zero_theta_valid():
    Z = zero_smodule(2, 2, QQ)
    module = pair_to_as_module(ThetaPair(Z, []))
    assert module.dim == 0


def test_theta_shape_checked():
    base = regular_smodule(2, 2, QQ)
    with pytest.raises(ValueError, match="shape"):
        pair_to_as_module(ThetaPair(base, [{} for _ in range(3)]))


def test_corrupted_odd_action_fails_descent():
    """7 added to one entry of ζ_a v_i, once at an unmatched pair (upper(a) ≠
    wt(v_i)), where ζ_a v_i must be 0, and once at a matched pair that is a
    pivot of the tensor quotient, whose class the relations fix."""
    AS = regular_as_module(2, 2, QQ)
    tensor, quotient = koszul._tensor_quotient(AS.even_part())
    matched = next(pair for k, pair in enumerate(tensor.pairs) if k in quotient.pivot_rows)
    for a, i in (next(tensor.unmatched()), matched):
        odd = [list(cols) for cols in AS.odd_action]
        col = dict(odd[a][i])
        col[0] = col.get(0, QQ.zero) + QQ.from_int(7)
        odd[a][i] = dict(sorted(col.items()))
        sneaky = ASModule(2, 2, QQ, 16, list(AS.action), odd, validate="none")
        with pytest.raises(IncompatibleTheta, match="descend"):
            as_module_to_pair(sneaky)


def test_as_module_rejects_corrupted_odd_block():
    AS = regular_as_module(2, 2, QQ)
    odd = list(AS.odd_action)
    odd[1] = scaled(odd[1], QQ.from_int(3), QQ)
    with pytest.raises(ValueError, match="action mismatch"):
        ASModule(2, 2, QQ, 16, list(AS.action), odd, validate="full")
