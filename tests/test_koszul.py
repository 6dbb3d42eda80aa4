"""Duality diagnostics: the odd-component bimodule, the phi and psi maps, the
functor D with its natural transformations, and the (M, theta) equivalence."""

import hashlib
import json

import pytest

from altschur import GF, QQ, BipartiteGraph, koszul
from altschur.enumeration import enum_M, enum_N, graph_index
from altschur.koszul import (
    ASModule,
    IncompatibleTheta,
    SModule,
    ThetaPair,
    as_module_to_pair,
    bimodule_data,
    column_module,
    eta_map,
    find_module_isomorphism,
    koszul_dual,
    module_homs,
    pair_to_as_module,
    phi_analysis,
    psi_analysis,
    regular_as_module,
    regular_smodule,
    ringel_dual,
    zero_smodule,
)
from altschur.linalg import ExactMatrix, SparseEchelon, SpanSolver, sparse_kernel


# -- bimodule data ----------------------------------------------------------------


def test_bimodule_trivial_cell():
    bd = bimodule_data(1, 1, QQ)
    assert len(bd.left_mult) == 1
    assert bd.left_mult[0].rows == [[QQ.one]]
    assert bd.right_mult[0].rows == [[QQ.one]]


def test_bimodule_shapes():
    bd = bimodule_data(2, 3, QQ)
    assert len(bd.left_mult) == len(enum_M(2, 3)) == 20
    assert all(m.shape == (4, 4) for m in bd.left_mult)
    assert all(m.shape == (4, 4) for m in bd.right_mult)


def test_bimodule_commutation_full():
    bimodule_data(2, 2, QQ).check_commutation(level="full")


def test_bimodule_commutation_detects_corruption():
    bd = bimodule_data(2, 2, QQ)
    probe = ExactMatrix.zeros(QQ, 6, 6)
    probe.rows[0][1] = QQ.one
    bd.left_mult[2] = probe
    with pytest.raises(ValueError, match="commute"):
        bd.check_commutation(level="full")


# -- module construction checks -----------------------------------------------------


def test_regular_module_dims():
    assert regular_smodule(2, 2, QQ).dim == 10
    assert regular_as_module(2, 2, QQ).dim == 16


def test_smodule_rejects_corrupted_action():
    good = regular_smodule(2, 2, QQ).action
    bad = list(good)
    bad[3] = bad[3].scale(QQ.from_int(2))
    with pytest.raises(ValueError, match="not multiplicative"):
        SModule(2, 2, QQ, 10, bad)
    # the same data passes with validation off
    assert SModule(2, 2, QQ, 10, bad, validate="none").dim == 10


def test_smodule_identity_check():
    doubled = [a.scale(QQ.from_int(2)) for a in regular_smodule(2, 2, QQ).action]
    with pytest.raises(ValueError, match="identity"):
        SModule(2, 2, QQ, 10, doubled)


def test_smodule_shape_and_count_checks():
    with pytest.raises(ValueError, match="action matrices"):
        SModule(2, 2, QQ, 3, [ExactMatrix.identity(QQ, 3)])
    with pytest.raises(ValueError, match="shape"):
        SModule(2, 2, QQ, 3, [ExactMatrix.identity(QQ, 2) for _ in range(10)])


def test_smodule_unknown_validation_level():
    with pytest.raises(ValueError, match="validation level"):
        regular_smodule(2, 2, QQ, validate="paranoid")


# -- phi --------------------------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
def test_phi_iso_2_2(field):
    report = phi_analysis(2, 2, field)
    assert (report.tensor_dim, report.phi_rank, report.target_dim) == (10, 10, 10)
    assert report.iso


def test_phi_no_odd_part():
    report = phi_analysis(1, 2, QQ)
    assert report.tensor_dim == 0
    assert not report.surjective
    assert not report.iso
    assert report.method == "empty"


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
    solver = SpanSolver(QQ, report.kernel_vectors)
    assert solver.coordinates({target: QQ.one}) is not None


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


@pytest.mark.parametrize("n,d", BLOCK_CELLS)
def test_phi_rows_stay_in_one_block(n, d):
    """Every relation row of phi lies in one block (a.lower, b.upper), and the
    product row of a tensor coordinate only reaches even symbols whose
    margins are that coordinate's block."""
    Ms, Ns = enum_M(n, d), enum_N(n, d)
    surviving, _ = koszul._phi_surviving(n, d)
    key = [(Ns[a].lower_degrees, Ns[b].upper_degrees) for a, b in surviving]
    for row in koszul._phi_relation_rows(n, d):
        assert len({key[k] for k in row}) == 1
    for k, row in enumerate(koszul._product_rows(n, d)):
        assert {_even_key(Ms[h]) for h in row} <= {key[k]}


@pytest.mark.parametrize("n,d", BLOCK_CELLS)
def test_psi_rows_stay_in_one_block(n, d):
    """Every commutant row of psi lies in one block (c.lower, a.lower), and
    the kernel row of the entry (c, a) only involves even symbols whose
    margins are that block."""
    Ms, Ns = enum_M(n, d), enum_N(n, d)
    vars_, _ = koszul._commutant_vars(n, d)
    key = [(Ns[c].lower_degrees, Ns[a].lower_degrees) for c, a in vars_]
    for row in koszul._commutant_rows(n, d):
        assert len({key[k] for k in row}) == 1
    for gi, per in enumerate(koszul._left_dicts(n, d)):
        for a, col in per.items():
            for c in col:
                assert _even_key(Ms[gi]) == (Ns[c].lower_degrees, Ns[a].lower_degrees)


def _global_rank(rows, field, bound=None):
    ech = SparseEchelon(field)
    for row in rows:
        if ech.rank == bound:
            break
        ech.add_row({k: field.from_int(v) for k, v in row.items()})
    return ech.rank


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
@pytest.mark.parametrize("n,d", BLOCK_CELLS)
def test_blockwise_reports_match_one_global_echelon(n, d, field):
    """The block solver against a reference that eliminates all rows of each
    system in one echelon, stopping only at the global rank bound (the map
    under study kills every relation, so the relation rank is at most the
    ambient dimension minus the image dimension)."""
    phi = phi_analysis(n, d, field)
    S = len(koszul._phi_surviving(n, d)[0])
    phi_rank = _global_rank(koszul._product_rows(n, d), field)
    assert phi.phi_rank == phi_rank
    assert phi.tensor_dim == S - _global_rank(koszul._phi_relation_rows(n, d), field, S - phi_rank)

    psi = psi_analysis(n, d, field)
    nM = len(enum_M(n, d))
    kernel_rows = [{k: field.from_int(v) for k, v in row.items()} for row in koszul._psi_kernel_rows(n, d)]
    kernel = sparse_kernel(kernel_rows, nM, field)
    assert psi.kernel_vectors == kernel
    V = len(koszul._commutant_vars(n, d)[0])
    bound = V - (nM - len(kernel))
    assert psi.commutant_dim == V - _global_rank(koszul._commutant_rows(n, d), field, bound)


FORCED_CELLS = [(2, 2), (2, 3), (3, 2)]


@pytest.mark.parametrize("n,d", FORCED_CELLS)
def test_certificate_branch_matches_exact(n, d, monkeypatch):
    exact_phi, exact_psi = phi_analysis(n, d, QQ), psi_analysis(n, d, QQ)
    assert (exact_phi.method, exact_psi.method) == ("exact", "exact")
    monkeypatch.setattr(koszul, "_EXACT_CUTOFF", 0)
    phi, psi = phi_analysis(n, d, QQ), psi_analysis(n, d, QQ)
    assert (phi.method, psi.method) == ("certificate", "certificate")
    assert {**phi.to_json_dict(), "method": "exact"} == exact_phi.to_json_dict()
    assert {**psi.to_json_dict(), "method": "exact"} == exact_psi.to_json_dict()
    assert psi.kernel_vectors == exact_psi.kernel_vectors


@pytest.mark.parametrize("n,d", FORCED_CELLS)
def test_exact_fallback_branch_matches_exact(n, d, monkeypatch):
    """A relation rank that drops modulo the certificate prime widens the
    mod-p quotient past the rational image, so the pinch misses and the
    analyses must eliminate over Q instead."""
    exact_phi, exact_psi = phi_analysis(n, d, QQ), psi_analysis(n, d, QQ)
    ranks = koszul._Blocks.ranks

    def dropped(self, rows, bounds, field):
        out = ranks(self, rows, bounds, field)
        if field == GF(koszul._CERT_PRIME):
            out[out.index(max(out))] -= 1
        return out

    monkeypatch.setattr(koszul, "_EXACT_CUTOFF", 0)
    monkeypatch.setattr(koszul._Blocks, "ranks", dropped)
    phi, psi = phi_analysis(n, d, QQ), psi_analysis(n, d, QQ)
    assert (phi.method, psi.method) == ("exact-fallback", "exact-fallback")
    assert {**phi.to_json_dict(), "method": "exact"} == exact_phi.to_json_dict()
    assert {**psi.to_json_dict(), "method": "exact"} == exact_psi.to_json_dict()
    assert psi.kernel_vectors == exact_psi.kernel_vectors


@pytest.mark.stretch
@pytest.mark.parametrize("field,method", [(GF(5), "modp"), (QQ, "certificate")])
def test_phi_psi_4_3(field, method):
    phi, psi = phi_analysis(4, 3, field), psi_analysis(4, 3, field)
    assert phi.iso and psi.iso
    assert phi.tensor_dim == phi.phi_rank == psi.commutant_dim == 816
    assert (phi.method, psi.method) == (method, method)


# -- the functor D ----------------------------------------------------------------


def test_koszul_dual_of_regular():
    D1 = koszul_dual(regular_smodule(2, 2, QQ))
    assert D1.dim == 6
    assert koszul_dual(D1).dim == 10


def test_koszul_dual_of_zero():
    assert koszul_dual(zero_smodule(2, 2, QQ)).dim == 0


def test_koszul_dual_of_regular_is_odd_component():
    """D applied to the left regular module recovers the odd component with
    its left action."""
    D1 = koszul_dual(regular_smodule(2, 2, QQ))
    bd = bimodule_data(2, 2, QQ)
    odd = SModule(2, 2, QQ, len(enum_N(2, 2)), bd.left_mult)
    witness = find_module_isomorphism(D1, odd)
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


def _entries(m):
    return None if m is None else [[str(x) for x in row] for row in m.rows]


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# sha256 of Hom(M, M), Hom(D(M), M), the action of the Ringel dual and the
# isomorphism witness M -> M (entries as strings), with eta's (rank,
# source_dim), on the regular module; recorded while ExactMatrix.rank,
# SpanSolver and intertwiner_space still ran their own elimination loops.
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


# -- modules over the full algebra as pairs ----------------------------------------


def test_pair_roundtrip_regular():
    AS = regular_as_module(2, 2, QQ)
    pair = as_module_to_pair(AS)
    assert pair.theta.shape == (16, 16)
    back = pair_to_as_module(pair)
    assert back.action == AS.action
    assert back.odd_action == AS.odd_action


def test_zero_theta_rejected():
    base = as_module_to_pair(regular_as_module(2, 2, QQ)).base
    D1 = koszul_dual(base, validate="none")
    zero_theta = ExactMatrix.zeros(QQ, base.dim, D1.dim)
    with pytest.raises(IncompatibleTheta, match="squared"):
        pair_to_as_module(ThetaPair(base, zero_theta))


def test_zero_module_zero_theta_valid():
    Z = zero_smodule(2, 2, QQ)
    module = pair_to_as_module(ThetaPair(Z, ExactMatrix.zeros(QQ, 0, 0)))
    assert module.dim == 0


def test_theta_shape_checked():
    base = regular_smodule(2, 2, QQ)
    with pytest.raises(ValueError, match="shape"):
        pair_to_as_module(ThetaPair(base, ExactMatrix.zeros(QQ, 10, 3)))


def test_corrupted_odd_action_fails_descent():
    AS = regular_as_module(2, 2, QQ)
    odd = list(AS.odd_action)
    corrupt = ExactMatrix.zeros(QQ, 16, 16)
    for i in range(16):
        for j in range(16):
            corrupt.rows[i][j] = odd[0].rows[i][j]
    corrupt.rows[0][0] = QQ.from_int(7)
    odd[0] = corrupt
    sneaky = ASModule(2, 2, QQ, 16, list(AS.action), odd, validate="none")
    with pytest.raises(IncompatibleTheta, match="descend"):
        as_module_to_pair(sneaky)


def test_as_module_rejects_corrupted_odd_block():
    AS = regular_as_module(2, 2, QQ)
    odd = list(AS.odd_action)
    odd[1] = odd[1].scale(QQ.from_int(3))
    with pytest.raises(ValueError, match="action mismatch"):
        ASModule(2, 2, QQ, 16, list(AS.action), odd, validate="full")
