"""Exact arithmetic for the graded algebra of bipartite-graph symbols.

The even symbols realize the classical endomorphism algebra of d-fold tensor
space commuting with the symmetric group; the odd symbols realize the
sign-twisted homomorphisms; together they form a Z/2-graded algebra whose
structure constants this package computes combinatorially, cross-checks
against explicit operator matrices, and feeds into duality diagnostics.
"""

from .fields import QQ, GF, FieldSpec
from .graphs import (
    BipartiteGraph,
    NonTransverseError,
    complete_bipartite,
    d_of,
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
from .enumeration import (
    BudgetExceededError,
    enum_B,
    enum_Lambda,
    enum_M,
    enum_M_rect,
    enum_N,
)
from .algebra import (
    BasisSymbol,
    GradedElement,
    anti_involution,
    delta_check,
    delta_checks,
    factorization_check,
    identity,
    multiply,
    rect_compose,
    structure_constants,
    xi,
    zeta,
)
from .oracle import VerifyReport, verify_table
from .koszul import (
    ASModule,
    IncompatibleTheta,
    SModule,
    ThetaPair,
    as_module_to_pair,
    eta_map,
    koszul_dual,
    odd_smodule,
    pair_to_as_module,
    phi_analysis,
    psi_analysis,
    regular_as_module,
    regular_smodule,
    ringel_dual,
)

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "GF",
    "FieldSpec",
    "BipartiteGraph",
    "NonTransverseError",
    "BudgetExceededError",
    "BasisSymbol",
    "GradedElement",
    "complete_bipartite",
    "d_of",
    "u_of",
    "gamma0_lambda",
    "gamma_lambda",
    "gamma_lambda_star",
    "gamma_perm",
    "labelling_sign",
    "pair_graph",
    "pair_labelling",
    "pair_sign",
    "representative_pair",
    "enum_B",
    "enum_Lambda",
    "enum_M",
    "enum_M_rect",
    "enum_N",
    "anti_involution",
    "delta_check",
    "delta_checks",
    "factorization_check",
    "identity",
    "multiply",
    "rect_compose",
    "structure_constants",
    "xi",
    "zeta",
    "VerifyReport",
    "verify_table",
    "ASModule",
    "IncompatibleTheta",
    "SModule",
    "ThetaPair",
    "as_module_to_pair",
    "eta_map",
    "koszul_dual",
    "odd_smodule",
    "pair_to_as_module",
    "phi_analysis",
    "psi_analysis",
    "regular_as_module",
    "regular_smodule",
    "ringel_dual",
]
