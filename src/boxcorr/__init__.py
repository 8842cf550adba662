"""boxcorr: exact flagged-box set arithmetic and set-valued map analysis."""

from .intervals import Box, BoxSet, FlaggedInterval, Grid
from .affine import AffForm, AffineBox, AffineInterval
from .maps import (
    DomainError,
    NonAxisAlignedSplitError,
    Piece,
    PiecewiseMap,
    adherence,
    closure_values,
    constant_map,
    intersect_maps,
    restrict,
    select_by_region,
    t_upper,
)
from .checks import (
    FAIL,
    PASS,
    UNVERIFIED,
    CheckReport,
    Witness,
    check_dual_w_usc,
    check_e_uscs,
    check_usc,
    check_w_usc,
    combine_reports,
)
from .io import DocumentError
from .fixedpoint import (
    ChainResult,
    ProductMap,
    QvSet,
    certify_fixed_points,
    intersect_qv_chain,
)
from .economy import (
    AbstractEconomy,
    AgentSpec,
    EquilibriumCertificate,
    check_theorem_4_1_hypotheses,
    check_theorem_4_2_hypotheses,
    check_theorem_4_3_hypotheses,
    search_equilibria,
    verify_equilibrium,
)
from .radner import (
    AssociatedEconomy,
    InfoEconomy,
    PriceSimplex,
    radner_toy,
    remark_4_3_inclusion,
    to_abstract_economy,
    verify_market_clearing,
)
from .suites import reproduce_paper

__all__ = [
    "AbstractEconomy", "AffForm", "AffineBox", "AffineInterval", "AgentSpec",
    "AssociatedEconomy", "Box", "BoxSet", "ChainResult", "CheckReport",
    "DocumentError", "DomainError", "EquilibriumCertificate", "FAIL",
    "FlaggedInterval", "Grid", "InfoEconomy", "NonAxisAlignedSplitError",
    "PASS", "Piece", "PiecewiseMap", "PriceSimplex", "ProductMap", "QvSet",
    "UNVERIFIED", "Witness", "adherence", "certify_fixed_points",
    "check_dual_w_usc", "check_e_uscs",
    "check_theorem_4_1_hypotheses", "check_theorem_4_2_hypotheses",
    "check_theorem_4_3_hypotheses", "check_usc", "check_w_usc",
    "closure_values", "combine_reports", "constant_map", "intersect_maps",
    "intersect_qv_chain", "radner_toy",
    "remark_4_3_inclusion", "reproduce_paper", "restrict", "search_equilibria",
    "select_by_region", "t_upper", "to_abstract_economy",
    "verify_equilibrium", "verify_market_clearing",
]
