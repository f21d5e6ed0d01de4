"""Stability, stratification and exact finite-field cohomology for nodal
curves presented as genus-decorated dual multigraphs."""

__version__ = "0.1.0"

from .dual_graph import DualGraph, GraphTooLargeError, half_edge_vertex  # noqa: F401
from .multidegree import (  # noqa: F401
    StabilizationResult,
    brill_noether_number,
    destabilizing_nodes,
    enumerate_semistable,
    enumerate_stable,
    find_stable_orientation,
    is_semistable,
    is_stable,
    is_stable_orientation,
    multidegree_of_orientation,
    stabilize,
)
from .strata import (  # noqa: F401
    Stratum,
    ThetaSummary,
    closure_candidate,
    enumerate_picard_strata,
    is_picard_irreducible,
    is_theta_irreducible,
    smooth_locus_strata,
    strata_irreducible_curve,
    theta_strata,
)
from .graph_curve import (  # noqa: F401
    INFINITY,
    BudgetExceededError,
    BudgetSettingError,
    GluedLineBundle,
    GraphCurve,
    abel_image,
    classify_one_node,
    fit_exponent,
    forced_vanishing_nodes,
    h0,
    h0_blowup,
    hyperelliptic_rational,
    rational_curve,
    section_space,
    symbolic_theta_polynomial,
    w1_dimension_probe,
    w_count,
)
