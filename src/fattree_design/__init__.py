"""Cost-optimal two-layer fat-tree network design from real switch catalogs."""

from .catalog import (
    Catalog,
    CatalogError,
    ModularSwitchFamily,
    PerPortMetrics,
    SwitchConfig,
    bundled_catalog_path,
    expand_modular,
    load_catalog,
    load_catalog_file,
    per_port_metrics,
)
from .designer import (
    BladeFormFactor,
    ConstraintSet,
    CoreStage,
    DesignInfeasibleError,
    DesignMetrics,
    DesignReport,
    DesignRequest,
    EdgeSplit,
    FatTreeDesign,
    InsufficientRadixError,
    NodeSpec,
    cable_count,
    check_constraints,
    cluster_cost,
    core_stage,
    design,
    edge_count,
    edge_port_split,
    evaluate_objective,
    trivial_direct_connect,
    trivial_star,
    uniform_distribution_variant,
)
from .estimator import (
    PerPortEstimate,
    exactness_condition,
    lower_bound_estimate,
    median_gap,
    single_model_catalog,
    sweep_lower_bound,
)
from .money import Money, format_money, parse_money, parse_ratio
from .placement import (
    BuildingBlock,
    ExpansionAudit,
    ExpansionPlan,
    PlacementError,
    RackLayout,
    RoomSpec,
    expansion_audit,
    expansion_plan,
    fit_max_nodes,
    plan_racks,
)
from .report import emit_wiring

__version__ = "0.1.0"
