"""Graph-constrained switching signals driving switched ODE systems.

The package models spaces of piecewise-constant switching signals ruled by
a directed graph, the shift flow on them, the switched flows they drive on
a compact box, and numerical chain analysis of the resulting dynamics.
"""
from .chains import (
    Grid,
    SizingError,
    build_chain_graph,
    build_grid,
    chain_components,
    hausdorff_distance,
    lift_kernel,
)
from .config import AnalysisConfig, ExperimentConfig, RunConfig
from .fields import ExpressionField, field_from_config
from .flow import (
    HybridState,
    IntegrationError,
    SwitchedSystem,
    integrate_segment,
    product_metric,
    skew_product,
    switched_flow,
)
from .graph import (
    DirectedGraph,
    SccDecomposition,
    ValidationError,
    morse_order,
    scc,
)
from .sequences import (
    ChaosCertificate,
    SymbolicSequence,
    chaos_certificate,
    constant_sequence,
    enumerate_admissible_words,
    metric_omega,
    periodic_sequence,
    shift_discrete,
    transitive_sequence,
)
from .signals import (
    StitchResult,
    SwitchingSignal,
    continuity_gap,
    lift_membership,
    metric_delta,
    sensitivity_witness,
    shift,
    sigma_embed,
    stitch_signals,
    witness_window,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
