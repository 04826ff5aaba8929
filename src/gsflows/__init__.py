"""Realizability of Lyapunov graphs labelled with singular-surface charts.

The package decides, certifies and cross-checks whether an abstract Lyapunov
graph whose vertices carry plane, cone, Whitney umbrella, double-crossing or
triple-crossing singularity labels arises as a flow on a closed singular
2-manifold.  It models the branched 1-manifolds that bound isolating blocks,
carries the catalog of the 33 minimal blocks, and exposes local and global
realizability verdicts with explicit certificates.
"""

__version__ = "0.1.0"

from .model import (
    OPEN,
    ConleyIndex,
    Edge,
    LyapunovGraph,
    Nature,
    SemiGraph,
    SingularityType,
    VertexLabel,
    conley_index,
    degree_bounds_ok,
    euler_characteristic,
    euler_conley,
    euler_gs,
    fold_balance,
    fold_degrees,
    nature_totals,
    parse_nature,
    parse_type,
    ph_residual,
    reverse_nature,
    reverse_semigraph,
    semigraph,
    total_folds,
    validate_graph,
)
from .branched import (
    CIRCLE,
    ArcPosition,
    Branched1Manifold,
    BranchedComponent,
    enumerate_connected,
    family_A,
    family_B,
    family_minimal,
    identify_points,
    manifold,
    parse_manifold,
    puncture,
    weight,
)
from .blocks import (
    CatalogEntry,
    LocalVerdict,
    boundary_feasible,
    catalog_counts,
    entries_for,
    local_realizable,
    minimal_block_catalog,
    minimal_weights,
    passageway_closure,
    ph_condition_rows,
    shape_catalog,
)
from .realize import (
    GSGraphStatus,
    InvalidGraphError,
    RealizationVerdict,
    CONDITIONS,
    check_condition,
    classify_graph,
    lemma_familyB_ok,
    lemma_firstfamily_ok,
    realize,
    verify_certificate,
)
from .documents import (
    ParseError,
    export_dot,
    parse_graph,
    report_certificate,
    report_document,
    report_to_json,
    serialize_graph,
)
from .generator import gen_random_gs_graph
