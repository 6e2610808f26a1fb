"""urwidth: a computational laboratory for local Urysohn width.

Builds geodesic model spaces (bouquets of circles, wedges of spheres,
intervals, weighted graphs, separated disjoint unions), margin
classification problems on them, and certified two-sided brackets for
the minimum number of connected, diameter-bounded local classifiers
needed to cover and correctly label the margin-safe region.  Also
simulates the streaming Evaluate-Detect-Construct machine, runs
coupon-collector and label-permutation sampling experiments, computes
nerve homology over F2, and brute-forces VC dimension for the
width/VC separation report.
"""

__version__ = "0.1.0"

from .coverings import (
    CoveringReport,
    SeparationCertificate,
    UrysohnCovering,
    UrysohnTriple,
    WidthBracket,
    canonical_covering,
    min_ball_cover,
    separation_certificate,
    verify_covering,
    width_bracket,
)
from .machine import (
    MachineState,
    Trace,
    alarm,
    machine_new,
    replay_log,
    run_stream,
    step,
)
from .problems import (
    MarginProblem,
    bouquet_problem,
    interval_union_problem,
    parameter_window,
    permuted_problem,
    scaled_problem,
    union_problem,
    validate_margin,
    wedge_problem,
)
from .sampling import (
    SamplingDistribution,
    coupon_stats,
    coupon_time,
    permutation_learner_experiment,
    sample_safe,
    sampling_distribution,
    threshold_sweep,
    wilson_interval,
)
from .spaces import (
    BouquetPoint,
    MetricSpace,
    SpherePoint,
    bouquet_space,
    disjoint_union,
    graph_space,
    interval_space,
    wedge_sphere_space,
)
from .topology import (
    SimplicialComplex,
    betti,
    betti_bound_check,
    cyclic_arc_cover,
    graph_beta1,
    max_adjacency,
    nerve,
    systole,
    vertex_star_cover,
)
from .vc import (
    HypothesisTable,
    intervals_class,
    patchwise_class,
    separation_report,
    vc_dimension,
)

__all__ = [name for name in dir() if not name.startswith("_")]
