"""Deterministic walks in deterministic environments on the integer lattice.

A library plus CLI for piecewise-linear expanding Markov interval maps,
site-indexed environments of lattice jumps, the skew-product walk they
drive, and the exact finite-state reductions used to certify recurrence
and transience verdicts at desk scale.
"""

__version__ = "0.1.0"

from .environments import (
    EnvironmentModel,
    EnvironmentRealization,
    TransitionFunction,
    env_at,
    fixed_model,
    fn,
    iid_model,
    markov_model,
    periodic_model,
    realize,
    reflect,
    shift,
    symmetry_and_bounds,
    two_sided_model,
)
from .exact import (
    SiteChainDP,
    build_site_chain,
    final_distribution,
    first_passage_measure,
    float_dp_stack,
    hit_before,
    path_counts,
    path_probability,
    return_cylinder_count,
    return_prob_by_time,
    return_prob_curve,
    series_diagnostic,
    solomon_classifier,
    transience_certificate,
)
from .experiments import ClassifyResult, ScanResult, Verdict, classify, zero_one_scan
from .interval_maps import (
    MarkovIntervalMap,
    apply,
    build_map,
    cylinder_interval,
    cylinder_measure,
    doubling_map,
    enumerate_cylinders,
    equal_slope_map,
    gibbs_bounds,
    iter_cylinders,
    triple_map,
)
from .structure import build_skew_graph, check_linkage, communication_classes
from .walks import (
    TabooQuery,
    Trajectory,
    WalkState,
    run_ensemble,
    simulate,
    simulate_batch,
    step,
    taboo_hit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
