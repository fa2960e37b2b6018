"""Shipped desk-scale scenarios with frozen seeds.

Each preset realizes one of the classifier regimes: rightward/leftward
transience with the expansion certificate, symmetric recurrence, the
two-sided split chain, and a heterogeneous drift mixture for the
zero-one scan.  Seeds are frozen so reports are reproducible bytes;
thresholds were validated against the exact DP before freezing.
"""

from __future__ import annotations

from fractions import Fraction

from .config import ScenarioConfig
from .environments import fixed_model, fn, iid_model, two_sided_model
from .errors import ConfigError
from .interval_maps import build_map, doubling_map, triple_map

F = Fraction


def quadruple_map():
    """x -> 4x mod 1 on four equal cells (the split-chain base)."""
    return build_map(
        ["0", "1/4", "1/2", "3/4", "1"],
        [("4", "0"), ("4", "-1"), ("4", "-2"), ("4", "-3")],
    )


def triple_r2_preset() -> ScenarioConfig:
    """Rightward-transient i.i.d. family: two of three cells jump up."""
    return ScenarioConfig(
        name="triple-r2",
        map=triple_map(),
        environment=iid_model([fn(1, 1, -1), fn(1, -1, 1), fn(-1, 1, 1)]),
        kind="transience_check",
        n_envs=3,
        n_walks=10**4,
        horizon=10**4,
        divergence_margin=F(1, 6),
        return_goal=F(9, 10),
        master_seed=20260811,
        certificate_r=2,
    )


def symmetric_doubling_preset() -> ScenarioConfig:
    """Symmetric i.i.d. pair {g, -g} over the doubling map."""
    return ScenarioConfig(
        name="symmetric-doubling",
        map=doubling_map(),
        environment=iid_model([fn(1, -1), fn(-1, 1)]),
        kind="symmetric_check",
        n_envs=100,
        n_walks=500,
        horizon=10**4,
        divergence_margin=F(1, 6),
        return_goal=F(9, 10),
        master_seed=11,
    )


def split_demo_preset() -> ScenarioConfig:
    """Outward 3/4-drift on each side of the origin, balanced at 0."""
    return ScenarioConfig(
        name="split-demo",
        map=quadruple_map(),
        environment=two_sided_model(
            fn(1, -1, -1, -1), fn(1, 1, 1, -1), origin=fn(1, 1, -1, -1)
        ),
        kind="split_demo",
        n_envs=1,
        n_walks=10**4,
        horizon=2000,
        divergence_margin=F(1, 6),
        return_goal=F(9, 10),
        master_seed=7,
    )


def right_drift_preset() -> ScenarioConfig:
    return ScenarioConfig(
        name="right-drift",
        map=triple_map(),
        environment=fixed_model(fn(1, 1, -1)),
        kind="transience_check",
        n_envs=1,
        n_walks=500,
        horizon=2000,
        divergence_margin=F(1, 6),
        return_goal=F(9, 10),
        master_seed=3,
        certificate_r=2,
    )


def left_drift_preset() -> ScenarioConfig:
    return ScenarioConfig(
        name="left-drift",
        map=triple_map(),
        environment=fixed_model(fn(-1, -1, 1)),
        kind="transience_check",
        n_envs=1,
        n_walks=500,
        horizon=2000,
        divergence_margin=F(1, 6),
        return_goal=F(9, 10),
        master_seed=3,
        certificate_r=1,
    )


def symmetric_small_preset() -> ScenarioConfig:
    """Reduced-budget symmetric scenario for quick comparisons."""
    return ScenarioConfig(
        name="symmetric-small",
        map=doubling_map(),
        environment=iid_model([fn(1, -1), fn(-1, 1)]),
        kind="symmetric_check",
        n_envs=1,
        n_walks=500,
        horizon=2000,
        divergence_margin=F(1, 6),
        return_goal=F(9, 10),
        master_seed=3,
    )


def adversarial_mixed_preset() -> ScenarioConfig:
    """Heterogeneous drift mixture: most sites drift right, some left.

    At weights (8/9, 1/9) the mean log-odds is negative (rightward) with
    E[(q/p)^2] = 2/3 < 1, so the walk is ballistic with normal
    fluctuations; the per-environment DP divergence probabilities stay
    above 0.99, far from the 0.95 label threshold, making the scan
    verdict stable at this horizon.
    """
    return ScenarioConfig(
        name="adversarial-mixed",
        map=triple_map(),
        environment=iid_model(
            [fn(1, 1, -1), fn(-1, -1, 1)], ["8/9", "1/9"]
        ),
        kind="zero_one_scan",
        n_envs=30,
        n_walks=400,
        horizon=2500,
        divergence_margin=F(1, 20),
        return_goal=F(9, 10),
        master_seed=29,
    )


PRESETS = {
    "triple-r2": triple_r2_preset,
    "symmetric-doubling": symmetric_doubling_preset,
    "split-demo": split_demo_preset,
    "right-drift": right_drift_preset,
    "left-drift": left_drift_preset,
    "symmetric-small": symmetric_small_preset,
    "adversarial-mixed": adversarial_mixed_preset,
}


def get_preset(name: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[name]()
