"""Preset experiments: the seeded classifier and its exact certification.

Verdict labels come from one documented rule applied to finite-horizon
walk statistics.  Finite-horizon divergence is a heuristic, so whenever
the exact site-chain reduction applies (full-branch base), the same
rule is evaluated on DP-computed probabilities and the Monte Carlo
label must agree on every environment; a mismatch fails the run loudly.
Every environment shares one DP solve when the model draws nothing
(fixed, two-sided or periodic) or when all its support functions have
the same per-site jump law; otherwise each environment is solved on its
own.  The solves are stacked, up to DP_STACK at a time, into one float
DP solve (exact.float_dp_stack) in the calling thread.
"""

from __future__ import annotations

# unused here: perfbench/dwdebench/layers.py patches this name, so it stays
# until that tracer drops its pool wrapper
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import ScenarioConfig
from .environments import IID, MARKOV, realize
from .errors import ConsistencyError
from .exact import (
    site_dist_of,
    build_site_chain,
    float_dp_stack,
    hit_before,
    solomon_classifier,
    transience_certificate,
)
from .structure import check_linkage
from .environments import symmetry_and_bounds
from .walks import BatchResult, env_seed_for, require_budget, simulate_batch

RECURRENT_LIKE = "recurrent-like"
TRANSIENT_PLUS = "transient+"
TRANSIENT_MINUS = "transient-"
SPLIT = "split"
INCONCLUSIVE = "inconclusive"

LABELS = (RECURRENT_LIKE, TRANSIENT_PLUS, TRANSIENT_MINUS, SPLIT, INCONCLUSIVE)

# finite-horizon surrogate thresholds; presets are DP-certified so these
# are validated per scenario rather than trusted
DIVERGENCE_FRACTION = 0.95
LATE_RETURN_FRACTION = 0.01
SPLIT_FRACTION = 0.20

# most DP solves advanced together in one float DP pass, so the stack's
# memory does not grow with n_envs
DP_STACK = 8


def _label_from_stats(
    right: float,
    left: float,
    returned: float,
    late_return: float,
    return_goal: float,
) -> str:
    """The documented labeling rule, applied in this fixed order."""
    if right >= DIVERGENCE_FRACTION and late_return <= LATE_RETURN_FRACTION:
        return TRANSIENT_PLUS
    if left >= DIVERGENCE_FRACTION and late_return <= LATE_RETURN_FRACTION:
        return TRANSIENT_MINUS
    if returned >= return_goal:
        return RECURRENT_LIKE
    if right > SPLIT_FRACTION and left > SPLIT_FRACTION:
        return SPLIT
    return INCONCLUSIVE


@dataclass
class Verdict:
    env_index: int
    env_seed: int
    label: str
    evidence: dict  # JSON-native numbers only


@dataclass
class ClassifyResult:
    config: ScenarioConfig
    verdicts: list[Verdict]
    aggregate: dict[str, float]
    dp_checked: bool
    consistency_ok: bool
    mismatches: list[int] = field(default_factory=list)
    extras: dict = field(default_factory=dict)


def _mc_stats(res: BatchResult, horizon: int, margin_sites: float) -> dict:
    final = res.final_sites
    frt = res.first_return_times
    n = len(final)
    return {
        "right_fraction": float((final > margin_sites).mean()),
        "left_fraction": float((final < -margin_sites).mean()),
        "return_fraction": float((frt >= 0).mean()),
        "late_return_fraction": float(((frt > horizon // 2) & (frt <= horizon)).mean()),
        "mean_final_site": float(final.mean()),
        "min_site": int(res.min_sites.min()),
        "max_site": int(res.max_sites.max()),
        "n_walks": n,
    }


def _dp_stats(
    curve: np.ndarray, law: np.ndarray, horizon: int, margin_sites: float
) -> dict:
    """Exact-in-law statistics of the same quantities from one solve's
    float DP return curve and final site law (centred on site 0)."""
    half = len(law) // 2
    sites = np.arange(-half, half + 1)
    return {
        "dp_return_prob": float(curve[horizon]),
        "dp_late_return_prob": float(curve[horizon] - curve[horizon // 2]),
        "dp_right_prob": float(law[sites > margin_sites].sum()),
        "dp_left_prob": float(law[sites < -margin_sites].sum()),
    }


def classify(config: ScenarioConfig, strict: bool = True) -> ClassifyResult:
    """Run the Monte Carlo classifier over seeded environments.

    With strict=True a Monte Carlo label that contradicts the exact DP
    label raises ConsistencyError after all environments are evaluated;
    strict=False records the mismatches instead.  An over-budget request
    is refused before any environment is realized.
    """
    m = config.map
    require_budget(config.n_envs * config.n_walks * config.horizon)
    envs = [
        realize(config.environment, env_seed_for(config.master_seed, e))
        for e in range(config.n_envs)
    ]
    results = simulate_batch(m, envs, config.n_walks, config.horizon, config.master_seed)
    margin_sites = float(config.divergence_margin) * config.horizon
    return_goal = float(config.return_goal)

    dp_checked = m.full_branch
    dp_rows: list[dict | None] = [None] * config.n_envs
    if dp_checked:
        model = config.environment
        bound = model.jump_bound
        window = config.horizon * bound
        # one chain serves every environment when the model draws nothing
        # or every support function has the same jump law
        jump_laws = {site_dist_of(m, f) for f in model.support}
        shared = model.kind not in (IID, MARKOV) or len(jump_laws) == 1
        solve = envs[:1] if shared else envs
        dp_rows = []
        for k in range(0, len(solve), DP_STACK):
            # a generator: each chain is dropped once the stack has read
            # its float columns
            curves, laws = float_dp_stack(
                (build_site_chain(m, env, window + 1) for env in solve[k : k + DP_STACK]),
                0,
                config.horizon,
                bound,
            )
            dp_rows += [
                _dp_stats(curve, law, config.horizon, margin_sites)
                for curve, law in zip(curves, laws)
            ]
        if shared:
            dp_rows *= config.n_envs

    verdicts: list[Verdict] = []
    mismatches: list[int] = []
    for e, res in enumerate(results):
        stats = _mc_stats(res, config.horizon, margin_sites)
        label = _label_from_stats(
            stats["right_fraction"],
            stats["left_fraction"],
            stats["return_fraction"],
            stats["late_return_fraction"],
            return_goal,
        )
        evidence = dict(stats)
        if dp_rows[e] is not None:
            evidence.update(dp_rows[e])
            dp_label = _label_from_stats(
                evidence["dp_right_prob"],
                evidence["dp_left_prob"],
                evidence["dp_return_prob"],
                evidence["dp_late_return_prob"],
                return_goal,
            )
            evidence["dp_label"] = dp_label
            if dp_label != label:
                mismatches.append(e)
        verdicts.append(
            Verdict(
                env_index=e,
                env_seed=envs[e].env_seed,
                label=label,
                evidence=evidence,
            )
        )

    aggregate = {
        label: sum(1 for v in verdicts if v.label == label) / len(verdicts)
        for label in LABELS
    }
    result = ClassifyResult(
        config=config,
        verdicts=verdicts,
        aggregate=aggregate,
        dp_checked=dp_checked,
        consistency_ok=not mismatches,
        mismatches=mismatches,
        extras={},
    )
    _attach_extras(result)
    if strict and mismatches:
        raise ConsistencyError(
            f"Monte Carlo labels disagree with DP labels on environments {mismatches}"
        )
    return result


def _attach_extras(result: ClassifyResult) -> None:
    """Kind-specific certificates recorded next to the verdicts."""
    config = result.config
    m = config.map
    model = config.environment
    extras = result.extras
    if config.kind == "transience_check":
        r = config.certificate_r
        if r is None:
            counts = {sum(1 for v in f.jumps if v == 1) for f in model.support}
            if len(counts) == 1:
                r = counts.pop()
        if r is not None:
            cert = transience_certificate(m, r, support=model.support)
            extras["certificate"] = {
                "r": r,
                "holds": cert.holds,
                "inf_h": cert.inf_h,
                "threshold": cert.threshold,
                "direction": cert.direction,
                "exact_margin": str(cert.exact_margin),
            }
        extras["linkage"] = check_linkage(m, model.support).holds
        extras["solomon"] = _solomon_extras(config)
    elif config.kind == "symmetric_check":
        rep = symmetry_and_bounds(model)
        extras["symmetry"] = {
            "is_symmetric": rep.is_symmetric,
            "jump_bound": rep.jump_bound,
            "uniformly_bounded": rep.uniformly_bounded,
        }
        extras["linkage"] = check_linkage(m, model.support).holds
    elif config.kind == "split_demo":
        env = realize(model, env_seed_for(config.master_seed, 0))
        window = 60 * model.jump_bound
        chain = build_site_chain(m, env, window)
        k = 50
        p_up = hit_before(chain, 0, -k, k)
        extras["hit_before"] = {
            "targets": [-k, k],
            "probability": str(p_up),
            "probability_decimal": float(p_up),
        }
    elif config.kind in ("classify", "zero_one_scan"):
        sol = _solomon_extras(config)
        if sol is not None:
            extras["solomon"] = sol


def _solomon_extras(config: ScenarioConfig) -> dict | None:
    """Reduced-chain comparison for i.i.d. or fixed +/-1 environments."""
    m = config.map
    model = config.environment
    if not m.full_branch:
        return None
    alphas: list[tuple[Fraction, Fraction]] = []
    if model.kind == IID:
        weights = model.weights
    elif model.kind == "fixed":
        weights = (Fraction(1),)
    else:
        return None
    for f, w in zip(model.support, weights):
        if not f.values <= {1, -1}:
            return None
        alpha = sum(
            (m.measures[j] for j, v in enumerate(f.jumps) if v == 1), Fraction(0)
        )
        if alpha == 0 or alpha == 1:
            return None
        alphas.append((alpha, w))
    verdict = solomon_classifier(alphas)
    return {"expectation": verdict.expectation, "verdict": verdict.verdict}


@dataclass
class ScanResult:
    classify_result: ClassifyResult
    homogeneous: bool
    majority_label: str | None
    dissenters: list[dict]


def zero_one_scan(config: ScenarioConfig) -> ScanResult:
    """Empirical zero-one check: all conclusive labels must agree.

    Strict, as classify's default: a label contradicting the DP raises.
    Dissenting environments are listed with their seeds for replay.
    """
    result = classify(config)
    conclusive = [v for v in result.verdicts if v.label != INCONCLUSIVE]
    labels = [v.label for v in conclusive]
    # max keeps the first of equal counts, so ties follow LABELS order
    majority = max(LABELS, key=labels.count) if labels else None
    dissenters = [
        {"env_index": v.env_index, "env_seed": v.env_seed, "label": v.label}
        for v in conclusive
        if v.label != majority
    ]
    return ScanResult(
        classify_result=result,
        homogeneous=not dissenters and bool(labels),
        majority_label=majority,
        dissenters=dissenters,
    )
