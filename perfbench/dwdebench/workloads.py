"""Seeded request streams for the three workloads, and how to run one request.

Every input is a pure function of (workload, seed, request index): the
benchmark draws the numbers, the library receives only the resulting
scenario documents and call arguments.  Requests are never repeated
within a stream, so no cross-request cache can serve one.

* ``mc-scan``    zero-one scans of i.i.d. {g, -g} environments over the
                 doubling map.  Both support functions have the same
                 per-site jump law, so the experiments fingerprint dedup
                 hits and one DP solve serves every environment; the
                 work is the vectorised walks and the PRF.
* ``dp-certify`` classify runs on drift mixtures over the triple map.
                 Every environment has its own fingerprint (dedup
                 misses), so each pays a float DP solve and the DP thread
                 pool is engaged.
* ``oracle-mix`` one exact query per request, cycling through fourteen
                 families in a seeded order per round.  It drives the
                 scalar, exact-rational paths of walks, environments and
                 exact, which the other two workloads never touch.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from dwde import config, environments, exact, experiments, interval_maps, reports, structure, walks

MC_SCAN = "mc-scan"
DP_CERTIFY = "dp-certify"
ORACLE_MIX = "oracle-mix"
WORKLOADS = (MC_SCAN, DP_CERTIFY, ORACLE_MIX)


@dataclass(frozen=True)
class ScanShape:
    n_envs: int
    n_walks: int
    horizon: int


# Few environments, many walks: the walks dominate and the DP is shared.
# Many environments, few walks: one float DP solve per environment.
SCAN_SHAPES = {
    MC_SCAN: ScanShape(n_envs=4, n_walks=2000, horizon=2000),
    DP_CERTIFY: ScanShape(n_envs=8, n_walks=100, horizon=1200),
}

# Label every environment of the family must get from both the Monte
# Carlo rule and the DP; the margins to each threshold are wide at
# these shapes (mc-scan: return fraction ~0.985 against 0.9;
# dp-certify: no left drift, a 1/50 divergence margin, and a DP
# right-probability above 0.9999 over 160 sampled environments).
EXPECTED_LABEL = {MC_SCAN: "recurrent-like", DP_CERTIFY: "transient+"}

DOUBLING_SPEC = {
    "breakpoints": ["0", "1/2", "1"],
    "branches": [{"slope": "2", "intercept": "0"}, {"slope": "2", "intercept": "-1"}],
}
TRIPLE_SPEC = {
    "breakpoints": ["0", "1/3", "2/3", "1"],
    "branches": [{"slope": "3", "intercept": str(-i)} for i in range(3)],
}
# Non-full-branch Markov map: cell 0 (slope 2) covers cells 0 and 1 only.
MARKOV_SPEC = {
    "breakpoints": ["0", "1/3", "2/3", "1"],
    "branches": [
        {"slope": "2", "intercept": "0"},
        {"slope": "3", "intercept": "-1"},
        {"slope": "3", "intercept": "-2"},
    ],
}

# Any weights keep the per-site law of {g, -g} at 1/2 each.
MC_WEIGHTS = ("1/2", "1/3", "2/5", "3/5", "2/3")
# Drift mixtures over sites that always step right (drift 1), drift
# right (+1 w.p. 2/3) and stay put or step +/-1 (drift 0).  No site
# drifts left, so no environment holds a trap that could bring the DP
# right-probability near the 0.95 threshold; the per-site laws still
# differ, so every environment has its own fingerprint.
DP_MIXTURES = (
    ("1/4", "1/2", "1/4"),
    ("1/3", "1/3", "1/3"),
    ("1/6", "1/2", "1/3"),
    ("1/5", "2/5", "2/5"),
)


def _rng(*key) -> random.Random:
    # str seeding hashes with sha512: stable across runs and platforms
    return random.Random("/".join(str(k) for k in key))


@dataclass(frozen=True)
class Request:
    workload: str
    index: int
    family: str
    params: dict  # JSON-native; for scans the scenario document


def scan_document(workload: str, seed: int, k: int, shape: ScanShape) -> dict:
    rng = _rng(workload, seed, k)
    if workload == MC_SCAN:
        w = Fraction(rng.choice(MC_WEIGHTS))
        env = {"kind": "iid", "support": [[1, -1], [-1, 1]], "weights": [str(w), str(1 - w)]}
        map_spec, kind, margin = DOUBLING_SPEC, "zero_one_scan", "1/6"
    else:
        env = {
            "kind": "iid",
            "support": [[1, 1, 1], [1, 1, -1], [1, 0, -1]],
            "weights": list(rng.choice(DP_MIXTURES)),
        }
        map_spec, kind, margin = TRIPLE_SPEC, "classify", "1/50"
    return {
        "name": f"{workload}-{seed}-{k}",
        "map": map_spec,
        "environment": env,
        "experiment": {
            "kind": kind,
            "budgets": {
                "n_envs": shape.n_envs,
                "n_walks": shape.n_walks,
                "horizon": shape.horizon,
            },
            "thresholds": {"divergence_margin": margin, "return_goal": "9/10"},
            "certificate_r": None,
        },
        "seeds": {"master": rng.getrandbits(32)},
    }


@dataclass(frozen=True)
class ScanOutput:
    result: experiments.ClassifyResult
    scan: experiments.ScanResult | None
    payload_json: str
    verdicts_csv: str
    markdown: str


def run_scan(doc: dict) -> ScanOutput:
    """Parse, run and render one scenario, as a user of the library would."""
    cfg = config.scenario_from_dict(doc)
    if cfg.kind == "zero_one_scan":
        scan = experiments.zero_one_scan(cfg)
        result = scan.classify_result
        payload = reports.scan_payload(scan)
    else:
        scan = None
        result = experiments.classify(cfg)
        payload = reports.classify_payload(result)
    return ScanOutput(
        result=result,
        scan=scan,
        payload_json=config.canonical_json(payload),
        verdicts_csv=reports.verdicts_csv(result),
        markdown=reports.markdown_summary(result, scan),
    )


# -- oracle-mix ------------------------------------------------------------


@dataclass(frozen=True)
class OracleSizes:
    """Per-family sizes, chosen so that each family costs a similar time."""

    return_site_steps: int = 140
    return_joint_steps: int = 70
    tri_half_width: int = 900
    dense_half_width: int = 6
    series_lag: int = 240
    passage_k: int = 12
    passage_n: int = 260
    path_counts_n: int = 160
    path_counts_k: int = 50
    cylinder_n: int = 220
    cylinder_rank: int = 10
    graph_window: int = 1000
    exact_walk_steps: int = 3200
    symbolic_walk_steps: int = 8000
    taboo_walks: int = 20000
    taboo_horizon: int = 400
    ensemble_walks: int = 10
    ensemble_steps: int = 300


ORACLE_SIZES = OracleSizes()


class Models:
    """Maps and environment models shared by every oracle request (set-up)."""

    def __init__(self):
        self.triple = interval_maps.map_from_spec(TRIPLE_SPEC)
        self.markov_map = interval_maps.map_from_spec(MARKOV_SPEC)
        fn = environments.fn
        # every function jumps +1 on exactly two of three cells: homogeneous
        # plus-count, so the first-passage comparison value exists
        self.triple_r2 = environments.iid_model([fn(1, 1, -1), fn(1, -1, 1), fn(-1, 1, 1)])
        # heterogeneous drift mixture (the adversarial-mixed preset's)
        self.mix = environments.iid_model([fn(1, 1, -1), fn(-1, -1, 1)], ["8/9", "1/9"])
        self.markov_env = environments.markov_model(
            [fn(1, -1, 1), fn(-1, 1, -1)],
            [["2/3", "1/3"], ["1/3", "2/3"]],
        )
        self.triple_markov_env = environments.markov_model(
            [fn(1, 1, -1), fn(-1, -1, 1)],
            [["3/4", "1/4"], ["1/2", "1/2"]],
        )


ORACLE_FAMILIES = (
    "return_prob_site",
    "return_prob_joint",
    "hit_before_tridiagonal",
    "hit_before_dense",
    "series_diagnostic",
    "first_passage_measure",
    "path_counts",
    "return_cylinder_count",
    "iter_cylinders",
    "skew_graph_classes",
    "simulate_exact",
    "simulate_symbolic_markov",
    "taboo_hit",
    "run_ensemble_exact",
)


def oracle_request(seed: int, k: int) -> Request:
    n = len(ORACLE_FAMILIES)
    order = list(ORACLE_FAMILIES)
    _rng(ORACLE_MIX, seed, "round", k // n).shuffle(order)
    family = order[k % n]
    rng = _rng(ORACLE_MIX, seed, k)
    s = ORACLE_SIZES
    params: dict = {"env_seed": rng.getrandbits(32)}
    if family == "return_prob_site":
        params.update(steps=s.return_site_steps)
    elif family == "return_prob_joint":
        params.update(steps=s.return_joint_steps)
    elif family == "hit_before_tridiagonal":
        a = s.tri_half_width
        params.update(start=rng.randint(-a // 2, a // 2), a=-a, b=a)
    elif family == "hit_before_dense":
        a = s.dense_half_width
        params.update(start=rng.randint(-a + 1, a - 1), a=-a, b=a)
    elif family == "series_diagnostic":
        params.update(cell=rng.randrange(3), theta=rng.choice(["1/2", "1/3", "2/3"]), lag=s.series_lag)
    elif family == "first_passage_measure":
        params.update(k=s.passage_k, n_max=s.passage_n, direction=rng.choice([-1, 1]))
    elif family == "path_counts":
        params.update(n_max=s.path_counts_n, k_max=s.path_counts_k)
    elif family == "return_cylinder_count":
        params.update(cells=4, n=s.cylinder_n, r=rng.randint(1, 3), cell=rng.randrange(4))
    elif family == "iter_cylinders":
        params.update(rank=s.cylinder_rank)
    elif family == "skew_graph_classes":
        params.update(window=s.graph_window)
    elif family == "simulate_exact":
        params.update(steps=s.exact_walk_steps, point_seed=rng.getrandbits(32))
    elif family == "simulate_symbolic_markov":
        params.update(steps=s.symbolic_walk_steps, walk_seed=rng.getrandbits(32), targets=[-20, 20])
    elif family == "taboo_hit":
        params.update(
            start=0,
            target=5,
            taboo=-3,
            horizon=s.taboo_horizon,
            walks=s.taboo_walks,
            walk_seed=rng.getrandbits(32),
        )
    elif family == "run_ensemble_exact":
        params.update(envs=2, walks=s.ensemble_walks, steps=s.ensemble_steps)
    return Request(ORACLE_MIX, k, family, params)


def run_oracle(req: Request, models: Models):
    """One oracle query: realise its inputs, then make the call."""
    p = req.params
    f = req.family
    if f == "return_prob_site":
        env = environments.realize(models.mix, p["env_seed"])
        chain = exact.build_site_chain(models.triple, env, p["steps"])
        return chain, exact.return_prob_by_time(chain, 0, p["steps"])
    if f == "return_prob_joint":
        env = environments.realize(models.markov_env, p["env_seed"])
        chain = exact.build_site_chain(models.markov_map, env, p["steps"], joint=True)
        return exact.return_prob_by_time(chain, 0, p["steps"])
    if f == "hit_before_tridiagonal":
        env = environments.realize(models.mix, p["env_seed"])
        chain = exact.build_site_chain(models.triple, env, p["b"])
        return chain, exact.hit_before(chain, p["start"], p["a"], p["b"])
    if f == "hit_before_dense":
        env = environments.realize(models.triple_markov_env, p["env_seed"])
        chain = exact.build_site_chain(models.triple, env, p["b"], joint=True)
        return env, exact.hit_before(chain, p["start"], p["a"], p["b"])
    if f == "series_diagnostic":
        env = environments.realize(models.markov_env, p["env_seed"])
        return exact.series_diagnostic(models.markov_map, env, p["cell"], p["theta"], p["lag"])
    if f == "first_passage_measure":
        env = environments.realize(models.triple_r2, p["env_seed"])
        return exact.first_passage_measure(models.triple, env, p["k"], p["n_max"], p["direction"])
    if f == "path_counts":
        return exact.path_counts(p["n_max"], p["k_max"])
    if f == "return_cylinder_count":
        m = interval_maps.equal_slope_map(p["cells"])
        return exact.return_cylinder_count(m, p["r"], p["n"], p["cell"])
    if f == "iter_cylinders":
        return list(interval_maps.iter_cylinders(models.markov_map, p["rank"]))
    if f == "skew_graph_classes":
        env = environments.realize(models.markov_env, p["env_seed"])
        graph = structure.build_skew_graph(models.markov_map, env, p["window"])
        return graph, structure.communication_classes(graph)
    if f == "simulate_exact":
        env = environments.realize(models.mix, p["env_seed"])
        x = walks.uniform_rational_start(models.triple, p["steps"], p["point_seed"])
        return walks.simulate(
            models.triple, env, walks.WalkState(x, 0), p["steps"], mode=walks.EXACT
        )
    if f == "simulate_symbolic_markov":
        env = environments.realize(models.markov_env, p["env_seed"])
        return walks.simulate(
            models.markov_map,
            env,
            walks.WalkState(None, 0),
            p["steps"],
            mode=walks.SYMBOLIC,
            walk_seed=p["walk_seed"],
            hit_targets=tuple(p["targets"]),
        )
    if f == "taboo_hit":
        env = environments.realize(models.mix, p["env_seed"])
        query = walks.TabooQuery(p["start"], p["target"], p["taboo"], p["horizon"])
        return walks.taboo_hit(models.triple, env, query, p["walks"], p["walk_seed"])
    if f == "run_ensemble_exact":
        return walks.run_ensemble(
            models.triple,
            models.mix,
            p["envs"],
            p["walks"],
            p["steps"],
            mode=walks.EXACT,
            master_seed=p["env_seed"],
        )
    raise ValueError(f"unknown oracle family {f!r}")


class Workload:
    """A workload's request stream, bound to one seed.

    Construction is the set-up a user pays before the first request:
    importing dwde (done by the caller), building maps and environment
    models, and generating and validating the first scenario document.
    """

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.scan_shape = SCAN_SHAPES.get(name)
        if name == ORACLE_MIX:
            self.models = Models()
        else:
            self.models = None
            config.scenario_from_dict(self.request(0).params)

    def request(self, k: int) -> Request:
        if self.name == ORACLE_MIX:
            return oracle_request(self.seed, k)
        return Request(self.name, k, "scan", scan_document(self.name, self.seed, k, self.scan_shape))

    def execute(self, req: Request):
        if self.name == ORACLE_MIX:
            return run_oracle(req, self.models)
        return run_scan(req.params)

    def shape(self) -> dict:
        """Request shape, for the run metadata."""
        if self.name == ORACLE_MIX:
            return {"families": list(ORACLE_FAMILIES), "sizes": asdict(ORACLE_SIZES)}
        s = self.scan_shape
        return {"n_envs": s.n_envs, "n_walks": s.n_walks, "horizon": s.horizon,
                "kind": "zero_one_scan" if self.name == MC_SCAN else "classify"}

