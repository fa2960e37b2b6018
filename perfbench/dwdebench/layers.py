"""Which dwde functions the traced run wraps, and the per-layer metrics.

Every public function defined in a dwde module is wrapped, under the
name ``<module>.<function>``, in every dwde namespace that holds it
(``dwde.experiments.build_site_chain`` as well as
``dwde.exact.build_site_chain``), so calls between modules are seen
from outside.  Per-call scalars that run once per step or per site are
counted, not timed, because a timed span per call would outweigh the
call.  DP solves that `experiments` hands to its thread pool keep their
parent span through a pool class that carries the tracer context.
"""

from __future__ import annotations

import inspect
from concurrent.futures import ThreadPoolExecutor

import dwde
from dwde import (
    cli,
    config,
    environments,
    exact,
    experiments,
    interval_maps,
    presets,
    prf,
    reports,
    structure,
    walks,
)

from .tracer import Span, Tracer, busy_by_name, covered, outermost, self_times

LAYER_MODULES = (prf, interval_maps, environments, walks, exact, structure, experiments, config, reports)
NAMESPACES = LAYER_MODULES + (cli, presets, dwde)
LAYERS = tuple(m.__name__.split(".")[-1] for m in LAYER_MODULES)

# scalar helpers called per step, per site or per parsed value
COUNT_ONLY = {"prf.hash_u64", "prf.pick", "interval_maps.as_fraction", "config.require_keys"}
# hash_u64's inner mixing round; its count is implied by hash_u64's
NOT_WRAPPED = {"prf.mix64"}

FLOAT_DP = ("exact.return_prob_curve", "exact.final_distribution")
DP_SOLVE = ("exact.build_site_chain",) + FLOAT_DP


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _distinct_jumps(chain) -> int:
    seen = {id(t): t for t in chain.site_transitions.values()}
    return len({v for layers in seen.values() for layer in layers for _, v, _ in layer})


def _float_dp_hook(kind: str):
    def after(add, args, kwargs, result):
        chain = _arg(args, kwargs, 0, "chain")
        n = _arg(args, kwargs, 2, "n_steps")
        radius = (n if kind == "final" else (n + 1) // 2) * chain.max_jump
        width = 2 * radius + 1
        add("exact.float_dp.site_steps", width * n)
        # per step: one zeroed float64 array, then per jump value a read
        # of dist and probs, a write of the product, and a read-modify-
        # write of the accumulator: (1 + 6 J) arrays of 8-byte entries
        add("exact.float_dp.bytes_computed", 8 * width * n * (1 + 6 * _distinct_jumps(chain)))

    return after


def _hooks() -> dict:
    """After-hooks that record counts at the same boundaries as the spans."""

    def absorb(add, args, kwargs, result):
        add("prf.absorb_array.elements", result.size)

    def batch(add, args, kwargs, result):
        envs = _arg(args, kwargs, 1, "envs")
        add(
            "walks.simulate_batch.walk_steps",
            len(envs) * _arg(args, kwargs, 2, "n_walks") * _arg(args, kwargs, 3, "n_steps"),
        )

    def simulate(add, args, kwargs, result):
        add("walks.simulate.steps", _arg(args, kwargs, 3, "n_steps"))

    def hit_before(add, args, kwargs, result):
        chain = _arg(args, kwargs, 0, "chain")
        a, b = _arg(args, kwargs, 2, "target_a"), _arg(args, kwargs, 3, "target_b")
        add("exact.hit_before.unknowns", (b - a - 1) * chain.layers)

    def skew_graph(add, args, kwargs, result):
        add("structure.edges", len(result.edges))

    def cylinders(add, args, kwargs, items):
        add("interval_maps.iter_cylinders.words", items)

    def classify(add, args, kwargs, result):
        add("experiments.environments", len(result.verdicts))

    def rendered(add, args, kwargs, result):
        add("reports.bytes", len(result.encode()))

    return {
        "prf.absorb_array": absorb,
        "walks.simulate_batch": batch,
        "walks.simulate": simulate,
        "exact.hit_before": hit_before,
        "exact.return_prob_curve": _float_dp_hook("curve"),
        "exact.final_distribution": _float_dp_hook("final"),
        "structure.build_skew_graph": skew_graph,
        "interval_maps.iter_cylinders": cylinders,
        "experiments.classify": classify,
        "reports.verdicts_csv": rendered,
        "reports.markdown_summary": rendered,
        "config.canonical_json": rendered,
    }


class _WindowLedger:
    """Sites requested per realization, for index_window's repeat share.

    Realizations are created inside a request, so the ledger is cleared
    at each request start; a memo shared by shift() views is one
    realization.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.seen: dict[int, list[tuple[int, int]]] = {}

    def record(self, env, lo: int, hi: int) -> None:
        lo, hi = lo + env.offset, hi + env.offset
        with self.tracer._lock:
            windows = self.seen.setdefault(id(env._memo), [])
            repeated = covered(((a, b + 1) for a, b in windows), lo, hi + 1)
            windows.append((lo, hi))
        self.tracer.add("environments.index_window.sites", hi - lo + 1)
        self.tracer.add("environments.index_window.repeated_sites", repeated)


def install(tracer: Tracer) -> _WindowLedger:
    """Wrap dwde for `tracer`; undo with tracer.restore()."""
    hooks = _hooks()
    wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
    for module in LAYER_MODULES:
        layer = module.__name__.split(".")[-1]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in NOT_WRAPPED:
                continue
            if name in COUNT_ONLY:
                wrapper = tracer.counted(name, obj)
            elif inspect.isgeneratorfunction(obj):
                wrapper = tracer.timed_generator(name, obj, hooks.get(name))
            else:
                wrapper = tracer.timed(name, obj, hooks.get(name))
            wrapped[id(obj)] = (obj, wrapper)
    for ns in NAMESPACES:
        for attr, obj in list(vars(ns).items()):
            pair = wrapped.get(id(obj))
            if pair is not None and pair[0] is obj:
                tracer.patch(ns, attr, pair[1])

    realization = environments.EnvironmentRealization
    tracer.patch(realization, "at", tracer.counted("environments.at", realization.at))
    ledger = _WindowLedger(tracer)
    index_window = realization.index_window
    timed_window = tracer.timed("environments.index_window", index_window)

    def traced_index_window(env, lo, hi):
        ledger.record(env, lo, hi)
        return timed_window(env, lo, hi)

    tracer.patch(realization, "index_window", traced_index_window)

    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            ctx = tracer.context()

            def run():
                with tracer.adopted(ctx):
                    return fn(*args, **kwargs)

            return super().submit(run)

    tracer.patch(experiments, "ThreadPoolExecutor", TracedPool)
    return ledger


# -- metrics ---------------------------------------------------------------


def _busy(spans: list[Span], names: set[str]) -> float:
    return sum(s.duration for s in outermost(spans, names))


# run-level values, not divided by the request count
RUN_LEVEL = {
    "walks.walk_steps_per_busy_s",
    "environments.index_window.repeat_frac",
    "exact.float_dp.site_steps_per_busy_s",
    "experiments.dp_dedup_ratio",
    "experiments.dp_parallelism",
    "experiments.dp_threads",
}


def per_layer_metrics(spans: list[Span], counts: dict, n_requests: int) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    Only spans inside a request count.  Times and counts are per traced
    request, so runs that complete a different number of requests
    compare; ratios and shares are taken over the whole run.
    """
    spans = [s for s in spans if s.request is not None]
    names = {s.name for s in spans}
    busy = busy_by_name(spans)
    c = lambda name: counts.get(name, 0)  # noqa: E731
    selfs = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for s in spans:
        layer = s.name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[s.id]
    total_self = sum(layer_self.values()) or 1.0

    # DP solves and their overlap under each classify
    classify_ids = {s.id for s in spans if s.name == "experiments.classify"}
    dp_busy = dp_wall = 0.0
    dp_threads = 0
    solves = 0
    by_parent_classify: dict[int, list[Span]] = {}
    by_id = {s.id: s for s in spans}
    for s in outermost(spans, set(DP_SOLVE)):
        p = s.parent
        while p is not None and p not in classify_ids:
            p = by_id[p].parent
        if p is not None:
            by_parent_classify.setdefault(p, []).append(s)
    for group in by_parent_classify.values():
        dp_busy += sum(s.duration for s in group)
        dp_wall += max(s.end for s in group) - min(s.start for s in group)
        dp_threads = max(dp_threads, len({s.thread for s in group}))
        solves += sum(1 for s in group if s.name == "exact.build_site_chain")
    envs = c("experiments.environments")

    float_dp_busy = sum(busy.get(n, 0.0) for n in FLOAT_DP)
    windows = c("environments.index_window.sites")
    out = {
        "prf.absorb_array.busy_s": (busy.get("prf.absorb_array", 0.0), "s"),
        "prf.absorb_array.elements": (c("prf.absorb_array.elements"), "count"),
        "prf.pick_array.busy_s": (busy.get("prf.pick_array", 0.0), "s"),
        "prf.hash_u64.calls": (c("prf.hash_u64.calls"), "count"),
        "walks.simulate_batch.busy_s": (busy.get("walks.simulate_batch", 0.0), "s"),
        "walks.simulate_batch.walk_steps": (c("walks.simulate_batch.walk_steps"), "count"),
        "walks.walk_steps_per_busy_s": (
            c("walks.simulate_batch.walk_steps") / busy["walks.simulate_batch"]
            if busy.get("walks.simulate_batch") else 0.0,
            "1/s",
        ),
        "walks.simulate.busy_s": (busy.get("walks.simulate", 0.0), "s"),
        "walks.simulate.steps": (c("walks.simulate.steps"), "count"),
        "walks.taboo_hit.busy_s": (busy.get("walks.taboo_hit", 0.0), "s"),
        "walks.run_ensemble.busy_s": (busy.get("walks.run_ensemble", 0.0), "s"),
        "environments.index_window.busy_s": (busy.get("environments.index_window", 0.0), "s"),
        "environments.index_window.sites": (windows, "count"),
        "environments.index_window.repeat_frac": (
            c("environments.index_window.repeated_sites") / windows if windows else 0.0,
            "frac",
        ),
        "environments.at.calls": (c("environments.at.calls"), "count"),
        "exact.build_site_chain.busy_s": (busy.get("exact.build_site_chain", 0.0), "s"),
        "exact.final_distribution.busy_s": (busy.get("exact.final_distribution", 0.0), "s"),
        "exact.return_prob_curve.busy_s": (busy.get("exact.return_prob_curve", 0.0), "s"),
        "exact.float_dp.site_steps": (c("exact.float_dp.site_steps"), "count"),
        "exact.float_dp.site_steps_per_busy_s": (
            c("exact.float_dp.site_steps") / float_dp_busy if float_dp_busy else 0.0,
            "1/s",
        ),
        "exact.float_dp.bytes_computed": (c("exact.float_dp.bytes_computed"), "bytes"),
        "exact.return_prob_by_time.busy_s": (busy.get("exact.return_prob_by_time", 0.0), "s"),
        "exact.hit_before.busy_s": (busy.get("exact.hit_before", 0.0), "s"),
        "exact.hit_before.unknowns": (c("exact.hit_before.unknowns"), "count"),
        "exact.series_diagnostic.busy_s": (busy.get("exact.series_diagnostic", 0.0), "s"),
        "exact.first_passage_measure.busy_s": (busy.get("exact.first_passage_measure", 0.0), "s"),
        "exact.path_counts.busy_s": (busy.get("exact.path_counts", 0.0), "s"),
        "exact.return_cylinder_count.busy_s": (busy.get("exact.return_cylinder_count", 0.0), "s"),
        "structure.build_skew_graph.busy_s": (busy.get("structure.build_skew_graph", 0.0), "s"),
        "structure.edges": (c("structure.edges"), "count"),
        "structure.communication_classes.busy_s": (
            busy.get("structure.communication_classes", 0.0),
            "s",
        ),
        "interval_maps.iter_cylinders.busy_s": (busy.get("interval_maps.iter_cylinders", 0.0), "s"),
        "interval_maps.iter_cylinders.words": (c("interval_maps.iter_cylinders.words"), "count"),
        "interval_maps.build_map.busy_s": (busy.get("interval_maps.build_map", 0.0), "s"),
        "experiments.classify.self_s": (
            sum(selfs[s.id] for s in spans if s.name == "experiments.classify"),
            "s",
        ),
        "experiments.dp_solves": (solves, "count"),
        "experiments.dp_dedup_ratio": (1 - solves / envs if envs else 0.0, "frac"),
        "experiments.dp_parallelism": (dp_busy / dp_wall if dp_wall else 0.0, "ratio"),
        "experiments.dp_threads": (dp_threads, "count"),
        "reports.render.busy_s": (
            _busy(spans, {n for n in names if n.startswith("reports.")} | {"config.canonical_json"}),
            "s",
        ),
        "reports.bytes": (c("reports.bytes"), "bytes"),
        "config.scenario_from_dict.busy_s": (busy.get("config.scenario_from_dict", 0.0), "s"),
        "config.map_from_spec.busy_s": (busy.get("interval_maps.map_from_spec", 0.0), "s"),
        "config.env_model_from_spec.busy_s": (busy.get("config.env_model_from_spec", 0.0), "s"),
    }
    n = max(1, n_requests)
    out = {k: (v if k in RUN_LEVEL else v / n, u) for k, (v, u) in out.items()}
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = (value / n, "s")
        out[f"{layer}.self_share"] = (value / total_self, "frac")
    return out
