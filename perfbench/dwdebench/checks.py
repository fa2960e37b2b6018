"""Output checks for every request.

Two kinds, both run on every request:

* reference-free checks, which hold for any seed: Monte Carlo labels
  against DP labels, rendered reports against the result, and for each
  oracle family an independent identity (tridiagonal against dense
  hit_before on one +/-1 chain, exact return_prob_by_time against the
  float return_prob_curve, closed forms for path and cylinder counts);
* reference checks, where `reference.json` holds the outputs recorded
  for this (workload, seed, request): Monte Carlo summaries and oracle
  answers must be bit-identical, float DP values within DP_ABS_TOL.

Each check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from math import comb

import numpy as np

from dwde import environments, exact, interval_maps, walks

from .workloads import EXPECTED_LABEL, MC_SCAN, ORACLE_MIX, Request, ScanOutput

# Float DP values are sums of ~horizon products; a reordering of those
# sums moves them by far less than this.
DP_ABS_TOL = 1e-9
# float return_prob_curve against the exact rational at a small horizon
CURVE_ABS_TOL = 1e-9

MC_FIELDS = (
    "right_fraction",
    "left_fraction",
    "return_fraction",
    "late_return_fraction",
    "mean_final_site",
    "min_site",
    "max_site",
    "n_walks",
)
DP_FIELDS = ("dp_return_prob", "dp_late_return_prob", "dp_right_prob", "dp_left_prob")


def canonical(obj):
    """JSON-native, order-stable image of a result, for digests."""
    t = type(obj)
    if t is int or t is str or t is bool or obj is None:
        return obj
    if t is tuple or t is list:
        return [canonical(x) for x in obj]
    if t is Fraction:
        return f"{obj.numerator}/{obj.denominator}"
    if t is float:
        return repr(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return canonical(obj.item())
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonical(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return [[canonical(k), canonical(v)] for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical(x) for x in obj)
    raise TypeError(f"no canonical form for {t.__name__}")


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def digest(obj) -> str:
    """sha256 of the compact JSON text of canonical(obj).

    A list is hashed item by item: the text of a long answer (all the
    cylinders of a rank) runs to megabytes, and holding it whole would
    make the peak memory of a run depend on whether its seed has
    reference entries.
    """
    h = hashlib.sha256()
    if type(obj) is list or type(obj) is tuple:
        h.update(b"[")
        for i, x in enumerate(obj):
            h.update(b"," if i else b"")
            h.update(_ENCODER.encode(canonical(x)).encode())
        h.update(b"]")
    else:
        h.update(_ENCODER.encode(canonical(obj)).encode())
    return h.hexdigest()


# -- scans -----------------------------------------------------------------


def scan_fingerprint(out: ScanOutput) -> dict:
    verdicts = out.result.verdicts
    return {
        "labels": [v.label for v in verdicts],
        "mc": digest([[v.evidence[f] for f in MC_FIELDS] for v in verdicts]),
        "dp": [[v.evidence[f] for f in DP_FIELDS] for v in verdicts],
    }


def scan_problems(req: Request, out: ScanOutput) -> list[str]:
    doc = req.params
    budgets = doc["experiment"]["budgets"]
    result = out.result
    expected = EXPECTED_LABEL[req.workload]
    problems = []
    if len(result.verdicts) != budgets["n_envs"]:
        problems.append(f"{len(result.verdicts)} verdicts for {budgets['n_envs']} environments")
    if not result.dp_checked or not result.consistency_ok or result.mismatches:
        problems.append(f"DP cross-check failed on environments {result.mismatches}")
    for v in result.verdicts:
        ev = v.evidence
        if v.label != expected or ev.get("dp_label") != v.label:
            problems.append(
                f"env {v.env_index}: Monte Carlo {v.label}, DP {ev.get('dp_label')}, expected {expected}"
            )
        if ev.get("n_walks") != budgets["n_walks"]:
            problems.append(f"env {v.env_index}: {ev.get('n_walks')} walks")
        for f in DP_FIELDS:
            if not -1e-12 <= ev.get(f, -1.0) <= 1 + 1e-12:
                problems.append(f"env {v.env_index}: {f} = {ev.get(f)} outside [0, 1]")
    if req.workload == MC_SCAN:
        if out.scan is None or not out.scan.homogeneous or out.scan.majority_label != expected:
            problems.append("zero-one scan is not homogeneous on the expected label")
    lines = out.verdicts_csv.splitlines()
    if len(lines) != budgets["n_envs"] + 1 or not lines[0].startswith("env_index,"):
        problems.append(f"verdict CSV has {len(lines)} lines")
    payload = json.loads(out.payload_json)
    if [v["label"] for v in payload["verdicts"]] != [v.label for v in result.verdicts]:
        problems.append("JSON payload labels differ from the result")
    if payload["scenario"]["seeds"]["master"] != doc["seeds"]["master"]:
        problems.append("JSON payload lost the master seed")
    if not out.markdown.startswith(f"# Scenario: {doc['name']}\n"):
        problems.append("markdown summary has the wrong title")
    return problems


def compare_scan(ref: dict, got: dict) -> list[str]:
    problems = []
    if ref["labels"] != got["labels"]:
        problems.append(f"labels {got['labels']} differ from reference {ref['labels']}")
    if ref["mc"] != got["mc"]:
        problems.append("Monte Carlo summaries are not bit-identical to the reference")
    if len(ref["dp"]) != len(got["dp"]):
        problems.append("DP rows differ in number from the reference")
    for e, (r_row, g_row) in enumerate(zip(ref["dp"], got["dp"])):
        for f, r, g in zip(DP_FIELDS, r_row, g_row):
            if abs(r - g) > DP_ABS_TOL:
                problems.append(f"env {e}: {f} = {g!r}, reference {r!r}")
    return problems


# -- oracle-mix ------------------------------------------------------------


def oracle_answer(req: Request, out):
    """The part of an oracle output that the reference pins down."""
    f = req.family
    if f in ("return_prob_site", "hit_before_tridiagonal", "hit_before_dense"):
        return out[1]
    if f == "skew_graph_classes":
        graph, classes = out
        return [len(graph.edges), len(graph.external_edges), classes]
    return out


def oracle_fingerprint(req: Request, out) -> dict:
    return {"family": req.family, "answer": digest(oracle_answer(req, out))}


def compare_oracle(ref: dict, got: dict) -> list[str]:
    if ref != got:
        return [f"{got['family']}: answer differs from the reference"]
    return []


def _in_unit(p) -> bool:
    return 0 <= p <= 1


def _corridor_count(n: int, k: int) -> int:
    """Reflection-principle count of c[n][k] (see exact.path_counts).

    After the forced first step to -1, the path has L = 2n + k - 2 steps
    inside sites -(k-1)..-1 ending at -(k-1), then one step to -k.  In
    coordinates x = site + k the barriers sit at 0 and k.
    """
    if k == 1:
        return 1 if n == 0 else 0
    length, x0, x1, w = 2 * n + k - 2, k - 1, 1, k

    def free(d: int) -> int:  # length-L paths with displacement d
        up2 = length + d
        if up2 % 2 or not 0 <= up2 <= 2 * length:
            return 0
        return comb(length, up2 // 2)

    total = 0
    for j in range(-(length // w) - 2, length // w + 3):
        total += free(x1 - x0 + 2 * j * w) - free(x1 + x0 + 2 * j * w)
    return total


def _cylinder_closed_form(k_cells: int, r: int, n: int, cell: int) -> int:
    if cell < r:  # first step +1, then n-1 more ups and n downs
        return comb(2 * n - 1, n - 1) * r ** (n - 1) * (k_cells - r) ** n
    return comb(2 * n - 1, n) * r**n * (k_cells - r) ** (n - 1)


def _site_path_ok(traj, steps: int) -> list[str]:
    problems = []
    if not traj.min_site <= traj.final_site <= traj.max_site:
        problems.append("final site outside [min, max]")
    if not traj.min_site <= traj.start_site <= traj.max_site:
        problems.append("start site outside [min, max]")
    if (traj.final_site - traj.start_site - steps) % 2:
        problems.append("+/-1 walk has the wrong parity")
    if traj.first_return_time is not None and traj.first_return_time % 2:
        problems.append("+/-1 walk returned at an odd time")
    return problems


def oracle_problems(req: Request, out, models) -> list[str]:
    p = req.params
    f = req.family
    problems: list[str] = []
    if f == "return_prob_site":
        chain, prob = out
        curve = exact.return_prob_curve(chain, 0, p["steps"])
        if not _in_unit(prob) or abs(float(prob) - curve[p["steps"]]) > CURVE_ABS_TOL:
            problems.append(f"exact {float(prob)!r} vs float curve {curve[p['steps']]!r}")
    elif f == "return_prob_joint":
        if not isinstance(out, Fraction) or not _in_unit(out):
            problems.append(f"return probability {out!r}")
    elif f == "hit_before_tridiagonal":
        chain, h = out
        s, a, b = p["start"], p["a"], p["b"]

        def h_at(i):
            if i <= a:
                return Fraction(0)
            if i >= b:
                return Fraction(1)
            return exact.hit_before(chain, i, a, b)

        harmonic = sum(q * h_at(s + v) for _, v, q in chain.transitions_at(s)[0])
        if not _in_unit(h) or harmonic != h:
            problems.append("hitting probability is not harmonic at the start site")
    elif f == "hit_before_dense":
        env, h = out
        site_chain = exact.build_site_chain(models.triple, env, p["b"])
        tri = exact.hit_before(site_chain, p["start"], p["a"], p["b"])
        if h != tri:
            problems.append(f"dense {h} differs from tridiagonal {tri}")
    elif f == "series_diagnostic":
        d = out
        if len(d.partial_sums) != p["lag"] + 1:
            problems.append("wrong number of partial sums")
        for j in range(1, len(d.increments)):
            inc = d.increments[j]
            if inc < 0 or d.partial_sums[j] != d.partial_sums[j - 1] + inc:
                problems.append(f"lag {j}: partial sums do not accumulate")
                break
            if j % 2 and inc:
                problems.append(f"+/-1 walk returned at odd lag {j}")
                break
    elif f == "first_passage_measure":
        # every site has the same jump law, so the geometric comparison
        # value is the exact series and the two must agree
        if out.comparison_bound is None or out.value != out.comparison_bound:
            problems.append(f"first passage {out.value} vs comparison {out.comparison_bound}")
    elif f == "path_counts":
        table = out
        if len(table) != p["n_max"] + 1 or any(row[0] for row in table):
            problems.append("path-count table has the wrong shape")
        # the whole last row and last column, plus a seeded sample
        n_max, k_max = p["n_max"], p["k_max"]
        rng = np.random.default_rng(req.index)
        cells = [(n_max, k) for k in range(1, k_max + 1)] + [(n, k_max) for n in range(n_max)]
        cells += [(int(rng.integers(0, n_max + 1)), int(rng.integers(1, k_max + 1))) for _ in range(8)]
        for n, k in cells:
            if table[n][k] != _corridor_count(n, k):
                problems.append(f"c[{n}][{k}] = {table[n][k]}, reflection count {_corridor_count(n, k)}")
                break
    elif f == "return_cylinder_count":
        want = _cylinder_closed_form(p["cells"], p["r"], p["n"], p["cell"])
        if out["enumerated"] != want or out["enumerated"] > out["combinatorial_bound"]:
            problems.append(f"return cylinders {out['enumerated']}, closed form {want}")
    elif f == "iter_cylinders":
        m = models.markov_map
        words = [w for w, _ in out]
        # every cylinder denominator divides 6^rank (cell measure 1/3, ratios 1/2 or 1/3)
        scale = 6 ** p["rank"]
        if sum(mass.numerator * (scale // mass.denominator) for _, mass in out) != scale:
            problems.append("cylinder measures do not sum to 1")
        adj = np.array([[int(k in s) for k in range(m.num_cells)] for s in m.image_sets], dtype=object)
        count = np.ones(m.num_cells, dtype=object)
        for _ in range(p["rank"] - 1):
            count = adj.dot(count)
        if len(words) != int(count.sum()) or words != sorted(words):
            problems.append("cylinder words are not the admissible words in order")
        for i in range(0, len(out), max(1, len(out) // 7)):
            if out[i][1] != interval_maps.cylinder_measure(m, out[i][0]):
                problems.append(f"measure of {out[i][0]} differs from its interval length")
    elif f == "skew_graph_classes":
        graph, classes = out
        seen = [v for c in classes for v in c.nodes]
        if len(seen) != len(graph.nodes) or set(seen) != set(graph.nodes):
            problems.append("communication classes do not partition the nodes")
        m = models.markov_map
        per_site = sum(len(s) for s in m.image_sets)
        if len(graph.edges) + len(graph.external_edges) != per_site * (2 * p["window"] + 1):
            problems.append("skew graph has the wrong number of edges")
    elif f == "simulate_exact":
        problems += _site_path_ok(out, p["steps"])
        x = walks.uniform_rational_start(models.triple, p["steps"], p["point_seed"])
        symbols = interval_maps.symbols_of_orbit(models.triple, x, p["steps"])
        env = environments.realize(models.mix, p["env_seed"])
        site = 0
        for j in symbols:
            site += env.at(site).jumps[j]
        if site != out.final_site:
            problems.append(f"final site {out.final_site}, orbit replay {site}")
    elif f == "simulate_symbolic_markov":
        problems += _site_path_ok(out, p["steps"])
        for target, t in out.hit_times.items():
            if target not in p["targets"] or not 1 <= t <= p["steps"]:
                problems.append(f"hit time {t} for target {target}")
    elif f == "taboo_hit":
        if out.n_walks != p["walks"] or not 0 <= out.successes <= out.n_walks:
            problems.append("taboo counts out of range")
        if out.fraction != out.successes / out.n_walks:
            problems.append("taboo fraction differs from its counts")
    elif f == "run_ensemble_exact":
        if len(out.per_env) != p["envs"]:
            problems.append("wrong number of environments")
        for summary in out.per_env:
            r = summary.result
            if len(r.final_sites) != p["walks"]:
                problems.append("wrong number of walks")
            if (np.any(r.min_sites > r.final_sites) or np.any(r.final_sites > r.max_sites)
                    or np.any((r.final_sites - p["steps"]) % 2)):
                problems.append(f"env {summary.env_index}: inconsistent walk summaries")
    return problems


# -- dispatch --------------------------------------------------------------


def fingerprint(req: Request, out) -> dict:
    if req.workload == ORACLE_MIX:
        return oracle_fingerprint(req, out)
    return scan_fingerprint(out)


def problems(req: Request, out, models, reference: dict | None) -> list[str]:
    """Every check for one request; `reference` is its recorded entry or None."""
    if req.workload == ORACLE_MIX:
        found = oracle_problems(req, out, models)
    else:
        found = scan_problems(req, out)
    if reference is not None:
        got = fingerprint(req, out)
        compare = compare_oracle if req.workload == ORACLE_MIX else compare_scan
        found += compare(reference, got)
    return found
