"""Deterministic report rendering: CSV, JSON, and markdown summaries.

Same results and seeds must produce byte-identical files: keys are
sorted, floats use shortest round-trip repr, and no timestamps or
machine identifiers enter the output.  Every format is rendered from
the JSON-native payload (RENDERERS), so a stored .json result renders
again to the bytes written beside it.
"""

from __future__ import annotations

import io
import os

from .config import canonical_json, make_dirs, scenario_to_dict, write_text
from .experiments import ClassifyResult, ScanResult
from .walks import EnsembleReport

ENSEMBLE_COLUMNS = (
    "env_index",
    "walk_index",
    "final_site",
    "min_site",
    "max_site",
    "first_return_time",
)

VERDICT_COLUMNS = (
    "env_index",
    "env_seed",
    "label",
    "return_fraction",
    "right_fraction",
    "left_fraction",
    "late_return_fraction",
    "dp_return_prob",
    "dp_right_prob",
    "dp_left_prob",
    "dp_late_return_prob",
    "dp_label",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def ensemble_csv(report: EnsembleReport) -> str:
    """One row per walk; empty first_return_time means no return."""
    out = io.StringIO()
    out.write(",".join(ENSEMBLE_COLUMNS) + "\n")
    for summary in report.per_env:
        res = summary.result
        for w in range(len(res.final_sites)):
            frt = int(res.first_return_times[w])
            out.write(
                f"{summary.env_index},{w},{int(res.final_sites[w])},"
                f"{int(res.min_sites[w])},{int(res.max_sites[w])},"
                f"{frt if frt >= 0 else ''}\n"
            )
    return out.getvalue()


def classify_payload(result: ClassifyResult) -> dict:
    """JSON-native verdict payload; parse(render(x)) round-trips."""
    return {
        "scenario": scenario_to_dict(result.config),
        "aggregate": result.aggregate,
        "dp_checked": result.dp_checked,
        "consistency_ok": result.consistency_ok,
        "mismatches": list(result.mismatches),
        "extras": result.extras,
        "verdicts": [
            {
                "env_index": v.env_index,
                "env_seed": v.env_seed,
                "label": v.label,
                "evidence": v.evidence,
            }
            for v in result.verdicts
        ],
    }


def _payload(result: ClassifyResult, scan: ScanResult | None = None) -> dict:
    payload = classify_payload(result)
    if scan is not None:
        payload["scan"] = {
            "homogeneous": scan.homogeneous,
            "majority_label": scan.majority_label,
            "dissenters": scan.dissenters,
        }
    return payload


def scan_payload(scan: ScanResult) -> dict:
    return _payload(scan.classify_result, scan)


def _render_csv(payload: dict) -> str:
    """The verdict CSV of a payload: one row per environment."""
    out = io.StringIO()
    out.write(",".join(VERDICT_COLUMNS) + "\n")
    for v in payload["verdicts"]:
        ev = v["evidence"]
        row = [v["env_index"], v["env_seed"], v["label"]]
        row += [ev.get(column) for column in VERDICT_COLUMNS[3:]]
        out.write(",".join(_fmt(x) for x in row) + "\n")
    return out.getvalue()


def _render_markdown(payload: dict) -> str:
    """The markdown summary of a payload, with a "Zero-one scan" section
    when it carries payload["scan"]."""
    scenario = payload["scenario"]
    experiment = scenario["experiment"]
    budgets, thresholds = experiment["budgets"], experiment["thresholds"]
    lines = [
        f"# Scenario: {scenario['name']}",
        "",
        f"- kind: {experiment['kind']}",
        f"- environments: {budgets['n_envs']}, walks per environment: {budgets['n_walks']}, "
        f"horizon: {budgets['horizon']}",
        f"- divergence margin: {thresholds['divergence_margin']}, "
        f"return goal: {thresholds['return_goal']}",
        f"- master seed: {scenario['seeds']['master']}",
        "",
        "## Aggregate labels",
        "",
    ]
    for label, frac in sorted(payload["aggregate"].items()):
        lines.append(f"- {label}: {_fmt(frac)}")
    lines.append("")

    extras = payload["extras"]
    if "certificate" in extras:
        cert = extras["certificate"]
        direction = cert["direction"]
        direction_text = (
            "none" if direction is None else f"{'+' if direction > 0 else '-'}1"
        )
        lines += [
            "## Transience certificate",
            "",
            f"- certificate: {'holds' if cert['holds'] else 'fails'}, "
            f"direction {direction_text}",
            f"- inf_h: {_fmt(cert['inf_h'])}, threshold: {_fmt(cert['threshold'])}, "
            f"exact margin: {cert['exact_margin']}",
            "",
        ]
    if "solomon" in extras and extras["solomon"] is not None:
        sol = extras["solomon"]
        lines += [
            "## Solomon comparator",
            "",
            f"- expectation: {_fmt(sol['expectation'])} -> verdict: {sol['verdict']}",
            "",
        ]
    if "symmetry" in extras:
        sym = extras["symmetry"]
        lines += [
            "## Symmetry",
            "",
            f"- symmetric support: {sym['is_symmetric']}, "
            f"jump bound: {sym['jump_bound']}",
            "",
        ]
    if "hit_before" in extras:
        hb = extras["hit_before"]
        lines += [
            "## Exact split check",
            "",
            f"- P(hit {hb['targets'][1]} before {hb['targets'][0]}) = "
            f"{hb['probability']} = {_fmt(hb['probability_decimal'])}",
            "",
        ]
    if payload["dp_checked"]:
        lines += [
            "## DP cross-checks",
            "",
            "| env | label | MC return | DP return | MC right | DP right |",
            "|----:|-------|----------:|----------:|---------:|---------:|",
        ]
        for v in payload["verdicts"]:
            ev = v["evidence"]
            lines.append(
                f"| {v['env_index']} | {v['label']} | {_fmt(ev.get('return_fraction'))} "
                f"| {_fmt(ev.get('dp_return_prob'))} | {_fmt(ev.get('right_fraction'))} "
                f"| {_fmt(ev.get('dp_right_prob'))} |"
            )
        lines.append("")
    scan = payload.get("scan")
    if scan is not None:
        lines += [
            "## Zero-one scan",
            "",
            f"- homogeneous: {scan['homogeneous']}",
            f"- majority label: {scan['majority_label']}",
            f"- dissenters: {len(scan['dissenters'])}",
            "",
        ]
        for d in scan["dissenters"]:
            lines.append(
                f"  - env {d['env_index']} (seed {d['env_seed']}): {d['label']}"
            )
        if scan["dissenters"]:
            lines.append("")
    return "\n".join(lines)


# the one renderer per format, for fresh results and stored payloads alike
RENDERERS = {"csv": _render_csv, "json": canonical_json, "markdown": _render_markdown}
_SUFFIXES = {"csv": ".verdicts.csv", "json": ".json", "markdown": ".md"}


def verdicts_csv(result: ClassifyResult) -> str:
    return _render_csv(classify_payload(result))


def markdown_summary(result: ClassifyResult, scan: ScanResult | None = None) -> str:
    return _render_markdown(_payload(result, scan))


def write_report(
    result: ClassifyResult, out_dir: str, scan: ScanResult | None = None
) -> dict[str, str]:
    """Render every RENDERERS format into out_dir; returns paths by format."""
    make_dirs(out_dir)
    payload = _payload(result, scan)
    paths = {}
    for fmt, render in RENDERERS.items():
        paths[fmt] = os.path.join(out_dir, result.config.name + _SUFFIXES[fmt])
        write_text(paths[fmt], render(payload))
    return paths


def write_ensemble_csv(report: EnsembleReport, path: str) -> None:
    write_text(path, ensemble_csv(report))
