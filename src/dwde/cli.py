"""Command-line interface.

Exit codes: 0 success, 1 internal failure or an output file that
cannot be written, 2 usage or configuration error (an out-of-range
argument, an unreadable or malformed input or results file included,
a --map or --env file among them),
3 verdict-consistency failure (Monte Carlo label contradicting the DP
label, or a dissenting environment in a zero-one scan).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import __version__
from .config import (
    canonical_json,
    load_map,
    load_map_env,
    load_scenario,
    make_dirs,
    read_json,
    save_scenario,
    scenario_to_dict,
    write_text,
)
from .environments import realize
from .errors import ConfigError, ConsistencyError, DwdeError
from .exact import (
    build_site_chain,
    hit_before,
    path_counts,
    return_prob_by_time,
    series_diagnostic,
    solomon_classifier,
    transience_certificate,
)
from .experiments import classify, zero_one_scan
from .interval_maps import as_fraction
from .presets import PRESETS, get_preset
from .reports import (
    RENDERERS,
    classify_payload,
    ensemble_csv,
    scan_payload,
    write_ensemble_csv,
    write_report,
)
from .structure import build_skew_graph, check_linkage, communication_classes, edge_list_text
from .walks import WalkState, run_ensemble, simulate, uniform_rational_start


def _rational_out(value: Fraction) -> dict:
    return {"value": str(value), "decimal": float(value)}


def _output(text: str, out: str | None) -> None:
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _emit(payload, out: str | None) -> None:
    _output(canonical_json(payload), out)


def _load_map_env(args):
    m, model, block_seed = load_map_env(args.map, args.env)
    seed = args.env_seed if args.env_seed is not None else block_seed
    return m, realize(model, seed)


def _scenario_from_args(args):
    if getattr(args, "preset", None):
        config = get_preset(args.preset)
    elif getattr(args, "config", None):
        config = load_scenario(args.config)
    else:
        raise ConfigError("need --preset NAME or --config FILE")
    if getattr(args, "seed", None) is not None:
        config = config.with_seed(args.seed)
    return config


class UsageError(Exception):
    """A check across arguments failed; reported like argparse's own
    usage errors (exit code 2), against the usage of the subparser that
    a subcommand raising it sets as its `parser` default."""


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type for a count that may be 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _open_unit_fraction(text: str) -> Fraction:
    """argparse type for an exact rational strictly inside (0, 1)."""
    value = as_fraction(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly inside (0, 1), got {text}")
    return value


def _add_map_env_flags(p, env_seed=True):
    p.add_argument("--map", required=True, help="map spec JSON file")
    p.add_argument("--env", required=True, help="environment spec JSON file")
    if env_seed:
        p.add_argument(
            "--env-seed", type=int, default=None, help="override the environment file's seed"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwde",
        description="Deterministic walks in deterministic environments on Z",
    )
    parser.add_argument("--version", action="version", version=f"dwde {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario config")
    p.add_argument("--config", required=True)

    p = sub.add_parser("simulate", help="run one walk and print its summary")
    _add_map_env_flags(p)
    p.add_argument("--steps", type=_positive_int, default=1000)
    p.add_argument("--mode", choices=("symbolic", "exact"), default="symbolic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-site", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("ensemble", help="seeded multi-environment ensemble CSV")
    _add_map_env_flags(p, env_seed=False)
    p.add_argument("--walks", type=_positive_int, default=1000)
    p.add_argument("--envs", type=_positive_int, default=1)
    p.add_argument("--steps", type=_positive_int, default=1000)
    p.add_argument("--mode", choices=("symbolic", "exact"), default="symbolic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")

    p = sub.add_parser("exact", help="exact oracles")
    ex = p.add_subparsers(dest="exact_command", required=True)

    q = ex.add_parser("return", help="exact return probability by a horizon")
    _add_map_env_flags(q)
    q.add_argument("--steps", type=_positive_int, required=True)
    q.add_argument("--start", type=int, default=0)
    q.add_argument("--out", default=None)

    q = ex.add_parser("hit", help="exact two-sided hitting probability")
    _add_map_env_flags(q)
    q.add_argument("--start", type=int, default=0)
    q.add_argument("--down", type=int, required=True)
    q.add_argument("--up", type=int, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(parser=q)

    q = ex.add_parser("paths", help="first-passage path-count table")
    q.add_argument("--n-max", type=_nonnegative_int, required=True)
    q.add_argument("--k-max", type=_positive_int, required=True)
    q.add_argument("--out", default=None)

    q = ex.add_parser("certificate", help="expansion-rate transience certificate")
    q.add_argument("--map", required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(parser=q)

    q = ex.add_parser("series", help="weighted return-series diagnostic")
    _add_map_env_flags(q)
    q.add_argument("--cell", type=int, default=0)
    q.add_argument("--theta", type=_open_unit_fraction, default="1/2")
    q.add_argument("--lags", type=_nonnegative_int, default=100)
    q.add_argument("--out", default=None)
    q.set_defaults(parser=q)

    q = ex.add_parser("solomon", help="sign of the mean log-odds")
    q.add_argument(
        "--alpha",
        action="append",
        required=True,
        metavar="A:W",
        help="alpha:weight pair, e.g. 2/3:1/2 (repeatable)",
    )
    q.add_argument("--out", default=None)

    p = sub.add_parser("structure", help="finite-window skew-product structure")
    st = p.add_subparsers(dest="structure_command", required=True)
    for name in ("graph", "classes"):
        q = st.add_parser(name)
        _add_map_env_flags(q)
        q.add_argument("--window", type=_positive_int, default=10)
        q.add_argument("--out", default=None)
    q = st.add_parser("linkage")
    q.add_argument("--map", required=True)
    q.add_argument("--env", required=True)
    q.add_argument("--out", default=None)

    p = sub.add_parser("classify", help="run the Monte Carlo classifier")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--out", default=None, help="report directory")

    p = sub.add_parser("scan", help="zero-one homogeneity scan")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("report", help="re-render a stored JSON result")
    p.add_argument("--results", required=True, help="JSON produced by classify/scan")
    p.add_argument(
        "--format", choices=("csv", "json", "markdown"), default="markdown"
    )
    p.add_argument("--out", default=None)

    p = sub.add_parser("presets", help="list or export shipped presets")
    p.add_argument("--show", default=None, metavar="NAME")
    p.add_argument("--export", default=None, metavar="DIR")

    return parser


def _cmd_validate(args) -> int:
    config = load_scenario(args.config)
    sys.stdout.write(f"ok: scenario '{config.name}' is valid\n")
    return 0


def _cmd_simulate(args) -> int:
    m, env = _load_map_env(args)
    if args.mode == "exact":
        x = uniform_rational_start(m, args.steps, args.seed)
        start = WalkState(x, args.start_site)
    else:
        start = WalkState(None, args.start_site)
    traj = simulate(
        m, env, start, args.steps, mode=args.mode, walk_seed=args.seed
    )
    payload = {
        "start_site": traj.start_site,
        "steps": traj.n_steps,
        "mode": traj.mode,
        "final_site": traj.final_site,
        "min_site": traj.min_site,
        "max_site": traj.max_site,
        "first_return_time": traj.first_return_time,
    }
    _emit(payload, args.out)
    return 0


def _cmd_ensemble(args) -> int:
    m, model, _ = load_map_env(args.map, args.env)
    report = run_ensemble(
        m,
        model,
        n_envs=args.envs,
        n_walks=args.walks,
        n_steps=args.steps,
        mode=args.mode,
        master_seed=args.seed,
    )
    if args.out:
        write_ensemble_csv(report, args.out)
    else:
        sys.stdout.write(ensemble_csv(report))
    return 0


def _cmd_exact(args) -> int:
    if args.exact_command == "return":
        m, env = _load_map_env(args)
        bound = env.model.jump_bound
        window = abs(args.start) + ((args.steps + 1) // 2 + 1) * bound
        chain = build_site_chain(m, env, window, joint=not m.full_branch)
        value = return_prob_by_time(chain, args.start, args.steps)
        _emit(
            {"return_probability": _rational_out(value), "steps": args.steps},
            args.out,
        )
        return 0
    if args.exact_command == "hit":
        if not args.down < args.start < args.up:
            raise UsageError("need --down < --start < --up")
        m, env = _load_map_env(args)
        window = max(abs(args.down), abs(args.up)) + 1
        chain = build_site_chain(m, env, window, joint=not m.full_branch)
        value = hit_before(chain, args.start, args.down, args.up)
        _emit(
            {
                "hit_up_before_down": _rational_out(value),
                "targets": [args.down, args.up],
            },
            args.out,
        )
        return 0
    if args.exact_command == "paths":
        table = path_counts(args.n_max, args.k_max)
        _emit({"counts": table, "n_max": args.n_max, "k_max": args.k_max}, args.out)
        return 0
    if args.exact_command == "certificate":
        m = load_map(args.map)
        if not 1 <= args.r <= m.num_cells - 1:
            raise UsageError(f"--r must be within 1..{m.num_cells - 1} for this map")
        cert = transience_certificate(m, args.r)
        _emit(
            {
                "holds": cert.holds,
                "inf_h": cert.inf_h,
                "threshold": cert.threshold,
                "direction": cert.direction,
                "exact_margin": str(cert.exact_margin),
            },
            args.out,
        )
        return 0
    if args.exact_command == "series":
        m, env = _load_map_env(args)
        if not 0 <= args.cell < m.num_cells:
            raise UsageError(f"--cell must be within 0..{m.num_cells - 1} for this map")
        diag = series_diagnostic(m, env, args.cell, args.theta, args.lags)
        ratios = [
            {"lag": lag, "ratio": str(r), "decimal": float(r)}
            for lag, r in diag.increment_ratios()
        ]
        _emit(
            {
                "theta": str(diag.theta),
                "partial_sums": [str(s) for s in diag.partial_sums],
                "partial_sums_decimal": [float(s) for s in diag.partial_sums],
                "increment_ratios": ratios,
                "geometric_bound": (
                    None
                    if diag.geometric_bound is None
                    else _rational_out(diag.geometric_bound)
                ),
            },
            args.out,
        )
        return 0
    if args.exact_command == "solomon":
        pairs = []
        for item in args.alpha:
            try:
                alpha, weight = item.split(":")
            except ValueError:
                raise ConfigError(f"--alpha expects A:W, got {item!r}") from None
            pairs.append((as_fraction(alpha), as_fraction(weight)))
        verdict = solomon_classifier(pairs)
        _emit(
            {"expectation": verdict.expectation, "verdict": verdict.verdict},
            args.out,
        )
        return 0
    raise ConfigError(f"unknown exact subcommand {args.exact_command!r}")


def _cmd_structure(args) -> int:
    if args.structure_command == "linkage":
        m, model, _ = load_map_env(args.map, args.env)
        res = check_linkage(m, model.support)
        _emit({"holds": res.holds, "witness": res.witness}, args.out)
        return 0
    m, env = _load_map_env(args)
    graph = build_skew_graph(m, env, args.window)
    if args.structure_command == "graph":
        _output(edge_list_text(graph), args.out)
        return 0
    classes = communication_classes(graph)
    _emit(
        {
            "window": graph.window,
            "classes": [
                {
                    "nodes": [list(n) for n in c.nodes],
                    "certified": c.certified,
                    "closed": c.closed,
                }
                for c in classes
            ],
        },
        args.out,
    )
    return 0


def _cmd_classify(args) -> int:
    config = _scenario_from_args(args)
    result = classify(config)
    if args.out:
        write_report(result, args.out)
    else:
        sys.stdout.write(canonical_json(classify_payload(result)))
    return 0


def _cmd_scan(args) -> int:
    config = _scenario_from_args(args)
    scan = zero_one_scan(config)
    if args.out:
        write_report(scan.classify_result, args.out, scan=scan)
    else:
        sys.stdout.write(canonical_json(scan_payload(scan)))
    if not scan.homogeneous:
        sys.stderr.write(
            f"zero-one scan found dissenting environments: {scan.dissenters}\n"
        )
        return 3
    return 0


_RESULT_KEYS = {"scenario", "aggregate", "verdicts"}


def _cmd_report(args) -> int:
    payload = read_json(args.results, "results")
    if not isinstance(payload, dict) or not _RESULT_KEYS <= payload.keys():
        raise ConfigError(
            f"results {args.results} lack one of {sorted(_RESULT_KEYS)}"
        )
    try:
        text = RENDERERS[args.format](payload)
    except (AttributeError, IndexError, KeyError, TypeError) as err:
        raise ConfigError(f"results {args.results} are malformed ({err!r})") from err
    _output(text, args.out)
    return 0


def _cmd_presets(args) -> int:
    if args.show:
        config = get_preset(args.show)
        sys.stdout.write(canonical_json(scenario_to_dict(config)))
        return 0
    if args.export:
        make_dirs(args.export)
        for name in sorted(PRESETS):
            save_scenario(get_preset(name), os.path.join(args.export, f"{name}.json"))
        sys.stdout.write(f"exported {len(PRESETS)} presets to {args.export}\n")
        return 0
    for name in sorted(PRESETS):
        config = PRESETS[name]()
        sys.stdout.write(
            f"{name}: kind={config.kind}, envs={config.n_envs}, "
            f"walks={config.n_walks}, horizon={config.horizon}\n"
        )
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "ensemble": _cmd_ensemble,
    "exact": _cmd_exact,
    "structure": _cmd_structure,
    "classify": _cmd_classify,
    "scan": _cmd_scan,
    "report": _cmd_report,
    "presets": _cmd_presets,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        # argparse uses 2 for usage errors, matching the config exit code
        return int(exit_err.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as err:
        args.parser.print_usage(sys.stderr)
        sys.stderr.write(f"{args.parser.prog}: error: {err}\n")
        return 2
    except ConsistencyError as err:
        sys.stderr.write(f"verdict consistency failure: {err}\n")
        return 3
    except ConfigError as err:
        sys.stderr.write(f"config error: {err}\n")
        return 2
    except DwdeError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
