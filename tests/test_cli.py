"""CLI surface: subcommands, exit codes, file outputs."""

import json

import pytest

from dwde.cli import main
from dwde.config import canonical_json, load_map_env, scenario_to_dict
from dwde.environments import realize
from dwde.exact import build_site_chain, hit_before, return_prob_by_time
from dwde.presets import get_preset
from dwde.walks import WalkState, env_seed_for, simulate, uniform_rational_start


@pytest.fixture
def spec_files(tmp_path):
    map_path = tmp_path / "map.json"
    map_path.write_text(
        json.dumps(
            {
                "breakpoints": ["0", "1/3", "2/3", "1"],
                "branches": [
                    {"slope": "3", "intercept": "0"},
                    {"slope": "3", "intercept": "-1"},
                    {"slope": "3", "intercept": "-2"},
                ],
            }
        )
    )
    env_path = tmp_path / "env.json"
    env_path.write_text(
        json.dumps({"kind": "fixed", "support": [[1, 1, -1]], "seed": 4})
    )
    return str(map_path), str(env_path)


class TestBasics:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self):
        assert main(["simulate", "--frobnicate"]) == 2

    def test_validate_ok(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(canonical_json(scenario_to_dict(get_preset("split-demo"))))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_unknown_key(self, tmp_path, capsys):
        doc = scenario_to_dict(get_preset("split-demo"))
        doc["surprise"] = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(canonical_json(doc))
        assert main(["validate", "--config", str(cfg)]) == 2

    def test_missing_file_is_config_error(self):
        assert main(["validate", "--config", "/nonexistent.json"]) == 2


class TestSimulateEnsemble:
    def test_simulate_json(self, spec_files, capsys):
        map_path, env_path = spec_files
        code = main(
            ["simulate", "--map", map_path, "--env", env_path, "--steps", "50",
             "--seed", "9"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steps"] == 50
        assert abs(payload["final_site"]) <= 50

    def test_simulate_exact_mode(self, spec_files, capsys):
        map_path, env_path = spec_files
        code = main(
            ["simulate", "--map", map_path, "--env", env_path, "--steps", "30",
             "--mode", "exact", "--seed", "2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["final_site"]) <= 30

    def test_ensemble_csv(self, spec_files, tmp_path):
        map_path, env_path = spec_files
        out = tmp_path / "runs.csv"
        code = main(
            ["ensemble", "--map", map_path, "--env", env_path, "--walks", "5",
             "--envs", "2", "--steps", "20", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "env_index,walk_index,final_site,min_site,max_site,first_return_time"
        assert len(lines) == 1 + 2 * 5

    @pytest.mark.parametrize(
        "command, flag",
        [("ensemble", "--walks"), ("ensemble", "--envs"), ("ensemble", "--steps"),
         ("simulate", "--steps")],
    )
    def test_empty_count_is_usage_error(self, spec_files, capsys, command, flag):
        map_path, env_path = spec_files
        assert main([command, "--map", map_path, "--env", env_path, flag, "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"{flag}: must be a positive integer" in err

    def test_ensemble_deterministic_bytes(self, spec_files, tmp_path):
        map_path, env_path = spec_files
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            main(
                ["ensemble", "--map", map_path, "--env", env_path, "--walks", "20",
                 "--envs", "1", "--steps", "50", "--seed", "7", "--out", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_ensemble_exact_mode_matches_simulate(self, spec_files, tmp_path):
        map_path, _ = spec_files
        env_path = tmp_path / "iid.json"
        env_path.write_text(
            json.dumps({"kind": "iid", "support": [[1, 1, -1], [1, -1, -1]]})
        )
        out = tmp_path / "exact.csv"
        code = main(
            ["ensemble", "--map", map_path, "--env", str(env_path), "--walks", "4",
             "--envs", "2", "--steps", "30", "--mode", "exact", "--seed", "5",
             "--out", str(out)]
        )
        assert code == 0
        m, model, _ = load_map_env(map_path, str(env_path))
        rows = ["env_index,walk_index,final_site,min_site,max_site,first_return_time"]
        for e in range(2):
            env = realize(model, env_seed_for(5, e))
            for w in range(4):
                x = uniform_rational_start(m, 30, 5, e, w)
                traj = simulate(m, env, WalkState(x, 0), 30, mode="exact")
                frt = traj.first_return_time
                rows.append(
                    f"{e},{w},{traj.final_site},{traj.min_site},{traj.max_site},"
                    f"{'' if frt is None else frt}"
                )
        assert out.read_text() == "\n".join(rows) + "\n"


_DOUBLING = {
    "breakpoints": ["0", "1/2", "1"],
    "branches": [{"slope": "2", "intercept": "0"}, {"slope": "2", "intercept": "-1"}],
}


class TestMalformedSpecFiles:
    """Bad map or environment files are configuration errors: exit 2,
    one line naming the file, no traceback."""

    @pytest.mark.parametrize(
        "map_spec, env_spec, bad",
        [
            ({**_DOUBLING, "breakpoints": ["0", "x", "1"]}, {"support": [[1, -1]]}, "map"),
            (  # slope 1: not expanding
                {**_DOUBLING, "branches": [{"slope": "1", "intercept": "0"}] * 2},
                {"support": [[1, -1]]},
                "map",
            ),
            (_DOUBLING, {"support": [["a", 1]]}, "env"),
            (_DOUBLING, {"support": 5}, "env"),
            # one jump per cell of the two-cell map, no more, no fewer
            (_DOUBLING, {"support": [[1, -1, 1]]}, "env"),
            (_DOUBLING, {"support": [[1]]}, "env"),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [["simulate", "--steps", "5"], ["ensemble", "--steps", "5", "--walks", "2"],
         ["structure", "linkage"]],
    )
    def test_exit_2_naming_the_file(self, tmp_path, capsys, map_spec, env_spec, bad, command):
        paths = {"map": tmp_path / "map.json", "env": tmp_path / "env.json"}
        paths["map"].write_text(json.dumps(map_spec))
        paths["env"].write_text(json.dumps({"kind": "fixed", **env_spec}))
        assert main(command + ["--map", str(paths["map"]), "--env", str(paths["env"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(paths[bad]) in err
        assert err.count("\n") == 1


class TestExact:
    def test_return(self, spec_files, capsys):
        map_path, env_path = spec_files
        code = main(
            ["exact", "return", "--map", map_path, "--env", env_path,
             "--steps", "4"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # p = 2/3 chain: return by 4 = 2pq + 2p^2q^2 = 36/81 + 8/81
        assert payload["return_probability"]["value"] == "44/81"

    def test_hit(self, spec_files, capsys):
        map_path, env_path = spec_files
        code = main(
            ["exact", "hit", "--map", map_path, "--env", env_path,
             "--down", "-10", "--up", "10"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hit_up_before_down"]["decimal"] > 0.99

    def test_paths(self, capsys):
        assert main(["exact", "paths", "--n-max", "3", "--k-max", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"][0][1] == 1
        assert payload["counts"][2][3] == 1

    def test_certificate(self, spec_files, capsys):
        map_path, _ = spec_files
        assert main(["exact", "certificate", "--map", map_path, "--r", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True and payload["direction"] == 1

    def test_series(self, spec_files, capsys):
        map_path, env_path = spec_files
        code = main(
            ["exact", "series", "--map", map_path, "--env", env_path,
             "--cell", "0", "--theta", "1/2", "--lags", "12"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["geometric_bound"]["value"] == "8/9"
        assert len(payload["partial_sums"]) == 13

    def test_solomon(self, capsys):
        code = main(["exact", "solomon", "--alpha", "2/3:1/2", "--alpha", "1/3:1/2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "recurrent"

    def test_solomon_bad_pair(self, capsys):
        assert main(["exact", "solomon", "--alpha", "nonsense"]) == 2

    @pytest.mark.parametrize(
        "query, message",
        [
            pytest.param(
                ["paths", "--n-max", "-1", "--k-max", "3"],
                "--n-max: must be a non-negative integer",
                id="paths-negative-n-max",
            ),
            pytest.param(
                ["paths", "--n-max", "3", "--k-max", "0"],
                "--k-max: must be a positive integer",
                id="paths-zero-k-max",
            ),
            pytest.param(
                ["return", "--steps", "0"],
                "--steps: must be a positive integer",
                id="return-zero-steps",
            ),
            pytest.param(
                ["return", "--steps", "-3"],
                "--steps: must be a positive integer",
                id="return-negative-steps",
            ),
            pytest.param(
                ["hit", "--start", "5", "--down", "-2", "--up", "3"],
                "need --down < --start < --up",
                id="hit-start-outside-targets",
            ),
            pytest.param(
                ["series", "--cell", "9"],
                "--cell must be within 0..2",
                id="series-cell-9",
            ),
            pytest.param(
                ["series", "--cell", "-1"],
                "--cell must be within 0..2",
                id="series-negative-cell",
            ),
            pytest.param(
                ["series", "--theta", "2"],
                "--theta: must lie strictly inside (0, 1)",
                id="series-theta-2",
            ),
            pytest.param(
                ["series", "--theta", "0"],
                "--theta: must lie strictly inside (0, 1)",
                id="series-theta-0",
            ),
            pytest.param(
                ["series", "--lags", "-1"],
                "--lags: must be a non-negative integer",
                id="series-negative-lags",
            ),
            pytest.param(
                ["certificate", "--r", "5"],
                "--r must be within 1..2",
                id="certificate-r-5",
            ),
            pytest.param(
                ["certificate", "--r", "0"],
                "--r must be within 1..2",
                id="certificate-r-0",
            ),
        ],
    )
    def test_argument_errors_are_usage_errors(self, spec_files, capsys, query, message):
        map_path, env_path = spec_files
        files = {"paths": [], "certificate": ["--map", map_path]}.get(
            query[0], ["--map", map_path, "--env", env_path]
        )
        assert main(["exact", *query, *files]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: dwde exact {query[0]}")
        assert f"dwde exact {query[0]}: error: " in captured.err
        assert message in captured.err and "Traceback" not in captured.err

    def test_series_zero_lags(self, spec_files, capsys):
        map_path, env_path = spec_files
        code = main(
            ["exact", "series", "--map", map_path, "--env", env_path, "--lags", "0"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["partial_sums"]) == 1


# cell 0 (slope 2) maps onto cells 0 and 1 only: not full branch
MARKOV_MAP = {
    "breakpoints": ["0", "1/3", "2/3", "1"],
    "branches": [
        {"slope": "2", "intercept": "0"},
        {"slope": "3", "intercept": "-1"},
        {"slope": "3", "intercept": "-2"},
    ],
}


def _oracle_bytes(map_path, env_path, joint, query):
    """What `dwde exact hit|return` must print: the oracle's value on
    the chain of the given kind, as the CLI renders it."""
    m, model, seed = load_map_env(map_path, env_path)
    env = realize(model, seed)
    if query[0] == "hit":
        _, down, up = query
        chain = build_site_chain(m, env, max(-down, up) + 1, joint=joint)
        value = hit_before(chain, 0, down, up)
        key, extra = "hit_up_before_down", {"targets": [down, up]}
    else:
        _, steps = query
        chain = build_site_chain(m, env, steps, joint=joint)
        value = return_prob_by_time(chain, 0, steps)
        key, extra = "return_probability", {"steps": steps}
    return canonical_json({key: {"value": str(value), "decimal": float(value)}, **extra})


def _run_exact(map_path, env_path, query):
    kind, *values = query
    flags = ("--down", "--up") if kind == "hit" else ("--steps",)
    args = [x for flag, v in zip(flags, values) for x in (flag, str(v))]
    return main(["exact", kind, "--map", map_path, "--env", env_path] + args)


class TestExactChainKind:
    """`exact hit` and `exact return` use the site chain on full-branch
    maps and the joint (symbol, site) chain on every other Markov map."""

    @pytest.fixture
    def markov_files(self, tmp_path):
        map_path = tmp_path / "markov.json"
        map_path.write_text(json.dumps(MARKOV_MAP))
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps({"kind": "fixed", "support": [[1, -1, 1]]}))
        return str(map_path), str(env_path)

    @pytest.mark.parametrize("query", [("hit", -6, 9), ("return", 8)])
    def test_markov_map_uses_joint_chain(self, markov_files, capsys, query):
        assert _run_exact(*markov_files, query) == 0
        assert capsys.readouterr().out == _oracle_bytes(*markov_files, True, query)

    @pytest.mark.parametrize("query", [("hit", -10, 10), ("return", 4)])
    def test_full_branch_output_is_the_site_chain(self, spec_files, capsys, query):
        assert _run_exact(*spec_files, query) == 0
        assert capsys.readouterr().out == _oracle_bytes(*spec_files, False, query)


class TestStructure:
    def test_graph(self, spec_files, capsys):
        map_path, env_path = spec_files
        code = main(
            ["structure", "graph", "--map", map_path, "--env", env_path,
             "--window", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0,0 -> 0,1" in out

    def test_classes(self, spec_files, capsys):
        map_path, env_path = spec_files
        code = main(
            ["structure", "classes", "--map", map_path, "--env", env_path,
             "--window", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["window"] == 3
        assert payload["classes"]

    @pytest.mark.parametrize("command", ["graph", "classes"])
    @pytest.mark.parametrize("window", ["0", "-2"])
    def test_window_must_be_positive(self, spec_files, capsys, command, window):
        map_path, env_path = spec_files
        code = main(
            ["structure", command, "--map", map_path, "--env", env_path,
             "--window", window]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: dwde structure {command}")
        assert "--window: must be a positive integer" in err and "Traceback" not in err

    def test_linkage(self, spec_files, capsys):
        map_path, env_path = spec_files
        code = main(
            ["structure", "linkage", "--map", map_path, "--env", env_path]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True


class TestExperimentCommands:
    def test_classify_preset_to_dir(self, tmp_path):
        out = tmp_path / "rep"
        code = main(
            ["classify", "--preset", "right-drift", "--out", str(out)]
        )
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "right-drift.json",
            "right-drift.md",
            "right-drift.verdicts.csv",
        ]
        payload = json.loads((out / "right-drift.json").read_text())
        assert payload["verdicts"][0]["label"] == "transient+"

    def test_scan_preset_stdout(self, capsys):
        code = main(["scan", "--preset", "symmetric-small"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scan"]["homogeneous"] is True

    def test_unknown_preset(self):
        assert main(["classify", "--preset", "not-a-preset"]) == 2

    def test_seed_override_changes_payload(self, capsys):
        main(["classify", "--preset", "symmetric-small"])
        base = capsys.readouterr().out
        main(["classify", "--preset", "symmetric-small", "--seed", "99"])
        other = capsys.readouterr().out
        assert base != other
        assert json.loads(other)["scenario"]["seeds"]["master"] == 99

    def test_report_round_trip(self, tmp_path, capsys):
        out = tmp_path / "rep"
        main(["classify", "--preset", "right-drift", "--out", str(out)])
        results = out / "right-drift.json"
        code = main(
            ["report", "--results", str(results), "--format", "json"]
        )
        assert code == 0
        rendered = capsys.readouterr().out
        assert json.loads(rendered) == json.loads(results.read_text())

    @pytest.mark.parametrize(
        "command, preset", [("classify", "right-drift"), ("scan", "symmetric-small")]
    )
    def test_report_rerenders_the_written_bytes(self, tmp_path, capsys, command, preset):
        out = tmp_path / "rep"
        assert main([command, "--preset", preset, "--out", str(out)]) == 0
        results = str(out / f"{preset}.json")
        for fmt, suffix in (("markdown", ".md"), ("csv", ".verdicts.csv")):
            capsys.readouterr()
            assert main(["report", "--results", results, "--format", fmt]) == 0
            written = (out / f"{preset}{suffix}").read_bytes()
            assert capsys.readouterr().out.encode() == written
            copy = tmp_path / f"copy{suffix}"
            assert main(
                ["report", "--results", results, "--format", fmt, "--out", str(copy)]
            ) == 0
            assert copy.read_bytes() == written
        markdown = (out / f"{preset}.md").read_text()
        assert ("## Zero-one scan" in markdown) == (command == "scan")

    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    @pytest.mark.parametrize("text", ['{"verdicts": 3}', "[1, 2]", "{not json"])
    def test_malformed_results_are_a_config_error(self, tmp_path, capsys, fmt, text):
        results = tmp_path / "bad.json"
        results.write_text(text)
        assert main(["report", "--results", str(results), "--format", fmt]) == 2
        assert capsys.readouterr().err.startswith("config error: results")

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_results_with_malformed_entries_are_a_config_error(self, tmp_path, fmt):
        results = tmp_path / "bad.json"
        results.write_text(
            json.dumps({"scenario": {}, "aggregate": {}, "verdicts": [{"label": "x"}]})
        )
        assert main(["report", "--results", str(results), "--format", fmt]) == 2

    def test_consistency_failure_exit_code(self, tmp_path):
        # return goal pinned between the MC estimate and the DP value
        doc = scenario_to_dict(get_preset("symmetric-small"))
        doc["experiment"]["thresholds"]["return_goal"] = "984/1000"
        cfg = tmp_path / "gap.json"
        cfg.write_text(canonical_json(doc))
        assert main(["classify", "--config", str(cfg)]) == 3
        assert main(["scan", "--config", str(cfg)]) == 3

    def test_presets_list_and_export(self, tmp_path, capsys):
        assert main(["presets"]) == 0
        listing = capsys.readouterr().out
        assert "triple-r2" in listing
        exp = tmp_path / "presets"
        assert main(["presets", "--export", str(exp)]) == 0
        names = sorted(p.name for p in exp.iterdir())
        assert "triple-r2.json" in names
        assert main(["presets", "--show", "split-demo"]) == 0

    def test_unknown_preset_is_named_once(self, capsys):
        assert main(["presets", "--show", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown preset 'nope'; available: ")
        assert err.count("nope") == 1


class TestUnwritableOutputs:
    def test_out_in_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code = main(["exact", "paths", "--n-max", "2", "--k-max", "2", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot write")

    def test_export_onto_an_existing_file(self, tmp_path, capsys):
        target = tmp_path / "a-file"
        target.write_text("")
        assert main(["presets", "--export", str(target)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write")
