"""Classifier rules, DP certification, scan homogeneity, reports."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import dwde
from dwde.config import ScenarioConfig, canonical_json
from dwde.environments import (
    EnvironmentRealization,
    fixed_model,
    fn,
    iid_model,
    periodic_model,
    realize,
)
from dwde.errors import BudgetExceededError
from dwde.exact import build_site_chain, final_distribution, return_prob_curve
from dwde.experiments import (
    INCONCLUSIVE,
    RECURRENT_LIKE,
    SPLIT,
    TRANSIENT_MINUS,
    TRANSIENT_PLUS,
    _label_from_stats,
    classify,
    zero_one_scan,
)
from dwde.interval_maps import doubling_map, triple_map
from dwde.presets import get_preset
from dwde.reports import (
    classify_payload,
    ensemble_csv,
    markdown_summary,
    scan_payload,
    verdicts_csv,
)
from dwde.walks import env_seed_for, run_ensemble

F = Fraction


def small_config(**overrides):
    base = dict(
        name="unit",
        map=triple_map(),
        environment=fixed_model(fn(1, 1, -1)),
        kind="classify",
        n_envs=2,
        n_walks=300,
        horizon=600,
        divergence_margin=F(1, 6),
        return_goal=F(9, 10),
        master_seed=13,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _scan_config():
    return small_config(
        kind="zero_one_scan",
        environment=iid_model([fn(1, 1, -1), fn(1, -1, 1)]),
    )


def per_env_dp(config, e):
    """The four DP evidence fields of environment e, solved on its own
    with the single-chain wrappers."""
    env = realize(config.environment, env_seed_for(config.master_seed, e))
    n = config.horizon
    chain = build_site_chain(config.map, env, n * config.environment.jump_bound + 1)
    curve = return_prob_curve(chain, 0, n)
    dist = final_distribution(chain, 0, n)
    sites = np.arange(-n * chain.max_jump, n * chain.max_jump + 1)
    margin = float(config.divergence_margin) * n
    return chain.max_jump, {
        "dp_return_prob": float(curve[n]),
        "dp_late_return_prob": float(curve[n] - curve[n // 2]),
        "dp_right_prob": float(dist[sites > margin].sum()),
        "dp_left_prob": float(dist[sites < -margin].sum()),
    }


class TestLabelRule:
    def test_rule_order(self):
        goal = 0.9
        assert _label_from_stats(0.99, 0.0, 0.5, 0.0, goal) == TRANSIENT_PLUS
        assert _label_from_stats(0.0, 0.99, 0.5, 0.0, goal) == TRANSIENT_MINUS
        assert _label_from_stats(0.1, 0.0, 0.95, 0.0, goal) == RECURRENT_LIKE
        assert _label_from_stats(0.45, 0.45, 0.3, 0.0, goal) == SPLIT
        assert _label_from_stats(0.5, 0.1, 0.3, 0.0, goal) == INCONCLUSIVE
        # late returns block a divergence label
        assert _label_from_stats(0.99, 0.0, 0.5, 0.05, goal) == INCONCLUSIVE


class TestClassify:
    def test_drift_labels_transient_plus(self):
        res = classify(small_config())
        assert all(v.label == TRANSIENT_PLUS for v in res.verdicts)
        assert res.aggregate[TRANSIENT_PLUS] == 1.0
        assert res.consistency_ok
        assert res.dp_checked

    def test_symmetric_homogeneous_labels_recurrent(self):
        res = classify(
            small_config(
                map=doubling_map(),
                environment=iid_model([fn(1, -1), fn(-1, 1)]),
                horizon=400,
                n_walks=400,
                master_seed=2,
            )
        )
        assert all(v.label == RECURRENT_LIKE for v in res.verdicts)

    def test_symmetric_sinai_mixture_never_transient(self):
        # site-random symmetric mixtures can be slow at short horizons:
        # labels may be inconclusive, but never a divergence verdict,
        # and the DP must agree on every environment
        res = classify(
            small_config(
                environment=iid_model([fn(1, 1, -1), fn(-1, -1, 1)]),
                n_envs=6,
                horizon=400,
                n_walks=400,
                master_seed=2,
            )
        )
        assert all(
            v.label in (RECURRENT_LIKE, INCONCLUSIVE) for v in res.verdicts
        )
        assert any(v.label == RECURRENT_LIKE for v in res.verdicts)
        assert res.consistency_ok

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            classify(small_config(n_envs=10**4, n_walks=10**4, horizon=10**5))

    def test_budget_guard_comes_before_any_environment(self, monkeypatch):
        # a scenario asking for 10^10 environments of one one-step walk is
        # refused at once, not after realizing each environment
        def refuse(*args):
            raise AssertionError("realized an environment of an over-budget request")

        monkeypatch.setattr("dwde.experiments.realize", refuse)
        with pytest.raises(BudgetExceededError):
            classify(small_config(n_envs=10**10, n_walks=1, horizon=1))

    def test_evidence_is_json_native(self):
        res = classify(small_config())
        payload = classify_payload(res)
        text = canonical_json(payload)
        assert json.loads(text) == payload

    def test_consistency_failure_is_loud(self):
        # a return goal pinned inside the MC/DP gap forces a label
        # mismatch; strict mode must raise, non-strict must record it
        from dwde.errors import ConsistencyError

        config = small_config(
            map=doubling_map(),
            environment=iid_model([fn(1, -1), fn(-1, 1)]),
            n_envs=1,
            n_walks=500,
            horizon=2000,
            master_seed=3,
            return_goal=F(984, 1000),
        )
        recorded = classify(config, strict=False)
        assert not recorded.consistency_ok
        assert recorded.mismatches == [0]
        with pytest.raises(ConsistencyError):
            classify(config)

    def test_dp_memoization_shares_solves(self):
        # identical jump laws across environments: one DP, same numbers
        res = classify(
            small_config(
                environment=iid_model([fn(1, 1, -1), fn(1, -1, 1)]), n_envs=3
            )
        )
        probs = {v.evidence["dp_return_prob"] for v in res.verdicts}
        assert len(probs) == 1

    @pytest.mark.parametrize(
        "environment, n_envs",
        [
            # drift mixture: every environment its own solve, two stacks
            (
                iid_model([fn(1, 1, 1), fn(1, 1, -1), fn(1, 0, -1)], ["1/4", "1/2", "1/4"]),
                10,
            ),
            # {g, -g}: one shared solve
            (iid_model([fn(1, 1, -1), fn(1, -1, 1)], ["1/3", "2/3"]), 3),
        ],
    )
    def test_stacked_dp_evidence_matches_single_solves(self, environment, n_envs):
        config = small_config(
            environment=environment, n_envs=n_envs, n_walks=20, horizon=90
        )
        res = classify(config, strict=False)
        keys = ("dp_return_prob", "dp_late_return_prob", "dp_right_prob", "dp_left_prob")
        for v in res.verdicts:
            _, expect = per_env_dp(config, v.env_index)
            assert {k: v.evidence[k] for k in keys} == expect, v.env_index

    @pytest.mark.parametrize(
        "environment, n_envs, solves",
        [
            # {g, -g} over equal thirds: one jump law, one solve
            (iid_model([fn(1, 1, -1), fn(1, -1, 1)]), 3, 1),
            # the drift mixture above: every environment its own solve
            (
                iid_model([fn(1, 1, 1), fn(1, 1, -1), fn(1, 0, -1)], ["1/4", "1/2", "1/4"]),
                10,
                10,
            ),
            # two jump laws, but a periodic model draws nothing: one solve
            (periodic_model([fn(1, 1, -1), fn(1, -1, -1)]), 3, 1),
        ],
    )
    def test_dp_dedup_builds_one_chain_per_jump_law(
        self, monkeypatch, environment, n_envs, solves
    ):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build_site_chain(*args, **kwargs)

        monkeypatch.setattr("dwde.experiments.build_site_chain", counting)
        config = small_config(environment=environment, n_envs=n_envs, n_walks=20, horizon=90)
        classify(config, strict=False)
        assert len(calls) == solves

    @pytest.mark.parametrize(
        "environment, n_envs, draws",
        [
            # one walk table per environment, one chain for all three
            (iid_model([fn(1, 1, -1), fn(1, -1, 1)]), 3, 4),
            # one walk table and one chain per environment
            (
                iid_model([fn(1, 1, 1), fn(1, 1, -1), fn(1, 0, -1)], ["1/4", "1/2", "1/4"]),
                10,
                20,
            ),
        ],
    )
    def test_window_draws_per_classify(self, monkeypatch, environment, n_envs, draws):
        calls = []
        index_window = EnvironmentRealization.index_window

        def counting(env, lo, hi):
            calls.append((lo, hi))
            return index_window(env, lo, hi)

        monkeypatch.setattr(EnvironmentRealization, "index_window", counting)
        config = small_config(environment=environment, n_envs=n_envs, n_walks=20, horizon=90)
        classify(config, strict=False)
        assert len(calls) == draws

    def test_window_missing_the_largest_jump(self):
        # no site of either window draws the rare +/-2 function, so each
        # chain's max_jump is 1 while the model's jump bound is 2
        config = small_config(
            map=doubling_map(),
            environment=iid_model([fn(1, -1), fn(2, -2)], ["999/1000", "1/1000"]),
            n_envs=2,
            n_walks=50,
            horizon=10,
            master_seed=1,
        )
        res = classify(config, strict=False)
        for v in res.verdicts:
            max_jump, expect = per_env_dp(config, v.env_index)
            assert max_jump == 1
            for key, value in expect.items():
                assert v.evidence[key] == pytest.approx(value, abs=1e-15), key


class TestScan:
    def test_homogeneous_drift(self):
        scan = zero_one_scan(_scan_config())
        assert scan.homogeneous
        assert scan.majority_label == TRANSIENT_PLUS
        assert scan.dissenters == []

    def test_tied_majority_follows_labels_order(self):
        # two transient+ and two transient- labels: the majority must not
        # follow string hash order, which differs between processes
        script = (
            "from dwde import experiments as x\n"
            "plus, minus = x.TRANSIENT_PLUS, x.TRANSIENT_MINUS\n"
            "labels = [plus, minus, minus, plus]\n"
            "verdicts = [x.Verdict(e, e, lab, {}) for e, lab in enumerate(labels)]\n"
            "x.classify = lambda config: x.ClassifyResult(config, verdicts, {}, False, True)\n"
            "print(x.zero_one_scan(None).majority_label)\n"
        )
        src = os.path.dirname(os.path.dirname(dwde.__file__))
        printed = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            printed.add(out.stdout.strip())
        assert printed == {TRANSIENT_PLUS}

    def test_requires_random_environment(self):
        from dwde.errors import ConfigError

        with pytest.raises(ConfigError):
            small_config(kind="zero_one_scan")

    def test_payload_shape(self):
        scan = zero_one_scan(_scan_config())
        payload = scan_payload(scan)
        assert payload["scan"]["homogeneous"] is True
        text = canonical_json(payload)
        assert json.loads(text) == payload


class TestExtras:
    def test_transience_check_extras(self):
        res = classify(small_config(kind="transience_check", certificate_r=2))
        cert = res.extras["certificate"]
        assert cert["holds"] is True and cert["direction"] == 1
        assert res.extras["solomon"]["verdict"] == "right"
        assert res.extras["linkage"] is True

    def test_symmetric_check_extras(self):
        res = classify(
            small_config(
                kind="symmetric_check",
                environment=iid_model([fn(1, 1, -1), fn(-1, -1, 1)]),
                master_seed=2,
            )
        )
        assert res.extras["symmetry"]["is_symmetric"] is True

    def test_split_demo_extras(self):
        res = classify(get_preset("split-demo").with_seed(7))
        hb = res.extras["hit_before"]
        assert hb["probability"] == "1/2"


class TestReports:
    def test_verdict_csv_shape(self):
        res = classify(small_config())
        text = verdicts_csv(res)
        lines = text.strip().split("\n")
        assert lines[0].startswith("env_index,env_seed,label")
        assert len(lines) == 1 + res.config.n_envs

    def test_markdown_has_certificate_line(self):
        res = classify(small_config(kind="transience_check", certificate_r=2))
        text = markdown_summary(res)
        assert "certificate: holds, direction +1" in text

    def test_empty_ensemble_csv_is_header_only(self):
        from dwde.walks import EnsembleReport

        report = EnsembleReport(
            master_seed=0, n_walks=0, n_steps=1, mode="symbolic",
            start_site=0, per_env=[],
        )
        assert (
            ensemble_csv(report)
            == "env_index,walk_index,final_site,min_site,max_site,first_return_time\n"
        )

    def test_ensemble_csv_rows(self):
        report = run_ensemble(
            doubling_map(), fixed_model(fn(1, 1)), 1, 3, 5, master_seed=0
        )
        lines = ensemble_csv(report).strip().split("\n")
        assert lines[1] == "0,0,5,0,5,"

    def test_byte_identical_reports(self):
        a = classify(small_config())
        b = classify(small_config())
        assert canonical_json(classify_payload(a)) == canonical_json(classify_payload(b))
        assert verdicts_csv(a) == verdicts_csv(b)
        assert markdown_summary(a) == markdown_summary(b)
