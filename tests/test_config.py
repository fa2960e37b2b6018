"""Config parsing strictness and round-trip identity."""

import json

import pytest

from dwde.config import (
    canonical_json,
    env_model_from_spec,
    env_model_to_spec,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from dwde.errors import ConfigError
from dwde.presets import PRESETS, get_preset


def scenario_doc():
    return {
        "name": "demo",
        "map": {
            "breakpoints": ["0", "1/2", "1"],
            "branches": [
                {"slope": "2", "intercept": "0"},
                {"slope": "2", "intercept": "-1"},
            ],
        },
        "environment": {
            "kind": "iid",
            "support": [[1, -1], [-1, 1]],
            "weights": ["1/2", "1/2"],
        },
        "experiment": {
            "kind": "classify",
            "budgets": {"n_envs": 2, "n_walks": 10, "horizon": 100},
            "thresholds": {"divergence_margin": "1/6", "return_goal": "9/10"},
            "certificate_r": None,
        },
        "seeds": {"master": 5},
    }


class TestStrictness:
    def test_unknown_top_key(self):
        doc = scenario_doc()
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            scenario_from_dict(doc)

    def test_unknown_nested_key(self):
        doc = scenario_doc()
        doc["experiment"]["budgets"]["typo_walks"] = 5
        with pytest.raises(ConfigError, match="typo_walks"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("support", [[[1, -1, 1], [-1, 1, -1]], [[1], [-1]]])
    def test_cell_count_must_match_the_map(self, support):
        # the doubling map has two cells: one jump per cell, no more, no fewer
        doc = scenario_doc()
        doc["environment"]["support"] = support
        with pytest.raises(ConfigError, match=f"{len(support[0])}-cell functions"):
            scenario_from_dict(doc)

    def test_missing_key(self):
        doc = scenario_doc()
        del doc["seeds"]
        with pytest.raises(ConfigError, match="seeds"):
            scenario_from_dict(doc)

    def test_missing_map_key(self):
        doc = scenario_doc()
        del doc["map"]["branches"]
        with pytest.raises(ConfigError, match="branches"):
            scenario_from_dict(doc)

    def test_bad_margin(self):
        doc = scenario_doc()
        doc["experiment"]["thresholds"]["divergence_margin"] = "3/2"
        with pytest.raises(ConfigError):
            scenario_from_dict(doc)

    def test_bad_kind(self):
        doc = scenario_doc()
        doc["experiment"]["kind"] = "frobnicate"
        with pytest.raises(ConfigError):
            scenario_from_dict(doc)

    def test_bad_map_data_is_config_error(self):
        doc = scenario_doc()
        doc["map"]["branches"][0]["slope"] = "1/2"
        with pytest.raises(ConfigError):
            scenario_from_dict(doc)

    def test_unknown_env_kind(self):
        with pytest.raises(ConfigError):
            env_model_from_spec({"kind": "cosmic", "support": [[1, -1]]})


class TestRoundTrip:
    def test_scenario_round_trip(self):
        doc = scenario_doc()
        config = scenario_from_dict(doc)
        assert scenario_to_dict(config) == doc

    def test_all_presets_round_trip(self):
        for name in PRESETS:
            config = get_preset(name)
            doc = scenario_to_dict(config)
            again = scenario_from_dict(json.loads(canonical_json(doc)))
            assert scenario_to_dict(again) == doc
            assert again.map == config.map
            assert again.environment == config.environment

    def test_with_seed_keeps_every_other_field(self):
        for name in PRESETS:
            config = get_preset(name)
            doc = scenario_to_dict(config.with_seed(12345))
            assert doc.pop("seeds") == {"master": 12345}
            expected = scenario_to_dict(config)
            del expected["seeds"]
            assert doc == expected

    def test_file_round_trip(self, tmp_path):
        config = get_preset("split-demo")
        path = tmp_path / "split.json"
        save_scenario(config, str(path))
        loaded = load_scenario(str(path))
        assert scenario_to_dict(loaded) == scenario_to_dict(config)
        # canonical serialization is byte-stable
        save_scenario(loaded, str(tmp_path / "again.json"))
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_env_kinds_round_trip(self):
        specs = [
            {"kind": "fixed", "support": [[1, 1, -1]]},
            {"kind": "two_sided", "support": [[1, -1], [-1, 1]]},
            {"kind": "periodic", "support": [[1, -1], [-1, 1], [1, 1]]},
            {
                "kind": "markov",
                "support": [[1, -1], [-1, 1]],
                "transition": [["3/4", "1/4"], ["1/2", "1/2"]],
            },
        ]
        for spec in specs:
            model = env_model_from_spec(spec)
            doc = env_model_to_spec(model)
            again = env_model_from_spec(doc)
            assert again == model
