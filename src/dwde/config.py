"""Scenario configuration: strict parsing and canonical serialization.

Config documents are JSON key-value trees with exact rationals written
as "p/q" strings.  Unknown keys are rejected loudly, and the canonical
serialization round-trips exactly, so a stored config replays the same
experiment byte for byte.  A malformed map or environment spec file
is a ConfigError naming the file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from fractions import Fraction

from .environments import (
    IID,
    MARKOV,
    PERIODIC,
    TWO_SIDED,
    EnvironmentModel,
    TransitionFunction,
    fixed_model,
    iid_model,
    markov_model,
    periodic_model,
    require_cells,
    two_sided_model,
)
from .errors import ConfigError, DwdeError, InvalidModelError, IoFailureError
from .interval_maps import MarkovIntervalMap, as_fraction
from .interval_maps import map_from_spec as _map_from_spec
from .interval_maps import map_to_spec as _map_to_spec

EXPERIMENT_KINDS = (
    "classify",
    "zero_one_scan",
    "transience_check",
    "symmetric_check",
    "split_demo",
)


def require_keys(d: dict, allowed: set, where: str = "config") -> None:
    """Reject unknown keys loudly; silent typos corrupt experiments."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a key-value block, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


# what parsing a malformed spec raises: a missing key (map specs), a bad
# number, a wrong type, or a model the library rejects
_BAD_SPEC = (KeyError, ValueError, TypeError, DwdeError)


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return d[key]


def env_model_from_spec(spec: dict) -> EnvironmentModel:
    require_keys(
        spec,
        {"kind", "support", "weights", "transition", "stationary", "seed"},
        "environment",
    )
    kind = _need(spec, "kind", "environment")
    support = [
        TransitionFunction(tuple(int(v) for v in jumps))
        for jumps in _need(spec, "support", "environment")
    ]
    if kind == "fixed":
        if len(support) != 1:
            raise ConfigError("environment: fixed kind takes exactly one function")
        return fixed_model(support[0])
    if kind == TWO_SIDED:
        if len(support) == 2:
            return two_sided_model(support[0], support[1])
        if len(support) == 3:
            return two_sided_model(support[0], support[1], support[2])
        raise ConfigError(
            "environment: two_sided takes [negative, nonnegative] or "
            "[negative, nonnegative, origin]"
        )
    if kind == PERIODIC:
        return periodic_model(support)
    if kind == IID:
        return iid_model(support, spec.get("weights"))
    if kind == MARKOV:
        return markov_model(
            support, _need(spec, "transition", "environment"), spec.get("stationary")
        )
    raise ConfigError(f"environment: unknown kind {kind!r}")


def env_model_to_spec(model: EnvironmentModel) -> dict:
    spec: dict = {
        "kind": model.kind,
        "support": [list(f.jumps) for f in model.support],
    }
    if model.weights is not None:
        spec["weights"] = [str(w) for w in model.weights]
    if model.transition is not None:
        spec["transition"] = [[str(p) for p in row] for row in model.transition]
        spec["stationary"] = [str(p) for p in model.stationary]
    return spec


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    map: MarkovIntervalMap
    environment: EnvironmentModel
    kind: str
    n_envs: int
    n_walks: int
    horizon: int
    divergence_margin: Fraction
    return_goal: Fraction
    master_seed: int
    certificate_r: int | None = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"experiment kind {self.kind!r} not in {EXPERIMENT_KINDS}")
        if min(self.n_envs, self.n_walks, self.horizon) < 1:
            raise ConfigError("budgets must be positive")
        if not 0 < self.divergence_margin < 1:
            raise ConfigError("divergence_margin must be inside (0, 1)")
        if not 0 < self.return_goal <= 1:
            raise ConfigError("return_goal must be inside (0, 1]")
        try:
            require_cells(self.environment, self.map.num_cells)
        except InvalidModelError as err:
            raise ConfigError(f"environment: {err}") from err
        if self.kind == "zero_one_scan" and self.environment.kind not in (IID, MARKOV):
            raise ConfigError(
                "zero_one_scan needs a random (iid or markov) environment model"
            )

    def with_seed(self, master_seed: int) -> "ScenarioConfig":
        return replace(self, master_seed=master_seed)


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    require_keys(doc, {"name", "map", "environment", "experiment", "seeds"}, "config")
    exp = _need(doc, "experiment", "config")
    require_keys(exp, {"kind", "budgets", "thresholds", "certificate_r"}, "experiment")
    budgets = _need(exp, "budgets", "experiment")
    require_keys(budgets, {"n_envs", "n_walks", "horizon"}, "experiment.budgets")
    thresholds = _need(exp, "thresholds", "experiment")
    require_keys(
        thresholds, {"divergence_margin", "return_goal"}, "experiment.thresholds"
    )
    seeds = _need(doc, "seeds", "config")
    require_keys(seeds, {"master"}, "seeds")
    try:
        return ScenarioConfig(
            name=str(_need(doc, "name", "config")),
            map=_map_from_spec(_need(doc, "map", "config")),
            environment=env_model_from_spec(_need(doc, "environment", "config")),
            kind=_need(exp, "kind", "experiment"),
            n_envs=int(_need(budgets, "n_envs", "budgets")),
            n_walks=int(_need(budgets, "n_walks", "budgets")),
            horizon=int(_need(budgets, "horizon", "budgets")),
            divergence_margin=as_fraction(
                _need(thresholds, "divergence_margin", "thresholds")
            ),
            return_goal=as_fraction(_need(thresholds, "return_goal", "thresholds")),
            master_seed=int(_need(seeds, "master", "seeds")),
            certificate_r=(
                None if exp.get("certificate_r") is None else int(exp["certificate_r"])
            ),
        )
    except ConfigError:
        raise
    except _BAD_SPEC as err:
        raise ConfigError(f"config: bad value ({err})") from err


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return {
        "name": config.name,
        "map": _map_to_spec(config.map),
        "environment": env_model_to_spec(config.environment),
        "experiment": {
            "kind": config.kind,
            "budgets": {
                "n_envs": config.n_envs,
                "n_walks": config.n_walks,
                "horizon": config.horizon,
            },
            "thresholds": {
                "divergence_margin": str(config.divergence_margin),
                "return_goal": str(config.return_goal),
            },
            "certificate_r": config.certificate_r,
        },
        "seeds": {"master": config.master_seed},
    }


def canonical_json(payload) -> str:
    """Stable byte-for-byte JSON rendering."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def read_json(path: str, what: str):
    """Parse the JSON file at path; an unreadable or invalid file is a
    ConfigError naming it as `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {what} {path}: {err}") from err
    except ValueError as err:  # JSONDecodeError or undecodable bytes
        raise ConfigError(f"{what} {path} is not valid JSON: {err}") from err


def write_text(path: str, text: str) -> None:
    """Write text to path byte for byte ('\\n' line ends on every platform);
    an OSError becomes IoFailureError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise IoFailureError(f"cannot write {path}: {err}") from err


def make_dirs(path: str) -> None:
    """os.makedirs(path, exist_ok=True), with write_text's IoFailureError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise IoFailureError(f"cannot write {path}: {err}") from err


def load_scenario(path: str) -> ScenarioConfig:
    return scenario_from_dict(read_json(path, "config"))


def save_scenario(config: ScenarioConfig, path: str) -> None:
    write_text(path, canonical_json(scenario_to_dict(config)))


def _load_spec(path: str, what: str, parse):
    """parse(the JSON document at path); any error in the document is a
    ConfigError naming the file."""
    doc = read_json(path, what)
    try:
        return parse(doc)
    except _BAD_SPEC as err:
        raise ConfigError(f"{what} {path}: {err}") from err


def load_map(path: str) -> MarkovIntervalMap:
    return _load_spec(path, "map spec", _map_from_spec)


def load_map_env(map_path: str, env_path: str) -> tuple[MarkovIntervalMap, EnvironmentModel, int]:
    """Map and environment spec files -> (map, model, block seed); the
    block seed defaults to 0."""
    m = load_map(map_path)

    def parse(doc):
        model = env_model_from_spec(doc)
        require_cells(model, m.num_cells)
        return model, int(doc.get("seed", 0))

    model, seed = _load_spec(env_path, "environment spec", parse)
    return m, model, seed
