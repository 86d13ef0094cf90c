"""Experiment configuration: strict parsing of cfg files into specs.

The grammar is INI-style (configparser).  Every section and key is checked
against a schema; unknown keys are rejected and all violations are reported
together.  A config may either describe an experiment in full or name a
preset in ``[experiment] preset`` and override its scalar fields.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from ..graphs import Graph, GraphError, build_graph
from ..problems import (
    ConvexProblem,
    InvalidProblemError,
    NoiseModel,
    least_squares_from_text,
    make_quadratic,
)

EXPERIMENT_KINDS = ("optimize", "gossip", "decentralized", "graph-info")

DEFAULT_RUNS = 1000
DEFAULT_SEED = 12345
DEFAULT_CHECKPOINT_COUNT = 50

_SCHEMA: dict[str, set[str]] = {
    "experiment": {
        "kind", "preset", "runs", "seed", "horizon", "checkpoints", "out",
        "include_bounds",
    },
    "problem": {"kind", "diag", "center", "optimum", "samples"},
    "noise": {"kind", "sigma2"},
    "algo": {
        "method", "schedule", "variant", "step", "iters", "clock", "rate",
        "p", "tick", "x0",
    },
    "graph": {"topology", "nodes", "rows", "cols", "edges"},
    "gossip": {"algo", "init"},
    "decentralized": {
        "mu", "smoothness", "dimension", "center_scale", "curvatures", "centers",
    },
}

_SECTIONS_BY_KIND = {
    "optimize": {"experiment", "problem", "noise", "algo"},
    "gossip": {"experiment", "graph", "gossip"},
    "decentralized": {"experiment", "graph", "decentralized"},
    "graph-info": {"experiment", "graph"},
}


class ConfigError(ValueError):
    """Carries the full list of validation violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


@dataclass
class ExperimentSpec:
    """A fully validated experiment description."""

    kind: str
    runs: int = DEFAULT_RUNS
    seed: int = DEFAULT_SEED
    horizon: float | None = None
    checkpoints: np.ndarray | None = None
    out: str | None = None
    include_bounds: bool = False
    problem: ConvexProblem | None = None
    noise: NoiseModel = field(default_factory=NoiseModel.none)
    algo: dict[str, Any] = field(default_factory=dict)
    graph: Graph | None = None
    gossip_algo: str = "accelerated"
    gossip_init: np.ndarray | None = None
    decentralized: dict[str, Any] = field(default_factory=dict)
    preset_name: str | None = None

    def with_overrides(self, **kw) -> "ExperimentSpec":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw)


def log_spaced_checkpoints(horizon: float, count: int) -> np.ndarray:
    """The default grid: ``count`` log-spaced times in [1, horizon]."""
    if horizon <= 1:
        raise ValueError("log-spaced checkpoints need horizon > 1")
    return np.geomspace(1.0, horizon, count)


def _floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split()], dtype=float)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _build_problem(section, errors) -> tuple[ConvexProblem | None, None]:
    kind = section.get("kind", "")
    try:
        if kind == "quadratic":
            if "diag" not in section or "center" not in section:
                errors.append("[problem] quadratic needs 'diag' and 'center'")
                return None, None
            return make_quadratic(_floats(section["diag"]), _floats(section["center"])), None
        if kind == "least_squares":
            if "optimum" not in section or "samples" not in section:
                errors.append("[problem] least_squares needs 'optimum' and 'samples'")
                return None, None
            return least_squares_from_text(section["optimum"], section["samples"]), None
        errors.append(f"[problem] unknown kind {kind!r}")
    except (InvalidProblemError, ValueError, IndexError) as exc:
        errors.append(f"[problem] {exc}")
    return None, None


def _build_graph(section, errors) -> Graph | None:
    topology = section.get("topology", "")
    try:
        if topology in ("line", "cycle", "complete"):
            if "nodes" not in section:
                errors.append(f"[graph] topology {topology} needs 'nodes'")
                return None
            return build_graph(topology, nodes=int(section["nodes"]))
        if topology == "grid":
            if "rows" not in section or "cols" not in section:
                errors.append("[graph] topology grid needs 'rows' and 'cols'")
                return None
            return build_graph(
                "grid", rows=int(section["rows"]), cols=int(section["cols"])
            )
        if topology == "edge_list":
            if "edges" not in section:
                errors.append("[graph] topology edge_list needs 'edges'")
                return None
            return build_graph("edge_list", edges=section["edges"])
        errors.append(f"[graph] unknown topology {topology!r}")
    except (GraphError, ValueError) as exc:
        errors.append(f"[graph] {exc}")
    return None


def spec_from_parser(cp: configparser.ConfigParser) -> ExperimentSpec:
    errors: list[str] = []

    for name in cp.sections():
        if name not in _SCHEMA:
            errors.append(f"unknown section [{name}]")
        else:
            for key in cp[name]:
                if key not in _SCHEMA[name]:
                    errors.append(f"unknown key '{key}' in [{name}]")
    if "experiment" not in cp:
        raise ConfigError(errors + ["missing [experiment] section"])
    exp = cp["experiment"]

    preset_name = exp.get("preset")
    if preset_name is not None:
        from .presets import get_preset

        extra = [s for s in cp.sections() if s != "experiment"]
        if extra:
            errors.append(
                "a preset config may only contain [experiment], found "
                + ", ".join(f"[{s}]" for s in extra)
            )
        allowed = {"preset", "runs", "seed", "horizon", "out", "include_bounds"}
        for key in exp:
            if key not in allowed:
                errors.append(f"key '{key}' cannot override a preset")
        try:
            spec = get_preset(preset_name)
        except KeyError:
            errors.append(f"unknown preset {preset_name!r}")
        if errors:
            raise ConfigError(errors)
        overrides: dict[str, Any] = {}
        if "runs" in exp:
            overrides["runs"] = int(exp["runs"])
        if "seed" in exp:
            overrides["seed"] = int(exp["seed"])
        if "horizon" in exp:
            overrides["horizon"] = float(exp["horizon"])
            overrides["checkpoints"] = log_spaced_checkpoints(
                overrides["horizon"], DEFAULT_CHECKPOINT_COUNT
            )
        if "out" in exp:
            overrides["out"] = exp["out"]
        if "include_bounds" in exp:
            overrides["include_bounds"] = _parse_bool(exp["include_bounds"])
        return spec.with_overrides(**overrides)

    kind = exp.get("kind", "")
    if kind not in EXPERIMENT_KINDS:
        errors.append(
            f"[experiment] kind must be one of {', '.join(EXPERIMENT_KINDS)}, got {kind!r}"
        )
    else:
        for name in cp.sections():
            if name in _SCHEMA and name not in _SECTIONS_BY_KIND[kind]:
                errors.append(f"section [{name}] does not apply to kind {kind}")

    runs = DEFAULT_RUNS
    if "runs" in exp:
        runs = int(exp["runs"])
        if runs < 1:
            errors.append("[experiment] runs must be >= 1")
    seed = int(exp.get("seed", DEFAULT_SEED))

    horizon = None
    needs_horizon = kind in ("optimize", "gossip", "decentralized")
    if "horizon" in exp:
        horizon = float(exp["horizon"])
        if horizon <= 0:
            errors.append("[experiment] horizon must be > 0")
            horizon = None
    elif needs_horizon:
        errors.append("[experiment] missing required field 'horizon'")

    checkpoints = None
    if horizon is not None and needs_horizon:
        tokens = exp.get("checkpoints", str(DEFAULT_CHECKPOINT_COUNT)).split()
        try:
            if len(tokens) == 1 and "." not in tokens[0]:
                checkpoints = log_spaced_checkpoints(horizon, int(tokens[0]))
            else:
                checkpoints = np.array([float(t) for t in tokens])
                if np.any(np.diff(checkpoints) <= 0):
                    errors.append("[experiment] checkpoints must be strictly increasing")
                if checkpoints[0] <= 0 or checkpoints[-1] > horizon:
                    errors.append("[experiment] checkpoints must lie in (0, horizon]")
        except ValueError as exc:
            errors.append(f"[experiment] bad checkpoints: {exc}")

    include_bounds = False
    if "include_bounds" in exp:
        try:
            include_bounds = _parse_bool(exp["include_bounds"])
        except ValueError as exc:
            errors.append(f"[experiment] {exc}")

    spec = ExperimentSpec(
        kind=kind if kind in EXPERIMENT_KINDS else "optimize",
        runs=runs,
        seed=seed,
        horizon=horizon,
        checkpoints=checkpoints,
        out=exp.get("out"),
        include_bounds=include_bounds,
    )

    if kind == "optimize":
        if "problem" not in cp:
            errors.append("missing [problem] section for kind optimize")
        else:
            spec.problem, _ = _build_problem(cp["problem"], errors)
        if "noise" in cp:
            nsec = cp["noise"]
            nkind = nsec.get("kind", "none")
            if nkind == "additive":
                spec.noise = NoiseModel.additive(float(nsec.get("sigma2", "0")))
            elif nkind == "multiplicative":
                spec.noise = NoiseModel.multiplicative()
            elif nkind != "none":
                errors.append(f"[noise] unknown kind {nkind!r}")
        spec.algo = dict(cp["algo"]) if "algo" in cp else {}
        method = spec.algo.get("method", "continuized")
        if method not in ("continuized", "nesterov", "gd"):
            errors.append(f"[algo] unknown method {method!r}")

    elif kind in ("gossip", "decentralized", "graph-info"):
        if "graph" not in cp:
            errors.append(f"missing [graph] section for kind {kind}")
        else:
            spec.graph = _build_graph(cp["graph"], errors)
        if kind == "gossip" and "gossip" in cp:
            gsec = cp["gossip"]
            spec.gossip_algo = gsec.get("algo", "accelerated")
            if spec.gossip_algo not in ("naive", "accelerated"):
                errors.append(f"[gossip] unknown algo {spec.gossip_algo!r}")
            init = gsec.get("init", "spike")
            if init != "spike":
                try:
                    spec.gossip_init = _floats(init)
                except ValueError:
                    errors.append("[gossip] init must be 'spike' or a list of floats")
        if kind == "decentralized":
            if "decentralized" not in cp:
                errors.append("missing [decentralized] section")
            else:
                dsec = cp["decentralized"]
                try:
                    spec.decentralized = {
                        "mu": float(dsec.get("mu", "")),
                        "smoothness": float(dsec.get("smoothness", "")),
                        "dimension": int(dsec.get("dimension", "1")),
                        "center_scale": float(dsec.get("center_scale", "1.0")),
                    }
                except ValueError:
                    errors.append("[decentralized] needs numeric 'mu' and 'smoothness'")
                if "curvatures" in dsec:
                    spec.decentralized["curvatures"] = _floats(dsec["curvatures"])
                if "centers" in dsec:
                    spec.decentralized["centers"] = np.array(
                        [_floats(line) for line in dsec["centers"].strip().splitlines()]
                    )

    if spec.gossip_init is not None and spec.graph is not None:
        if spec.gossip_init.shape != (spec.graph.node_count,):
            errors.append("[gossip] init length must equal the node count")

    if errors:
        raise ConfigError(errors)
    return spec


def parse_config(path: str) -> ExperimentSpec:
    """Read and validate a config file; raises ConfigError with every violation."""
    if not os.path.exists(path):
        raise ConfigError([f"config file not found: {path}"])
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse {path}: {exc}"]) from exc
    return spec_from_parser(cp)


def parse_config_text(text: str) -> ExperimentSpec:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse config: {exc}"]) from exc
    return spec_from_parser(cp)
