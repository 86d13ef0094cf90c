"""Experiment configuration: strict parsing of cfg files into specs.

The grammar is INI-style (configparser).  Every section and key is checked
against a schema; unknown keys are rejected and all violations are reported
together.  Each value is built into the object it describes (problem, noise
model, schedule, clock, initial point, graph, local-function bounds) by the
library constructor that validates it, so a spec that parses is ready to
run.  A config may either describe an experiment in full or name a preset in
``[experiment] preset`` and override its scalar fields.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import partial

import numpy as np

from ..dual import check_curvatures
from ..dynamics import check_gd_step, check_nesterov_variant
from ..graphs import TOPOLOGY_FIELDS, Graph, build_graph
from ..problems import (
    PROBLEM_FIELDS,
    ConvexProblem,
    NoiseModel,
    check_noise,
    check_point,
    noise_from_section,
    parse_float,
    parse_floats,
    problem_from_section,
)
from ..schedules import EventClock, ParamSchedule
from ..trace import check_horizon, checkpoint_grid

EXPERIMENT_KINDS = ("optimize", "gossip", "decentralized", "graph-info")
# The [algo] keys each method reads, besides method and x0.
METHOD_KEYS = {
    "continuized": ("schedule", "clock", "rate", "p", "tick"),
    "nesterov": ("variant", "iters"),
    "gd": ("step", "iters"),
}
METHODS = tuple(METHOD_KEYS)

DEFAULT_RUNS = 1000
DEFAULT_SEED = 12345
DEFAULT_CHECKPOINT_COUNT = 50
# Every run keeps one value per checkpoint and metric, so the grid is bounded.
MAX_CHECKPOINT_COUNT = 10_000


def _rows(text: str) -> np.ndarray:
    rows = [parse_floats(line) for line in text.strip().splitlines()]
    if len({row.size for row in rows}) != 1:
        raise ValueError("expected rows of equal length, one per line")
    return np.array(rows)


_DECENTRALIZED_FIELDS = {
    "mu": parse_float,
    "smoothness": parse_float,
    "dimension": int,
    "center_scale": parse_float,
    "curvatures": parse_floats,
    "centers": _rows,
}


_SCHEMA: dict[str, set[str]] = {
    "experiment": {
        "kind", "preset", "runs", "seed", "horizon", "checkpoints", "out",
        "include_bounds",
    },
    "problem": {"kind"}.union(*PROBLEM_FIELDS.values()),
    "noise": {"kind", "sigma2"},
    "algo": {"method", "x0"}.union(*METHOD_KEYS.values()),
    "graph": {"topology"}.union(*TOPOLOGY_FIELDS.values()),
    "gossip": {"algo", "init"},
    "decentralized": set(_DECENTRALIZED_FIELDS),
}

_SECTIONS_BY_KIND = {
    "optimize": {"experiment", "problem", "noise", "algo"},
    "gossip": {"experiment", "graph", "gossip"},
    "decentralized": {"experiment", "graph", "decentralized"},
    "graph-info": {"experiment", "graph"},
}


def _same_value(a, b) -> bool:
    """Equality that compares numpy arrays by their elements and dataclass
    instances (problems, schedules, graphs, specs) field by field."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        both = isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
        return both and bool(np.array_equal(a, b))
    if is_dataclass(a) and type(a) is type(b):
        return all(_same_value(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return a == b


def _fields_equal(self, other) -> bool:
    """``__eq__`` of the specs: field by field, array fields by value, as
    ``Graph`` compares its edge weights."""
    if type(other) is not type(self):
        return NotImplemented
    return _same_value(self, other)


class ConfigError(ValueError):
    """Carries the full list of validation violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class AlgoSpec:
    """The resolved ``[algo]`` section of an optimize experiment.

    ``step`` is the gradient-descent step; ``iters`` of the Nesterov and GD
    baselines is None for round(horizon), read at run time because a
    horizon override may follow parsing.
    """

    method: str
    schedule: ParamSchedule
    clock: EventClock
    x0: np.ndarray
    variant: str
    step: float
    iters: int | None

    __eq__ = _fields_equal


@dataclass(frozen=True)
class DecentralizedSpec:
    """The resolved ``[decentralized]`` section: curvature bounds plus
    either explicit local functions (``curvatures`` with one ``centers``
    row per node) or the shape of the seeded random ones."""

    mu: float
    smoothness: float
    dimension: int = 1
    center_scale: float = 1.0
    curvatures: np.ndarray | None = None
    centers: np.ndarray | None = None

    __eq__ = _fields_equal


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
    algo: AlgoSpec | None = None
    graph: Graph | None = None
    gossip_algo: str = "accelerated"
    gossip_init: np.ndarray | None = None
    decentralized: DecentralizedSpec | None = None

    __eq__ = _fields_equal

    def with_overrides(self, **kw) -> "ExperimentSpec":
        """A copy with every non-None keyword replaced; a new horizon
        without new checkpoints brings the default log-spaced grid."""
        kw = {k: v for k, v in kw.items() if v is not None}
        if "horizon" in kw and "checkpoints" not in kw:
            kw["checkpoints"] = log_spaced_checkpoints(kw["horizon"], DEFAULT_CHECKPOINT_COUNT)
        return replace(self, **kw)


def log_spaced_checkpoints(horizon: float, count: int) -> np.ndarray:
    """The default grid: ``count`` log-spaced times in [1, horizon]."""
    if not horizon > 1:
        raise ValueError(f"log-spaced checkpoints need horizon > 1, got {horizon}")
    if not 1 <= count <= MAX_CHECKPOINT_COUNT:
        raise ValueError(
            f"log-spaced checkpoints need a count in [1, {MAX_CHECKPOINT_COUNT}], got {count}"
        )
    # Near the float maximum numpy's internal power overshoots to inf before
    # geomspace sets the last point to ``horizon``; the grid is finite.
    with np.errstate(over="ignore"):
        grid = np.geomspace(1.0, horizon, count)
    if np.any(np.diff(grid) <= 0):
        raise ValueError(f"{count} log-spaced checkpoints on [1, {horizon}] repeat a time")
    return grid


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _read(errors: list[str], name: str, section, key: str, parse, default=None):
    """``parse`` of ``section[key]``; ``default`` when the key is absent or,
    after recording a violation, unparsable."""
    if key not in section:
        return default
    try:
        return parse(section[key])
    except ValueError as exc:
        errors.append(f"[{name}] {key}: {exc}")
        return default


def _attempt(errors: list[str], where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, or None after recording as violations
    the ValueError it raises (each of a ConfigError's, unprefixed)."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        errors.extend(exc.violations)
    except ValueError as exc:
        errors.append(f"{where} {exc}")
    return None


def _clock(kind: str, rate: float, p: float, tick: float) -> EventClock:
    if kind == "exponential":
        return EventClock.exponential(rate)
    if kind == "geometric":
        return EventClock.geometric(p, tick)
    raise ValueError(f"unknown clock {kind!r}")


def _initial_x(problem: ConvexProblem, text: str) -> np.ndarray:
    if text == "optimum":
        return problem.optimum
    if text == "zeros":
        x0 = np.zeros(problem.dimension)
    else:
        x0 = check_point(problem, parse_floats(text))
    x0.setflags(write=False)
    return x0


def resolve_algo(section, problem: ConvexProblem | None) -> AlgoSpec | None:
    """Build the ``[algo]`` section (any str -> str mapping) for ``problem``.

    Raises ConfigError listing every violation.  Without a problem (one that
    failed to build) only the checks that need none run, and None returns.
    """
    errors: list[str] = []
    read = partial(_read, errors, "algo", section)
    method = section.get("method", "continuized")
    if method not in METHODS:
        errors.append(f"[algo] unknown method {method!r}")
    else:
        errors += [
            f"[algo] key '{key}' does not apply to method {method}"
            for key in section
            if key in _SCHEMA["algo"] and key not in ("method", "x0", *METHOD_KEYS[method])
        ]
    variant = section.get("variant", "convex")
    step = read("step", parse_float)
    iters = read("iters", int)
    if iters is not None and iters < 1:
        errors.append("[algo] iters must be >= 1")
    clock = _attempt(
        errors, "[algo]", _clock, section.get("clock", "exponential"),
        read("rate", parse_float, 1.0), read("p", parse_float, 0.01),
        read("tick", parse_float, 0.01),
    )
    if problem is None:
        if errors:
            raise ConfigError(errors)
        return None
    schedule = _attempt(
        errors, "[algo]", ParamSchedule.for_problem, problem, section.get("schedule")
    )
    x0 = _attempt(errors, "[algo] x0:", _initial_x, problem, section.get("x0", "zeros"))
    if step is None:
        step = 1.0 / problem.smoothness
    if method == "nesterov":
        _attempt(errors, "[algo]", check_nesterov_variant, problem, variant)
    if method == "gd":
        _attempt(errors, "[algo]", check_gd_step, problem, step)
    if errors:
        raise ConfigError(errors)
    return AlgoSpec(method, schedule, clock, x0, variant, step, iters)


def _decentralized(section, node_count: int | None) -> DecentralizedSpec:
    errors = [
        f"[decentralized] missing required field '{key}'"
        for key in ("mu", "smoothness")
        if key not in section
    ]
    values = {
        key: _read(errors, "decentralized", section, key, parse)
        for key, parse in _DECENTRALIZED_FIELDS.items()
    }
    values = {key: v for key, v in values.items() if v is not None}
    if values.get("dimension", 1) < 1:
        errors.append("[decentralized] dimension must be >= 1")
    if ("curvatures" in section) != ("centers" in section):
        errors.append("[decentralized] explicit local functions need 'curvatures' and 'centers'")
    centers = values.get("centers")
    if centers is not None:
        # explicit local functions carry their own dimension and need no generator
        if values.get("dimension", centers.shape[1]) != centers.shape[1]:
            errors.append(
                f"[decentralized] dimension = {values['dimension']} does not match "
                f"the {centers.shape[1]} columns of centers"
            )
        values["dimension"] = centers.shape[1]
        if "center_scale" in section:
            errors.append("[decentralized] center_scale does not apply to explicit centers")
    curvatures = values.get("curvatures")
    if node_count is not None:
        if curvatures is not None and curvatures.shape != (node_count,):
            errors.append(f"[decentralized] curvatures need one value per node ({node_count})")
        if centers is not None and len(centers) != node_count:
            errors.append(f"[decentralized] centers need one row per node ({node_count})")
    if "mu" in values and "smoothness" in values:
        _attempt(
            errors, "[decentralized]", check_curvatures,
            () if curvatures is None else curvatures, values["mu"], values["smoothness"],
        )
    if errors:
        raise ConfigError(errors)
    return DecentralizedSpec(**values)


def _checkpoints(text: str, horizon: float) -> np.ndarray:
    tokens = text.split()
    # one integer is a count; any other text lists the times, as in 1e-05
    if len(tokens) == 1 and tokens[0].lstrip("+-").isdecimal():
        return log_spaced_checkpoints(horizon, int(tokens[0]))
    grid = parse_floats(text)
    if grid.size == 0:
        raise ValueError("must list at least one time")
    return checkpoint_grid(grid, horizon)


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
    read = partial(_read, errors, "experiment", exp)

    runs = read("runs", int, DEFAULT_RUNS)
    if runs < 1:
        errors.append("[experiment] runs must be >= 1")
    seed = read("seed", int, DEFAULT_SEED)
    horizon = read("horizon", parse_float)
    if horizon is not None:
        horizon = _attempt(errors, "[experiment]", check_horizon, horizon)
    include_bounds = read("include_bounds", _parse_bool, False)

    preset = exp.get("preset")
    if preset is not None:
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
        overrides = {
            "runs": runs, "seed": seed, "horizon": horizon, "out": exp.get("out"),
            "include_bounds": include_bounds,
        }
        try:
            spec = get_preset(preset)
        except KeyError:
            errors.append(f"unknown preset {preset!r}")
        else:
            spec = _attempt(
                errors, "[experiment]", spec.with_overrides,
                **{key: v for key, v in overrides.items() if key in exp},
            )
        if errors:
            raise ConfigError(errors)
        return spec

    kind = exp.get("kind", "")
    if kind not in EXPERIMENT_KINDS:
        errors.append(
            f"[experiment] kind must be one of {', '.join(EXPERIMENT_KINDS)}, got {kind!r}"
        )
    else:
        for name in cp.sections():
            if name in _SCHEMA and name not in _SECTIONS_BY_KIND[kind]:
                errors.append(f"section [{name}] does not apply to kind {kind}")

    checkpoints = None
    if kind in ("optimize", "gossip", "decentralized"):
        if "horizon" not in exp:
            errors.append("[experiment] missing required field 'horizon'")
        elif horizon is not None:
            checkpoints = _attempt(
                errors, "[experiment] checkpoints:", _checkpoints,
                exp.get("checkpoints", str(DEFAULT_CHECKPOINT_COUNT)), horizon,
            )

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
            spec.problem = _attempt(errors, "[problem]", problem_from_section, cp["problem"])
        if "noise" in cp:
            spec.noise = _attempt(errors, "[noise]", noise_from_section, cp["noise"])
        if spec.problem is not None and spec.noise is not None:
            _attempt(errors, "[noise]", check_noise, spec.problem, spec.noise)
        algo = cp["algo"] if "algo" in cp else {}
        method = algo.get("method", "continuized")
        if method in ("nesterov", "gd") and "checkpoints" in exp:
            # the deterministic baselines report every iteration t = 0..iters
            errors.append(f"[experiment] key 'checkpoints' does not apply to method {method}")
        spec.algo = _attempt(errors, "[algo]", resolve_algo, algo, spec.problem)

    elif kind in ("gossip", "decentralized", "graph-info"):
        if "graph" not in cp:
            errors.append(f"missing [graph] section for kind {kind}")
        else:
            gfields = dict(cp["graph"])
            topology = gfields.pop("topology", "")
            spec.graph = _attempt(errors, "[graph]", build_graph, topology, **gfields)
        node_count = None if spec.graph is None else spec.graph.node_count
        if kind == "gossip" and "gossip" in cp:
            gsec = cp["gossip"]
            spec.gossip_algo = gsec.get("algo", "accelerated")
            if spec.gossip_algo not in ("naive", "accelerated"):
                errors.append(f"[gossip] unknown algo {spec.gossip_algo!r}")
            if gsec.get("init", "spike") != "spike":
                spec.gossip_init = _read(errors, "gossip", gsec, "init", parse_floats)
            if spec.gossip_init is not None and node_count is not None:
                if spec.gossip_init.shape != (node_count,):
                    errors.append("[gossip] init length must equal the node count")
        if kind == "decentralized":
            if "decentralized" not in cp:
                errors.append("missing [decentralized] section")
            else:
                spec.decentralized = _attempt(
                    errors, "[decentralized]", _decentralized, cp["decentralized"], node_count
                )

    if errors:
        raise ConfigError(errors)
    return spec


def parse_config(path: str) -> ExperimentSpec:
    """Read and validate a UTF-8 config file; raises ConfigError with every
    violation, or when the file cannot be read."""
    if not os.path.exists(path):
        raise ConfigError([f"config file not found: {path}"])
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    return parse_config_text(text)


def parse_config_text(text: str) -> ExperimentSpec:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse config: {exc}"]) from exc
    return spec_from_parser(cp)
