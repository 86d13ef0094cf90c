"""Experiment configuration: strict parsing of cfg files into specs.

The grammar is INI-style (configparser).  One table (``SECTIONS``, ``KINDS``)
checks every section and key: a section the experiment's kind does not use,
or a key its section's variant does not read, is rejected, and all violations
are reported together.  Each value is built into the object it describes
(problem, noise model, schedule, clock, initial point, graph, local-function
bounds) by the library constructor that validates it, so a spec that parses
is ready to run.  A config may either describe an experiment in full or name
a preset in ``[experiment] preset`` and override its scalar fields.  Each
overridable field has one rule (``OVERRIDES``), which ``override_fields``
applies to config keys, to the command line's flags and seed variable, and to
the typed values of ``ExperimentSpec.with_overrides``.
"""

from __future__ import annotations

import math
import os
from dataclasses import field, replace
from functools import partial

import numpy as np

from ..dynamics import check_gd_step, check_nesterov_variant
from ..gossip import GOSSIP_ALGOS, check_node_values
from ..graphs import TOPOLOGY_FIELDS, Graph, build_graph
from ..problems import (
    NOISE_FIELDS,
    PROBLEM_FIELDS,
    ConvexProblem,
    NoiseModel,
    check_noise,
    check_point,
    noise_from_section,
    parse_choice,
    parse_float,
    parse_floats,
    parse_int,
    problem_from_section,
)
from ..records import Record, read_only
from ..schedules import CLOCKS, EventClock, ParamSchedule
from ..trace import check_horizon, checkpoint_grid

# The [algo] keys each method reads, besides method and x0.
METHOD_KEYS = {
    "continuized": ("schedule", "clock", *(k for _, keys in CLOCKS.values() for k in keys)),
    "nesterov": ("variant", "iters"),
    "gd": ("step", "iters"),
}
# The methods whose every run is one deterministic trajectory: the fixed-weight
# baselines, which draw no noise and report every iteration.
BASELINE_METHODS = ("nesterov", "gd")

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
    "dimension": partial(parse_int, least=1),
    "center_scale": parse_float,
    "curvatures": parse_floats,
    "centers": _rows,
}


def _runs(value) -> dict:
    return {"runs": parse_int(value, 1)}


def _seed(value) -> dict:
    # ``derive_seed`` keeps the low 64 bits, so any other seed aliases one of these
    if (seed := parse_int(value, 0)) >= 2**64:
        raise ValueError("must be in [0, 2**64)")
    return {"seed": seed}


def _horizon(value) -> dict:
    horizon = parse_float(value) if isinstance(value, str) else float(value)
    grid = log_spaced_checkpoints(horizon, DEFAULT_CHECKPOINT_COUNT)
    return {"horizon": horizon, "checkpoints": grid}


def _include_bounds(value) -> dict:
    text = str(value).strip().lower()  # a typed bool reads as its text
    if text not in ("true", "yes", "1", "on", "false", "no", "0", "off"):
        raise ValueError("not a boolean")
    return {"include_bounds": text in ("true", "yes", "1", "on")}


def _out(value) -> dict:
    """A path the CSV can be written to as a file (empty for stdout).  Its
    violation names the path itself, whichever source gave it."""
    out = os.fspath(value)
    parent = os.path.dirname(out) or "."
    if out and not os.path.isdir(parent):
        raise ConfigError([f"out {out}: directory {parent} does not exist"])
    if out and os.path.isdir(out):
        raise ConfigError([f"out {out} is a directory"])
    return {"out": out}


# The one rule of each [experiment] field that a preset config, a flag, the
# seed variable or ``with_overrides`` may set: from text or a typed value to
# the spec fields it sets, or a ValueError naming the fault.
OVERRIDES = {
    "runs": _runs, "seed": _seed, "horizon": _horizon,
    "out": _out, "include_bounds": _include_bounds,
}


# The experiment kinds that run an ensemble and produce a run set.
RUN_KINDS = ("optimize", "gossip", "decentralized")
_RUN_KEYS = ("kind", "horizon", "checkpoints", *OVERRIDES)
# For each section: its variant key, that key's default, and the keys each
# variant reads besides the variant key.  The variant of [experiment] is its
# kind, or "preset" when it names a preset; [decentralized] has one variant.
SECTIONS = {
    "experiment": (None, None, {
        **dict.fromkeys(RUN_KINDS, _RUN_KEYS),
        "graph-info": ("kind",), "preset": ("preset", *OVERRIDES),
    }),
    "problem": ("kind", "", PROBLEM_FIELDS),
    "noise": ("kind", "none", NOISE_FIELDS),
    "algo": ("method", "continuized", {m: ("x0", *keys) for m, keys in METHOD_KEYS.items()}),
    "graph": ("topology", "", TOPOLOGY_FIELDS),
    "gossip": ("algo", GOSSIP_ALGOS[0], dict.fromkeys(GOSSIP_ALGOS, ("init",))),
    "decentralized": (None, None, {None: tuple(_DECENTRALIZED_FIELDS)}),
}
# For each [experiment] variant: the sections it requires and those it may add.
KINDS = {
    "optimize": (("problem",), ("noise", "algo")),
    "gossip": (("graph",), ("gossip",)),
    "decentralized": (("graph", "decentralized"), ()),
    "graph-info": (("graph",), ()),
    "preset": ((), ()),
}
EXPERIMENT_KINDS = tuple(kind for kind in KINDS if kind != "preset")


class ConfigError(ValueError):
    """Carries the full list of validation violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class AlgoSpec(Record):
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


class DecentralizedSpec(Record):
    """The resolved ``[decentralized]`` section: curvature bounds plus
    either explicit local functions (``curvatures`` with one ``centers``
    row per node) or the shape of the seeded random ones."""

    mu: float
    smoothness: float
    dimension: int = 1
    center_scale: float = 1.0
    curvatures: np.ndarray | None = None
    centers: np.ndarray | None = None


class ExperimentSpec(Record, frozen=False):
    """A fully validated experiment description.

    A gossip spec always carries its read-only start ``gossip_init``: the
    ``[gossip] init`` values, or a unit spike at node 0.
    """

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
    gossip_algo: str = SECTIONS["gossip"][1]
    gossip_init: np.ndarray | None = None
    decentralized: DecentralizedSpec | None = None

    def with_overrides(self, **kw) -> "ExperimentSpec":
        """A copy with each non-None keyword, a field of ``OVERRIDES``, set
        through its rule (a new horizon brings the default grid); one
        ConfigError lists every violation.  Any other keyword is a TypeError."""
        if stray := [k for k in kw if k not in OVERRIDES]:
            raise TypeError(f"with_overrides takes only {', '.join(OVERRIDES)}, got {stray}")
        errors: list[str] = []
        given = {k: (f"{k}={v!r}", v) for k, v in kw.items() if v is not None}
        fields = override_fields(given, errors)
        if errors:
            raise ConfigError(errors)
        return replace(self, **fields)


def log_spaced_checkpoints(horizon: float, count: int) -> np.ndarray:
    """The default grid: ``count`` log-spaced times in [1, horizon], read-only."""
    if not 1 < horizon < math.inf:
        raise ValueError(f"log-spaced checkpoints need a finite horizon > 1, got {horizon}")
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
    return read_only(grid)


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
    the ValueError it raises: each of a ConfigError's, unprefixed, and each
    of a GraphError's after ``where``."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        errors.extend(exc.violations)
    except ValueError as exc:  # a GraphError lists each of its faults
        errors += [f"{where} {v}" for v in getattr(exc, "violations", [exc])]
    return None


def override_fields(given: dict[str, tuple[str, object]], errors: list[str]) -> dict:
    """The spec fields that ``given`` sets, each field name mapped to (where
    its value comes from, the value); a violation is recorded in ``errors``
    as ``where: fault``."""
    fields: dict = {}
    for key, (where, value) in given.items():
        fields.update(_attempt(errors, f"{where}:", OVERRIDES[key], value) or {})
    return fields


def _initial_x(problem: ConvexProblem, text: str) -> np.ndarray:
    if text == "optimum":
        return problem.optimum
    if text == "zeros":
        return np.zeros(problem.dimension)
    return check_point(problem, parse_floats(text))


def resolve_algo(section, problem: ConvexProblem | None) -> AlgoSpec | None:
    """Build the ``[algo]`` section (any str -> str mapping) for ``problem``.

    Raises ConfigError listing every violation.  Without a problem (one that
    failed to build) only the checks that need none run, and None returns.
    """
    errors: list[str] = []
    read = partial(_read, errors, "algo", section)
    method = section.get("method", SECTIONS["algo"][1])
    _attempt(errors, "[algo]", parse_choice, method, METHOD_KEYS, "method")
    variant = section.get("variant", "convex")
    step = read("step", parse_float)
    iters = read("iters", partial(parse_int, least=1))
    clock_kind, clock = section.get("clock", "exponential"), None
    if _attempt(errors, "[algo]", parse_choice, clock_kind, CLOCKS, "clock"):
        build, defaults = CLOCKS[clock_kind]
        errors += [f"[algo] key '{k}' does not apply to clock {clock_kind}"
                   for _, keys in CLOCKS.values() for k in keys
                   if k in section and k not in defaults]
        args = [read(key, parse_float, default) for key, default in defaults.items()]
        clock = _attempt(errors, "[algo]", build, *args)
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
    from ..dual import check_curvatures  # only a decentralized spec loads the dual

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
        return log_spaced_checkpoints(horizon, parse_int(tokens[0], 1))
    grid = parse_floats(text)
    if grid.size == 0:
        raise ValueError("must list at least one time")
    return checkpoint_grid(grid, horizon)


def _section_faults(sections: dict[str, dict], kind: str) -> list[str]:
    """Every violation of SECTIONS and KINDS by the ``sections`` of a ``kind``
    experiment; each stray key is dropped, so that no later check reads it."""
    label = "a preset config" if kind == "preset" else f"kind {kind}"
    required, optional = KINDS.get(kind, ((), ()))  # an unknown kind is named later
    errors = [f"missing [{name}] section for {label}" for name in required if name not in sections]
    for name, section in sections.items():
        if name not in SECTIONS:
            errors.append(f"unknown section [{name}]")
        elif kind in KINDS and name not in ("experiment", *required, *optional):
            errors.append(f"section [{name}] does not apply to {label}")
        else:
            key, default, variants = SECTIONS[name]
            variant = kind if name == "experiment" else section.get(key, default)
            # under an unknown variant (its builder names it) only keys no variant reads are stray
            reads = variants.get(variant, set().union(*variants.values()))
            for k in [k for k in section if k not in (key, *reads)]:
                errors.append(f"[{name}] key '{k}' does not apply to "
                              + (f"{key} {variant}" if key else label))
                del section[k]
    return errors


def spec_from_sections(sections: dict[str, dict]) -> ExperimentSpec:
    """The spec of a config's sections (name -> key -> text), or a
    ConfigError listing every violation."""
    sections = {name: dict(keys) for name, keys in sections.items()}  # stray keys are dropped
    exp = sections.get("experiment", {})
    kind = "preset" if "preset" in exp else exp.get("kind", "")
    errors = _section_faults(sections, kind)
    # a full config's horizon may come with its own checkpoints, read below
    keys = [k for k in OVERRIDES if k in exp and (kind == "preset" or k != "horizon")]
    fields = override_fields({k: (f"[experiment] {k} = {exp[k]}", exp[k]) for k in keys}, errors)

    if kind == "preset":
        from .presets import get_preset, preset_names

        # "kind = preset" names none; the refusal names no section, as ``reproduce`` prints it
        try:
            spec = get_preset(parse_choice(exp.get("preset", ""), preset_names(), "preset"))
        except ValueError as exc:
            errors.append(str(exc))
        if errors:
            raise ConfigError(errors)
        return replace(spec, **fields)

    horizon = _read(errors, "experiment", exp, "horizon", parse_float)
    if horizon is not None:
        horizon = _attempt(errors, "[experiment]", check_horizon, horizon)
    _attempt(errors, "[experiment]", parse_choice, kind, EXPERIMENT_KINDS, "kind")

    checkpoints = None
    if kind in RUN_KINDS:
        if "horizon" not in exp:
            errors.append("[experiment] missing required field 'horizon'")
        elif horizon is not None:
            checkpoints = _attempt(
                errors, "[experiment] checkpoints:", _checkpoints,
                exp.get("checkpoints", str(DEFAULT_CHECKPOINT_COUNT)), horizon,
            )

    spec = ExperimentSpec(
        kind=kind if kind in EXPERIMENT_KINDS else "optimize",
        horizon=horizon,
        checkpoints=checkpoints,
        **fields,
    )

    if kind == "optimize":
        algo = sections.get("algo", {})
        if (method := algo.get("method", SECTIONS["algo"][1])) in BASELINE_METHODS:
            # the deterministic baselines report every iteration t = 0..iters and draw no noise
            if "checkpoints" in exp:
                errors.append(f"[experiment] key 'checkpoints' does not apply to method {method}")
            if sections.pop("noise", None) is not None:
                errors.append(f"section [noise] does not apply to method {method}")
        if "problem" in sections:
            spec.problem = _attempt(errors, "[problem]", problem_from_section, sections["problem"])
        if "noise" in sections:
            spec.noise = _attempt(errors, "[noise]", noise_from_section, sections["noise"])
        if spec.problem is not None and spec.noise is not None:
            _attempt(errors, "[noise]", check_noise, spec.problem, spec.noise)
        spec.algo = _attempt(errors, "[algo]", resolve_algo, algo, spec.problem)

    elif "graph" in KINDS.get(kind, ((), ()))[0]:  # the kinds that require a graph
        if "graph" in sections:
            gfields = sections["graph"]
            topology = gfields.pop("topology", "")
            spec.graph = _attempt(errors, "[graph]", build_graph, topology, **gfields)
        node_count = None if spec.graph is None else spec.graph.node_count
        if kind == "gossip":
            gsec = sections.get("gossip", {})
            spec.gossip_algo = gsec.get("algo", SECTIONS["gossip"][1])
            _attempt(errors, "[gossip]", parse_choice, spec.gossip_algo, GOSSIP_ALGOS, "algo")
            if gsec.get("init", "spike") != "spike":
                spec.gossip_init = _read(errors, "gossip", gsec, "init", parse_floats)
            elif node_count is not None:  # a unit spike at node 0
                spec.gossip_init = np.eye(1, node_count)[0]
            if spec.gossip_init is not None and node_count is not None:
                # read-only: every run starts from it
                spec.gossip_init = _attempt(errors, "[gossip] init:", check_node_values,
                                            read_only(spec.gossip_init), node_count)
        if kind == "decentralized" and "decentralized" in sections:
            spec.decentralized = _attempt(
                errors, "[decentralized]", _decentralized, sections["decentralized"], node_count
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
    import configparser  # presets and overrides never read INI text

    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse config: {exc}"]) from exc
    return spec_from_sections({name: cp[name] for name in cp.sections()})
