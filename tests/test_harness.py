import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import continuized.graphs
from continuized.graphs import (
    TOPOLOGY_FIELDS,
    complete_graph,
    cycle_graph,
    grid_graph,
    line_graph,
    spectral,
)
from continuized.harness.config import (
    AlgoSpec,
    ConfigError,
    log_spaced_checkpoints,
    parse_config,
    parse_config_text,
)
from continuized.harness import runner
from continuized.harness.csvio import emit_csv, load_csv, render_csv
from continuized.harness.presets import PRESETS, get_preset, preset_names
from continuized.harness.runner import (
    RunSet,
    aggregate_values,
    resolve,
    run_experiment,
)
from continuized.schedules import EventClock

MINIMAL_OPTIMIZE = """
[experiment]
kind = optimize
horizon = 20

[problem]
kind = quadratic
diag = 0.01 0.03 1.0
center = 1 1 1
"""

GOSSIP_CFG = """
[experiment]
kind = gossip
horizon = 30
runs = 5
seed = 7
checkpoints = 1 10 30

[graph]
topology = complete
nodes = 10
"""


README = Path(__file__).resolve().parents[1] / "README.md"


class TestParseConfig:
    def test_readme_config_examples_parse(self):
        blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
        assert len(blocks) == 3
        for block in blocks:
            # the [graph]/[gossip] fragment belongs to a gossip experiment
            if "[experiment]" not in block:
                block = "[experiment]\nkind = gossip\nhorizon = 100\n\n" + block
            parse_config_text(block)

    def test_minimal_defaults(self):
        spec = parse_config_text(MINIMAL_OPTIMIZE)
        assert spec.runs == 1000
        assert spec.checkpoints.shape == (50,)
        assert spec.checkpoints[0] == 1.0
        assert spec.checkpoints[-1] == pytest.approx(20.0)
        assert spec.problem.smoothness == 1.0
        assert spec.noise.kind == "none"

    def test_negative_horizon_named(self):
        bad = MINIMAL_OPTIMIZE.replace("horizon = 20", "horizon = -3")
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert any("horizon" in v for v in err.value.violations)

    def test_unknown_key_rejected(self):
        bad = MINIMAL_OPTIMIZE + "\n[algo]\nwarp = 9\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert any("warp" in v for v in err.value.violations)

    def test_all_violations_collected(self):
        bad = """
[experiment]
kind = optimize
horizon = -1
runs = 0
"""
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        text = " ".join(err.value.violations)
        assert "horizon" in text and "runs" in text and "[problem]" in text

    def test_decentralized_section_lists_each_violation_in_order(self):
        bad = GOSSIP_CFG.replace("kind = gossip", "kind = decentralized")
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad + "\n[decentralized]\ndimension = 0\n")
        assert err.value.violations == [
            "[decentralized] missing required field 'mu'",
            "[decentralized] missing required field 'smoothness'",
            "[decentralized] dimension: must be an integer >= 1, got '0'",
        ]

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/definitely/not/here.cfg")

    def test_preset_expansion(self):
        spec = parse_config_text(
            "[experiment]\npreset = appendix-a1-strongly-convex\nruns = 10\n"
        )
        assert spec.runs == 10
        assert spec.problem.strong_convexity == pytest.approx(0.01)
        assert spec.problem.smoothness == 1.0
        assert spec.kind == "optimize"

    def test_preset_with_foreign_section_rejected(self):
        bad = "[experiment]\npreset = appendix-a1-convex\n\n[graph]\ntopology = line\nnodes = 3\n"
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_preset_kind_without_a_preset_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("[experiment]\nkind = preset\n")
        assert f"unknown preset ''; choose from {', '.join(preset_names())}" in err.value.violations

    def test_explicit_checkpoints_validated(self):
        bad = MINIMAL_OPTIMIZE.replace("horizon = 20", "horizon = 20\ncheckpoints = 5 2")
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert any("increasing" in v for v in err.value.violations)

    def test_empty_checkpoint_list_rejected(self):
        bad = MINIMAL_OPTIMIZE.replace("horizon = 20", "horizon = 20\ncheckpoints =")
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert err.value.violations == ["[experiment] checkpoints: must list at least one time"]

    def test_gossip_config(self):
        spec = parse_config_text(GOSSIP_CFG)
        assert spec.kind == "gossip"
        assert spec.graph.node_count == 10
        assert spec.gossip_algo == "accelerated"

    def test_section_kind_mismatch(self):
        bad = GOSSIP_CFG + "\n[problem]\nkind = quadratic\ndiag = 1\ncenter = 0\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert any("does not apply" in v for v in err.value.violations)

    def test_algo_resolved_at_parse(self):
        spec = parse_config_text(MINIMAL_OPTIMIZE + "\n[algo]\nx0 = 1 2 3\n")
        assert isinstance(spec.algo, AlgoSpec)
        assert spec.algo.method == "continuized"
        assert spec.algo.schedule.kind == "strongly_convex"
        assert (spec.algo.clock.kind, spec.algo.clock.rate) == ("exponential", 1.0)
        assert spec.algo.step == 1.0 / spec.problem.smoothness
        assert spec.algo.iters is None
        np.testing.assert_array_equal(spec.algo.x0, [1.0, 2.0, 3.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.algo.method = "gd"

    def test_horizon_override_recomputes_grid(self):
        spec = parse_config_text(MINIMAL_OPTIMIZE).with_overrides(horizon=50.0)
        np.testing.assert_array_equal(spec.checkpoints, log_spaced_checkpoints(50.0, 50))
        kept = dataclasses.replace(spec.with_overrides(horizon=60.0),
                                   checkpoints=np.array([1.0, 60.0]))
        np.testing.assert_array_equal(kept.checkpoints, [1.0, 60.0])

    @pytest.mark.parametrize("overrides, violations", [
        ({"runs": 0}, ["runs=0: must be an integer >= 1, got 0"]),
        ({"runs": -3}, ["runs=-3: must be an integer >= 1, got -3"]),
        ({"horizon": np.inf}, ["horizon=inf: log-spaced checkpoints need a finite horizon > 1"]),
        ({"runs": 2.5, "seed": "x", "horizon": 0.5, "include_bounds": "maybe"},
         ["runs=2.5: must be an integer", "seed='x': must be an integer",
          "horizon=0.5: log-spaced checkpoints need a finite horizon > 1",
          "include_bounds='maybe': not a boolean"]),
        ({"seed": -1}, ["seed=-1: must be an integer >= 0, got -1"]),
        ({"seed": 2**64}, [f"seed={2**64}: must be in [0, 2**64)"]),
    ])
    def test_with_overrides_refuses_what_the_config_refuses(self, overrides, violations):
        # the typed overrides follow the rules of the [experiment] keys, and
        # one ConfigError lists each violation, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as err:
                get_preset("appendix-a1-convex").with_overrides(**overrides)
        assert len(err.value.violations) == len(violations)
        for line, violation in zip(err.value.violations, violations):
            assert line.startswith(violation), (line, violation)

    def test_with_overrides_takes_typed_values(self):
        base = get_preset("appendix-a2-complete10")
        spec = base.with_overrides(seed=7, runs=3, include_bounds=False, out="")
        assert (spec.seed, spec.runs, spec.include_bounds, spec.out) == (7, 3, False, "")
        np.testing.assert_array_equal(spec.checkpoints, base.checkpoints)

    @pytest.mark.parametrize("field, value", [
        ("checkpoints", np.array([5.0, 1.0, 1e9])), ("gossip_init", np.ones(10)),
        ("kind", "gossip"),
    ])
    def test_with_overrides_takes_only_the_overridable_fields(self, field, value):
        # any other field would reach the spec past the rule that builds it:
        # unsorted checkpoints beyond the horizon, or a writable gossip start
        with pytest.raises(TypeError, match=f"got \\['{field}'\\]"):
            get_preset("appendix-a2-complete10").with_overrides(seed=3, **{field: value})

    @pytest.mark.parametrize("horizon", [np.inf, np.nan])
    def test_log_spaced_checkpoints_refuse_a_non_finite_horizon(self, horizon):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="need a finite horizon > 1"):
                log_spaced_checkpoints(horizon, 50)

    def test_largest_float_horizon_parses_without_warnings(self):
        text = MINIMAL_OPTIMIZE.replace("horizon = 20", "horizon = 1.7976931348623157e308")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = parse_config_text(text).checkpoints
        assert np.all(np.isfinite(grid))
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] == 1.7976931348623157e308

    def test_preset_horizon_too_short_is_a_violation(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("[experiment]\npreset = appendix-a1-convex\nhorizon = 0.5\n")
        assert any("horizon > 1" in v for v in err.value.violations)


# Each numeric key of these sections, fuzzed one at a time on a base that
# parses and whose method reads the key; the parser must answer with a spec
# or a ConfigError, nothing else.
_OPTIMIZE = {
    "experiment": {"kind": "optimize", "horizon": "20", "runs": "2", "seed": "3",
                   "checkpoints": "10"},
    "problem": {"kind": "quadratic", "diag": "0.01 0.03 1.0", "center": "1 1 1"},
    "noise": {"kind": "additive", "sigma2": "1e-4"},
}
FUZZ_BASES = {
    # the deterministic baselines read no checkpoints and no noise
    "gd": {"experiment": {k: v for k, v in _OPTIMIZE["experiment"].items()
                          if k != "checkpoints"},
           "problem": _OPTIMIZE["problem"],
           "algo": {"method": "gd", "step": "0.5", "iters": "10", "x0": "0 0 0"}},
    "exponential": {**_OPTIMIZE, "algo": {"method": "continuized", "clock": "exponential",
                                          "rate": "1.0"}},
    "geometric": {**_OPTIMIZE, "algo": {"method": "continuized", "clock": "geometric",
                                        "p": "0.5", "tick": "0.5"}},
    "decentralized": {
        "experiment": {"kind": "decentralized", "horizon": "20"},
        "graph": {"topology": "line", "nodes": "3"},
        "decentralized": {"mu": "0.5", "smoothness": "1.0", "dimension": "1",
                          "curvatures": "0.5 0.75 1.0",
                          "centers": "\n    0.1\n    0.2\n    0.3"},
    },
    "decentralized-random": {
        "experiment": {"kind": "decentralized", "horizon": "20"},
        "graph": {"topology": "line", "nodes": "3"},
        "decentralized": {"mu": "0.5", "smoothness": "1.0", "dimension": "2",
                          "center_scale": "1.0"},
    },
}

FUZZ_KEYS = (
    [("gd", "experiment", k) for k in ("runs", "seed", "horizon")]
    + [("exponential", "experiment", "checkpoints")]
    + [("gd", "algo", k) for k in ("step", "iters", "x0")]
    + [("exponential", "algo", "rate")]
    + [("geometric", "algo", k) for k in ("p", "tick")]
    + [("exponential", "noise", "sigma2"), ("decentralized", "experiment", "horizon")]
    + [("decentralized", "decentralized", k)
       for k in ("mu", "smoothness", "dimension", "curvatures", "centers")]
    + [("decentralized-random", "decentralized", "center_scale")]
)

# Any text: a checkpoint count above MAX_CHECKPOINT_COUNT is a violation, so
# no value asks for a huge grid.
FUZZ_VALUES = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "-1", "0", "1e309", "abc", "1 2", "0.5"]),
    st.text(),
    st.floats().map(repr),
    st.integers(-10**4, 10**4).map(str),
)


def test_fuzz_bases_parse():
    for sections in FUZZ_BASES.values():
        assert parse_config_text(_render(sections)).kind == sections["experiment"]["kind"]


def _render(sections) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
        for name, keys in sections.items()
    )


@pytest.mark.parametrize(
    "base, section, key", FUZZ_KEYS,
    ids=[f"{FUZZ_BASES[base]['experiment']['kind']}.{section}.{key}"
         for base, section, key in FUZZ_KEYS],
)
@settings(max_examples=60, deadline=None)
@given(value=FUZZ_VALUES)
def test_fuzzed_numeric_key_parses_or_raises_config_error(base, section, key, value):
    sections = {name: dict(keys) for name, keys in FUZZ_BASES[base].items()}
    sections[section][key] = value
    try:
        parse_config_text(_render(sections))
    except ConfigError as exc:
        assert exc.violations


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def optimize_configs(draw):
    """(INI text with repr floats, the drawn values) of an optimize config:
    a quadratic, explicit checkpoints and an exponential or geometric clock.
    The clock is None for a geometric p too small for its longest wait."""
    d = draw(st.integers(1, 4))
    horizon = draw(st.floats(min_value=1.0, exclude_min=True, allow_infinity=False))
    times = st.floats(min_value=0.0, max_value=horizon, exclude_min=True)
    drawn = {
        "diag": draw(st.lists(POSITIVE, min_size=d, max_size=d)),
        "center": draw(st.lists(FINITE, min_size=d, max_size=d)),
        "runs": draw(st.integers(1, 10**9)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "horizon": horizon,
        "checkpoints": sorted(set(draw(st.lists(times, min_size=1, max_size=6)))),
    }
    if draw(st.booleans()):
        drawn["clock"] = EventClock.exponential(draw(POSITIVE))
        clock_keys = f"clock = exponential\nrate = {drawn['clock'].rate!r}\n"
    else:
        p = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
        tick = draw(POSITIVE)
        try:
            drawn["clock"] = EventClock.geometric(p, tick)
        except ValueError:
            drawn["clock"] = None
        clock_keys = f"clock = geometric\np = {p!r}\ntick = {tick!r}\n"

    def floats(key):
        return " ".join(map(repr, drawn[key]))

    text = (
        f"[experiment]\nkind = optimize\nruns = {drawn['runs']}\nseed = {drawn['seed']}\n"
        f"horizon = {horizon!r}\ncheckpoints = {floats('checkpoints')}\n\n"
        f"[problem]\nkind = quadratic\ndiag = {floats('diag')}\n"
        f"center = {floats('center')}\n\n"
        f"[algo]\nmethod = continuized\n{clock_keys}"
    )
    return text, drawn


@settings(max_examples=200, deadline=None)
@given(optimize_configs())
def test_optimize_config_round_trips(case):
    text, drawn = case
    if drawn["clock"] is None:
        with pytest.raises(ConfigError, match=r"\[algo\] p = \S+ is too small"):
            parse_config_text(text)
        return
    spec = parse_config_text(text)
    assert (spec.kind, spec.algo.method) == ("optimize", "continuized")
    assert (spec.runs, spec.seed, spec.horizon) == (drawn["runs"], drawn["seed"], drawn["horizon"])
    assert spec.checkpoints.tolist() == drawn["checkpoints"]
    assert spec.problem.diag.tolist() == drawn["diag"]
    assert spec.problem.optimum.tolist() == drawn["center"]
    assert spec.algo.clock == drawn["clock"]


@st.composite
def graph_sections(draw):
    """(the [graph] section as INI text, the node count, the drawn edges and
    their weights) of any topology, every field drawn."""
    topology = draw(st.sampled_from(sorted(TOPOLOGY_FIELDS)))
    if topology == "grid":
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 4))
        n, fields = rows * cols, f"rows = {rows}\ncols = {cols}\n"
        edges = grid_graph(rows, cols).edges
    elif topology == "edge_list":
        n = draw(st.integers(2, 6))
        # a spanning path keeps the graph connected; any other pairs may join it
        others = [(v, w) for v in range(n) for w in range(v + 2, n)]
        extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        edges = tuple([(v, v + 1) for v in range(n - 1)] + extra)
    else:
        n = draw(st.integers(3 if topology == "cycle" else 2, 8))
        fields = f"nodes = {n}\n"
        edges = {"line": line_graph, "cycle": cycle_graph, "complete": complete_graph}[
            topology](n).edges
    if topology == "edge_list":
        weights = draw(st.lists(POSITIVE, min_size=len(edges), max_size=len(edges)))
        fields = "edges =\n" + "".join(f"    {v} {w} {p!r}\n" for (v, w), p in zip(edges, weights))
    else:
        weights = [1.0] * len(edges)
    return f"[graph]\ntopology = {topology}\n{fields}", n, edges, weights


@st.composite
def graph_configs(draw):
    """(INI text with repr floats, the drawn values) of a gossip or a
    decentralized config with explicit checkpoints, on any topology."""
    graph_text, n, edges, weights = draw(graph_sections())
    horizon = draw(st.floats(min_value=1.0, exclude_min=True, allow_infinity=False))
    times = st.floats(min_value=0.0, max_value=horizon, exclude_min=True)
    drawn = {
        "kind": draw(st.sampled_from(["gossip", "decentralized"])),
        "runs": draw(st.integers(1, 10**9)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "horizon": horizon,
        "checkpoints": sorted(set(draw(st.lists(times, min_size=1, max_size=6)))),
        "nodes": n, "edges": edges, "weights": weights,
    }

    def floats(values):
        return " ".join(map(repr, values))

    if drawn["kind"] == "gossip":
        drawn["algo"] = draw(st.sampled_from(["accelerated", "naive"]))
        drawn["init"] = draw(st.lists(FINITE, min_size=n, max_size=n))
        section = f"[gossip]\nalgo = {drawn['algo']}\ninit = {floats(drawn['init'])}\n"
    else:
        mu = draw(POSITIVE)
        smoothness = draw(st.floats(min_value=mu, allow_infinity=False))
        d = draw(st.integers(1, 3))
        drawn.update(
            mu=mu, smoothness=smoothness,
            curvatures=draw(st.lists(st.floats(mu, smoothness), min_size=n, max_size=n)),
            centers=draw(st.lists(st.lists(FINITE, min_size=d, max_size=d),
                                  min_size=n, max_size=n)),
        )
        rows = "".join(f"    {floats(row)}\n" for row in drawn["centers"])
        section = (f"[decentralized]\nmu = {mu!r}\nsmoothness = {smoothness!r}\n"
                   f"curvatures = {floats(drawn['curvatures'])}\ncenters =\n{rows}")
    text = (
        f"[experiment]\nkind = {drawn['kind']}\nruns = {drawn['runs']}\n"
        f"seed = {drawn['seed']}\nhorizon = {horizon!r}\n"
        f"checkpoints = {floats(drawn['checkpoints'])}\n\n{graph_text}\n{section}"
    )
    return text, drawn


@settings(max_examples=200, deadline=None)
@given(graph_configs())
def test_graph_config_round_trips(case):
    text, drawn = case
    # the weights normalized as the graph builder does: one that underflows
    # to probability 0 beside the others must be named at parse time
    probs = np.array(drawn["weights"])
    with np.errstate(over="ignore"):
        total = probs.sum()
    if not np.isfinite(total):
        probs = probs / probs.max()
        total = probs.sum()
    zero = [e for e, p in zip(drawn["edges"], probs / total) if p == 0]
    if zero:
        with pytest.raises(ConfigError, match=re.escape(f"edges {zero}")):
            parse_config_text(text)
        return
    spec = parse_config_text(text)
    assert spec.kind == drawn["kind"]
    assert (spec.runs, spec.seed, spec.horizon) == (drawn["runs"], drawn["seed"], drawn["horizon"])
    assert spec.checkpoints.tolist() == drawn["checkpoints"]
    graph = spec.graph
    assert (graph.node_count, graph.edges) == (drawn["nodes"], drawn["edges"])
    # the weights, normalized to probabilities without overflow (the absolute
    # slack covers the few bits of subnormal probabilities)
    w = np.array(drawn["weights"]) / max(drawn["weights"])
    np.testing.assert_allclose(graph.edge_probs, w / w.sum(), rtol=1e-12, atol=1e-300)
    if drawn["kind"] == "gossip":
        assert spec.gossip_algo == drawn["algo"]
        assert spec.gossip_init.tolist() == drawn["init"]
        return
    dec = spec.decentralized
    assert (dec.mu, dec.smoothness) == (drawn["mu"], drawn["smoothness"])
    assert dec.dimension == len(drawn["centers"][0])
    assert dec.curvatures.tolist() == drawn["curvatures"]
    assert dec.centers.tolist() == drawn["centers"]


class TestPresets:
    def test_each_figure_family_has_a_preset(self):
        names = preset_names()
        assert "appendix-a1-convex" in names
        assert "appendix-a1-strongly-convex" in names
        assert "appendix-b-additive" in names
        for suffix in ("line30", "grid225", "complete10"):
            assert f"appendix-a2-{suffix}" in names

    def test_a1_strongly_convex_expands(self):
        spec = get_preset("appendix-a1-strongly-convex")
        assert spec.runs == 1000
        np.testing.assert_allclose(spec.problem.diag, [0.01, 0.03, 1.0])

    def test_a2_graphs(self):
        assert get_preset("appendix-a2-line30").graph.node_count == 30
        assert get_preset("appendix-a2-grid225").graph.node_count == 225
        assert get_preset("appendix-a2-complete10").graph.edge_count == 45

    def test_b_additive_noise_block(self):
        spec = get_preset("appendix-b-additive")
        assert spec.noise.kind == "additive"
        assert spec.noise.sigma2 == pytest.approx(3e-4)
        np.testing.assert_array_equal(spec.algo.x0, spec.problem.optimum)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_preset("appendix-z9")

    @pytest.mark.parametrize("name", preset_names())
    def test_preset_is_its_config_text(self, name):
        # a preset is the config a user would write, parsed by the same rules
        assert parse_config_text(_render(PRESETS[name])) == get_preset(name)

    @pytest.mark.parametrize("name", preset_names())
    def test_preset_equals_a_fresh_copy(self, name):
        # specs compare their array fields by value, as graphs do: a rebuilt
        # preset is equal, and a changed seed or checkpoint is not
        spec = get_preset(name)
        assert spec == get_preset(name)
        assert not spec != get_preset(name)
        assert spec != spec.with_overrides(seed=spec.seed + 1)
        moved = spec.checkpoints.copy()
        moved[-2] = 0.5 * (moved[-3] + moved[-2])
        assert spec != dataclasses.replace(spec, checkpoints=moved)
        assert spec == dataclasses.replace(spec, checkpoints=spec.checkpoints.copy())

    @pytest.mark.parametrize("name", preset_names())
    def test_checkpoint_grids_are_read_only(self, name, monkeypatch):
        # a spec, the specs its overrides return and the plan its runs share
        # may hold one grid object, so none of them can write to it
        spec = get_preset(name)
        plans = []
        monkeypatch.setattr(runner, "run_block", lambda plan, runs, streams: plans.append(plan))
        resolved = resolve(spec.with_overrides(runs=3))
        resolved.run_block([0])
        grids = [spec.checkpoints, spec.with_overrides(runs=3).checkpoints,
                 spec.with_overrides(horizon=spec.horizon / 2).checkpoints,
                 resolved.checkpoints, plans[0].grid]
        for grid in grids + [parse_config_text(GOSSIP_CFG).checkpoints]:
            with pytest.raises(ValueError, match="read-only"):
                grid[0] = 0.5

    def test_spec_fields_compare_by_value(self):
        spec = get_preset("appendix-a1-convex")
        algo = dataclasses.replace(spec.algo, x0=spec.algo.x0.copy())
        assert algo == spec.algo
        assert dataclasses.replace(algo, x0=algo.x0 + 1.0) != spec.algo
        dec = get_preset("decentralized-line10").decentralized
        explicit = dataclasses.replace(dec, curvatures=np.array([0.5, 1.0]),
                                       centers=np.array([[1.0], [2.0]]))
        assert explicit == dataclasses.replace(explicit, centers=np.array([[1.0], [2.0]]))
        assert explicit != dataclasses.replace(explicit, centers=np.array([[1.0], [3.0]]))
        assert explicit != dec

    def test_spec_equals_a_fresh_copy_after_running(self):
        # running an ensemble leaves its spec's value as it was
        spec = get_preset("appendix-a1-convex").with_overrides(runs=2, horizon=5.0)
        run_experiment(spec)
        assert spec == get_preset("appendix-a1-convex").with_overrides(runs=2, horizon=5.0)


class TestRunner:
    def test_repeat_runs_identical(self):
        spec = parse_config_text(GOSSIP_CFG)
        a = run_experiment(spec)
        b = run_experiment(spec)
        for m in a.metrics:
            np.testing.assert_array_equal(a.values[m], b.values[m])

    def test_single_run_aggregate_is_trace(self):
        spec = parse_config_text(GOSSIP_CFG).with_overrides(runs=1)
        rs = run_experiment(spec)
        np.testing.assert_array_equal(rs.aggregate["energy"]["mean"], rs.values["energy"][0])
        np.testing.assert_array_equal(rs.aggregate["energy"]["q05"], rs.values["energy"][0])

    def test_progress_hears_each_block(self):
        # blocks of a tenth of the runs: the CLI's progress lines, one every
        # tenth of the runs and the last, stay those of a run-by-run loop
        heard = []
        spec = parse_config_text(GOSSIP_CFG).with_overrides(runs=25)
        run_experiment(spec, progress=lambda done, total: heard.append((done, total)))
        assert heard == [(done, 25) for done in (*range(2, 25, 2), 25)]

    def test_quantile_order(self):
        spec = parse_config_text(GOSSIP_CFG)
        rs = run_experiment(spec)
        agg = rs.aggregate["energy"]
        med = np.quantile(rs.values["energy"], 0.5, axis=0)
        assert np.all(agg["q05"] <= med + 1e-15)
        assert np.all(med <= agg["q95"] + 1e-15)

    def test_quantiles_linear_interpolation(self):
        values = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        agg = aggregate_values(values, np.array([1.0]))
        assert agg["q05"][0] == pytest.approx(np.quantile([1, 2, 3, 4, 5], 0.05))
        assert agg["mean"][0] == pytest.approx(3.0)

    def test_optimize_runs_and_metrics(self):
        spec = parse_config_text(MINIMAL_OPTIMIZE).with_overrides(runs=3)
        rs = run_experiment(spec)
        assert set(rs.metrics) == {"gap", "dist_sq", "lyapunov"}
        assert rs.values["gap"].shape == (3, 50)

    def test_nesterov_baseline_grid_is_iterations(self):
        cfg = MINIMAL_OPTIMIZE + "\n[algo]\nmethod = nesterov\nvariant = strongly_convex\n"
        spec = parse_config_text(cfg).with_overrides(runs=1)
        rs = run_experiment(spec)
        np.testing.assert_array_equal(rs.checkpoints, np.arange(21.0))
        assert rs.values["gap"][0, -1] < rs.values["gap"][0, 0]

    def test_nesterov_convex_bounds_without_warnings(self):
        cfg = MINIMAL_OPTIMIZE.replace("horizon = 20", "horizon = 20\ninclude_bounds = true")
        cfg += "\n[algo]\nmethod = nesterov\n"
        spec = parse_config_text(cfg).with_overrides(runs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rs = run_experiment(spec)
        gap = rs.bounds["gap"]
        assert gap[0] == np.inf
        np.testing.assert_array_equal(gap[1:], 2.0 * 1.0 * 3.0 / rs.checkpoints[1:] ** 2)

    @pytest.mark.parametrize("step", ["", "step = 0.5\n"], ids=["one-over-l", "half"])
    def test_gd_bound_only_at_step_one_over_l(self, step):
        # gap0 (1 - mu/L)^t is the bound of gd at step 1/L (here L = 1);
        # another step gets no bound
        cfg = MINIMAL_OPTIMIZE.replace("horizon = 20", "horizon = 20\ninclude_bounds = true")
        rs = run_experiment(parse_config_text(cfg + "\n[algo]\nmethod = gd\n" + step))
        if step:
            assert rs.bounds == {}
        else:
            np.testing.assert_array_equal(
                rs.bounds["gap"], rs.values["gap"][0, 0] * 0.99 ** rs.checkpoints)

    def test_resolve_refuses_a_kind_without_runs(self):
        spec = parse_config_text("[experiment]\nkind = graph-info\n[graph]\n"
                                 "topology = line\nnodes = 4\n")
        with pytest.raises(ValueError, match="kind 'graph-info' does not produce a run set"):
            resolve(spec)

    def test_non_finite_values_name_metric_and_runs(self):
        values = np.array([[1.0, 2.0], [np.nan, 1.0], [1.0, 1.0], [1.0, np.inf]])
        with pytest.raises(FloatingPointError, match="metric energy is not finite in runs 1, 3"):
            aggregate_values(values, np.array([0.5, 2.0]), "energy")

    def test_non_finite_values_name_first_bad_checkpoint(self):
        # each bad run is named with the time of its first non-finite value
        values = np.array([[1.0, 2.0, 3.0], [1.0, np.nan, np.inf], [-np.inf, 1.0, 1.0]])
        grid = np.array([0.25, 1.0 / 3.0, 7.0])
        msg = ("metric gap is not finite in runs 1, 2 (first non-finite checkpoint: "
               "run 1 at t = 0.333333333333, run 2 at t = 0.25)")
        with pytest.raises(FloatingPointError, match=re.escape(msg)):
            aggregate_values(values, grid, "gap")

    def test_diverging_ensemble_names_each_run_at_its_first_bad_checkpoint(self):
        # the a1 quadratic on the strongly convex schedule with a p = 1
        # geometric clock grows at every tick = 5 event; the pair stays
        # finite up to the horizon and the certificate's products overflow
        # first, at the same checkpoint in every run
        cfg = MINIMAL_OPTIMIZE.replace("horizon = 20", "runs = 4\nhorizon = 2000")
        cfg += "\n[algo]\nschedule = strongly_convex\nclock = geometric\np = 1\ntick = 5\n"
        where = ", ".join(f"run {i} at t = 1712.62404266" for i in range(4))
        msg = f"metric lyapunov is not finite in runs 0, 1, 2, 3 (first non-finite checkpoint: {where})"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FloatingPointError, match=re.escape(msg)):
                run_experiment(parse_config_text(cfg))
        assert {(w.category, str(w.message)) for w in caught} == {
            (RuntimeWarning, "overflow encountered in multiply"),
            (RuntimeWarning, "overflow encountered in matmul"),
        }

    def test_decentralized_ensemble(self):
        spec = get_preset("decentralized-line10").with_overrides(runs=3, horizon=20.0)
        spec.checkpoints = log_spaced_checkpoints(20.0, 10)
        rs = run_experiment(spec)
        assert rs.values["primal_dist_sq"].shape == (3, 10)

    def test_bounds_attached_when_requested(self):
        spec = parse_config_text(GOSSIP_CFG)
        spec.include_bounds = True
        rs = run_experiment(spec)
        assert "energy" in rs.bounds
        assert rs.bounds["energy"][0] == pytest.approx(2.0 * 0.45 * np.exp(-1.0 / 9.0))

    @pytest.mark.parametrize("kind", ["gossip", "decentralized"])
    def test_gossip_bounds_reuse_the_one_spectral_cache(self, monkeypatch, kind):
        graphs = []
        monkeypatch.setattr(
            continuized.graphs, "spectral", lambda g: graphs.append(g) or spectral(g)
        )
        cfg = GOSSIP_CFG.replace("kind = gossip", f"kind = {kind}")
        if kind == "decentralized":
            cfg += "\n[decentralized]\nmu = 0.5\nsmoothness = 1.0\n"
        spec = parse_config_text(cfg)
        spec.include_bounds = True
        assert ("energy" in run_experiment(spec).bounds) == (kind == "gossip")
        assert len(graphs) == 1

    def test_multiplicative_config_end_to_end(self):
        cfg = """
[experiment]
kind = optimize
horizon = 20
runs = 50
seed = 3
checkpoints = 5 10 20
include_bounds = true

[problem]
kind = least_squares
optimum = 1 -1
samples =
    1.4142135623730951 0 | 1.4142135623730951
    0 1.4142135623730951 | -1.4142135623730951

[noise]
kind = multiplicative

[algo]
method = continuized
schedule = multiplicative_strongly_convex
"""
        spec = parse_config_text(cfg)
        assert spec.problem.r_squared == pytest.approx(2.0)
        rs = run_experiment(spec)
        assert "dist_sq" in rs.bounds
        # coordinate sampling in 2-d: rate 1/sqrt(kappa kappa~) = 1/2
        mean = rs.mean("dist_sq")
        assert mean[-1] < mean[0]
        assert np.all(0.5 * mean <= 1.1 * 0.5 * rs.bounds["dist_sq"] + 1e-12)

    @pytest.mark.parametrize("clock", [
        "clock = geometric\np = 1\ntick = 5",
        "clock = exponential\nrate = 2",
    ], ids=["geometric-tick5", "exponential-rate2"])
    def test_continuized_bound_only_on_rate_one_poisson_clock(self, clock):
        # on a deterministic 5-tick clock the strongly convex schedule blows
        # up (mean gap ~1e32 at t ~ 212), far above the Poisson-clock bound
        cfg = """
[experiment]
kind = optimize
horizon = 300
runs = 3
include_bounds = true

[problem]
kind = quadratic
diag = 0.01 0.03 1.0
center = 1 1 1

[algo]
method = continuized
schedule = strongly_convex
"""
        rs = run_experiment(parse_config_text(cfg + clock))
        assert rs.bounds == {}
        assert render_csv(rs).splitlines()[0] == "t,metric,mean,q05,q95"
        poisson = run_experiment(parse_config_text(cfg))
        assert set(poisson.bounds) == {"gap"}

    def test_run_failures_carry_run_index(self):
        cfg = """
[experiment]
kind = decentralized
horizon = 5
runs = 2

[graph]
topology = line
nodes = 3

[decentralized]
mu = 0.5
smoothness = 1.0
curvatures = 1.0 0.5 0.5
centers =
    0.1
    0.2
    0.3
"""
        # the parser rejects curvature 9.0 outside [mu, L]; set it on the
        # resolved spec so that the run itself fails
        spec = parse_config_text(cfg)
        spec.decentralized = dataclasses.replace(
            spec.decentralized, curvatures=np.array([9.0, 0.5, 0.5])
        )
        with pytest.raises(RuntimeError, match="run 0 failed"):
            run_experiment(spec)



# Magnitudes from 1e-300 to 1e300 of either sign.
SIGNED_MAGNITUDES = st.tuples(st.floats(1e-300, 1e300), st.booleans()).map(
    lambda m: -m[0] if m[1] else m[0])


@st.composite
def run_values(draw):
    """(runs, checkpoints) values with 1 to 1000 runs: each entry picked
    from a short list of signed magnitudes, so that ties and repeated values
    are common, or all drawn log-uniformly over the same range."""
    runs, columns = draw(st.integers(1, 1000)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = np.array(draw(st.lists(SIGNED_MAGNITUDES, min_size=1, max_size=12)))
        return pool[rng.integers(len(pool), size=(runs, columns))]
    signs = rng.choice([-1.0, 1.0], size=(runs, columns))
    return signs * 10.0 ** rng.uniform(-300, 300, size=(runs, columns))


@settings(deadline=None)
@given(run_values())
def test_quantiles_equal_np_quantile(values):
    # the runner's quantile rule on one sort is numpy's linear rule, bit for bit
    agg = aggregate_values(values, np.arange(1.0, values.shape[1] + 1))
    for key, q in (("q05", 0.05), ("q95", 0.95)):
        want = np.quantile(values, q, axis=0)
        assert np.array_equal(agg[key], want) and agg[key].tobytes() == want.tobytes()

class TestCsv:
    def _small_runset(self):
        spec = parse_config_text(GOSSIP_CFG)
        spec.include_bounds = True
        return run_experiment(spec)

    def test_header_and_shape(self, tmp_path):
        rs = self._small_runset()
        path = tmp_path / "out.csv"
        emit_csv(rs, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,metric,mean,q05,q95,bound"
        assert len(lines) == 1 + len(rs.checkpoints)

    def test_round_trip(self, tmp_path):
        rs = self._small_runset()
        path = tmp_path / "out.csv"
        emit_csv(rs, str(path))
        grid, series = load_csv(str(path))
        np.testing.assert_allclose(grid, rs.checkpoints, rtol=1e-11)
        np.testing.assert_allclose(series["energy"]["mean"],
                                   rs.aggregate["energy"]["mean"], rtol=1e-11)
        np.testing.assert_allclose(series["energy"]["bound"], rs.bounds["energy"],
                                   rtol=1e-11)

    def test_reaggregation_matches(self, tmp_path):
        # re-importing the emitted table reproduces the in-memory aggregate
        rs = self._small_runset()
        path = tmp_path / "out.csv"
        emit_csv(rs, str(path))
        _, series = load_csv(str(path))
        fresh = aggregate_values(rs.values["energy"], rs.checkpoints)
        np.testing.assert_allclose(series["energy"]["q05"], fresh["q05"], rtol=1e-11)
        np.testing.assert_allclose(series["energy"]["q95"], fresh["q95"], rtol=1e-11)

    def test_load_missing_file_names_it(self, tmp_path):
        path = tmp_path / "missing.csv"
        with pytest.raises(OSError, match=re.escape(f"no such file: {path}")):
            load_csv(str(path))

    def test_load_empty_file_names_it(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"empty file, no CSV header: {path}")):
            load_csv(str(path))

    def test_deterministic_bytes(self, tmp_path):
        rs1 = self._small_runset()
        rs2 = self._small_runset()
        assert render_csv(rs1) == render_csv(rs2)

    def test_empty_grid_header_only(self):
        rs = RunSet(checkpoints=np.array([]), metrics=("gap",),
                    values={"gap": np.empty((0, 0))}, aggregate={"gap": {}})
        assert render_csv(rs) == "t,metric,mean,q05,q95\n"

    def test_single_cell(self):
        values = {"gap": np.array([[2.0]])}
        grid = np.array([1.0])
        rs = RunSet(checkpoints=grid, metrics=("gap",),
                    values=values, aggregate={"gap": aggregate_values(values["gap"], grid)})
        lines = render_csv(rs).splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("1,gap,2,")

    def test_twelve_significant_digits(self):
        values = {"gap": np.array([[1.0 / 3.0]])}
        grid = np.array([1.0])
        rs = RunSet(checkpoints=grid, metrics=("gap",),
                    values=values, aggregate={"gap": aggregate_values(values["gap"], grid)})
        assert "0.333333333333" in render_csv(rs)

    def test_unwritable_path(self):
        rs = self._small_runset()
        with pytest.raises(OSError):
            emit_csv(rs, "/nonexistent-dir/nope/out.csv")
