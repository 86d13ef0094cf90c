"""Invariants of the continuized dynamics, checked on the presets.

Conservation: a pairwise jump moves equal and opposite amounts between the
two endpoints, and mixing contracts each node's pair toward its midpoint,
so the sum over nodes of x + z never changes.  Gossip starts from
x = z = x0, so the sum stays 2 sum(x0); the dual starts from y = z = 0, so
it stays 0.

Scaling: every engine is linear in its state and its data, and its random
draws do not depend on them.  Doubling the start and the optimum (and the
additive noise's standard deviation, so multiplying sigma2 by 4) doubles
every value the run computes; every metric is a square, so it becomes
exactly 4 times its old value, bit for bit, because a power of two
commutes with every correctly rounded operation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuized.dual import (
    DualParams,
    LocalFunction,
    decentralized_plan,
    random_local_functions,
    run_decentralized,
)
from continuized.dynamics import FLOAT_PAIR_MAX_DIM, run_continuized
from continuized.gossip import GOSSIP_ALGOS, GossipParams, gossip_plan, run_gossip
from continuized.harness import runner
from continuized.harness.config import spec_from_sections
from continuized.harness.presets import PRESETS, get_preset
from continuized.problems import NOISE_FIELDS, PROBLEM_FIELDS
from continuized.schedules import CLOCKS
from continuized.schedules import KINDS as SCHEDULE_KINDS
from continuized.seeding import run_streams
from continuized.trace import record_run

EPS = np.finfo(float).eps
GOSSIP_PRESETS = ["appendix-a2-line30", "appendix-a2-grid225", "appendix-a2-complete10"]


def _node_sums(trace):
    """sum_v (x_v + z_v) at each checkpoint, one column per component."""
    return np.array([np.sum(np.asarray(s.x) + np.asarray(s.z), axis=0) for s in trace.states])


def _tolerance(n, scale):
    # the sum adds 2n node values whose rounding errors are about eps times
    # the scale of the start, so it may drift by about 2 n eps scale
    return 2 * n * EPS * scale


@pytest.mark.parametrize("columns", [0, 2], ids=["1-D", "n-by-2"])
@pytest.mark.parametrize("name", GOSSIP_PRESETS)
def test_gossip_conserves_the_sum_of_x_and_z(name, columns):
    spec = get_preset(name)
    n = spec.graph.node_count
    x0 = spec.gossip_init
    if columns:
        x0 = np.column_stack([x0, np.random.default_rng(7).standard_normal(n)])
    params = GossipParams.from_cache(spec.graph.spectrum, spec.gossip_algo)
    plan = gossip_plan(spec.graph, params, x0, spec.horizon, spec.checkpoints)
    trace = record_run(plan, run_streams(spec.seed, 0))
    assert trace.events > 0 and len(trace.states) == len(spec.checkpoints)
    sums = _node_sums(trace)
    np.testing.assert_allclose(sums, np.broadcast_to(2 * x0.sum(axis=0), sums.shape), rtol=0,
                               atol=_tolerance(n, np.abs(x0).sum(axis=0).max()))


@pytest.mark.parametrize("dimension", [1, 2])
def test_dual_conserves_the_sum_of_y_and_z(dimension):
    spec = get_preset("decentralized-line10")
    cfg, n = spec.decentralized, spec.graph.node_count
    fns = random_local_functions(n, cfg.mu, cfg.smoothness, dimension, np.random.default_rng(3))
    params = DualParams.from_graph(spec.graph, cfg.mu, cfg.smoothness)
    plan = decentralized_plan(spec.graph, fns, cfg.mu, cfg.smoothness, spec.horizon, params,
                              spec.checkpoints)
    trace = record_run(plan, run_streams(spec.seed, 0))
    assert trace.events > 0
    sums = _node_sums(trace)
    # the start is 0, so the local functions' centers set the scale of y and z
    scale = sum(np.abs(np.atleast_1d(f.center)).sum() for f in fns)
    np.testing.assert_allclose(sums, 0.0, rtol=0, atol=_tolerance(n, scale))
    assert np.abs(np.array([np.asarray(s.z) for s in trace.states])).max() > 0


def _doubled(text):
    return " ".join(repr(2 * float(v)) for v in text.split())


def _scaled(name):
    """The sections of preset ``name`` with the start and the optimum (for
    the dual, the centers) doubled and sigma2 multiplied by 4."""
    sections = {key: dict(section) for key, section in PRESETS[name].items()}
    if "problem" in sections:
        # every optimize preset starts at 0 or at the optimum, which doubles with it
        assert sections["algo"].get("x0", "zeros") in ("zeros", "optimum")
        sections["problem"]["center"] = _doubled(sections["problem"]["center"])
        noise = sections.get("noise", {})
        if "sigma2" in noise:
            noise["sigma2"] = repr(4 * float(noise["sigma2"]))
    elif "decentralized" in sections:
        scale = float(sections["decentralized"].get("center_scale", "1.0"))
        sections["decentralized"]["center_scale"] = repr(2 * scale)
    else:
        init = get_preset(name).gossip_init.tolist()
        sections["gossip"] = {"init": _doubled(" ".join(map(repr, init)))}
    return sections


@pytest.mark.parametrize("name", [
    "appendix-a1-strongly-convex", "appendix-a1-convex", "appendix-b-additive",
    "appendix-a2-complete10", "decentralized-line10",
])
def test_doubling_the_data_quadruples_every_metric_bit_for_bit(name):
    base = get_preset(name).with_overrides(runs=2)
    scaled = spec_from_sections(_scaled(name)).with_overrides(runs=2)
    assert scaled.seed == base.seed
    runs = range(2)
    values, events = runner.resolve(base).run_block(runs)
    scaled_values, scaled_events = runner.resolve(scaled).run_block(runs)
    assert events.tolist() == scaled_events.tolist() and events.min() > 0
    assert set(scaled_values) == set(values)
    for metric, rows in values.items():
        assert np.all(rows != 0), metric
        np.testing.assert_array_equal(scaled_values[metric], 4 * rows, err_msg=metric)


# Dyadic values k/16 on a short range: doubling them, and every product and
# sum the runs form from them, stays far from overflow and underflow.
DYADIC = st.integers(-64, 64).map(lambda k: k / 16)
# The least-squares samples' atoms: full rank, so every schedule kind applies.
ATOMS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))


def _floats(values) -> str:
    return " ".join(map(repr, values))


@st.composite
def optimize_cases(draw):
    """The sections of a short optimize experiment over every noise kind,
    both clocks and every schedule its problem takes, and the same sections
    with the start, the optimum (a least-squares problem's targets too) and
    the additive noise's standard deviation doubled."""
    seed = draw(st.integers(0, 2**64 - 1))
    clock = draw(st.sampled_from(list(CLOCKS)))
    noise = draw(st.sampled_from(list(NOISE_FIELDS)))
    kind = "least_squares" if noise == "multiplicative" else \
        draw(st.sampled_from(list(PROBLEM_FIELDS)))
    # a quadratic at d = 3 runs on the float pair, above FLOAT_PAIR_MAX_DIM on the array pair
    d = 2 if kind == "least_squares" else draw(st.sampled_from([3, FLOAT_PAIR_MAX_DIM + 1]))
    optimum, x0 = (draw(st.lists(DYADIC, min_size=d, max_size=d)) for _ in range(2))
    schedule = draw(st.sampled_from(
        [k for k in SCHEDULE_KINDS if kind == "least_squares" or not k.startswith("mult")]))

    def sections(scale):
        center = [scale * v for v in optimum]
        if kind == "quadratic":
            diag = [1.0 / (i + 1) for i in range(d)]
            problem = {"diag": _floats(diag), "center": _floats(center)}
        else:
            samples = [f"{_floats(a)} | {float(np.dot(a, center))!r}" for a in ATOMS]
            problem = {"optimum": _floats(center), "samples": "\n".join(samples)}
        noise_keys = {"sigma2": repr(scale**2 * 3e-4)} if noise == "additive" else {}
        return {
            "experiment": {"kind": "optimize", "horizon": "20", "checkpoints": "6",
                           "seed": str(seed)},
            "problem": {"kind": kind, **problem},
            "noise": {"kind": noise, **noise_keys},
            "algo": {"schedule": schedule, "clock": clock, "x0": _floats(scale * v for v in x0)},
        }

    return sections(1), sections(2)


@st.composite
def pairwise_cases(draw):
    """The sections of a short gossip or decentralized experiment, and the
    same with the start (the local functions' centers) doubled."""
    seed = draw(st.integers(0, 2**64 - 1))
    kind = draw(st.sampled_from(["gossip", "decentralized"]))
    algo = draw(st.sampled_from(list(GOSSIP_ALGOS)))
    n = draw(st.integers(3, 6))
    values = draw(st.lists(DYADIC, min_size=n, max_size=n))
    curvatures = _floats(0.25 + 0.125 * v for v in range(n))

    def sections(scale):
        start = [repr(scale * v) for v in values]
        own = {"gossip": {"algo": algo, "init": " ".join(start)}} if kind == "gossip" else \
            {"decentralized": {"mu": "0.25", "smoothness": "1.0", "curvatures": curvatures,
                               "centers": "\n".join(start)}}
        return {"experiment": {"kind": kind, "horizon": "10", "checkpoints": "6",
                               "seed": str(seed)},
                "graph": {"topology": "complete", "nodes": str(n)}, **own}

    return sections(1), sections(2)


def _one_run(spec):
    """Run 0 of ``spec`` through its kind's one-run engine."""
    rng = run_streams(spec.seed, 0)
    if spec.kind == "optimize":
        algo = spec.algo
        return run_continuized(spec.problem, spec.noise, algo.schedule, algo.clock, spec.horizon,
                               rng, x0=algo.x0, checkpoints=spec.checkpoints)
    if spec.kind == "gossip":
        params = GossipParams.from_cache(spec.graph.spectrum, spec.gossip_algo)
        return run_gossip(spec.graph, params, spec.gossip_init, spec.horizon, rng,
                          checkpoints=spec.checkpoints)
    cfg = spec.decentralized
    fns = [LocalFunction(float(c), np.atleast_1d(cfg.centers[v]))
           for v, c in enumerate(cfg.curvatures)]
    return run_decentralized(spec.graph, fns, cfg.mu, cfg.smoothness, spec.horizon, rng,
                             checkpoints=spec.checkpoints)


def _assert_scaled(base, scaled):
    """Each metric of ``scaled`` is exactly 4 times ``base``'s, in blocks of
    two runs and in run 0 of the one-run engine, whose states double."""
    values, events = runner.resolve(base).run_block(range(2))
    scaled_values, scaled_events = runner.resolve(scaled).run_block(range(2))
    assert events.tolist() == scaled_events.tolist()
    assert set(scaled_values) == set(values)
    for metric, rows in values.items():
        np.testing.assert_array_equal(scaled_values[metric], 4 * rows, err_msg=metric)
    one, doubled = _one_run(base), _one_run(scaled)
    assert one.events == doubled.events == events[0]
    for metric, column in one.values.items():
        assert doubled.values[metric] == [4 * v for v in column], metric
        assert column == values[metric][0].tolist(), metric
    for state, twice in zip(one.states, doubled.states):
        np.testing.assert_array_equal(np.asarray(twice.x), 2 * np.asarray(state.x))
        np.testing.assert_array_equal(np.asarray(twice.z), 2 * np.asarray(state.z))


@settings(max_examples=30, deadline=None)
@given(optimize_cases())
def test_optimize_runs_scale_by_powers_of_two_bit_for_bit(case):
    _assert_scaled(*(spec_from_sections(sections) for sections in case))


@settings(max_examples=15, deadline=None)
@given(pairwise_cases())
def test_pairwise_runs_scale_by_powers_of_two_bit_for_bit(case):
    _assert_scaled(*(spec_from_sections(sections) for sections in case))
