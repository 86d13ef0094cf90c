"""The stacked checkpoint pass against per-checkpoint oracles.

Each engine captures its raw state at the checkpoints and synchronizes and
measures all of them at once after the run.  Here every recorded state is
rebuilt from a by-hand replay of the run's events, synchronized one
checkpoint at a time, and every recorded value is compared with the scalar
metric of its recorded ``Snapshot``.  The optimizer's replay steps x and z
as separate rows with allocating formulas, independent of the engine's
in-place (2, d) kernels.  All comparisons are exact.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from continuized import gossip, seeding
from continuized.dual import (
    DualParams,
    optimum_of,
    random_local_functions,
    run_decentralized,
)
from continuized.dynamics import (
    FLOAT_PAIR_MAX_DIM,
    continuized_plan,
    lyapunov_value,
    mix_closed_form,
    mix_to_checkpoints,
    run_continuized,
)
from continuized.gossip import (
    GossipParams,
    accelerated_step,
    energy,
    run_gossip,
    sample_event_stream,
)
from continuized.graphs import grid_graph, line_graph
from continuized.problems import (
    NoiseModel,
    make_least_squares,
    make_quadratic,
)
from continuized.harness import config, runner
from continuized.harness.presets import get_preset, preset_names
from continuized.schedules import (
    EventClock,
    ParamSchedule,
    SingularScheduleError,
    lyapunov_coeffs,
)
from continuized.seeding import RunStreams, run_streams
from continuized.trace import Snapshot
import oracles
from oracles import (
    ScriptedClock,
    conjugate_update,
    dual_coefs,
    event_times,
    mix_rows,
    replay,
    replay_nodes,
    replay_pairs,
    scalar_energy,
    scalar_primal_error,
    synchronize,
)

SEED = 31


def _grid(times, horizon, extra):
    """The event times, a few points between them, and the horizon."""
    return sorted({*times, *extra, horizon})


# ---------------------------------------------------------------- optimizer

def _quadratic():
    return make_quadratic([0.02, 0.3, 1.0], [1.0, -0.5, 2.0])


def _least_squares():
    atoms = [[1.0, 0.0, 0.5], [0.2, 1.0, 0.0], [0.0, -0.4, 1.0], [1.0, 1.0, 1.0]]
    return make_least_squares(atoms, [0.5, -1.0, 2.0], [1.0, 2.0, 1.0, 3.0])


def _wide_quadratic():
    # one dimension past the float pair's, so its runs keep a (2, d) array pair
    d = FLOAT_PAIR_MAX_DIM + 1
    return make_quadratic(np.linspace(0.02, 1.0, d), np.linspace(-1.0, 2.0, d))


def _multiplicative(kind):
    problem = _least_squares()
    return (problem, NoiseModel.multiplicative(), ParamSchedule.for_problem(problem, kind),
            EventClock.exponential())


HORIZON = 12.0
# case -> (problem, noise, schedule, clock)
OPTIMIZE_CASES = {
    "constant": lambda: (_quadratic(), NoiseModel.none(),
                         ParamSchedule.strongly_convex(1.0, 0.02), EventClock.exponential()),
    "two-over-t": lambda: (_quadratic(), NoiseModel.additive(0.01),
                           ParamSchedule.convex(1.0), EventClock.exponential()),
    "geometric-on-events": lambda: (_quadratic(), NoiseModel.none(),
                                    ParamSchedule.strongly_convex(1.0, 0.02),
                                    EventClock.geometric(1.0, 1.0)),
    "multiplicative": lambda: _multiplicative("multiplicative_strongly_convex"),
    "multiplicative-convex": lambda: _multiplicative("multiplicative_convex"),
    "additive-array-quadratic": lambda: (_wide_quadratic(), NoiseModel.additive(0.01),
                                         ParamSchedule.strongly_convex(1.0, 0.02),
                                         EventClock.exponential()),
    "additive-least-squares": lambda: (_least_squares(), NoiseModel.additive(0.01),
                                       ParamSchedule.for_problem(_least_squares(), "convex"),
                                       EventClock.exponential()),
}


def _x0(problem):
    return np.resize([0.5, 0.0, -1.0], problem.dimension)


@pytest.mark.parametrize("case", list(OPTIMIZE_CASES))
def test_optimizer_checkpoints_match_scalar_oracles(case):
    problem, noise, schedule, clock = OPTIMIZE_CASES[case]()
    times = event_times(clock, HORIZON, run_streams(SEED, 0))
    assert len(times) > 3
    if clock.kind == "geometric":
        grid = [float(k) for k in range(1, int(HORIZON) + 1)]  # every point is an event
        assert set(grid) <= set(times)
    else:
        grid = _grid(times, HORIZON, [0.3, 2.5, 7.25])
    x0 = _x0(problem)
    tr = run_continuized(problem, noise, schedule, clock, HORIZON, run_streams(SEED, 0),
                         x0=x0, checkpoints=grid)
    raw = replay_pairs(problem, noise, schedule, clock, grid, x0, HORIZON, SEED)
    assert [s.t for s in tr.states] == grid
    for i, (s, (x, z, now)) in enumerate(zip(tr.states, raw)):
        # the state is the last pre-checkpoint pair mixed to the checkpoint
        # (the pair itself when the checkpoint is its event time)
        want_x, want_z = mix_rows(x, z, now, schedule, s.t)
        assert (now == s.t) == (want_x is x)
        np.testing.assert_array_equal(s.x, want_x)
        np.testing.assert_array_equal(s.z, want_z)
        dx = s.x - problem.optimum
        assert tr.values["gap"][i] == problem.gap(s.x)
        assert tr.values["dist_sq"][i] == float(dx @ dx)
        assert tr.values["lyapunov"][i] == lyapunov_value(
            s, lyapunov_coeffs(schedule, s.t), problem)


def _scripted_streams(head):
    """``run_streams`` with the clock stream replaced: its first uniforms are
    ``head``, the rest come from a generator seeded with the run's seed."""
    def streams(seed, i=0):
        return RunStreams(clock=ScriptedClock(head, seed), noise=seeding.run_streams(seed, i).noise)

    return streams


@pytest.mark.parametrize("schedule", [ParamSchedule.strongly_convex(1.0, 0.02),
                                      ParamSchedule.convex(1.0)])
def test_optimizer_events_at_one_time_match_scalar_oracles(monkeypatch, schedule):
    # a uniform of 0.0 is a zero wait, so consecutive events fall at one
    # time: each later one mixes the pair over dt = 0, which must leave its
    # bits as they are
    head = [0.4, 0.0, 0.0, 0.7, 0.0, 0.25, 0.0, 0.0, 0.0, 0.6, 0.0]
    # the run below and the replay both read the scripted streams
    monkeypatch.setitem(globals(), "run_streams", _scripted_streams(head))
    monkeypatch.setattr(oracles, "run_streams", _scripted_streams(head))
    problem, noise, clock = _quadratic(), NoiseModel.additive(0.01), EventClock.exponential()
    times = event_times(clock, HORIZON, run_streams(SEED, 0))
    assert sum(b == a for a, b in zip(times, times[1:])) == head.count(0.0)
    grid = _grid(times, HORIZON, [0.3, 2.5, 7.25])
    x0 = np.array([0.5, 0.0, -1.0])
    tr = run_continuized(problem, noise, schedule, clock, HORIZON, run_streams(SEED, 0),
                         x0=x0, checkpoints=grid)
    raw = replay_pairs(problem, noise, schedule, clock, grid, x0, HORIZON, SEED)
    assert tr.events == len(times)
    for s, (x, z, now) in zip(tr.states, raw):
        want_x, want_z = mix_rows(x, z, now, schedule, s.t)
        np.testing.assert_array_equal(s.x, want_x)
        np.testing.assert_array_equal(s.z, want_z)


@pytest.mark.parametrize("preset", ["appendix-a1-convex", "appendix-a1-strongly-convex",
                                    "appendix-b-additive"])
def test_optimize_presets_match_row_replay_run_by_run(preset):
    # every recorded value of the preset's runs, at its own grid, equals the
    # scalar metric of the row replay's state there, bit for bit
    spec = get_preset(preset).with_overrides(runs=3)
    # Python floats, as the engine's grid: a numpy scalar would square as t * t
    grid = np.asarray(spec.checkpoints, dtype=float).tolist()
    schedule, clock = spec.algo.schedule, spec.algo.clock
    x0 = np.zeros(spec.problem.dimension) if spec.algo.x0 is None else spec.algo.x0
    values, events = runner.resolve(spec).run_block(range(spec.runs))
    assert events.min() > 0
    for i in range(spec.runs):
        raw = replay_pairs(spec.problem, spec.noise, schedule, clock, grid, x0,
                           spec.horizon, spec.seed, i)
        for k, (t, (x, z, now)) in enumerate(zip(grid, raw)):
            state = Snapshot(t, *mix_rows(x, z, now, schedule, t))
            dx = state.x - spec.problem.optimum
            assert values["gap"][i, k] == spec.problem.gap(state.x)
            assert values["dist_sq"][i, k] == float(dx @ dx)
            assert values["lyapunov"][i, k] == lyapunov_value(
                state, lyapunov_coeffs(schedule, t), spec.problem)


class Sealed:
    """A run's generator whose every draw raises once ``sealed`` is set,
    even through a method bound before."""

    def __init__(self, generator):
        self.generator, self.sealed = generator, False

    def __getattr__(self, name):
        method = getattr(self.generator, name)

        def draw(*args, **kwargs):
            if self.sealed:
                raise AssertionError(f"{name} drawn after the run started")
            return method(*args, **kwargs)

        return draw


def _preset_plan(monkeypatch, name):
    """The plan that ``runner.resolve`` builds for preset ``name``."""
    plans = []
    monkeypatch.setattr(runner, "run_block", lambda plan, runs, streams: plans.append(plan))
    runner.resolve(get_preset(name)).run_block(range(1))
    return plans[0]


def _case_plan(case):
    problem, noise, schedule, clock = OPTIMIZE_CASES[case]()
    return continuized_plan(problem, noise, schedule, clock, HORIZON, _x0(problem),
                            [0.3, 2.5, 7.25, HORIZON])


# every optimize preset, a gossip preset and the dual, and the float and
# array pairs under every noise kind each takes
NO_DRAW_PLANS = {
    **{name: partial(_preset_plan, name=name) for name in preset_names()
       if get_preset(name).kind == "optimize"},
    "appendix-a2-complete10": partial(_preset_plan, name="appendix-a2-complete10"),
    "decentralized-line10": partial(_preset_plan, name="decentralized-line10"),
    **{case: lambda _, case=case: _case_plan(case) for case in OPTIMIZE_CASES},
}


@pytest.mark.parametrize("case", list(NO_DRAW_PLANS))
def test_advance_draws_nothing(monkeypatch, case):
    # start makes every draw of a run: once it returns, the run's events
    # apply without touching either stream
    plan = NO_DRAW_PLANS[case](monkeypatch)
    streams = run_streams(SEED, 0)
    clock, noise = Sealed(streams.clock), Sealed(streams.noise)
    times, advance, _, _ = plan.start(RunStreams(clock=clock, noise=noise))
    clock.sealed = noise.sealed = True
    count = int(np.searchsorted(times, plan.horizon, side="right"))
    assert count > 3
    advance(0, count)


@pytest.mark.parametrize("preset", preset_names())
def test_blocks_match_replay_run_by_run(preset):
    # every run of every preset, in blocks of one run and in one block of the
    # whole ensemble, equals the hand replay of its own streams bit for bit
    spec = get_preset(preset).with_overrides(runs=3)
    resolved = runner.resolve(spec)
    whole, whole_events = resolved.run_block(range(spec.runs))
    for i in range(spec.runs):
        want, want_events = replay(spec, i)
        single, single_events = resolved.run_block(range(i, i + 1))
        assert set(want) == set(whole) == set(single)
        for m, row in want.items():
            assert np.array_equal(single[m][0], row) and np.array_equal(whole[m][i], row), m
        assert single_events.tolist() == [whole_events[i]] == [want_events]


# Ensembles whose node values are (n, 2) array rows, which no preset has:
# captured in groups of several runs (2 500 floats per run), and here split
# across two groups.  A config gives gossip one float per node, so the
# (n, 2) start is set on the spec itself.
VECTOR_SPECS = {
    "gossip-n-by-2": lambda: replace(
        get_preset("appendix-a2-complete10"),
        gossip_init=np.random.default_rng(4).standard_normal((10, 2))),
    "decentralized-dimension-2": lambda: config.parse_config_text("""
[experiment]
kind = decentralized
horizon = 450

[graph]
topology = line
nodes = 10

[decentralized]
mu = 0.1
smoothness = 1.0
dimension = 2
"""),
}


@pytest.mark.parametrize("case", list(VECTOR_SPECS))
def test_vector_blocks_match_replay_run_by_run(case):
    # as test_blocks_match_replay_run_by_run, on runs whose captures are
    # array rows: one block of the whole ensemble and blocks of one run
    spec = VECTOR_SPECS[case]().with_overrides(runs=7)
    resolved = runner.resolve(spec)
    whole, whole_events = resolved.run_block(range(spec.runs))
    for i in range(spec.runs):
        want, want_events = replay(spec, i)
        single, single_events = resolved.run_block(range(i, i + 1))
        assert set(want) == set(whole) == set(single)
        for m, row in want.items():
            assert np.array_equal(single[m][0], row) and np.array_equal(whole[m][i], row), m
        assert single_events.tolist() == [whole_events[i]] == [want_events]


def test_failing_run_in_a_block_is_named_by_its_index(monkeypatch):
    # twenty runs go in blocks of two; run 3, the second of its block, fails
    spec = get_preset("appendix-a1-convex").with_overrides(runs=20, horizon=5.0)
    monkeypatch.setattr(runner, "run_streams", lambda seed, i: _scripted_streams(
        [0.0] if i == 3 else [])(seed, i))
    with pytest.raises(RuntimeError, match="^run 3 failed: 2/t schedule is singular"):
        runner.run_experiment(spec)
    with pytest.raises(RuntimeError, match="^run 3 failed: "):
        runner.resolve(spec).run_block(range(spec.runs))


def test_time_varying_event_at_zero_is_singular(monkeypatch):
    # a first uniform of 0.0 puts the first event at t = 0, where the 2/t
    # jump size is singular; the run fails and the runner names it
    spec = get_preset("appendix-a1-convex").with_overrides(runs=3, horizon=5.0)
    monkeypatch.setattr(runner, "run_streams", lambda seed, i: _scripted_streams(
        [0.0] if i == 1 else [])(seed, i))
    with pytest.raises(RuntimeError, match="run 1 failed: 2/t schedule is singular") as info:
        runner.run_experiment(spec)
    assert isinstance(info.value.__cause__, SingularScheduleError)
    with pytest.raises(SingularScheduleError):
        run_continuized(spec.problem, spec.noise, spec.algo.schedule, spec.algo.clock, 5.0,
                        _scripted_streams([0.0])(SEED), checkpoints=[5.0])


@pytest.mark.parametrize("schedule", [ParamSchedule.strongly_convex(1.0, 0.02),
                                      ParamSchedule.convex(1.0)])
def test_mix_to_checkpoints_matches_mix_closed_form_row_by_row(schedule):
    # numpy's exp and power round differently from math.exp and Python ** on
    # a few inputs in a thousand, so many random rows are needed to see it
    rng = np.random.default_rng(2)
    count = 20_000
    pairs = rng.standard_normal((count, 2, 2))
    starts = rng.uniform(0.0, 50.0, count)
    grid = starts + rng.exponential(3.0, count)
    grid[::97] = starts[::97]  # checkpoints on their pair's event time
    xs, zs = mix_to_checkpoints(pairs[:, 0], pairs[:, 1], starts[:, None], schedule, grid)
    for pair, t, until, x, z in zip(pairs, starts.tolist(), grid.tolist(), xs, zs):
        np.testing.assert_array_equal(np.array([x, z]), mix_closed_form(pair, t, schedule, until))


def test_quadratic_gap_matches_per_point_dot():
    # the stacked quadratic value rounds as the per-point np.dot form did
    problem = make_quadratic(1.0 / np.arange(1, 101) ** 2, 1.0 / np.arange(1, 101))
    xs = np.random.default_rng(0).standard_normal((40, 100))
    stacked = problem.gap(xs)
    for x, got in zip(xs, stacked):
        d = x - problem.optimum
        assert got == float(0.5 * np.dot(problem.diag * d, d)) == problem.gap(x)


# ------------------------------------------------------ gossip and the dual

def _check_states(tr, raw, mix_rate):
    for s, (x, z, last_t) in zip(tr.states, raw):
        want_x, want_z = synchronize(x, z, last_t, mix_rate, s.t)
        np.testing.assert_array_equal(s.x, want_x)
        np.testing.assert_array_equal(s.z, want_z)


GOSSIP_CASES = {
    "scalar": ("accelerated", 1),
    "vector": ("accelerated", 3),
    "naive": ("naive", 1),
}


@pytest.mark.parametrize("case", list(GOSSIP_CASES))
def test_gossip_checkpoints_match_scalar_oracles(case):
    algo, dim = GOSSIP_CASES[case]
    graph, horizon = grid_graph(3, 4), 30.0
    params = GossipParams.from_cache(graph.spectrum, algo)
    x0 = np.random.default_rng(5).standard_normal(graph.node_count if dim == 1 else (12, dim))
    times = sample_event_stream(graph, horizon, run_streams(SEED, 0))[0]
    grid = _grid(times[::7].tolist(), horizon, [0.05, 1.0, 12.5])
    tr = run_gossip(graph, params, x0, horizon, run_streams(SEED, 0), checkpoints=grid)
    raw = replay_nodes(graph, x0, params.mix_rate, accelerated_step,
                       [params.z_step] * graph.edge_count,
                       sample_event_stream(graph, horizon, run_streams(SEED, 0)), grid)
    _check_states(tr, raw, params.mix_rate)
    target = np.mean(x0) if dim == 1 else x0.T.copy().mean(axis=1)
    for s, value in zip(tr.states, tr.values["energy"]):
        assert value == scalar_energy(s.x, target) == energy(s.x[None], target)[0]


@pytest.mark.parametrize("dim", [1, 2])
def test_gossip_events_at_one_time_match_scalar_oracles(monkeypatch, dim):
    # events that share a node at one time: the second mixes that node over
    # dt = 0, which must leave its pair's bits as they are
    graph, horizon = line_graph(4), 10.0
    rng = np.random.default_rng(12)
    times = np.repeat(np.sort(rng.uniform(0.0, horizon, 200)), 3)
    picks = rng.integers(0, graph.edge_count, times.size)
    shared = [
        k for k in range(1, times.size)
        if times[k] == times[k - 1] and set(graph.edges[picks[k]]) & set(graph.edges[picks[k - 1]])
    ]
    assert len(shared) > 20
    monkeypatch.setattr(gossip, "sample_event_stream", lambda *args: (times, picks))
    params = GossipParams.from_cache(graph.spectrum)
    x0 = rng.standard_normal(4 if dim == 1 else (4, dim))
    grid = _grid(times[::4].tolist(), horizon, [0.05, 5.0])
    tr = run_gossip(graph, params, x0, horizon, run_streams(SEED, 0), checkpoints=grid)
    raw = replay_nodes(graph, x0, params.mix_rate, accelerated_step,
                       [params.z_step] * graph.edge_count, (times, picks), grid)
    _check_states(tr, raw, params.mix_rate)
    assert tr.events == times.size


def _pairwise_run_at_its_event_times(engine, dim):
    """A gossip or dual run on line_graph(10) checkpointed at every one of
    its event times, and its ``lazy_mix_node`` replay there."""
    graph, horizon, streams = line_graph(10), 40.0, partial(run_streams, 9, 0)
    events = sample_event_stream(graph, horizon, streams())
    grid = events[0].tolist()
    shape = 10 if dim == 1 else (10, dim)
    if engine == "gossip":
        params = GossipParams.from_cache(graph.spectrum)
        x0 = np.random.default_rng(4).standard_normal(shape)
        tr = run_gossip(graph, params, x0, horizon, streams(), checkpoints=grid)
        return tr, replay_nodes(graph, x0, params.mix_rate, accelerated_step,
                                [params.z_step] * graph.edge_count, events, grid)
    fns = random_local_functions(10, 0.2, 1.0, dim, np.random.default_rng(4))
    tr = run_decentralized(graph, fns, 0.2, 1.0, horizon, streams(), checkpoints=grid)
    params = DualParams.from_graph(graph, 0.2, 1.0)
    return tr, replay_nodes(graph, np.zeros(shape), params.eta, conjugate_update,
                            dual_coefs(graph, fns, params), events, grid)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("engine", ["gossip", "dual"])
def test_checkpoint_at_an_event_holds_its_post_jump_values(engine, dim):
    # a node whose clock is the checkpoint is not mixed at all: a mix over
    # dt = 0 through the midpoint moves the last bit of some values
    tr, raw = _pairwise_run_at_its_event_times(engine, dim)
    held = 0
    for s, (x, z, clocks) in zip(tr.states, raw):
        at = clocks == s.t
        np.testing.assert_array_equal(s.x[at], x[at])
        np.testing.assert_array_equal(s.z[at], z[at])
        held += int(at.sum())
    assert held >= 2 * len(tr.states) > 0


@pytest.mark.parametrize("dim", [1, 2])
def test_dual_checkpoints_match_scalar_oracles(dim):
    graph, horizon, mu, big_l = line_graph(6), 40.0, 0.2, 1.0
    fns = random_local_functions(6, mu, big_l, dim, np.random.default_rng(8))
    times = sample_event_stream(graph, horizon, run_streams(SEED, 0))[0]
    grid = _grid(times[::5].tolist(), horizon, [0.02, 3.0, 17.5])
    tr = run_decentralized(graph, fns, mu, big_l, horizon, run_streams(SEED, 0),
                           checkpoints=grid)
    params = DualParams.from_graph(graph, mu, big_l)
    y0 = np.zeros(6 if dim == 1 else (6, dim))
    raw = replay_nodes(graph, y0, params.eta, conjugate_update, dual_coefs(graph, fns, params),
                       sample_event_stream(graph, horizon, run_streams(SEED, 0)), grid)
    _check_states(tr, raw, params.eta)
    x_star = optimum_of(fns)
    for s, value in zip(tr.states, tr.values["primal_dist_sq"]):
        assert value == scalar_primal_error(fns, x_star, s.z)
