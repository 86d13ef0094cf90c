import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuized.dual import random_local_functions, run_decentralized
from continuized.dynamics import run_continuized, run_nesterov
from continuized.gossip import GossipParams, run_gossip, sample_event_stream
from continuized.graphs import line_graph, spectral
from continuized.problems import NoiseModel, make_quadratic
from continuized.schedules import EventClock, ParamSchedule
from continuized.seeding import RunStreams, run_streams
from continuized.trace import GROUP_FLOATS, Plan, Snapshot, checkpoint_grid, record_run, run_block
from oracles import event_times


def run_events(times, horizon, grid, advance, finish):
    """One run of the fake engine through ``record_run``, as a ``Trace``:
    its live state is the float pair ([events applied so far], [0.0]) and
    one clock, ``advance(a, b)`` is told of each stretch of events it
    applies, the grid is checked before the run starts, as a plan checks
    it, and ``finish(xs, zs, clocks)`` measures the (1, C, ...) stacks of
    its captures after the last event."""
    grid = checkpoint_grid(grid, horizon)

    def start(rng):
        applied = [0.0]

        def step(a, b):
            advance(a, b)
            applied[0] += b - a

        return times, step, [applied, [0.0]], [0.0]

    return record_run(Plan(grid, horizon, start, finish), None)


# Half-integer times on a short range, so that checkpoints often fall exactly
# on an event time or on the horizon.
HALVES = st.integers(1, 24).map(lambda i: i / 2)


@st.composite
def loop_cases(draw):
    times = sorted(draw(st.lists(HALVES, max_size=30)))
    horizon = draw(st.integers(1, 20).map(lambda i: i / 2))
    grid = sorted(
        draw(st.lists(st.integers(1, round(2 * horizon)).map(lambda i: i / 2), unique=True))
    )
    return times, horizon, grid


def per_event_log(times, horizon, grid):
    """The loop rule one event at a time, as the oracle of trace's event loop:
    before each event at te <= horizon, every checkpoint earlier than te is
    captured; after the last such event, every checkpoint left."""
    log, ci = [], 0
    for k, te in enumerate(times):
        if te > horizon:
            break
        while ci < len(grid) and grid[ci] < te:
            log.append(("capture", ci))
            ci += 1
        log.append(("event", k))
    return log + [("capture", i) for i in range(ci, len(grid))]


def _record(times, horizon, grid):
    """Run a fake engine whose state is the number of events applied so
    far; return the trace, the log of applied events and captures, and the
    (a, b) stretches passed to ``advance``.  A capture enters the log after
    the events its captured state counts."""
    stretches = []

    def advance(a, b):
        stretches.append((a, b))

    def finish(xs, zs, clocks):
        return xs[..., 0], zs, {"events": xs[..., 0]}

    trace = run_events(times, horizon, grid, advance, finish)
    events = [(k, 1, ("event", k)) for a, b in stretches for k in range(a, b)]
    captures = [(int(n), 0, ("capture", i)) for i, n in enumerate(trace.values.get("events", []))]
    log = [entry for *_, entry in sorted(events + captures)]
    return trace, log, stretches


@settings(deadline=None)
@given(loop_cases())
def test_checkpoint_rule(case):
    times, horizon, grid = case
    trace, log, stretches = _record(times, horizon, grid)
    inside = [te for te in times if te <= horizon]
    # the events up to the horizon, each once and in order, in non-empty
    # stretches that follow one another
    assert [k for kind, k in log if kind == "event"] == list(range(len(inside)))
    assert all(a < b for a, b in stretches)
    assert [a for a, _ in stretches] == [0, *(b for _, b in stretches)][:len(stretches)]
    assert trace.events == len(inside)
    # one snapshot per checkpoint, and at an event's time the post-jump state
    assert trace.states == [Snapshot(t, sum(te <= t for te in times), 0.0) for t in grid]
    assert trace.values.get("events", []) == [s.x for s in trace.states]


@settings(deadline=None)
@given(loop_cases())
def test_events_and_captures_interleave_as_the_per_event_rule(case):
    times, horizon, grid = case
    _, log, _ = _record(times, horizon, grid)
    assert log == per_event_log(times, horizon, grid)


# case -> (times, horizon, grid, expected log)
LOOP_CASES = {
    "event-on-checkpoint": ([1.0, 2.0, 3.0], 4.0, [2.0],
                            [("event", 0), ("event", 1), ("capture", 0), ("event", 2)]),
    "checkpoint-before-first-event": ([3.0, 3.5], 4.0, [1.0, 2.0],
                                      [("capture", 0), ("capture", 1),
                                       ("event", 0), ("event", 1)]),
    "no-events": ([], 4.0, [1.0, 4.0], [("capture", 0), ("capture", 1)]),
    "events-past-horizon": ([1.0, 4.5, 9.0], 4.0, [2.0],
                            [("event", 0), ("capture", 0)]),
    "checkpoint-at-horizon": ([1.0, 4.0, 4.0, 5.0], 4.0, [3.0, 4.0],
                              [("event", 0), ("capture", 0), ("event", 1), ("event", 2),
                               ("capture", 1)]),
}


@pytest.mark.parametrize("case", list(LOOP_CASES))
def test_loop_edge_cases(case):
    times, horizon, grid, expected = LOOP_CASES[case]
    trace, log, _ = _record(times, horizon, grid)
    assert log == expected == per_event_log(times, horizon, grid)
    assert trace.events == sum(kind == "event" for kind, _ in expected)
    assert [s.x for s in trace.states] == [
        sum(kind == "event" for kind, _ in expected[:expected.index(("capture", i))])
        for i in range(len(grid))
    ]


def _index_plan(floats_per_run, failing_group=None):
    """A plan whose run on the streams i applies i events and measures i at
    two checkpoints, with the log of its group sizes; its state is two
    lists of floats_per_run / 4 floats and no clocks, and the finisher of
    the ``failing_group``-th group raises."""
    sizes, started = [], []

    def start(i):
        started.append(i)
        return [1.0] * i, lambda a, b: None, [[0.0] * (floats_per_run // 4)] * 2, []

    def finish(xs, zs, clocks):
        sizes.append(len(xs))
        if len(sizes) == failing_group:
            raise ValueError("boom")
        rows = np.repeat(np.array(started[-len(xs):], dtype=float)[:, None], 2, axis=1)
        return xs, zs, {"index": rows}

    return Plan(np.array([1.5, 2.0]), 2.0, start, finish), sizes


@pytest.mark.parametrize("floats_per_run, sizes", [
    (GROUP_FLOATS, [1] * 5), (GROUP_FLOATS // 2, [2, 2, 1]), (4, [5]), (0, [5]),
])
def test_run_block_groups_runs_up_to_the_float_cap(floats_per_run, sizes):
    plan, logged = _index_plan(floats_per_run)
    values, events = run_block(plan, range(3, 8), lambda i: i)
    assert logged == sizes
    assert events.tolist() == list(range(3, 8))
    assert values["index"].tolist() == [[i, i] for i in range(3, 8)]


def _state_plan(arrays, k=1000):
    """A plan whose run i, at event c (time c + 1, a checkpoint), sets x, z
    and its two clocks to ``_state_values(i, c, k)``, kept as two float
    lists or as one (2, k) array; its finisher measures x[0] and keeps a
    copy of the stacks it is handed.  A run captures 3 (2k + 2) floats, so
    five runs at k = 1000 go in groups of 2, 2 and 1."""
    handed = []

    def start(i):
        pair = np.zeros((2, k)) if arrays else [[0.0] * k, [0.0] * k]
        clocks = [0.0, 0.0]

        def advance(a, b):
            for c in range(a, b):
                values = _state_values(i, c, k)
                for row, part in zip(pair, (values[:k], values[k:2 * k])):
                    row[:] = part if arrays else part.tolist()
                clocks[:] = values[2 * k:].tolist()

        return [1.0, 2.0, 3.0], advance, pair, clocks

    def finish(xs, zs, clocks):
        handed.append((xs.copy(), zs.copy(), clocks.copy()))
        return xs, zs, {"x0": xs[..., 0]}

    return Plan(np.array([1.0, 2.0, 3.0]), 3.0, start, finish), handed


def _state_values(i, c, k):
    values = np.random.default_rng([i, c]).standard_normal(2 * k + 2)
    values[[0, 1, 2, k, 2 * k]] = -0.0, 5e-324, 1e300, -0.0, 5e-324
    return values


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_float_lists_and_arrays_capture_the_same_stacks():
    # the two capture forms hand the finisher the same (R, C, ...) stacks,
    # -0.0, subnormals and 1e300 included, in groups split at GROUP_FLOATS;
    # a run recorded alone equals its row of the block
    handed = {}
    for arrays in (False, True):
        plan, handed[arrays] = _state_plan(arrays)
        values, events = run_block(plan, range(5), lambda i: i)
        assert events.tolist() == [3] * 5
        assert [len(xs) for xs, _, _ in handed[arrays]] == [2, 2, 1]
        for i in range(5):
            trace = record_run(plan, i)
            row = values["x0"][i]
            assert _same_bits(np.array(trace.values["x0"]), row)
            assert all(_same_bits(s.x, handed[arrays][-1][0][0, c])
                       for c, s in enumerate(trace.states))
    for floats, array in zip(handed[False], handed[True]):
        assert all(_same_bits(a, b) for a, b in zip(floats, array))
    xs, zs, clocks = (np.concatenate(stack) for stack in zip(*handed[True][:3]))
    k = xs.shape[-1]
    for i in range(5):
        for c in range(3):
            want = _state_values(i, c, k)
            assert _same_bits(xs[i, c], want[:k]) and _same_bits(zs[i, c], want[k:2 * k])
            assert _same_bits(clocks[i, c], want[2 * k:])


def test_failing_finisher_is_named_by_its_group():
    with pytest.raises(RuntimeError, match="^runs 5 to 6 failed: boom"):
        run_block(_index_plan(GROUP_FLOATS // 2, failing_group=2)[0], range(3, 8), lambda i: i)
    with pytest.raises(RuntimeError, match="^run 4 failed: boom"):
        run_block(_index_plan(GROUP_FLOATS, failing_group=2)[0], range(3, 8), lambda i: i)


def _never(*args):
    raise AssertionError("an invalid grid must fail before the run starts")


@pytest.mark.parametrize("grid", [[5.0, 50.0], [0.0, 5.0], [-1.0]])
def test_checkpoint_outside_horizon_rejected(grid):
    with pytest.raises(ValueError, match=r"outside \(0, horizon = 10\.0\]"):
        run_events([1.0, 2.0], 10.0, grid, _never, _never)


@pytest.mark.parametrize("grid", [[5.0, 2.0], [2.0, 2.0], [1.0, 3.0, 3.0, 4.0]])
def test_non_increasing_grid_rejected(grid):
    # values follow the caller's grid, so an unsorted or repeated time is an error
    with pytest.raises(ValueError, match="not strictly increasing"):
        run_events([1.0, 2.0], 10.0, grid, _never, _never)


@pytest.mark.parametrize("times", [[2.0, 1.0], [1.0, 3.0, 2.0, 4.0], [1.0, float("nan")],
                                   [5.0, 20.0, 15.0]])
def test_descending_event_times_rejected(times):
    # the loop finds each checkpoint's events by bisection, so the stream must
    # be ordered, beyond the horizon too
    with pytest.raises(ValueError, match="not in non-decreasing order"):
        run_events(times, 10.0, [5.0], _never, _never)


def _source(name):
    return EventClock.exponential() if name == "continuized" else line_graph(4)


def _run(name, horizon, streams, checkpoints):
    if name == "continuized":
        p = make_quadratic([0.1, 1.0], [1.0, -1.0])
        return run_continuized(p, NoiseModel.none(), ParamSchedule.strongly_convex(1.0, 0.1),
                               EventClock.exponential(), horizon, streams,
                               checkpoints=checkpoints)
    g = line_graph(4)
    if name == "gossip":
        return run_gossip(g, GossipParams.from_cache(spectral(g)), [1.0, 0.0, 0.0, 2.0],
                          horizon, streams, checkpoints=checkpoints)
    fns = random_local_functions(4, 0.5, 1.0, 2, np.random.default_rng(3))
    return run_decentralized(g, fns, 0.5, 1.0, horizon, streams, checkpoints=checkpoints)


@pytest.mark.parametrize("name", ["continuized", "gossip", "decentralized", "nesterov"])
def test_every_engine_records_snapshots(name):
    # one record shape: the Snapshot at each checkpoint, whose time is that
    # checkpoint (the iteration count for a baseline)
    if name == "nesterov":
        tr = run_nesterov(make_quadratic([0.1, 1.0], [1.0, -1.0]), "strongly_convex", 7)
        assert all(isinstance(s, Snapshot) for s in tr.states)
        assert [s.t for s in tr.states] == [float(k) for k in range(8)]
        assert len(tr.values["gap"]) == 8
        return
    horizon = 6.0
    times = event_times(_source(name), horizon, run_streams(40, 0))
    assert times
    grid = sorted({1.0, *times, horizon})
    tr = _run(name, horizon, run_streams(40, 0), grid)
    assert all(isinstance(s, Snapshot) for s in tr.states)
    assert [s.t for s in tr.states] == grid
    # a checkpoint only observes: adding the event times to the grid changes
    # nothing recorded at the other points
    coarse = _run(name, horizon, run_streams(40, 0), [1.0, horizon])
    kept = [grid.index(1.0), len(grid) - 1]
    assert coarse.values == {m: [v[i] for i in kept] for m, v in tr.values.items()}
    for got, want in zip(coarse.states, [tr.states[i] for i in kept]):
        assert got.t == want.t
        np.testing.assert_array_equal(got.x, want.x)
        np.testing.assert_array_equal(got.z, want.z)


class DryingClock:
    """A clock stream that gives ``blocks`` draws, then raises: an engine
    that samples without end fails fast here instead of hanging."""

    def __init__(self, blocks=3):
        self.rng, self.blocks = np.random.default_rng(0), blocks

    def _give(self):
        if not self.blocks:
            raise RuntimeError("the clock stream ran dry")
        self.blocks -= 1
        return self.rng

    def random(self, size=None):
        return self._give().random(size)

    def exponential(self, scale=1.0, size=None):
        return self._give().exponential(scale, size)


@pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("name", ["continuized", "gossip", "decentralized"])
def test_horizon_not_finite_and_positive_rejected_before_sampling(name, horizon):
    # the samplers draw until they pass the horizon, which an infinite one
    # never lets them do
    streams = RunStreams(clock=DryingClock(), noise=np.random.default_rng(1))
    with pytest.raises(ValueError, match="horizon must be finite and > 0"):
        _run(name, horizon, streams, [1.0])
    assert streams.clock.blocks == 3


@pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -1.0])
def test_gossip_sampler_rejects_the_horizon_before_drawing(horizon):
    streams = RunStreams(clock=DryingClock(), noise=np.random.default_rng(1))
    with pytest.raises(ValueError, match="horizon must be finite and > 0"):
        sample_event_stream(line_graph(3), horizon, streams)
    assert streams.clock.blocks == 3


def test_grid_faults_reported_together():
    with pytest.raises(ValueError, match="not strictly increasing; .* lie outside"):
        run_events([1.0, 2.0], 10.0, [5.0, 5.0, 20.0], _never, _never)
