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
from continuized.trace import run_events as event_loop
from oracles import event_times


def run_events(times, horizon, grid, capture, advance, finish):
    """One run of the fake engine through ``trace.run_events``, as a
    ``Trace``: the grid is checked before the run starts, as a plan checks
    it, and ``finish(grid)`` measures the captures after the last event,
    as the finisher of a group of one."""
    stops = np.append(checkpoint_grid(grid, horizon), horizon)

    def group(size):
        def finish_group():
            xs, zs, values = finish(stops[:-1].tolist())
            return [xs], [zs], {name: np.array([column]) for name, column in values.items()}

        return lambda rng: event_loop(times, stops, capture, advance), finish_group

    return record_run(Plan(len(grid), group), None, grid)


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
    """The loop rule one event at a time, as the oracle of ``run_events``:
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
    (a, b) stretches passed to ``advance``."""
    log, stretches = [], []
    captured = [None] * len(grid)

    def advance(a, b):
        stretches.append((a, b))
        log.extend(("event", k) for k in range(a, b))

    def capture(i):
        log.append(("capture", i))
        captured[i] = sum(entry[0] == "event" for entry in log)

    def finish(grid):
        counts = np.array(captured, dtype=float)
        return counts, [None] * len(grid), {"events": counts}

    return run_events(times, horizon, grid, capture, advance, finish), log, stretches


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
    assert trace.states == [Snapshot(t, sum(te <= t for te in times), None) for t in grid]
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
    two checkpoints, with the log of its group sizes; the finisher of the
    ``failing_group``-th group raises."""
    sizes = []

    def group(size):
        sizes.append(size)
        members = []

        def run(i):
            members.append(i)
            return i

        def finish():
            if len(sizes) == failing_group:
                raise ValueError("boom")
            rows = np.repeat(np.array(members, dtype=float)[:, None], 2, axis=1)
            return rows, rows, {"index": rows}

        return run, finish

    return Plan(floats_per_run, group), sizes


@pytest.mark.parametrize("floats_per_run, sizes", [
    (GROUP_FLOATS, [1] * 5), (GROUP_FLOATS // 2, [2, 2, 1]), (1, [5]), (0, [5]),
])
def test_run_block_groups_runs_up_to_the_float_cap(floats_per_run, sizes):
    plan, logged = _index_plan(floats_per_run)
    values, events = run_block(plan, range(3, 8), lambda i: i)
    assert logged == sizes
    assert events.tolist() == list(range(3, 8))
    assert values["index"].tolist() == [[i, i] for i in range(3, 8)]


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
        run_events([1.0, 2.0], 10.0, grid, _never, _never, _never)


@pytest.mark.parametrize("grid", [[5.0, 2.0], [2.0, 2.0], [1.0, 3.0, 3.0, 4.0]])
def test_non_increasing_grid_rejected(grid):
    # values follow the caller's grid, so an unsorted or repeated time is an error
    with pytest.raises(ValueError, match="not strictly increasing"):
        run_events([1.0, 2.0], 10.0, grid, _never, _never, _never)


@pytest.mark.parametrize("times", [[2.0, 1.0], [1.0, 3.0, 2.0, 4.0], [1.0, float("nan")],
                                   [5.0, 20.0, 15.0]])
def test_descending_event_times_rejected(times):
    # the loop finds each checkpoint's events by bisection, so the stream must
    # be ordered, beyond the horizon too
    with pytest.raises(ValueError, match="not in non-decreasing order"):
        run_events(times, 10.0, [5.0], _never, _never, _never)


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
        run_events([1.0, 2.0], 10.0, [5.0, 5.0, 20.0], _never, _never, _never)
