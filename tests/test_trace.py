import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuized.dual import random_local_functions, run_decentralized
from continuized.dynamics import run_continuized, run_nesterov
from continuized.gossip import GossipParams, run_gossip
from continuized.graphs import line_graph, spectral
from continuized.problems import NoiseModel, make_quadratic
from continuized.schedules import EventClock, ParamSchedule
from continuized.seeding import run_streams
from continuized.trace import Snapshot, run_events
from replay import event_times

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


@settings(deadline=None)
@given(loop_cases())
def test_checkpoint_rule(case):
    # a fake engine whose state is the number of events applied so far
    times, horizon, grid = case
    applied = []
    captured = [None] * len(grid)

    def step(k, te):
        applied.append((k, te))

    def capture(i):
        captured[i] = len(applied)

    def finish(grid):
        counts = np.array(captured, dtype=float)
        return counts, [None] * len(grid), {"events": counts}

    trace = run_events(iter(times), horizon, grid, capture, step, finish)
    inside = [te for te in times if te <= horizon]
    assert applied == list(enumerate(inside))
    # one snapshot per checkpoint, and at an event's time the post-jump state
    assert trace.states == [Snapshot(t, sum(te <= t for te in times), None) for t in grid]
    assert trace.values.get("events", []) == [s.x for s in trace.states]


def _never(*args):
    raise AssertionError("an invalid grid must fail before the run starts")


@pytest.mark.parametrize("grid", [[5.0, 50.0], [0.0, 5.0], [-1.0]])
def test_checkpoint_outside_horizon_rejected(grid):
    with pytest.raises(ValueError, match=r"outside \(0, horizon = 10\.0\]"):
        run_events(iter([1.0, 2.0]), 10.0, grid, _never, _never, _never)


@pytest.mark.parametrize("grid", [[5.0, 2.0], [2.0, 2.0], [1.0, 3.0, 3.0, 4.0]])
def test_non_increasing_grid_rejected(grid):
    # values follow the caller's grid, so an unsorted or repeated time is an error
    with pytest.raises(ValueError, match="not strictly increasing"):
        run_events(iter([1.0, 2.0]), 10.0, grid, _never, _never, _never)


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
