from functools import partial
from itertools import accumulate, takewhile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuized.dual import random_local_functions, run_decentralized
from continuized.dynamics import run_continuized, run_nesterov
from continuized.gossip import GossipParams, run_gossip, sample_event_stream
from continuized.graphs import line_graph, spectral
from continuized.problems import NoiseModel, make_quadratic
from continuized.schedules import EventClock, ParamSchedule, sample_interarrival
from continuized.seeding import run_streams
from continuized.trace import Snapshot, run_events

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

    def step(k, te):
        applied.append((k, te))

    trace = run_events(
        iter(times), horizon, grid, lambda t: Snapshot(t, len(applied), None),
        lambda s: {"events": s.x}, step, record_states=True,
    )
    inside = [te for te in times if te <= horizon]
    assert applied == list(enumerate(inside))
    assert trace.event_states == [Snapshot(te, k + 1, None) for k, te in enumerate(inside)]
    assert trace.terminal_state == Snapshot(horizon, len(inside), None)
    assert trace.checkpoints == grid
    assert len(trace.values.get("events", [])) == len(grid)
    for t, count in zip(trace.checkpoints, trace.values.get("events", [])):
        assert count == sum(te <= t for te in times)


@pytest.mark.parametrize("grid", [[5.0, 50.0], [0.0, 5.0], [-1.0]])
def test_checkpoint_outside_horizon_rejected(grid):
    with pytest.raises(ValueError, match=r"outside \(0, horizon = 10\.0\]"):
        run_events(iter([1.0, 2.0]), 10.0, grid, lambda t: Snapshot(t, 0, 0),
                   lambda s: {}, lambda k, te: None)


@pytest.mark.parametrize("grid", [[5.0, 2.0], [2.0, 2.0], [1.0, 3.0, 3.0, 4.0]])
def test_non_increasing_grid_rejected(grid):
    # values follow the caller's grid, so an unsorted or repeated time is an error
    with pytest.raises(ValueError, match="not strictly increasing"):
        run_events(iter([1.0, 2.0]), 10.0, grid, lambda t: Snapshot(t, 0, 0),
                   lambda s: {}, lambda k, te: None)


def _event_times(name, horizon, streams):
    """The event times up to ``horizon`` that engine ``name`` draws from ``streams``."""
    if name == "continuized":
        times = accumulate(iter(partial(sample_interarrival, EventClock.exponential(),
                                        streams.clock), None))
        return list(takewhile(lambda te: te <= horizon, times))
    return sample_event_stream(line_graph(4), horizon, streams)[0].tolist()


def _run(name, horizon, streams, record_states):
    if name == "continuized":
        p = make_quadratic([0.1, 1.0], [1.0, -1.0])
        return run_continuized(p, NoiseModel.none(), ParamSchedule.strongly_convex(1.0, 0.1),
                               EventClock.exponential(), horizon, streams,
                               checkpoints=[1.0, horizon], record_states=record_states)
    g = line_graph(4)
    if name == "gossip":
        return run_gossip(g, GossipParams.from_cache(spectral(g)), [1.0, 0.0, 0.0, 2.0],
                          horizon, streams, checkpoints=[1.0, horizon],
                          record_states=record_states)
    fns = random_local_functions(4, 0.5, 1.0, 2, np.random.default_rng(3))
    return run_decentralized(g, fns, 0.5, 1.0, horizon, streams, checkpoints=[1.0, horizon],
                             record_states=record_states)


@pytest.mark.parametrize("name", ["continuized", "gossip", "decentralized", "nesterov"])
def test_every_engine_records_snapshots(name):
    # one record shape: the terminal state is the Snapshot at the horizon (the
    # iteration count for a baseline) and each kept event state the Snapshot
    # at its event time
    if name == "nesterov":
        tr = run_nesterov(make_quadratic([0.1, 1.0], [1.0, -1.0]), "strongly_convex", 7)
        assert isinstance(tr.terminal_state, Snapshot)
        assert tr.terminal_state.t == 7.0
        return
    horizon = 6.0
    quiet = _run(name, horizon, run_streams(40, 0), record_states=False)
    assert quiet.event_states is None
    assert isinstance(quiet.terminal_state, Snapshot)
    assert quiet.terminal_state.t == horizon
    tr = _run(name, horizon, run_streams(40, 0), record_states=True)
    times = _event_times(name, horizon, run_streams(40, 0))
    assert times
    assert all(isinstance(s, Snapshot) for s in tr.event_states)
    assert [s.t for s in tr.event_states] == times
    assert isinstance(tr.terminal_state, Snapshot)
    assert tr.terminal_state.t == horizon
    # keeping the event states changes nothing that is recorded
    assert tr.values == quiet.values
    for got, want in zip(tr.terminal_state[1:], quiet.terminal_state[1:]):
        np.testing.assert_array_equal(got, want)
