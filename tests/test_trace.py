import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuized.trace import run_events

# Half-integer times on a short range, so that checkpoints often fall exactly
# on an event time or on the horizon.
HALVES = st.integers(1, 24).map(lambda i: i / 2)


@st.composite
def loop_cases(draw):
    times = sorted(draw(st.lists(HALVES, max_size=30)))
    horizon = draw(st.integers(1, 20).map(lambda i: i / 2))
    grid = draw(st.lists(st.integers(1, round(2 * horizon)).map(lambda i: i / 2), unique=True))
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
        iter(times), horizon, grid, lambda t: {"events": len(applied)}, step,
        record=lambda te: len(applied),
    )
    inside = [te for te in times if te <= horizon]
    assert applied == list(enumerate(inside))
    assert trace.event_states == list(range(1, len(inside) + 1))
    assert trace.checkpoints == sorted(grid)
    assert len(trace.values.get("events", [])) == len(grid)
    for t, count in zip(trace.checkpoints, trace.values.get("events", [])):
        assert count == sum(te <= t for te in times)


@pytest.mark.parametrize("grid", [[5.0, 50.0], [0.0, 5.0], [-1.0]])
def test_checkpoint_outside_horizon_rejected(grid):
    with pytest.raises(ValueError, match=r"outside \(0, horizon = 10\.0\]"):
        run_events(iter([1.0, 2.0]), 10.0, grid, lambda t: {}, lambda k, te: None)
