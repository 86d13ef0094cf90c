"""The record of one run and the one event loop that fills it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple, Sequence


class Snapshot(NamedTuple):
    """The pair (x, z) at time t: the optimizer's iterate, or one value per node."""

    t: float
    x: Any
    z: Any


@dataclass
class Trace:
    """The run's state and metric values at each point of the caller's grid.

    ``states[i]`` is the snapshot at the i-th checkpoint, so its ``t`` is
    that checkpoint, and ``values[name][i]`` is metric ``name`` of it;
    ``add`` appends one checkpoint, in grid order.
    """

    states: list[Snapshot] = field(default_factory=list)
    values: dict[str, list[float]] = field(default_factory=dict)

    def add(self, state: Snapshot, values: dict[str, float]) -> None:
        self.states.append(state)
        for name, value in values.items():
            self.values.setdefault(name, []).append(value)


def run_events(
    times: Iterable[float], horizon: float, checkpoints: Sequence[float],
    state_at: Callable[[float], Snapshot], metrics: Callable[[Snapshot], dict[str, float]],
    step: Callable[[int, float], None],
) -> Trace:
    """Apply the events of one run up to ``horizon`` and record checkpoints.

    ``times`` are the run's ascending event times, possibly beyond the
    horizon; ``step(k, te)`` applies the k-th event, for te <= horizon only.
    ``state_at(t)`` is the state synchronized to t, a copy: the engine's own
    state is left as it is.  Each point t of the strictly increasing grid in
    (0, horizon] records ``state_at(t)`` and its ``metrics``: before an event
    it sees the pre-event state, at an event's time the post-jump state.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    grid = [float(t) for t in checkpoints]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"checkpoints {grid} are not strictly increasing")
    outside = [t for t in grid if not 0 < t <= horizon]
    if outside:
        raise ValueError(f"checkpoints {outside} lie outside (0, horizon = {horizon}]")
    trace = Trace()
    pending = grid + [float("inf")]
    ci = 0
    for k, te in enumerate(times):
        if te > horizon:
            break
        while pending[ci] < te:
            state = state_at(pending[ci])
            trace.add(state, metrics(state))
            ci += 1
        step(k, te)
    for t in grid[ci:]:
        state = state_at(t)
        trace.add(state, metrics(state))
    return trace
