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
    """Metric values on the caller's checkpoint grid plus the run's terminal state.

    ``values[name][i]`` is the value of metric ``name`` at ``checkpoints[i]``;
    ``add`` appends one value per metric, in grid order.  ``event_states`` is
    a list of post-event snapshots only when the engine is asked to keep them.
    """

    checkpoints: list[float]
    values: dict[str, list[float]] = field(default_factory=dict)
    terminal_state: Snapshot | None = None
    event_states: list[Snapshot] | None = None

    def add(self, values: dict[str, float]) -> None:
        for name, value in values.items():
            self.values.setdefault(name, []).append(value)


def run_events(
    times: Iterable[float], horizon: float, checkpoints: Sequence[float],
    state_at: Callable[[float], Snapshot], metrics: Callable[[Snapshot], dict[str, float]],
    step: Callable[[int, float], None], record_states: bool = False,
) -> Trace:
    """Apply the events of one run up to ``horizon`` and record checkpoints.

    ``times`` are the run's ascending event times, possibly beyond the
    horizon; ``step(k, te)`` applies the k-th event, for te <= horizon only.
    ``state_at(t)`` is the state synchronized to t, a copy: the engine's own
    state is left as it is.  Each point t of the strictly increasing grid in
    (0, horizon] records ``metrics(state_at(t))``: before an event it sees the
    pre-event state, at an event's time the post-jump state.  The terminal
    state is ``state_at(horizon)``; ``record_states`` keeps ``state_at(te)``
    after each event in ``event_states``.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    grid = [float(t) for t in checkpoints]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"checkpoints {grid} are not strictly increasing")
    outside = [t for t in grid if not 0 < t <= horizon]
    if outside:
        raise ValueError(f"checkpoints {outside} lie outside (0, horizon = {horizon}]")
    trace = Trace(grid, event_states=[] if record_states else None)
    pending = grid + [float("inf")]
    ci = 0
    for k, te in enumerate(times):
        if te > horizon:
            break
        while pending[ci] < te:
            trace.add(metrics(state_at(pending[ci])))
            ci += 1
        step(k, te)
        if record_states:
            trace.event_states.append(state_at(te))
    for t in grid[ci:]:
        trace.add(metrics(state_at(t)))
    trace.terminal_state = state_at(horizon)
    return trace
