"""The record of one run and the one event loop that fills it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np


@dataclass
class Trace:
    """Metric values on a sorted checkpoint grid plus the run's terminal state.

    ``values[name][i]`` is the value of metric ``name`` at ``checkpoints[i]``;
    ``add`` appends one value per metric, in grid order.  ``event_states`` is
    a list only when the engine is asked to record its post-event states.
    """

    checkpoints: list[float]
    values: dict[str, list[float]] = field(default_factory=dict)
    terminal_state: Any = None
    event_states: list[Any] | None = None

    def add(self, values: dict[str, float]) -> None:
        for name, value in values.items():
            self.values.setdefault(name, []).append(value)

    def metric_at(self, grid, name: str) -> np.ndarray:
        """Values of one metric on a checkpoint grid (exact time match)."""
        by_t = dict(zip(self.checkpoints, self.values.get(name, ())))
        out = np.empty(len(grid))
        for i, t in enumerate(grid):
            if t not in by_t:
                raise KeyError(f"no sample recorded at checkpoint t = {t}")
            out[i] = by_t[t]
        return out


def run_events(
    times: Iterable[float], horizon: float, checkpoints: Sequence[float],
    snapshot: Callable[[float], dict[str, float]], step: Callable[[int, float], None],
    record: Callable[[float], Any] | None = None,
) -> Trace:
    """Apply the events of one run up to ``horizon`` and record checkpoints.

    ``times`` are the run's ascending event times, possibly beyond the
    horizon; ``step(k, te)`` applies the k-th event, for te <= horizon only.
    ``snapshot(t)`` gives the metrics at checkpoint t: a checkpoint before
    an event sees the pre-event state, one at an event's time the post-jump
    state, and the horizon is inclusive.  With ``record``, ``record(te)``
    after each event is kept in ``event_states``.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    grid = sorted(float(t) for t in checkpoints)
    outside = [t for t in grid if not 0 < t <= horizon]
    if outside:
        raise ValueError(f"checkpoints {outside} lie outside (0, horizon = {horizon}]")
    trace = Trace(grid, event_states=None if record is None else [])
    pending = grid + [float("inf")]
    ci = 0
    for k, te in enumerate(times):
        if te > horizon:
            break
        while pending[ci] < te:
            trace.add(snapshot(pending[ci]))
            ci += 1
        step(k, te)
        if record is not None:
            trace.event_states.append(record(te))
    for t in grid[ci:]:
        trace.add(snapshot(t))
    return trace
