"""The record of one run, the one event loop of every engine, and the runs of a plan."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np


class Snapshot(NamedTuple):
    """The pair (x, z) at time t: the optimizer's iterate, or one value per node."""

    t: float
    x: Any
    z: Any


@dataclass
class Trace:
    """The run's state and metric values at each point of the caller's grid.

    ``add`` appends checkpoints, in grid order: their times, the x and z at
    each (a (C, ...) stack or a list), and one value per checkpoint for
    each metric.  So ``states[i]`` is the ``Snapshot`` at the i-th
    checkpoint and ``values[name][i]`` is metric ``name`` of ``states[i]``.
    ``events`` is the number of events ``run_events`` applied (0 for the
    fixed-weight baselines, which have none).
    """

    values: dict[str, list[float]] = field(default_factory=dict)
    events: int = 0
    states: list[Snapshot] = field(default_factory=list)

    def add(self, ts: Sequence[float], xs, zs, values: Mapping[str, Sequence[float]]) -> None:
        self.states.extend(map(Snapshot, ts, xs, zs))
        for name, column in values.items():
            self.values.setdefault(name, []).extend(column)


def check_horizon(horizon: float) -> float:
    """``horizon``, after raising unless it is finite and > 0: the event
    samplers draw until they pass it, so every engine checks it before the
    first draw."""
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    return horizon


def checkpoint_grid(checkpoints: Sequence[float], horizon: float) -> np.ndarray:
    """The checkpoints as a float array, after checking the horizon
    (``check_horizon``) and that the grid is strictly increasing inside
    (0, horizon]; one error names both faults.  A grid with no points passes."""
    check_horizon(horizon)
    grid = np.asarray(checkpoints, dtype=float)
    broken = []
    if np.any(grid[1:] <= grid[:-1]):
        broken.append(f"checkpoints {grid.tolist()} are not strictly increasing")
    outside = grid[~((grid > 0) & (grid <= horizon))]
    if outside.size:
        broken.append(f"checkpoints {outside.tolist()} lie outside (0, horizon = {horizon}]")
    if broken:
        raise ValueError("; ".join(broken))
    return grid


def run_events(times: Sequence[float], stops: np.ndarray, capture: Callable[[int], None],
               advance: Callable[[int, int], None]) -> int:
    """Apply the events of one run up to the horizon, capturing its checkpoints.

    ``times`` are the run's event times in non-decreasing order, possibly
    beyond the horizon; ``stops`` is the grid (checked by
    ``checkpoint_grid``) followed by the horizon.  ``advance(a, b)``
    applies events a to b - 1, in order; it is called once per non-empty
    stretch of events between two checkpoints and never reaches an event
    past the horizon.  At the i-th point t of the grid, after every event
    at or before t, ``capture(i)`` copies the engine's raw state into row i
    of its per-run buffers: a checkpoint at an event's time sees the
    post-jump state.  Returns the number of events applied; the engine then
    synchronizes every captured row to its checkpoint and measures it in
    one stacked pass.
    """
    stream = np.asarray(times, dtype=float)
    if not np.all(stream[1:] >= stream[:-1]):
        raise ValueError("event times are not in non-decreasing order")
    # the first event after each checkpoint, then the first after the horizon
    *ends, count = np.searchsorted(stream, stops, side="right").tolist()
    k = 0
    for i, end in enumerate(ends):
        if end > k:
            advance(k, end)
            k = end
        capture(i)
    if count > k:
        advance(k, count)
    return count


# A plan's run: one run on the streams it is given, as the (C, ...) stacks
# of x and z, one (C,) array per metric and the number of events applied.
Run = Callable[[Any], tuple[Any, Any, Mapping[str, np.ndarray], int]]


def run_block(run: Run, runs: Sequence[int], streams: Callable[[int], Any]
              ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Runs ``runs`` of a plan (indices into the ensemble, run i on
    ``streams(i)``) as one (R, C) array per metric, row r for run
    ``runs[r]``, and the (R,) event counts.  A run that raises is named by
    its index."""
    values, events = {}, np.empty(len(runs), dtype=np.int64)
    for r, i in enumerate(runs):
        try:
            _, _, measured, events[r] = run(streams(i))
        except Exception as exc:
            raise RuntimeError(f"run {i} failed: {exc}") from exc
        for m, column in measured.items():
            values.setdefault(m, np.empty((len(runs), len(column))))[r] = column
    return values, events


def record_run(run: Run, rng, checkpoints: Sequence[float]) -> Trace:
    """One run of a plan on the streams ``rng``, recorded as a ``Trace`` at
    the plan's ``checkpoints``."""
    xs, zs, values, count = run(rng)
    trace = Trace(events=count)
    trace.add(np.asarray(checkpoints, dtype=float).tolist(), xs, zs,
              {name: column.tolist() for name, column in values.items()})
    return trace
