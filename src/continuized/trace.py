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
    post-jump state.  Returns the number of events applied; the plan's
    finisher later synchronizes every captured row to its checkpoint and
    measures it, in one stacked pass over a group of runs.
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


# Most captured floats a group of runs buffers before ``run_block`` finishes
# it.  Groups amortize the finisher's numpy calls over runs, but with glibc
# an array above 128 KiB (16 384 floats, its mmap threshold) comes from
# fresh pages that every group touches anew: copying a1-convex captures into one
# (R·50, 2, 100) buffer and its temporaries took 39 µs per run at R = 1 and
# 130 µs at R = 2.  So a2-grid225 (33 750 floats per run) and a1-convex
# (10 050) finish run by run, while a whole block of decentralized-line10
# (1 500) or a1-strongly-convex (350) finishes at once.
GROUP_FLOATS = 2**14


class Plan(NamedTuple):
    """The runs of an ensemble, split into per-run event loops and one
    finisher per group of runs.

    ``floats_per_run`` is the number of floats one run captures.
    ``group(size)`` returns ``(run, finish)`` for a group of ``size`` runs:
    ``run(rng)`` is the group's next run on the streams ``rng``, which
    applies its events, captures its checkpoints into the group's buffers
    and returns the number of events applied; after the last run,
    ``finish()`` mixes every capture forward to its checkpoint and measures
    it in one stacked pass, and returns the (size, C, ...) stacks of x and
    z and one (size, C) array per metric.
    """

    floats_per_run: int
    group: Callable[[int], tuple[Callable[[Any], int],
                                 Callable[[], tuple[Any, Any, Mapping[str, np.ndarray]]]]]


def run_block(plan: Plan, runs: Sequence[int], streams: Callable[[int], Any]
              ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Runs ``runs`` of a plan (indices into the ensemble, run i on
    ``streams(i)``) as one (R, C) array per metric, row r for run
    ``runs[r]``, and the (R,) event counts.  The runs go in groups of at
    most ``GROUP_FLOATS`` captured floats, each finished once.  A run that
    raises is named by its index, a finisher by its group's."""
    values, events = {}, np.empty(len(runs), dtype=np.int64)
    size = max(1, GROUP_FLOATS // max(plan.floats_per_run, 1))
    for start in range(0, len(runs), size):
        members = runs[start:start + size]
        run, finish = plan.group(len(members))
        for r, i in enumerate(members, start):
            try:
                events[r] = run(streams(i))
            except Exception as exc:
                raise RuntimeError(f"run {i} failed: {exc}") from exc
        try:
            _, _, measured = finish()
        except Exception as exc:
            which = f"run {members[0]}" if len(members) == 1 else \
                f"runs {members[0]} to {members[-1]}"
            raise RuntimeError(f"{which} failed: {exc}") from exc
        for m, rows in measured.items():
            block = values.setdefault(m, np.empty((len(runs), rows.shape[1])))
            block[start:start + len(members)] = rows
    return values, events


def record_run(plan: Plan, rng, checkpoints: Sequence[float]) -> Trace:
    """One run of a plan on the streams ``rng``, a group of one, recorded
    as a ``Trace`` at the plan's ``checkpoints``."""
    run, finish = plan.group(1)
    count = run(rng)
    xs, zs, values = finish()
    trace = Trace(events=count)
    trace.add(np.asarray(checkpoints, dtype=float).tolist(), xs[0], zs[0],
              {name: rows[0].tolist() for name, rows in values.items()})
    return trace
