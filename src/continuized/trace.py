"""The record of one run, the one event loop of every engine, and the
checkpoints of a plan's runs.

An engine module holds its physics and hands it over as a ``Plan``: the
grid and horizon, and for each run its event times, its ``advance`` and its
live state (x, z and their clocks), plus a finisher.  This module alone
runs the events, in one loop per run (``_groups``), captures the live
state at each checkpoint, buffers the captures of a group of runs
(``GROUP_FLOATS``) and decodes them into the (R, C, ...) stacks that every
finisher takes."""

from __future__ import annotations

from dataclasses import field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .problems import parse_positive
from .records import Record, read_only


class Snapshot(NamedTuple):
    """The pair (x, z) at time t: the optimizer's iterate, or one value per node."""

    t: float
    x: Any
    z: Any


class Trace(Record, frozen=False):
    """The run's state and metric values at each point of the caller's grid.

    ``add`` appends checkpoints, in grid order: their times, the x and z at
    each (a (C, ...) stack or a list), and one value per checkpoint for
    each metric.  So ``states[i]`` is the ``Snapshot`` at the i-th
    checkpoint and ``values[name][i]`` is metric ``name`` of ``states[i]``.
    ``events`` is the number of events the run applied (0 for the
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
    """``horizon``, after raising unless it is finite and > 0
    (``parse_positive``): the event samplers draw until they pass it, so
    every engine checks it before the first draw."""
    return parse_positive(horizon, "horizon")


def checkpoint_grid(checkpoints: Sequence[float], horizon: float) -> np.ndarray:
    """The checkpoints as a read-only float array, after checking the
    horizon (``check_horizon``) and that the grid is strictly increasing
    inside (0, horizon]; one error names both faults.  A grid with no points
    passes."""
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
    return read_only(grid)


# Most captured floats a group of runs buffers before its finisher runs.
# Groups amortize the finisher's numpy calls over runs, but with glibc an
# array above 128 KiB (16 384 floats, its mmap threshold) comes from fresh
# pages that every group touches anew: copying a1-convex captures into one
# (R·50, 2, 100) buffer and its temporaries took 39 µs per run at R = 1 and
# 130 µs at R = 2.  So a2-grid225 (33 750 floats per run) and a1-convex
# (10 050) finish run by run, while a whole block of decentralized-line10
# (1 500) or a1-strongly-convex (350) finishes at once.
GROUP_FLOATS = 2**14


class Plan(NamedTuple):
    """The runs of an ensemble: the grid they share (checked by
    ``checkpoint_grid``) and their horizon, each run's events and physics,
    and the finisher of a group of runs.

    ``start(rng)`` sets up a run on the streams ``rng``, making every draw
    of the run, and returns ``(times, advance, pair, clocks)``: its event
    times, the ``advance(a, b)`` that applies events a to b - 1 and draws
    nothing, and its live state, which ``advance`` updates in place.  The
    state is the pair x, z, either a list of two float lists or one
    (2, ...) array whose rows are x and z, and ``clocks``, a list of the
    times the values were last mixed to (one for the optimizer's pair, one
    per node for gossip's).
    ``finish(xs, zs, clocks)`` takes the (R, C, ...) stacks of x, z and
    the clocks that a group of R runs captured at the C points of the
    grid, mixes x and z to their checkpoints and returns them, with one
    array of R·C values per metric, in the stacks' order.
    """

    grid: np.ndarray
    horizon: float
    start: Callable[[Any], tuple[Sequence[float], Callable[[int, int], None], Any, list[float]]]
    finish: Callable[[np.ndarray, np.ndarray, np.ndarray],
                     tuple[np.ndarray, np.ndarray, Mapping[str, np.ndarray]]]


def _groups(plan: Plan, runs: Sequence[int], streams: Callable[[int], Any]):
    """Run ``runs`` of a plan, run i on ``streams(i)``, in groups of at
    most ``GROUP_FLOATS`` captured floats, and yield each group's position
    in ``runs``, its event counts and its finisher's (xs, zs, values), each
    metric as (R, C).

    A run's event times are in non-decreasing order, possibly beyond the
    horizon.  Its events up to the horizon are applied in order, by one
    ``advance(a, b)`` (events a to b - 1) per non-empty stretch between two
    checkpoints.  At each point t of the grid, after every event at or
    before t, the run's live state is captured: a checkpoint at an event's
    time sees the post-jump state.  Float lists extend the group's one flat
    list, x then z then the clocks; an array pair is copied as one row of
    the group's buffer, and its clocks extend the flat list.  A run that
    raises is named by its index, a finisher by its group's."""
    width, stops = len(plan.grid), np.append(plan.grid, plan.horizon)
    end = 0
    for r, i in enumerate(runs):
        try:
            times, advance, pair, clocks = plan.start(streams(i))
            arrays = isinstance(pair, np.ndarray)
            if r == end:  # the group's first run: its state sizes the group
                d = 0 if arrays else len(pair[0])  # floats per value list
                listed = 2 * d + len(clocks)  # floats per capture in the flat list
                floats = width * (listed + (pair.size if arrays else 0))
                first, end = r, min(len(runs), r + max(1, GROUP_FLOATS // max(floats, 1)))
                captured, counts = [], []
                extend = captured.extend
                rows = np.empty((end - first, width, *pair.shape)) if arrays else None
            times = np.asarray(times, dtype=float)
            if not np.all(times[1:] >= times[:-1]):
                raise ValueError("event times are not in non-decreasing order")
            # the first event after each checkpoint, then the first after the horizon
            *stretch_ends, count = np.searchsorted(times, stops, side="right").tolist()
            k = 0  # the events applied so far
            for c, stop in enumerate(stretch_ends):
                if stop > k:
                    advance(k, stop)
                    k = stop
                if arrays:
                    rows[r - first, c] = pair
                else:
                    extend(pair[0])
                    extend(pair[1])
                extend(clocks)
            if count > k:
                advance(k, count)
            counts.append(count)
        except Exception as exc:
            raise RuntimeError(f"run {i} failed: {exc}") from exc
        times = advance = None  # the run's events go before the next run draws its own
        if r + 1 < end:
            continue
        flat = np.fromiter(captured, float, len(captured)).reshape(end - first, width, listed)
        stacks = (rows[:, :, 0], rows[:, :, 1], flat) if arrays else \
            (flat[..., :d], flat[..., d:2 * d], flat[..., 2 * d:])
        try:
            xs, zs, values = plan.finish(*stacks)
        except Exception as exc:
            which = f"run {runs[first]}" if end - first == 1 else \
                f"runs {runs[first]} to {runs[end - 1]}"
            raise RuntimeError(f"{which} failed: {exc}") from exc
        yield first, counts, (xs, zs, {
            name: column.reshape(end - first, width) for name, column in values.items()})
        # and the group's captures before the next group's first run draws
        captured.clear()
        flat = stacks = rows = xs = zs = values = None


def run_block(plan: Plan, runs: Sequence[int], streams: Callable[[int], Any]
              ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Runs ``runs`` of a plan (indices into the ensemble, run i on
    ``streams(i)``) as one (R, C) array per metric, row r for run
    ``runs[r]``, and the (R,) event counts.  The runs go in groups of at
    most ``GROUP_FLOATS`` captured floats, each finished once.  A run that
    raises is named by its index, a finisher by its group's."""
    values, events = {}, np.empty(len(runs), dtype=np.int64)
    for first, counts, (_, _, measured) in _groups(plan, runs, streams):
        end = first + len(counts)
        events[first:end] = counts
        for m, rows in measured.items():
            values.setdefault(m, np.empty((len(runs), rows.shape[1])))[first:end] = rows
    return values, events


def record_run(plan: Plan, rng) -> Trace:
    """One run of a plan on the streams ``rng``, a group of one, recorded
    as a ``Trace`` at the plan's grid.  It raises what the run or the
    finisher raises."""
    try:
        ((_, (count,), (xs, zs, values)),) = _groups(plan, [0], lambda _: rng)
    except RuntimeError as named:  # the group names its one run: raise the run's own error
        fault = named.__cause__
        raise fault from fault.__cause__
    trace = Trace(events=count)
    trace.add(plan.grid.tolist(), xs[0], zs[0],
              {name: rows[0].tolist() for name, rows in values.items()})
    return trace
