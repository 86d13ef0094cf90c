"""The record of one run and the one event loop that fills it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence


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
    ``add`` appends a block of checkpoints, in grid order.
    """

    states: list[Snapshot] = field(default_factory=list)
    values: dict[str, list[float]] = field(default_factory=dict)

    def add(self, states: Sequence[Snapshot], values: Mapping[str, Sequence[float]]) -> None:
        self.states.extend(states)
        for name, column in values.items():
            self.values.setdefault(name, []).extend(column)


def run_events(
    times: Iterable[float], horizon: float, checkpoints: Sequence[float],
    capture: Callable[[int], None], step: Callable[[int, float], None],
    finish: Callable[[list[float]], tuple[Any, Any, Mapping[str, Any]]],
) -> Trace:
    """Apply the events of one run up to ``horizon`` and record checkpoints.

    ``times`` are the run's ascending event times, possibly beyond the
    horizon; ``step(k, te)`` applies the k-th event, for te <= horizon only.
    At the i-th point of the strictly increasing grid in (0, horizon],
    ``capture(i)`` copies the engine's raw state into row i of its per-run
    buffers: before an event it sees the pre-event state, at an event's
    time the post-jump state.  After the last event ``finish(grid)``
    synchronizes every captured row to its checkpoint and measures it in
    one stacked pass, returning the (C, ...) stacks of x and z and one
    (C,) array per metric; the trace holds their rows.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    grid = [float(t) for t in checkpoints]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"checkpoints {grid} are not strictly increasing")
    outside = [t for t in grid if not 0 < t <= horizon]
    if outside:
        raise ValueError(f"checkpoints {outside} lie outside (0, horizon = {horizon}]")
    pending = grid + [float("inf")]
    ci = 0
    for k, te in enumerate(times):
        if te > horizon:
            break
        while pending[ci] < te:
            capture(ci)
            ci += 1
        step(k, te)
    for i in range(ci, len(grid)):
        capture(i)
    xs, zs, values = finish(grid)
    trace = Trace()
    trace.add(
        list(map(Snapshot, grid, xs, zs)),
        {name: column.tolist() for name, column in values.items()},
    )
    return trace
