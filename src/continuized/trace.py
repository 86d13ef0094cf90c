"""The record of one run: metric values on its checkpoint grid."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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
