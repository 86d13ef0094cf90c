"""Time-stamped metric traces shared by all simulators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass(frozen=True)
class TraceSample:
    """Metric values observed at one instant of a run."""

    t: float
    k: int
    values: dict[str, float]
    at_event: bool


@dataclass
class Trace:
    """Ordered samples from one run plus its terminal state.

    Sample times are strictly increasing; recording a sample at the time of
    the previous one is a no-op (the earlier sample already holds the state,
    since checkpoint samples are only emitted at or after the latest event).
    """

    samples: list[TraceSample] = field(default_factory=list)
    terminal_state: Any = None
    event_states: list[Any] | None = None

    def add(self, t: float, k: int, values: dict[str, float], at_event: bool) -> None:
        if self.samples:
            last = self.samples[-1].t
            if t < last:
                raise ValueError(f"sample times must increase: {t} after {last}")
            if t == last:
                return
        self.samples.append(TraceSample(t, k, dict(values), at_event))

    def event_samples(self) -> list[TraceSample]:
        return [s for s in self.samples if s.at_event]

    def metric_at(self, grid, name: str) -> np.ndarray:
        """Values of one metric on a checkpoint grid (exact time match)."""
        by_t = {s.t: s.values[name] for s in self.samples if name in s.values}
        out = np.empty(len(grid))
        for i, t in enumerate(grid):
            if t not in by_t:
                raise KeyError(f"no sample recorded at checkpoint t = {t}")
            out[i] = by_t[t]
        return out
