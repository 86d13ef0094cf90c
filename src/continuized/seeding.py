"""Deterministic seed derivation for ensembles of simulation runs.

Every experiment is driven by a single 64-bit master seed.  Run ``i`` of an
ensemble draws its per-run seed as ``derive_seed(master, i)``, and each run
splits that seed into independent streams (event clock, noise/edge marks) so
that toggling one source of randomness never perturbs another.  The mixing
function is splitmix64, fixed here so that any ensemble can be replayed
bit-for-bit from ``(master seed, run index)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Stream labels mixed into per-run seeds.  The clock stream drives event
# times, the noise stream drives gradient noise / edge marks, the problem
# stream drives one-off instance generation (e.g. random curvatures).
CLOCK_STREAM = 0x01
NOISE_STREAM = 0x02
PROBLEM_STREAM = 0x03


def splitmix64(state: int) -> int:
    """One splitmix64 output for the given 64-bit state."""
    z = (state + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """Mix a master seed with index components, left to right.

    ``derive_seed(m, a, b)`` equals ``derive_seed(derive_seed(m, a), b)``,
    so nested components (run index, stream label) compose.
    """
    h = master & _MASK64
    for ix in indices:
        h = splitmix64(h ^ splitmix64(ix & _MASK64))
    return h


@dataclass(frozen=True)
class RunStreams:
    """Independent random streams owned by a single run."""

    clock: np.random.Generator
    noise: np.random.Generator


def run_streams(master: int, run_index: int = 0) -> RunStreams:
    """Build the clock and noise generators for one run of an ensemble."""
    run_seed = derive_seed(master, run_index)
    return RunStreams(
        clock=np.random.default_rng(derive_seed(run_seed, CLOCK_STREAM)),
        noise=np.random.default_rng(derive_seed(run_seed, NOISE_STREAM)),
    )

