"""The ``bound`` column of each continuized schedule kind, pinned to the
paper's statement.

Each test builds a small problem whose constants are worked out by hand in
its comments, runs a two-run ensemble with ``include_bounds = true`` and
compares the bound the runner reports at each checkpoint with the closed
form written out with those numbers.  Every run starts at x0 = z0 = 0.
"""

import math

import numpy as np
import pytest

from continuized.harness.config import parse_config_text
from continuized.harness.runner import run_experiment

CHECKPOINTS = (1.0, 4.0, 10.0)

# f(x) = 1/2 (0.5 (x1 - 1)^2 + 2 (x2 + 1)^2): L = 2, mu = 0.5,
# f(x0) - f_* = 1/2 (0.5 + 2) = 1.25 and |x0 - x_*|^2 = 2.  The additive
# noise has total variance sigma^2 = 0.6.
ADDITIVE = """
[experiment]
kind = optimize
horizon = 10
runs = 2
checkpoints = 1 4 10
include_bounds = true

[problem]
kind = quadratic
diag = 0.5 2
center = 1 -1

[noise]
kind = additive
sigma2 = 0.6

[algo]
schedule = {schedule}
"""

# Atoms a1 = (2, 0) and a2 = (0, 1), each drawn with probability 1/2, and
# x_* = (1, -1): H = diag(2, 0.5), so mu = 0.5.  E[|a|^2 a a^T] = diag(8, 0.5)
# = diag(4, 1) H gives R^2 = 4; |a1|^2_{H^-1} = |a2|^2_{H^-1} = 2 gives
# kappa_tilde = 2.  From x0 = 0, |x0 - x_*|^2 = 2 and
# |x0 - x_*|^2_{H^-1} = 1/2 + 1/0.5 = 2.5.
MULTIPLICATIVE = """
[experiment]
kind = optimize
horizon = 10
runs = 2
checkpoints = 1 4 10
include_bounds = true

[problem]
kind = least_squares
optimum = 1 -1
samples =
    2 0 | 2
    0 1 | -1

[noise]
kind = multiplicative

[algo]
schedule = {schedule}
"""


def _bound(config: str, schedule: str, metric: str) -> np.ndarray:
    runset = run_experiment(parse_config_text(config.format(schedule=schedule)))
    assert runset.checkpoints.tolist() == list(CHECKPOINTS)
    assert list(runset.bounds) == [metric]
    return runset.bounds[metric]


def _paper(bound) -> list[float]:
    return [bound(t) for t in CHECKPOINTS]


def test_convex_additive_noise_bound():
    # E f(x_t) - f_* <= 2 L |x0 - x_*|^2 / t^2 + sigma^2 t / (3 L)
    want = _paper(lambda t: 2 * 2 * 2 / t**2 + 0.6 * t / (3 * 2))
    assert _bound(ADDITIVE, "convex", "gap").tolist() == pytest.approx(want, rel=1e-12)


def test_strongly_convex_additive_noise_bound():
    # E f(x_t) - f_* <= (f(x0) - f_* + mu/2 |x0 - x_*|^2) exp(-sqrt(mu / L) t)
    #                  + sigma^2 / sqrt(mu L)
    want = _paper(lambda t: (1.25 + 0.25 * 2) * math.exp(-0.5 * t) + 0.6 / 1.0)
    assert _bound(ADDITIVE, "strongly_convex", "gap").tolist() == pytest.approx(want, rel=1e-12)


def test_multiplicative_convex_bound():
    # E |x_t - x_*|^2 <= 2 R^2 kappa_tilde |x0 - x_*|^2_{H^-1} / t^2
    want = _paper(lambda t: 2 * 4 * 2 * 2.5 / t**2)
    got = _bound(MULTIPLICATIVE, "multiplicative_convex", "dist_sq")
    assert got.tolist() == pytest.approx(want, rel=1e-12)


def test_multiplicative_strongly_convex_bound():
    # E |x_t - x_*|^2 <= (|x0 - x_*|^2 + mu |x0 - x_*|^2_{H^-1})
    #                    exp(-sqrt(mu / (R^2 kappa_tilde)) t)
    want = _paper(lambda t: (2 + 0.5 * 2.5) * math.exp(-math.sqrt(0.5 / (4 * 2)) * t))
    got = _bound(MULTIPLICATIVE, "multiplicative_strongly_convex", "dist_sq")
    assert got.tolist() == pytest.approx(want, rel=1e-12)
