"""Ensemble orchestration and quantile aggregation.

``resolve`` turns a spec, once, into its per-ensemble plan: a call from a
block of run indices to their metric rows, the checkpoint grid and the
constants the bounds need; ``run_experiment`` is the one loop over the
blocks of an ensemble.
"""

from __future__ import annotations

import math
from dataclasses import field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..dynamics import continuized_plan, run_gd, run_nesterov
from ..dynamics import run_continuized  # noqa: F401  (re-exported: bench tests wrap it here)
from ..gossip import GossipParams, gossip_plan, gossip_rates
from ..records import Record
from ..schedules import ParamSchedule
from ..seeding import PROBLEM_STREAM, derive_seed, run_streams
from ..trace import run_block
from .config import BASELINE_METHODS, RUN_KINDS, ExperimentSpec


class RunSet(Record):
    """Per-run metric values on a shared checkpoint grid, plus aggregates
    and the theory bounds on that grid."""

    checkpoints: np.ndarray
    metrics: tuple[str, ...]
    values: dict[str, np.ndarray]
    aggregate: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    bounds: dict[str, np.ndarray] = field(default_factory=dict)

    def mean(self, metric: str) -> np.ndarray:
        return self.aggregate[metric]["mean"]


class ResolvedExperiment(Record):
    """What every run of an ensemble shares: the call from a block of run
    indices to one (R, C) array per metric and the (R,) event counts, and
    the checkpoint grid."""

    run_block: Callable[[Sequence[int]], tuple[dict[str, np.ndarray], np.ndarray]]
    checkpoints: np.ndarray


def aggregate_values(
    values: np.ndarray, checkpoints: np.ndarray, metric: str = "value"
) -> dict[str, np.ndarray]:
    """Per-checkpoint mean and 5/95% quantiles (linear interpolation of
    order statistics) of the (runs, checkpoints) ``values`` of ``metric``.

    Raises FloatingPointError naming the runs with a non-finite value and
    the time of each one's first non-finite checkpoint.
    """
    finite = np.isfinite(values)
    bad = np.flatnonzero(~finite.all(axis=1))
    if bad.size:
        first = np.argmin(finite[bad], axis=1)
        where = ", ".join(f"run {i} at t = {checkpoints[j]:.12g}" for i, j in zip(bad, first))
        raise FloatingPointError(
            f"metric {metric} is not finite in runs {', '.join(map(str, bad))} "
            f"(first non-finite checkpoint: {where})"
        )
    ordered = np.sort(values, axis=0)
    return {
        "mean": values.mean(axis=0),
        "q05": quantile_of_sorted(ordered, 0.05),
        "q95": quantile_of_sorted(ordered, 0.95),
    }


def quantile_of_sorted(ordered: np.ndarray, q: float) -> np.ndarray:
    """The q-quantile of each column of the column-sorted (n, C) ``ordered``
    by numpy's linear rule, bit for bit ``np.quantile(values, q, axis=0)``:
    virtual index (n - 1) q, its floor and fraction gamma (the last row,
    with gamma = index + 1, once the index reaches n - 1), and numpy's
    two-sided interpolation a + d gamma, or b - d (1 - gamma) where
    gamma >= 0.5, with d = b - a."""
    index = (len(ordered) - 1) * q
    below = math.floor(index)
    above = below + 1
    if index >= len(ordered) - 1:
        below = above = -1
    gamma = index - below
    a, b = ordered[below], ordered[above]
    d = b - a
    return b - d * (1 - gamma) if gamma >= 0.5 else a + d * gamma


def build_runset(values: dict[str, np.ndarray], checkpoints: np.ndarray,
                 bounds: dict[str, np.ndarray]) -> RunSet:
    """The run set of (runs, checkpoints) ``values`` per metric, aggregated,
    with the ``bounds`` on the grid."""
    return RunSet(
        checkpoints=checkpoints,
        metrics=tuple(values),
        values=values,
        aggregate={m: aggregate_values(v, checkpoints, m) for m, v in values.items()},
        bounds=bounds,
    )


def theory_bounds(spec: ExperimentSpec, t: np.ndarray) -> dict[str, np.ndarray]:
    """Closed-form reference curves on the ensemble's grid ``t`` for the
    metrics that have one."""
    if spec.kind == "gossip" and spec.gossip_algo == "accelerated":
        _, theta_arg = gossip_rates(spec.graph.spectrum)
        x0 = spec.gossip_init
        e0 = 0.5 * float(np.sum((x0 - x0.mean()) ** 2))
        return {"energy": 2.0 * e0 * np.exp(-theta_arg * t)}
    if spec.kind != "optimize":
        return {}
    problem, algo = spec.problem, spec.algo
    x0 = algo.x0
    gap0 = problem.gap(x0)
    dist0 = float(np.sum((x0 - problem.optimum) ** 2))
    big_l, mu = problem.smoothness, problem.strong_convexity
    sigma2 = spec.noise.sigma2 if spec.noise.kind == "additive" else 0.0
    if algo.method == "nesterov":
        k = np.maximum(t, 1.0)
        if algo.variant == "convex":
            return {"gap": np.where(t >= 1, 2.0 * big_l * dist0 / k**2, np.inf)}
        rho = 1.0 - ParamSchedule.for_problem(problem, "strongly_convex").mix_rate
        return {"gap": (gap0 + 0.5 * mu * dist0) * rho**t}
    if algo.method == "gd":
        if abs(algo.step * big_l - 1.0) > 1e-15:  # relative: the bound holds at step 1/L
            return {}
        return {"gap": gap0 * (1.0 - mu / big_l) ** t}
    if algo.clock.kind != "exponential" or algo.clock.rate != 1.0:
        # the continuized bounds are proven for the rate-1 Poisson clock only
        return {}
    schedule = algo.schedule
    if schedule.kind == "convex":
        bound = 2.0 * big_l * dist0 / t**2 + sigma2 * t / (3.0 * big_l)
        return {"gap": bound}
    if schedule.kind == "strongly_convex":
        bound = (gap0 + 0.5 * mu * dist0) * np.exp(-schedule.mix_rate * t)
        return {"gap": bound + sigma2 / math.sqrt(mu * big_l)}
    dist0_hinv = problem.dist_sq_hinv(x0 - problem.optimum)
    r2, kt = problem.r_squared, problem.kappa_tilde
    if schedule.kind == "multiplicative_convex":
        return {"dist_sq": 2.0 * r2 * kt * dist0_hinv / t**2}
    return {"dist_sq": (dist0 + mu * dist0_hinv) * np.exp(-schedule.mix_rate * t)}


def resolve(spec: ExperimentSpec) -> ResolvedExperiment:
    """Build, once, everything the runs of ``spec`` share: the kind's plan."""
    if spec.kind not in RUN_KINDS:
        raise ValueError(f"experiment kind {spec.kind!r} does not produce a run set")
    algo = spec.algo
    if spec.kind == "optimize" and algo.method in BASELINE_METHODS:
        # Deterministic: every run of the ensemble is the same trajectory,
        # so it is computed once and stands for each run.
        iters = round(spec.horizon) if algo.iters is None else algo.iters
        if algo.method == "nesterov":
            trajectory = run_nesterov(spec.problem, algo.variant, iters, x0=algo.x0)
        else:
            trajectory = run_gd(spec.problem, algo.step, iters, x0=algo.x0)
        gap = np.array(trajectory.values["gap"])
        return ResolvedExperiment(
            lambda runs: ({"gap": np.tile(gap, (len(runs), 1))}, np.zeros(len(runs), int)),
            np.arange(iters + 1.0),
        )
    grid = np.asarray(spec.checkpoints, dtype=float)
    if spec.kind == "optimize":
        build = partial(continuized_plan, spec.problem, spec.noise, algo.schedule, algo.clock,
                        spec.horizon, algo.x0, grid)
    elif spec.kind == "gossip":
        params = GossipParams.from_cache(spec.graph.spectrum, algo=spec.gossip_algo)
        build = partial(gossip_plan, spec.graph, params, spec.gossip_init, spec.horizon, grid)
    else:
        # the spec's parser has loaded the dual already, during setup
        from ..dual import DualParams, decentralized_plan

        cfg = spec.decentralized
        params = DualParams.from_graph(spec.graph, cfg.mu, cfg.smoothness)
        build = partial(decentralized_plan, spec.graph, _local_functions(spec), cfg.mu,
                        cfg.smoothness, spec.horizon, params, grid)
    try:  # the checks every run made, made once: a spec no run can take fails as run 0
        plan = build()
    except Exception as exc:
        raise RuntimeError(f"run 0 failed: {exc}") from exc
    return ResolvedExperiment(
        lambda runs: run_block(plan, runs, lambda i: run_streams(spec.seed, i)), grid)


def _local_functions(spec: ExperimentSpec) -> Sequence[LocalFunction]:
    """The spec's explicit local functions, or its seeded random ones."""
    cfg = spec.decentralized
    if cfg.local_functions is not None:
        return cfg.local_functions
    from ..dual import random_local_functions

    rng = np.random.default_rng(derive_seed(spec.seed, PROBLEM_STREAM))
    return random_local_functions(
        spec.graph.node_count, cfg.mu, cfg.smoothness, cfg.dimension, rng, cfg.center_scale
    )


def run_experiment(spec: ExperimentSpec, progress=None) -> RunSet:
    """Execute every run of the ensemble; per-run seeds derive from the
    master seed, so the result is replay-exact.  The runs go in blocks of a
    tenth of the ensemble, each block's rows straight into the
    (runs, checkpoints) arrays, and ``progress`` hears after each block."""
    resolved = resolve(spec)
    grid = resolved.checkpoints
    values = {}
    size = max(spec.runs // 10, 1)
    for start in range(0, spec.runs, size):
        runs = range(start, min(start + size, spec.runs))
        block, _ = resolved.run_block(runs)
        for m, rows in block.items():
            values.setdefault(m, np.empty((spec.runs, len(grid))))[runs.start:runs.stop] = rows
        if progress:
            progress(runs.stop, spec.runs)
    return build_runset(values, grid, theory_bounds(spec, grid) if spec.include_bounds else {})
