"""Ensemble orchestration and quantile aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..dual import DualParams, LocalFunction, random_local_functions, run_decentralized
from ..dynamics import run_continuized, run_gd, run_nesterov
from ..gossip import GossipParams, run_gossip
from ..graphs import spectral
from ..seeding import PROBLEM_STREAM, derive_seed, run_streams
from ..trace import Trace
from .config import ExperimentSpec

_METRICS_BY_KIND = {
    "optimize": ("gap", "dist_sq"),
    "gossip": ("energy",),
    "decentralized": ("primal_dist_sq",),
}


@dataclass
class RunSet:
    """An ensemble of traces on a shared checkpoint grid, plus aggregates."""

    checkpoints: np.ndarray
    metrics: tuple[str, ...]
    traces: list[Trace]
    values: dict[str, np.ndarray]
    aggregate: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    bounds: dict[str, np.ndarray] = field(default_factory=dict)

    def mean(self, metric: str) -> np.ndarray:
        return self.aggregate[metric]["mean"]


def aggregate_values(values: np.ndarray, metric: str = "value") -> dict[str, np.ndarray]:
    """Per-checkpoint mean and 5/95% quantiles (linear interpolation of
    order statistics) of the (runs, checkpoints) ``values`` of ``metric``.

    Raises FloatingPointError naming the runs with a non-finite value.
    """
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise FloatingPointError(
            f"metric {metric} is not finite in runs {', '.join(map(str, bad))}"
        )
    return {
        "mean": values.mean(axis=0),
        "q05": np.quantile(values, 0.05, axis=0),
        "q95": np.quantile(values, 0.95, axis=0),
    }


def build_runset(traces: list[Trace], checkpoints, metrics) -> RunSet:
    grid = np.asarray(checkpoints, dtype=float)
    values = {
        m: np.vstack([tr.metric_at(grid, m) for tr in traces]) for m in metrics
    }
    return RunSet(
        checkpoints=grid,
        metrics=tuple(metrics),
        traces=traces,
        values=values,
        aggregate={m: aggregate_values(v, m) for m, v in values.items()},
    )


def theory_bounds(spec: ExperimentSpec, grid: np.ndarray) -> dict[str, np.ndarray]:
    """Closed-form reference curves for the metrics that have one."""
    t = np.asarray(grid, dtype=float)
    if spec.kind == "gossip" and spec.gossip_algo == "accelerated":
        cache = spectral(spec.graph)
        theta_arg = math.sqrt(cache.mu_gossip / (2.0 * cache.r_max))
        x0 = _gossip_init(spec)
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
        rho = 1.0 - math.sqrt(mu / big_l)
        return {"gap": (gap0 + 0.5 * mu * dist0) * rho**t}
    if algo.method == "gd":
        if abs(algo.step - 1.0 / big_l) > 1e-15:
            return {}
        return {"gap": gap0 * (1.0 - mu / big_l) ** t}
    schedule = algo.schedule
    if schedule.kind == "convex":
        bound = 2.0 * big_l * dist0 / t**2 + sigma2 * t / (3.0 * big_l)
        return {"gap": bound}
    if schedule.kind == "strongly_convex":
        bound = (gap0 + 0.5 * mu * dist0) * np.exp(-math.sqrt(mu / big_l) * t)
        return {"gap": bound + sigma2 / math.sqrt(mu * big_l)}
    dist0_hinv = problem.dist_sq_hinv(x0 - problem.optimum)
    r2, kt = problem.r_squared, problem.kappa_tilde
    if schedule.kind == "multiplicative_convex":
        return {"dist_sq": 2.0 * r2 * kt * dist0_hinv / t**2}
    rate = schedule.mix_rate
    return {"dist_sq": (dist0 + mu * dist0_hinv) * np.exp(-rate * t)}


def _gossip_init(spec: ExperimentSpec) -> np.ndarray:
    if spec.gossip_init is not None:
        return np.asarray(spec.gossip_init, dtype=float)
    x0 = np.zeros(spec.graph.node_count)
    x0[0] = 1.0
    return x0


def run_experiment(spec: ExperimentSpec, progress=None) -> RunSet:
    """Execute every run of the ensemble; per-run seeds derive from the
    master seed, so the result is replay-exact."""
    if spec.kind == "optimize":
        runset = _run_optimize(spec, progress)
    elif spec.kind == "gossip":
        runset = _run_gossip_ensemble(spec, progress)
    elif spec.kind == "decentralized":
        runset = _run_decentralized_ensemble(spec, progress)
    else:
        raise ValueError(f"experiment kind {spec.kind!r} does not produce a run set")
    if spec.include_bounds:
        runset.bounds = theory_bounds(spec, runset.checkpoints)
    return runset


def _wrap_run(i: int, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise RuntimeError(f"run {i} failed: {exc}") from exc


def _run_optimize(spec: ExperimentSpec, progress) -> RunSet:
    algo = spec.algo
    if algo.method in ("nesterov", "gd"):
        # Deterministic: every run of the ensemble is the same trajectory,
        # so it is computed once and stands for each run.
        iters = round(spec.horizon) if algo.iters is None else algo.iters
        if algo.method == "nesterov":
            trace = _wrap_run(0, run_nesterov, spec.problem, algo.variant, iters, x0=algo.x0)
        else:
            trace = _wrap_run(0, run_gd, spec.problem, algo.step, iters, x0=algo.x0)
        if progress:
            progress(spec.runs, spec.runs)
        grid = np.arange(iters + 1, dtype=float)
        return build_runset([trace] * spec.runs, grid, ("gap",))
    metrics = _METRICS_BY_KIND["optimize"] + ("lyapunov",)
    traces = []
    for i in range(spec.runs):
        traces.append(
            _wrap_run(
                i,
                run_continuized,
                spec.problem,
                spec.noise,
                algo.schedule,
                algo.clock,
                spec.horizon,
                run_streams(spec.seed, i),
                x0=algo.x0,
                checkpoints=spec.checkpoints,
            )
        )
        if progress:
            progress(i + 1, spec.runs)
    return build_runset(traces, spec.checkpoints, metrics)


def _run_gossip_ensemble(spec: ExperimentSpec, progress) -> RunSet:
    cache = spectral(spec.graph)
    params = GossipParams.from_cache(cache, algo=spec.gossip_algo)
    x0 = _gossip_init(spec)
    traces = []
    for i in range(spec.runs):
        traces.append(
            _wrap_run(
                i,
                run_gossip,
                spec.graph,
                params,
                x0,
                spec.horizon,
                run_streams(spec.seed, i),
                checkpoints=spec.checkpoints,
            )
        )
        if progress:
            progress(i + 1, spec.runs)
    return build_runset(traces, spec.checkpoints, _METRICS_BY_KIND["gossip"])


def _local_functions(spec: ExperimentSpec) -> list[LocalFunction]:
    cfg = spec.decentralized
    if cfg.curvatures is not None:
        return [
            LocalFunction(float(c), np.atleast_1d(cfg.centers[v]))
            for v, c in enumerate(cfg.curvatures)
        ]
    rng = np.random.default_rng(derive_seed(spec.seed, PROBLEM_STREAM))
    return random_local_functions(
        spec.graph.node_count, cfg.mu, cfg.smoothness, cfg.dimension, rng, cfg.center_scale
    )


def _run_decentralized_ensemble(spec: ExperimentSpec, progress) -> RunSet:
    cfg = spec.decentralized
    cache = spectral(spec.graph)
    fns = _local_functions(spec)
    params = DualParams.from_graph(spec.graph, cache, cfg.mu, cfg.smoothness)
    traces = []
    for i in range(spec.runs):
        traces.append(
            _wrap_run(
                i,
                run_decentralized,
                spec.graph,
                fns,
                cfg.mu,
                cfg.smoothness,
                spec.horizon,
                run_streams(spec.seed, i),
                cache=cache,
                params=params,
                checkpoints=spec.checkpoints,
            )
        )
        if progress:
            progress(i + 1, spec.runs)
    return build_runset(traces, spec.checkpoints, _METRICS_BY_KIND["decentralized"])
