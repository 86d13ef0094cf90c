"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The ensembles are the
expensive part; they are built once per session and shared across criteria.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from continuized.dual import DualParams, LocalFunction, decentralized_plan
from continuized.dynamics import run_continuized, run_three_sequence
from continuized.gossip import GossipParams, gossip_rates, run_gossip
from continuized.graphs import complete_graph, grid_graph, line_graph, spectral
from continuized.harness.presets import get_preset
from continuized.harness.runner import run_experiment
from continuized.problems import NoiseModel, make_quadratic
from continuized.schedules import EventClock, ParamSchedule
from continuized.seeding import run_streams
from continuized.trace import record_run
from oracles import event_times

MASTER_SEED = 20210211


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def fitted_rate(grid: np.ndarray, mean: np.ndarray, lo: float, hi: float) -> float:
    """Least-squares slope of -log(mean) over checkpoints in [lo, hi]."""
    mask = (grid >= lo) & (grid <= hi) & (mean > 0)
    design = np.vstack([np.ones(mask.sum()), grid[mask]]).T
    coef = np.linalg.lstsq(design, np.log(mean[mask]), rcond=None)[0]
    return -float(coef[1])


@pytest.fixture(scope="module")
def a1_convex():
    spec = get_preset("appendix-a1-convex").with_overrides(seed=MASTER_SEED)
    start = time.monotonic()
    runset = run_experiment(spec)
    return spec, runset, time.monotonic() - start


@pytest.fixture(scope="module")
def a1_strongly_convex():
    spec = get_preset("appendix-a1-strongly-convex").with_overrides(seed=MASTER_SEED)
    start = time.monotonic()
    runset = run_experiment(spec)
    return spec, runset, time.monotonic() - start


@pytest.fixture(scope="module")
def gossip_ensembles():
    out = {}
    start = time.monotonic()
    for name in ("appendix-a2-line30", "appendix-a2-grid225", "appendix-a2-complete10"):
        spec = get_preset(name).with_overrides(seed=MASTER_SEED)
        out[name] = (spec, run_experiment(spec))
    return out, time.monotonic() - start


@pytest.fixture(scope="module")
def naive_gossip_means():
    means = {}
    for name in ("appendix-a2-line30", "appendix-a2-grid225", "appendix-a2-complete10"):
        spec = dataclasses.replace(get_preset(name).with_overrides(seed=MASTER_SEED + 1),
                                   gossip_algo="naive", include_bounds=False)
        runset = run_experiment(spec)
        means[name] = (runset.checkpoints, runset.mean("energy"))
    return means


def test_criterion_1_convex_continuized_bound(a1_convex):
    spec, runset, elapsed = a1_convex
    problem = spec.problem
    grid = runset.checkpoints
    bound = 2.0 * problem.smoothness * float(np.sum(problem.optimum**2)) / grid**2
    mean = runset.mean("gap")
    worst = float(np.max(mean / bound))
    ok = worst <= 1.1 and elapsed <= 60.0
    report(
        "criterion 1: convex bound 2L|z0-x*|^2/t^2",
        ok,
        f"max mean/bound = {worst:.3f} (limit 1.1), runtime {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_strongly_convex_bound(a1_strongly_convex):
    spec, runset, elapsed = a1_strongly_convex
    problem = spec.problem
    grid = runset.checkpoints
    gap0 = problem.gap(np.zeros(3))
    phi0 = gap0 + 0.5 * 0.01 * float(np.sum(problem.optimum**2))
    bound = phi0 * np.exp(-0.1 * grid)
    mean = runset.mean("gap")
    worst = float(np.max(mean / bound))
    ok = worst <= 1.1 and elapsed <= 60.0
    report(
        "criterion 2: strongly convex bound phi0 exp(-0.1 t)",
        ok,
        f"max mean/bound = {worst:.3f} (limit 1.1), runtime {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_3_discrete_bound():
    idx = np.arange(1, 101)
    problem = make_quadratic(1.0 / idx**2, 1.0 / idx)
    schedule = ParamSchedule.convex(1.0)
    clock = EventClock.exponential()
    ks = (10, 50, 100)
    runs = 1000
    stat = {k: 0.0 for k in ks}
    from continuized.schedules import sample_interarrival

    for i in range(runs):
        streams = run_streams(MASTER_SEED + 2, i)
        times = np.cumsum(
            [sample_interarrival(clock, streams.clock.random()) for _ in range(100)]
        )
        xs, _, _ = run_three_sequence(problem, schedule, times)
        for k in ks:
            stat[k] += times[k - 1] ** 2 * problem.gap(xs[k])
    limit = 2.0 * problem.smoothness * float(np.sum(problem.optimum**2))
    ratios = {k: stat[k] / runs / limit for k in ks}
    worst = max(ratios.values())
    report(
        "criterion 3: discrete bound E[T_k^2 gap_k] <= 2L|z0-x*|^2",
        worst <= 1.1,
        "ratios " + ", ".join(f"k={k}: {r:.3f}" for k, r in ratios.items()) + " (limit 1.1)",
    )


def test_criterion_4_exact_discretization():
    problem = make_quadratic([0.01, 0.03, 1.0], [1.0, 1.0, 1.0])
    worst = 0.0
    for kind, schedule in (
        ("convex", ParamSchedule.convex(1.0)),
        ("strongly_convex", ParamSchedule.strongly_convex(1.0, 0.01)),
    ):
        for seed in range(100):
            # a checkpoint at each event time records the post-jump state
            times = event_times(EventClock.exponential(), 30.0, run_streams(MASTER_SEED + 3, seed))
            trace = run_continuized(
                problem, NoiseModel.none(), schedule, EventClock.exponential(),
                30.0, run_streams(MASTER_SEED + 3, seed), checkpoints=times,
            )
            assert len(trace.states) == len(times) > 0
            xs, _, zs = run_three_sequence(problem, schedule, times)
            for k, state in enumerate(trace.states):
                worst = max(
                    worst,
                    float(np.max(np.abs(state.x - xs[k + 1]))),
                    float(np.max(np.abs(state.z - zs[k + 1]))),
                )
    report(
        "criterion 4: exact discretization (100 seeds, both kinds)",
        worst <= 1e-12,
        f"max |continuous - recursion| = {worst:.2e} (limit 1e-12)",
    )


def test_criterion_5_supermartingale_monitor():
    cps = [1.0, 2.0, 5.0, 10.0, 20.0]
    runs = 1000
    idx = np.arange(1, 101)
    cases = {
        "convex": (make_quadratic(1.0 / idx**2, 1.0 / idx), ParamSchedule.convex(1.0)),
        "strongly_convex": (
            make_quadratic([0.01, 0.03, 1.0], [1.0, 1.0, 1.0]),
            ParamSchedule.strongly_convex(1.0, 0.01),
        ),
    }
    details = []
    ok = True
    for label, (problem, schedule) in cases.items():
        vals = np.empty((runs, len(cps)))
        for i in range(runs):
            trace = run_continuized(
                problem, NoiseModel.none(), schedule, EventClock.exponential(),
                20.0, run_streams(MASTER_SEED + 4, i), checkpoints=cps,
            )
            vals[i] = trace.values["lyapunov"]
        diffs = np.diff(vals, axis=1)
        mean_d = diffs.mean(axis=0)
        se_d = diffs.std(axis=0) / math.sqrt(runs)
        margin = float(np.max(mean_d - 2.0 * se_d))
        ok = ok and margin <= 0.0
        details.append(f"{label}: max(mean diff - 2 se) = {margin:.2e}")
    report(
        "criterion 5: ensemble-mean Lyapunov non-increasing (2 se)",
        ok,
        "; ".join(details),
    )


def test_criterion_6_additive_noise_plateau():
    spec = get_preset("appendix-b-additive").with_overrides(seed=MASTER_SEED + 5)
    runset = run_experiment(spec)
    sigma2 = spec.noise.sigma2
    plateau = sigma2 / math.sqrt(0.01 * 1.0)
    grid = runset.checkpoints
    tail = grid >= 50.0
    worst = float(np.max(runset.mean("gap")[tail]))
    report(
        "criterion 6: additive-noise plateau sigma^2/sqrt(mu L)",
        worst <= 1.2 * plateau,
        f"max mean gap for t >= 50 is {worst:.3e}, limit {1.2 * plateau:.3e}",
    )


def test_criterion_7_graph_quantities():
    cache = spectral(complete_graph(10))
    theta_rg, theta_arg = gossip_rates(cache)
    # analytic oracle for the uniform complete graph
    ok_mu = abs(cache.mu_gossip - 2.0 / 9.0) <= 1e-10
    ok_rmax = abs(cache.r_max - 9.0) <= 1e-10
    ok_arg = abs(theta_arg - 1.0 / 9.0) <= 1e-12
    # the sqrt(2) comparison holds on the sparse presets; the complete graph
    # sits at the provable factor-2 extreme (kappa_tilde = kappa there)
    sqrt2_ok = True
    for g in (line_graph(30), grid_graph(15, 15)):
        rg, arg = gossip_rates(spectral(g))
        sqrt2_ok = sqrt2_ok and arg >= rg / math.sqrt(2.0)
    complete_ok = theta_arg >= theta_rg / 2.0 - 1e-12
    ok = ok_mu and ok_rmax and ok_arg and sqrt2_ok and complete_ok
    report(
        "criterion 7: graph quantities and rate comparisons",
        ok,
        f"mu={cache.mu_gossip:.12f} rmax={cache.r_max:.10f} theta_arg={theta_arg:.12f}; "
        f"theta_arg >= theta_rg/sqrt(2) on line30/grid225: {sqrt2_ok}; "
        f"complete10 at the factor-2 extreme: {complete_ok}",
    )


def test_criterion_8_gossip_bound(gossip_ensembles):
    ensembles, elapsed = gossip_ensembles
    details = []
    ok = elapsed <= 300.0
    for name, (spec, runset) in ensembles.items():
        bound = runset.bounds["energy"]
        worst = float(np.max(runset.mean("energy") / bound))
        ok = ok and worst <= 1.1
        details.append(f"{name.split('-')[-1]}: {worst:.3f}")
    report(
        "criterion 8: gossip bound 2 E(0) exp(-theta_arg t)",
        ok,
        f"max mean/bound {', '.join(details)} (limit 1.1); runtime {elapsed:.0f}s (limit 300s)",
    )


def test_criterion_9_acceleration_observed(gossip_ensembles, naive_gossip_means):
    ensembles, _ = gossip_ensembles
    ratios = {}
    for name, (spec, runset) in ensembles.items():
        grid = runset.checkpoints
        horizon = float(grid[-1])
        accel = fitted_rate(grid, runset.mean("energy"), horizon / 4.0, horizon)
        ngrid, nmean = naive_gossip_means[name]
        naive = fitted_rate(ngrid, nmean, horizon / 4.0, horizon)
        ratios[name] = accel / naive
    ok = (
        ratios["appendix-a2-line30"] >= 2.0
        and ratios["appendix-a2-grid225"] >= 2.0
        and ratios["appendix-a2-complete10"] <= 1.5
    )
    report(
        "criterion 9: acceleration on line/grid, none on complete",
        ok,
        ", ".join(f"{k.split('-')[-1]}: {v:.2f}" for k, v in ratios.items())
        + " (need >= 2, >= 2, <= 1.5)",
    )


def test_criterion_10_gossip_dual_reduction():
    worst = 0.0
    for graph in (line_graph(10), complete_graph(10)):
        cache = spectral(graph)
        gparams = GossipParams.from_cache(cache)
        rng = np.random.default_rng(MASTER_SEED)
        x0 = rng.standard_normal(graph.node_count)
        horizon = 60.0
        times = event_times(graph, horizon, run_streams(MASTER_SEED + 6, 0))
        tr_gossip = run_gossip(
            graph, gparams, x0, horizon, run_streams(MASTER_SEED + 6, 0), checkpoints=times,
        )
        fns = [LocalFunction(1.0, np.array([v])) for v in x0]
        r_eff = float(cache.r_eff[0])
        dparams = DualParams(
            l_dual=r_eff,
            theta_arg_prime=math.sqrt(cache.mu_gossip / r_eff),
            eta=gparams.mix_rate,
            gamma=1.0 / (2.0 * r_eff),
            gamma_prime=gparams.z_step,
        )
        plan = decentralized_plan(graph, fns, 1.0, 1.0, horizon, dparams, times)
        tr_dual = record_run(plan, run_streams(MASTER_SEED + 6, 0))
        assert len(tr_gossip.states) == len(tr_dual.states) == len(times) > 0
        for (tg, xg, zg), (td, yd, zd) in zip(tr_gossip.states, tr_dual.states):
            worst = max(
                worst,
                float(np.max(np.abs(x0 + yd - xg))),
                float(np.max(np.abs(x0 + zd - zg))),
            )
    report(
        "criterion 10: decentralized run reduces to accelerated gossip",
        worst <= 1e-10,
        f"max per-event deviation {worst:.2e} (limit 1e-10)",
    )


def test_criterion_11_decentralized_rate():
    spec = get_preset("decentralized-line10").with_overrides(seed=MASTER_SEED + 7)
    runset = run_experiment(spec)
    params = DualParams.from_graph(spec.graph, 0.1, 1.0)
    rate = params.theta_arg_prime / math.sqrt(1.0 / 0.1)
    grid = runset.checkpoints
    horizon = float(grid[-1])
    slope = fitted_rate(grid, runset.mean("primal_dist_sq"), horizon / 4.0, horizon)
    report(
        "criterion 11: decentralized rate exp(-(theta'_arg/sqrt(kappa)) t)",
        slope >= 0.8 * rate,
        f"fitted rate {slope:.5f} vs requirement 0.8 x {rate:.5f} = {0.8 * rate:.5f}",
    )
