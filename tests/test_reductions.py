"""Gossip and the dual solver as instances of the continuized optimizer.

Accelerated gossip is the continuized iteration with multiplicative noise
on the incidence least squares (``oracles.energy_problem``: atoms
e_v - e_w drawn with the edge weights, optimum the consensus at the mean).
These tests take that problem's constants from the optimizer's own
schedule (``ParamSchedule.for_problem``), never from ``GossipParams``, and
drive ``run_continuized`` on the gossip run's event times: the event
times are handed over through ``dynamics.sample_event_times``, and both
engines pick each event's edge from the same uniform of the noise stream.
Criterion 8's gossip bound follows from that optimizer's bound, and the
dual solver's constants are a strongly convex schedule's to within 2 ulp.
"""

import dataclasses

import numpy as np
import pytest

from continuized import dynamics
from continuized.dual import DualParams
from continuized.dynamics import run_continuized
from continuized.gossip import GossipParams, run_gossip, sample_event_stream
from continuized.graphs import complete_graph, edge_list_graph, grid_graph, line_graph
from continuized.harness.config import ExperimentSpec, resolve_algo
from continuized.harness.presets import get_preset
from continuized.harness.runner import theory_bounds
from continuized.problems import NoiseModel
from continuized.schedules import EventClock, ParamSchedule, schedule_eval
from continuized.seeding import run_streams
from oracles import energy_problem

SEED = 20210211
RUNS = 3

# graph -> horizon, at about as many events as the graph's preset runs
REDUCTION_GRAPHS = {
    "line30": (line_graph(30), 2000.0),
    "grid225": (grid_graph(15, 15), 9000.0),
    "complete10": (complete_graph(10), 200.0),
    "weighted-cycle4": (
        edge_list_graph([(0, 1), (1, 2), (2, 3), (3, 0)], [0.5, 0.25, 0.125, 0.125]), 200.0),
}


def _starts(n: int) -> dict[str, np.ndarray]:
    return {"spike": np.eye(1, n)[0], "normal": np.random.default_rng(n).standard_normal(n)}


@pytest.mark.parametrize("name", list(REDUCTION_GRAPHS))
def test_incidence_constants_are_the_gossip_graph_quantities(name):
    # kappa_tilde of the incidence problem is the largest effective
    # resistance, and every atom e_v - e_w has |a|^2 = R^2 = 2
    graph, _ = REDUCTION_GRAPHS[name]
    problem = energy_problem(graph, np.zeros(graph.node_count))
    assert problem.kappa_tilde == pytest.approx(graph.spectrum.r_max, rel=1e-13, abs=0)
    assert problem.r_squared == pytest.approx(2.0, rel=1e-13, abs=0)


@pytest.mark.parametrize("start", ["spike", "normal"])
@pytest.mark.parametrize("name", list(REDUCTION_GRAPHS))
def test_gossip_is_the_continuized_optimizer(name, start, monkeypatch):
    graph, horizon = REDUCTION_GRAPHS[name]
    x0 = _starts(graph.node_count)[start]
    grid = np.linspace(horizon / 50, horizon, 50).tolist()
    problem = energy_problem(graph, x0)
    schedule = ParamSchedule.for_problem(problem, "multiplicative_strongly_convex")
    params = GossipParams.from_cache(graph.spectrum, "accelerated")
    scale = max(1.0, float(np.sum(np.abs(x0))))
    e0 = 0.5 * float(np.sum((x0 - x0.mean()) ** 2))
    for i in range(RUNS):
        gossip = run_gossip(graph, params, x0, horizon, run_streams(SEED, i), checkpoints=grid)
        times, edges = sample_event_stream(graph, horizon, run_streams(SEED, i))
        times = times.tolist()
        # the optimizer picks atom i for the uniform u as its oracle does;
        # the running sums of the problem's and the graph's weights differ
        # in the last bits on some graphs, so a uniform between them would
        # split the two runs
        u = run_streams(SEED, i).noise.random(len(times))
        picks = np.searchsorted(problem.sample_draw.cum, u, side="right")
        np.testing.assert_array_equal(np.minimum(picks, graph.edge_count - 1), edges)
        monkeypatch.setattr(dynamics, "sample_event_times", lambda *_: times)
        opt = run_continuized(problem, NoiseModel.multiplicative(), schedule,
                              EventClock.exponential(), horizon, run_streams(SEED, i),
                              x0=x0, checkpoints=grid)
        assert opt.events == gossip.events == len(times) > 0
        assert len(opt.states) == len(gossip.states) == len(grid)
        for mine, theirs in zip(gossip.states, opt.states):
            np.testing.assert_allclose(mine.x, theirs.x, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(mine.z, theirs.z, rtol=0, atol=1e-12 * scale)
        # relative errors mean nothing once the energy underflows
        half_dist = 0.5 * np.array(opt.values["dist_sq"])
        np.testing.assert_allclose(gossip.values["energy"], half_dist, rtol=0, atol=1e-12 * e0)


def _random_graph(rng):
    n = int(rng.integers(3, 12))
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(int(rng.integers(0, n))):
        v, w = sorted(rng.choice(n, 2, replace=False).tolist())
        if (v, w) not in edges:
            edges.append((v, w))
    return edge_list_graph(edges, rng.uniform(0.05, 3.0, len(edges)))


def _dual_cases():
    rng = np.random.default_rng(31)
    graphs = [line_graph(10), line_graph(30), grid_graph(15, 15), complete_graph(10)]
    graphs += [_random_graph(rng) for _ in range(100)]
    for graph in graphs:
        for _ in range(4):
            mu = float(10 ** rng.uniform(-3, 1))
            yield graph, mu, mu * float(10 ** rng.uniform(0, 4))


def test_dual_constants_are_the_strongly_convex_schedule():
    # (eta, gamma, gamma') of the dual are (c, gamma, gamma') of the strongly
    # convex schedule with G = l_dual and m = mu_gossip / L, to 2 ulp: the
    # dual keeps its own formulas because sharing the schedule's would move
    # the last bits of its runs
    cases = 0
    for graph, mu, smoothness in _dual_cases():
        params = DualParams.from_graph(graph, mu, smoothness)
        schedule = ParamSchedule.strongly_convex(params.l_dual,
                                                 graph.spectrum.mu_gossip / smoothness)
        c, _, gamma, gamma_p = schedule_eval(schedule, 0.0)
        assert params.gamma == gamma
        for mine, want in ((params.eta, c), (params.gamma_prime, gamma_p)):
            assert abs(mine - want) <= 2 * np.spacing(want), (mine, want)
        cases += 1
    assert cases == 416


@pytest.mark.parametrize("start", ["spike", "normal"])
@pytest.mark.parametrize("name", ["appendix-a2-line30", "appendix-a2-grid225",
                                  "appendix-a2-complete10"])
def test_gossip_bound_follows_from_the_optimizer_theorem(name, start):
    # the energy is half the squared distance to consensus, so the optimizer's
    # dist_sq bound (|u|^2 + mu |u|^2_{H^-1}) exp(-c t), halved, bounds it;
    # criterion 8's 2 E0 exp(-theta_ARG t) = |u|^2 exp(-theta_ARG t) is at
    # least that, with equality where every nonzero Laplacian eigenvalue is mu
    spec = get_preset(name)
    x0 = _starts(spec.graph.node_count)[start]
    spec = dataclasses.replace(spec, gossip_init=x0)
    t = np.asarray(spec.checkpoints)
    gossip_bound = theory_bounds(spec, t)["energy"]
    problem = energy_problem(spec.graph, x0)
    algo = resolve_algo({"schedule": "multiplicative_strongly_convex",
                         "x0": " ".join(map(repr, x0.tolist()))}, problem)
    optimizer = ExperimentSpec("optimize", horizon=spec.horizon, checkpoints=t, problem=problem,
                               noise=NoiseModel.multiplicative(), algo=algo)
    half_dist_bound = 0.5 * theory_bounds(optimizer, t)["dist_sq"]
    assert np.all(gossip_bound >= half_dist_bound * (1.0 - 1e-12))
    if name == "appendix-a2-complete10":
        np.testing.assert_allclose(gossip_bound, half_dist_bound, rtol=1e-12, atol=0)
