"""Named experiment presets, one per reproduced figure family."""

from __future__ import annotations

import numpy as np

from ..graphs import complete_graph, grid_graph, line_graph
from ..problems import NoiseModel, make_quadratic
from .config import DecentralizedSpec, ExperimentSpec, log_spaced_checkpoints, resolve_algo


def _hundred_dim_convex():
    idx = np.arange(1, 101)
    return make_quadratic(1.0 / idx**2, 1.0 / idx)


def _three_dim_strongly_convex():
    return make_quadratic([0.01, 0.03, 1.0], [1.0, 1.0, 1.0])


def _optimize_spec(problem, schedule, horizon, *, noise=None, x0="zeros"):
    return ExperimentSpec(
        kind="optimize",
        horizon=horizon,
        checkpoints=log_spaced_checkpoints(horizon, 50),
        include_bounds=True,
        problem=problem,
        noise=noise or NoiseModel.none(),
        algo=resolve_algo({"schedule": schedule, "x0": x0}, problem),
    )


def _gossip_spec(graph, horizon):
    return ExperimentSpec(
        kind="gossip",
        horizon=horizon,
        checkpoints=log_spaced_checkpoints(horizon, 50),
        include_bounds=True,
        graph=graph,
        gossip_algo="accelerated",
    )


def appendix_a1_convex() -> ExperimentSpec:
    return _optimize_spec(_hundred_dim_convex(), "convex", 100.0)


def appendix_a1_strongly_convex() -> ExperimentSpec:
    return _optimize_spec(_three_dim_strongly_convex(), "strongly_convex", 300.0)


def appendix_b_additive() -> ExperimentSpec:
    problem = _three_dim_strongly_convex()
    return _optimize_spec(
        problem,
        "strongly_convex",
        120.0,
        noise=NoiseModel.additive(1e-4 * problem.dimension),
        x0="optimum",
    )


def appendix_a2_line30() -> ExperimentSpec:
    return _gossip_spec(line_graph(30), 2400.0)


def appendix_a2_grid225() -> ExperimentSpec:
    return _gossip_spec(grid_graph(15, 15), 9000.0)


def appendix_a2_complete10() -> ExperimentSpec:
    return _gossip_spec(complete_graph(10), 80.0)


def decentralized_line10() -> ExperimentSpec:
    return ExperimentSpec(
        kind="decentralized",
        runs=500,
        horizon=450.0,
        checkpoints=log_spaced_checkpoints(450.0, 50),
        graph=line_graph(10),
        decentralized=DecentralizedSpec(mu=0.1, smoothness=1.0),
    )


PRESETS = {
    "appendix-a1-convex": appendix_a1_convex,
    "appendix-a1-strongly-convex": appendix_a1_strongly_convex,
    "appendix-b-additive": appendix_b_additive,
    "appendix-a2-line30": appendix_a2_line30,
    "appendix-a2-grid225": appendix_a2_grid225,
    "appendix-a2-complete10": appendix_a2_complete10,
    "decentralized-line10": decentralized_line10,
}


def get_preset(name: str) -> ExperimentSpec:
    if name not in PRESETS:
        raise KeyError(name)
    return PRESETS[name]()


def preset_names() -> list[str]:
    return sorted(PRESETS)
