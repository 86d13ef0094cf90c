"""Asynchronous accelerated decentralized optimization via dual coordinates.

Each node holds a strongly convex local function.  The consensus problem is
solved on its dual, where edge activations become coordinate gradient steps:
the activated pair exchanges conjugate gradients and applies antisymmetric
corrections to the node values y and z of the two dual iterates, which mix
node-locally between events exactly as in accelerated gossip: the run is
gossip's ``pairwise_plan`` with ``dual_update`` as its jump and
``primal_dist_sq`` as its measure, and ``trace`` runs its events and
captures its checkpoints as for any plan.  With quadratic local terms of
unit curvature the whole construction collapses to averaging.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .graphs import Graph
from .gossip import (
    lazy_mix_node,
    pairwise_plan,
    sample_event_stream,  # noqa: F401  (re-exported: the dual runs on gossip's events)
    synchronized_values,
)
from .problems import parse_positive, row_dots
from .records import Record
from .seeding import RunStreams
from .trace import Plan, Trace, record_run

Array = np.ndarray


class LocalFunction(Record):
    """Quadratic local objective f_v(x) = mu_v/2 |x - c_v|^2, with its
    conjugate gradient in closed form (``conjugate_grad``).

    The center follows gossip's rule for node values: a float when d = 1,
    a read-only row otherwise.
    """

    curvature: float
    center: float | Array

    def __post_init__(self) -> None:
        parse_positive(self.curvature, "curvature")
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if not np.all(np.isfinite(center)):
            raise ValueError("the center must be finite")
        object.__setattr__(self, "center", float(center[0]) if center.size == 1 else center)

    def grad(self, x: Array) -> Array:
        return self.curvature * (np.asarray(x) - self.center)


def conjugate_grad(fv: LocalFunction, y):
    """Gradient of the Fenchel conjugate: the inverse map of grad f_v."""
    return fv.center + y / fv.curvature


def random_local_functions(
    node_count: int,
    mu: float,
    smoothness: float,
    dimension: int,
    rng: np.random.Generator,
    center_scale: float = 1.0,
) -> list[LocalFunction]:
    """Quadratics with curvatures uniform in [mu, L] and Gaussian centers."""
    curvatures = rng.uniform(mu, smoothness, size=node_count)
    centers = center_scale * rng.standard_normal((node_count, dimension))
    return [LocalFunction(float(c), centers[v]) for v, c in enumerate(curvatures)]


def check_curvatures(curvatures, mu: float, smoothness: float) -> None:
    """Raise unless mu and L are finite and > 0 (``parse_positive``),
    mu <= L and every local curvature lies in [mu, L]."""
    if parse_positive(mu, "mu") > parse_positive(smoothness, "L"):
        raise ValueError(f"need mu <= L, got mu = {mu}, L = {smoothness}")
    outside = [
        v for v, c in enumerate(curvatures)
        if not mu - 1e-12 <= c <= smoothness + 1e-12
    ]
    if outside:
        raise ValueError(
            f"local curvatures of nodes {outside} leave the declared "
            f"[mu, L] = [{mu}, {smoothness}]"
        )


def optimum_of(local_functions: list[LocalFunction]):
    """Minimizer of the sum: curvature-weighted mean of the centers (a float
    for float centers)."""
    total = sum(f.curvature for f in local_functions)
    return sum(f.curvature * f.center for f in local_functions) / total


def incidence_r(graph: Graph) -> Array:
    """Diagonal of the projector A^+ A in edge space: R_e = P_e r_eff(e)."""
    return np.asarray(graph.edge_probs * graph.spectrum.r_eff)


class DualParams(Record):
    """Constants of the dual coordinate-descent updates.

    ``l_dual`` bounds the dual directional smoothness-resistance products,
    ``theta_arg_prime`` is the graph rate with the dual resistances, and
    (eta, gamma, gamma_prime) drive mixing, y-jumps, and z-jumps.
    """

    l_dual: float
    theta_arg_prime: float
    eta: float
    gamma: float
    gamma_prime: float

    @classmethod
    def from_graph(cls, graph: Graph, mu: float, smoothness: float) -> "DualParams":
        check_curvatures((), mu, smoothness)
        ratio = float(np.max(incidence_r(graph) / graph.edge_probs))
        # l_dual dominates M_ee R_e / P_e^2 = R_e / (P_e mu) on every edge,
        # with M_ee = P_e / mu the conjugate Hessian's directional smoothness
        l_dual = ratio / mu
        theta_arg_prime = math.sqrt(graph.spectrum.mu_gossip / ratio)
        kappa = smoothness / mu
        return cls(
            l_dual=l_dual,
            theta_arg_prime=theta_arg_prime,
            eta=theta_arg_prime / math.sqrt(kappa),
            gamma=1.0 / l_dual,
            gamma_prime=math.sqrt(smoothness / (graph.spectrum.mu_gossip * l_dual)),
        )


# the dual's name for the per-node oracle of pairwise_plan's inline mix
lazy_mix_dual_node = lazy_mix_node


def dual_update(y, z, v: int, w: int, coefs: tuple) -> None:
    """Dual coordinate step on edge (v, w); endpoints must be mixed to the event time.

    With ``coefs`` = (c_v, k_v, c_w, k_w, P_e, y_coef, z_coef), the centers and
    curvatures of f_v and f_w, the edge gradient is g = P_e (grad f_v^*(y_v) -
    grad f_w^*(y_w)), each c + y / k as ``conjugate_grad`` computes it; the y-pair
    moves by -+ y_coef g, y_coef = gamma R_e / P_e^2, the z-pair by -+ z_coef g,
    z_coef = gamma' / P_e.
    """
    c_v, k_v, c_w, k_w, p_e, y_coef, z_coef = coefs
    g = p_e * ((c_v + y[v] / k_v) - (c_w + y[w] / k_w))
    y[v] -= y_coef * g
    y[w] += y_coef * g
    z[v] -= z_coef * g
    z[w] += z_coef * g


synchronized_dual = synchronized_values


def primal_dist_sq(local_functions: list[LocalFunction], x_star, zs: Array) -> Array:
    """The primal error sum_v 1/2 |grad f_v^*(z_v) - x_*|^2 of each state of
    a (C, n) or (C, n, d) stack of z node values.

    One vectorized step per node over all C states, summed in node order.
    """
    err = 0.0
    for v, fv in enumerate(local_functions):
        d = conjugate_grad(fv, zs[:, v]) - x_star
        err = err + 0.5 * (d * d if zs.ndim == 2 else row_dots(d, d))
    return err


def decentralized_plan(
    graph: Graph,
    local_functions: list[LocalFunction],
    mu: float,
    smoothness: float,
    horizon: float,
    params: DualParams,
    checkpoints: Sequence[float],
) -> Plan:
    """The plan of dual runs from y = z = 0: ``dual_update`` with one tuple
    of coefficients per edge, measured by ``primal_dist_sq`` of the z
    values, with x_* computed centrally for the quadratics (the algorithm
    itself never reads it)."""
    if len(local_functions) != graph.node_count:
        raise ValueError("need one local function per node")
    check_curvatures([f.curvature for f in local_functions], mu, smoothness)
    dims = {np.size(f.center) for f in local_functions}
    if len(dims) != 1:
        raise ValueError(f"local functions mix dimensions {sorted(dims)}")
    (dimension,) = dims
    fns = local_functions
    x_star = optimum_of(fns)
    coefs = [
        (fns[v].center, fns[v].curvature, fns[w].center, fns[w].curvature,
         p_e, params.gamma * r_e / (p_e * p_e), params.gamma_prime / p_e)
        for (v, w), r_e, p_e in zip(
            graph.edges, incidence_r(graph).tolist(), graph.edge_probs.tolist()
        )
    ]
    return pairwise_plan(
        graph, np.zeros(graph.node_count if dimension == 1 else (graph.node_count, dimension)),
        params.eta, dual_update, coefs,
        lambda ys, zs: {"primal_dist_sq": primal_dist_sq(fns, x_star, zs)}, horizon, checkpoints,
    )


def run_decentralized(
    graph: Graph,
    local_functions: list[LocalFunction],
    mu: float,
    smoothness: float,
    horizon: float,
    rng: RunStreams,
    *,
    checkpoints: Sequence[float],
) -> Trace:
    """Simulate the dual coordinate-descent run from y = z = 0, recording
    the primal error (``primal_dist_sq``) at checkpoint times: the one-run
    ``decentralized_plan`` with ``DualParams.from_graph``."""
    params = DualParams.from_graph(graph, mu, smoothness)
    plan = decentralized_plan(graph, local_functions, mu, smoothness, horizon, params,
                              checkpoints)
    return record_run(plan, rng)
