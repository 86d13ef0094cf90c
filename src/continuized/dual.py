"""Asynchronous accelerated decentralized optimization via dual coordinates.

Each node holds a strongly convex local function.  The consensus problem is
solved on its dual, where edge activations become coordinate gradient steps:
the activated pair exchanges conjugate gradients and applies antisymmetric
corrections to the node images (y, z) of the two dual iterates, which mix
node-locally between events exactly as in accelerated gossip.  With
quadratic local terms of unit curvature the whole construction collapses to
the averaging problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, SpectralCache
from .gossip import (
    PairState,
    lazy_mix_node,
    run_pairwise,
    sample_event_stream,  # noqa: F401  (re-exported: the dual runs on gossip's events)
    synchronized_values,
)
from .seeding import RunStreams
from .trace import Trace

Array = np.ndarray


@dataclass(frozen=True)
class LocalFunction:
    """Quadratic local objective f_v(x) = mu_v/2 |x - c_v|^2.

    Quadratics ship with their conjugate gradient in closed form; other
    strongly convex families can plug in by mirroring this interface.
    """

    curvature: float
    center: Array

    def __post_init__(self) -> None:
        if self.curvature <= 0:
            raise ValueError("curvature must be > 0")
        center = np.atleast_1d(np.asarray(self.center, dtype=float)).copy()
        center.setflags(write=False)
        object.__setattr__(self, "center", center)

    def value(self, x: Array) -> float:
        d = np.asarray(x) - self.center
        return 0.5 * self.curvature * float(d @ d)

    def grad(self, x: Array) -> Array:
        return self.curvature * (np.asarray(x) - self.center)


def conjugate_grad(fv: LocalFunction, y: Array) -> Array:
    """Gradient of the Fenchel conjugate: the inverse map of grad f_v."""
    return fv.center + np.asarray(y) / fv.curvature


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
    """Raise unless 0 < mu <= L and every local curvature lies in [mu, L]."""
    if not 0 < mu <= smoothness:
        raise ValueError(f"need 0 < mu <= L, got mu = {mu}, L = {smoothness}")
    outside = [
        v for v, c in enumerate(curvatures)
        if not mu - 1e-12 <= c <= smoothness + 1e-12
    ]
    if outside:
        raise ValueError(
            f"local curvatures of nodes {outside} leave the declared "
            f"[mu, L] = [{mu}, {smoothness}]"
        )


def optimum_of(local_functions: list[LocalFunction]) -> Array:
    """Minimizer of the sum: curvature-weighted mean of the centers."""
    total = sum(f.curvature for f in local_functions)
    return sum(f.curvature * f.center for f in local_functions) / total


def incidence_r(graph: Graph, cache: SpectralCache) -> Array:
    """Diagonal of the projector A^+ A in edge space: R_e = P_e r_eff(e)."""
    return np.asarray(graph.edge_probs * cache.r_eff)


@dataclass(frozen=True)
class DualParams:
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
    def from_graph(
        cls, graph: Graph, cache: SpectralCache, mu: float, smoothness: float
    ) -> "DualParams":
        check_curvatures((), mu, smoothness)
        r_edge = incidence_r(graph, cache)
        ratio = float(np.max(r_edge / graph.edge_probs))
        l_dual = ratio / mu
        # Directional smoothness bound M_ee = P_e / mu from the conjugate
        # Hessian; l_dual must dominate M_ee R_e / P_e^2 on every edge.
        m_ee = graph.edge_probs / mu
        short = np.flatnonzero(l_dual < m_ee * r_edge / graph.edge_probs**2 - 1e-12 * l_dual)
        if short.size:
            raise RuntimeError(f"dual smoothness bound fails on edges {short.tolist()}")
        theta_arg_prime = math.sqrt(cache.mu_gossip / ratio)
        kappa = smoothness / mu
        return cls(
            l_dual=l_dual,
            theta_arg_prime=theta_arg_prime,
            eta=theta_arg_prime / math.sqrt(kappa),
            gamma=1.0 / l_dual,
            gamma_prime=math.sqrt(smoothness / (cache.mu_gossip * l_dual)),
        )


class DualState(PairState):
    """Node images (y, z) of the two dual iterates, with lazy clocks.

    y lives in the x slot of the pair state shared with gossip, so the
    gossip event loop, lazy mixer and snapshot serve the dual unchanged.
    """

    @property
    def y(self) -> Array:
        return self.x

    @y.setter
    def y(self, value: Array) -> None:
        self.x = value


def initial_dual_state(node_count: int, dimension: int) -> DualState:
    return DualState(
        x=np.zeros((node_count, dimension)),
        z=np.zeros((node_count, dimension)),
        last_t=[0.0] * node_count,
        t=0.0,
    )


lazy_mix_dual_node = lazy_mix_node


def dual_update(
    state: DualState,
    edge: tuple[int, int],
    params: DualParams,
    fv: LocalFunction,
    fw: LocalFunction,
    t_event: float,
    r_e: float,
    p_e: float,
) -> None:
    """Pairwise dual coordinate step; endpoints must be mixed to t_event.

    The edge gradient is g = P_e (grad f_v^*(y_v) - grad f_w^*(y_w)); the
    y-pair moves by -+ gamma (R_e / P_e^2) g and the z-pair by
    -+ gamma' g / P_e.
    """
    v, w = edge
    y, z = state.y, state.z
    g = p_e * (conjugate_grad(fv, y[v]) - conjugate_grad(fw, y[w]))
    y_coef = params.gamma * r_e / (p_e * p_e)
    z_coef = params.gamma_prime / p_e
    y[v] -= y_coef * g
    y[w] += y_coef * g
    z[v] -= z_coef * g
    z[w] += z_coef * g
    state.t = t_event


synchronized_dual = synchronized_values


def run_decentralized(
    graph: Graph,
    local_functions: list[LocalFunction],
    mu: float,
    smoothness: float,
    horizon: float,
    rng: RunStreams | int,
    *,
    cache: SpectralCache | None = None,
    params: DualParams | None = None,
    checkpoints=(),
    events: tuple[Array, Array] | None = None,
    record_states: bool = False,
) -> Trace:
    """Simulate the dual coordinate-descent run from y = z = 0.

    Records the primal error sum_v 1/2 |grad f_v^*(z_v) - x_*|^2 at
    checkpoint times, with x_* computed centrally for the quadratics (the
    algorithm itself never reads it).
    """
    if len(local_functions) != graph.node_count:
        raise ValueError("need one local function per node")
    check_curvatures([f.curvature for f in local_functions], mu, smoothness)
    if cache is None:
        from .graphs import spectral

        cache = spectral(graph)
    if params is None:
        params = DualParams.from_graph(graph, cache, mu, smoothness)
    r_edge = incidence_r(graph, cache).tolist()
    p_edge = graph.edge_probs.tolist()
    x_star = optimum_of(local_functions)

    def jump(state, edge, ei, te):
        fv, fw = local_functions[edge[0]], local_functions[edge[1]]
        dual_update(state, edge, params, fv, fw, te, r_edge[ei], p_edge[ei])

    def primal_error(ys, zs):
        err = 0.0
        for v, f in enumerate(local_functions):
            d = conjugate_grad(f, zs[v]) - x_star
            err += 0.5 * float(d @ d)
        return {"primal_dist_sq": err}

    return run_pairwise(
        graph,
        initial_dual_state(graph.node_count, x_star.size),
        params.eta,
        jump,
        primal_error,
        horizon,
        rng,
        checkpoints=checkpoints,
        events=events,
        record_states=record_states,
    )
