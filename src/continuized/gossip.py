"""Event-driven asynchronous pairwise updates on a weighted graph.

Edges activate at Poisson times.  Every node holds a pair (x_v, z_v) that
mixes toward its midpoint between the node's own events, and the two
endpoints of an activated edge jump.  Accelerated gossip averages x over
the edge and moves z along the edge difference; naive gossip is the same
update with mixing rate 0 and z-step 0.  The dual decentralized solver
(``dual``) runs its jump on its y and z through the same ``run_pairwise``,
whose node values are bare: floats in lists, or (n, d) array rows.  Mixing
is node-local, so a node's ODE is only advanced lazily when the node takes
part in an event; the run's checkpoints are all synchronized at once, after
its last event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .dynamics import midpoint_contract
from .graphs import Graph, SpectralCache, gossip_rates
from .problems import row_dots
from .schedules import EVENT_CHUNK
from .seeding import RunStreams
from .trace import Trace, check_horizon, run_events

Array = np.ndarray


@dataclass(frozen=True)
class GossipParams:
    """Mixing rate and z-step of the pairwise update; both are 0 for naive
    gossip, which then only averages the endpoint values."""

    mix_rate: float
    z_step: float

    @classmethod
    def from_cache(cls, cache: SpectralCache, algo: str = "accelerated") -> "GossipParams":
        if algo == "naive":
            return cls(mix_rate=0.0, z_step=0.0)
        if algo != "accelerated":
            raise ValueError(f"unknown gossip algo {algo!r}")
        _, theta_arg = gossip_rates(cache)
        return cls(
            mix_rate=theta_arg,
            z_step=1.0 / math.sqrt(2.0 * cache.mu_gossip * cache.r_max),
        )


def sample_event_stream(graph: Graph, horizon: float, rng: RunStreams) -> tuple[Array, Array]:
    """All activations up to ``horizon`` as (times, edge indices) arrays;
    the Exp(1) waits come from the clock stream in blocks of ``EVENT_CHUNK``."""
    times = np.empty(0)
    while times.size == 0 or times[-1] <= horizon:
        more = rng.clock.exponential(size=EVENT_CHUNK)
        base = times[-1] if times.size else 0.0
        times = np.concatenate([times, base + np.cumsum(more)])
    count = int(np.searchsorted(times, horizon, side="right"))
    times = times[:count]
    picks = np.searchsorted(graph.cum_probs, rng.noise.random(count), side="right")
    return times, np.minimum(picks, graph.edge_count - 1)


def lazy_mix_node(x, z, clocks: list[float], v: int, to_t: float, mix_rate: float) -> None:
    """Advance node v's pair (x[v], z[v]) from its clock to ``to_t`` in closed form.

    A zero rate leaves the pair as it is (naive gossip never mixes).  This
    is the per-node oracle of the mix that ``run_pairwise`` writes inline.
    """
    dt = to_t - clocks[v]
    if dt < 0:
        raise ValueError(f"node {v} already past t = {to_t}")
    if dt > 0 and mix_rate:
        decay = math.exp(-2.0 * mix_rate * dt)
        x[v], z[v] = midpoint_contract(x[v], z[v], decay)
    clocks[v] = to_t


def accelerated_step(x, z, v: int, w: int, z_step: float) -> None:
    """Accelerated update of edge (v, w); endpoints must be mixed to the event time."""
    xv, xw = x[v], x[w]
    mean = 0.5 * (xv + xw)
    step = z_step * (xv - xw)
    x[v] = mean
    x[w] = mean
    z[v] -= step
    z[w] += step


def synchronized_values(xs: Array, zs: Array, last_t: Array, mix_rate: float,
                        times: Array) -> tuple[Array, Array]:
    """Every node of every captured state mixed forward to its checkpoint.

    ``xs`` and ``zs`` are (C, n) or (C, n, d) stacks of captured node
    values, ``last_t`` the (C, n) node clocks and ``times`` the C
    checkpoints; both stacks are mixed in place and returned.  The decays
    are one ``np.exp`` over the (C, n) array, which rounds each entry as a
    per-state call would, and each entry takes ``midpoint_contract``'s
    operations on the same operands, so it rounds as that would too.
    """
    if not mix_rate:
        return xs, zs
    dt = times[:, None] - last_t
    if np.any(dt < -1e-12):
        raise ValueError("some node is already past the requested time")
    np.maximum(dt, 0.0, out=dt)
    dt *= -2.0 * mix_rate
    decay = np.exp(dt, out=dt)
    if xs.ndim == 3:
        decay = decay[..., None]
    mid = xs + zs
    mid *= 0.5
    for values in (xs, zs):
        values -= mid
        values *= decay
        values += mid
    return xs, zs


def run_pairwise(
    graph: Graph,
    x0,
    mix_rate: float,
    kernel: Callable[[Any, Any, int, int, Any], None],
    edge_args: Sequence[Any],
    metrics: Callable[[Array, Array], dict[str, Array]],
    horizon: float,
    rng: RunStreams,
    *,
    checkpoints: Sequence[float],
) -> Trace:
    """One run of pairwise events from x = z = x0, shared by gossip and the
    dual solver.

    The run's node values are its own: floats in lists for a 1-D x0, copies
    of its (n, d) rows otherwise.  At each activation of edge ``ei`` = (v, w)
    at time te, both endpoints are mixed to te inline, with the arithmetic
    of ``lazy_mix_node``, and ``kernel(x, z, v, w, edge_args[ei])`` applies
    the update, with the edge's constants computed once per run.  Each
    checkpoint captures the node values and clocks into (C, n[, d]) rows;
    after the last event ``synchronized_values`` mixes them all forward in
    place and ``metrics(xs, zs)`` measures the synchronized stacks, one (C,)
    array per metric.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[0] != graph.node_count:
        raise ValueError(f"x0 has shape {x0.shape}, graph has {graph.node_count} nodes")
    check_horizon(horizon)
    x, z = (x0.tolist(), x0.tolist()) if x0.ndim == 1 else (x0.copy(), x0.copy())
    clocks = [0.0] * graph.node_count
    times, edge_idx = sample_event_stream(graph, horizon, rng)
    event_times, edge_idx = times.tolist(), edge_idx.tolist()
    edges = graph.edges
    rate = -2.0 * mix_rate
    count = len(checkpoints)
    xs = np.empty((count, *x0.shape))
    zs = np.empty_like(xs)
    last_t = np.empty((count, graph.node_count))

    def advance(a, b):
        for ei, te in zip(edge_idx[a:b], event_times[a:b]):
            v, w = edges[ei]
            if mix_rate:
                # lazy_mix_node of v, then of w: a pair already at te keeps its bits
                dt = te - clocks[v]
                if dt > 0:
                    decay = math.exp(rate * dt)
                    xv, zv = x[v], z[v]
                    mid = 0.5 * (xv + zv)
                    x[v] = mid + (xv - mid) * decay
                    z[v] = mid + (zv - mid) * decay
                dt = te - clocks[w]
                if dt > 0:
                    decay = math.exp(rate * dt)
                    xw, zw = x[w], z[w]
                    mid = 0.5 * (xw + zw)
                    x[w] = mid + (xw - mid) * decay
                    z[w] = mid + (zw - mid) * decay
            clocks[v] = clocks[w] = te
            kernel(x, z, v, w, edge_args[ei])

    def capture(i):
        xs[i] = x
        zs[i] = z
        last_t[i] = clocks

    def finish(grid):
        sx, sz = synchronized_values(xs, zs, last_t, mix_rate, np.array(grid))
        return sx, sz, metrics(sx, sz)

    return run_events(times, horizon, checkpoints, capture, advance, finish)


def energy(values: Array, target) -> Array:
    """Sum over nodes of half the squared deviation from the average, for
    each state of a (C, n) stack; for a (C, n, d) stack of vector node
    values, summed over components in component order."""
    d = values - target
    if d.ndim == 2:
        return 0.5 * row_dots(d, d)
    # one contiguous row per component: row_dots rounds strided rows differently
    cols = np.ascontiguousarray(d.transpose(0, 2, 1))
    return sum((0.5 * row_dots(cols, cols)).T)


def run_gossip(
    graph: Graph,
    params: GossipParams,
    x0,
    horizon: float,
    rng: RunStreams,
    *,
    checkpoints: Sequence[float],
) -> Trace:
    """Simulate one gossip run, recording the state and its energy at checkpoints.

    ``x0`` holds one value per node, or one row of d components per node
    (the components then share every event).  Runs given the same streams
    share one activation sequence.
    """
    x0 = np.asarray(x0, dtype=float)
    # per-component means of contiguous copies, as for one 1-D run each
    target = x0.T.copy().mean(axis=1) if x0.ndim == 2 else np.mean(x0)

    return run_pairwise(
        graph,
        x0,
        params.mix_rate,
        accelerated_step,
        [params.z_step] * graph.edge_count,
        lambda xs, zs: {"energy": energy(xs, target)},
        horizon,
        rng,
        checkpoints=checkpoints,
    )

