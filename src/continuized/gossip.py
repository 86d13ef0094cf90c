"""Event-driven asynchronous pairwise updates on a weighted graph.

Edges activate at Poisson times.  Every node holds a pair (x_v, z_v) that
mixes toward its midpoint between the node's own events, and the two
endpoints of an activated edge jump.  Accelerated gossip averages x over
the edge and moves z along the edge difference; naive gossip is the same
update with mixing rate 0 and z-step 0.  The dual decentralized solver
(``dual``) runs its jump on its y and z through the same ``pairwise_plan``,
whose node values are bare: floats in two lists, or the rows of one
(2, n, d) array.  Mixing is node-local, so a node's ODE is only advanced
lazily when the node takes part in an event.  ``trace`` captures the node
values and clocks at the checkpoints, and the plan's finisher synchronizes
the captures of a group of runs at once, after the group's last run
(``synchronized_values``).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from .dynamics import checkpoint_gaps, keep_captured, midpoint_contract
from .graphs import Graph, SpectralCache
from .problems import parse_choice, row_dots
from .records import Record
from .schedules import EVENT_CHUNK, ParamSchedule, first_block_size, schedule_eval
from .seeding import RunStreams
from .trace import Plan, Trace, check_horizon, checkpoint_grid, record_run

Array = np.ndarray


# The gossip algorithms ``GossipParams.from_cache`` builds.
GOSSIP_ALGOS = ("accelerated", "naive")


class GossipParams(Record):
    """Mixing rate and z-step of the pairwise update; both are 0 for naive
    gossip, which then only averages the endpoint values.

    Accelerated gossip is the continuized iteration with multiplicative
    noise on the incidence least squares (atoms e_v - e_w drawn with the
    edge weights), whose (R^2, kappa_tilde, mu) are (2, R_max, mu_gossip):
    its rate theta_ARG and z-step are that schedule's c and gamma'.
    """

    mix_rate: float
    z_step: float

    @classmethod
    def from_cache(cls, cache: SpectralCache, algo: str = GOSSIP_ALGOS[0]) -> "GossipParams":
        if parse_choice(algo, GOSSIP_ALGOS, "gossip algo") == "naive":
            return cls(mix_rate=0.0, z_step=0.0)
        schedule = ParamSchedule.multiplicative_strongly_convex(2.0, cache.r_max, cache.mu_gossip)
        theta_arg, _, _, z_step = schedule_eval(schedule, 0.0)
        # theta_ARG >= theta_RG / 2 always (R_max <= 2 / mu_gossip, the
        # statistical condition number bound)
        if theta_arg < 0.5 * cache.mu_gossip * (1.0 - 1e-12):
            raise RuntimeError(
                f"theta_ARG = {theta_arg} < theta_RG / 2 = {0.5 * cache.mu_gossip}: "
                "the spectral cache is inconsistent"
            )
        return cls(mix_rate=theta_arg, z_step=z_step)


def gossip_rates(cache: SpectralCache) -> tuple[float, float]:
    """Decay rates (theta_RG, theta_ARG) of naive and accelerated gossip.

    theta_ARG >= theta_RG / 2, with equality on edge-transitive graphs such
    as the complete graph.
    """
    return cache.mu_gossip, GossipParams.from_cache(cache).mix_rate


def sample_event_stream(graph: Graph, horizon: float, rng: RunStreams) -> tuple[Array, Array]:
    """All activations up to ``horizon`` as (times, edge indices) arrays.

    The Exp(1) waits come from the clock stream in blocks of
    ``EVENT_CHUNK``, each block's times the running sums of its waits after
    the last time of the block before.  The first block is drawn in two
    parts: ``first_block_size`` waits, which cover nearly every run, then
    the rest of the block only if the run needs it; split draws read the
    stream as one draw does, so the times keep their bits.  Each event's
    edge is the ``Graph.edge_draw`` pick of one uniform of the noise
    stream.  The horizon must pass ``check_horizon``.
    """
    check_horizon(horizon)
    base, blocks = 0.0, []
    waits = rng.clock.exponential(size=first_block_size(horizon))
    while True:
        times = base + np.cumsum(waits)
        if times[-1] > horizon:
            break
        if waits.size < EVENT_CHUNK:  # the first block fell short: draw its rest
            waits = np.concatenate([waits, rng.clock.exponential(size=EVENT_CHUNK - waits.size)])
            continue
        blocks.append(times)
        base = times[-1]
        waits = rng.clock.exponential(size=EVENT_CHUNK)
    times = np.concatenate([*blocks, times[:np.searchsorted(times, horizon, side="right")]])
    return times, graph.edge_draw.pick(rng.noise.random(times.size))


def lazy_mix_node(x, z, clocks: list[float], v: int, to_t: float, mix_rate: float) -> None:
    """Advance node v's pair (x[v], z[v]) from its clock to ``to_t`` in closed form.

    A zero rate leaves the pair as it is (naive gossip never mixes).  This
    is the per-node oracle of the mix that ``pairwise_plan`` writes inline.
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

    ``xs`` and ``zs`` are (..., C, n) or (..., C, n, d) stacks of captured
    node values, ``last_t`` the (..., C, n) node clocks and ``times`` the C
    checkpoints.  Returns the mixed stacks, new ones unless the rate is 0;
    the given stacks are never written.  A clock past its checkpoint is
    refused (``checkpoint_gaps``).  The decays are one ``np.exp`` over the
    gaps, which rounds each entry as a per-state call would, and each entry
    is ``midpoint_contract``'s; a node whose clock is its checkpoint keeps
    its bits (``keep_captured``), as in ``lazy_mix_node``.
    """
    gaps = checkpoint_gaps(last_t, times)
    if not mix_rate:
        return xs, zs
    if xs.ndim > gaps.ndim:  # d components share their node's decay
        gaps = gaps[..., None]
    mixed = midpoint_contract(xs, zs, np.exp(gaps * (-2.0 * mix_rate)))
    return keep_captured(mixed, (xs, zs), gaps)


def check_node_values(values, node_count: int) -> Array:
    """``values`` as a float array: the one rule of a pairwise run's start,
    one value, or one row of values, per node of a ``node_count``-node
    graph, all finite.  Otherwise a ValueError names the fault."""
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[0] != node_count:
        raise ValueError(f"node values have shape {values.shape}, not one per node of {node_count}")
    if not np.all(np.isfinite(values)):
        raise ValueError("node values must be finite")
    return values


def pairwise_plan(graph: Graph, x0, mix_rate: float,
                  kernel: Callable[[Any, Any, int, int, Any], None], edge_args: Sequence[Any],
                  measure: Callable[[Array, Array], dict[str, Array]],
                  horizon: float, checkpoints: Sequence[float]) -> Plan:
    """The plan of an ensemble of pairwise runs, for gossip and the dual
    solver: x0 (``check_node_values``) and the grid are checked once, and
    each run starts from x = z = x0.  The run's node values are its own:
    floats in two lists for a 1-D x0, the rows of one (2, n, d) array
    otherwise, with one clock per node.  At each activation of edge ``ei``
    = (v, w) at time te, both endpoints are mixed to te inline, with the
    arithmetic of ``lazy_mix_node``, and ``kernel(x, z, v, w,
    edge_args[ei])`` applies the update.  The finisher mixes every captured
    state forward (``synchronized_values``) and ``measure(xs, zs)``
    measures the (R·C, n[, d]) stacks, one (R·C,) array per metric.
    """
    x0 = check_node_values(x0, graph.node_count)
    grid = checkpoint_grid(checkpoints, horizon)
    edges, rate, nodes = graph.edges, -2.0 * mix_rate, graph.node_count

    def start(rng: RunStreams):
        pair = x, z = [x0.tolist(), x0.tolist()] if x0.ndim == 1 else np.array([x0, x0])
        clocks = [0.0] * nodes
        times, edge_idx = sample_event_stream(graph, horizon, rng)
        event_times, edge_idx = times.tolist(), edge_idx.tolist()

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

        return times, advance, pair, clocks

    def finish(xs, zs, clocks):
        xs, zs = synchronized_values(xs, zs, clocks, mix_rate, grid)
        stacked = (-1, *x0.shape)
        return xs, zs, measure(xs.reshape(stacked), zs.reshape(stacked))

    return Plan(grid, horizon, start, finish)


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


def gossip_plan(graph: Graph, params: GossipParams, x0, horizon: float,
                checkpoints: Sequence[float]) -> Plan:
    """The plan of gossip runs from ``x0``: ``accelerated_step`` with the
    z-step on every edge, measured by ``energy`` about x0's average."""
    x0 = np.asarray(x0, dtype=float)
    # per-component means of contiguous copies, as for one 1-D run each
    target = x0.T.copy().mean(axis=1) if x0.ndim == 2 else np.mean(x0)
    return pairwise_plan(
        graph, x0, params.mix_rate, accelerated_step, [params.z_step] * graph.edge_count,
        lambda xs, zs: {"energy": energy(xs, target)}, horizon, checkpoints,
    )


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
    share one activation sequence.  This is the one-run ``gossip_plan``.
    """
    return record_run(gossip_plan(graph, params, x0, horizon, checkpoints), rng)
