"""The continuized iteration, its discrete twin, and baselines.

The continuized run alternates closed-form mixing of the coupled pair (x, z)
with gradient jumps at clock events: this module holds that physics, and
``continuized_plan`` hands it to ``trace`` as a ``Plan``, which runs the
events and captures the checkpoints.  A run draws all of its randomness
before its event loop: its event times from block draws of its clock
stream, the jump column of every event (the random Nesterov parameters
depend only on the times), and its gradient noise in one block of its noise
stream (``noise_draws``).  The certificate coefficients depend only on the
grid, which all runs share, so an ensemble builds them once.  The loop then
draws nothing: it only applies the parameters and the noise, to one (2, d)
pair that the run builds once and mixes and jumps in place (on a small
quadratic, two lists of Python floats, free of numpy's per-call cost); the
plan's finisher mixes the captured pairs to their checkpoints and measures
them.  Because the mixing ODE integrates exactly, the event-time snapshots
coincide (to rounding) with the three-sequence recursion with random
weights, which is also provided here and used as a cross-check in the
tests; the Nesterov and gradient-descent baselines run the same recursion
with fixed weights.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .problems import (
    ConvexProblem,
    DimensionMismatchError,
    LeastSquaresProblem,
    NoiseModel,
    QuadraticProblem,
    check_point,
    gradient_oracle,
    noise_draws,
    parse_choice,
    row_dots,
    stochastic_gradient,
)
from .schedules import (
    EventClock,
    LyapunovCoeffs,
    ParamSchedule,
    check_pairing,
    discrete_params,
    lyapunov_on_grid,
    sample_event_times,
    schedule_eval,
)
from .seeding import RunStreams
from .trace import Plan, Snapshot, Trace, checkpoint_grid, record_run

Array = np.ndarray

# Largest d at which a run on a quadratic keeps its pair as Python floats: the
# float loop's cost per event grows with d and numpy's on a (2, d) array hardly
# does.  Measured on CPython 3.11, they cross near d = 22 on the 2/t schedule
# and d = 25-28 on the constant one; at d = 16 floats are 1.1-1.5x faster.
FLOAT_PAIR_MAX_DIM = 16


def initial_state(x0) -> Array:
    """The (2, d) pair (x0, x0): the run starts on the diagonal x = z."""
    x0 = np.asarray(x0, dtype=float)
    return np.array([x0, x0])


def midpoint_contract(x, z, decay):
    """Contract the pair (x, z) toward its midpoint by the factor ``decay``.

    This integrates the constant-rate mixing flow x' = c (z - x),
    z' = c (x - z) over dt with decay = exp(-2 c dt).  Scalars, vectors and
    broadcastable arrays of decays all work.
    """
    mid = 0.5 * (x + z)
    return mid + (x - mid) * decay, mid + (z - mid) * decay


def checkpoint_gaps(clocks: Array, grid: Array) -> Array:
    """Each capture's gap to its checkpoint, ``grid[:, None] - clocks``,
    for the (..., C, k) clocks of values captured at the C points of
    ``grid``.  A captured clock is an applied event time at or before its
    checkpoint, and a - b rounds to >= 0 when a >= b, so a negative gap is
    refused."""
    gaps = grid[:, None] - clocks
    if np.any(gaps < 0):
        raise ValueError("some capture is already past its checkpoint")
    return gaps


def keep_captured(mixed, captured, gaps: Array):
    """Restore, in the ``mixed`` stacks, the ``captured`` bits of every
    entry whose gap is 0 (``gaps`` broadcast over each stack), and return
    ``mixed``: a capture at its checkpoint is its checkpoint value, as the
    per-event mix leaves a pair already at the event time as it is."""
    held = gaps == 0
    for new, old in zip(mixed, captured):
        np.copyto(new, old, where=held)
    return mixed


def mix_closed_form(pair: Array, t: float, schedule: ParamSchedule, until: float) -> Array:
    """Advance the mixing ODE of the (2, d) pair from t to ``until`` in
    closed form, in place, and return ``pair``.

    Time-varying kinds keep z fixed and contract x toward z by (t0/t)^2;
    constant kinds contract both variables toward their midpoint by
    exp(-2c dt).  At t0 = 0 the time-varying flow collapses x onto z, the
    exact limit of the 2/t rate.  When until == t the pair is left as it
    is.  Each element is computed as ``midpoint_contract`` and
    ``z + (t0/t) ** 2 * (x - z)`` compute it, so the in-place pair carries
    the same bits as those allocating formulas.
    """
    if until < t:
        raise ValueError(f"cannot mix backwards: {until} < {t}")
    if until == t:
        return pair
    x, z = pair[0], pair[1]
    if schedule.is_time_varying:
        x -= z
        x *= (t / until) ** 2
        x += z
    else:
        # midpoint_contract on both rows at once
        mid = x + z
        mid *= 0.5
        pair -= mid
        pair *= math.exp(-2.0 * schedule.mix_rate * (until - t))
        pair += mid
    return pair


def step_column(schedule: ParamSchedule, t: float | Array) -> Array:
    """The jump sizes (gamma_t, gamma'_t) as the (2, 1) column of
    ``gradient_jump``; at an array of K times, the (K, 2, 1) stack of their
    columns, from one ``schedule_eval`` over the array."""
    _, _, gamma, gamma_p = schedule_eval(schedule, t)
    columns = np.empty((*np.shape(t), 2, 1))
    columns[..., 0, 0] = gamma
    columns[..., 1, 0] = gamma_p
    return columns


def gradient_jump(pair, steps, g):
    """Apply one gradient event to the pair in place, and return ``pair``:
    x and z step along g by (gamma, gamma').  A (2, d) array pair takes
    ``steps`` as the (2, 1) column; a float pair (x, z), two lists of d
    floats, takes the two floats (gamma, gamma').  The step is formed before
    the pair is written, so ``g`` may be a row of ``pair``."""
    if isinstance(pair, np.ndarray):
        g = np.asarray(g, dtype=float)
        if g.shape != pair.shape[1:]:
            raise DimensionMismatchError(f"gradient has shape {g.shape}, state has {pair[0].shape}")
        pair -= steps * g
        return pair
    x, z = pair
    if len(g) != len(x):
        raise DimensionMismatchError(f"gradient has length {len(g)}, state has {len(x)}")
    gamma, gamma_p = steps
    for i, gi in enumerate(g):  # g[i] is read before x[i], z[i] are written
        x[i] -= gamma * gi
        z[i] -= gamma_p * gi
    return pair


def mix_to_checkpoints(xs: Array, zs: Array, starts: Array, schedule: ParamSchedule,
                       grid: Array) -> tuple[Array, Array]:
    """``mix_closed_form`` of every captured pair, in one pass over the
    stacks: x and z are the (..., C, d) stacks ``xs`` and ``zs``, each pair
    captured at its clock in the (..., C, 1) ``starts`` and mixed to its
    checkpoint, the matching point of the C-point ``grid``.  Returns the
    mixed x and z stacks; a capture past its checkpoint is refused
    (``checkpoint_gaps``).

    Pair by pair the arithmetic is that of ``mix_closed_form``: one
    ``math.exp`` decay, or one Python ``(t0/t) ** 2``, per checkpoint (numpy's
    exp and power round some inputs differently), and a pair whose
    checkpoint equals its start keeps its bits (``keep_captured``).
    """
    gaps = checkpoint_gaps(starts, grid)  # one factor per pair, broadcast over its d components
    if schedule.is_time_varying:
        ratios = (starts / grid[:, None]).ravel().tolist()
        mixed = zs + np.reshape([r ** 2 for r in ratios], gaps.shape) * (xs - zs), zs
    else:
        exponents = (gaps * (-2.0 * schedule.mix_rate)).ravel().tolist()
        mixed = midpoint_contract(xs, zs, np.reshape([math.exp(e) for e in exponents], gaps.shape))
    return keep_captured(mixed, (xs, zs), gaps)


def lyapunov_value(
    state: Snapshot,
    coeffs: LyapunovCoeffs,
    problem: ConvexProblem,
    gap: float | Array | None = None,
) -> float | Array:
    """The certificate phi_t whose ensemble mean is non-increasing.

    Noiseless kinds: A_t (f(x) - f_*) + B_t/2 |z - x_*|^2.  Multiplicative
    kinds shift the norms: A_t/2 |x - x_*|^2 + B_t/2 |z - x_*|^2_{H^-1}.
    ``gap`` may pass f(x) - f_* when the caller has already evaluated it.
    The state's x and z may also be (..., C, d) stacks, with (C,) arrays as
    the coefficients, for one certificate per row.
    """
    dz = state.z - problem.optimum
    if coeffs.multiplicative:
        if not isinstance(problem, LeastSquaresProblem):
            raise TypeError("multiplicative certificate needs a least-squares problem")
        dx = state.x - problem.optimum
        return 0.5 * coeffs.a_t * row_dots(dx, dx) + 0.5 * coeffs.b_t * problem.dist_sq_hinv(dz)
    if gap is None:
        gap = problem.gap(state.x)
    return coeffs.a_t * gap + 0.5 * coeffs.b_t * row_dots(dz, dz)


def continuized_plan(problem: ConvexProblem, noise: NoiseModel, schedule: ParamSchedule,
                     clock: EventClock, horizon: float, x0, checkpoints: Sequence[float]) -> Plan:
    """The plan of an ensemble of continuized runs: x0 (``check_point``),
    the schedule's problem (``check_pairing``) and the grid are checked
    once, and the (x0, x0) pair, the constant kinds' jump column and the
    certificate coefficients (``lyapunov_on_grid``) are built once.  Each
    run is as ``run_continuized`` describes it; its live state is its pair
    and the time it was last mixed to.  The finisher mixes every captured
    pair to its checkpoint (``mix_to_checkpoints``) and measures ``gap``,
    ``dist_sq`` and ``lyapunov`` over the (R, C, d) stacks, with the grid's
    coefficients broadcast over the group's runs."""
    pair0 = initial_state(check_point(problem, np.zeros(problem.dimension) if x0 is None else x0))
    check_pairing(schedule, problem)
    grid = checkpoint_grid(checkpoints, horizon)
    # a quadratic takes no multiplicative noise: noise_draws refuses it in start
    floats = isinstance(problem, QuadraticProblem) and problem.dimension <= FLOAT_PAIR_MAX_DIM
    varying = schedule.is_time_varying
    if not varying:  # constant kinds jump by one column at every event
        column = step_column(schedule, horizon)
        column = column[:, 0].tolist() if floats else column
    coeffs = lyapunov_on_grid(schedule, grid)

    def start(rng: RunStreams):
        times = sample_event_times(clock, horizon, rng.clock)
        draws = noise_draws(problem, noise, rng.noise, len(times))
        clocks = [0.0]  # the pair's time, which advance keeps as a local while it runs
        if varying:
            columns = step_column(schedule, np.array(times))
            columns = columns[..., 0].tolist() if floats else list(columns)
        else:
            columns = [column] * len(times)

        if floats:
            pair = x, z = pair0.tolist()
            diag, optimum = problem.diag.tolist(), problem.optimum.tolist()
            coords = range(len(x))
            shifts = None if draws is None else draws.tolist()  # the additive noise

            def advance(a, b):
                now = clocks[0]
                for k in range(a, b):
                    te, g = times[k], []
                    mix = te != now  # mix_closed_form leaves the pair as it is
                    if mix:
                        f = (now / te) ** 2 if varying else math.exp(
                            -2.0 * schedule.mix_rate * (te - now))
                        now = te
                    shift = None if shifts is None else shifts[k]
                    for i in coords:
                        xi = x[i]
                        if mix:
                            zi = z[i]
                            if varying:
                                x[i] = xi = (xi - zi) * f + zi
                            else:
                                m = (xi + zi) * 0.5
                                x[i] = xi = (xi - m) * f + m
                                z[i] = (zi - m) * f + m
                        gi = diag[i] * (xi - optimum[i])
                        g.append(gi if shift is None else gi + shift[i])
                    gradient_jump(pair, columns[k], g)
                clocks[0] = now
        else:
            pair = pair0.copy()
            x = pair[0]  # a view: it follows the pair through every in-place event
            gradient_at = gradient_oracle(problem, noise, draws)

            def advance(a, b):
                now = clocks[0]
                for te, steps in zip(times[a:b], columns[a:b]):
                    mix_closed_form(pair, now, schedule, te)
                    now = te
                    gradient_jump(pair, steps, gradient_at(x))
                clocks[0] = now

        return times, advance, pair, clocks

    def finish(xs, zs, clocks):
        xs, zs = mix_to_checkpoints(xs, zs, clocks, schedule, grid)
        dx = xs - problem.optimum
        gap = problem.gap(xs)
        lyapunov = lyapunov_value(Snapshot(grid, xs, zs), coeffs, problem, gap)
        return xs, zs, {"gap": gap, "dist_sq": row_dots(dx, dx), "lyapunov": lyapunov}

    return Plan(grid, horizon, start, finish)


def run_continuized(
    problem: ConvexProblem,
    noise: NoiseModel,
    schedule: ParamSchedule,
    clock: EventClock,
    horizon: float,
    rng: RunStreams,
    *,
    x0=None,
    checkpoints: Sequence[float],
) -> Trace:
    """Simulate the continuized iteration up to ``horizon`` from x0 = z0.

    The run first derives every random parameter of its Nesterov steps
    from its clock stream: the event times (``sample_event_times``) and
    each event's jump column, one ``step_column`` stack over all the times
    on the 2/t kinds and one shared column on the constant kinds.  It
    draws the noise of all its gradients from its noise stream in one block
    (``noise_draws``) and binds its gradient oracle over them
    (``gradient_oracle``) once.  The event loop then draws nothing: it
    only applies the parameters and the noise to the run's one (2, d) pair,
    in place: per event one ``mix_closed_form``, one oracle call at the
    left limit x_{T-} and one ``gradient_jump``.  On a ``QuadraticProblem`` (noise ``none`` or
    ``additive``) with d <= ``FLOAT_PAIR_MAX_DIM`` the pair is two float
    lists instead, and each event runs the same IEEE operations coordinate
    by coordinate, in the same order, so every value keeps its bits.  The
    caller's x0 is checked once per ensemble and copied, never written.
    Each checkpoint captures the pair and its time; after the last event
    every capture is mixed forward to its checkpoint and measured (``gap``,
    ``dist_sq``, ``lyapunov``) in one stacked pass.
    The mixing flow is constant before the first event, which sidesteps
    the t = 0 singularity of the time-varying schedules; an event at
    t = 0 is still singular.  This is the one-run
    ``continuized_plan``.
    """
    plan = continuized_plan(problem, noise, schedule, clock, horizon, x0, checkpoints)
    return record_run(plan, rng)


def nesterov_recursion(
    problem: ConvexProblem,
    weights: Iterable[tuple[float, float, float, float]],
    grad: Callable[[Array], Array],
    times: Sequence[float],
    x0=None,
) -> tuple[list[Array], list[Array], list[Array]]:
    """Nesterov's three-sequence recursion, one step per (tau, tau', gamma, gamma').

    Returns (xs, ys, zs) where xs[k], zs[k] are the iterates after k steps
    (xs[0] = zs[0] = x0, by default 0), taken at ``times[k]``, and ys[k] is
    the point whose gradient ``grad(ys[k])`` drives step k+1.  A step that
    leaves x or z non-finite raises FloatingPointError naming k and its
    time; numpy warns of nothing.
    """
    x = check_point(problem, np.zeros(problem.dimension) if x0 is None else x0).copy()
    z = x.copy()
    xs, ys, zs = [x], [], [z]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (tau, tau_p, gamma, gamma_p) in enumerate(weights, 1):
            y = x + tau * (z - x)
            g = grad(y)
            x = y - gamma * g
            z = z + tau_p * (y - z) - gamma_p * g
            if not (np.isfinite(x).all() and np.isfinite(z).all()):
                raise FloatingPointError(
                    f"step {k} at t = {times[k]:.12g} left the iterates non-finite")
            xs.append(x)
            ys.append(y)
            zs.append(z)
    return xs, ys, zs


def run_three_sequence(
    problem: ConvexProblem,
    schedule: ParamSchedule,
    event_times: Sequence[float],
    *,
    noise: NoiseModel | None = None,
    noise_rng: np.random.Generator | None = None,
) -> tuple[list[Array], list[Array], list[Array]]:
    """The discrete twin: Nesterov recursion with random weights.

    The weights come from ``discrete_params`` over consecutive event times
    (starting at 0, from x0 = z0 = 0), so xs[k], zs[k] are the snapshots
    after k events.  Each step's gradient is one ``stochastic_gradient``
    draw from ``noise_rng``, the one-draw-per-step reference that the
    block-drawing runs match.  A run that blows up raises FloatingPointError
    naming the first non-finite step k and its event time.
    """
    grad = partial(stochastic_gradient, problem, noise or NoiseModel.none(), rng=noise_rng)
    times = [0.0, *event_times]
    weights = (discrete_params(schedule, t0, t1) for t0, t1 in zip(times, times[1:]))
    return nesterov_recursion(problem, weights, grad, times)


def nesterov_weights_convex(iters: int) -> list[tuple[float, float]]:
    """The (A_k, A_{k+1}) pairs of the deterministic convex recursion."""
    pairs = []
    a = 0.0
    for _ in range(iters):
        a_next = a + 0.5 * (1.0 + math.sqrt(4.0 * a + 1.0))
        pairs.append((a, a_next))
        a = a_next
    return pairs


def check_nesterov_variant(problem: ConvexProblem, variant: str) -> None:
    """Raise unless ``run_nesterov`` accepts ``variant`` on ``problem``."""
    parse_choice(variant, ("convex", "strongly_convex"), "variant")
    if variant == "strongly_convex" and problem.strong_convexity <= 0:
        raise ValueError("strongly_convex variant needs mu > 0")


def run_nesterov(
    problem: ConvexProblem,
    variant: str,
    iters: int,
    *,
    x0=None,
) -> Trace:
    """Classical accelerated baseline, convex or strongly convex variant:
    the three-sequence recursion with fixed weights, ``gap`` at each iterate.
    The strongly convex weights are the strongly convex schedule's: q = c,
    tau = q / (1 + q), tau' = q and steps (gamma, gamma')."""
    check_nesterov_variant(problem, variant)
    if variant == "convex":
        big_l = problem.smoothness
        weights = [
            (1.0 - a / a_next, 0.0, 1.0 / big_l, (a_next - a) / big_l)
            for a, a_next in nesterov_weights_convex(iters)
        ]
    else:
        schedule = ParamSchedule.for_problem(problem, "strongly_convex")
        q, _, gamma, gamma_p = schedule_eval(schedule, 0.0)
        weights = [(q / (1.0 + q), q, gamma, gamma_p)] * iters
    return _gap_trace(problem, weights, x0)


def _gap_trace(problem: ConvexProblem, weights, x0=None) -> Trace:
    """Run the recursion with fixed ``weights``: (k, x_k, z_k) and ``gap`` per iterate."""
    times = [float(k) for k in range(len(weights) + 1)]
    xs, _, zs = nesterov_recursion(problem, weights, problem.grad, times, x0)
    trace = Trace()
    trace.add(times, xs, zs, {"gap": [problem.gap(x) for x in xs]})
    return trace


def check_gd_step(problem: ConvexProblem, step: float) -> None:
    """Raise unless ``step`` lies in (0, 1/L]."""
    if not 0 < step <= 1.0 / problem.smoothness:
        raise ValueError(f"step must lie in (0, 1/L], got {step}")


def run_gd(problem: ConvexProblem, step: float, iters: int, *, x0=None) -> Trace:
    """Plain gradient descent baseline with a fixed step in (0, 1/L]: the
    recursion with weights (0, 0, step, 0), so z stays at x0."""
    check_gd_step(problem, step)
    return _gap_trace(problem, [(0.0, 0.0, step, 0.0)] * iters, x0)
