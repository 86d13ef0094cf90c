"""Parameter schedules and event clocks for the continuized iterations.

A schedule fixes the four time functions (eta_t, eta'_t, gamma_t, gamma'_t)
of the coupled dynamics.  All four kinds reduce to two shapes:

* time-varying (merely convex): eta_t = 2/t, eta'_t = 0, constant gamma,
  gamma'_t linear in t;
* constant (strongly convex): eta_t = eta'_t = c with a constant gamma'.

Internally every kind is normalized to a triple (G, K, m): G is the
curvature scale dividing the x-step (L for exact gradients, R^2 under
multiplicative noise), K rescales the z-step (1, or kappa_tilde under
multiplicative noise), and m is the strong convexity (mu, or 0).  Then

    time-varying:  gamma = 1/G,  gamma'_t = t / (2 G K)
    constant:      c = sqrt(m / (G K)),  gamma = 1/G,  gamma' = 1/sqrt(m G K)

which reproduces each kind's published constants.

``schedule_eval`` also takes an array of times, so a run evaluates its jump
sizes at all of its event times in one pass, and ``lyapunov_on_grid`` builds
the certificate coefficients at every point of a grid.  Event
clocks turn uniform draws into waiting times: ``sample_interarrival``
inverts one uniform, and ``sample_event_times`` draws a run's uniforms in
blocks and turns each block into event times in one numpy pass.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from typing import Sequence

import numpy as np

from .problems import ConvexProblem, LeastSquaresProblem, parse_choice, parse_positive
from .records import Record
from .trace import check_horizon

KINDS = (
    "convex",
    "strongly_convex",
    "multiplicative_convex",
    "multiplicative_strongly_convex",
)


class SingularScheduleError(ValueError):
    """Evaluation of a 2/t schedule at t = 0."""


class ParamSchedule(Record):
    """One of the four schedule kinds and its normalized (G, K, m) triple.

    The kind's published constants enter only through the named
    constructors or ``for_problem``; m = 0 marks the time-varying kinds.
    """

    kind: str
    scales: tuple[float, float, float]

    def __post_init__(self) -> None:
        parse_choice(self.kind, KINDS, "schedule")
        g, k, m = self.scales
        for name, v in (("G", g), ("K", k)):
            parse_positive(v, f"{self.kind} scale {name}")
        if self.kind.endswith("strongly_convex"):
            parse_positive(m, f"{self.kind} scale m")
        elif m != 0.0:
            raise ValueError(f"{self.kind} needs m = 0, got {m}")

    @classmethod
    def convex(cls, smoothness: float) -> "ParamSchedule":
        return cls("convex", (smoothness, 1.0, 0.0))

    @classmethod
    def strongly_convex(cls, smoothness: float, mu: float) -> "ParamSchedule":
        return cls("strongly_convex", (smoothness, 1.0, mu))

    @classmethod
    def multiplicative_convex(cls, r_squared: float, kappa_tilde: float) -> "ParamSchedule":
        return cls("multiplicative_convex", (r_squared, kappa_tilde, 0.0))

    @classmethod
    def multiplicative_strongly_convex(
        cls, r_squared: float, kappa_tilde: float, mu: float
    ) -> "ParamSchedule":
        return cls("multiplicative_strongly_convex", (r_squared, kappa_tilde, mu))

    @classmethod
    def for_problem(cls, problem: ConvexProblem, kind: str | None = None) -> "ParamSchedule":
        """The schedule ``kind`` with the problem's constants; by default the
        strongly convex one when mu > 0 and the convex one otherwise."""
        if kind is None:
            kind = "strongly_convex" if problem.strong_convexity > 0 else "convex"
        m = problem.strong_convexity if kind.endswith("strongly_convex") else 0.0
        if kind.startswith("multiplicative") and isinstance(problem, LeastSquaresProblem):
            return cls(kind, (problem.r_squared, problem.kappa_tilde, m))
        # the record checks the kind, and check_pairing its problem
        return check_pairing(cls(kind, (problem.smoothness, 1.0, m)), problem)

    @property
    def is_multiplicative(self) -> bool:
        return self.kind.startswith("multiplicative")

    @cached_property
    def is_time_varying(self) -> bool:
        return self.scales[2] == 0.0

    @cached_property
    def mix_rate(self) -> float:
        """The constant rate c = eta = eta' of the strongly convex kinds,
        computed on first use."""
        g, k, m = self.scales
        if m == 0.0:
            raise ValueError("time-varying schedules have no constant mix rate")
        return math.sqrt(m / (g * k))


def check_pairing(schedule: ParamSchedule, problem: ConvexProblem) -> ParamSchedule:
    """``schedule`` when its certificate holds on ``problem``: a
    multiplicative kind needs the noise structure of a least-squares
    problem.  Otherwise a ValueError names the kind."""
    if schedule.is_multiplicative and not isinstance(problem, LeastSquaresProblem):
        raise ValueError(f"schedule {schedule.kind} needs a least-squares problem")
    return schedule


def schedule_eval(
    schedule: ParamSchedule, t: float | np.ndarray
) -> tuple[float, float, float, float]:
    """Evaluate (eta, eta', gamma, gamma') at time t.

    ``t`` may also be an array of times: each function that varies with
    time is then an array of its values, with the arithmetic of a scalar t
    element by element, and any t <= 0 is singular on the 2/t kinds.
    """
    g, k, m = schedule.scales
    if schedule.is_time_varying:
        if np.any(t <= 0):
            raise SingularScheduleError("2/t schedule is singular at t = 0")
        return 2.0 / t, 0.0, 1.0 / g, t / (2.0 * g * k)
    c = schedule.mix_rate
    return c, c, 1.0 / g, 1.0 / math.sqrt(m * g * k)


def discrete_params(
    schedule: ParamSchedule, t_k: float, t_next: float
) -> tuple[float, float, float, float]:
    """Random Nesterov weights (tau, tau', gamma~, gamma~') for one event gap.

    These are the closed-form coefficients of the three-sequence recursion
    obtained by integrating the mixing ODE over [t_k, t_next) and applying
    the jump at t_next: the steps are ``schedule_eval``'s (gamma, gamma')
    at t_next.
    """
    if t_k < 0 or t_next <= t_k:
        raise ValueError(f"need 0 <= t_k < t_next, got {t_k}, {t_next}")
    c, _, gamma, gamma_p = schedule_eval(schedule, t_next)  # c = eta = eta' if constant
    if schedule.is_time_varying:
        tau = 1.0 - (t_k / t_next) ** 2
        return tau, 0.0, gamma, gamma_p
    gap = t_next - t_k
    tau = 0.5 * (1.0 - math.exp(-2.0 * c * gap))
    tau_p = math.tanh(c * gap)
    return tau, tau_p, gamma, gamma_p


class EventClock(Record):
    """Inter-arrival law of gradient events.

    ``exponential(rate)`` is the Poisson clock; ``geometric(p, tick)`` waits
    tick * Geometric(p) between events and interpolates toward the Poisson
    clock as p -> 0 with tick = p.  The record checks its kind and every
    field when it is built; the defaults of the fields a kind does not read
    pass.
    """

    kind: str
    rate: float = 1.0
    p: float = 1.0
    tick: float = 1.0

    def __post_init__(self) -> None:
        parse_choice(self.kind, CLOCKS, "clock")
        # an infinite rate makes every wait 0: a run would never pass its horizon
        parse_positive(self.rate, "rate")
        if not 0 < self.p <= 1:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        # the longest wait, at the largest uniform 1 - 2**-53, must count finitely many trials
        if self.p < 1 and not math.isfinite(math.log(2.0**-53) / math.log1p(-self.p)):
            raise ValueError(f"p = {self.p} is too small: the longest geometric wait overflows")
        parse_positive(self.tick, "tick")

    @classmethod
    def exponential(cls, rate: float = 1.0) -> "EventClock":
        return cls("exponential", rate=rate)

    @classmethod
    def geometric(cls, p: float, tick: float) -> "EventClock":
        return cls("geometric", p=p, tick=tick)


# Each clock kind: its constructor and the [algo] keys it reads, in the
# constructor's argument order, with their defaults.
CLOCKS = {
    "exponential": (EventClock.exponential, {"rate": 1.0}),
    "geometric": (EventClock.geometric, {"p": 0.01, "tick": 0.01}),
}


def sample_interarrival(clock: EventClock, u: float) -> float:
    """The clock's waiting time at the uniform draw ``u`` in [0, 1).

    Both laws invert the one uniform, so runs on different clocks but the
    same seed are coupled event by event (the geometric wait converges to
    the exponential one as p -> 0 with tick = p).
    """
    if clock.kind == "exponential":
        return -math.log(1.0 - u) / clock.rate
    if clock.p == 1.0:
        return clock.tick
    trials = 1.0 + math.floor(math.log(1.0 - u) / math.log1p(-clock.p))
    return clock.tick * trials


# Most uniforms one block draw takes from a clock stream.
EVENT_CHUNK = 4096


def first_block_size(expected: float) -> int:
    """The draws of a run's first block from its clock stream: the
    ``expected`` event count plus three standard deviations, at most
    ``EVENT_CHUNK``, so one block covers nearly every run."""
    return min(EVENT_CHUNK, 1 + int(expected + 3.0 * math.sqrt(expected)))


def sample_event_times(clock: EventClock, horizon: float, rng: np.random.Generator) -> list[float]:
    """The event times up to ``horizon`` of a run whose clock stream is ``rng``.

    The times are the running sums of the waits ``sample_interarrival``
    gives the stream's uniforms, one per uniform, in stream order: bit for
    bit what drawing one uniform per event gives.  The uniforms come in
    blocks of ``first_block_size`` of the expected count; the clock stream
    feeds nothing else, so the uniforms left in the last block are simply
    unused.  Each block is one pass: ``math.log`` of each 1 - u, the
    clock's law over the block in numpy (the same IEEE operations as
    ``sample_interarrival``), and one ``np.cumsum`` continuing from the
    last time, whose sequential sums are those of ``t += wait``.  The
    horizon must pass ``check_horizon``.
    """
    check_horizon(horizon)
    mean_rate = clock.rate if clock.kind == "exponential" else clock.p / clock.tick
    size = first_block_size(horizon * mean_rate)
    times, t = [], 0.0
    while True:
        u = rng.random(size)
        if clock.kind == "geometric" and clock.p == 1.0:
            waits = np.full(size, clock.tick)
        else:
            waits = np.fromiter(map(math.log, (1.0 - u).tolist()), float, size)
            if clock.kind == "exponential":
                np.negative(waits, out=waits)
                waits /= clock.rate
            else:  # tick * (1 + floor(log(1 - u) / log1p(-p)))
                waits /= math.log1p(-clock.p)
                np.floor(waits, out=waits)
                waits += 1.0
                waits *= clock.tick
        waits[0] += t
        block = np.cumsum(waits, out=waits).tolist()
        count = bisect_right(block, horizon)
        if count < size:
            return times + block[:count]
        times += block
        t = block[-1]


class LyapunovCoeffs(Record):
    """Coefficients (A_t, B_t) of the certificate phi_t, plus the norm flag:
    floats at one time (``lyapunov_coeffs``), (C,) arrays on a grid
    (``lyapunov_on_grid``)."""

    a_t: float | np.ndarray
    b_t: float | np.ndarray
    multiplicative: bool


def lyapunov_coeffs(schedule: ParamSchedule, t: float) -> LyapunovCoeffs:
    """A_t and B_t matching the schedule kind, normalized to A_0 = 1 in the
    constant case and B_t = 1 in the time-varying case."""
    g, k, m = schedule.scales
    if schedule.is_time_varying:
        return LyapunovCoeffs(
            a_t=t * t / (4.0 * g * k), b_t=1.0, multiplicative=schedule.is_multiplicative
        )
    a_t = math.exp(schedule.mix_rate * t)
    return LyapunovCoeffs(
        a_t=a_t, b_t=m * a_t, multiplicative=schedule.is_multiplicative
    )


def lyapunov_on_grid(schedule: ParamSchedule, grid: Sequence[float]) -> LyapunovCoeffs:
    """The certificate coefficients at every point of ``grid``, as (C,)
    arrays of ``lyapunov_coeffs``' A_t and B_t, read-only like every array
    of a record: one call per checkpoint, which an ensemble's plan makes
    once for the grid its runs share."""
    each = [lyapunov_coeffs(schedule, t) for t in grid]
    a_t, b_t = np.array([c.a_t for c in each]), np.array([c.b_t for c in each])
    return LyapunovCoeffs(a_t, b_t, schedule.is_multiplicative)
