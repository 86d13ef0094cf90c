import math

import numpy as np
import pytest

from continuized import schedules
from continuized.dynamics import run_continuized, step_column
from continuized.problems import NoiseModel, make_least_squares, make_quadratic
from continuized.schedules import (
    EVENT_CHUNK,
    KINDS,
    EventClock,
    ParamSchedule,
    SingularScheduleError,
    discrete_params,
    lyapunov_coeffs,
    lyapunov_on_grid,
    sample_event_times,
    sample_interarrival,
    first_block_size,
    schedule_eval,
)
from continuized.seeding import run_streams
from oracles import ScriptedClock, event_times


class TestScheduleEval:
    def test_convex_substitution(self):
        s = ParamSchedule.convex(1.0)
        assert schedule_eval(s, 2.0) == pytest.approx((1.0, 0.0, 1.0, 1.0))

    def test_strongly_convex_constants(self):
        s = ParamSchedule.strongly_convex(1.0, 0.01)
        assert schedule_eval(s, 17.0) == pytest.approx((0.1, 0.1, 1.0, 10.0))

    def test_multiplicative_strongly_convex_complete10(self):
        # gossip constants of the 10-node complete graph
        s = ParamSchedule.multiplicative_strongly_convex(2.0, 9.0, 2.0 / 9.0)
        eta, eta_p, gamma, gamma_p = schedule_eval(s, 1.0)
        assert eta == pytest.approx(1.0 / 9.0, rel=1e-12)
        assert eta_p == eta
        assert gamma == pytest.approx(0.5)
        # gamma' = (1/R^2) sqrt(kappa / kappa_tilde), kappa = R^2 / mu = 9
        assert gamma_p == pytest.approx(0.5 * math.sqrt(9.0 / 9.0))

    def test_multiplicative_convex(self):
        s = ParamSchedule.multiplicative_convex(2.0, 4.0)
        eta, eta_p, gamma, gamma_p = schedule_eval(s, 3.0)
        assert (eta, eta_p, gamma) == pytest.approx((2.0 / 3.0, 0.0, 0.5))
        assert gamma_p == pytest.approx(3.0 / (2.0 * 2.0 * 4.0))

    def test_singular_at_zero(self):
        with pytest.raises(SingularScheduleError):
            schedule_eval(ParamSchedule.convex(1.0), 0.0)

    def test_finite_and_positive(self):
        rng = np.random.default_rng(0)
        kinds = [
            ParamSchedule.convex(2.0),
            ParamSchedule.strongly_convex(2.0, 0.5),
            ParamSchedule.multiplicative_convex(3.0, 7.0),
            ParamSchedule.multiplicative_strongly_convex(3.0, 7.0, 0.2),
        ]
        for s in kinds:
            for t in rng.uniform(1e-6, 100.0, 25):
                eta, eta_p, gamma, gamma_p = schedule_eval(s, t)
                assert all(map(math.isfinite, (eta, eta_p, gamma, gamma_p)))
                assert gamma > 0


class TestDiscreteParams:
    def test_convex_known_values(self):
        s = ParamSchedule.convex(1.0)
        tau, tau_p, gamma, gamma_p = discrete_params(s, 1.0, 2.0)
        assert tau == pytest.approx(0.75)
        assert tau_p == 0.0
        assert gamma == 1.0
        # the z-step uses gamma' at the jump time t_next
        assert gamma_p == pytest.approx(1.0)

    def test_strongly_convex_log2_gap(self):
        s = ParamSchedule.strongly_convex(1.0, 1.0)
        tau, tau_p, _, _ = discrete_params(s, 0.0, math.log(2.0) / 2.0)
        assert tau == pytest.approx(0.25, rel=1e-12)
        assert tau_p == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_zero_gap_limit(self):
        s = ParamSchedule.strongly_convex(1.0, 0.25)
        tau, tau_p, _, _ = discrete_params(s, 5.0, 5.0 + 1e-15)
        assert tau == pytest.approx(0.0, abs=1e-14)
        assert tau_p == pytest.approx(0.0, abs=1e-14)

    def test_rejects_bad_interval(self):
        s = ParamSchedule.convex(1.0)
        with pytest.raises(ValueError):
            discrete_params(s, 2.0, 2.0)
        with pytest.raises(ValueError):
            discrete_params(s, -1.0, 2.0)


class TestEventClock:
    def test_exponential_inverse_cdf(self):
        clock = EventClock.exponential(1.0)
        assert sample_interarrival(clock, 1.0 - math.exp(-1.0)) == pytest.approx(1.0)

    def test_geometric_p_one(self):
        clock = EventClock.geometric(1.0, 1.0)
        uniforms = np.random.default_rng(0).random(20)
        assert all(sample_interarrival(clock, u) == 1.0 for u in uniforms)

    def test_exponential_mean(self):
        clock = EventClock.exponential(1.0)
        uniforms = np.random.default_rng(1).random(100_000)
        draws = np.array([sample_interarrival(clock, u) for u in uniforms])
        assert 0.99 <= draws.mean() <= 1.01

    def test_exponential_rate_scales(self):
        clock = EventClock.exponential(4.0)
        uniforms = np.random.default_rng(2).random(20_000)
        draws = np.array([sample_interarrival(clock, u) for u in uniforms])
        assert draws.mean() == pytest.approx(0.25, rel=0.05)

    def test_geometric_mean_matches_exponential(self):
        clock = EventClock.geometric(0.01, 0.01)
        uniforms = np.random.default_rng(3).random(50_000)
        draws = np.array([sample_interarrival(clock, u) for u in uniforms])
        assert draws.mean() == pytest.approx(1.0, rel=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            EventClock.exponential(0.0)
        # every wait would be 0, so a run would never reach its horizon
        with pytest.raises(ValueError, match="rate must be finite and > 0"):
            EventClock.exponential(math.inf)
        with pytest.raises(ValueError):
            EventClock.geometric(0.0, 1.0)
        with pytest.raises(ValueError):
            EventClock.geometric(0.5, -1.0)

    @pytest.mark.parametrize("p", [1.0 + 2.0**-52, 1.2, 1.5])
    def test_geometric_p_above_one_rejected(self, p):
        # a success probability above 1 has no geometric law
        with pytest.raises(ValueError, match=r"p must be in \(0, 1\]"):
            EventClock.geometric(p, 0.1)


# The block sampler against ``replay.event_times``, which draws one uniform
# per event: every clock kind, the p = 1 geometric clock that ignores its
# uniform, and a rate that is not 1.
SAMPLER_CLOCKS = {
    "exponential-1": EventClock.exponential(1.0),
    "exponential-2.5": EventClock.exponential(2.5),
    "geometric-0.3": EventClock.geometric(0.3, 0.3),
    "geometric-1": EventClock.geometric(1.0, 1.0),
}
SAMPLER_SEEDS = range(20)


def _bits(times):
    return [float(t).hex() for t in times]


def _first_wait(clock, seed):
    return sample_interarrival(clock, run_streams(seed, 0).clock.random())


def _per_uniform_loop(clock, horizon, uniforms):
    """The times of ``t += sample_interarrival(clock, u)`` from t = 0, one
    uniform per event, up to ``horizon`` (all of them when it is not
    passed)."""
    times, t = [], 0.0
    for u in uniforms:
        t += sample_interarrival(clock, u)
        if t > horizon:
            break
        times.append(t)
    return times


# Uniforms at both ends of [0, 1): 0 waits 0 (or one tick), 1 - 2**-53 longest.
EXTREME_HEAD = [0.0, 1.0 - 2.0**-53, 0.3, 0.0, 0.0, 1.0 - 2.0**-53, 0.9]


class TestSampleEventTimes:
    @pytest.mark.parametrize("name", list(SAMPLER_CLOCKS))
    @pytest.mark.parametrize("chunk", [7, EVENT_CHUNK])
    def test_blocks_equal_the_per_uniform_loop(self, monkeypatch, name, chunk):
        # horizons at, and one ulp around, the time of the chunk-th and
        # (2 chunk)-th event, where the count lands on a block edge; the
        # stream starts with the extreme uniforms
        monkeypatch.setattr(schedules, "EVENT_CHUNK", chunk)
        clock = SAMPLER_CLOCKS[name]
        mean_rate = clock.rate if clock.kind == "exponential" else clock.p / clock.tick
        for seed in range(3):
            uniforms = ScriptedClock(EXTREME_HEAD, seed).random(3 * chunk).tolist()
            ends = _per_uniform_loop(clock, math.inf, uniforms)
            for k in (chunk, 2 * chunk):
                for side in (-1.0, 0.0, 1.0):
                    horizon = float(np.nextafter(ends[k - 1], side * math.inf)) if side else \
                        ends[k - 1]
                    if not side:
                        assert first_block_size(horizon * mean_rate) == chunk
                    got = sample_event_times(clock, horizon, ScriptedClock(EXTREME_HEAD, seed))
                    assert _bits(got) == _bits(_per_uniform_loop(clock, horizon, uniforms))

    @pytest.mark.parametrize("name", list(SAMPLER_CLOCKS))
    @pytest.mark.parametrize("horizon", [0.9, 7.3, 60.0])
    def test_equals_one_draw_per_event(self, name, horizon):
        clock = SAMPLER_CLOCKS[name]
        for seed in SAMPLER_SEEDS:
            want = event_times(clock, horizon, run_streams(seed, 0))
            got = sample_event_times(clock, horizon, run_streams(seed, 0).clock)
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("name", list(SAMPLER_CLOCKS))
    def test_horizon_over_several_blocks(self, name):
        clock = SAMPLER_CLOCKS[name]
        mean_wait = 1.0 / clock.rate if clock.kind == "exponential" else clock.tick / clock.p
        horizon = 2.2 * EVENT_CHUNK * mean_wait
        for seed in SAMPLER_SEEDS:
            got = sample_event_times(clock, horizon, run_streams(seed, 0).clock)
            assert len(got) > 2 * EVENT_CHUNK
            assert _bits(got) == _bits(event_times(clock, horizon, run_streams(seed, 0)))

    @pytest.mark.parametrize("name", list(SAMPLER_CLOCKS))
    def test_block_size_does_not_move_the_times(self, monkeypatch, name):
        # blocks of 7 uniforms: many block edges inside one run
        monkeypatch.setattr(schedules, "EVENT_CHUNK", 7)
        clock = SAMPLER_CLOCKS[name]
        for seed in SAMPLER_SEEDS:
            got = sample_event_times(clock, 30.0, run_streams(seed, 0).clock)
            assert len(got) > 7
            assert _bits(got) == _bits(event_times(clock, 30.0, run_streams(seed, 0)))

    @pytest.mark.parametrize("name", list(SAMPLER_CLOCKS))
    def test_horizon_before_the_first_wait(self, name):
        clock = SAMPLER_CLOCKS[name]
        problem = make_quadratic([0.5, 2.0], [1.0, -1.0])
        for seed in SAMPLER_SEEDS:
            horizon = 0.5 * _first_wait(clock, seed)
            assert sample_event_times(clock, horizon, run_streams(seed, 0).clock) == []
            assert event_times(clock, horizon, run_streams(seed, 0)) == []
            grid = [0.25 * horizon, 0.5 * horizon, horizon]
            tr = run_continuized(problem, NoiseModel.none(), ParamSchedule.convex(2.0), clock,
                                 horizon, run_streams(seed, 0), checkpoints=grid)
            assert tr.events == 0
            assert [st.t for st in tr.states] == grid
            assert all(len(tr.values[m]) == len(grid) for m in ("gap", "dist_sq", "lyapunov"))

    @pytest.mark.parametrize("name", ["exponential-2.5", "geometric-0.3", "geometric-1"])
    def test_trace_counts_the_replayed_events(self, name):
        clock = SAMPLER_CLOCKS[name]
        problem = make_quadratic([0.5, 2.0], [1.0, -1.0])
        for seed in SAMPLER_SEEDS:
            tr = run_continuized(problem, NoiseModel.none(),
                                 ParamSchedule.strongly_convex(2.0, 0.5), clock, 20.0,
                                 run_streams(seed, 0), checkpoints=[1.0, 20.0])
            assert tr.events == len(event_times(clock, 20.0, run_streams(seed, 0))) > 0

    def test_no_times_for_a_horizon_that_is_not_a_positive_number(self):
        clock = EventClock.exponential(1.0)
        for horizon in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="horizon must be finite and > 0"):
                sample_event_times(clock, horizon, run_streams(1, 0).clock)


class TestStepColumns:
    @pytest.mark.parametrize("schedule", [ParamSchedule.convex(3.0),
                                          ParamSchedule.multiplicative_convex(2.0, 5.0),
                                          ParamSchedule.strongly_convex(1.0, 0.04)])
    def test_stack_equals_one_column_per_time(self, schedule):
        times = np.cumsum(np.random.default_rng(4).exponential(size=500))
        stack = step_column(schedule, times)
        assert stack.shape == (500, 2, 1)
        for t, column in zip(times.tolist(), stack):
            _, _, gamma, gamma_p = schedule_eval(schedule, t)
            np.testing.assert_array_equal(column, [[gamma], [gamma_p]])
            np.testing.assert_array_equal(column, step_column(schedule, t))

    def test_stack_with_a_time_at_zero_is_singular(self):
        with pytest.raises(SingularScheduleError):
            step_column(ParamSchedule.convex(1.0), np.array([0.0, 0.5, 1.0]))
        with pytest.raises(SingularScheduleError):
            schedule_eval(ParamSchedule.convex(1.0), np.array([0.5, -1.0]))
        assert step_column(ParamSchedule.convex(1.0), np.array([])).shape == (0, 2, 1)


class TestLyapunovCoeffs:
    def test_convex_coeffs(self):
        s = ParamSchedule.convex(2.0)
        c = lyapunov_coeffs(s, 4.0)
        assert c.a_t == pytest.approx(16.0 / 8.0)
        assert c.b_t == 1.0
        assert not c.multiplicative

    def test_strongly_convex_coeffs(self):
        s = ParamSchedule.strongly_convex(1.0, 0.04)
        c = lyapunov_coeffs(s, 5.0)
        assert c.a_t == pytest.approx(math.exp(0.2 * 5.0))
        assert c.b_t == pytest.approx(0.04 * c.a_t)

    def test_multiplicative_flag(self):
        s = ParamSchedule.multiplicative_convex(2.0, 9.0)
        c = lyapunov_coeffs(s, 3.0)
        assert c.multiplicative
        assert c.a_t == pytest.approx(9.0 / (4.0 * 2.0 * 9.0))

    @pytest.mark.parametrize("schedule", [ParamSchedule.convex(2.0),
                                          ParamSchedule.strongly_convex(1.0, 0.04),
                                          ParamSchedule.multiplicative_convex(2.0, 9.0)])
    def test_on_grid_equals_each_point(self, schedule):
        grid = np.geomspace(1.0, 100.0, 50).tolist()
        c = lyapunov_on_grid(schedule, grid)
        assert c.multiplicative == schedule.is_multiplicative
        for t, a_t, b_t in zip(grid, c.a_t, c.b_t):
            each = lyapunov_coeffs(schedule, t)
            assert (a_t, b_t) == (each.a_t, each.b_t)


class TestParamScheduleRule:
    QUADRATIC = make_quadratic([0.5, 2.0], [1.0, -1.0])
    LEAST_SQUARES = make_least_squares([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]], [0.5, -0.5])

    @pytest.mark.parametrize("kind", KINDS)
    def test_for_problem_equals_named_constructor(self, kind):
        q, ls = self.QUADRATIC, self.LEAST_SQUARES
        named = {
            "convex": (q, ParamSchedule.convex(q.smoothness)),
            "strongly_convex": (
                q, ParamSchedule.strongly_convex(q.smoothness, q.strong_convexity)),
            "multiplicative_convex": (
                ls, ParamSchedule.multiplicative_convex(ls.r_squared, ls.kappa_tilde)),
            "multiplicative_strongly_convex": (
                ls, ParamSchedule.multiplicative_strongly_convex(
                    ls.r_squared, ls.kappa_tilde, ls.strong_convexity)),
        }
        problem, expected = named[kind]
        assert ParamSchedule.for_problem(problem, kind) == expected

    @pytest.mark.parametrize("kind", ["convex", "multiplicative_convex"])
    def test_time_varying_kinds_have_no_mix_rate(self, kind):
        problem = self.QUADRATIC if kind == "convex" else self.LEAST_SQUARES
        schedule = ParamSchedule.for_problem(problem, kind)
        with pytest.raises(ValueError, match="time-varying schedules have no constant mix rate"):
            schedule.mix_rate

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_non_positive_g_and_k(self, kind, bad):
        m = 0.5 if kind.endswith("strongly_convex") else 0.0
        for scales in ((bad, 1.0, m), (1.0, bad, m)):
            with pytest.raises(ValueError, match="must be finite and > 0"):
                ParamSchedule(kind, scales)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_strongly_convex_kinds_reject_non_positive_m(self, bad):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            ParamSchedule.strongly_convex(1.0, bad)
        with pytest.raises(ValueError, match="must be finite and > 0"):
            ParamSchedule.multiplicative_strongly_convex(1.0, 1.0, bad)

    @pytest.mark.parametrize("kind", ["convex", "multiplicative_convex"])
    @pytest.mark.parametrize("m", [0.5, -1.0, math.nan])
    def test_convex_kinds_reject_nonzero_m(self, kind, m):
        with pytest.raises(ValueError, match="needs m = 0"):
            ParamSchedule(kind, (1.0, 1.0, m))

    def test_for_problem_errors(self):
        needs = "schedule multiplicative_convex needs a least-squares problem"
        with pytest.raises(ValueError, match=needs):
            ParamSchedule.for_problem(self.QUADRATIC, "multiplicative_convex")
        with pytest.raises(ValueError, match="unknown schedule 'x'"):
            ParamSchedule.for_problem(self.QUADRATIC, "x")
        with pytest.raises(ValueError, match="unknown schedule 'x'"):
            ParamSchedule("x", (1.0, 1.0, 0.0))
