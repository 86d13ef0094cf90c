import math

import numpy as np
import pytest

from continuized.problems import make_least_squares, make_quadratic
from continuized.schedules import (
    KINDS,
    EventClock,
    ParamSchedule,
    SingularScheduleError,
    discrete_params,
    lyapunov_coeffs,
    sample_interarrival,
    schedule_eval,
)


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
        class FixedRng:
            def random(self):
                return 1.0 - math.exp(-1.0)

        clock = EventClock.exponential(1.0)
        assert sample_interarrival(clock, FixedRng()) == pytest.approx(1.0)

    def test_geometric_p_one(self):
        clock = EventClock.geometric(1.0, 1.0)
        rng = np.random.default_rng(0)
        assert all(sample_interarrival(clock, rng) == 1.0 for _ in range(20))

    def test_exponential_mean(self):
        clock = EventClock.exponential(1.0)
        rng = np.random.default_rng(1)
        draws = np.array([sample_interarrival(clock, rng) for _ in range(100_000)])
        assert 0.99 <= draws.mean() <= 1.01

    def test_exponential_rate_scales(self):
        clock = EventClock.exponential(4.0)
        rng = np.random.default_rng(2)
        draws = np.array([sample_interarrival(clock, rng) for _ in range(20_000)])
        assert draws.mean() == pytest.approx(0.25, rel=0.05)

    def test_geometric_mean_matches_exponential(self):
        clock = EventClock.geometric(0.01, 0.01)
        rng = np.random.default_rng(3)
        draws = np.array([sample_interarrival(clock, rng) for _ in range(50_000)])
        assert draws.mean() == pytest.approx(1.0, rel=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            EventClock.exponential(0.0)
        with pytest.raises(ValueError):
            EventClock.geometric(0.0, 1.0)
        with pytest.raises(ValueError):
            EventClock.geometric(0.5, -1.0)


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

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_non_positive_g_and_k(self, kind, bad):
        m = 0.5 if kind.endswith("strongly_convex") else 0.0
        for scales in ((bad, 1.0, m), (1.0, bad, m)):
            with pytest.raises(ValueError, match="must be > 0"):
                ParamSchedule(kind, scales)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_strongly_convex_kinds_reject_non_positive_m(self, bad):
        with pytest.raises(ValueError, match="must be > 0"):
            ParamSchedule.strongly_convex(1.0, bad)
        with pytest.raises(ValueError, match="must be > 0"):
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
        with pytest.raises(ValueError, match="unknown schedule kind 'x'"):
            ParamSchedule("x", (1.0, 1.0, 0.0))
