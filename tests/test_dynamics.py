import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from continuized import dynamics
from continuized.dynamics import (
    FLOAT_PAIR_MAX_DIM,
    gradient_jump,
    initial_state,
    lyapunov_value,
    midpoint_contract,
    mix_closed_form,
    run_continuized,
    run_gd,
    run_nesterov,
    run_three_sequence,
    nesterov_weights_convex,
)
from continuized.problems import (
    DimensionMismatchError,
    NoiseModel,
    make_least_squares,
    make_quadratic,
)
from continuized.schedules import (
    EventClock,
    ParamSchedule,
    discrete_params,
    lyapunov_coeffs,
    schedule_eval,
)
from continuized.seeding import run_streams
from continuized.trace import Snapshot
from oracles import event_times


def sc_problem():
    return make_quadratic([0.01, 0.03, 1.0], [1.0, 1.0, 1.0])


def convex_problem():
    idx = np.arange(1, 101)
    return make_quadratic(1.0 / idx**2, 1.0 / idx)


def rk4_mix(x0, z0, schedule, t0, t1, steps=20_000):
    """Numeric integration oracle for the mixing ODE."""
    h = (t1 - t0) / steps
    x, z, t = x0.astype(float).copy(), z0.astype(float).copy(), t0

    def f(t, x, z):
        eta, eta_p, _, _ = schedule_eval(schedule, t)
        return eta * (z - x), eta_p * (x - z)

    for _ in range(steps):
        k1x, k1z = f(t, x, z)
        k2x, k2z = f(t + h / 2, x + h / 2 * k1x, z + h / 2 * k1z)
        k3x, k3z = f(t + h / 2, x + h / 2 * k2x, z + h / 2 * k2z)
        k4x, k4z = f(t + h, x + h * k3x, z + h * k3z)
        x = x + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        z = z + h / 6 * (k1z + 2 * k2z + 2 * k3z + k4z)
        t += h
    return x, z


class TestMixClosedForm:
    def test_identity_at_same_time(self):
        s = np.array([[1.0, 2.0], [0.0, 0.0]])
        out = mix_closed_form(s, 0.0, ParamSchedule.strongly_convex(1.0, 0.5), 0.0)
        assert out is s

    @pytest.mark.parametrize("sched", [ParamSchedule.convex(1.0),
                                       ParamSchedule.strongly_convex(1.0, 0.5)])
    def test_zero_interval_leaves_pair_bytes(self, sched):
        # events at one time mix over dt = 0, which must not touch the pair:
        # not even a -0.0 or a NaN payload may change
        s = np.array([[1.0, -0.0, np.nan, 1e-310], [0.3, 2.0, -7.5, np.inf]])
        before = s.tobytes()
        out = mix_closed_form(s, 2.5, sched, 2.5)
        assert out is s
        assert s.tobytes() == before

    @pytest.mark.parametrize("sched", [ParamSchedule.convex(1.0),
                                       ParamSchedule.strongly_convex(1.0, 0.5)])
    def test_mixes_in_place(self, sched):
        s = np.array([[1.0, -2.0], [0.5, 4.0]])
        out = mix_closed_form(s, 0.7, sched, 3.2)
        assert out is s
        assert not np.array_equal(s[0], [1.0, -2.0])

    def test_fixed_point_when_equal(self):
        x = np.array([3.0, -1.0])
        s = np.array([x, x])
        for sched in (ParamSchedule.convex(1.0), ParamSchedule.strongly_convex(1.0, 0.2)):
            out = mix_closed_form(s, 1.0, sched, 9.0)
            np.testing.assert_allclose(out[0], x)
            np.testing.assert_allclose(out[1], x)

    def test_constant_rate_matches_numeric_ode(self):
        sched = ParamSchedule.strongly_convex(1.0, 0.09)
        x0, z0 = np.array([1.0, -2.0]), np.array([0.5, 4.0])
        s = np.array([x0, z0])
        out = mix_closed_form(s, 0.7, sched, 3.2)
        xr, zr = rk4_mix(x0, z0, sched, 0.7, 3.2)
        np.testing.assert_allclose(out[0], xr, atol=1e-8)
        np.testing.assert_allclose(out[1], zr, atol=1e-8)

    def test_time_varying_matches_numeric_ode(self):
        sched = ParamSchedule.convex(1.0)
        x0, z0 = np.array([2.0, 0.0]), np.array([-1.0, 1.0])
        s = np.array([x0, z0])
        out = mix_closed_form(s, 1.0, sched, 4.0)
        xr, zr = rk4_mix(x0, z0, sched, 1.0, 4.0)
        np.testing.assert_allclose(out[0], xr, atol=1e-8)
        np.testing.assert_allclose(out[1], z0)
        np.testing.assert_allclose(out[0], z0 + (1.0 / 4.0) ** 2 * (x0 - z0))

    def test_midpoint_preserved_constant_rate(self):
        sched = ParamSchedule.strongly_convex(2.0, 0.5)
        s = np.array([[1.0], [5.0]])
        out = mix_closed_form(s, 0.0, sched, 10.0)
        assert 0.5 * (out[0] + out[1]) == pytest.approx(3.0)

    def test_rejects_backward_time(self):
        s = initial_state(np.zeros(1))
        with pytest.raises(ValueError):
            mix_closed_form(s, 0.0, ParamSchedule.convex(1.0), -1.0)


COORDS = st.floats(-1e3, 1e3, allow_subnormal=False)
GAPS = st.floats(1e-6, 50.0)


@st.composite
def mixing_cases(draw, max_dim=4):
    """A state (x, z) of dimension at most ``max_dim`` at t0 >= 0, as a
    snapshot, a schedule of either shape, and two later times t1 < t2."""
    d = draw(st.integers(1, max_dim))
    x = np.array(draw(st.lists(COORDS, min_size=d, max_size=d)))
    z = np.array(draw(st.lists(COORDS, min_size=d, max_size=d)))
    big_l = draw(st.floats(0.1, 10.0))
    if draw(st.booleans()):
        sched = ParamSchedule.convex(big_l)
    else:
        sched = ParamSchedule.strongly_convex(big_l, draw(st.floats(1e-3, 1.0)) * big_l)
    t0 = draw(st.floats(0.0, 50.0))
    t1 = t0 + draw(GAPS)
    t2 = t1 + draw(GAPS)
    return Snapshot(t0, x, z), sched, t1, t2


def _tolerance(state: Snapshot) -> float:
    return 1e-12 * max(np.max(np.abs(state.x)), np.max(np.abs(state.z)))


@settings(deadline=None)
@given(mixing_cases())
def test_mixing_is_a_semigroup(case):
    s, sched, t1, t2 = case
    pair = np.array([s.x, s.z])
    twice = mix_closed_form(mix_closed_form(pair.copy(), s.t, sched, t1), t1, sched, t2)
    once = mix_closed_form(pair.copy(), s.t, sched, t2)
    tol = _tolerance(s)
    np.testing.assert_allclose(twice[0], once[0], rtol=0, atol=tol)
    np.testing.assert_allclose(twice[1], once[1], rtol=0, atol=tol)


@settings(deadline=None)
@given(mixing_cases())
def test_mixing_equals_twin_weights(case):
    # the discrete twin's (tau, tau') reproduce the closed-form mix: the
    # mixed x is y = x + tau (z - x), and the mixed z is z + tau' (y - z)
    s, sched, t1, _ = case
    tau, tau_p, _, _ = discrete_params(sched, s.t, t1)
    mixed = mix_closed_form(np.array([s.x, s.z]), s.t, sched, t1)
    y = mixed[0]
    tol = _tolerance(s)
    np.testing.assert_allclose(y, s.x + tau * (s.z - s.x), rtol=0, atol=tol)
    np.testing.assert_allclose(mixed[1], s.z + tau_p * (y - s.z), rtol=0, atol=tol)


def _kernel_example(sched, t0, until):
    x, z = [1.0, -2.0, 0.3], [0.0, 4.0, -1.7]
    return Snapshot(t0, np.array(x), np.array(z)), sched, until, until + 1.0


@settings(deadline=None)
@given(mixing_cases(max_dim=40), st.lists(COORDS, min_size=40, max_size=40))
# (t0/until)**2 != (t0/until) * (t0/until) here, so the 2/t shrink must stay
# Python **; and np.exp != math.exp at this constant-rate decay
@example(_kernel_example(ParamSchedule.convex(1.0), 3.505, 8.781), [0.25, -1.0, 3.0])
@example(_kernel_example(ParamSchedule.strongly_convex(1.0, 0.25), 3.931, 5.674),
         [0.25, -1.0, 3.0])
def test_pair_kernel_equals_rowwise_formulas(case, g_values):
    # the (2, d) pair is mixed and jumped bit for bit as the rows one by one
    s, sched, until, _ = case
    x, z = s.x.copy(), s.z.copy()
    mixed = mix_closed_form(np.array([s.x, s.z]), s.t, sched, until)
    if sched.is_time_varying:
        want_x, want_z = z + (s.t / until) ** 2 * (x - z), z
    else:
        want_x, want_z = midpoint_contract(x, z, math.exp(-2.0 * sched.mix_rate * (until - s.t)))
    assert np.array_equal(mixed[0], want_x)
    assert np.array_equal(mixed[1], want_z)
    g = np.array(g_values[:x.size])
    _, _, gamma, gamma_p = schedule_eval(sched, until)
    jumped = gradient_jump(mixed.copy(), np.array([[gamma], [gamma_p]]), g)
    assert np.array_equal(jumped[0], mixed[0] - gamma * g)
    assert np.array_equal(jumped[1], mixed[1] - gamma_p * g)


class TestGradientJump:
    def test_zero_gradient_keeps_pair(self):
        s = initial_state(np.array([1.0, 2.0]))
        out = gradient_jump(s.copy(), np.array([[1.0], [2.0]]), np.zeros(2))
        np.testing.assert_array_equal(out[0], s[0])
        np.testing.assert_array_equal(out[1], s[1])

    def test_arithmetic(self):
        s = np.array([[2.0], [0.0]])
        out = gradient_jump(s, np.array([[1.0], [1.0]]), s[0] - s[1])
        assert out[0][0] == 0.0
        assert out[1][0] == -2.0

    def test_dimension_mismatch(self):
        s = initial_state(np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            gradient_jump(s, np.array([[1.0], [1.0]]), np.zeros(3))

    def test_jumps_in_place(self):
        s = np.array([[2.0, 1.0], [0.0, -1.0]])
        out = gradient_jump(s, np.array([[0.5], [2.0]]), np.array([1.0, 4.0]))
        assert out is s
        np.testing.assert_array_equal(s, [[1.5, -1.0], [-2.0, -9.0]])

    @pytest.mark.parametrize("length", [1, 3])
    def test_float_pair_dimension_mismatch_leaves_pair(self, length):
        pair = [[1.0, -2.0], [0.5, 4.0]]
        with pytest.raises(DimensionMismatchError, match="gradient has length"):
            gradient_jump(pair, (0.5, 2.0), [1.0] * length)
        assert pair == [[1.0, -2.0], [0.5, 4.0]]

    @settings(deadline=None)
    @given(st.integers(1, FLOAT_PAIR_MAX_DIM).flatmap(
        lambda d: st.lists(st.lists(COORDS, min_size=d, max_size=d), min_size=3, max_size=3)),
        st.tuples(COORDS, COORDS))
    def test_float_pair_equals_array_pair(self, rows, steps):
        # the float pair (x, z) with steps (gamma, gamma') jumps bit for bit
        # as the (2, d) array pair with the (2, 1) column
        x, z, g = rows
        want = gradient_jump(np.array([x, z]), np.array(steps)[:, None], np.array(g))
        pair = [list(x), list(z)]
        assert gradient_jump(pair, steps, g) is pair
        assert np.array(pair).tobytes() == want.tobytes()

    @pytest.mark.parametrize("row", [0, 1])
    def test_float_pair_gradient_may_alias_the_pair(self, row):
        pair = [[1.0, -2.0, 0.3], [0.5, 4.0, -1.7]]
        want = gradient_jump([r.copy() for r in pair], (0.75, 1.5), pair[row].copy())
        assert gradient_jump(pair, (0.75, 1.5), pair[row]) == want

    @pytest.mark.parametrize("row", [0, 1])
    def test_gradient_may_alias_the_pair(self, row):
        # the step is formed from g before the pair is written, so a g that
        # is a row of the pair jumps as its copy does
        pair = np.array([[1.0, -2.0, 0.3], [0.5, 4.0, -1.7]])
        steps = np.array([[0.75], [1.5]])
        want = gradient_jump(pair.copy(), steps, pair[row].copy())
        got = gradient_jump(pair, steps, pair[row])
        assert got is pair
        assert got.tobytes() == want.tobytes()


class TestRunContinuized:
    @pytest.mark.parametrize("sched", [ParamSchedule.convex(1.0),
                                       ParamSchedule.strongly_convex(1.0, 0.01)])
    def test_run_leaves_x0_unchanged(self, sched):
        # the runner hands every run of an ensemble the same x0 array, and
        # the run mixes and jumps its own pair in place: writing into x0
        # would start the next run from this run's end state
        p = sc_problem()
        x0 = np.array([0.5, -1.0, 2.0])
        before = x0.tobytes()
        tr = run_continuized(p, NoiseModel.additive(0.01), sched, EventClock.exponential(),
                             20.0, run_streams(8, 0), x0=x0, checkpoints=[5.0, 20.0])
        assert tr.events > 0
        assert x0.tobytes() == before
        assert not np.array_equal(tr.states[-1].x, x0)

    @pytest.mark.parametrize("x0", [[1.0], [1.0, 2.0, 3.0, 4.0]])
    def test_x0_of_another_dimension_rejected(self, x0):
        # the one-run engine checks its own start: a short x0 would walk
        # only its own coordinates and report a broadcast gap
        with pytest.raises(DimensionMismatchError, match=r"expected \(3,\)$"):
            run_continuized(sc_problem(), NoiseModel.none(), ParamSchedule.strongly_convex(
                1.0, 0.01), EventClock.exponential(), 20.0, run_streams(8, 0), x0=x0,
                checkpoints=[5.0, 20.0])

    def test_constant_objective_stays(self):
        p = make_quadratic([1.0], [0.0])
        sched = ParamSchedule.strongly_convex(1.0, 1.0)
        tr = run_continuized(p, NoiseModel.none(), sched, EventClock.exponential(),
                             20.0, run_streams(0, 0), x0=np.zeros(1),
                             checkpoints=[1.0, 10.0, 20.0])
        for gap in tr.values["gap"]:
            assert gap == pytest.approx(0.0, abs=1e-30)

    def test_first_convex_event_unrolls_by_hand(self):
        # before T1 the state is frozen at x0 = z0, so the first jump is a
        # plain gradient step with gamma = 1/L, gamma' = T1/(2L)
        p = sc_problem()
        sched = ParamSchedule.convex(1.0)
        t1 = event_times(EventClock.exponential(), 50.0, run_streams(5, 3))[0]
        tr = run_continuized(p, NoiseModel.none(), sched, EventClock.exponential(),
                             50.0, run_streams(5, 3), checkpoints=[t1])
        g0 = p.grad(np.zeros(3))
        np.testing.assert_allclose(tr.states[0].x, -g0, atol=1e-15)
        np.testing.assert_allclose(tr.states[0].z, -t1 / 2.0 * g0, atol=1e-15)

    def test_event_snapshots_match_three_sequence(self):
        # exact-discretization equivalence on both schedule kinds
        p = sc_problem()
        for sched in (ParamSchedule.convex(1.0), ParamSchedule.strongly_convex(1.0, 0.01)):
            for seed in range(10):
                times = event_times(EventClock.exponential(), 30.0, run_streams(31, seed))
                tr = run_continuized(p, NoiseModel.none(), sched,
                                     EventClock.exponential(), 30.0, run_streams(31, seed),
                                     checkpoints=times)
                assert len(tr.states) == len(times) > 0
                xs, _, zs = run_three_sequence(p, sched, times)
                for k, state in enumerate(tr.states):
                    np.testing.assert_allclose(state.x, xs[k + 1], atol=1e-12)
                    np.testing.assert_allclose(state.z, zs[k + 1], atol=1e-12)

    @pytest.mark.parametrize("last", [399, 61], ids=["later-events", "last-event"])
    def test_three_sequence_blow_up_names_its_step_without_warning(self, last):
        # scales far below the problem's (L = 100, mu = 1) overshoot every
        # step: the pair leaves the floats at event 61, also when it is the last
        problem = make_quadratic([100, 1], [1, 1])
        schedule = ParamSchedule.strongly_convex(0.001, 0.0005)
        times = [float(t) for t in range(1, last + 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError) as caught:
                run_three_sequence(problem, schedule, times)
        assert str(caught.value) == "step 61 at t = 61 left the iterates non-finite"

    def test_checkpoint_grid_recorded(self):
        p = sc_problem()
        sched = ParamSchedule.strongly_convex(1.0, 0.01)
        cps = [1.0, 2.0, 5.0, 10.0]
        tr = run_continuized(p, NoiseModel.none(), sched, EventClock.exponential(),
                             10.0, run_streams(2, 2), checkpoints=cps)
        vals = np.asarray(tr.values["gap"])
        assert vals.shape == (4,)
        assert all(len(v) == len(cps) for v in tr.values.values())
        ts = [s.t for s in tr.states]
        assert ts == cps
        assert ts == sorted(ts)
        assert len(set(ts)) == len(ts)

    def test_checkpoint_past_horizon_rejected(self):
        p = sc_problem()
        sched = ParamSchedule.strongly_convex(1.0, 0.01)
        with pytest.raises(ValueError, match=r"checkpoints \[50\.0\].*horizon = 10"):
            run_continuized(p, NoiseModel.none(), sched, EventClock.exponential(),
                            10.0, run_streams(4, 0), checkpoints=[5.0, 50.0])

    def test_terminal_state_at_horizon(self):
        # a grid that ends at the horizon records the terminal state: the
        # last post-event state mixed forward to the horizon
        p = sc_problem()
        sched = ParamSchedule.strongly_convex(1.0, 0.01)
        times = event_times(EventClock.exponential(), 7.5, run_streams(4, 0))
        tr = run_continuized(p, NoiseModel.none(), sched, EventClock.exponential(),
                             7.5, run_streams(4, 0), checkpoints=[*times, 7.5])
        assert len(tr.states) == len(times) + 1 > 1
        last, terminal = tr.states[-2:]
        assert terminal.t == 7.5
        want = mix_closed_form(np.array([last.x, last.z]), last.t, sched, 7.5)
        np.testing.assert_array_equal(terminal.x, want[0])
        np.testing.assert_array_equal(terminal.z, want[1])

    def test_geometric_clock_runs(self):
        p = sc_problem()
        sched = ParamSchedule.strongly_convex(1.0, 0.01)
        tr = run_continuized(p, NoiseModel.none(), sched,
                             EventClock.geometric(0.01, 0.01), 20.0,
                             run_streams(8, 0), checkpoints=[20.0])
        assert tr.values["gap"][0] < 0.52

    def test_noise_toggle_keeps_event_times(self):
        # clock and noise use disjoint streams: with the noise model on, the
        # run still jumps at the times its clock stream alone gives, so its
        # states there are those of the noisy recursion on the same times
        p = sc_problem()
        sched = ParamSchedule.strongly_convex(1.0, 0.01)
        noise = NoiseModel.additive(0.1)
        times = event_times(EventClock.exponential(), 15.0, run_streams(42, 1))
        noisy = run_continuized(p, noise, sched, EventClock.exponential(), 15.0,
                                run_streams(42, 1), checkpoints=times)
        assert len(noisy.states) == len(times) > 0
        xs, _, zs = run_three_sequence(p, sched, times, noise=noise,
                                       noise_rng=run_streams(42, 1).noise)
        for k, state in enumerate(noisy.states):
            np.testing.assert_allclose(state.x, xs[k + 1], atol=1e-12)
            np.testing.assert_allclose(state.z, zs[k + 1], atol=1e-12)


def _float_form_problem(d):
    return make_quadratic(np.geomspace(0.01, 1.0, d), np.linspace(1.0, -0.5, d))


FLOAT_FORM_CLOCKS = {
    "exponential": EventClock.exponential(),
    "geometric": EventClock.geometric(0.3, 0.3),
    "geometric-p1": EventClock.geometric(1.0, 0.5),
}


@pytest.mark.parametrize("clock", list(FLOAT_FORM_CLOCKS))
@pytest.mark.parametrize("noise", [NoiseModel.none(), NoiseModel.additive(0.01)],
                         ids=["none", "additive"])
@pytest.mark.parametrize("kind", ["convex", "strongly_convex"])
def test_float_pair_runs_equal_array_pair_runs(monkeypatch, kind, noise, clock):
    # a run on a small quadratic keeps its pair as Python floats; with the
    # threshold at 0 the same run takes the (2, d) array, and every
    # checkpoint (some on event times, so post-jump) must carry the same bits
    clock, horizon = FLOAT_FORM_CLOCKS[clock], 30.0
    mixes = [0]
    mix = dynamics.mix_closed_form

    def counted(*args):
        mixes[0] += 1
        return mix(*args)

    monkeypatch.setattr(dynamics, "mix_closed_form", counted)
    for d in (1, FLOAT_PAIR_MAX_DIM):
        p = _float_form_problem(d)
        if kind == "convex":
            sched = ParamSchedule.convex(p.smoothness)
        else:
            sched = ParamSchedule.strongly_convex(p.smoothness, p.strong_convexity)
        for x0 in (None, p.optimum, np.linspace(-2.0, 3.0, d)):
            for run in range(2):
                times = event_times(clock, horizon, run_streams(7, run))
                grid = sorted({*times[::3], *np.geomspace(0.5, horizon, 8).tolist()})
                traces = []
                for threshold in (FLOAT_PAIR_MAX_DIM, 0):
                    monkeypatch.setattr(dynamics, "FLOAT_PAIR_MAX_DIM", threshold)
                    before = mixes[0]
                    traces.append(run_continuized(p, noise, sched, clock, horizon,
                                                  run_streams(7, run), x0=x0, checkpoints=grid))
                    assert (mixes[0] > before) == (threshold == 0)
                floats, array = traces
                assert floats.events == array.events == len(times) > 0
                assert floats.values.keys() == array.values.keys()
                for name, column in array.values.items():
                    assert np.array_equal(floats.values[name], column), name
                for got, want in zip(floats.states, array.states, strict=True):
                    assert got.t == want.t
                    assert np.array_equal(got.x, want.x) and np.array_equal(got.z, want.z)


class TestGeometricClockAgreement:
    def test_mean_gap_within_five_percent_at_t20(self):
        # the geometric clock with tick = p = 1e-2 approximates the Poisson
        # clock; compare ensemble-mean gaps at t = 20 with both clocks driven
        # by the same per-event uniforms (common random numbers)
        p = sc_problem()
        sched = ParamSchedule.strongly_convex(1.0, 0.01)
        runs = 600

        def mean_gap(clock):
            total = 0.0
            for i in range(runs):
                tr = run_continuized(p, NoiseModel.none(), sched, clock, 20.0,
                                     run_streams(100, i), checkpoints=[20.0])
                total += tr.values["gap"][0]
            return total / runs

        g_exp = mean_gap(EventClock.exponential())
        g_geo = mean_gap(EventClock.geometric(0.01, 0.01))
        assert abs(g_geo - g_exp) / g_exp <= 0.05


class TestMultiplicativeRuns:
    def test_multiplicative_exponential_bound(self):
        # coordinate-sampling least squares: mean half-dist^2 obeys the
        # multiplicative-noise exponential bound (up to sampling error; rare
        # slow-clock runs give the estimator a heavy upper tail)
        d = 4
        rng = np.random.default_rng(0)
        p = make_least_squares(np.sqrt(d) * np.eye(d), rng.standard_normal(d))
        sched = ParamSchedule.multiplicative_strongly_convex(
            p.r_squared, p.kappa_tilde, p.strong_convexity
        )
        runs, horizon = 600, 20.0
        cps = [5.0, 10.0, 20.0]
        vals = np.empty((runs, len(cps)))
        x0 = np.zeros(d)
        for i in range(runs):
            tr = run_continuized(p, NoiseModel.multiplicative(), sched,
                                 EventClock.exponential(), horizon,
                                 run_streams(77, i), x0=x0, checkpoints=cps)
            vals[i] = tr.values["dist_sq"]
        mean_half = 0.5 * vals.mean(axis=0)
        se_half = 0.5 * vals.std(axis=0) / np.sqrt(runs)
        d0 = x0 - p.optimum
        phi0 = 0.5 * float(d0 @ d0) + 0.5 * p.strong_convexity * p.dist_sq_hinv(d0)
        rate = 1.0 / math.sqrt((p.r_squared / p.strong_convexity) * p.kappa_tilde)
        for v, se, t in zip(mean_half, se_half, cps):
            assert v <= 1.1 * phi0 * math.exp(-rate * t) + 3.0 * se

    def test_multiplicative_run_matches_three_sequence(self):
        # stochastic-gradient runs discretize exactly too, atom draws and all
        rng = np.random.default_rng(1)
        p = make_least_squares(rng.standard_normal((6, 3)), rng.standard_normal(3))
        sched = ParamSchedule.multiplicative_strongly_convex(
            p.r_squared, p.kappa_tilde, p.strong_convexity
        )
        times = event_times(EventClock.exponential(), 15.0, run_streams(55, 0))
        tr = run_continuized(p, NoiseModel.multiplicative(), sched,
                             EventClock.exponential(), 15.0, run_streams(55, 0),
                             checkpoints=times)
        assert len(tr.states) == len(times) > 0
        xs, _, zs = run_three_sequence(p, sched, times,
                                       noise=NoiseModel.multiplicative(),
                                       noise_rng=run_streams(55, 0).noise)
        for k, state in enumerate(tr.states):
            np.testing.assert_allclose(state.x, xs[k + 1], atol=1e-12)
            np.testing.assert_allclose(state.z, zs[k + 1], atol=1e-12)


class TestNesterov:
    def test_weight_recurrence(self):
        pairs = nesterov_weights_convex(3)
        assert pairs[0] == (0.0, 1.0)
        assert pairs[1][1] == pytest.approx(1.0 + 0.5 * (1.0 + math.sqrt(5.0)))

    def test_convex_bound(self):
        p = convex_problem()
        tr = run_nesterov(p, "convex", 300)
        x0 = np.zeros(100)
        c = 2.0 * p.smoothness * float(np.sum((x0 - p.optimum) ** 2))
        for k, gap in enumerate(tr.values["gap"]):
            if k >= 1:
                assert gap <= c / k**2 * (1 + 1e-12)

    def test_strongly_convex_bound(self):
        p = sc_problem()
        tr = run_nesterov(p, "strongly_convex", 400)
        rho = 1.0 - math.sqrt(0.01)
        phi0 = p.gap(np.zeros(3)) + 0.5 * 0.01 * 3.0
        for k, gap in enumerate(tr.values["gap"]):
            assert gap <= phi0 * rho**k * (1 + 1e-12)

    def test_requires_mu(self):
        p = make_quadratic([1.0], [0.0])
        object.__setattr__(p, "strong_convexity", 0.0)
        with pytest.raises(ValueError):
            run_nesterov(p, "strongly_convex", 5)


class TestGd:
    def test_stays_at_optimum(self):
        p = sc_problem()
        tr = run_gd(p, 1.0, 10, x0=p.optimum)
        assert tr.values["gap"][-1] == 0.0

    def test_newton_coincidence_1d(self):
        p = make_quadratic([1.0], [0.0])
        tr = run_gd(p, 1.0, 1, x0=np.array([1.0]))
        assert tr.values["gap"][-1] == pytest.approx(0.0, abs=1e-30)

    def test_linear_rate(self):
        p = sc_problem()
        tr = run_gd(p, 1.0, 500)
        gap0 = p.gap(np.zeros(3))
        rho = 1.0 - 0.01
        for k, gap in enumerate(tr.values["gap"]):
            assert gap <= gap0 * rho**k * (1 + 1e-12)

    def test_step_validation(self):
        p = sc_problem()
        with pytest.raises(ValueError):
            run_gd(p, 1.5, 3)
        with pytest.raises(ValueError):
            run_gd(p, 0.0, 3)


class TestLyapunov:
    def test_zero_at_optimum(self):
        p = sc_problem()
        sched = ParamSchedule.strongly_convex(1.0, 0.01)
        s = Snapshot(3.0, p.optimum, p.optimum)
        assert lyapunov_value(s, lyapunov_coeffs(sched, 3.0), p) == pytest.approx(0.0)

    def test_convex_value_formula(self):
        p = sc_problem()
        sched = ParamSchedule.convex(1.0)
        s = Snapshot(2.0, np.zeros(3), np.zeros(3))
        c = lyapunov_coeffs(sched, 2.0)
        want = (4.0 / 4.0) * 0.52 + 0.5 * 3.0
        assert lyapunov_value(s, c, p) == pytest.approx(want)

    def test_multiplicative_norms(self):
        rng = np.random.default_rng(2)
        p = make_least_squares(rng.standard_normal((8, 3)), np.zeros(3))
        sched = ParamSchedule.multiplicative_strongly_convex(
            p.r_squared, p.kappa_tilde, p.strong_convexity
        )
        x = rng.standard_normal(3)
        z = rng.standard_normal(3)
        s = Snapshot(1.0, x, z)
        c = lyapunov_coeffs(sched, 1.0)
        want = 0.5 * c.a_t * float(x @ x) + 0.5 * c.b_t * float(z @ p.hessian_pinv @ z)
        assert lyapunov_value(s, c, p) == pytest.approx(want)

    def test_multiplicative_certificate_needs_least_squares(self):
        p = sc_problem()
        coeffs = lyapunov_coeffs(ParamSchedule.multiplicative_convex(1.0, 1.0), 1.0)
        s = Snapshot(1.0, np.zeros(3), np.zeros(3))
        with pytest.raises(TypeError, match="multiplicative certificate needs a least-squares"):
            lyapunov_value(s, coeffs, p)

    def test_trace_records_lyapunov_value(self):
        # the values the run loop records agree with the public certificate
        # of the last event state before the checkpoint, mixed forward to it
        p = sc_problem()
        sched = ParamSchedule.strongly_convex(1.0, 0.01)
        before = event_times(EventClock.exponential(), 4.0, run_streams(9, 0))
        tr = run_continuized(p, NoiseModel.none(), sched, EventClock.exponential(),
                             10.0, run_streams(9, 0), checkpoints=[*before, 4.0])
        assert len(tr.states) == len(before) + 1 > 1
        last = tr.states[-2]
        state = Snapshot(4.0, *mix_closed_form(np.array([last.x, last.z]), last.t, sched, 4.0))
        recorded = tr.values["lyapunov"][-1]
        want = lyapunov_value(state, lyapunov_coeffs(sched, 4.0), p)
        assert recorded == want
