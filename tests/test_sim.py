import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from funcobs.polymat import Poly
from funcobs import sim
from funcobs.scenarios import _YDDOT_BLOCK, _yddot, _yddot_grid, fading_output_scenario
from funcobs.sim import (INPUT_FIELDS, MAX_STEPS, InputSignal, RealizationError, Scenario,
                         StateSpaceRealization, StepInstabilityError,
                         _rk4_step_map, convergence_metric, parse_scenario_document,
                         realize, rk4_linear,
                         simulate, suggested_horizon, write_csv)
from funcobs.system import SystemSextuple
from funcobs.witness import RationalFunction, RationalFunctionMatrix

import support


def rf(num, den=(1,)):
    return RationalFunction(Poly(list(num)), Poly(list(den)))


def transfer_of(omega, s0):
    nu = omega.order
    return omega.Q @ np.linalg.solve(s0 * np.eye(nu) - omega.G, omega.H) + omega.R


class TestRealize:
    def test_static_gain(self):
        N = RationalFunctionMatrix.from_rows([[rf((1,)), rf((0,))]])
        omega = realize(N)
        assert omega.order == 0
        assert np.array_equal(omega.R, np.array([[1.0, 0.0]]))

    def test_first_order_lag(self):
        N = RationalFunctionMatrix.from_rows([[rf((1,), (1, 1))]])
        omega = realize(N)
        assert omega.order == 1
        assert np.array_equal(omega.G, np.array([[-1.0]]))
        assert np.array_equal(omega.H, np.array([[1.0]]))
        assert np.array_equal(omega.Q, np.array([[1.0]]))
        assert np.array_equal(omega.R, np.array([[0.0]]))

    def test_transfer_match_at_sample_points(self, rng):
        # random proper stable 2x2: denominators are products of (s + a), a > 0
        def stable_den(deg):
            d = Poly([1])
            for _ in range(deg):
                d = d * Poly([rng.randint(1, 4), 1])
            return d

        entries = []
        for _ in range(2):
            row = []
            for _ in range(2):
                den = stable_den(rng.randint(1, 2))
                num = Poly([rng.randint(-3, 3) for _ in range(den.degree + 1)])
                row.append(RationalFunction(num, den))
            entries.append(row)
        N = RationalFunctionMatrix.from_rows(entries)
        omega = realize(N)
        rnd = np.random.default_rng(42)
        for _ in range(20):
            s0 = complex(rnd.uniform(0.3, 3.0), rnd.uniform(-3.0, 3.0))
            exact = np.array(support.rational_matrix_at(N, s0), dtype=complex)
            got = transfer_of(omega, s0)
            scale = 1.0 + np.max(np.abs(exact))
            assert np.max(np.abs(exact - got)) / scale < 1e-9

    def test_improper_rejected(self):
        N = RationalFunctionMatrix.from_rows([[rf((0, 0, 1), (1, 1))]])
        with pytest.raises(RealizationError):
            realize(N)

    def test_unstable_rejected(self):
        N = RationalFunctionMatrix.from_rows([[rf((1,), (-1, 1))]])
        with pytest.raises(RealizationError):
            realize(N)

    def test_realized_dynamics_stable(self, rng):
        N = RationalFunctionMatrix.from_rows([[rf((1, 1), (2, 3, 1))]])
        omega = realize(N)
        assert max(np.linalg.eigvals(omega.G).real) < 0

    def test_column_mixing_static_and_dynamic_entries(self):
        N = RationalFunctionMatrix.from_rows([
            [rf((1,))],
            [rf((1,), (1, 1))],
        ])
        omega = realize(N)
        assert omega.order == 1
        for s0 in (0.7 + 0.3j, 2.0 - 1.0j):
            exact = np.array(support.rational_matrix_at(N, s0), dtype=complex)
            got = transfer_of(omega, s0)
            assert np.max(np.abs(exact - got)) < 1e-12


# (times, values, the message that rejects them)
MALFORMED_TABLES = [
    ((2.0, 0.0), ((0.0,), (1.0,)), "strictly increasing"),
    ((0.0, 0.0), ((0.0,), (1.0,)), "strictly increasing"),
    ((0.0, 1.0), ((0.0,), (1.0, 2.0)), "differ in length"),
    ((0.0, 1.0, 2.0), ((0.0,), (1.0,)), "3 times but 2 rows"),
]


class TestSimulate:
    def test_static_observer_tracks_exactly(self):
        sys = support.stable_pair()
        omega = StateSpaceRealization.static_gain([[1, 0]])
        traj = simulate(sys, omega, Scenario((1.0, -2.0), (), horizon=3.0))
        assert float(np.max(np.abs(traj.e))) == 0.0
        metric = convergence_metric(traj)
        assert metric.decayed and metric.final_sup == 0.0

    def test_zero_input_stable_cascade_decays(self):
        sys = SystemSextuple.from_lists(A=[[-1]], B=[[1]], C=[[1]], D=[[0]],
                                        E=[[1]], F=[[0]])
        N = RationalFunctionMatrix.from_rows([[rf((1,), (1, 1))]])
        omega = realize(N)
        traj = simulate(sys, omega, Scenario((1.0,), (0.0,), horizon=25.0))
        tail = traj.t >= 0.9 * 25.0
        assert float(np.max(np.abs(traj.e[tail]))) < 1e-6

    def test_exponential_decay_closed_form(self):
        sys = SystemSextuple.from_lists(A=[[-1]], C=[[1]], E=[[1]], m=0)
        omega = StateSpaceRealization.static_gain([[0.0]])
        traj = simulate(sys, omega, Scenario((1.0,), (), horizon=20.0))
        metric = convergence_metric(traj)
        assert metric.final_sup < 2e-8
        # matches exp(-t) pointwise
        assert abs(traj.e[-1, 0] - math.exp(-20.0)) < 1e-12

    def test_no_target_channel_has_decayed(self):
        # q = 0: the error has no columns, and its sup is the empty max
        sys = SystemSextuple.from_lists(A=[[1]], C=[[1]], E=[], m=0)
        omega = StateSpaceRealization.static_gain(np.zeros((0, 1)))
        traj = simulate(sys, omega, Scenario((1.0,), (), horizon=2.0))
        assert traj.e.shape == (len(traj.t), 0)
        metric = convergence_metric(traj)
        assert metric.final_sup == 0.0 and metric.decayed

    def test_rk4_accuracy_against_exact_solution(self):
        sys = SystemSextuple.from_lists(A=[[-2]], B=[[1]], C=[[1]], D=[[0]],
                                        E=[[1]], F=[[0]])
        omega = StateSpaceRealization.static_gain([[0.0]])
        sc = Scenario(x0=(0.0,), xi0=(), horizon=5.0, step=1e-3,
                      input_signal=InputSignal("constant", value=(1.0,)))
        traj = simulate(sys, omega, sc)
        exact = 0.5 * (1.0 - np.exp(-2.0 * traj.t))
        assert float(np.max(np.abs(traj.x[:, 0] - exact))) < 1e-10

    def test_polynomial_and_sinusoid_inputs(self):
        sys = SystemSextuple.from_lists(A=[[0]], B=[[1]], C=[[1]], D=[[0]],
                                        E=[[1]], F=[[0]])
        omega = StateSpaceRealization.static_gain([[0.0]])
        sc = Scenario(x0=(0.0,), xi0=(), horizon=2.0, step=1e-3,
                      input_signal=InputSignal("polynomial", coefficients=((0.0, 2.0),)))
        traj = simulate(sys, omega, sc)  # integral of 2t is t^2
        assert abs(traj.x[-1, 0] - 4.0) < 1e-9
        sc2 = Scenario(x0=(0.0,), xi0=(), horizon=2.0, step=1e-3,
                       input_signal=InputSignal("sinusoids", terms=(((1.0, 1.0, 0.0),),)))
        traj2 = simulate(sys, omega, sc2)  # integral of sin t
        assert abs(traj2.x[-1, 0] - (1.0 - math.cos(2.0))) < 1e-9

    def test_table_input_interpolates(self):
        sys = SystemSextuple.from_lists(A=[[0]], B=[[1]], C=[[1]], D=[[0]],
                                        E=[[1]], F=[[0]])
        omega = StateSpaceRealization.static_gain([[0.0]])
        sig = InputSignal("table", times=(0.0, 1.0, 2.0),
                          values=((0.0,), (1.0,), (0.0,)))
        sc = Scenario(x0=(0.0,), xi0=(), horizon=2.0, step=1e-3, input_signal=sig)
        traj = simulate(sys, omega, sc)  # area of the triangle is 1
        assert abs(traj.x[-1, 0] - 1.0) < 1e-9

    @pytest.mark.parametrize("times, values, message", MALFORMED_TABLES)
    def test_malformed_table_rejected(self, times, values, message):
        with pytest.raises(ValueError, match=message):
            InputSignal("table", times=times, values=values)

    def test_dimension_checks(self):
        sys = support.stable_pair()
        omega = StateSpaceRealization.static_gain([[1, 0]])
        with pytest.raises(ValueError):
            simulate(sys, omega, Scenario((1.0,), (), horizon=1.0))

    def test_step_halving_consistency(self):
        sys = SystemSextuple.from_lists(A=[[-1]], B=[[1]], C=[[1]], D=[[0]],
                                        E=[[1]], F=[[0]])
        omega = StateSpaceRealization.static_gain([[0.5]])
        sc = Scenario(x0=(1.0,), xi0=(), horizon=8.0, step=2e-3,
                      input_signal=InputSignal("sinusoids", terms=(((0.3, 2.0, 0.1),),)))
        m1 = convergence_metric(simulate(sys, omega, sc), threshold=1e9)
        sc2 = Scenario(x0=(1.0,), xi0=(), horizon=8.0, step=1e-3,
                       input_signal=sc.input_signal)
        m2 = convergence_metric(simulate(sys, omega, sc2), threshold=1e9)
        assert abs(m1.final_sup - m2.final_sup) <= 0.01 * max(m1.final_sup, 1e-12)

    @pytest.mark.parametrize("horizon, step, samples", [
        (1.0, 0.4, 4),       # round(horizon / step) steps would stop at t = 0.8
        (1.0, 0.3, 5),
        (2.5, 1.0, 4),
        (0.7, 0.1, 8),       # 0.7 / 0.1 rounds to 6.999999999999999
        (40.0, 0.01, 4001),  # the exact multiples of the bundled and benchmark runs
        (40.0, 0.005, 8001),
        (10.0, 0.002, 5001),
    ])
    def test_last_sample_reaches_the_horizon(self, horizon, step, samples):
        sys = SystemSextuple.from_lists(A=[[-1]], C=[[1]], E=[[1]], m=0)
        omega = StateSpaceRealization.static_gain([[0.0]])
        traj = simulate(sys, omega, Scenario((1.0,), (), horizon=horizon, step=step))
        assert len(traj.t) == samples
        assert horizon <= traj.t[-1] < horizon + step

    @pytest.mark.parametrize("a, x0, t", [
        # h * a = -10: each RK4 step multiplies the state by 291, so it first
        # exceeds 1e12 after five steps and later overflows
        (-10000, 1.0, "0.005"),
        (-1, math.nan, "0.001"),
    ])
    def test_blow_up_reports_first_bad_step(self, a, x0, t):
        sys = SystemSextuple.from_lists(A=[[a]], C=[[1]], E=[[1]], m=0)
        omega = StateSpaceRealization.static_gain([[0.0]])
        sc = Scenario((x0,), (), horizon=1.0, step=1e-3)
        with pytest.raises(StepInstabilityError, match=rf"exceeded 1e\+12 at t = {t};"):
            simulate(sys, omega, sc)


TWO_CHANNEL_SIGNALS = [
    InputSignal("zero"),
    InputSignal("constant", value=(1.5, -0.5)),
    InputSignal("polynomial", coefficients=((0.5, 0.2, -0.03), (1.0,))),
    InputSignal("sinusoids", terms=(((1.0, 2.0, 0.3), (0.4, 5.0, -1.0)), ())),
    InputSignal("table", times=(0.0, 0.7, 1.5, 3.0),
                values=((0.0, 1.0), (1.0, -1.0), (-0.5, 0.0), (2.0, 2.0))),
]


class TestAgainstStagewiseRK4:
    """The precomputed affine step against the stage-by-stage RK4 loop and
    array sampling against scalar evaluation (support.ref_rk4, ref_input)."""

    @pytest.mark.parametrize("signal", TWO_CHANNEL_SIGNALS, ids=lambda s: s.kind)
    def test_sample_matches_scalar_evaluation(self, signal):
        # the grid covers the table knots and runs past its last one
        t = np.concatenate([np.linspace(0.0, 3.5, 57), [0.7, 1.5, 3.0, 10.0]])
        got = signal.sample(t, 2)
        want = np.array([support.ref_input(signal, ti, 2) for ti in t])
        assert got.shape == (len(t), 2)
        if signal.kind == "sinusoids":  # np.sin and math.sin may differ in the last bit
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("signal", TWO_CHANNEL_SIGNALS, ids=lambda s: s.kind)
    def test_simulate_matches_stagewise_rk4(self, rng, signal):
        n, m, p, q, nu = 3, 2, 2, 1, 2
        nrng = np.random.default_rng(rng.randint(0, 2**32))

        def ints(r, c):
            return [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)]

        for _ in range(3):
            # diagonal at most -5, off-diagonal row sums at most 4: Hurwitz
            A = [[a - 7 * (i == j) for j, a in enumerate(row)] for i, row in enumerate(ints(n, n))]
            sys = SystemSextuple.from_lists(A=A, B=ints(n, m), C=ints(p, n), D=ints(p, m),
                                            E=ints(q, n), F=ints(q, m))
            omega = StateSpaceRealization(nrng.uniform(-1, 1, (nu, nu)) - 3 * np.eye(nu),
                                          nrng.uniform(-1, 1, (nu, p)),
                                          nrng.uniform(-1, 1, (q, nu)),
                                          nrng.uniform(-1, 1, (q, p)))
            x0 = tuple(nrng.uniform(-2, 2, n))
            xi0 = tuple(nrng.uniform(-2, 2, nu))
            sc = Scenario(x0=x0, xi0=xi0, input_signal=signal, horizon=3.0, step=1e-2)
            traj = simulate(sys, omega, sc)

            Af, Bf, Cf, Df = (np.array(M, dtype=float)
                              for M in (A, sys.B.data, sys.C.data, sys.D.data))
            Ac = np.block([[Af, np.zeros((n, nu))], [omega.H @ Cf, omega.G]])
            Bc = np.vstack([Bf, omega.H @ Df])
            ref = support.ref_rk4(Ac, Bc, lambda t: support.ref_input(signal, t, m),
                                  x0 + xi0, sc.step, 300)
            scale = max(1.0, float(np.max(np.abs(ref))))
            got = np.hstack([traj.x, traj.xi])
            assert got.shape == ref.shape
            assert float(np.max(np.abs(got - ref))) <= 1e-9 * scale
            assert np.allclose(traj.t, sc.step * np.arange(301), rtol=0, atol=1e-12)


def loop_rk4(A, B, h, w0, u_half):
    """rk4_linear with the recurrence run step by step (support.ref_recurrence)."""
    T, S0, S_half, S1 = _rk4_step_map(A, B, h)
    w = np.empty(((len(u_half) - 1) // 2 + 1, A.shape[0]))
    w[0] = w0
    w[1:] = u_half[:-1:2] @ S0.T + u_half[1::2] @ S_half.T + u_half[2::2] @ S1.T
    support.ref_recurrence(T, w)
    return w


def assert_matches_loop(got, ref):
    # per state, relative to the larger of 1 and its largest component
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=1))
    assert got.shape == ref.shape
    assert np.all(np.max(np.abs(got - ref), axis=1) <= 1e-12 * scale)


class TestBlockedScan:
    """The doubling scan in rk4_linear, run over row blocks, against the
    step-by-step loop."""

    @pytest.mark.parametrize("nsteps", [0, 1, 2, 3, 15, 16, 17, 99, 100, 101, 1009,
                                        255, 256, 257, 4095, 4096, 4097])
    @pytest.mark.parametrize("kind", ["stable", "marginal", "unstable"])
    def test_matches_step_by_step_recurrence(self, nsteps, kind):
        nrng = np.random.default_rng(nsteps)
        for d in (1, 2, 6):
            if kind == "stable":
                A = nrng.uniform(-0.5, 0.5, (d, d)) - 2.0 * np.eye(d)
            elif kind == "marginal":  # integrator chain
                A = np.eye(d, k=-1)
            else:  # trace > 0, so a mode grows; real parts <= 2 (Gershgorin): no blow-up by t = 5
                A = nrng.uniform(-0.25, 0.25, (d, d)) + 0.5 * np.eye(d)
            B = nrng.uniform(-1, 1, (d, 2))
            u_half = nrng.uniform(-1, 1, (2 * nsteps + 1, 2))
            w0 = nrng.uniform(-1, 1, d)
            assert_matches_loop(rk4_linear(A, B, 5e-3, w0, u_half),
                                loop_rk4(A, B, 5e-3, w0, u_half))

    def test_zero_state_stays_zero_under_step_unstable_mode(self):
        # h * a = -1000: T = 4.1e10 and T^32 overflows, so doubling stops at
        # T^16 and chains windows of 16 steps; an unguarded pass would meet
        # inf * 0
        T = _rk4_step_map(np.array([[-1e6]]), np.zeros((1, 0)), 1e-3)[0]
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.linalg.matrix_power(T, 32)).all()
        sys = SystemSextuple.from_lists(A=[[-10**6]], C=[[1]], E=[[1]], m=0)
        omega = StateSpaceRealization.static_gain([[0.0]])
        traj = simulate(sys, omega, Scenario((0.0,), (), horizon=1.0, step=1e-3))
        assert len(traj.t) == 1001 and not traj.x.any()

    def test_unexcited_step_unstable_mode_matches_loop(self):
        A = np.diag([-1e6, -1.0])
        B, u_half = np.zeros((2, 0)), np.zeros((2001, 0))
        got = rk4_linear(A, B, 1e-3, (0.0, 1.0), u_half)
        assert not got[:, 0].any()
        assert_matches_loop(got, loop_rk4(A, B, 1e-3, (0.0, 1.0), u_half))

    @pytest.mark.parametrize("block", [4, 8])
    @pytest.mark.parametrize("huge", [False, True], ids=["finite-powers", "overflowing-power"])
    def test_small_blocks_match_step_by_step_recurrence(self, monkeypatch, block, huge):
        # every doubling pass spans several backward blocks.  Doubling stops
        # at s = block, or, with a zero-state mode of 1e40 and block 8, at
        # s = 4 because T^8 overflows; s-step windows are then chained
        monkeypatch.setattr(sim, "_SCAN_BLOCK", block)
        nrng = np.random.default_rng(block)
        T = np.eye(3) + 0.05 * nrng.uniform(-1, 1, (3, 3))
        if huge:
            T = np.block([[np.full((1, 1), 1e40), np.zeros((1, 3))], [np.zeros((3, 1)), T]])
            with np.errstate(over="ignore"):
                assert not np.isfinite(np.linalg.matrix_power(T, 8)).all()
        for nsteps in (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 40, 41):
            w = nrng.uniform(-1, 1, (nsteps + 1, len(T)))
            if huge:
                w[:, 0] = 0.0
            ref = w.copy()
            support.ref_recurrence(T, ref)
            with np.errstate(over="ignore"):  # as in rk4_linear
                sim._affine_scan(T, w)
            assert_matches_loop(w, ref)

    def test_blow_up_in_a_later_chunk_reports_its_step(self):
        # e^(5t) first exceeds 1e12 at step 5527 of 10000, in the second of
        # the 4096-step windows that the scan chains
        sys = SystemSextuple.from_lists(A=[[5]], C=[[1]], E=[[1]], m=0)
        omega = StateSpaceRealization.static_gain([[0.0]])
        sc = Scenario((1.0,), (), horizon=10.0, step=1e-3)
        with pytest.raises(StepInstabilityError, match=r"exceeded 1e\+12 at t = 5\.527;"):
            simulate(sys, omega, sc)


class TestSemanticsLink:
    def test_true_observer_converges_for_random_conditions(self, rng):
        # (s+1)/(s+2) is an exact estimator for the feedthrough demo plant:
        # the estimation error reduces to the homogeneous -x0*exp(-2t) term,
        # so it must decay for every initial state and every input family
        sys = SystemSextuple.from_lists(A=[[-1]], B=[[1]], C=[[1]], D=[[1]],
                                        E=[[0]], F=[[1]])
        N = RationalFunctionMatrix.from_rows([[rf((1, 1), (2, 1))]])
        omega = realize(N)
        signals = [
            InputSignal("zero"),
            InputSignal("constant", value=(1.5,)),
            InputSignal("sinusoids", terms=(((1.0, 2.0, 0.3),),)),
            InputSignal("polynomial", coefficients=((0.5, 0.2),)),
        ]
        for k in range(24):
            sc = Scenario(x0=(rng.uniform(-3, 3),), xi0=(rng.uniform(-3, 3),),
                          input_signal=signals[k % len(signals)],
                          horizon=12.0, step=1e-3)
            metric = convergence_metric(simulate(sys, omega, sc))
            assert metric.decayed

    def test_exact_static_observer_for_random_conditions(self, rng):
        sys = support.stable_pair()
        omega = StateSpaceRealization.static_gain([[1, 0]])
        for _ in range(20):
            sc = Scenario((rng.uniform(-5, 5), rng.uniform(-5, 5)), (), horizon=2.0)
            metric = convergence_metric(simulate(sys, omega, sc))
            assert metric.decayed and metric.final_sup == 0.0


class TestConvergenceMetric:
    def test_zero_error(self):
        sys = support.stable_pair()
        omega = StateSpaceRealization.static_gain([[1, 0]])
        traj = simulate(sys, omega, Scenario((3.0, 1.0), (), horizon=1.0))
        m = convergence_metric(traj)
        assert m.decayed and m.final_sup == 0.0

    def test_constant_error(self):
        sys = SystemSextuple.from_lists(A=[[0]], C=[[1]], E=[[1]], m=0)
        omega = StateSpaceRealization.static_gain([[0.0]])
        traj = simulate(sys, omega, Scenario((1.0,), (), horizon=2.0))
        m = convergence_metric(traj)
        assert not m.decayed and abs(m.final_sup - 1.0) < 1e-12


class TestScenarioHelpers:
    def test_fading_output_scenario_consistency(self):
        sc = fading_output_scenario(horizon=5.0, step=1e-2, table_step=1e-3)
        # the initial state reproduces y(1) and y'(1) of sin(t^2)/t
        y0 = math.sin(1.0)
        got = sc.x0[0] + sc.x0[1]
        assert abs(got - y0) < 1e-12

    def test_fading_table_labels_its_integration_grid(self):
        # 1.0005 is not a multiple of the table step: the labels must still
        # be k * table_step, the times at which u was integrated
        sc = fading_output_scenario(horizon=1.0005, step=1e-2, table_step=1e-3)
        times = sc.input_signal.times
        assert np.array_equal(times, [k * 1e-3 for k in range(len(times))])
        # and the values are u' + u = y'' from u(0) = 0 at those times
        ref = support.ref_rk4(np.array([[-1.0]]), np.array([[1.0]]),
                              lambda t: np.array([_yddot(1.0 + t)]), (0.0,),
                              1e-3, len(times) - 1)
        got = np.array(sc.input_signal.values)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_blockwise_yddot_matches_scalar(self):
        # the half-step grid of horizon 2.5 at table step 1e-3: 5001 points,
        # two full blocks and a partial one
        npoints = 2 * (int(round(2.5 / 1e-3)) + 1) - 1
        assert npoints > 2 * _YDDOT_BLOCK and npoints % _YDDOT_BLOCK != 0
        got = _yddot_grid(npoints, 5e-4)[:, 0]
        want = np.array([_yddot(1.0 + j * 5e-4) for j in range(npoints)])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_suggested_horizon_stable(self):
        sys = SystemSextuple.from_lists(A=[[-1]], B=[[1]], C=[[1]], D=[[0]],
                                        E=[[1]], F=[[0]])
        omega = StateSpaceRealization.static_gain([[0.0]])
        h = suggested_horizon(sys, omega)
        assert 1.0 <= h <= 500.0

    def test_suggested_horizon_oscillatory_plant(self):
        # eigenvalues -1 +- 10i: ten time constants of Re = -1
        sys = SystemSextuple.from_lists(A=[[-1, 10], [-10, -1]], C=[[1, 0]], m=0)
        omega = StateSpaceRealization.static_gain(np.zeros((0, 1)))
        assert suggested_horizon(sys, omega) == 10.0

    def test_suggested_horizon_rejects_mismatched_observer(self):
        omega = StateSpaceRealization.static_gain([[1.0]])
        with pytest.raises(ValueError, match="observer block R"):
            suggested_horizon(support.stable_pair(), omega)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(x0=(), xi0=(), horizon=1.0, step=0.0)
        with pytest.raises(ValueError):
            Scenario(x0=(), xi0=(), horizon=0.5, step=1.0)

    @pytest.mark.parametrize("field, value", [("step", math.nan), ("step", math.inf),
                                              ("horizon", math.nan), ("horizon", math.inf)])
    def test_scenario_rejects_non_finite(self, field, value):
        kwargs = {"horizon": 1.0, "step": 1e-3, field: value}
        with pytest.raises(ValueError, match=f"^{field} must"):
            Scenario(x0=(), xi0=(), **kwargs)

    # Building a Scenario allocates nothing, so these values are safe to try.
    @pytest.mark.parametrize("horizon, step", [(1e15, 1.0), (MAX_STEPS + 1.0, 1.0),
                                               (1e308, 5e-324)])
    def test_scenario_caps_the_step_count(self, horizon, step):
        with pytest.raises(ValueError, match=r"^horizon / step must be at most 10000000 steps"):
            Scenario(x0=(), xi0=(), horizon=horizon, step=step)

    def test_step_cap_is_inclusive(self):
        assert Scenario(x0=(), xi0=(), horizon=float(MAX_STEPS), step=1.0).horizon == MAX_STEPS


# the fading case the simulate benchmark builds and replays
FADING = {"horizon": 40.0, "step": 1e-2, "table_step": 1e-3}


class TestTableStorage:
    """A table holds its knots and rows as read-only float64 arrays,
    converted once; the fading scenario built on them matches the route
    that built tuples of Python floats (support.ref_fading_document)."""

    def test_fading_table_arrays_are_read_only_float64(self):
        sig = fading_output_scenario(horizon=1.0005, step=1e-2, table_step=1e-3).input_signal
        assert sig.times.dtype == sig.values.dtype == np.float64
        assert sig.times.shape == (1001,) and sig.values.shape == (1001, 1)
        assert not sig.times.flags.writeable and not sig.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sig.times[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            sig.values[0, 0] = 1.0

    def test_caller_array_is_copied(self):
        times, values = np.array([0.0, 1.0]), np.array([[1.0], [2.0]])
        sig = InputSignal("table", times=times, values=values)
        times[0] = values[0, 0] = -5.0  # the caller's arrays stay writable and unshared
        assert sig.times[0] == 0.0 and sig.values[0, 0] == 1.0

    def test_tuples_and_arrays_compare_and_hash_equal(self):
        from_tuples = InputSignal("table", times=(0.0, 0.5, 2.0),
                                  values=((1.0, -1.0), (2.0, 0.0), (0.5, 3.0)))
        from_arrays = InputSignal("table", times=np.array([0.0, 0.5, 2.0]),
                                  values=np.array([[1.0, -1.0], [2.0, 0.0], [0.5, 3.0]]))
        assert from_tuples == from_arrays and hash(from_tuples) == hash(from_arrays)
        sc = Scenario(x0=(1.0,), xi0=(), input_signal=from_tuples)
        assert sc == Scenario(x0=(1.0,), xi0=(), input_signal=from_arrays)
        assert hash(sc) == hash(Scenario(x0=(1.0,), xi0=(), input_signal=from_arrays))
        changed = InputSignal("table", times=(0.0, 0.5, 2.0),
                              values=((1.0, -1.0), (2.0, 0.0), (0.5, 3.5)))
        assert from_tuples != changed
        assert from_tuples != InputSignal("table", times=(0.0, 0.5, 2.5),
                                          values=((1.0, -1.0), (2.0, 0.0), (0.5, 3.0)))
        assert from_tuples != InputSignal("zero")

    @pytest.mark.parametrize("kind, field, tuples, given", [
        ("constant", "value", (1.0, 2.0), [np.array([1.0, 2.0]), [1, 2], (1, 2.0)]),
        ("polynomial", "coefficients", ((1.0, 0.5), (2.0,)),
         [[np.array([1.0, 0.5]), [2]], [[1, 0.5], (2.0,)]]),
        ("sinusoids", "terms", (((1.0, 2.0, 0.0),), ()),
         [[np.array([[1, 2, 0]]), []], [[[1, 2, 0]], ()]]),
    ])
    def test_other_fields_compare_and_hash_equal(self, kind, field, tuples, given):
        want = InputSignal(kind, **{field: tuples})
        doc = json.dumps(support.scenario_document(Scenario((), (), want)))
        for raw in given:
            sig = InputSignal(kind, **{field: raw})
            assert sig == want and hash(sig) == hash(want)
            assert getattr(sig, field) == tuples
            assert json.dumps(support.scenario_document(Scenario((), (), sig))) == doc

    @pytest.mark.parametrize("times, values, shape", [
        ((), (), (0, 0)),                       # an empty table
        ((0.0, 1.0), ((), ()), (2, 0)),         # zero-width rows
        ((1.0,), ((2.0, -1.0),), (1, 2)),       # a single knot
        ((0.0, 1.0, 3.0), ((0.0, 1.0), (1.0, -1.0), (3.0, 0.0)), (3, 2)),  # two channels
    ], ids=["empty", "zero-width", "single-knot", "two-channels"])
    def test_edge_shapes(self, times, values, shape):
        sig = InputSignal("table", times=times, values=values)
        assert sig.values.shape == shape and sig.times.shape == (shape[0],)
        assert sig.channels(shape[1]) == shape[1]
        assert sig.sample(np.array([-1.0, 0.0, 0.5, 5.0]), shape[1]).shape == (4, shape[1])

    def test_single_knot_holds_its_row(self):
        sig = InputSignal("table", times=(1.0,), values=((2.0, -1.0),))
        assert np.array_equal(sig.sample([-3.0, 1.0, 7.0], 2), [[2.0, -1.0]] * 3)

    @pytest.mark.parametrize("times, values, message", MALFORMED_TABLES)
    def test_malformed_table_of_arrays_rejected(self, times, values, message):
        with pytest.raises(ValueError, match=message):
            InputSignal("table", times=np.array(times), values=[np.array(row) for row in values])

    @pytest.mark.parametrize("values", [(0.0, 1.0), np.array([0.0, 1.0]),
                                        np.zeros((2, 1, 1))], ids=["tuple", "array", "3-d"])
    def test_rows_must_be_arrays_of_numbers(self, values):
        with pytest.raises(ValueError, match="one row of numbers per time"):
            InputSignal("table", times=(0.0, 1.0), values=values)

    def test_times_must_be_flat(self):
        with pytest.raises(ValueError, match="times must be an array of numbers"):
            InputSignal("table", times=((0.0,), (1.0,)), values=((0.0,), (1.0,)))

    @pytest.mark.parametrize("kind, field, given", [
        ("zero", "value", (2.0,)),
        ("constant", "times", (0.0,)),
        ("polynomial", "terms", (((1.0, 1.0, 0.0),),)),
        ("sinusoids", "coefficients", ((1.0,),)),
        ("table", "value", (1.0,)),
        ("zero", "values", np.zeros((1, 1))),
    ])
    def test_field_the_kind_does_not_carry_rejected(self, kind, field, given):
        with pytest.raises(ValueError, match=f"input kind '{kind}' carries no field '{field}'"):
            InputSignal(kind, **{field: given})

    def test_fading_table_matches_tuple_route(self):
        sc = fading_output_scenario(**FADING)
        doc = support.ref_fading_document(**FADING)
        assert list(sc.x0) == doc["x0"]
        assert sc.input_signal.times.tolist() == doc["input"]["times"]
        assert sc.input_signal.values.tolist() == doc["input"]["values"]
        assert json.dumps(support.scenario_document(sc)) == json.dumps(doc)

    def test_fading_sampling_matches_tuple_knots(self):
        sig = fading_output_scenario(**FADING).input_signal
        doc = support.ref_fading_document(**FADING)["input"]
        t = np.arange(2 * 4000 + 1) * (FADING["step"] / 2)
        want = np.interp(t, tuple(doc["times"]), np.asarray(doc["values"], dtype=float)[:, 0])
        assert np.array_equal(sig.sample(t, 1)[:, 0], want)

    @pytest.mark.parametrize("divisor", [1, 2])
    def test_fading_trajectory_matches_tuple_route(self, divisor):
        sys = support.integrator_chain()
        omega = StateSpaceRealization.static_gain([[0.0]])
        sc = fading_output_scenario(**FADING)
        ref = parse_scenario_document(support.ref_fading_document(**FADING))
        got, want = (simulate(sys, omega, Scenario(s.x0, s.xi0, s.input_signal, s.horizon,
                                                   s.step / divisor))
                     for s in (sc, ref))
        for name in ("t", "x", "e"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


_finite = st.floats(allow_nan=False, allow_infinity=False)


def _per_channel(entry):
    """Up to three channels, none included."""
    return st.lists(entry, max_size=3).map(tuple)


@st.composite
def _table_signals(draw):
    times = tuple(sorted(draw(st.lists(_finite, max_size=5, unique=True))))
    row = st.tuples(*[_finite] * draw(st.integers(0, 3)))
    return InputSignal("table", times=times, values=tuple(draw(row) for _ in times))


SIGNALS = {
    "zero": st.just(InputSignal("zero")),
    "constant": _per_channel(_finite).map(lambda v: InputSignal("constant", value=v)),
    "polynomial": _per_channel(_per_channel(_finite)).map(
        lambda c: InputSignal("polynomial", coefficients=c)),
    "sinusoids": _per_channel(_per_channel(st.tuples(_finite, _finite, _finite))).map(
        lambda t: InputSignal("sinusoids", terms=t)),
    "table": _table_signals(),
}


@st.composite
def _scenarios(draw, kind: str):
    step = draw(st.floats(1e-3, 1.0))
    return Scenario(x0=draw(_per_channel(_finite)), xi0=draw(_per_channel(_finite)),
                    input_signal=draw(SIGNALS[kind]),
                    horizon=step * draw(st.floats(1.0, 1e3)), step=step)


class TestScenarioDocuments:
    def test_every_input_kind_is_generated(self):
        assert set(SIGNALS) == set(INPUT_FIELDS)

    @pytest.mark.parametrize("kind", list(INPUT_FIELDS))
    @given(data=st.data())
    def test_json_round_trip(self, kind, data):
        sc = data.draw(_scenarios(kind))
        doc = json.loads(json.dumps(support.scenario_document(sc)))
        assert set(doc["input"]) == {"kind", *INPUT_FIELDS[kind]}
        assert parse_scenario_document(doc) == sc

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown input kind 'ramp'"):
            InputSignal("ramp")

    def test_sinusoid_term_is_a_triple(self):
        with pytest.raises(ValueError, match="amplitude, frequency, phase"):
            InputSignal("sinusoids", terms=(((1.0, 2.0),),))


class TestCsvExport:
    def test_header_and_roundtrip(self, tmp_path):
        sys = SystemSextuple.from_lists(A=[[-1]], B=[[1]], C=[[1]], D=[[0]],
                                        E=[[1]], F=[[0]])
        N = RationalFunctionMatrix.from_rows([[rf((1,), (1, 1))]])
        omega = realize(N)
        traj = simulate(sys, omega, Scenario((1.0,), (0.0,), horizon=1.0, step=0.1))
        path = tmp_path / "traj.csv"
        write_csv(traj, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x_1", "xi_1", "z_1", "zhat_1", "e_1"]
        assert len(rows) == len(traj.t) + 1
        k = len(rows) // 2
        parsed = [float(v) for v in rows[k]]
        assert parsed[0] == pytest.approx(traj.t[k - 1])
        assert parsed[-1] == pytest.approx(traj.e[k - 1, 0])

    @pytest.mark.parametrize("xi0", [(), (0.5, -0.25, 1.0)])
    def test_bytes_match_row_by_row_formatting(self, tmp_path, xi0):
        sys = support.stable_pair()
        if xi0:
            N = RationalFunctionMatrix.from_rows([[rf((1,), (1, 1)), rf((1,), (2, 3, 1))]])
            omega = realize(N)
        else:
            omega = StateSpaceRealization.static_gain([[0.5, 0.25]])
        assert omega.order == len(xi0)
        traj = simulate(sys, omega, Scenario((1.0, -2.0), xi0, horizon=2.0, step=0.01))
        write_csv(traj, tmp_path / "got.csv")
        support.ref_write_csv(traj, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
