import csv
import math

import numpy as np
import pytest

from funcobs.polymat import Poly
from funcobs.scenarios import _yddot, fading_output_scenario, zero_input_scenario
from funcobs.sim import (InputSignal, RealizationError, Scenario,
                         StateSpaceRealization, StepInstabilityError,
                         convergence_metric, realize, simulate,
                         suggested_horizon, write_csv)
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
            exact = np.array(N.evaluate(s0), dtype=complex)
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
            exact = np.array(N.evaluate(s0), dtype=complex)
            got = transfer_of(omega, s0)
            assert np.max(np.abs(exact - got)) < 1e-12


class TestSimulate:
    def test_static_observer_tracks_exactly(self):
        sys = support.stable_pair()
        omega = StateSpaceRealization.static_gain([[1, 0]])
        traj = simulate(sys, omega, zero_input_scenario([1.0, -2.0], horizon=3.0))
        assert float(np.max(np.abs(traj.e))) == 0.0
        metric = convergence_metric(traj)
        assert metric.decayed and metric.final_sup == 0.0

    def test_zero_input_stable_cascade_decays(self):
        sys = SystemSextuple.from_lists(A=[[-1]], B=[[1]], C=[[1]], D=[[0]],
                                        E=[[1]], F=[[0]])
        N = RationalFunctionMatrix.from_rows([[rf((1,), (1, 1))]])
        omega = realize(N)
        traj = simulate(sys, omega, zero_input_scenario([1.0], xi0=[0.0], horizon=25.0))
        tail = traj.t >= 0.9 * 25.0
        assert float(np.max(np.abs(traj.e[tail]))) < 1e-6

    def test_exponential_decay_closed_form(self):
        sys = SystemSextuple.from_lists(A=[[-1]], C=[[1]], E=[[1]], m=0)
        omega = StateSpaceRealization.static_gain([[0.0]])
        traj = simulate(sys, omega, zero_input_scenario([1.0], horizon=20.0))
        metric = convergence_metric(traj)
        assert metric.final_sup < 2e-8
        # matches exp(-t) pointwise
        assert abs(traj.e[-1, 0] - math.exp(-20.0)) < 1e-12

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

    @pytest.mark.parametrize("times, values, message", [
        ((2.0, 0.0), ((0.0,), (1.0,)), "strictly increasing"),
        ((0.0, 0.0), ((0.0,), (1.0,)), "strictly increasing"),
        ((0.0, 1.0), ((0.0,), (1.0, 2.0)), "differ in length"),
        ((0.0, 1.0, 2.0), ((0.0,), (1.0,)), "3 times but 2 rows"),
    ])
    def test_malformed_table_rejected(self, times, values, message):
        with pytest.raises(ValueError, match=message):
            InputSignal("table", times=times, values=values)

    def test_dimension_checks(self):
        sys = support.stable_pair()
        omega = StateSpaceRealization.static_gain([[1, 0]])
        with pytest.raises(ValueError):
            simulate(sys, omega, zero_input_scenario([1.0], horizon=1.0))

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

    @pytest.mark.parametrize("a, x0, t", [
        # h * a = -10: each RK4 step multiplies the state by 291, so it first
        # exceeds 1e12 after five steps and later overflows
        (-10000, 1.0, "0.005"),
        (-1, math.nan, "0.001"),
    ])
    def test_blow_up_reports_first_bad_step(self, a, x0, t):
        sys = SystemSextuple.from_lists(A=[[a]], C=[[1]], E=[[1]], m=0)
        omega = StateSpaceRealization.static_gain([[0.0]])
        sc = zero_input_scenario([x0], horizon=1.0, step=1e-3)
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
            sc = zero_input_scenario([rng.uniform(-5, 5), rng.uniform(-5, 5)],
                                     horizon=2.0)
            metric = convergence_metric(simulate(sys, omega, sc))
            assert metric.decayed and metric.final_sup == 0.0


class TestConvergenceMetric:
    def test_zero_error(self):
        sys = support.stable_pair()
        omega = StateSpaceRealization.static_gain([[1, 0]])
        traj = simulate(sys, omega, zero_input_scenario([3.0, 1.0], horizon=1.0))
        m = convergence_metric(traj)
        assert m.decayed and m.final_sup == 0.0

    def test_constant_error(self):
        sys = SystemSextuple.from_lists(A=[[0]], C=[[1]], E=[[1]], m=0)
        omega = StateSpaceRealization.static_gain([[0.0]])
        traj = simulate(sys, omega, zero_input_scenario([1.0], horizon=2.0))
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
        assert times == tuple(k * 1e-3 for k in range(len(times)))
        # and the values are u' + u = y'' from u(0) = 0 at those times
        ref = support.ref_rk4(np.array([[-1.0]]), np.array([[1.0]]),
                              lambda t: np.array([_yddot(1.0 + t)]), (0.0,),
                              1e-3, len(times) - 1)
        got = np.array(sc.input_signal.values)
        assert np.max(np.abs(got - ref)) < 1e-10

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


class TestCsvExport:
    def test_header_and_roundtrip(self, tmp_path):
        sys = SystemSextuple.from_lists(A=[[-1]], B=[[1]], C=[[1]], D=[[0]],
                                        E=[[1]], F=[[0]])
        N = RationalFunctionMatrix.from_rows([[rf((1,), (1, 1))]])
        omega = realize(N)
        traj = simulate(sys, omega, zero_input_scenario([1.0], xi0=[0.0],
                                                        horizon=1.0, step=0.1))
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
