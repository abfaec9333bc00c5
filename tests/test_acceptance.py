"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import numpy as np
import pytest

from funcobs import decide
from funcobs.exactlin import QMatrix
from funcobs.markov import kernel_inclusion_upto
from funcobs.polymat import POLY_ONE, Poly, smith_form
from funcobs.scenarios import fading_output_scenario
from funcobs.sim import (Scenario, StateSpaceRealization, convergence_metric,
                         simulate)
from funcobs.stability import is_hurwitz
from funcobs.witness import solve_over_field

import support


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def batch():
    """Shared random batch: 500 systems, n+m <= 6, q <= 2, entries in -2..2."""
    rng = random.Random(20260809)
    return [support.random_system(rng) for _ in range(500)]


def test_criterion_01_feedthrough_gap_verdicts():
    t0 = time.perf_counter()
    sys = support.feedthrough_gap()
    functional = decide.functional_detectable(sys)
    strongly = decide.strongly_functional_detectable(sys)
    cert = strongly.certificate
    elapsed = time.perf_counter() - t0
    ok = (functional.holds and not strongly.holds
          and cert.normrank_p == 2 and cert.normrank_pe == 3
          and elapsed < 1.0)
    report(1, ok, f"functional={functional.holds}, strongly={strongly.holds}, "
                  f"normranks {cert.normrank_p} < {cert.normrank_pe}, {elapsed:.3f}s")


def test_criterion_02_integrator_chain_zero_polynomials():
    t0 = time.perf_counter()
    sys = support.integrator_chain()
    P, EF = support.pencils(sys)
    Pe = support.stack([[P], [EF]])
    (_, zp), (_, zpe) = (support.ref_rank_and_zero_polynomial(P),
                          support.ref_rank_and_zero_polynomial(Pe))
    strongly = decide.strongly_functional_detectable(sys)
    star = decide.strong_star_functional_detectable(sys)
    elapsed = time.perf_counter() - t0
    ok = (zp == Poly([1, 1]) and zpe == POLY_ONE
          and strongly.holds and not star.holds and elapsed < 1.0)
    report(2, ok, f"zp(P)={zp}, zp(P_e)={zpe}, strongly={strongly.holds}, "
                  f"strong_star={star.holds}, {elapsed:.3f}s")


def test_criterion_03_stable_pair_with_exact_observer():
    t0 = time.perf_counter()
    sys = support.stable_pair()
    strongly = decide.strongly_functional_detectable(sys)
    star = decide.strong_star_functional_detectable(sys)
    reachable = star.certificate.inclusion.reachable
    omega = StateSpaceRealization.static_gain([[1, 0]])
    traj = simulate(sys, omega, Scenario(x0=(1.0, -2.0), xi0=(),
                                         horizon=3.0, step=1e-3))
    metric = convergence_metric(traj)
    elapsed = time.perf_counter() - t0
    ok = (strongly.holds and star.holds and reachable.dim == 0
          and metric.final_sup == 0.0 and elapsed < 1.0)
    report(3, ok, f"strongly={strongly.holds}, strong_star={star.holds}, "
                  f"dim(reachable)={reachable.dim}, final_sup={metric.final_sup}, "
                  f"{elapsed:.3f}s")


def test_criterion_04_measured_input_plant():
    t0 = time.perf_counter()
    sys = support.measured_input()
    darouach = decide.darouach_fixed_order(sys)
    toep = kernel_inclusion_upto(sys, sys.n + sys.m)
    wit = solve_over_field(sys)
    elapsed = time.perf_counter() - t0
    ok = (not darouach.certificate.kernel.holds
          and toep.holds
          and wit.solvable_over_field and wit.residual_zero
          and wit.is_proper and not wit.denominator_hurwitz.is_hurwitz
          and elapsed < 1.0)
    report(4, ok, f"kernel_cond={darouach.certificate.kernel.holds}, "
                  f"toeplitz_holds={toep.holds}, witness proper={wit.is_proper} "
                  f"stable={wit.denominator_hurwitz.is_hurwitz}, {elapsed:.3f}s")


def test_criterion_05_unstable_chain_plant():
    t0 = time.perf_counter()
    sys = support.unstable_chain()
    darouach = decide.darouach_fixed_order(sys)
    star = decide.strong_star_functional_detectable(sys)
    elapsed = time.perf_counter() - t0
    ok = (not darouach.certificate.rank_equality.holds and star.holds
          and elapsed < 1.0)
    report(5, ok, f"rank_equality={darouach.certificate.rank_equality.holds}, "
                  f"strong_star={star.holds}, {elapsed:.3f}s")


def test_criterion_06_geometry_matches_toeplitz(batch):
    t0 = time.perf_counter()
    disagreements = 0
    for sys in batch:
        geo = decide.PlantForms(sys).inclusion.holds
        toep = kernel_inclusion_upto(sys, sys.n + sys.m).holds
        if geo != toep:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 60.0
    report(6, ok, f"{len(batch)} systems, {disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_07_specializations_match_general_checks(batch):
    t0 = time.perf_counter()
    disagreements = 0
    for sys in batch:
        n, m = sys.n, sys.m
        state_target = sys.with_target(QMatrix.identity(n), QMatrix.zeros(n, m))
        star = decide.strong_star_functional_detectable(state_target)
        strong_cert = star.certificate.strong
        strong_holds = strong_cert.rank_condition and strong_cert.zero_condition
        if decide.hautus_strong_detectable(sys).holds != strong_holds:
            disagreements += 1
        if decide.hautus_strong_star_detectable(sys).holds != star.holds:
            disagreements += 1
        input_target = sys.with_target(QMatrix.zeros(m, n), QMatrix.identity(m))
        star_i = decide.strong_star_functional_detectable(input_target)
        strong_cert_i = star_i.certificate.strong
        strong_i = strong_cert_i.rank_condition and strong_cert_i.zero_condition
        if decide.asympt_strong_left_invertible(sys).holds != strong_i:
            disagreements += 1
        if decide.asympt_strong_star_left_invertible(sys).holds != star_i.holds:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0
    report(7, ok, f"{len(batch)} systems x 4 equivalences, "
                  f"{disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_08_smith_self_verification():
    t0 = time.perf_counter()
    rng = random.Random(8)
    failures = 0
    for _ in range(500):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        M = support.random_polymatrix(rng, rows, cols, max_degree=2)
        try:
            dec = smith_form(M)  # U P V == S asserted internally
        except AssertionError:
            failures += 1
            continue
        du, dv = support.ref_determinant(dec.U), support.ref_determinant(dec.V)
        if du.degree != 0 or du.is_zero() or dv.degree != 0 or dv.is_zero():
            failures += 1
            continue
        if any(not a.divides(b) for a, b in
               zip(dec.invariant_polys, dec.invariant_polys[1:])):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0
    report(8, ok, f"500 random Smith decompositions, {failures} failures, {elapsed:.1f}s")


def test_criterion_09_hurwitz_oracle_agreement():
    t0 = time.perf_counter()
    rng = random.Random(9)
    checked = disagreements = 0
    while checked < 1000:
        deg = rng.randint(1, 8)
        p = Poly([rng.randint(-9, 9) for _ in range(deg)]
                 + [rng.choice([1, 2, 3, -1, -2, -3])])
        if p.degree < 1:
            continue
        roots = support.numeric_roots(p)
        if any(abs(r.real) < 1e-6 for r in roots):
            continue
        checked += 1
        oracle = bool(all(r.real < 0 for r in roots))
        if is_hurwitz(p).is_hurwitz != oracle:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0
    report(9, ok, f"{checked} polynomials, {disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_10_witness_residuals(batch):
    t0 = time.perf_counter()
    solvable = bad = 0
    for sys in batch:
        rep = solve_over_field(sys)
        P, EF = support.pencils(sys)
        Pe = support.stack([[P], [EF]])
        if rep.solvable_over_field != (support.ref_normal_rank(P)
                                       == support.ref_normal_rank(Pe)):
            bad += 1
        if rep.solvable_over_field:
            solvable += 1
            if not rep.residual_zero:
                bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and solvable > 0
    report(10, ok, f"{solvable} solvable systems, {bad} residual/solvability "
                   f"failures, {elapsed:.1f}s")


def test_criterion_11_implication_chain(batch):
    t0 = time.perf_counter()
    violations = 0
    for sys in batch:
        f = decide.functional_detectable(sys).holds
        s = decide.strongly_functional_detectable(sys).holds
        ss = decide.strong_star_functional_detectable(sys).holds
        if (ss and not s) or (s and not f):
            violations += 1
    gap = support.feedthrough_gap()
    chain = support.integrator_chain()
    strict1 = (decide.functional_detectable(gap).holds
               and not decide.strongly_functional_detectable(gap).holds)
    strict2 = (decide.strongly_functional_detectable(chain).holds
               and not decide.strong_star_functional_detectable(chain).holds)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and strict1 and strict2
    report(11, ok, f"{violations} chain violations; strictness witnesses "
                   f"{strict1}/{strict2}, {elapsed:.1f}s")


def test_strong_iff_stable_canonical_witness(batch):
    """Strong detectability holds exactly when the canonical witness exists
    with a zero residual and is stable; only properness can be missed."""
    mismatches = 0
    for sys in batch:
        rep = solve_over_field(sys)
        stable = (rep.solvable_over_field and rep.residual_zero
                  and rep.denominator_hurwitz.is_hurwitz)
        if decide.strongly_functional_detectable(sys).holds != stable:
            mismatches += 1
    assert mismatches == 0


def test_criterion_12_fading_output_counterexample():
    t0 = time.perf_counter()
    sys = support.integrator_chain()
    omega = StateSpaceRealization.static_gain([[0.0]])
    sc = fading_output_scenario(horizon=100.0, step=1e-2, table_step=1e-3)
    traj = simulate(sys, omega, sc)
    metric = convergence_metric(traj)
    head = traj.t <= 10.0
    tail = traj.t >= 90.0
    y_head = float(np.max(np.abs(traj.y[head])))
    y_tail = float(np.max(np.abs(traj.y[tail])))
    sc_half = Scenario(x0=sc.x0, xi0=sc.xi0, input_signal=sc.input_signal,
                       horizon=sc.horizon, step=sc.step / 2)
    metric_half = convergence_metric(simulate(sys, omega, sc_half))
    rel_change = abs(metric_half.final_sup - metric.final_sup) / metric.final_sup
    elapsed = time.perf_counter() - t0
    ok = (y_tail < 0.1 * y_head
          and metric.final_sup > 0.1
          and rel_change < 0.01)
    report(12, ok, f"y sup {y_head:.3f} -> {y_tail:.4f}, final_sup(e)="
                   f"{metric.final_sup:.3f}, step-halving change "
                   f"{rel_change:.2e}, {elapsed:.1f}s")
