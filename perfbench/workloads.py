"""The workloads: generated inputs, timed ops and correctness checks.

A workload object is built by ``WORKLOADS[name](seed)``; building it
imports funcobs and generates the inputs, which is exactly what the
``setup_s`` metric times.  ``ops()`` lists the timed operations of one
pass; each returns its result.  ``check(results)`` runs after the timed
part and returns ``{op name: reason}`` for every wrong answer;
``digest_items(results)`` lists the exact decisions that
``verdict_digest`` hashes.

Library functions are looked up on their module at call time, so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import importlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import plants

SRC = Path(__file__).resolve().parent.parent / "src"

# Op suffix -> (funcobs module, function).  Every one takes the plant; the
# Toeplitz check, the diagnostic ``funcobs witness`` prints, also takes
# kmax = n + m.
PROCEDURES = {"functional": ("decide", "functional_detectable"),
              "strong": ("decide", "strongly_functional_detectable"),
              "strong-star": ("decide", "strong_star_functional_detectable"),
              "hautus": ("decide", "hautus_strong_detectable"),
              "hautus-star": ("decide", "hautus_strong_star_detectable"),
              "leftinv": ("decide", "asympt_strong_left_invertible"),
              "leftinv-star": ("decide", "asympt_strong_star_left_invertible"),
              "darouach": ("decide", "darouach_fixed_order"),
              "witness": ("witness", "solve_over_field"),
              "toeplitz": ("markov", "kernel_inclusion_upto")}

DECISIONS = [fn for mod, fn in PROCEDURES.values() if mod == "decide"]

# Keys of a bundled file's ``expected`` block and the verdicts they name.
EXPECTED_KEYS = {"functional": "functional_detectable",
                 "strongly": "strongly_functional_detectable",
                 "strong_star": "strong_star_functional_detectable",
                 "hautus_strong": "hautus_strong_detectable",
                 "hautus_strong_star": "hautus_strong_star_detectable",
                 "left_invertible": "asympt_strong_left_invertible",
                 "left_invertible_star": "asympt_strong_star_left_invertible",
                 "darouach": "darouach_fixed_order"}


@dataclass
class Op:
    name: str
    fn: Callable[[], object]


def poly_text(poly) -> str:
    """Canonical coefficient list of an exact polynomial, as p/q strings."""
    return " ".join(str(c) for c in poly.coeffs)


def _build(doc: dict):
    from funcobs.system import SystemSextuple
    return SystemSextuple.from_lists(**doc)


def _bundled(name: str):
    from funcobs.corpus import bundled_text
    from funcobs.fileio import load_system_text
    return load_system_text(bundled_text(name))[0]


def _strong_digest(cert) -> list:
    return [cert.normrank_p, cert.normrank_pe, poly_text(cert.zero_poly_p),
            poly_text(cert.zero_poly_pe)]


def _witness_digest(rep) -> list:
    pole = poly_text(rep.pole_denominator) if rep.pole_denominator is not None else None
    return [rep.solvable_over_field, rep.is_proper, pole]


def _exact_cross_checks(sys, got: dict) -> list[str]:
    """Independent routes that must agree with the answers of one plant's ops."""
    from funcobs import decide, markov
    from funcobs.exactlin import QMatrix
    bad = []
    f, s, star = got["functional"].holds, got["strong"].holds, got["strong-star"]
    if (star.holds and not s) or (s and not f):
        bad.append("implication chain functional <= strong <= strong-star broken")
    toeplitz = got.get("toeplitz") or markov.kernel_inclusion_upto(sys, sys.n + sys.m)
    if star.certificate.inclusion.holds != toeplitz.holds:
        bad.append("geometric inclusion disagrees with the Toeplitz kernels")
    cert, rep = got["strong"].certificate, got["witness"]
    if rep.solvable_over_field != (cert.normrank_p == cert.normrank_pe):
        bad.append("witness solvability disagrees with the normal ranks")
    if rep.solvable_over_field and not rep.residual_zero:
        bad.append("witness residual is not zero")
    n, m = sys.n, sys.m
    for target, strong, strong_star in (
            ((QMatrix.identity(n), QMatrix.zeros(n, m)), "hautus", "hautus-star"),
            ((QMatrix.zeros(m, n), QMatrix.identity(m)), "leftinv", "leftinv-star")):
        if strong not in got:
            continue
        general = decide.strong_star_functional_detectable(sys.with_target(*target))
        g = general.certificate.strong
        if got[strong].holds != (g.rank_condition and g.zero_condition):
            bad.append(f"{strong} disagrees with the general strong check on its target")
        if got[strong_star].holds != general.holds:
            bad.append(f"{strong_star} disagrees with the general strong-star check on its target")
    return bad


# -- small_batch and ladder ----------------------------------------------------------

class PlantBatch:
    """Plants through a list of procedures; one op is one (plant, procedure) pair."""

    procedures = list(PROCEDURES)

    def __init__(self, seed: int):
        import funcobs.decide  # noqa: F401  (import cost belongs to set-up)
        import funcobs.markov  # noqa: F401
        import funcobs.witness  # noqa: F401
        self.plants = self.inputs(seed)

    def ops(self) -> list[Op]:
        return [Op(f"{label}.{proc}", lambda sys=sys, proc=proc: self._run(sys, proc))
                for label, sys in self.plants for proc in self.procedures]

    @staticmethod
    def _run(sys, proc: str):
        module, name = PROCEDURES[proc]
        fn = getattr(importlib.import_module(f"funcobs.{module}"), name)
        return fn(sys, sys.n + sys.m) if proc == "toeplitz" else fn(sys)

    def _per_plant(self, results: dict):
        for label, sys in self.plants:
            got = {proc: results.get(f"{label}.{proc}") for proc in self.procedures}
            if all(v is not None for v in got.values()):
                yield label, sys, got

    def check(self, results: dict) -> dict[str, str]:
        bad = {}
        for label, sys, got in self._per_plant(results):
            problems = _exact_cross_checks(sys, got) + self._expected(label, got)
            for proc in self.procedures if problems else ():
                bad[f"{label}.{proc}"] = "; ".join(problems)
        return bad

    def _expected(self, label: str, got: dict) -> list[str]:
        return []

    def digest_items(self, results: dict) -> list:
        return [[label, [got[p].holds for p in self.procedures if PROCEDURES[p][0] == "decide"],
                 _strong_digest(got["strong"].certificate),
                 _strong_digest(got["functional"].certificate.reduced),
                 _witness_digest(got["witness"])]
                for label, _, got in self._per_plant(results)]


class SmallBatch(PlantBatch):
    """The bundled systems and small generated plants through every procedure.

    Bundled verdicts must also match the hand-written ``expected`` block of
    their data file, which is read here without going through funcobs.
    """

    def inputs(self, seed: int):
        from funcobs.corpus import bundled_names
        bundled = [(name, _bundled(name)) for name in bundled_names()]
        return bundled + [(label, _build(doc)) for label, doc in plants.small_batch_plants(seed)]

    def _expected(self, label: str, got: dict) -> list[str]:
        path = SRC / "funcobs" / "data" / f"{label}.json"
        if not path.is_file():
            return []
        expected = json.loads(path.read_text(encoding="utf-8"))["expected"]
        holds = {fn: got[proc].holds for proc, (mod, fn) in PROCEDURES.items() if mod == "decide"}
        return [f"expected {key} = {want}, computed {holds[EXPECTED_KEYS[key]]}"
                for key, want in expected.items() if holds[EXPECTED_KEYS[key]] != want]


class Ladder(PlantBatch):
    """Larger plants through the three headline decisions plus the witness."""

    procedures = ["functional", "strong", "strong-star", "witness"]

    def inputs(self, seed: int):
        return [(label, _build(doc)) for label, doc in plants.ladder_plants(seed)]


# -- simulate ----------------------------------------------------------------------------

# Bundled systems whose canonical witness is proper and stable.
OBSERVABLE_BUNDLED = ["fixed_order_demo", "input_recovery_demo", "stable_pair",
                      "state_estimation_demo"]
FADING = {"horizon": 40.0, "step": 1e-2, "table_step": 1e-3}
PIPELINE = {"horizon": 10.0, "step": 2e-3}
CLOSED_FORM_TOL = 1e-8


class PipelineResult(NamedTuple):
    holds: bool                       # strong-star verdict
    witness: object                   # WitnessReport
    decayed: bool
    final_sup: float
    closed_form_error: float | None   # max |e - e_exact| where e_exact is known
    suggested_horizon: float


class Simulate:
    """Realization and RK4 simulation, the only floating-point layer."""

    def __init__(self, seed: int):
        from funcobs import sim
        rng = random.Random(f"simulate/{seed}")
        self.chain = _bundled("integrator_chain")
        # x' = -x + u, y = x + u, z = u: the witness N = (s+1)/(s+2) leaves the
        # error e = (xi0 - x0) exp(-2t) whatever the input
        self.feedthrough = _build({"A": [[-1]], "B": [[1]], "C": [[1]], "D": [[1]],
                                   "E": [[0]], "F": [[1]], "m": 1})
        u = lambda: round(rng.uniform(-2.0, 2.0), 3)  # noqa: E731
        times = tuple(float(t) for t in range(0, 11))
        self.signals = [
            sim.InputSignal("zero"),
            sim.InputSignal("constant", value=(u(),)),
            sim.InputSignal("polynomial", coefficients=((u(), u() / 10),)),
            sim.InputSignal("sinusoids", terms=(((u(), abs(u()) + 0.5, u()),),)),
            sim.InputSignal("table", times=times, values=tuple((u(),) for _ in times)),
        ]
        self.feed_init = [((u(),), (u(),)) for _ in self.signals]
        self.cascades = [(name, _bundled(name)) for name in OBSERVABLE_BUNDLED]
        self.cascades += [(label, _build(doc)) for label, doc in plants.oscillator_plants(seed)]
        self.cascade_x0 = [tuple(u() for _ in range(s.n)) for _, s in self.cascades]
        self.cascade_input = [sim.InputSignal("sinusoids", terms=tuple(
            ((u(), abs(u()) + 0.5, u()),) for _ in range(s.m))) if s.m else sim.InputSignal("zero")
            for _, s in self.cascades]
        self._fading = None

    def ops(self) -> list[Op]:
        import numpy as np
        ops = [Op("fading.build", self._fading_build),
               Op("fading.h", lambda: self._fading_sim(1)),
               Op("fading.h_half", lambda: self._fading_sim(2))]
        ops += [Op(f"feedthrough.{sig.kind}",
                   lambda sig=sig, x0=x0, xi0=xi0: self._pipeline(
                       self.feedthrough, sig, x0, xi0,
                       lambda t: (xi0[0] - x0[0]) * np.exp(-2.0 * t)))
                for sig, (x0, xi0) in zip(self.signals, self.feed_init)]
        # the oscillators' witness is the exact static observer N = E: e = 0
        ops += [Op(f"cascade.{name}",
                   lambda s=s, x0=x0, sig=sig, name=name: self._pipeline(
                       s, sig, x0, None, np.zeros_like if name.startswith("osc") else None))
                for (name, s), x0, sig in zip(self.cascades, self.cascade_x0, self.cascade_input)]
        return ops

    def _fading_build(self):
        from funcobs import scenarios
        self._fading = scenarios.fading_output_scenario(**FADING)

    def _fading_sim(self, divisor: int):
        import numpy as np
        from funcobs import sim
        sc = self._fading
        if divisor != 1:
            sc = sim.Scenario(sc.x0, sc.xi0, sc.input_signal, sc.horizon, sc.step / divisor)
        omega = sim.StateSpaceRealization.static_gain([[0.0]])
        traj = sim.simulate(self.chain, omega, sc)
        metric = sim.convergence_metric(traj)
        tenth = sc.horizon / 10
        y_head = float(np.max(np.abs(traj.y[traj.t <= tenth])))
        y_tail = float(np.max(np.abs(traj.y[traj.t >= sc.horizon - tenth])))
        return metric.final_sup, y_head, y_tail

    @staticmethod
    def _pipeline(plant, signal, x0, xi0, exact_error) -> PipelineResult:
        """decide -> witness -> realize -> simulate, as the command line does it."""
        import numpy as np
        from funcobs import decide, sim, witness
        from funcobs.witness import RationalFunctionMatrix
        star = decide.strong_star_functional_detectable(plant)
        rep = witness.solve_over_field(plant)
        mn = rep.MN
        N = RationalFunctionMatrix.from_rows(
            [[mn[i, j] for j in range(plant.n, mn.cols)] for i in range(mn.rows)],
            cols=mn.cols - plant.n)
        omega = sim.realize(N)
        suggested = sim.suggested_horizon(plant, omega)
        sc = sim.Scenario(x0=x0, xi0=xi0 or (0.0,) * omega.order, input_signal=signal,
                          **PIPELINE)
        traj = sim.simulate(plant, omega, sc)
        metric = sim.convergence_metric(traj)
        closed = (None if exact_error is None
                  else float(np.max(np.abs(traj.e[:, 0] - exact_error(traj.t)))))
        return PipelineResult(star.holds, rep, metric.decayed, metric.final_sup, closed,
                              suggested)

    def check(self, results: dict) -> dict[str, str]:
        bad = {}
        h, h_half = results.get("fading.h"), results.get("fading.h_half")
        if h is not None and h_half is not None:
            final_sup, y_head, y_tail = h
            change = abs(h_half[0] - final_sup) / final_sup
            if not (final_sup > 0.1 and y_tail < 0.1 * y_head and change < 0.01):
                bad["fading.h"] = (f"final_sup {final_sup:.3g}, y {y_head:.3g} -> {y_tail:.3g}, "
                                   f"step-halving change {change:.2e}")
        for name, got in results.items():
            if not isinstance(got, PipelineResult):
                continue
            rep = got.witness
            problems = []
            if not (got.holds and rep.is_proper and rep.denominator_hurwitz.is_hurwitz):
                problems.append("witness is not a proper stable observer")
            if not got.decayed:
                problems.append(f"error did not decay (final_sup {got.final_sup:.3g})")
            if got.closed_form_error is not None and got.closed_form_error > CLOSED_FORM_TOL:
                problems.append(f"error deviates from its closed form by {got.closed_form_error:.3g}")
            if problems:
                bad[name] = "; ".join(problems)
        return bad

    def digest_items(self, results: dict) -> list:
        return [[name, got.holds, _witness_digest(got.witness)]
                for name, got in sorted(results.items()) if isinstance(got, PipelineResult)]

    @staticmethod
    def horizon_fallbacks(results: dict) -> int:
        """Realized cascades for which ``suggested_horizon`` fell back to 20 s."""
        return sum(1 for got in results.values()
                   if isinstance(got, PipelineResult) and math.isclose(got.suggested_horizon, 20.0))


WORKLOADS = {"small_batch": SmallBatch, "ladder": Ladder, "simulate": Simulate}
