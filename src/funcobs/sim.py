"""Floating-point demonstration layer.

Everything that decides existence stays exact in the other modules; this
one only illustrates behaviour.  A proper stable transfer matrix N(s) is
realized in state-space form column by column (companion blocks of each
column's common denominator), the plant/observer cascade is integrated
with classical fixed-step fourth-order Runge-Kutta, and the estimation
error is summarised over the final stretch of the horizon.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .exactlin import QMatrix
from .polymat import Poly, poly_lcm
from .stability import is_hurwitz
from .system import SystemSextuple
from .witness import RationalFunctionMatrix


def to_float_array(M: QMatrix) -> np.ndarray:
    out = np.zeros((M.rows, M.cols))
    for i in range(M.rows):
        for j in range(M.cols):
            out[i, j] = float(M[i, j])
    return out


class RealizationError(ValueError):
    pass


class StepInstabilityError(RuntimeError):
    """Raised when the integration blows up instead of reporting garbage."""


@dataclass
class StateSpaceRealization:
    """Observer dynamics xi' = G xi + H y, zhat = Q xi + R y."""
    G: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    @property
    def order(self) -> int:
        return self.G.shape[0]

    @classmethod
    def static_gain(cls, R) -> "StateSpaceRealization":
        R = np.atleast_2d(np.asarray(R, dtype=float))
        q, p = R.shape
        return cls(np.zeros((0, 0)), np.zeros((0, p)), np.zeros((q, 0)), R)


def realize(N: RationalFunctionMatrix) -> StateSpaceRealization:
    """Controllable-form realization of a proper stable transfer matrix.

    Each input column gets a companion block of the monic lcm of its
    reduced denominators; the constant feedthrough is the limit of N at
    infinity.  Improper or non-Hurwitz input is rejected up front.
    """
    q, p = N.rows, N.cols
    for row in N.data:
        for entry in row:
            if not entry.is_proper():
                raise RealizationError(f"entry {entry} is not proper")
            rep = is_hurwitz(entry.den)
            if not rep.is_hurwitz:
                raise RealizationError(
                    f"entry {entry} has an unstable denominator "
                    f"({rep.failure_reason})")

    g_blocks: list[np.ndarray] = []
    h_cols: list[tuple[int, int]] = []  # (block offset, block size) per input
    q_cols: list[np.ndarray] = []
    R = np.zeros((q, p))
    offset = 0
    for j in range(p):
        den = Poly([1])
        for i in range(q):
            den = poly_lcm(den, N[i, j].den)
        den = den.monic()
        nu = den.degree
        for i in range(q):
            R[i, j] = float(N[i, j].limit_at_infinity())
        if nu == 0:
            h_cols.append((offset, 0))
            q_cols.append(np.zeros((q, 0)))
            continue
        comp = np.zeros((nu, nu))
        for k in range(nu - 1):
            comp[k, k + 1] = 1.0
        den_coeffs = den.coeffs
        for k in range(nu):
            comp[nu - 1, k] = -float(den_coeffs[k])
        g_blocks.append(comp)
        qblock = np.zeros((q, nu))
        for i in range(q):
            entry = N[i, j]
            scaled_num = entry.num * den.exact_div(entry.den)
            strict = scaled_num - den.scale(entry.limit_at_infinity())
            for k, c in enumerate(strict.coeffs):
                qblock[i, k] = float(c)
        q_cols.append(qblock)
        h_cols.append((offset, nu))
        offset += nu

    nu_total = offset
    G = np.zeros((nu_total, nu_total))
    pos = 0
    for blk in g_blocks:
        size = blk.shape[0]
        G[pos:pos + size, pos:pos + size] = blk
        pos += size
    H = np.zeros((nu_total, p))
    for j, (off, size) in enumerate(h_cols):
        if size:
            H[off + size - 1, j] = 1.0
    Q = np.zeros((q, nu_total))
    for j, ((off, size), qblock) in enumerate(zip(h_cols, q_cols)):
        if size:
            Q[:, off:off + size] = qblock
    return StateSpaceRealization(G, H, Q, R)


@dataclass(frozen=True)
class InputSignal:
    """Symbolic input descriptor so scenarios reproduce bit for bit.

    Kinds: "zero"; "constant" (value per channel); "polynomial"
    (coefficients in t, ascending, per channel); "sinusoids" (list of
    (amplitude, frequency, phase) terms per channel); "table" (sample
    times and values, linear interpolation, ends held).
    """
    kind: str
    value: tuple[float, ...] = ()
    coefficients: tuple[tuple[float, ...], ...] = ()
    terms: tuple[tuple[tuple[float, float, float], ...], ...] = ()
    times: tuple[float, ...] = ()
    values: tuple[tuple[float, ...], ...] = ()

    def channels(self, m: int) -> int:
        if self.kind == "zero":
            return m
        if self.kind == "constant":
            return len(self.value)
        if self.kind == "polynomial":
            return len(self.coefficients)
        if self.kind == "sinusoids":
            return len(self.terms)
        if self.kind == "table":
            return len(self.values[0]) if self.values else 0
        raise ValueError(f"unknown input kind {self.kind!r}")

    def sampler(self, m: int):
        """A callable t -> u(t) as a length-m array."""
        if self.kind == "zero":
            zero = np.zeros(m)
            return lambda t: zero
        if self.kind == "constant":
            vec = np.asarray(self.value, dtype=float)
            return lambda t: vec
        if self.kind == "polynomial":
            coeffs = [np.asarray(c, dtype=float) for c in self.coefficients]

            def poly_eval(t: float) -> np.ndarray:
                out = np.empty(len(coeffs))
                for i, c in enumerate(coeffs):
                    acc = 0.0
                    for a in c[::-1]:
                        acc = acc * t + a
                    out[i] = acc
                return out
            return poly_eval
        if self.kind == "sinusoids":
            terms = self.terms

            def sin_eval(t: float) -> np.ndarray:
                return np.array([sum(a * math.sin(w * t + ph) for a, w, ph in chan)
                                 for chan in terms])
            return sin_eval
        if self.kind == "table":
            ts = np.asarray(self.times, dtype=float)
            vals = np.asarray(self.values, dtype=float)

            def table_eval(t: float) -> np.ndarray:
                return np.array([np.interp(t, ts, vals[:, i])
                                 for i in range(vals.shape[1])])
            return table_eval
        raise ValueError(f"unknown input kind {self.kind!r}")


ZERO_INPUT = InputSignal("zero")


@dataclass(frozen=True)
class Scenario:
    x0: tuple[float, ...]
    xi0: tuple[float, ...]
    input_signal: InputSignal = ZERO_INPUT
    horizon: float = 10.0
    step: float = 1e-3

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.horizon < self.step:
            raise ValueError("horizon must cover at least one step")


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    xi: np.ndarray
    u: np.ndarray
    y: np.ndarray
    z: np.ndarray
    zhat: np.ndarray
    e: np.ndarray = field(init=False)

    def __post_init__(self):
        self.e = self.z - self.zhat


_BLOWUP = 1e12


def _cascade_matrix(sys: SystemSextuple, omega: StateSpaceRealization) -> np.ndarray:
    """State matrix [A 0; HC G] of the plant/observer cascade.

    Raises ValueError naming the first observer block whose shape does not
    fit the plant.
    """
    n, p, q, nu = sys.n, sys.p, sys.q, omega.order
    for name, shape in (("R", (q, p)), ("Q", (q, nu)), ("H", (nu, p)), ("G", (nu, nu))):
        found = getattr(omega, name).shape
        if found != shape:
            raise ValueError(f"observer block {name} must be {shape[0]}x{shape[1]} "
                             f"for this plant, found {'x'.join(map(str, found))}")
    Ac = np.zeros((n + nu, n + nu))
    Ac[:n, :n] = to_float_array(sys.A)
    Ac[n:, :n] = omega.H @ to_float_array(sys.C)
    Ac[n:, n:] = omega.G
    return Ac


def simulate(sys: SystemSextuple, omega: StateSpaceRealization,
             sc: Scenario) -> Trajectory:
    """Fixed-step fourth-order Runge-Kutta on the plant/observer cascade.

    Deterministic for a fixed scenario.  A runaway state norm raises
    StepInstabilityError instead of returning silently corrupted data.
    """
    n, m = sys.n, sys.m
    nu = omega.order
    if len(sc.x0) != n:
        raise ValueError(f"x0 must have length {n}")
    if len(sc.xi0) != nu:
        raise ValueError(f"xi0 must have length {nu}")
    Ac = _cascade_matrix(sys, omega)

    B = to_float_array(sys.B)
    C = to_float_array(sys.C)
    D = to_float_array(sys.D)
    E = to_float_array(sys.E)
    F = to_float_array(sys.F)
    H, Q, R = omega.H, omega.Q, omega.R

    Bc = np.zeros((n + nu, m))
    Bc[:n, :] = B
    Bc[n:, :] = H @ D

    u_of = sc.input_signal.sampler(m)
    if sc.input_signal.channels(m) != m:
        raise ValueError("input signal channel count does not match m")

    h = sc.step
    nsteps = int(round(sc.horizon / h))
    times = np.empty(nsteps + 1)
    states = np.empty((nsteps + 1, n + nu))
    inputs = np.empty((nsteps + 1, m))

    def deriv(t: float, w: np.ndarray) -> np.ndarray:
        return Ac @ w + Bc @ u_of(t)

    w = np.concatenate([np.asarray(sc.x0, dtype=float),
                        np.asarray(sc.xi0, dtype=float)])
    for k in range(nsteps + 1):
        t = k * h
        times[k] = t
        states[k] = w
        inputs[k] = u_of(t)
        if k == nsteps:
            break
        k1 = deriv(t, w)
        k2 = deriv(t + h / 2, w + (h / 2) * k1)
        k3 = deriv(t + h / 2, w + (h / 2) * k2)
        k4 = deriv(t + h, w + h * k3)
        w = w + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(w)) or np.max(np.abs(w), initial=0.0) > _BLOWUP:
            raise StepInstabilityError(
                f"state norm exceeded {_BLOWUP:g} at t = {t + h:.6g}; "
                "the step size is likely too large for these dynamics")

    X = states[:, :n]
    Xi = states[:, n:]
    Y = X @ C.T + inputs @ D.T
    Z = X @ E.T + inputs @ F.T
    Zhat = Xi @ Q.T + Y @ R.T
    return Trajectory(times, X, Xi, inputs, Y, Z, Zhat)


@dataclass(frozen=True)
class ConvergenceReport:
    decayed: bool
    final_sup: float
    threshold: float
    tail_start: float


def convergence_metric(traj: Trajectory, threshold: float = 1e-4) -> ConvergenceReport:
    """Sup of the error (max-abs across channels) over the last 10% of the
    horizon, compared against the threshold."""
    if len(traj.t) == 0:
        raise ValueError("empty trajectory")
    tail_start = traj.t[-1] * 0.9
    mask = traj.t >= tail_start
    if traj.e.shape[1] == 0:
        final_sup = 0.0
    else:
        final_sup = float(np.max(np.abs(traj.e[mask]), initial=0.0))
    return ConvergenceReport(final_sup < threshold, final_sup, threshold, tail_start)


def suggested_horizon(sys: SystemSextuple, omega: StateSpaceRealization,
                      fallback: float = 20.0, cap: float = 500.0) -> float:
    """Heuristic horizon: ten time constants of the cascade's slowest mode
    (an empty cascade counts as one with abscissa -1); falls back when the
    spectral abscissa is not usefully negative."""
    Ac = _cascade_matrix(sys, omega)
    alpha = float(np.linalg.eigvals(Ac).real.max()) if Ac.size else -1.0
    if alpha >= -1e-9:
        return fallback
    return min(cap, 10.0 / abs(alpha))


def write_csv(traj: Trajectory, path) -> None:
    """Trajectory CSV: t, x_1..x_n, xi_1..xi_nu, z_1..z_q, zhat_1..zhat_q,
    e_1..e_q; decimal floating point, LF line endings."""
    n = traj.x.shape[1]
    nu = traj.xi.shape[1]
    q = traj.z.shape[1]
    header = (["t"]
              + [f"x_{i+1}" for i in range(n)]
              + [f"xi_{i+1}" for i in range(nu)]
              + [f"z_{i+1}" for i in range(q)]
              + [f"zhat_{i+1}" for i in range(q)]
              + [f"e_{i+1}" for i in range(q)])
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k in range(len(traj.t)):
            row = ([repr(float(traj.t[k]))]
                   + [repr(float(v)) for v in traj.x[k]]
                   + [repr(float(v)) for v in traj.xi[k]]
                   + [repr(float(v)) for v in traj.z[k]]
                   + [repr(float(v)) for v in traj.zhat[k]]
                   + [repr(float(v)) for v in traj.e[k]])
            writer.writerow(row)
