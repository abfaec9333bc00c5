"""Floating-point demonstration layer.

Everything that decides existence stays exact in the other modules; this
one only illustrates behaviour.  A proper stable transfer matrix N(s) is
realized in state-space form column by column (companion blocks of each
column's common denominator), the plant/observer cascade is integrated
with classical fixed-step fourth-order Runge-Kutta (one precomputed affine
step map, inputs sampled as arrays on the half-step grid), and the
estimation error is summarised over the final stretch of the horizon.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass, field

import numpy as np

from .exactlin import QMatrix
from .system import SystemSextuple
from .witness import RationalFunctionMatrix, classify, denominator_lcm


def to_float_array(M: QMatrix) -> np.ndarray:
    return np.array(M.data, dtype=float).reshape(M.shape)


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
    cls = classify(N)
    if not cls.proper:
        raise RealizationError("transfer matrix is not proper")
    if not cls.stable:
        raise RealizationError(f"pole polynomial {cls.pole_polynomial} is not Hurwitz "
                               f"({cls.pole_report.failure_reason})")

    g_blocks: list[np.ndarray] = []
    h_cols: list[tuple[int, int]] = []  # (block offset, block size) per input
    q_cols: list[np.ndarray] = []
    R = np.zeros((q, p))
    offset = 0
    for j in range(p):
        den = denominator_lcm(N[i, j] for i in range(q))
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
    (amplitude, frequency, phase) terms per channel); "table" (strictly
    increasing sample times, one equal-width row of values per time,
    linear interpolation, ends held).
    """
    kind: str
    value: tuple[float, ...] = ()
    coefficients: tuple[tuple[float, ...], ...] = ()
    terms: tuple[tuple[tuple[float, float, float], ...], ...] = ()
    times: tuple[float, ...] = ()
    values: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        if self.kind != "table":
            return
        if not all(map(operator.lt, self.times, self.times[1:])):
            raise ValueError("table times must be strictly increasing")
        if len(self.values) != len(self.times):
            raise ValueError(f"table has {len(self.times)} times but "
                             f"{len(self.values)} rows of values")
        if len(set(map(len, self.values))) > 1:
            raise ValueError("table rows differ in length")

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

    def sample(self, t: np.ndarray, m: int) -> np.ndarray:
        """u at each of the times t, one row per time."""
        t = np.asarray(t, dtype=float)
        out = np.zeros((t.size, self.channels(m)))
        if self.kind == "constant":
            out[:] = self.value
        elif self.kind == "polynomial":
            for i, chan in enumerate(self.coefficients):
                for a in reversed(chan):
                    out[:, i] = out[:, i] * t + a
        elif self.kind == "sinusoids":
            for i, chan in enumerate(self.terms):
                for a, w, ph in chan:
                    out[:, i] += a * np.sin(w * t + ph)
        elif self.kind == "table":
            vals = np.asarray(self.values, dtype=float)
            for i in range(out.shape[1]):
                out[:, i] = np.interp(t, self.times, vals[:, i])
        return out


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


def rk4_linear(A: np.ndarray, B: np.ndarray, h: float, w0: np.ndarray,
               u_half: np.ndarray) -> np.ndarray:
    """Classical fixed-step RK4 for w' = A w + B u(t), w(0) = w0.

    u_half holds u on the half-step grid 0, h/2, h, ..., N h (2N + 1 rows)
    and the N + 1 states at 0, h, ..., N h are returned.  For a linear
    field one RK4 step is the affine map
    w+ = T w + S0 u(t) + S_half u(t + h/2) + S1 u(t + h); [T S0 S_half S1]
    is the result of the four stages run once on the block matrix [I 0],
    so the only per-step work left is the recurrence.  A state that is not
    finite or exceeds the blow-up bound raises StepInstabilityError.
    """
    d, m = B.shape
    nsteps = (len(u_half) - 1) // 2
    W = np.eye(d, d + 3 * m)
    U = np.eye(3 * m, d + 3 * m, d)  # selects u(t), u(t + h/2), u(t + h)
    drive = [B @ U[j * m:(j + 1) * m] for j in range(3)]
    k1 = A @ W + drive[0]
    k2 = A @ (W + (h / 2) * k1) + drive[1]
    k3 = A @ (W + (h / 2) * k2) + drive[1]
    k4 = A @ (W + h * k3) + drive[2]
    TS = W + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    T = TS[:, :d]
    S0, S_half, S1 = (TS[:, d + j * m:d + (j + 1) * m] for j in range(3))

    w = np.empty((nsteps + 1, d))
    w[0] = w0
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below
        w[1:] = u_half[:-1:2] @ S0.T
        w[1:] += u_half[1::2] @ S_half.T
        w[1:] += u_half[2::2] @ S1.T
        for k in range(nsteps):
            w[k + 1] += T @ w[k]
    blown = ~(np.abs(w[1:]) <= _BLOWUP).all(axis=1)
    if blown.any():
        raise StepInstabilityError(
            f"state norm exceeded {_BLOWUP:g} at t = {(int(blown.argmax()) + 1) * h:.6g}; "
            "the step size is likely too large for these dynamics")
    return w


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
    if sc.input_signal.channels(m) != m:
        raise ValueError("input signal channel count does not match m")

    C = to_float_array(sys.C)
    D = to_float_array(sys.D)
    Bc = np.vstack([to_float_array(sys.B), omega.H @ D])

    h = sc.step
    nsteps = int(round(sc.horizon / h))
    t_half = np.arange(2 * nsteps + 1) * (h / 2)
    u_half = sc.input_signal.sample(t_half, m)
    w0 = np.concatenate([np.asarray(sc.x0, dtype=float),
                         np.asarray(sc.xi0, dtype=float)])
    states = rk4_linear(Ac, Bc, h, w0, u_half)

    times = t_half[::2]
    inputs = u_half[::2]
    X = states[:, :n]
    Xi = states[:, n:]
    Y = X @ C.T + inputs @ D.T
    Z = X @ to_float_array(sys.E).T + inputs @ to_float_array(sys.F).T
    Zhat = Xi @ omega.Q.T + Y @ omega.R.T
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
