"""Floating-point demonstration layer.

Everything that decides existence stays exact in the other modules; this
one only illustrates behaviour.  A proper stable transfer matrix N(s) is
realized in state-space form column by column (companion blocks of each
column's common denominator), the plant/observer cascade is integrated
with classical fixed-step fourth-order Runge-Kutta (one precomputed affine
step map, inputs sampled as arrays on the half-step grid, and the N-step
recurrence run as a doubling scan of at most 13 passes over row blocks),
and the estimation error is summarised over the final stretch of the
horizon.

Scenario and observer documents are parsed and written here too, next to
the types they build; ``INPUT_FIELDS`` is the one list of input kinds and
the fields each carries, and a field or document key that a kind does not
carry is rejected.  As in system documents, any other unknown key, at the
top level or in an entry of N, is rejected by ``fileio.check_keys``.  A
table input holds its knots and rows as read-only float64 arrays,
converted once when it is built, so sampling a long table does no
per-call conversion.  Files are read through ``fileio.read_text``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .exactlin import QMatrix, as_fraction
from .fileio import SystemFileError, check_keys, load_json, read_text
from .polymat import Poly
from .system import SystemSextuple
from .witness import RationalFunction, RationalFunctionMatrix, classify, denominator_lcm


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

    # no command calls it; the benchmark's simulate workload does
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

    dens = [denominator_lcm(N[i, j] for i in range(q)) for j in range(p)]
    nu_total = sum(den.degree for den in dens)
    G = np.zeros((nu_total, nu_total))
    H = np.zeros((nu_total, p))
    Q = np.zeros((q, nu_total))
    R = np.zeros((q, p))
    offset = 0
    for j, den in enumerate(dens):
        nu = den.degree
        end = offset + nu
        if nu:
            # companion block of the monic den, driven through its last state
            for k in range(offset, end - 1):
                G[k, k + 1] = 1.0
            G[end - 1, offset:end] = [-float(c) for c in den.coeffs[:nu]]
            H[end - 1, j] = 1.0
        for i in range(q):
            entry = N[i, j]
            limit = entry.limit_at_infinity()
            R[i, j] = float(limit)
            strict = entry.num * den.exact_div(entry.den) - den.scale(limit)
            for k, c in enumerate(strict.coeffs, offset):
                Q[i, k] = float(c)
        offset = end
    return StateSpaceRealization(G, H, Q, R)


# Every input kind and the fields it carries, each with its array depth (1:
# an array of numbers, 2: an array of arrays of numbers, ...).  Validation,
# the channel count, parsing and dumping all read the kinds from here.
INPUT_FIELDS: dict[str, dict[str, int]] = {
    "zero": {},
    "constant": {"value": 1},
    "polynomial": {"coefficients": 2},
    "sinusoids": {"terms": 3},
    "table": {"times": 1, "values": 2},
}


@dataclass(frozen=True)
class InputSignal:
    """Symbolic input descriptor so scenarios reproduce bit for bit.

    Kinds: "zero"; "constant" (value per channel); "polynomial"
    (coefficients in t, ascending, per channel); "sinusoids" (list of
    (amplitude, frequency, phase) terms per channel); "table" (strictly
    increasing sample times, one equal-width row of values per time,
    linear interpolation, ends held).  A field the kind does not carry
    must be empty.

    Every field may be given as any sequences or arrays.  ``value``,
    ``coefficients`` and ``terms`` are converted to nested tuples of floats,
    so signals built from lists, tuples or arrays compare and hash equal.
    A table's ``times`` and ``values`` are converted once, to read-only
    float64 arrays of shapes (N,) and (N, m), and ``sample`` reads those
    arrays directly.  Equality compares them by value.
    """
    kind: str
    value: tuple[float, ...] = ()
    coefficients: tuple[tuple[float, ...], ...] = ()
    terms: tuple[tuple[tuple[float, float, float], ...], ...] = ()
    times: np.ndarray = ()
    values: np.ndarray = ()

    def __post_init__(self):
        if self.kind not in INPUT_FIELDS:
            raise ValueError(f"unknown input kind {self.kind!r} "
                             f"(known: {', '.join(INPUT_FIELDS)})")
        for f in fields(self)[1:]:  # every field after kind
            if f.name not in INPUT_FIELDS[self.kind] and len(getattr(self, f.name)):
                raise ValueError(f"input kind {self.kind!r} carries no field {f.name!r}")
        if self.kind == "table":
            object.__setattr__(self, "times", _read_only(self._table_times()))
            object.__setattr__(self, "values", _read_only(self._table_values()))
        else:
            for name, depth in INPUT_FIELDS[self.kind].items():
                object.__setattr__(self, name, _float_tuples(getattr(self, name), depth))
        if any(len(term) != 3 for chan in self.terms for term in chan):
            raise ValueError("a sinusoid term is (amplitude, frequency, phase)")

    def _table_times(self) -> np.ndarray:
        times = np.array(self.times, dtype=float)
        if times.ndim != 1:
            raise ValueError("table times must be an array of numbers")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("table times must be strictly increasing")
        return times

    def _table_values(self) -> np.ndarray:
        rows = self.values
        if len(rows) != len(self.times):
            raise ValueError(f"table has {len(self.times)} times but {len(rows)} rows of values")
        if not isinstance(rows, np.ndarray):  # an array is never ragged
            try:
                widths = set(map(len, rows))
            except TypeError:
                raise ValueError("table values must be one row of numbers per time") from None
            if len(widths) > 1:
                raise ValueError("table rows differ in length")
        values = np.array(rows, dtype=float)
        if values.size == 0:  # no times, or rows of width 0: no channels
            return values.reshape(len(rows), 0)
        if values.ndim != 2:
            raise ValueError("table values must be one row of numbers per time")
        return values

    def __eq__(self, other):
        if not isinstance(other, InputSignal):
            return NotImplemented
        return ((self.kind, self.value, self.coefficients, self.terms)
                == (other.kind, other.value, other.coefficients, other.terms)
                and np.array_equal(self.times, other.times)
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        # a table enters by its length only: equal signals hash equal, and
        # hashing never walks the samples
        return hash((self.kind, self.value, self.coefficients, self.terms, len(self.times)))

    def channels(self, m: int) -> int:
        carried = INPUT_FIELDS[self.kind]
        if not carried:  # "zero" fits any input count
            return m
        if self.kind == "table":  # one row of values per time
            return self.values.shape[1]
        (field,) = carried  # one entry per channel
        return len(getattr(self, field))

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
            for i in range(out.shape[1]):
                out[:, i] = np.interp(t, self.times, self.values[:, i])
        return out


def _float_tuples(x, depth: int) -> tuple:
    """A sequence or array nested depth levels deep as nested tuples of floats."""
    return tuple(_float_tuples(v, depth - 1) if depth > 1 else float(v) for v in x)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


ZERO_INPUT = InputSignal("zero")

# The most RK4 steps a scenario may ask for.  A run stores every state, so
# the cap bounds memory before any array is built; the bundled scenarios
# take at most 1e5 steps.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class Scenario:
    x0: tuple[float, ...]
    xi0: tuple[float, ...]
    input_signal: InputSignal = ZERO_INPUT
    horizon: float = 10.0
    step: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be positive and finite, found {self.step!r}")
        if not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, found {self.horizon!r}")
        if self.horizon < self.step:
            raise ValueError("horizon must cover at least one step")
        if self.horizon / self.step > MAX_STEPS:
            raise ValueError(f"horizon / step must be at most {MAX_STEPS} steps, found "
                             f"horizon {self.horizon!r} and step {self.step!r}")


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


def _rk4_step_map(A: np.ndarray, B: np.ndarray, h: float):
    """(T, S0, S_half, S1) of one RK4 step of w' = A w + B u(t):
    w+ = T w + S0 u(t) + S_half u(t + h/2) + S1 u(t + h).

    [T S0 S_half S1] is the result of the four stages run once on the
    block matrix [I 0].
    """
    d, m = B.shape
    W = np.eye(d, d + 3 * m)
    U = np.eye(3 * m, d + 3 * m, d)  # selects u(t), u(t + h/2), u(t + h)
    drive = [B @ U[j * m:(j + 1) * m] for j in range(3)]
    k1 = A @ W + drive[0]
    k2 = A @ (W + (h / 2) * k1) + drive[1]
    k3 = A @ (W + (h / 2) * k2) + drive[1]
    k4 = A @ (W + h * k3) + drive[2]
    TS = W + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    S0, S_half, S1 = (TS[:, d + j * m:d + (j + 1) * m] for j in range(3))
    return TS[:, :d], S0, S_half, S1


# Rows per numpy call in ``_affine_scan``, a power of two so that doubling
# stops at a window of at most this many steps: the scan's temporaries stay
# this many rows by the state dimension, whatever the step count.
_SCAN_BLOCK = 2**12


def _affine_scan(T: np.ndarray, w: np.ndarray) -> None:
    """w[k + 1] += T w[k] for k = 0, ..., N - 1, in place, as a doubling scan:
    at most log2(_SCAN_BLOCK) + 1 passes over the rows instead of N steps.

    Invariant: w[k] holds the sum of T^(k - i) w_in[i] over its last s
    inputs, and Q = (T^s)^T.  A pass adds T^s w[k - s] to every w[k] and
    doubles s; it runs backwards over row blocks, so every source row still
    holds its old window.  Doubling stops at the block size, or before the
    first non-finite power so that a zero state never meets inf * 0; windows
    of s steps are then chained by T^s, forwards, so every source row is
    already final (no window is left once s > N).
    """
    n, s, Q = len(w), 1, np.ascontiguousarray(T.T)
    while s < min(n, _SCAN_BLOCK):
        Q2 = Q @ Q
        if not np.isfinite(Q2).all():
            break
        for hi in range(n, s, -_SCAN_BLOCK):
            lo = max(s, hi - _SCAN_BLOCK)
            # np.dot, not @: matmul takes a path ~9x slower for one-column states
            w[lo:hi] += np.dot(w[lo - s:hi - s], Q)
        s, Q = 2 * s, Q2
    for lo in range(s, n, s):
        hi = min(lo + s, n)
        w[lo:hi] += np.dot(w[lo - s:hi - s], Q)


def rk4_linear(A: np.ndarray, B: np.ndarray, h: float, w0: np.ndarray,
               u_half: np.ndarray) -> np.ndarray:
    """Classical fixed-step RK4 for w' = A w + B u(t), w(0) = w0.

    u_half holds u on the half-step grid 0, h/2, h, ..., N h (2N + 1 rows)
    and the N + 1 states at 0, h, ..., N h are returned.  For a linear
    field one RK4 step is the affine map
    w+ = T w + S0 u(t) + S_half u(t + h/2) + S1 u(t + h), precomputed once;
    the input terms of all steps are one matrix product each, and the
    recurrence in T runs as a doubling scan (``_affine_scan``) with no
    per-step Python loop.  A state that is not finite or exceeds the
    blow-up bound raises StepInstabilityError naming the first such step.
    """
    d = B.shape[0]
    T, S0, S_half, S1 = _rk4_step_map(A, B, h)
    nsteps = (len(u_half) - 1) // 2
    w = np.empty((nsteps + 1, d))
    w[0] = w0
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below
        # np.dot, not @, as in _affine_scan: strided rows take matmul's slow path
        w[1:] = np.dot(u_half[:-1:2], S0.T)
        w[1:] += np.dot(u_half[1::2], S_half.T)
        w[1:] += np.dot(u_half[2::2], S1.T)
        _affine_scan(T, w)
    blown = ~(np.abs(w[1:]) <= _BLOWUP).all(axis=1)
    if blown.any():
        raise StepInstabilityError(
            f"state norm exceeded {_BLOWUP:g} at t = {(int(blown.argmax()) + 1) * h:.6g}; "
            "the step size is likely too large for these dynamics")
    return w


def simulate(sys: SystemSextuple, omega: StateSpaceRealization,
             sc: Scenario) -> Trajectory:
    """Fixed-step fourth-order Runge-Kutta on the plant/observer cascade.

    The last sample lies in [horizon, horizon + step), so a horizon that is
    not a multiple of the step is still reached.  Deterministic for a fixed
    scenario.  A runaway state norm raises StepInstabilityError instead of
    returning silently corrupted data.
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
    # enough steps to reach the horizon; the slack absorbs the rounding of
    # the ratio, so an exact multiple keeps its step count
    nsteps = math.ceil(sc.horizon / h - 1e-9)
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
    final_sup = float(np.max(np.abs(traj.e[mask]), initial=0.0))
    return ConvergenceReport(final_sup < threshold, final_sup, threshold, tail_start)


HORIZON_FALLBACK = 20.0  # seconds, when the cascade has no usable decay rate
HORIZON_CAP = 500.0


def suggested_horizon(sys: SystemSextuple, omega: StateSpaceRealization) -> float:
    """Heuristic horizon: ten time constants of the cascade's slowest mode
    (an empty cascade counts as one with abscissa -1), at most HORIZON_CAP;
    HORIZON_FALLBACK when the spectral abscissa is not usefully negative."""
    Ac = _cascade_matrix(sys, omega)
    alpha = float(np.linalg.eigvals(Ac).real.max()) if Ac.size else -1.0
    if alpha >= -1e-9:
        return HORIZON_FALLBACK
    return min(HORIZON_CAP, 10.0 / abs(alpha))


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
        # one row of Python floats at a time: a whole-table tolist() would
        # hold every value as an object at once
        for row in np.column_stack([traj.t, traj.x, traj.xi, traj.z, traj.zhat, traj.e]):
            writer.writerow([repr(v) for v in row.tolist()])


# -- scenario and observer documents -------------------------------------------

def _finite_float(raw) -> float:
    if isinstance(raw, bool):
        raise TypeError(f"{raw!r} is not a number")
    try:
        x = float(raw)
    except OverflowError as exc:  # an exact literal such as 1e400
        raise ValueError("number out of the floating-point range") from exc
    if not math.isfinite(x):
        raise ValueError(f"{raw!r} is not a finite number")
    return x


def _float_array(raw, depth: int = 1) -> tuple:
    """Arrays nested depth levels deep, finite numbers at the bottom, as
    nested tuples."""
    if not isinstance(raw, list):
        raise TypeError(f"{raw!r} is not an array")
    return tuple(_float_array(v, depth - 1) if depth > 1 else _finite_float(v) for v in raw)


def _field(doc: dict, field: str, convert, default):
    try:
        return convert(doc.get(field, default))
    except (TypeError, ValueError) as exc:
        raise SystemFileError(f"field {field!r}: {exc}") from exc


def _float_matrix(doc: dict, field: str) -> np.ndarray:
    """A field holding equal-length arrays of finite numbers, as a float matrix."""
    rows = _field(doc, field, lambda raw: _float_array(raw, 2), None)
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise SystemFileError(f"field {field!r}: rows differ in length")
    return np.array(rows, dtype=float).reshape(len(rows), width)


_OBSERVER_BLOCKS = ("G", "H", "Q", "R")


def parse_scenario_document(doc: dict) -> Scenario:
    """A scenario from its JSON object, which holds no key but x0, xi0,
    input, horizon and step.  The input object holds its kind and the
    fields ``INPUT_FIELDS`` names for that kind, each empty when absent,
    and no other key; a missing input is "zero"."""
    if not isinstance(doc, dict):
        raise SystemFileError("scenario document must be a JSON object")
    check_keys(doc, ("x0", "xi0", "input", "horizon", "step"))
    sig = doc.get("input", {"kind": "zero"})
    if not isinstance(sig, dict) or not isinstance(sig.get("kind"), str):
        raise SystemFileError("field 'input' must be an object with a string 'kind'")
    try:
        depths = INPUT_FIELDS.get(sig["kind"], {})  # InputSignal rejects an unknown kind
        signal = InputSignal(sig["kind"], **{name: _float_array(sig.get(name, []), depth)
                                            for name, depth in depths.items()})
        extra = sorted(sig.keys() - {"kind", *depths})
        if extra:
            raise ValueError(f"input kind {signal.kind!r} carries no field {extra[0]!r}")
    except (TypeError, ValueError) as exc:
        raise SystemFileError(f"field 'input': {exc}") from exc
    x0 = _field(doc, "x0", _float_array, [])
    xi0 = _field(doc, "xi0", _float_array, [])
    horizon = _field(doc, "horizon", _finite_float, 10.0)
    step = _field(doc, "step", _finite_float, 1e-3)
    try:
        return Scenario(x0, xi0, signal, horizon, step)
    except ValueError as exc:
        raise SystemFileError(f"bad scenario: {exc}") from exc


def load_scenario_file(path, horizon_fallback: float | None = None) -> Scenario:
    """Parse a scenario file; a missing horizon falls back to the supplied
    value (e.g. a spectral-abscissa-based suggestion) when one is given."""
    doc = load_json(read_text(path), float)
    if isinstance(doc, dict) and "horizon" not in doc and horizon_fallback is not None:
        doc = {**doc, "horizon": horizon_fallback}
    return parse_scenario_document(doc)


def _transfer_entry(cell, field: str) -> RationalFunction:
    """One entry of N: a rational literal or {"num": [...], "den": [...]}
    with ascending coefficients."""
    try:
        if isinstance(cell, dict):
            check_keys(cell, ("num", "den"))
            num = Poly([as_fraction(c) for c in cell.get("num", [])])
            den = Poly([as_fraction(c) for c in cell.get("den", [1])])
        else:
            num, den = Poly([as_fraction(cell)]), Poly([1])
        return RationalFunction(num, den)
    except ZeroDivisionError as exc:
        raise SystemFileError(f"field {field!r}: zero denominator") from exc
    except (TypeError, ValueError) as exc:
        raise SystemFileError(f"field {field!r}: {exc}") from exc


def parse_observer_document(doc: dict) -> StateSpaceRealization | RationalFunctionMatrix:
    """Either an exact transfer matrix {"N": [[{num, den}]]} to be realized,
    or explicit real matrices {"G", "H", "Q", "R"}, never both; a bare
    {"R": ...} is a static gain."""
    if not isinstance(doc, dict):
        raise SystemFileError("observer document must be a JSON object")
    check_keys(doc, ("N", *_OBSERVER_BLOCKS))
    if "N" in doc:
        clash = [name for name in _OBSERVER_BLOCKS if name in doc]
        if clash:
            raise SystemFileError(f"field {clash[0]!r}: an observer gives 'N' or "
                                  f"'G'/'H'/'Q'/'R', not both")
        raw = doc["N"]
        if not isinstance(raw, list) or not raw or any(not isinstance(r, list) for r in raw):
            raise SystemFileError("field 'N' must be a nonempty array of arrays")
        rows = [[_transfer_entry(cell, f"N[{i}][{j}]") for j, cell in enumerate(row)]
                for i, row in enumerate(raw)]
        if any(len(row) != len(rows[0]) for row in rows):
            raise SystemFileError("field 'N': rows differ in length")
        return RationalFunctionMatrix.from_rows(rows)
    if any(name in doc for name in _OBSERVER_BLOCKS):
        if "R" not in doc:
            raise SystemFileError("field 'R' is required")
        # an absent G, H or Q is a zero block of the shape that fits G and R
        R = _float_matrix(doc, "R")
        G = _float_matrix(doc, "G") if "G" in doc else np.zeros((0, 0))
        H = _float_matrix(doc, "H") if "H" in doc else np.zeros((G.shape[0], R.shape[1]))
        if not H.shape[0]:  # an empty array carries no width: take R's
            H = H.reshape(0, R.shape[1])
        Q = _float_matrix(doc, "Q") if "Q" in doc else np.zeros((R.shape[0], G.shape[0]))
        return StateSpaceRealization(G, H, Q, R)
    raise SystemFileError("observer document needs 'N', 'R', or 'G'/'H'/'Q'/'R'")


def load_observer_file(path) -> StateSpaceRealization | RationalFunctionMatrix:
    return parse_observer_document(load_json(read_text(path)))
