"""Outside-in span tracer for funcobs, built only from benchmark code.

``Tracer.install`` replaces every public function of the traced modules
(and a few exact-algebra methods) by a timing wrapper at every place the
function can be looked up: module attributes and names copied into other
modules by ``from ... import``.  Nothing under ``src/`` changes;
``uninstall`` puts the originals back.

Spans (name, start, end, parent, op id) are kept in memory and written out
by ``write``.  A span's self time is its duration minus the durations of
its direct children.  ``closure_error`` compares, per op, the sum of the
self times with the op duration the caller measured on its own clock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ["cli", "fileio", "decide", "polymat", "stability", "geometry",
                  "exactlin", "markov", "witness", "sim", "scenarios"]

# Called once per matrix entry; wrapping it would time the wrapper, not the code.
UNTRACED = {"exactlin.as_fraction"}

TRACED_METHODS = [("exactlin", "QMatrix", "rank"), ("exactlin", "QMatrix", "rref"),
                  ("exactlin", "Subspace", "intersect"), ("exactlin", "Subspace", "sum")]

CLOSURE_TOL_S = 0.01
CLOSURE_TOL_SHARE = 0.05

EXACTLIN_GROUP = {"exactlin.kernel_basis", "exactlin.image_basis", "exactlin.preimage",
                  "exactlin.QMatrix.rank", "exactlin.QMatrix.rref",
                  "exactlin.Subspace.intersect", "exactlin.Subspace.sum"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []
        self.measured: dict[int, float] = {}
        self.iterations: dict[str, int] = defaultdict(int)
        self.sim_steps = 0
        self.smith_results: list = []
        self._hooks = {"geometry.vstar": self._count_iterations("geometry.vstar"),
                       "geometry.reachable_within": self._count_iterations("geometry.reachable_within"),
                       "sim.simulate": self._count_steps,
                       "polymat.smith_form": lambda args, result: self.smith_results.append(result)}

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int, name: str) -> int:
        self._op = op_id
        return self.open(f"op:{name}")

    def end_op(self, idx: int, measured_s: float) -> None:
        """Close an op's root span; ``measured_s`` is the op's duration as timed by the caller."""
        self.ends[idx] = time.perf_counter()
        self.measured[self._op] = measured_s
        # a timed-out op can leave spans open; they end with their op
        self._stack.clear()
        self._op = -1

    def _wrap(self, name: str, fn):
        on_result = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def _count_iterations(self, key: str):
        def hook(args, result):
            self.iterations[key] += result[1]
        return hook

    def _count_steps(self, args, result) -> None:
        sc = args[2]
        self.sim_steps += int(round(sc.horizon / sc.step))

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        modules = {short: importlib.import_module(f"funcobs.{short}") for short in TRACED_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[obj] = self._wrap(name, obj)
        for mod in [m for key, m in sys.modules.items()
                    if key == "funcobs" or key.startswith("funcobs.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(modules[short], cls_name)
            self._set(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", cls.__dict__[meth]))

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def closure_error(self, self_s: list[float]) -> tuple[float, int]:
        """Per op, |sum of its spans' self times - the duration measured by the caller|.

        Returns the largest deviation and the number of ops whose deviation
        exceeds CLOSURE_TOL_S or CLOSURE_TOL_SHARE of the op, whichever is
        larger.  The tolerance covers the few statements between the
        caller's clock and the root span's, and a host that preempts the
        process during them.
        """
        per_op: dict[int, float] = defaultdict(float)
        for i, op in enumerate(self.ops):
            if op >= 0:
                per_op[op] += self_s[i]
        deviations = [(abs(per_op[op] - measured), measured)
                      for op, measured in self.measured.items()]
        excess = sum(1 for dev, measured in deviations
                     if dev > max(CLOSURE_TOL_S, CLOSURE_TOL_SHARE * measured))
        return max((dev for dev, _ in deviations), default=0.0), excess

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        self_s = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += self.ends[i] - self.starts[i]
            rec["self_s"] += self_s[i]
        return out

    def self_shares(self) -> list[tuple[str, float]]:
        """Span names by their share of all self time, largest first."""
        total = {name: rec["self_s"] for name, rec in self.summary().items()}
        whole = sum(total.values()) or 1.0
        return sorted(((name, t / whole) for name, t in total.items()), key=lambda x: -x[1])

    def discarded_smith_calls(self) -> int:
        """Smith calls made by zero_polynomial, which keeps only the diagonal."""
        return sum(1 for i, name in enumerate(self.names)
                   if name == "polymat.smith_form" and self.parents[i] >= 0
                   and self.names[self.parents[i]] == "polymat.zero_polynomial")

    def max_smith_coeff_bits(self) -> int:
        best = 0
        for dec in self.smith_results:
            for mat in (dec.U, dec.S, dec.V):
                for row in mat.data:
                    for poly in row:
                        for c in poly.coeffs:
                            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
        return best

    def write(self, path) -> None:
        """Spans as tab-separated name, start, end, parent, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i, name in enumerate(self.names):
                fh.write(f"{name}\t{self.starts[i]!r}\t{self.ends[i]!r}\t"
                         f"{self.parents[i]}\t{self.ops[i]}\n")
