"""Seeded benchmark for funcobs.

    python3 perfbench/run.py --workload {small_batch,ladder,simulate}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is taken from ``src/``
next to this directory and is never installed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-module
metrics with ``--trace 1``).  The exit code is 0 only when every answer
passed its correctness check.  See README.md in this directory for what
each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from hostspeed import HostSpeed
from tracer import EXACTLIN_GROUP, Tracer
from workloads import DECISIONS, WORKLOADS, Simulate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "_work"

SETUP_REPEATS = 9      # fresh interpreters timed for setup_s (median reported)
PROBE_REPEATS = 5      # fresh interpreters for the start-up / import probes
OP_CAP_S = 30.0        # per-op time cap; a capped op counts as failed
DIGESTS = HERE / "digests.json"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                    "peak_rss_mb": "MB"}


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


# -- timed passes -----------------------------------------------------------------------

class Measurement:
    """Per-op samples of whole passes over a workload's ops."""

    def __init__(self, host=None):
        self.host = host
        self.times: dict[str, list[float]] = defaultdict(list)
        self.starts: dict[str, list[float]] = defaultdict(list)
        self.results: dict[str, object] = {}
        self.failures: dict[str, str] = {}
        self.attempted = 0
        self.pass_walls: list[float] = []

    def op_times(self, normalized: bool = True) -> dict[str, float]:
        """Each op's median run; runs normalized to the nominal host speed by default."""
        adjust = self.host.adjust if normalized else (lambda v, t: v)
        return {name: statistics.median(adjust(v, t) for v, t in zip(ts, self.starts[name]))
                for name, ts in self.times.items() if name not in self.failures}


def run_passes(ops, seconds: float, tracer=None, host=None, between=None,
               meas: Measurement | None = None) -> Measurement:
    """Run whole passes over ``ops`` until ``seconds`` have passed (at least one).

    Every op gets the same number of runs, spread over the run, so an op's
    median run is rarely one slowed down by other tenants of a shared host.
    An op that raises or exceeds OP_CAP_S is recorded as failed, with its
    reason, and skipped afterwards.  With ``host``, the calibration chunk is
    sampled between ops.  ``between`` runs after each pass.  Passes are
    added to ``meas`` when one is given.
    """
    meas = meas or Measurement(host)
    first = len(meas.pass_walls)
    deadline = time.perf_counter() + seconds
    signal.signal(signal.SIGALRM, _on_alarm)
    while len(meas.pass_walls) == first or time.perf_counter() < deadline:
        start = time.perf_counter()
        for op in ops:
            if op.name in meas.failures:
                continue
            if host is not None:
                host.maybe_sample()
            meas.attempted += 1
            root = tracer.begin_op(meas.attempted, op.name) if tracer else None
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
                try:
                    result = op.fn()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    elapsed = time.perf_counter() - t0
                    if tracer:
                        tracer.end_op(root, elapsed)
            except OpTimeout:
                meas.failures[op.name] = f"exceeded the {OP_CAP_S:g} s cap"
            except Exception as exc:  # any crash is a failed op, reported by name
                meas.failures[op.name] = f"{type(exc).__name__}: {exc}"
            else:
                meas.times[op.name].append(elapsed)
                meas.starts[op.name].append(t0)
                meas.results.setdefault(op.name, result)
        meas.pass_walls.append(time.perf_counter() - start)
        if between is not None:
            between()
    if host is not None:
        host.sample()
    return meas


# -- fresh-interpreter probes ----------------------------------------------------------

def _child_env() -> dict:
    """The caller's environment with ``src/`` on the path and bytecode caching on.

    The first child writes the bytecode caches inside the checkout, so every
    later one imports the cached modules whatever the caller's setting.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _child(args: list[str]) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


# A fixed import of standard-library modules, timed in a fresh interpreter next
# to every set-up sample.  It does the same kind of work as the set-up
# (reading, unmarshalling and running modules, loading shared libraries) but
# never touches funcobs, so a change to the library cannot move it.
REFERENCE_IMPORT = ("import time; t0 = time.perf_counter(); "
                    "import argparse, asyncio, csv, ctypes, decimal, email.parser, fractions, "
                    "http.client, inspect, json, logging, sqlite3, tarfile, unittest, "
                    "xml.etree.ElementTree, zipfile; "
                    "print(time.perf_counter() - t0)")
REFERENCE_NOMINAL_S = 0.1   # about the reference import on a 2-CPU VM with Python 3.11


class SetupProbe:
    """Set-up (import plus input generation) timed inside fresh interpreters.

    One sample is taken before the timed part and one after each pass, up
    to SETUP_REPEATS, so the median spans the run rather than one moment.
    Each sample is bracketed by two runs of REFERENCE_IMPORT and divided by
    their mean: fresh-interpreter start-up drifts with the host as the
    reference does, not as the calibration chunk of the op times does.  The
    sample then reads as on a host where the reference import takes
    REFERENCE_NOMINAL_S.
    """

    def __init__(self, workload: str, seed: int):
        self.args = [str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                     "--setup-probe"]
        self.raw: list[float] = []
        self.ratios: list[float] = []

    def __call__(self) -> None:
        if len(self.raw) < SETUP_REPEATS:
            before = float(_child(["-c", REFERENCE_IMPORT]))
            setup = float(_child(self.args).split()[-1])
            after = float(_child(["-c", REFERENCE_IMPORT]))
            self.raw.append(setup)
            self.ratios.append(setup / ((before + after) / 2))

    def seconds(self, normalized: bool = True) -> float:
        """Median set-up time, corrected to the nominal host speed by default."""
        while len(self.raw) < SETUP_REPEATS:
            self()
        if normalized:
            return REFERENCE_NOMINAL_S * statistics.median(self.ratios)
        return statistics.median(self.raw)


def startup_probes() -> dict[str, float]:
    """Bare interpreter start, ``import funcobs.cli``, and whether it loads numpy."""
    bare = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _child(["-c", "pass"])
        bare.append(time.perf_counter() - t0)
    code = ("import sys, time; t0 = time.perf_counter(); import funcobs.cli; "
            "print(time.perf_counter() - t0, int('numpy' in sys.modules))")
    imports = [_child(["-c", code]).split() for _ in range(PROBE_REPEATS)]
    return {"startup.python_s": statistics.median(bare),
            "cli.import_s": statistics.median(float(t) for t, _ in imports),
            "cli.numpy_loaded": max(int(n) for _, n in imports)}


# -- metrics ---------------------------------------------------------------------------------

def end_to_end(meas: Measurement, setup: SetupProbe, normalized: bool = True) -> dict[str, float]:
    op_s = meas.op_times(normalized)
    wall = sum(op_s.values())
    return {"setup_s": setup.seconds(normalized),
            "wall_s": wall,
            "ops_per_s": len(op_s) / wall,
            "op_p50_s": statistics.median(op_s.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(tracer, passes: int, probes: dict, overhead: float,
              fallbacks: int) -> dict[str, float]:
    s = tracer.summary()

    def get(name, key):
        return s[name][key] / passes if name in s else 0.0

    m = dict(probes)
    smith_calls = get("polymat.smith_form", "calls")
    m["polymat.smith_form.calls"] = smith_calls
    m["polymat.smith_form.self_s"] = get("polymat.smith_form", "self_s")
    m["polymat.smith_form.max_coeff_bits"] = tracer.max_smith_coeff_bits()
    m["polymat.smith_form.discarded_ratio"] = (
        tracer.discarded_smith_calls() / passes / smith_calls if smith_calls else 0.0)
    for name in ("polymat.normal_rank", "polymat.poly_gcd", "stability.is_hurwitz"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["exactlin.calls"] = sum(get(n, "calls") for n in EXACTLIN_GROUP)
    m["exactlin.self_s"] = sum(get(n, "self_s") for n in EXACTLIN_GROUP)
    m["stability.antistable_parts_equal.self_s"] = get("stability.antistable_parts_equal", "self_s")
    for name in ("geometry.vstar", "geometry.reachable_within"):
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.iterations"] = tracer.iterations[name] / passes
    m["geometry.strong_star_inclusion.s"] = get("geometry.strong_star_inclusion", "s")
    for name in DECISIONS:
        m[f"decide.{name}_s"] = get(f"decide.{name}", "s")
    m["witness.solve_over_field.self_s"] = get("witness.solve_over_field", "self_s")
    m["markov.kernel_inclusion_upto.s"] = get("markov.kernel_inclusion_upto", "s")
    sim_s = get("sim.simulate", "s")
    m["sim.simulate.s"] = sim_s
    m["sim.simulate.steps_per_s"] = tracer.sim_steps / passes / sim_s if sim_s else 0.0
    m["sim.realize.s"] = get("sim.realize", "s")
    m["sim.convergence_metric.s"] = get("sim.convergence_metric", "s")
    m["scenarios.fading_output_scenario.s"] = get("scenarios.fading_output_scenario", "s")
    m["sim.suggested_horizon.fallbacks"] = fallbacks
    m["trace.overhead_ratio"] = overhead
    return m


def cli_probe(probes: dict) -> dict[str, float]:
    """One ``funcobs check --all`` with every specialization per bundled system.

    Parse and decision time come from each process's ``--out`` timing block;
    the residual is the process wall time that start-up, import, parse and
    decisions leave unexplained.  Medians over the processes.
    """
    from funcobs.corpus import bundled_names
    parse, check, residual = [], [], []
    out = WORKDIR / "probe-report.json"
    for name in bundled_names():
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "funcobs.cli", "check", name, "--all",
                        "--specialize", "hautus", "--specialize", "leftinv",
                        "--specialize", "darouach", "--out", str(out)],
                       cwd=ROOT, env=_child_env(), capture_output=True, timeout=120)
        wall = time.perf_counter() - t0
        timing = json.loads(out.read_text(encoding="utf-8"))["timing"]
        decisions = sum(v for k, v in timing.items() if k.startswith("check."))
        parse.append(timing["parse_s"])
        check.append(decisions)
        residual.append(wall - probes["startup.python_s"] - probes["cli.import_s"]
                        - timing["parse_s"] - decisions)
    return {"fileio.parse_s": statistics.median(parse),
            "decide.check_s": statistics.median(check),
            "cli.residual_s": statistics.median(residual)}


# -- output -------------------------------------------------------------------------------

def verdict_digest(items: list) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()[:16]


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<44s} {value:>14.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "funcobs" / "cli.py").is_file():
        print(f"error: no funcobs sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not DIGESTS.is_file():
        print(f"error: {DIGESTS} is missing; it holds the reference verdict digests",
              file=sys.stderr)
        return 2
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    WORKDIR.mkdir(exist_ok=True)
    if args.setup_probe:
        t0 = time.perf_counter()
        WORKLOADS[args.workload](args.seed)
        print(time.perf_counter() - t0)
        return 0

    import numpy
    print(f"# funcobs benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# python {platform.python_version()}, numpy {numpy.__version__}, "
          f"nproc {os.cpu_count()}, commit {git_commit()}")
    print(f"# loadavg at start: {loadavg()}")

    wl = WORKLOADS[args.workload](args.seed)
    raw = None
    if args.trace:
        metrics, meas, units = traced_run(wl, args)
    else:
        host = HostSpeed()
        setup = SetupProbe(args.workload, args.seed)
        setup()
        meas = run_passes(wl.ops(), args.seconds, host=host, between=setup)
        metrics = end_to_end(meas, setup)
        raw = end_to_end(meas, setup, normalized=False)
        units = END_TO_END_UNITS

    wrong = wl.check(meas.results)
    failed_ops = {**meas.failures, **wrong}
    failed = len(meas.failures) + sum(len(meas.times[name]) for name in wrong)
    digest = verdict_digest(wl.digest_items(meas.results))
    reference = digests.get(args.workload, {}).get(str(args.seed))
    if reference is not None and reference != digest:
        failed_ops["verdict_digest"] = f"{digest} differs from the recorded {reference}"
        failed += 1
    correct = not failed_ops

    print(f"# passes: {len(meas.pass_walls)}, pass walls (s): "
          + ", ".join(f"{w:.3f}" for w in meas.pass_walls))
    print(f"# op samples: {sum(len(t) for t in meas.times.values())} "
          f"({len(meas.times)} distinct ops); each op time is the median of its runs")
    print(f"# error_rate: {failed / max(meas.attempted, 1):.6g} "
          f"({failed} of {meas.attempted} op runs)")
    for name, reason in sorted(failed_ops.items()):
        print(f"# FAILED {name}: {reason}")
    if reference is None:
        print(f"# verdict_digest: {digest} (not checked: no reference for seed {args.seed})")
    else:
        print(f"# verdict_digest: {digest} (recorded for seed {args.seed}: {reference})")
    if raw is not None:
        print(f"# host speed: calibration chunk median {host.median_chunk_s() * 1e3:.3f} ms "
              f"over {len(host.chunk_s)} samples (nominal {host.NOMINAL_S * 1e3:g} ms); "
              "raw seconds, before normalization:")
        print("# " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print_metrics(metrics, units)
    print(f"# loadavg at end: {loadavg()}")
    print(json.dumps({"correct": correct, "attempted": meas.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


def traced_run(wl, args):
    """Untraced and traced passes in turn; per-module metrics per traced pass.

    Fresh-interpreter probes of ``python``, ``import funcobs.cli`` and
    ``funcobs check`` come first, since every workload pays that start-up.
    Alternating the passes lets the tracing overhead compare per-op median
    runs taken over the same stretch of time.
    """
    probes = startup_probes()
    probes.update(cli_probe(probes))
    ops = wl.ops()
    host = HostSpeed()
    untraced, meas = Measurement(host), Measurement(host)
    tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    while not meas.pass_walls or time.perf_counter() < deadline:
        run_passes(ops, 0.0, host=host, meas=untraced)
        tracer.install()
        try:
            run_passes(ops, 0.0, tracer, host, meas=meas)
        finally:
            tracer.uninstall()
    worst, excess = tracer.closure_error(tracer.self_times())
    tracer.write(WORKDIR / f"spans-{args.workload}.tsv")
    print(f"# spans: {len(tracer.names)}; largest |sum of self times - op duration| "
          f"over ops: {worst:.3g} s")
    print("# self-time shares: " + ", ".join(
        f"{name} {share:.1%}" for name, share in tracer.self_shares()[:8]))
    if excess:
        meas.failures["trace"] = (f"span self times of {excess} ops do not add up to the "
                                  "op durations run_passes measured")
    meas.failures.update(untraced.failures)
    meas.attempted += untraced.attempted
    overhead = sum(meas.op_times().values()) / sum(untraced.op_times().values())
    fallbacks = Simulate.horizon_fallbacks(meas.results) if isinstance(wl, Simulate) else 0
    metrics = per_layer(tracer, len(meas.pass_walls), probes, overhead, fallbacks)
    return metrics, meas, {name: layer_unit(name) for name in metrics}


def layer_unit(name: str) -> str:
    if name.endswith("steps_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
