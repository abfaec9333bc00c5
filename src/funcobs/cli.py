"""Command-line front end.

Subcommands:

* ``check``    -- run detectability decisions on a system file, print a
                  human-readable certificate summary, optionally write the
                  full structured report.  Exit 0 when every requested
                  property holds, 1 when any fails, 2 on input errors or a closed stdout.
* ``witness``  -- construct, verify and classify the canonical rational
                  solution of [M N] P = [E F], and report the strong-star
                  inclusion certificate that decides its properness side.
* ``simulate`` -- realize an observer, integrate the cascade, write the
                  trajectory CSV; exit 0 iff the error decayed.
* ``batch``    -- run ``check --all`` over every system file in a directory.

System paths may also name a bundled demo system (see ``--list-bundled``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
import time
from pathlib import Path

from . import decide, witness
from .corpus import bundled_names, bundled_text
from .fileio import (SCHEMA_VERSION, SystemFileError, load_system_text, read_text,
                     to_jsonable)
from .geometry import InclusionCertificate
from .system import SystemSextuple
from .witness import RationalFunctionMatrix

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _read_system(path: str) -> tuple[SystemSextuple, dict]:
    p = Path(path)
    if p.exists():
        return load_system_text(read_text(p))
    try:
        # only a bare name, with or without .json, can name a bundled system
        if p.name != path:
            raise FileNotFoundError(path)
        text = bundled_text(p.stem if p.suffix == ".json" else path)
    except FileNotFoundError:
        raise SystemFileError(f"no such file or bundled system: {path}")
    return load_system_text(text)


_CHECKS = {
    "functional": decide.functional_detectable,
    "strong": decide.strongly_functional_detectable,
    "strong-star": decide.strong_star_functional_detectable,
}

_SPECIALIZED = {
    "hautus": (decide.hautus_strong_detectable, decide.hautus_strong_star_detectable),
    "leftinv": (decide.asympt_strong_left_invertible, decide.asympt_strong_star_left_invertible),
    "darouach": (decide.darouach_fixed_order,),
}

_EXPECTED_KEYS = {
    "functional": decide.FUNCTIONAL,
    "strongly": decide.STRONGLY,
    "strong_star": decide.STRONG_STAR,
    "hautus_strong": decide.HAUTUS_STRONG,
    "hautus_strong_star": decide.HAUTUS_STRONG_STAR,
    "left_invertible": decide.LEFT_INVERTIBLE,
    "left_invertible_star": decide.LEFT_INVERTIBLE_STAR,
    "darouach": decide.DAROUACH,
}


def _positive(convert):
    """An argparse type for a finite value above zero: anything else exits 2
    naming the option."""
    def parse(text: str):
        value = convert(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


def _write_output(option: str, write) -> bool:
    """Call write(); an OSError (a missing directory, a read-only file) is
    reported as an error naming the option, not as a traceback."""
    try:
        write()
    except OSError as exc:
        print(f"error: option '{option}': {exc}", file=_sys.stderr)
        return False
    return True


def _expected_block(meta: dict) -> dict[str, bool]:
    """The verdicts a system file expects, keyed as in ``_EXPECTED_KEYS``."""
    expected = meta.get("expected", {})
    if not isinstance(expected, dict):
        raise SystemFileError("field 'expected' must be an object")
    for key, want in expected.items():
        if key not in _EXPECTED_KEYS:
            raise SystemFileError(f"field 'expected': unknown key {key!r} "
                                  f"(known: {', '.join(_EXPECTED_KEYS)})")
        if not isinstance(want, bool):
            raise SystemFileError(f"field 'expected': {key!r} must be true or false")
    return expected


def _inclusion_lines(inc: InclusionCertificate) -> list[str]:
    lines = [f"chain-reachable dim {inc.reachable.dim}; "
             f"inclusion {'holds' if inc.holds else 'fails'}"]
    if inc.violation is not None:
        lines.append(f"violating reachable state: ({', '.join(str(x) for x in inc.violation)})")
    return lines


def _summarize_verdict(v: decide.Verdict) -> list[str]:
    lines = [f"{v.name:<40s} : {'yes' if v.holds else 'no'}"]
    cert = v.certificate
    if isinstance(cert, decide.DetectabilityCertificate):
        lines.append(f"    normrank P = {cert.normrank_p}, normrank P_e = {cert.normrank_pe}")
        lines.append(f"    zero polynomial of P   : {cert.zero_poly_p}")
        lines.append(f"    zero polynomial of P_e : {cert.zero_poly_pe}")
    elif isinstance(cert, decide.KnownInputCertificate):
        red = cert.reduced
        lines.append(f"    (input channels dropped) normrank {red.normrank_p} vs {red.normrank_pe}, "
                     f"zeros {red.zero_poly_p} vs {red.zero_poly_pe}")
    elif isinstance(cert, decide.StrongStarCertificate):
        s = cert.strong
        lines.append(f"    normrank P = {s.normrank_p}, normrank P_e = {s.normrank_pe}; "
                     f"zeros {s.zero_poly_p} vs {s.zero_poly_pe}")
        lines += [f"    {line}" for line in _inclusion_lines(cert.inclusion)]
    elif isinstance(cert, decide.HautusStarCertificate):
        lines.append(f"    kernel inclusion {'holds' if cert.kernel.holds else 'fails'}")
    elif isinstance(cert, decide.HautusCertificate):
        lines.append(f"    normrank P = {cert.normrank_p}, n + rank[-B; D] = {cert.n_plus_rank_bd}; "
                     f"zero polynomial {cert.zero_poly_p}")
    elif isinstance(cert, decide.LeftInvertibilityStarCertificate):
        lines.append(f"    rank D = {cert.rank_d} (m = {cert.input_dim})")
    elif isinstance(cert, decide.LeftInvertibilityCertificate):
        lines.append(f"    normrank P = {cert.normrank_p} (need {cert.full_rank}); "
                     f"zeros {cert.zero_poly_p}, unobservable modes {cert.decoupling_poly}")
    elif isinstance(cert, decide.DarouachCertificate):
        lines.append(f"    kernel condition {'holds' if cert.kernel.holds else 'fails'}; "
                     f"right-half-plane rank equality "
                     f"{'holds' if cert.rank_equality.holds else 'fails'}")
        if cert.note:
            lines.append(f"    note: {cert.note}")
    return lines


def cmd_check(args) -> int:
    started = time.perf_counter()
    system, meta = _read_system(args.system)
    expected = _expected_block(meta)
    parse_s = time.perf_counter() - started

    selected: list[str] = []
    if args.all or not (args.functional or args.strong or args.strong_star or args.specialize):
        selected = ["functional", "strong", "strong-star"]
    else:
        if args.functional:
            selected.append("functional")
        if args.strong:
            selected.append("strong")
        if args.strong_star:
            selected.append("strong-star")

    # one object carries the plant's pencils through every decision, so a
    # decision's seconds count only the work it adds to it
    forms = decide.PlantForms(system)
    verdicts: list[decide.Verdict] = []
    timing: dict[str, float] = {"parse_s": parse_s}
    for key in selected:
        t0 = time.perf_counter()
        verdicts.append(_CHECKS[key](forms))
        timing[f"check.{key}_s"] = time.perf_counter() - t0
    # a repeated --specialize runs once, in first-seen order
    for spec in dict.fromkeys(args.specialize or []):
        for fn in _SPECIALIZED[spec]:
            t0 = time.perf_counter()
            verdicts.append(fn(forms))
            timing[f"check.{spec}.{fn.__name__}_s"] = time.perf_counter() - t0

    name = meta.get("name", Path(args.system).stem)
    print(f"system: {name} (n={system.n}, m={system.m}, p={system.p}, q={system.q})")
    for v in verdicts:
        for line in _summarize_verdict(v):
            print(f"  {line}")

    regression_failures = []
    by_name = {v.name: v.holds for v in verdicts}
    for key, want in expected.items():
        prop = _EXPECTED_KEYS[key]
        if prop in by_name and by_name[prop] != want:
            regression_failures.append(f"expected {key} = {want}, computed {by_name[prop]}")
    for failure in regression_failures:
        print(f"  REGRESSION: {failure}")

    if args.out:
        report = {
            "schema_version": SCHEMA_VERSION,
            "system": {"name": name, "n": system.n, "m": system.m,
                       "p": system.p, "q": system.q},
            "verdicts": [to_jsonable(v) for v in verdicts],
            "witness": None,
            "timing": timing,
        }
        text = json.dumps(report, indent=2) + "\n"
        if not _write_output("--out", lambda: Path(args.out).write_text(text, encoding="utf-8")):
            return EXIT_ERROR

    if regression_failures:
        return EXIT_FAIL
    return EXIT_OK if all(v.holds for v in verdicts) else EXIT_FAIL


def cmd_witness(args) -> int:
    system, meta = _read_system(args.system)
    forms = decide.PlantForms(system)
    t0 = time.perf_counter()
    report = witness.solve_over_field(forms)
    solve_s = time.perf_counter() - t0
    name = meta.get("name", Path(args.system).stem)
    print(f"system: {name}")
    if not report.solvable_over_field:
        print("  unsolvable over the rational-function field "
              f"(consistency fails on Smith column {report.inconsistent_column})")
    else:
        mn = report.MN
        print(f"  [M N] ({mn.rows}x{mn.cols}), left kernel dimension {report.left_kernel_dim}:")
        for i in range(mn.rows):
            print("    [ " + ",  ".join(str(mn[i, j]) for j in range(mn.cols)) + " ]")
        print(f"  residual exactly zero : {report.residual_zero}")
        print(f"  proper                : {report.is_proper}")
        print(f"  pole polynomial       : {report.pole_denominator}")
        print(f"  stable                : {report.denominator_hurwitz.is_hurwitz}")
    inclusion = forms.inclusion
    head, *rest = _inclusion_lines(inclusion)
    print(f"  strong-star inclusion : {head}")
    for line in rest:
        print(f"    {line}")
    if args.out:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "system": {"name": name},
            "verdicts": [],
            "witness": to_jsonable(report),
            "inclusion": to_jsonable(inclusion),
            "timing": {"solve_s": solve_s},
        }
        text = json.dumps(doc, indent=2) + "\n"
        if not _write_output("--out", lambda: Path(args.out).write_text(text, encoding="utf-8")):
            return EXIT_ERROR
    return EXIT_OK if report.solvable_over_field else EXIT_FAIL


def cmd_simulate(args) -> int:
    from . import sim  # the float layer loads numpy; only this command needs it

    system, _ = _read_system(args.system)
    observer = sim.load_observer_file(args.observer)
    if isinstance(observer, RationalFunctionMatrix):
        try:
            omega = sim.realize(observer)
        except sim.RealizationError as exc:
            cls = witness.classify(observer)
            print(f"error: observer rejected: {exc}", file=_sys.stderr)
            print(f"  proper: {cls.proper}, pole polynomial: {cls.pole_polynomial}, "
                  f"stable: {cls.stable}", file=_sys.stderr)
            return EXIT_ERROR
    else:
        omega = observer
    try:
        scenario = sim.load_scenario_file(args.scenario, system, omega)
        traj = sim.simulate(system, omega, scenario)
    except (ValueError, sim.StepInstabilityError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR
    metric = sim.convergence_metric(traj, threshold=args.threshold)
    if args.csv:
        if not _write_output("--csv", lambda: sim.write_csv(traj, args.csv)):
            return EXIT_ERROR
        print(f"trajectory written to {args.csv}")
    print(f"samples: {len(traj.t)}, horizon: {scenario.horizon}, step: {scenario.step}")
    print(f"final_sup(|e|) over t >= {metric.tail_start:g} : {metric.final_sup:.6g}")
    print(f"decayed (threshold {metric.threshold:g}) : {metric.decayed}")
    return EXIT_OK if metric.decayed else EXIT_FAIL


def _batch_one(path: str) -> tuple[str, int]:
    # "--" keeps a path that starts with a dash from reading as an option
    return path, main(["check", "--all", "--", path])


def cmd_batch(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=_sys.stderr)
        return EXIT_ERROR
    files = sorted(str(p) for p in directory.glob("*.json"))
    if not files:
        print(f"error: no *.json files in {directory}", file=_sys.stderr)
        return EXIT_ERROR
    results: list[tuple[str, int]] = []
    if args.jobs > 1:
        # imported here: the pool's import costs more than all of funcobs.
        # The fork start method launches every worker up front
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(files))) as pool:
            results = list(pool.map(_batch_one, files))
    else:
        for f in files:
            results.append(_batch_one(f))
    worst = max(code for _, code in results)
    print("batch summary:")
    for path, code in results:
        print(f"  {path}: {'ok' if code == EXIT_OK else f'exit {code}'}")
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcobs",
        description="Exact existence analysis for functional observers of LTI plants")
    parser.add_argument("--list-bundled", action="store_true",
                        help="list bundled demo systems and exit")
    sub = parser.add_subparsers(dest="command")

    p_check = sub.add_parser("check", help="run detectability decisions")
    p_check.add_argument("system", help="system file or bundled name")
    p_check.add_argument("--functional", action="store_true")
    p_check.add_argument("--strong", action="store_true")
    p_check.add_argument("--strong-star", dest="strong_star", action="store_true")
    p_check.add_argument("--all", action="store_true",
                         help="functional + strong + strong-star (default)")
    p_check.add_argument("--specialize", action="append",
                         choices=sorted(_SPECIALIZED),
                         help="also run a specialized check (repeatable)")
    p_check.add_argument("--out", help="write the structured JSON report here")
    p_check.set_defaults(func=cmd_check)

    p_wit = sub.add_parser("witness", help="construct and classify [M N]")
    p_wit.add_argument("system", help="system file or bundled name")
    p_wit.add_argument("--out", help="write the structured JSON report here")
    p_wit.set_defaults(func=cmd_witness)

    p_sim = sub.add_parser("simulate", help="simulate plant and observer")
    p_sim.add_argument("system", help="system file or bundled name")
    p_sim.add_argument("observer", help="observer file (N or G/H/Q/R)")
    p_sim.add_argument("scenario", help="scenario file")
    p_sim.add_argument("--csv", help="trajectory CSV output path")
    p_sim.add_argument("--threshold", type=_positive(float), default=1e-4,
                       help="decay threshold on the tail sup of |e| (default 1e-4)")
    p_sim.set_defaults(func=cmd_simulate)

    p_batch = sub.add_parser("batch", help="check every system file in a directory")
    p_batch.add_argument("directory")
    p_batch.add_argument("--jobs", type=_positive(int), default=1)
    p_batch.set_defaults(func=cmd_batch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_bundled:
        for name in bundled_names():
            print(name)
        return EXIT_OK
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_ERROR
    try:
        return args.func(args)
    except SystemFileError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    # every literal a command reads is bounded (exactlin.LITERAL_DIGITS), so
    # the certificates it prints may hold numbers of any size
    if hasattr(_sys, "set_int_max_str_digits"):
        _sys.set_int_max_str_digits(0)
    try:
        code = main()
        _sys.stdout.flush()  # a pipe holds what was printed until here
    except BrokenPipeError:  # the reader is gone: an error, with no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        code = EXIT_ERROR
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
