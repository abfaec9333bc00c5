"""Command-line front end.

Subcommands:

* ``check``    -- run detectability decisions on a system file, print a
                  human-readable certificate summary, optionally write the
                  full structured report.  Exit 0 when every requested
                  property holds, 1 when any fails, 2 on input errors.
* ``witness``  -- construct, verify and classify the canonical rational
                  solution of [M N] P = [E F].
* ``simulate`` -- realize an observer, integrate the cascade, write the
                  trajectory CSV; exit 0 iff the error decayed.
* ``batch``    -- run ``check --all`` over every system file in a directory.

System paths may also name a bundled demo system (see ``--list-bundled``).
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import decide, witness
from .corpus import bundled_names, bundled_text
from .fileio import (SCHEMA_VERSION, SystemFileError, load_observer_file,
                     load_scenario_file, load_system_text, to_jsonable)
from .markov import kernel_inclusion_upto
from .system import SystemSextuple
from .witness import RationalFunctionMatrix

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _read_system(path: str) -> tuple[SystemSextuple, dict]:
    p = Path(path)
    if p.exists():
        text = p.read_text(encoding="utf-8")
    else:
        stem = p.stem if p.suffix == ".json" else path
        try:
            text = bundled_text(stem)
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
        inc = cert.inclusion
        lines.append(f"    chain-reachable dim {inc.reachable.dim}; "
                     f"V*(C,D)^ImB_e dim {inc.vstar_cd_in_image.dim}, "
                     f"V*(E,F)^ImB_e dim {inc.vstar_ef_in_image.dim}; "
                     f"inclusion {'holds' if inc.holds else 'fails'}")
        if inc.violation is not None:
            lines.append(f"    violating reachable state: ({', '.join(str(x) for x in inc.violation)})")
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
    try:
        system, meta = _read_system(args.system)
        expected = _expected_block(meta)
    except SystemFileError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR
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

    verdicts: list[decide.Verdict] = []
    timing: dict[str, float] = {"parse_s": parse_s}
    for key in selected:
        t0 = time.perf_counter()
        verdicts.append(_CHECKS[key](system))
        timing[f"check.{key}_s"] = time.perf_counter() - t0
    for spec in args.specialize or []:
        for fn in _SPECIALIZED[spec]:
            t0 = time.perf_counter()
            verdicts.append(fn(system))
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
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    if regression_failures:
        return EXIT_FAIL
    return EXIT_OK if all(v.holds for v in verdicts) else EXIT_FAIL


def cmd_witness(args) -> int:
    try:
        system, meta = _read_system(args.system)
    except SystemFileError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR
    t0 = time.perf_counter()
    report = witness.solve_over_field(system)
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
    kmax = system.n + system.m
    toep = kernel_inclusion_upto(system, kmax)
    print(f"  Toeplitz kernel inclusion up to k = {kmax}: "
          f"{'holds' if toep.holds else f'fails at k = {toep.failing_k}'}")
    if not toep.holds:
        print(f"    violating input direction q(s) = {toep.describe_witness()}")
    if args.out:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "system": {"name": name},
            "verdicts": [],
            "witness": to_jsonable(report),
            "toeplitz": to_jsonable(toep),
            "timing": {"solve_s": solve_s},
        }
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK if report.solvable_over_field else EXIT_FAIL


def cmd_simulate(args) -> int:
    from . import sim  # the float layer loads numpy; only this command needs it

    try:
        system, meta = _read_system(args.system)
        observer = load_observer_file(args.observer)
    except SystemFileError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR
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
        scenario = load_scenario_file(
            args.scenario,
            horizon_fallback=sim.suggested_horizon(system, omega))
    except ValueError as exc:  # SystemFileError, or an observer that does not fit
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR
    if not scenario.xi0 and omega.order > 0:
        # scenario files may leave the observer state implicit
        scenario = sim.Scenario(scenario.x0, (0.0,) * omega.order,
                                scenario.input_signal, scenario.horizon,
                                scenario.step)
    try:
        traj = sim.simulate(system, omega, scenario)
    except (ValueError, sim.StepInstabilityError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR
    metric = sim.convergence_metric(traj, threshold=args.threshold)
    if args.csv:
        sim.write_csv(traj, args.csv)
        print(f"trajectory written to {args.csv}")
    print(f"samples: {len(traj.t)}, horizon: {scenario.horizon}, step: {scenario.step}")
    print(f"final_sup(|e|) over t >= {metric.tail_start:g} : {metric.final_sup:.6g}")
    print(f"decayed (threshold {metric.threshold:g}) : {metric.decayed}")
    return EXIT_OK if metric.decayed else EXIT_FAIL


def _batch_one(path: str) -> tuple[str, int]:
    ns = argparse.Namespace(system=path, all=True, functional=False, strong=False,
                            strong_star=False, specialize=[], out=None)
    return path, cmd_check(ns)


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
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
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
    p_sim.add_argument("--threshold", type=float, default=1e-4,
                       help="decay threshold on the tail sup of |e| (default 1e-4)")
    p_sim.set_defaults(func=cmd_simulate)

    p_batch = sub.add_parser("batch", help="check every system file in a directory")
    p_batch.add_argument("directory")
    p_batch.add_argument("--jobs", type=int, default=1)
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
    return args.func(args)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
