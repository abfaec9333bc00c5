"""File formats: system documents, scenarios, observers, reports.

System files are JSON with rational literals (integers, "p/q" strings, or
decimal strings/numbers); decimal literals convert exactly through
power-of-ten denominators, never through binary floating point.  Rationals
are serialized back as strings so every round trip is lossless.
"""

from __future__ import annotations

import json
import math
from dataclasses import is_dataclass, fields
from fractions import Fraction
from typing import Any

import numpy as np

from .exactlin import QMatrix, Subspace, as_fraction
from .polymat import Poly, PolyMatrix
from .sim import InputSignal, Scenario, StateSpaceRealization
from .system import SystemSextuple
from .witness import RationalFunction, RationalFunctionMatrix

SCHEMA_VERSION = "1.0"


class SystemFileError(ValueError):
    """Malformed input document; the message names the offending field."""


def _exact_loads(text: str):
    # parse_float receives the raw literal, so "0.1" becomes 1/10 exactly
    return json.loads(text, parse_float=Fraction)


def _matrix_from_field(raw, field: str, cols: int | None = None) -> QMatrix:
    if not isinstance(raw, list) or any(not isinstance(r, list) for r in raw):
        raise SystemFileError(f"field {field!r} must be an array of arrays")
    try:
        return QMatrix.from_rows(raw, cols=cols)
    except ZeroDivisionError as exc:
        raise SystemFileError(f"field {field!r}: zero denominator") from exc
    except (TypeError, ValueError) as exc:
        raise SystemFileError(f"field {field!r}: {exc}") from exc


def _first_row_width(raw) -> int:
    """Length of the first row of an array of arrays, else 0."""
    return len(raw[0]) if isinstance(raw, list) and raw and isinstance(raw[0], list) else 0


def parse_system_document(doc: dict) -> tuple[SystemSextuple, dict]:
    """Build the plant and return it with the residual metadata."""
    if not isinstance(doc, dict):
        raise SystemFileError("system document must be a JSON object")
    if "A" not in doc:
        raise SystemFileError("field 'A' is required")
    A = _matrix_from_field(doc["A"], "A")
    n = A.rows
    if A.cols != n:
        raise SystemFileError("field 'A' must be square")

    m_declared = doc.get("m")
    if m_declared is not None and (not isinstance(m_declared, int)
                                   or isinstance(m_declared, bool) or m_declared < 0):
        raise SystemFileError("field 'm' must be a nonnegative integer")

    def block(fieldname: str, rows_hint: int | None, cols_hint: int | None):
        if fieldname not in doc:
            return None
        M = _matrix_from_field(doc[fieldname], fieldname, cols=cols_hint)
        if rows_hint is not None and M.rows != rows_hint:
            raise SystemFileError(f"field {fieldname!r} must have {rows_hint} rows")
        return M

    B = block("B", n, None)
    if B is not None:
        m = B.cols
    else:
        # a malformed D or F infers no width here and is named when parsed below
        m = _first_row_width(doc.get("D")) or _first_row_width(doc.get("F")) or m_declared or 0
    if m_declared is not None and m != m_declared:
        raise SystemFileError(f"declared m = {m_declared} conflicts with block widths")
    if B is None:
        B = QMatrix.zeros(n, m)

    C = block("C", None, n)
    if C is None:
        C = QMatrix.zeros(0, n)
    D = block("D", None, m)
    if D is None:
        D = QMatrix.zeros(C.rows, m)
    if D.rows != C.rows:
        raise SystemFileError("fields 'C' and 'D' must have the same number of rows")
    E = block("E", None, n)
    if E is None:
        E = QMatrix.zeros(0, n)
    F = block("F", None, m)
    if F is None:
        F = QMatrix.zeros(E.rows, m)
    if F.rows != E.rows:
        raise SystemFileError("fields 'E' and 'F' must have the same number of rows")

    try:
        sys = SystemSextuple(A, B, C, D, E, F)
    except ValueError as exc:
        raise SystemFileError(str(exc)) from exc
    meta = {k: doc[k] for k in doc
            if k not in {"A", "B", "C", "D", "E", "F", "m"}}
    return sys, meta


def load_system_text(text: str) -> tuple[SystemSextuple, dict]:
    try:
        doc = _exact_loads(text)
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_system_document(doc)


def _fraction_str(x: Fraction) -> str:
    return str(x)


def dump_system_document(sys: SystemSextuple, meta: dict | None = None) -> dict:
    doc: dict[str, Any] = {}
    meta = meta or {}
    for key in ("name", "description"):
        if key in meta:
            doc[key] = meta[key]
    doc["A"] = [[_fraction_str(x) for x in row] for row in sys.A.data]
    if sys.m:
        doc["B"] = [[_fraction_str(x) for x in row] for row in sys.B.data]
    else:
        doc["m"] = 0
    if sys.p:
        doc["C"] = [[_fraction_str(x) for x in row] for row in sys.C.data]
        if sys.m:
            doc["D"] = [[_fraction_str(x) for x in row] for row in sys.D.data]
    if sys.q:
        doc["E"] = [[_fraction_str(x) for x in row] for row in sys.E.data]
        if sys.m:
            doc["F"] = [[_fraction_str(x) for x in row] for row in sys.F.data]
    for key, value in meta.items():
        if key not in doc:
            doc[key] = value
    return doc


# -- scenarios ---------------------------------------------------------------

def parse_scenario_document(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise SystemFileError("scenario document must be a JSON object")
    sig = doc.get("input", {"kind": "zero"})
    if not isinstance(sig, dict) or "kind" not in sig:
        raise SystemFileError("field 'input' must be an object with a 'kind'")
    kind = sig["kind"]
    try:
        if kind == "zero":
            signal = InputSignal("zero")
        elif kind == "constant":
            signal = InputSignal("constant", value=tuple(float(v) for v in sig.get("value", [])))
        elif kind == "polynomial":
            signal = InputSignal("polynomial", coefficients=tuple(
                tuple(float(c) for c in chan) for chan in sig.get("coefficients", [])))
        elif kind == "sinusoids":
            signal = InputSignal("sinusoids", terms=tuple(
                tuple((float(a), float(w), float(ph)) for a, w, ph in chan)
                for chan in sig.get("terms", [])))
        elif kind == "table":
            signal = InputSignal("table",
                                 times=tuple(float(t) for t in sig.get("times", [])),
                                 values=tuple(tuple(float(v) for v in row)
                                              for row in sig.get("values", [])))
        else:
            raise ValueError(f"unknown input kind {kind!r}")
    except (TypeError, ValueError) as exc:
        raise SystemFileError(f"field 'input': {exc}") from exc
    x0 = _scenario_field(doc, "x0", _float_tuple, [])
    xi0 = _scenario_field(doc, "xi0", _float_tuple, [])
    horizon = _scenario_field(doc, "horizon", _finite_float, 10.0)
    step = _scenario_field(doc, "step", _finite_float, 1e-3)
    try:
        return Scenario(x0, xi0, signal, horizon, step)
    except ValueError as exc:
        raise SystemFileError(f"bad scenario: {exc}") from exc


def _finite_float(raw) -> float:
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError(f"{raw!r} is not a finite number")
    return x


def _float_tuple(raw) -> tuple[float, ...]:
    return tuple(_finite_float(v) for v in raw)


def _scenario_field(doc: dict, field: str, convert, default):
    try:
        return convert(doc.get(field, default))
    except (TypeError, ValueError) as exc:
        raise SystemFileError(f"field {field!r}: {exc}") from exc


def load_scenario_file(path, horizon_fallback: float | None = None) -> Scenario:
    """Parse a scenario file; a missing horizon falls back to the supplied
    value (e.g. a spectral-abscissa-based suggestion) when one is given."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SystemFileError(f"not valid JSON: {exc.msg} (line {exc.lineno})") from exc
    if isinstance(doc, dict) and "horizon" not in doc and horizon_fallback is not None:
        doc = {**doc, "horizon": horizon_fallback}
    return parse_scenario_document(doc)


def dump_scenario_document(sc: Scenario) -> dict:
    sig: dict[str, Any] = {"kind": sc.input_signal.kind}
    if sc.input_signal.kind == "constant":
        sig["value"] = list(sc.input_signal.value)
    elif sc.input_signal.kind == "polynomial":
        sig["coefficients"] = [list(c) for c in sc.input_signal.coefficients]
    elif sc.input_signal.kind == "sinusoids":
        sig["terms"] = [[list(t) for t in chan] for chan in sc.input_signal.terms]
    elif sc.input_signal.kind == "table":
        sig["times"] = list(sc.input_signal.times)
        sig["values"] = [list(v) for v in sc.input_signal.values]
    return {"x0": list(sc.x0), "xi0": list(sc.xi0), "input": sig,
            "horizon": sc.horizon, "step": sc.step}


# -- observers -----------------------------------------------------------------

def _transfer_entry(cell, field: str) -> RationalFunction:
    """One entry of N: a rational literal or {"num": [...], "den": [...]}
    with ascending coefficients."""
    try:
        if isinstance(cell, dict):
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
    or explicit real matrices {"G", "H", "Q", "R"}; a bare {"R": ...} is a
    static gain."""
    if not isinstance(doc, dict):
        raise SystemFileError("observer document must be a JSON object")
    if "N" in doc:
        raw = doc["N"]
        if not isinstance(raw, list) or not raw or any(not isinstance(r, list) for r in raw):
            raise SystemFileError("field 'N' must be a nonempty array of arrays")
        rows = [[_transfer_entry(cell, f"N[{i}][{j}]") for j, cell in enumerate(row)]
                for i, row in enumerate(raw)]
        if any(len(row) != len(rows[0]) for row in rows):
            raise SystemFileError("field 'N': rows differ in length")
        return RationalFunctionMatrix.from_rows(rows)
    if "G" in doc or "H" in doc or "Q" in doc:
        try:
            G = np.asarray(doc["G"], dtype=float).reshape(len(doc["G"]), -1) if doc.get("G") else np.zeros((0, 0))
            H = np.asarray(doc["H"], dtype=float) if doc.get("H") else np.zeros((G.shape[0], 0))
            Q = np.asarray(doc["Q"], dtype=float) if doc.get("Q") else np.zeros((0, G.shape[0]))
            R = np.asarray(doc["R"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemFileError(f"bad realization block: {exc}") from exc
        return StateSpaceRealization(G, H, Q, R)
    if "R" in doc:
        try:
            return StateSpaceRealization.static_gain(doc["R"])
        except (TypeError, ValueError) as exc:
            raise SystemFileError(f"field 'R': {exc}") from exc
    raise SystemFileError("observer document needs 'N', 'R', or 'G'/'H'/'Q'/'R'")


def load_observer_file(path) -> StateSpaceRealization | RationalFunctionMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = _exact_loads(fh.read())
        except json.JSONDecodeError as exc:
            raise SystemFileError(f"not valid JSON: {exc.msg} (line {exc.lineno})") from exc
    return parse_observer_document(doc)


# -- report serialization ------------------------------------------------------

def to_jsonable(obj) -> Any:
    """Recursively convert certificates to JSON-safe values; rationals
    become strings, polynomials become coefficient lists plus display text."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return _fraction_str(obj)
    if isinstance(obj, Poly):
        return {"coeffs": [_fraction_str(c) for c in obj.coeffs], "text": str(obj)}
    if isinstance(obj, RationalFunction):
        return {"num": [_fraction_str(c) for c in obj.num.coeffs],
                "den": [_fraction_str(c) for c in obj.den.coeffs],
                "text": str(obj)}
    if isinstance(obj, QMatrix):
        return {"rows": obj.rows, "cols": obj.cols,
                "entries": [[_fraction_str(x) for x in row] for row in obj.data]}
    if isinstance(obj, PolyMatrix):
        return {"rows": obj.rows, "cols": obj.cols,
                "entries": [[str(e) for e in row] for row in obj.data]}
    if isinstance(obj, RationalFunctionMatrix):
        return {"rows": obj.rows, "cols": obj.cols,
                "entries": [[to_jsonable(e) for e in row] for row in obj.data]}
    if isinstance(obj, Subspace):
        return {"ambient_dim": obj.ambient_dim, "dim": obj.dim,
                "basis_columns": [[_fraction_str(x) for x in col]
                                  for col in obj.basis.columns()]}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")
