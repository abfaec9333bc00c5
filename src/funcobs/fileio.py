"""File formats: system documents, scenarios, observers, reports.

System files are JSON with rational literals (integers, "p/q" strings, or
decimal strings/numbers); decimal literals convert exactly through
power-of-ten denominators, never through binary floating point.  Rationals
are serialized back as strings so every round trip is lossless.
"""

from __future__ import annotations

import json
import math
import sys as _sys
from dataclasses import is_dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .exactlin import DenseMatrix, Subspace, as_fraction
from .polymat import Poly
from .system import SystemSextuple
from .witness import RationalFunction, RationalFunctionMatrix

if TYPE_CHECKING:  # the float layer loads numpy, so its parsers import it themselves
    import numpy as np

    from .sim import Scenario, StateSpaceRealization

SCHEMA_VERSION = "2.0"


class SystemFileError(ValueError):
    """Malformed input document; the message names the offending field."""


def read_text(path) -> str:
    """The UTF-8 text of an input file.  A file that cannot be opened or
    decoded (missing, a directory, not UTF-8) is a SystemFileError naming
    the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemFileError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _loads(text: str, parse_float=Fraction):
    """Parse a JSON document.  parse_float receives the raw literal, so by
    default "0.1" becomes 1/10 exactly."""
    try:
        return json.loads(text, parse_float=parse_float)
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


_PLANT_FIELDS = ("A", "B", "C", "D", "E", "F", "m")
_META_FIELDS = ("name", "description", "expected")


def parse_system_document(doc: dict) -> tuple[SystemSextuple, dict]:
    """Build the plant with ``SystemSextuple.from_lists`` and return it
    with the metadata (name, description, expected).  Any other key is an
    error, so a misspelled field never leaves its block at the default."""
    if not isinstance(doc, dict):
        raise SystemFileError("system document must be a JSON object")
    for key in doc:
        if key not in _PLANT_FIELDS + _META_FIELDS:
            raise SystemFileError(f"unknown field {key!r} "
                                  f"(known: {', '.join(_PLANT_FIELDS + _META_FIELDS)})")
    for key in ("name", "description"):
        if key in doc and not isinstance(doc[key], str):
            raise SystemFileError(f"field {key!r} must be a string")
    if "A" not in doc:
        raise SystemFileError("field 'A' is required")
    try:
        sys = SystemSextuple.from_lists(**{k: doc[k] for k in _PLANT_FIELDS if k in doc})
    except ValueError as exc:
        raise SystemFileError(str(exc)) from exc
    meta = {k: doc[k] for k in _META_FIELDS if k in doc}
    return sys, meta


def load_system_text(text: str) -> tuple[SystemSextuple, dict]:
    return parse_system_document(_loads(text))


def dump_system_document(sys: SystemSextuple, meta: dict | None = None) -> dict:
    doc: dict[str, Any] = {}
    meta = meta or {}
    for key in ("name", "description"):
        if key in meta:
            doc[key] = meta[key]
    doc["A"] = [[str(x) for x in row] for row in sys.A.data]
    if sys.m:
        doc["B"] = [[str(x) for x in row] for row in sys.B.data]
    else:
        doc["m"] = 0
    if sys.p:
        doc["C"] = [[str(x) for x in row] for row in sys.C.data]
        if sys.m:
            doc["D"] = [[str(x) for x in row] for row in sys.D.data]
    if sys.q:
        doc["E"] = [[str(x) for x in row] for row in sys.E.data]
        if sys.m:
            doc["F"] = [[str(x) for x in row] for row in sys.F.data]
    for key, value in meta.items():
        if key not in doc:
            doc[key] = value
    return doc


# -- scenarios ---------------------------------------------------------------

def parse_scenario_document(doc: dict) -> Scenario:
    from .sim import InputSignal, Scenario

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
            signal = InputSignal("constant", value=_float_tuple(sig.get("value", [])))
        elif kind == "polynomial":
            signal = InputSignal("polynomial", coefficients=tuple(
                _float_tuple(chan) for chan in sig.get("coefficients", [])))
        elif kind == "sinusoids":
            signal = InputSignal("sinusoids", terms=tuple(
                tuple((a, w, ph) for a, w, ph in map(_float_tuple, chan))
                for chan in sig.get("terms", [])))
        elif kind == "table":
            signal = InputSignal("table", times=_float_tuple(sig.get("times", [])),
                                 values=tuple(map(_float_tuple, sig.get("values", []))))
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
    if isinstance(raw, bool):
        raise TypeError(f"{raw!r} is not a number")
    try:
        x = float(raw)
    except OverflowError as exc:  # an exact literal such as 1e400
        raise ValueError("number out of the floating-point range") from exc
    if not math.isfinite(x):
        raise ValueError(f"{raw!r} is not a finite number")
    return x


def _float_tuple(raw) -> tuple[float, ...]:
    if not isinstance(raw, list):
        raise TypeError(f"{raw!r} is not an array of numbers")
    return tuple(_finite_float(v) for v in raw)


def _float_matrix(raw, field: str) -> np.ndarray:
    """An array of equal-length arrays of finite numbers as a float matrix."""
    import numpy as np

    if not isinstance(raw, list):
        raise SystemFileError(f"field {field!r} must be an array of arrays")
    try:
        rows = [_float_tuple(row) for row in raw]
    except (TypeError, ValueError) as exc:
        raise SystemFileError(f"field {field!r}: {exc}") from exc
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise SystemFileError(f"field {field!r}: rows differ in length")
    return np.array(rows, dtype=float).reshape(len(rows), width)


def _scenario_field(doc: dict, field: str, convert, default):
    try:
        return convert(doc.get(field, default))
    except (TypeError, ValueError) as exc:
        raise SystemFileError(f"field {field!r}: {exc}") from exc


def load_scenario_file(path, horizon_fallback: float | None = None) -> Scenario:
    """Parse a scenario file; a missing horizon falls back to the supplied
    value (e.g. a spectral-abscissa-based suggestion) when one is given."""
    doc = _loads(read_text(path), float)
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
    if any(name in doc for name in ("G", "H", "Q", "R")):
        import numpy as np

        from .sim import StateSpaceRealization

        if "R" not in doc:
            raise SystemFileError("field 'R' is required")
        # an absent G, H or Q is a zero block of the shape that fits G and R
        R = _float_matrix(doc["R"], "R")
        G = _float_matrix(doc["G"], "G") if "G" in doc else np.zeros((0, 0))
        H = _float_matrix(doc["H"], "H") if "H" in doc else np.zeros((G.shape[0], R.shape[1]))
        Q = _float_matrix(doc["Q"], "Q") if "Q" in doc else np.zeros((R.shape[0], G.shape[0]))
        return StateSpaceRealization(G, H, Q, R)
    raise SystemFileError("observer document needs 'N', 'R', or 'G'/'H'/'Q'/'R'")


def load_observer_file(path) -> StateSpaceRealization | RationalFunctionMatrix:
    return parse_observer_document(_loads(read_text(path)))


# -- report serialization ------------------------------------------------------

def to_jsonable(obj) -> Any:
    """Recursively convert certificates to JSON-safe values; rationals
    become strings, polynomials become coefficient lists plus display text."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Poly):
        return {"coeffs": [str(c) for c in obj.coeffs], "text": str(obj)}
    if isinstance(obj, RationalFunction):
        return {"num": [str(c) for c in obj.num.coeffs],
                "den": [str(c) for c in obj.den.coeffs],
                "text": str(obj)}
    if isinstance(obj, DenseMatrix):
        return {"rows": obj.rows, "cols": obj.cols,
                "entries": [[to_jsonable(e) for e in row] for row in obj.data]}
    if isinstance(obj, Subspace):
        return {"ambient_dim": obj.ambient_dim, "dim": obj.dim,
                "basis_columns": [[str(x) for x in row] for row in obj.rows]}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    np = _sys.modules.get("numpy")  # no array can exist before numpy is loaded
    if np is not None and isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")
