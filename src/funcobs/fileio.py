"""File formats: system documents and reports.

System files are JSON with rational literals (integers, "p/q" strings, or
decimal strings/numbers); decimal literals convert exactly through
power-of-ten denominators, never through binary floating point.  Rationals
are serialized back as strings so every round trip is lossless.  Scenario
and observer documents are parsed in ``sim``, which reads their files
through ``read_text`` and ``load_json`` here and checks their keys with
``check_keys``, as system documents are checked.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .exactlin import DenseMatrix, Subspace, _check_literal
from .polymat import Poly
from .system import SystemSextuple
from .witness import RationalFunction

SCHEMA_VERSION = "2.1"


class SystemFileError(ValueError):
    """Malformed input document; the message names the offending field."""


def check_keys(doc: dict, known: tuple[str, ...]) -> None:
    """A SystemFileError naming the first key of ``doc`` outside ``known``,
    so a misspelled key is never read as a missing one."""
    for key in doc:
        if key not in known:
            raise SystemFileError(f"unknown field {key!r} (known: {', '.join(known)})")


def read_text(path) -> str:
    """The UTF-8 text of an input file.  A file that cannot be opened or
    decoded (missing, a directory, not UTF-8) is a SystemFileError naming
    the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemFileError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


_TOO_LONG = object()  # what a number past the literal bound is read as


def _holds_too_long(value) -> bool:
    if isinstance(value, dict):
        value = list(value.values())
    return value is _TOO_LONG or (isinstance(value, list) and any(map(_holds_too_long, value)))


def load_json(text: str, parse_float=Fraction):
    """Parse a JSON document.  parse_float receives the raw literal, so by
    default "0.1" becomes 1/10 exactly.  A number past the literal bound
    of ``exactlin._check_literal`` is never built: the SystemFileError
    names the top-level field that holds the first one."""
    errors: list[str] = []

    def bounded(parse):
        def hook(literal: str):
            try:
                _check_literal(literal)
            except ValueError as exc:
                errors.append(str(exc))
                return _TOO_LONG
            return parse(literal)
        return hook

    try:
        doc = json.loads(text, parse_int=bounded(int), parse_float=bounded(parse_float))
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if errors:
        fields = [k for k, v in doc.items() if _holds_too_long(v)] if isinstance(doc, dict) else []
        raise SystemFileError(f"field {fields[0]!r}: {errors[0]}" if fields else errors[0])
    return doc


_PLANT_FIELDS = ("A", "B", "C", "D", "E", "F", "m")
_META_FIELDS = ("name", "description", "expected")


def parse_system_document(doc: dict) -> tuple[SystemSextuple, dict]:
    """Build the plant with ``SystemSextuple.from_lists`` and return it
    with the metadata (name, description, expected).  Any other key is an
    error, so a misspelled field never leaves its block at the default."""
    if not isinstance(doc, dict):
        raise SystemFileError("system document must be a JSON object")
    check_keys(doc, _PLANT_FIELDS + _META_FIELDS)
    for key in ("name", "description"):
        if key in doc and not isinstance(doc[key], str):
            raise SystemFileError(f"field {key!r} must be a string")
    try:
        sys = SystemSextuple.from_lists(**{k: doc.get(k) for k in _PLANT_FIELDS})
    except ValueError as exc:
        raise SystemFileError(str(exc)) from exc
    meta = {k: doc[k] for k in _META_FIELDS if k in doc}
    return sys, meta


def load_system_text(text: str) -> tuple[SystemSextuple, dict]:
    return parse_system_document(load_json(text))


# no command runs it; CI writes its large-n smoke plant with it
def dump_system_document(sys: SystemSextuple, meta: dict | None = None) -> dict:
    doc: dict[str, Any] = {}
    meta = meta or {}
    for key in ("name", "description"):
        if key in meta:
            doc[key] = meta[key]
    doc["A"] = [[str(x) for x in row] for row in sys.A.data]
    if sys.m:
        doc["B"] = [[str(x) for x in row] for row in sys.B.data]
    # a written B, D or F carries the input count only in a row
    if not (sys.m and (sys.n or sys.p or sys.q)):
        doc["m"] = sys.m
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


# -- report serialization ------------------------------------------------------

def to_jsonable(obj) -> Any:
    """Recursively convert certificates to JSON-safe values; rationals
    become strings, polynomials become coefficient lists plus display text.
    A record (a ``NamedTuple``) becomes an object keyed by its fields in
    declaration order, not the list its tuple base would give."""
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
    if hasattr(obj, "_fields"):
        return {name: to_jsonable(value) for name, value in zip(obj._fields, obj)}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    raise TypeError(f"cannot serialize {type(obj).__name__}")
