"""The plant sextuple (A, B, C, D, E, F).

State dynamics ``x' = A x + B u`` with measured output ``y = C x + D u``
and target output ``z = E x + F u``.  All blocks are exact rational
matrices; any of the dimensions n, m, p, q may be zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import QMatrix


@dataclass(frozen=True)
class SystemSextuple:
    A: QMatrix
    B: QMatrix
    C: QMatrix
    D: QMatrix
    E: QMatrix
    F: QMatrix

    def __post_init__(self):
        n, m, p, q = self.A.rows, self.B.cols, self.C.rows, self.E.rows
        if self.A.cols != n:
            raise ValueError("field 'A' must be square")
        if self.B.rows != n:
            raise ValueError(f"field 'B' must have {n} rows")
        if self.C.cols != n:
            raise ValueError(f"field 'C' must have {n} columns")
        if self.D.rows != p:
            raise ValueError("fields 'C' and 'D' must have the same number of rows")
        if self.D.cols != m:
            raise ValueError(f"field 'D' must have {m} columns")
        if self.E.cols != n:
            raise ValueError(f"field 'E' must have {n} columns")
        if self.F.rows != q:
            raise ValueError("fields 'E' and 'F' must have the same number of rows")
        if self.F.cols != m:
            raise ValueError(f"field 'F' must have {m} columns")

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def m(self) -> int:
        return self.B.cols

    @property
    def p(self) -> int:
        return self.C.rows

    @property
    def q(self) -> int:
        return self.E.rows

    @classmethod
    def from_lists(cls, A, B=None, C=None, D=None, E=None, F=None, m: int | None = None) -> "SystemSextuple":
        """Build from nested lists of rational literals; system files go
        through here too, so both share one set of rules and messages.

        A is required.  Any other block that is present is taken as given;
        a missing one is a zero block.  The input count is the width of the
        first of B, D, F that has a row, else the declared ``m``, else 0; a
        declared ``m`` must agree with it.  A missing or empty C (E) takes its row count from D
        (F), which matters for n = 0 plants where C and E carry no columns.
        Every error is a ValueError that names the field.
        """
        if A is None:
            raise ValueError("field 'A' is required")
        if m is not None and (not isinstance(m, int) or isinstance(m, bool) or m < 0):
            raise ValueError("field 'm' must be a nonnegative integer")
        given = {name: _matrix(name, rows)
                 for name, rows in zip("ABCDEF", (A, B, C, D, E, F)) if rows is not None}

        def rows_of(name: str) -> int:
            return given[name].rows if name in given else 0

        width = next(((name, given[name].cols) for name in "BDF" if rows_of(name)), None)
        if width is not None:
            if m is not None and m != width[1]:
                raise ValueError(f"field 'm' = {m} conflicts with the {width[1]} "
                                 f"columns of field {width[0]!r}")
            m = width[1]
        elif m is None:
            m = 0

        def input_block(name: str, rows: int) -> QMatrix:
            if rows_of(name):
                return given[name]
            return QMatrix.zeros(0 if name in given else rows, m)

        n = given["A"].rows
        C = given["C"] if rows_of("C") else QMatrix.zeros(rows_of("D"), n)
        E = given["E"] if rows_of("E") else QMatrix.zeros(rows_of("F"), n)
        return cls(given["A"], input_block("B", n), C, input_block("D", C.rows),
                   E, input_block("F", E.rows))

    # no command retargets a plant; the benchmark's cross-checks do
    def with_target(self, E: QMatrix, F: QMatrix) -> "SystemSextuple":
        """Same plant with a different target output block [E F]."""
        return SystemSextuple(self.A, self.B, self.C, self.D, E, F)


def _matrix(name: str, rows) -> QMatrix:
    """One given block as an exact matrix; any defect names the field."""
    if not isinstance(rows, (list, tuple)) or any(not isinstance(r, (list, tuple)) for r in rows):
        raise ValueError(f"field {name!r} must be an array of arrays")
    try:
        return QMatrix.from_rows(rows)
    except ZeroDivisionError as exc:
        raise ValueError(f"field {name!r}: zero denominator") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from exc
