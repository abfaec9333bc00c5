"""Malformed system, scenario and observer documents through the CLI.

Each document is drawn well formed and then damaged: a field dropped or
replaced by a null, a boolean, a string, an empty or ragged array or an
object, an unknown input kind, or an extra key.  Whatever the document,
a command returns 0, 1 or 2, no exception escapes ``main``, and exit 2
comes with an ``error:`` line on stderr; for a system document that line
quotes the field it is about, and a system, observer or scenario document
with an added top-level ``extra`` key exits 2 naming it.  Horizons and
steps are drawn so that a valid scenario takes at most 10^4 steps.
"""

import contextlib
import io
import json

from hypothesis import example, given, strategies as st

from funcobs.cli import main

_SPECIALIZE = ["--specialize", "hautus", "--specialize", "leftinv", "--specialize", "darouach"]

# junk for any field: scalars of every JSON type, empty, ragged and nested
# arrays, and objects
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                    st.sampled_from(["", "x", "1/0", "2/3", "0.25", "nan"]),
                    st.sampled_from([float("nan"), float("inf"), -0.5, 0.0, 2.5]))
_JUNK = st.one_of(_LEAVES,
                  st.lists(_LEAVES, max_size=3),
                  st.lists(st.lists(_LEAVES, max_size=3), max_size=3),
                  st.dictionaries(st.sampled_from(["kind", "num", "functional", "zz"]),
                                  _LEAVES, max_size=2))


def _matrix(entries, rows: int, cols: int):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _damage(draw, doc: dict, keys: list[str]) -> dict:
    """Drop fields, replace them by junk, or add an unknown one."""
    for key in draw(st.lists(st.sampled_from(keys + ["extra"]), max_size=2, unique=True)):
        if key in doc and draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(_JUNK)
    return doc


_RATIONALS = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-3/4", "0.25"]))


_SYSTEM_FIELDS = ["A", "B", "C", "D", "E", "F", "m", "name", "description", "expected"]


@st.composite
def _system_documents(draw):
    n, m, p, q = (draw(st.integers(0, 3)) for _ in range(4))
    shapes = {"A": (n, n), "B": (n, m), "C": (p, n), "D": (p, m), "E": (q, n), "F": (q, m)}
    doc = {k: draw(_matrix(_RATIONALS, r, c)) for k, (r, c) in shapes.items()}
    doc["m"] = m
    return _damage(draw, doc, _SYSTEM_FIELDS)


_NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-4, 4))
_CELLS = st.one_of(_NUMBERS,
                   st.fixed_dictionaries({"num": st.lists(_NUMBERS, max_size=3),
                                          "den": st.lists(_NUMBERS, min_size=1, max_size=3)}))
# stable_pair, the plant the documents run on, has n = 2, m = 0, p = 2 and
# q = 1: most draws fit it, the others are one row or column off
_FITS = st.sampled_from([True, True, True, True, False])


def _sized(draw, fits: int, off: int) -> int:
    return fits if draw(_FITS) else off


@st.composite
def _observer_documents(draw):
    form = draw(st.sampled_from(["N", "R", "GHQR"]))
    rows, cols = _sized(draw, 1, 2), _sized(draw, 2, 3)
    if form == "N":
        doc = {"N": draw(_matrix(_CELLS, rows, cols))}
    elif form == "R":
        doc = {"R": draw(_matrix(_NUMBERS, rows, cols))}
    else:
        nu = draw(st.integers(0, 2))
        doc = {"G": draw(_matrix(_NUMBERS, nu, nu)), "H": draw(_matrix(_NUMBERS, nu, cols)),
               "Q": draw(_matrix(_NUMBERS, rows, nu)), "R": draw(_matrix(_NUMBERS, rows, cols))}
    return _damage(draw, doc, ["N", "G", "H", "Q", "R"])


@st.composite
def _input_signals(draw):
    kind = draw(st.sampled_from(["zero", "constant", "polynomial", "sinusoids", "table", "ramp"]))
    channels = _sized(draw, 0, 1)
    signal = {"kind": kind}
    if kind == "constant":
        signal["value"] = draw(st.lists(_NUMBERS, min_size=channels, max_size=channels))
    elif kind == "polynomial":
        signal["coefficients"] = draw(_matrix(_NUMBERS, channels, draw(st.integers(0, 2))))
    elif kind == "sinusoids":
        signal["terms"] = draw(st.lists(_matrix(_NUMBERS, draw(st.integers(0, 2)), 3),
                                        min_size=channels, max_size=channels))
    elif kind == "table":
        samples = draw(st.integers(1, 3))
        signal["times"] = sorted(draw(st.lists(st.floats(0, 5), min_size=samples,
                                               max_size=samples, unique=True)))
        signal["values"] = draw(_matrix(_NUMBERS, samples, channels))
    return _damage(draw, signal, ["kind", *signal])


@st.composite
def _scenario_documents(draw):
    size = _sized(draw, 2, 3)
    # without xi0 the observer starts at rest, whatever its order
    doc = {"x0": draw(st.lists(_NUMBERS, min_size=size, max_size=size)),
           "input": draw(_input_signals()),
           # at most 50 / 0.01 = 5000 steps
           "horizon": draw(st.floats(0.01, 50)),
           "step": draw(st.sampled_from([0.01, 0.05, 0.1, 0.5]))}
    return _damage(draw, doc, ["x0", "xi0", "input"])


def _run(argv: list[str]) -> list[str]:
    """The ``error:`` lines of a command that exits 2, which must print one."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    if code != 2:
        return []
    assert errors
    return errors


def _names_extra(doc: dict, errors: list[str]) -> None:
    """A document with the unknown key ``extra`` exits 2 naming it."""
    if "extra" in doc:
        assert any("'extra'" in line for line in errors), errors


def _write(directory, name: str, doc) -> str:
    path = directory / name
    path.write_text(json.dumps(doc))
    return str(path)


@given(_system_documents())
@example({"A": None})
def test_system_documents(tmp_path_factory, doc):
    path = _write(tmp_path_factory.mktemp("system"), "plant.json", doc)
    # an error names the field it is about, known or unknown, in quotes
    fields = {*_SYSTEM_FIELDS, *doc}
    for argv in (["check", path, "--all", *_SPECIALIZE], ["witness", path]):
        errors = _run(argv)
        for line in errors:
            assert any(f"'{field}'" in line for field in fields), line
        _names_extra(doc, errors)


# the observer is read first, so its keys are checked whatever the scenario
@given(_observer_documents(), _scenario_documents())
def test_observer_and_scenario_documents(tmp_path_factory, observer, scenario):
    directory = tmp_path_factory.mktemp("simulate")
    _names_extra(observer, _run(["simulate", "stable_pair",
                                 _write(directory, "obs.json", observer),
                                 _write(directory, "sc.json", scenario)]))


# behind an observer that fits stable_pair, the scenario's keys are checked
@given(_scenario_documents())
@example({"x0": [1.0, 0.0], "extra": None})
def test_scenario_documents(tmp_path_factory, scenario):
    directory = tmp_path_factory.mktemp("scenario")
    _names_extra(scenario, _run(["simulate", "stable_pair",
                                 _write(directory, "obs.json", {"R": [[1, 0]]}),
                                 _write(directory, "sc.json", scenario)]))
