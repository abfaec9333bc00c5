import json
import os
import subprocess
import sys as _sys
from pathlib import Path

import pytest

from funcobs import cli, decide
from funcobs.cli import main
from funcobs.corpus import bundled_names, bundled_text
from funcobs.exactlin import QMatrix
from funcobs.fileio import (SystemFileError, dump_system_document, load_system_text,
                            to_jsonable)
from funcobs.system import SystemSextuple

EXPECTED_CHECKS = {
    "functional": decide.functional_detectable,
    "strongly": decide.strongly_functional_detectable,
    "strong_star": decide.strong_star_functional_detectable,
    "hautus_strong": decide.hautus_strong_detectable,
    "hautus_strong_star": decide.hautus_strong_star_detectable,
    "left_invertible": decide.asympt_strong_left_invertible,
    "left_invertible_star": decide.asympt_strong_star_left_invertible,
    "darouach": decide.darouach_fixed_order,
}


def zero_input_json(x0, horizon, xi0=()) -> str:
    """A scenario document with the zero input, written as JSON text."""
    return json.dumps({"x0": list(x0), "xi0": list(xi0), "input": {"kind": "zero"},
                       "horizon": horizon, "step": 0.001})


GOLDEN_DIR = Path(__file__).parent / "data"

GOLDEN_COMMANDS = {
    "check": ["--all", "--specialize", "hautus", "--specialize", "leftinv",
              "--specialize", "darouach"],
    "witness": [],
}


class TestGoldenReports:
    """``--out`` reports of the bundled systems, byte for byte, against
    reports regenerated at schema 2.1, when ``reachable_steps`` came to
    count T*'s steps and the witness report's Toeplitz diagnostic gave way
    to the strong-star ``inclusion`` certificate; only the ``timing`` key
    is dropped.  Any change of exact representation must leave
    certificates and canonical bases as they are."""

    @pytest.mark.parametrize("command", sorted(GOLDEN_COMMANDS))
    @pytest.mark.parametrize("name", bundled_names())
    def test_report_matches_golden(self, tmp_path, capsys, name, command):
        out = tmp_path / "report.json"
        main([command, name, *GOLDEN_COMMANDS[command], "--out", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text(encoding="utf-8"))
        del doc["timing"]
        golden = GOLDEN_DIR / f"{name}.{command}.json"
        assert json.dumps(doc, indent=2) + "\n" == golden.read_text(encoding="utf-8")

    def test_every_golden_file_is_checked(self):
        names = {f"{n}.{c}.json" for n in bundled_names() for c in GOLDEN_COMMANDS}
        assert {p.name for p in GOLDEN_DIR.glob("*.json")} == names


class TestParsing:
    def test_rational_literals(self):
        text = json.dumps({"A": [["1/2", 0.25], [0, "3"]], "C": [[1, 0]],
                           "E": [[0, 1]], "m": 0})
        sys, _ = load_system_text(text)
        from fractions import Fraction
        assert sys.A[0, 0] == Fraction(1, 2)
        assert sys.A[0, 1] == Fraction(1, 4)

    def test_decimal_is_exact(self):
        sys, _ = load_system_text(json.dumps({"A": [[0.1]], "C": [[1]], "E": [[1]], "m": 0}))
        from fractions import Fraction
        assert sys.A[0, 0] == Fraction(1, 10)

    def test_missing_input_blocks_default(self):
        sys, _ = load_system_text(json.dumps({"A": [[1]], "C": [[1]], "E": [[1]]}))
        assert sys.m == 0

    def test_declared_m_with_zero_blocks(self):
        sys, _ = load_system_text(json.dumps({"A": [[1]], "C": [[1]], "E": [[1]], "m": 2}))
        assert sys.m == 2
        assert sys.B == QMatrix.zeros(1, 2)

    def test_truncated_document(self):
        with pytest.raises(SystemFileError):
            load_system_text('{"A": [[1], ')

    def test_dimension_conflict(self):
        with pytest.raises(SystemFileError):
            load_system_text(json.dumps({"A": [[1, 0]], "C": [[1]]}))

    def test_roundtrip_on_bundled_corpus(self):
        for name in bundled_names():
            sys1, meta1 = load_system_text(bundled_text(name))
            doc = dump_system_document(sys1, meta1)
            sys2, meta2 = load_system_text(json.dumps(doc))
            assert sys1 == sys2
            assert meta1 == meta2 and set(meta1) == {"name", "description", "expected"}


KNOWN_KEYS = "known: A, B, C, D, E, F, m, name, description, expected"


class TestSystemFileKeys:
    """A system file holds the plant fields, m, name, description and
    expected.  Any other key, or a name or description that is not a
    string, exits 2 naming the field: a misspelled block must not leave
    the plant with a zero block in its place."""

    @pytest.mark.parametrize("doc, message", [
        ({"A": [[0]], "b": [[1]], "C": [[1]], "E": [[0]], "F": [[1]]}, "unknown field 'b'"),
        ({"A": [[1]], "C": [[1]], "E": [[1]], "Expected": {"functional": True}},
         "unknown field 'Expected'"),
        ({"name": 3, "A": [[1]], "C": [[1]], "E": [[1]]}, "field 'name' must be a string"),
        ({"description": ["x"], "A": [[1]], "C": [[1]], "E": [[1]]},
         "field 'description' must be a string"),
    ])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, doc, message):
        path = tmp_path / "plant.json"
        path.write_text(json.dumps(doc))
        for command in ("check", "witness"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
            if message.startswith("unknown"):
                assert KNOWN_KEYS in err

    def test_batch_reports_the_bad_file(self, tmp_path, capsys):
        (tmp_path / "misspelled.json").write_text(json.dumps(
            {"A": [[0]], "b": [[1]], "C": [[1]], "E": [[0]], "F": [[1]]}))
        (tmp_path / "stable_pair.json").write_text(bundled_text("stable_pair"))
        assert main(["batch", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "misspelled.json: exit 2" in captured.out
        assert "stable_pair.json: ok" in captured.out
        assert "unknown field 'b'" in captured.err and "Traceback" not in captured.err


# Edge documents where the library builder and the file reader used to part,
# with the plant's (n, m, p, q) or the field that the error names.
PARITY_DOCS = [
    ({"A": [[0]], "D": [[1]]}, (1, 1, 1, 0)),
    ({"A": [], "D": [[1]], "F": [[1]]}, (0, 1, 1, 1)),
    ({"A": [[0]], "F": [[1]]}, (1, 1, 0, 1)),
    ({"A": [[0]], "B": [[1]], "m": 2}, "'m'"),
    ({"A": [[0]], "C": [[1]], "D": [[1]], "m": 0}, "'m'"),
    ({"A": [[0]], "B": [], "m": 1}, "'B'"),
    ({"A": [[0]], "C": [], "D": []}, (1, 0, 0, 0)),
    ({"A": None}, "'A'"),
]


class TestLibraryFileParity:
    """``SystemSextuple.from_lists`` and a system file give the same plant,
    or the same error naming the field."""

    @pytest.mark.parametrize("doc, expected", PARITY_DOCS)
    def test_same_plant_or_same_error(self, doc, expected):
        if isinstance(expected, tuple):
            plant = SystemSextuple.from_lists(**doc)
            assert (plant.n, plant.m, plant.p, plant.q) == expected
            assert load_system_text(json.dumps(doc))[0] == plant
            return
        with pytest.raises(ValueError) as library:
            SystemSextuple.from_lists(**doc)
        with pytest.raises(SystemFileError) as from_file:
            load_system_text(json.dumps(doc))
        assert str(from_file.value) == str(library.value)
        assert f"field {expected}" in str(library.value)


class TestBundledRegression:
    def test_expected_verdicts_match_computed(self):
        for name in bundled_names():
            sys, meta = load_system_text(bundled_text(name))
            for key, want in meta.get("expected", {}).items():
                got = EXPECTED_CHECKS[key](sys).holds
                assert got == want, f"{name}: {key} expected {want}, got {got}"

    def test_cmd_check_reports_no_regressions(self, capsys):
        for name in bundled_names():
            main(["check", name, "--all", "--specialize", "hautus",
                  "--specialize", "leftinv", "--specialize", "darouach"])
            out = capsys.readouterr().out
            assert "REGRESSION" not in out, f"{name}: {out}"


class TestCmdCheck:
    def test_all_properties_exit_codes(self, capsys):
        # strong-star fails on the chain, so --all exits 1
        assert main(["check", "integrator_chain", "--all"]) == 1
        out = capsys.readouterr().out
        assert "strongly_functional_detectable" in out and ": yes" in out

    def test_strong_star_pass(self):
        assert main(["check", "stable_pair", "--strong-star"]) == 0

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/system.json"]) == 2

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"A": [[1], ')
        assert main(["check", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option", [
        (["check", "stable_pair"], "--out"),
        (["witness", "stable_pair"], "--out"),
        (["simulate", "stable_pair", "OBS", "SC"], "--csv"),
    ])
    def test_unwritable_output_path(self, tmp_path, capsys, command, option):
        (tmp_path / "OBS").write_text(json.dumps({"R": [[1, 0]]}))
        (tmp_path / "SC").write_text(zero_input_json([1.0, -2.0], 1.0))
        argv = [str(tmp_path / a) if a in ("OBS", "SC") else a for a in command]
        target = tmp_path / "no" / "such" / "dir" / "x.out"
        assert main([*argv, option, str(target)]) == 2
        err = capsys.readouterr().err
        assert f"error: option '{option}':" in err
        assert "Traceback" not in err
        assert not target.exists()

    @pytest.mark.parametrize("doc, field", [
        ({"A": [["1/0"]]}, "'A'"),
        ({"A": [[0]], "B": [["2/0"]]}, "'B'"),
        ({"A": [[0]], "C": [["1/0"]]}, "'C'"),
        ({"A": [[0]], "C": [[1]], "D": [["0/0"]]}, "'D'"),
        ({"A": [[0]], "E": [["-3/0"]]}, "'E'"),
        ({"A": [[0]], "B": [[1]], "E": [[1]], "F": [["1/0"]]}, "'F'"),
    ])
    def test_zero_denominator(self, tmp_path, capsys, doc, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for command in ("check", "witness"):
            assert main([command, str(bad)]) == 2
            assert f"field {field}: zero denominator" in capsys.readouterr().err

    def test_batch_survives_zero_denominator(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text(json.dumps({"A": [["1/0"]]}))
        (tmp_path / "stable_pair.json").write_text(bundled_text("stable_pair"))
        assert main(["batch", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "bad.json: exit 2" in out
        assert "stable_pair.json: ok" in out

    @pytest.mark.parametrize("doc, field", [
        ({"A": [[True]]}, "'A'"),
        ({"A": [[0]], "B": [[False]]}, "'B'"),
        ({"A": [[0]], "C": [[1]], "D": [[True]]}, "'D'"),
        ({"A": [[0]], "E": [[1]], "F": [[True]], "B": [[1]]}, "'F'"),
        ({"A": [[0]], "C": [[1]], "m": True}, "'m'"),
        ({"A": None}, "'A'"),
    ])
    def test_boolean_in_system(self, tmp_path, capsys, doc, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["check", str(bad)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("observer, field", [
        ({"N": [[True, 0]]}, "'N[0][0]'"),
        ({"N": [[0, {"num": [False, 1]}]]}, "'N[0][1]'"),
        ({"N": [[{"num": [1], "den": [True]}, 0]]}, "'N[0][0]'"),
    ])
    def test_boolean_in_observer(self, tmp_path, capsys, observer, field):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps(observer))
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"x0": [1.0, 0.0]}))
        assert main(["simulate", "stable_pair", str(obs), str(sc)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", [
        ({"A": [[0]], "C": [[1]], "D": [5]}, "'D'"),
        ({"A": [[0]], "C": [[1]], "D": 3}, "'D'"),
        ({"A": [[0]], "E": [[1]], "F": [7]}, "'F'"),
    ])
    def test_malformed_feedthrough_block(self, tmp_path, capsys, doc, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["check", str(bad)]) == 2
        assert field in capsys.readouterr().err

    # stable_pair has no input, so a table of zero-width rows fits it
    @pytest.mark.parametrize("signal", [
        {"kind": "constant", "value": ["x"]},
        {"kind": "table", "times": [0, 1], "values": 3},
        {"kind": "table", "times": [2, 0], "values": [[], []]},
        {"kind": "table", "times": [0, 0], "values": [[], []]},
        {"kind": "table", "times": [0, 1], "values": [[], [0]]},
        {"kind": "table", "times": [0, 1, 2], "values": [[], []]},
    ])
    def test_malformed_scenario_input(self, tmp_path, capsys, signal):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"R": [[1, 0]]}))
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"x0": [1.0, 0.0], "input": signal}))
        assert main(["simulate", "stable_pair", str(obs), str(sc)]) == 2
        assert "'input'" in capsys.readouterr().err

    @pytest.mark.parametrize("observer, field", [
        ({"N": 3}, "'N'"),
        ({"N": [[{"num": ["x"]}]]}, "'N[0][0]'"),
        ({"N": [[1, {"num": [1], "den": "s"}]]}, "'N[0][1]'"),
        ({"N": [[1, 2], [3]]}, "'N'"),
        ({"R": [[1, "a"]]}, "'R'"),
    ])
    def test_malformed_observer(self, tmp_path, capsys, observer, field):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps(observer))
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"x0": [0.0]}))
        assert main(["simulate", "state_estimation_demo", str(obs), str(sc)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("update, field", [
        ({"x0": ["a"]}, "'x0'"),
        ({"xi0": ["b"]}, "'xi0'"),
        ({"horizon": "z"}, "'horizon'"),
        ({"horizon": float("inf")}, "'horizon'"),
        ({"step": [1]}, "'step'"),
    ])
    def test_malformed_scenario_field(self, tmp_path, capsys, update, field):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"R": [[1, 0]]}))
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"x0": [1.0, 0.0], **update}))
        assert main(["simulate", "stable_pair", str(obs), str(sc)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("observer, scenario, field", [
        ('{"R": [[true]]}', '{"x0": [1]}', "'R'"),
        ('{"R": [[NaN]]}', '{"x0": [1]}', "'R'"),
        ('{"R": [[1e400]]}', '{"x0": [1]}', "'R'"),
        ('{"G": [[false]], "H": [[1]], "Q": [[1]], "R": [[0]]}', '{"x0": [1]}', "'G'"),
        ('{"G": [[-1]], "H": [["a"]], "Q": [[1]], "R": [[0]]}', '{"x0": [1]}', "'H'"),
        ('{"G": [[-1]], "H": [[1]], "Q": [[Infinity]], "R": [[0]]}', '{"x0": [1]}', "'Q'"),
        ('{"R": [[1]]}', '{"x0": [true]}', "'x0'"),
        ('{"R": [[1]]}', '{"x0": [1], "input": {"kind": "constant", "value": [true]}}',
         "'input'"),
        ('{"R": [[1]]}', '{"x0": [1], "input": {"kind": "polynomial", "coefficients": [[0, NaN]]}}',
         "'input'"),
        ('{"R": [[1]]}', '{"x0": [1], "input": {"kind": "sinusoids", "terms": [[[1, NaN, 0]]]}}',
         "'input'"),
        ('{"R": [[1]]}', '{"x0": [1], "input": {"kind": "table", "times": [0, 1], '
                         '"values": [[0], [Infinity]]}}', "'input'"),
    ])
    def test_boolean_or_non_finite_float_field(self, tmp_path, capsys, observer, scenario, field):
        obs = tmp_path / "obs.json"
        obs.write_text(observer)
        sc = tmp_path / "sc.json"
        sc.write_text(scenario)
        assert main(["simulate", "state_estimation_demo", str(obs), str(sc)]) == 2
        assert field in capsys.readouterr().err

    def test_step_instability_exits_2(self, tmp_path, capsys):
        plant = tmp_path / "stiff.json"
        plant.write_text(json.dumps({"A": [[-10000]], "C": [[1]], "E": [[1]], "m": 0}))
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"R": [[0]]}))
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"x0": [1.0], "horizon": 1.0, "step": 0.001}))
        assert main(["simulate", str(plant), str(obs), str(sc)]) == 2
        assert "state norm exceeded 1e+12 at t = 0.005;" in capsys.readouterr().err

    def test_observer_of_wrong_width(self, tmp_path, capsys):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"R": [[1]]}))  # stable_pair has p = 2
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"x0": [1.0, 0.0]}))
        assert main(["simulate", "stable_pair", str(obs), str(sc)]) == 2
        assert "observer block R" in capsys.readouterr().err

    def test_structured_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check", "integrator_chain", "--all",
                     "--specialize", "leftinv", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["schema_version"] == "2.1"
        names = [v["name"] for v in report["verdicts"]]
        assert decide.STRONGLY in names and decide.LEFT_INVERTIBLE in names
        strong = next(v for v in report["verdicts"] if v["name"] == decide.STRONGLY)
        assert strong["holds"] is True
        cert = strong["certificate"]
        assert cert["normrank_p"] == 3 and cert["normrank_pe"] == 3
        assert cert["zero_poly_p"]["coeffs"] == ["1", "1"]
        assert "timing" in report and report["timing"]["parse_s"] >= 0

    def test_strong_star_inclusion_holds_only_what_decides_it(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["check", "integrator_chain", "--strong-star", "--out", str(out)]) == 1
        assert "chain-reachable dim 1; inclusion fails" in capsys.readouterr().out
        (verdict,) = json.loads(out.read_text())["verdicts"]
        inc = verdict["certificate"]["inclusion"]
        assert set(inc) == {"holds", "reachable", "reachable_steps", "violation"}

    def test_regression_mismatch_detected(self, tmp_path, capsys):
        doc = json.loads(bundled_text("stable_pair"))
        doc["expected"] = {"strong_star": False}  # deliberately wrong
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path), "--all"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    @pytest.mark.parametrize("expected, message", [
        ({"functional": "no"}, "'functional'"),       # bool("no") is True
        ({"functional": 0}, "'functional'"),
        ({"functionl": True}, "'functionl'"),          # a misspelled key
        (["functional"], "'expected'"),
        (None, "'expected'"),
    ])
    def test_malformed_expected_block(self, tmp_path, capsys, expected, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"A": [[1]], "E": [[1]], "expected": expected}))
        assert main(["check", str(path), "--functional"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "REGRESSION" not in captured.out

    def test_specialized_checks(self, capsys):
        assert main(["check", "state_estimation_demo", "--specialize", "hautus"]) == 0
        assert main(["check", "fixed_order_demo", "--specialize", "darouach"]) == 0

    def test_repeated_specialize_runs_once(self, tmp_path, capsys):
        reports = []
        for repeat in (1, 2):
            out = tmp_path / f"report{repeat}.json"
            main(["check", "stable_pair", *["--specialize", "hautus"] * repeat,
                  "--out", str(out)])
            reports.append((capsys.readouterr().out, json.loads(out.read_text())))
        (once_out, once), (twice_out, twice) = reports
        assert twice_out == once_out
        assert twice["verdicts"] == once["verdicts"]
        assert [v["name"] for v in once["verdicts"]] == [
            decide.HAUTUS_STRONG, decide.HAUTUS_STRONG_STAR]
        assert list(twice["timing"]) == list(once["timing"])


class TestCmdWitness:
    def test_proper_unstable_family(self, capsys):
        assert main(["witness", "measured_input"]) == 0
        out = capsys.readouterr().out
        assert "proper" in out and "stable" in out and "False" in out

    def test_unsolvable(self, capsys):
        assert main(["witness", "feedthrough_gap"]) == 1
        assert "unsolvable" in capsys.readouterr().out

    def test_copy_target_constant_solution(self, tmp_path, capsys):
        doc = {"A": [[-1]], "B": [[1]], "C": [[1]], "D": [[0]],
               "E": [[1]], "F": [[0]]}
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "w.json"
        assert main(["witness", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["witness"]["solvable_over_field"] is True
        assert report["witness"]["residual_zero"] is True


    def test_prints_the_strong_star_inclusion(self, capsys):
        # the --out report's "inclusion" key is held by the goldens
        assert main(["witness", "integrator_chain"]) == 0
        printed = capsys.readouterr().out
        assert "strong-star inclusion : chain-reachable dim 1; inclusion fails" in printed
        assert "violating reachable state: (0, 0, 1)" in printed


class TestCmdSimulate:
    def test_static_observer_exact(self, tmp_path, capsys):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"R": [[1, 0]]}))
        sc = tmp_path / "sc.json"
        sc.write_text(zero_input_json([1.0, -2.0], 2.0))
        csv_path = tmp_path / "traj.csv"
        code = main(["simulate", "stable_pair", str(obs), str(sc),
                     "--csv", str(csv_path)])
        assert code == 0
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "t,x_1,x_2,z_1,zhat_1,e_1"

    @pytest.mark.parametrize("doc", [
        {"G": [], "H": [], "Q": [[]], "R": [[1, 0]]},
        {"G": [], "Q": [[]], "R": [[1, 0]]}])
    def test_order_zero_realization(self, tmp_path, doc):
        # an empty H has no rows to carry its width: it takes R's
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps(doc))
        sc = tmp_path / "sc.json"
        sc.write_text(zero_input_json([1.0, -2.0], 1.0))
        assert main(["simulate", "stable_pair", str(obs), str(sc)]) == 0

    def test_nonproper_observer_rejected(self, tmp_path, capsys):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"N": [[{"num": [0, 0, 1], "den": [1, 1]}]]}))
        sc = tmp_path / "sc.json"
        sc.write_text(zero_input_json([0.0], 1.0))
        assert main(["simulate", "state_estimation_demo", str(obs), str(sc)]) == 2
        err = capsys.readouterr().err
        assert "proper" in err

    def test_unstable_observer_rejected(self, tmp_path, capsys):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"N": [[{"num": [1], "den": [-1, 1]}]]}))
        sc = tmp_path / "sc.json"
        sc.write_text(zero_input_json([0.0], 1.0))
        assert main(["simulate", "state_estimation_demo", str(obs), str(sc)]) == 2

    def test_explicit_realization_accepted(self, tmp_path):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"G": [[-1.0]], "H": [[1.0]],
                                   "Q": [[1.0]], "R": [[0.0]]}))
        sc = tmp_path / "sc.json"
        sc.write_text(zero_input_json([1.0], 20.0, xi0=[0.0]))
        assert main(["simulate", "state_estimation_demo", str(obs), str(sc)]) == 0

    def test_oversize_scenario_exits_2(self, tmp_path, capsys):
        # refused when the Scenario is built, before any array is allocated
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"R": [[0]]}))
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"x0": [0, 0], "horizon": 1e15, "step": 1}))
        assert main(["simulate", "integrator_chain", str(obs), str(sc)]) == 2
        err = capsys.readouterr().err
        assert "bad scenario" in err and "horizon" in err and "step" in err
        assert "Traceback" not in err

    def test_unknown_input_kind_exits_2(self, tmp_path, capsys):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"R": [[1, 0]]}))
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"x0": [1.0, 0.0], "input": {"kind": "ramp"}}))
        assert main(["simulate", "stable_pair", str(obs), str(sc)]) == 2
        err = capsys.readouterr().err
        assert "field 'input': unknown input kind 'ramp'" in err
        assert "Traceback" not in err

    # a key the input kind does not carry is an error, not silently dropped
    @pytest.mark.parametrize("signal, key", [
        ({"kind": "zero", "value": [2]}, "value"),
        ({"kind": "zero", "vaule": [2]}, "vaule"),
        ({"kind": "table", "times": [0, 1], "values": [[], []], "value": [1]}, "value"),
        ({"kind": "constant", "value": [], "terms": []}, "terms"),
    ])
    def test_input_key_the_kind_does_not_carry_exits_2(self, tmp_path, capsys, signal, key):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"R": [[1, 0]]}))
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"x0": [1.0, 0.0], "input": signal}))
        assert main(["simulate", "stable_pair", str(obs), str(sc)]) == 2
        err = capsys.readouterr().err
        assert (f"field 'input': input kind {signal['kind']!r} carries no field {key!r}"
                in err)
        assert "Traceback" not in err

    # scenario and observer documents, like system documents, hold only
    # known keys: a misspelled one is never read as a missing one
    @pytest.mark.parametrize("observer, scenario, message", [
        # read as N = 0 before: a missing "num" is the zero polynomial
        ({"N": [[{"nums": [1], "den": [1, 2]}, 0]]}, {"x0": [1.0, 0.0]},
         "field 'N[0][0]': unknown field 'nums' (known: num, den)"),
        ({"R": [[1, 0]]}, {"x0": [1.0, 0.0], "horizn": 3},
         "unknown field 'horizn' (known: x0, xi0, input, horizon, step)"),
        ({"R": [[1, 0]], "extra": 1}, {"x0": [1.0, 0.0]},
         "unknown field 'extra' (known: N, G, H, Q, R)"),
        # N won before, and R was never read
        ({"N": [[1, 0]], "R": [[0, 1]]}, {"x0": [1.0, 0.0]},
         "field 'R': an observer gives 'N' or 'G'/'H'/'Q'/'R', not both"),
    ])
    def test_unknown_document_key_exits_2(self, tmp_path, capsys, observer, scenario, message):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps(observer))
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(scenario))
        assert main(["simulate", "stable_pair", str(obs), str(sc)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err

    def test_missing_horizon_auto_suggested(self, tmp_path, capsys):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"R": [[1.0]]}))
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"x0": [1.0], "xi0": [], "step": 0.001,
                                  "input": {"kind": "zero"}}))
        assert main(["simulate", "state_estimation_demo", str(obs), str(sc)]) == 0
        assert "horizon" in capsys.readouterr().out


class TestCmdBatch:
    def test_batch_over_directory(self, tmp_path, capsys):
        for name in ("stable_pair", "state_estimation_demo"):
            (tmp_path / f"{name}.json").write_text(bundled_text(name))
        assert main(["batch", str(tmp_path)]) == 0
        # a failing property makes the batch exit nonzero
        (tmp_path / "integrator_chain.json").write_text(bundled_text("integrator_chain"))
        assert main(["batch", str(tmp_path)]) == 1

    def test_batch_parallel(self, tmp_path):
        for name in bundled_names()[:3]:
            (tmp_path / f"{name}.json").write_text(bundled_text(name))
        code_serial = main(["batch", str(tmp_path)])
        code_parallel = main(["batch", str(tmp_path), "--jobs", "2"])
        assert code_serial == code_parallel

    @pytest.mark.parametrize("jobs,nfiles,workers", [(5000, 2, 2), (2, 3, 2), (3, 3, 3)])
    def test_jobs_capped_at_file_count(self, tmp_path, monkeypatch, jobs, nfiles, workers):
        # the fork start method launches all max_workers processes up front;
        # the fake pool records the request and runs the files in process
        for name in bundled_names()[:nfiles]:
            (tmp_path / f"{name}.json").write_text(bundled_text(name))
        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        assert main(["batch", str(tmp_path), "--jobs", str(jobs)]) == main(["batch", str(tmp_path)])
        assert requested == [workers]

    def test_empty_directory(self, tmp_path):
        assert main(["batch", str(tmp_path)]) == 2

    def test_path_that_starts_with_a_dash(self, tmp_path, monkeypatch):
        # each file is checked as `check --all` through the parser, and a
        # path such as "-plants/x.json" must not read as an option there
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-plants").mkdir()
        (tmp_path / "-plants" / "stable_pair.json").write_text(bundled_text("stable_pair"))
        assert main(["batch", "--", "-plants"]) == 0


def _unreadable(tmp_path, kind: str) -> Path:
    """A path that cannot be read as UTF-8 text: missing, a directory, or bytes."""
    path = tmp_path / f"{kind}.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(b"\xff\xfe{}")
    return path


class TestUnreadableInput:
    """A file that cannot be opened or decoded exits 2 and names its path."""

    @pytest.fixture
    def files(self, tmp_path):
        obs, sc = tmp_path / "obs.json", tmp_path / "sc.json"
        obs.write_text(json.dumps({"R": [[1, 0]]}))
        sc.write_text(zero_input_json([1.0, -2.0], 1.0))
        return {"system": "stable_pair", "observer": str(obs), "scenario": str(sc)}

    @pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
    @pytest.mark.parametrize("command, role", [
        ("check", "system"), ("witness", "system"), ("simulate", "system"),
        ("simulate", "observer"), ("simulate", "scenario"),
    ])
    def test_exits_2_naming_the_path(self, tmp_path, capsys, files, command, role, kind):
        bad = str(_unreadable(tmp_path, kind))
        argv = {**files, role: bad}
        roles = ["system", "observer", "scenario"] if command == "simulate" else ["system"]
        assert main([command, *(argv[r] for r in roles)]) == 2
        err = capsys.readouterr().err
        assert bad in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["check", "witness"])
    def test_missing_path_never_names_a_bundled_system(self, tmp_path, capsys, command):
        # the stem names a bundled system, but a path with a directory part
        # names a file only
        bad = str(tmp_path / "missing" / "stable_pair.json")
        assert main([command, bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no such file or bundled system: {bad}\n"

    def test_batch_reports_the_bad_file(self, tmp_path, capsys):
        _unreadable(tmp_path, "binary")
        (tmp_path / "stable_pair.json").write_text(bundled_text("stable_pair"))
        assert main(["batch", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "binary.json: exit 2" in captured.out
        assert "stable_pair.json: ok" in captured.out
        assert "binary.json" in captured.err and "Traceback" not in captured.err


class TestOptionValues:
    @pytest.fixture
    def simulate_argv(self, tmp_path):
        obs, sc = tmp_path / "obs.json", tmp_path / "sc.json"
        obs.write_text(json.dumps({"R": [[1, 0]]}))
        sc.write_text(zero_input_json([1.0, -2.0], 1.0))
        return ["simulate", "stable_pair", str(obs), str(sc)]

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
    def test_threshold_must_be_positive_and_finite(self, capsys, simulate_argv, value):
        with pytest.raises(SystemExit) as exc:
            main([*simulate_argv, "--threshold", value])
        assert exc.value.code == 2
        assert "--threshold" in capsys.readouterr().err

    def test_threshold_default_and_valid_value(self, capsys, simulate_argv):
        assert main(simulate_argv) == 0
        assert "threshold 0.0001" in capsys.readouterr().out
        assert main([*simulate_argv, "--threshold", "1e-3"]) == 0
        assert "threshold 0.001" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, value):
        (tmp_path / "stable_pair.json").write_text(bundled_text("stable_pair"))
        with pytest.raises(SystemExit) as exc:
            main(["batch", str(tmp_path), "--jobs", value])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1", "2"])
    def test_jobs_one_and_two_run(self, tmp_path, capsys, value):
        (tmp_path / "stable_pair.json").write_text(bundled_text("stable_pair"))
        assert main(["batch", str(tmp_path), "--jobs", value]) == 0
        assert "stable_pair.json: ok" in capsys.readouterr().out


class TestSerialization:
    def test_to_jsonable_handles_certificates(self):
        sys, _ = load_system_text(bundled_text("integrator_chain"))
        verdict = decide.strong_star_functional_detectable(sys)
        doc = to_jsonable(verdict)
        rendered = json.dumps(doc)
        assert "strong_star" in rendered
        inc = doc["certificate"]["inclusion"]
        assert inc["holds"] is False
        assert inc["violation"] == ["0", "0", "1"]


class TestLazyNumpy:
    """Only the float layer imports numpy, on the first use of one of its names."""

    def test_exact_path_leaves_numpy_unloaded(self, tmp_path):
        code = "\n".join([
            "import sys, funcobs, funcobs.cli",
            "from funcobs.corpus import bundled_names",
            "assert 'numpy' not in sys.modules, 'loaded by import'",
            "for name in bundled_names():",
            "    funcobs.cli.main(['check', name, '--all', '--out', sys.argv[1]])",
            "assert 'numpy' not in sys.modules, 'loaded by check'",
            "from funcobs import simulate, InputSignal",
            "assert 'numpy' in sys.modules and callable(simulate)",
            "assert InputSignal('zero').kind == 'zero'",
        ])
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([_sys.executable, "-c", code, str(tmp_path / "report.json")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads((tmp_path / "report.json").read_text())["verdicts"]

    def test_witness_leaves_the_float_layer_unloaded(self, tmp_path):
        code = "\n".join([
            "import sys, funcobs.cli",
            "from funcobs.corpus import bundled_names",
            "for name in bundled_names():",
            "    funcobs.cli.main(['witness', name, '--out', sys.argv[1]])",
            "assert 'numpy' not in sys.modules, 'numpy loaded by witness'",
            "assert 'funcobs.sim' not in sys.modules, 'funcobs.sim loaded by witness'",
        ])
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([_sys.executable, "-c", code, str(tmp_path / "report.json")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads((tmp_path / "report.json").read_text())["witness"]

    def test_unknown_attribute(self):
        import funcobs
        with pytest.raises(AttributeError):
            funcobs.no_such_name

    def test_every_exported_name_resolves(self):
        import funcobs
        for name in funcobs.__all__:
            assert getattr(funcobs, name) is not None, name
