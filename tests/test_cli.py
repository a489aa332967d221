import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hmclass.ambient import MAX_AMBIENT
from hmclass import cli, milnor, spectra
from hmclass.arrangement import MAX_MULTIPLICITY
from hmclass.cli import _build_parser, main
from hmclass.corpus import corpus_path
from hmclass.milnor import ALL_CONVENTIONS, DEFAULT_CONVENTIONS

import argv_parity
import json_parity
import pins


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def corpus_file(name):
    return str(corpus_path(name))


def pin_test(family):
    """The test of one family of pins.PINS, run in process.  Each family
    keeps the test name its pins were first recorded under."""
    family_pins = [pin for pin in pins.PINS if pin.family == family]

    @pytest.mark.parametrize("pin", family_pins,
                             ids=[pin.name for pin in family_pins])
    def test(capsys, pin):
        code, out, err = run(capsys, *pin.argv)
        assert code == 0, err
        assert pins.matches(out.encode(), pin.golden), pin.golden.name

    return test


class TestMilnorCommand:
    def test_concurrent3_report(self, capsys):
        payload = run_json(capsys, "milnor", corpus_file("concurrent3"))
        assert payload["M_y"] == {"P_{123}": ["-1", "3"]}
        assert payload["degree0"]["equal"] is True
        assert payload["cross_path"]["ok"] is True

    def test_dump_strata(self, capsys):
        payload = run_json(capsys, "milnor", corpus_file("doubleline"),
                           "--dump-strata")
        assert payload["strata"][0]["kind"] == "curve"

    def test_conventions_flag(self, capsys):
        payload = run_json(capsys, "milnor", corpus_file("doubleline"),
                           "--conventions", "flip_odd_strata/res_(0,1]")
        assert payload["conventions"]["sign_mode"] == "flip_odd_strata"
        assert payload["cross_path"]["ok"] is False

    def test_bad_conventions_exit_code(self):
        # argparse refuses a value outside the four conventions with its
        # usage message, before the input is read
        code, out, err = pins.fresh_run("milnor", corpus_file("doubleline"),
                                        "--conventions", "foo")
        assert code == 2 and out == b""
        assert b"invalid choice: 'foo'" in err and b"Traceback" not in err

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "milnor", corpus_file("fourplanes"))
        _, out2, _ = run(capsys, "milnor", corpus_file("fourplanes"))
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "milnor", corpus_file("concurrent3"),
                           "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["M_y"] == {"P_{123}": ["-1", "3"]}

    def test_missing_spectrum_exit_code(self, capsys, tmp_path):
        source = tmp_path / "cone4.json"
        source.write_text(json.dumps({
            "n": 3,
            "hyperplanes": [
                {"coeffs": ["1", "0", "0", "0"], "mult": 1},
                {"coeffs": ["0", "1", "0", "0"], "mult": 1},
                {"coeffs": ["0", "0", "1", "0"], "mult": 1},
                {"coeffs": ["1", "1", "1", "0"], "mult": 1},
            ],
        }))
        code, out, err = run(capsys, "milnor", str(source))
        assert code == 1
        assert "missing spectrum" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("with_tables", [False, True])
    def test_stratum_outside_envelope_exit_code(self, capsys, tmp_path,
                                                with_tables):
        # the double hyperplane x3 of P^4 is a stratum of dimension 3; the
        # tables are valid for the three strata the catalogue cannot serve
        source = tmp_path / "p4.json"
        source.write_text(json.dumps({
            "n": 4,
            "hyperplanes": [
                {"coeffs": c, "mult": 2 if c[3] == "1" else 1}
                for c in (["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"],
                          ["0", "0", "1", "0", "0"], ["1", "1", "1", "0", "0"],
                          ["0", "0", "0", "1", "0"], ["0", "0", "0", "0", "1"])
            ],
        }))
        argv = ["milnor", str(source)]
        if with_tables:
            tables = tmp_path / "tables.json"
            tables.write_text(json.dumps({
                "1,2,3,4": [{"alpha": "1", "mult": 3}],
                "1,2,3,4,5": [{"alpha": "1", "mult": 1}],
                "1,2,3,4,6": [{"alpha": "1", "mult": 1}]}))
            argv += ["--tables", str(tables)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == {
            "kind": "StratumDimensionError",
            "message": "unsupported stratum dimension 3 (cap is 2)"}

    def test_one_hyperplane_in_p5(self, capsys, tmp_path):
        # a reduced hyperplane has no singular locus, so the report names
        # no label in any dimension
        source = tmp_path / "p5.json"
        source.write_text(json.dumps({"n": 5, "hyperplanes": [
            {"coeffs": ["1", "0", "0", "0", "0", "0"], "mult": 1}]}))
        payload = run_json(capsys, "milnor", str(source))
        assert payload["M_y"] == {}
        assert payload["degree0"]["equal"] is True

    def test_two_hyperplanes_in_p5_exit_code(self, capsys, tmp_path):
        # their meet is a stratum of dimension 3, refused before any label
        # is named
        source = tmp_path / "p5.json"
        source.write_text(json.dumps({"n": 5, "hyperplanes": [
            {"coeffs": ["1", "0", "0", "0", "0", "0"], "mult": 1},
            {"coeffs": ["0", "1", "0", "0", "0", "0"], "mult": 1}]}))
        code, out, err = run(capsys, "milnor", str(source))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == {
            "kind": "StratumDimensionError",
            "message": "unsupported stratum dimension 3 (cap is 2)"}

    def test_invalid_table_exit_code(self, capsys, tmp_path):
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps({"1,2,3": [{"alpha": "1", "mult": 1}]}))
        code, _, err = run(capsys, "milnor", corpus_file("concurrent3"),
                           "--tables", str(tables))
        assert code == 1
        assert "rejected" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("target", ["input", "tables", "out"])
    def test_directory_path_exit_code(self, capsys, tmp_path, target):
        argv = {"input": ["lattice", str(tmp_path)],
                "tables": ["milnor", corpus_file("concurrent3"), "--tables",
                           str(tmp_path)],
                "out": ["milnor", corpus_file("concurrent3"), "--out",
                        str(tmp_path)]}[target]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"]["kind"] == "IsADirectoryError"

    def test_malformed_input_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "milnor", str(bad))
        assert code == 2
        assert "error" in json.loads(err)

    def test_proportional_covectors_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "prop.json"
        bad.write_text(json.dumps({
            "n": 2,
            "hyperplanes": [{"coeffs": ["1", "0", "0"], "mult": 1},
                            {"coeffs": ["2", "0", "0"], "mult": 1}],
        }))
        code, _, err = run(capsys, "milnor", str(bad))
        assert code == 2

    @pytest.mark.parametrize("hyperplanes", [5, None])
    def test_non_list_hyperplanes_exit_code(self, capsys, tmp_path,
                                            hyperplanes):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "hyperplanes": hyperplanes}))
        code, out, err = run(capsys, "milnor", str(bad))
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["kind"] == "ArrangementError"

    def test_non_list_table_exit_code(self, capsys, tmp_path):
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps({"1,2,3": 5}))
        code, out, err = run(capsys, "milnor", corpus_file("concurrent3"),
                             "--tables", str(tables))
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["kind"] == "SpectrumError"

    @pytest.mark.parametrize("mult", [1.9, True])
    def test_non_integer_table_multiplicity_exit_code(self, capsys, tmp_path,
                                                      mult):
        # read as 1, this table is the valid ordinary spectrum
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps({"1,2,3": [
            {"alpha": "2/3", "mult": mult}, {"alpha": "1", "mult": 2},
            {"alpha": "4/3", "mult": 1}]}))
        code, out, err = run(capsys, "milnor", corpus_file("concurrent3"),
                             "--tables", str(tables))
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "SpectrumError"
        assert "mult must be an integer" in error["message"]

    def test_string_covector_exit_code(self, capsys, tmp_path):
        # read character by character, these are the coordinate lines
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n": 2,
            "hyperplanes": [{"coeffs": c, "mult": 1}
                            for c in ("100", "010", "001")],
        }))
        code, out, err = run(capsys, "milnor", str(bad))
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "ArrangementError"
        assert "coeffs must be a list" in error["message"]

    @staticmethod
    def multiple_line(tmp_path, mult):
        """One line of the given multiplicity plus 3 generic lines."""
        path = tmp_path / f"m{mult}.json"
        path.write_text(json.dumps({
            "n": 2,
            "hyperplanes": [{"coeffs": c, "mult": m} for c, m in (
                (["1", "0", "0"], mult), (["0", "1", "0"], 1),
                (["0", "0", "1"], 1), (["1", "1", "1"], 1))],
        }))
        return str(path)

    def test_multiplicity_at_the_limit(self, capsys, tmp_path):
        # lattice, as a milnor report at the limit takes seconds
        source = self.multiple_line(tmp_path, MAX_MULTIPLICITY)
        code, out, err = run(capsys, "lattice", source)
        assert code == 0, err
        assert json.loads(out)["m"] == MAX_MULTIPLICITY + 3

    @pytest.mark.parametrize("command", ["lattice", "milnor"])
    def test_multiplicity_past_the_limit_exit_code(self, capsys, tmp_path,
                                                   command):
        source = self.multiple_line(tmp_path, MAX_MULTIPLICITY + 1)
        code, out, err = run(capsys, command, source)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "ArrangementError"
        assert error["message"] == (f"multiplicity {MAX_MULTIPLICITY + 1} "
                                    f"exceeds the limit {MAX_MULTIPLICITY}")

    @pytest.mark.parametrize("command", ["virtual", "milnor"])
    def test_ambient_past_the_limit_exit_code(self, capsys, tmp_path,
                                              command):
        # rejected before any series is built: a virtual class one step
        # below the limit takes most of a second
        n = MAX_AMBIENT + 1
        source = tmp_path / "hyperplane.json"
        source.write_text(json.dumps({
            "n": n, "hyperplanes": [{"coeffs": ["1"] + ["0"] * n, "mult": 1}],
        }))
        argv = (["virtual", "--degree", "3", "--ambient", str(n)]
                if command == "virtual" else ["milnor", str(source)])
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "kind": "ValueError",
            "message": f"ambient dimension {n} exceeds the limit {MAX_AMBIENT}"}

    def test_zero_denominator_covector_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n": 2,
            "hyperplanes": [{"coeffs": ["1/0", "0", "1"], "mult": 1},
                            {"coeffs": ["0", "1", "0"], "mult": 1}],
        }))
        code, out, err = run(capsys, "milnor", str(bad))
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["kind"] == "ArrangementError"
        assert "zero denominator" in error["message"]

    def test_zero_denominator_table_exit_code(self, capsys, tmp_path):
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps({"1,2,3": [
            {"alpha": "2/0", "mult": 1}, {"alpha": "1", "mult": 2},
            {"alpha": "4/3", "mult": 1}]}))
        code, out, err = run(capsys, "milnor", corpus_file("concurrent3"),
                             "--tables", str(tables))
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["kind"] == "SpectrumError"
        assert "zero denominator" in error["message"]

    def test_exponent_covector_exit_code(self, capsys, tmp_path):
        # Fraction would expand the 9-byte entry into a 3-million-digit
        # integer before the lattice search
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n": 2,
            "hyperplanes": [{"coeffs": ["1e3000000", "0", "1"], "mult": 1},
                            {"coeffs": ["0", "1", "0"], "mult": 1}],
        }))
        code, out, err = run(capsys, "milnor", str(bad))
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["kind"] == "ArrangementError"
        assert "exponent notation" in error["message"]

    def test_exponent_table_exit_code(self, capsys, tmp_path):
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps({"1,2,3": [
            {"alpha": "1e3000000", "mult": 1}, {"alpha": "1", "mult": 2},
            {"alpha": "4/3", "mult": 1}]}))
        code, out, err = run(capsys, "milnor", corpus_file("concurrent3"),
                             "--tables", str(tables))
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["kind"] == "SpectrumError"
        assert "exponent notation" in error["message"]

    def test_underscore_covector_exit_code(self, capsys, tmp_path):
        # Fraction reads "1_0" as 10 from Python 3.11 on only, so the
        # report would depend on the interpreter
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n": 2,
            "hyperplanes": [{"coeffs": ["1_0", "0", "1"], "mult": 1},
                            {"coeffs": ["0", "1", "0"], "mult": 1}],
        }))
        code, out, err = run(capsys, "lattice", str(bad))
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["kind"] == "ArrangementError"
        assert "underscore in '1_0'" in error["message"]

    def test_underscore_table_exit_code(self, capsys, tmp_path):
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps({"1,2,3": [
            {"alpha": "2/3", "mult": 1}, {"alpha": "1", "mult": 2},
            {"alpha": "4/3", "mult": 1}, {"alpha": "1_0/3", "mult": 0}]}))
        code, out, err = run(capsys, "spectra", corpus_file("concurrent3"),
                             "--tables", str(tables))
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["kind"] == "SpectrumError"
        assert "underscore in '1_0/3'" in error["message"]

    @pytest.mark.parametrize("target", ["input", "tables"])
    def test_digit_limit_exit_code(self, capsys, tmp_path, target):
        # Python words its own refusal of long integer text differently by
        # version, so the covector parser and rat refuse it first
        long = "1" * 5000
        if target == "input":
            path = tmp_path / "input.json"
            path.write_text(json.dumps({
                "n": 2,
                "hyperplanes": [{"coeffs": [long, "0", "1"], "mult": 1},
                                {"coeffs": ["0", "1", "0"], "mult": 1}]}))
            argv, kind = ["lattice", str(path)], "ArrangementError"
        else:
            path = tmp_path / "tables.json"
            path.write_text(json.dumps({"1,2,3": [{"alpha": long,
                                                   "mult": 1}]}))
            argv = ["spectra", corpus_file("concurrent3"), "--tables",
                    str(path)]
            kind = "SpectrumError"
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["kind"] == kind
        assert error["message"].endswith(
            ": integer text of 5000 digits exceeds the limit of 4300 digits")

    @pytest.mark.parametrize("target", ["input", "tables"])
    def test_unquoted_digit_limit_exit_code(self, capsys, tmp_path, target):
        # a JSON number, not a string, past the digit limit is refused by
        # the reader, in the same text on every version, where int() would
        # word its own refusal by version; the sign is not a digit
        long = "1" * 5000
        if target == "input":
            path = tmp_path / "input.json"
            path.write_text('{"n": 2, "hyperplanes": [{"coeffs": [%s, 0, 1], '
                            '"mult": 1}, {"coeffs": [0, 1, 0], "mult": 1}]}'
                            % long)
            argv, kind = ["lattice", str(path)], "ArrangementError"
        else:
            path = tmp_path / "tables.json"
            path.write_text('{"1,2,3": [{"alpha": -%s, "mult": 1}]}' % long)
            argv = ["spectra", corpus_file("concurrent3"), "--tables",
                    str(path)]
            kind = "SpectrumError"
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == json.dumps({"error": {
            "kind": kind, "message": "integer text of 5000 digits exceeds "
                                     "the limit of 4300 digits"}}) + "\n"

    @pytest.mark.parametrize("limit", ["1000", "0"])
    def test_digit_limit_set_for_the_run(self, tmp_path, limit):
        # PYTHONINTMAXSTRDIGITS sets the limit the parser refuses past; 0
        # is no limit, and the entry is read
        path = tmp_path / "input.json"
        path.write_text(json.dumps({
            "n": 2, "hyperplanes": [{"coeffs": ["1" * 1001, "0", "1"],
                                     "mult": 1},
                                    {"coeffs": ["0", "1", "0"], "mult": 1}]}))
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS=limit,
                   PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "hmclass", "lattice", str(path)],
            capture_output=True, text=True, env=env)
        if limit == "0":
            assert done.returncode == 0 and done.stderr == ""
            assert json.loads(done.stdout)["edges"]
        else:
            assert done.returncode == 2 and done.stdout == ""
            assert json.loads(done.stderr)["error"]["message"].endswith(
                ": integer text of 1001 digits exceeds the limit of 1000 "
                "digits")

    @pytest.mark.parametrize("target", ["input", "tables"])
    def test_byte_order_mark_exit_code(self, capsys, tmp_path, target):
        # a file that begins with a UTF-8 byte order mark is refused with
        # json's own message, by both loaders
        source = Path(corpus_file("concurrent3"))
        marked = tmp_path / "marked.json"
        if target == "input":
            marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
            argv, kind = ["lattice", str(marked)], "ArrangementError"
        else:
            marked.write_bytes(b"\xef\xbb\xbf{}")
            argv = ["spectra", str(source), "--tables", str(marked)]
            kind = "SpectrumError"
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {"kind": kind, "message": (
            "malformed JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)")}}

    @pytest.mark.parametrize("target", ["input", "tables"])
    def test_deeply_nested_json_exit_code(self, tmp_path, target):
        # the decoder gives up on 10^5 nested arrays with a RecursionError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        if target == "input":
            argv = ["milnor", str(deep)]
            kind = "ArrangementError"
        else:
            argv = ["milnor", corpus_file("concurrent3"), "--tables",
                    str(deep)]
            kind = "SpectrumError"
        code, out, err = pins.fresh_run(*argv)
        assert code == 2 and out == b"" and err.count(b"\n") == 1
        error = json.loads(err)["error"]
        assert error["kind"] == kind
        assert error["message"].startswith("malformed JSON")

    @pytest.mark.parametrize("field", ["n", "mult", "coeffs"])
    def test_boolean_input_exit_code(self, capsys, tmp_path, field):
        # two points on a line: a valid input while true reads as 1
        data = {"n": 1,
                "hyperplanes": [{"coeffs": ["1", "0"], "mult": 1},
                                {"coeffs": ["0", "1"], "mult": 1}]}
        if field == "n":
            data["n"] = True
        else:
            data["hyperplanes"][0][field] = True if field == "mult" else [True, 0]
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "milnor", str(bad))
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["kind"] == "ArrangementError"


class TestOtherCommands:
    # staticmethod, as the pin test takes no instance
    test_virtual_matches_golden = staticmethod(pin_test("virtual"))

    def test_virtual(self, capsys):
        payload = run_json(capsys, "virtual", "--degree", "4", "--ambient", "3")
        assert payload["genus"] == "2 - 20y + 2y^2"
        assert payload["specializations"]["-1"] == "24"

    def test_lattice(self, capsys):
        payload = run_json(capsys, "lattice", corpus_file("triangle3"))
        assert len(payload["edges"]) == 6
        dense_points = [e for e in payload["edges"]
                        if e["codim"] == 2 and e["dense"]]
        assert dense_points == []
        assert payload["chow_dims"]["CH_Sigma"]["0"] == 3

    def test_lattice_wide_pencil(self, capsys, tmp_path):
        # 21 lines through one point: beyond any bipartition search
        source = tmp_path / "pencil21.json"
        covs = [[1, i, 0] for i in range(20)] + [[0, 1, 0]]
        source.write_text(json.dumps({
            "n": 2,
            "hyperplanes": [{"coeffs": [str(c) for c in cov], "mult": 1}
                            for cov in covs],
        }))
        payload = run_json(capsys, "lattice", str(source))
        centre = payload["edges"][-1]
        assert centre["key"] == ",".join(str(j) for j in range(1, 22))
        assert centre["dense"] is True
        assert payload["euler_inclusion_exclusion"] == 22

    def test_chi_y(self, capsys):
        payload = run_json(capsys, "chi-y", corpus_file("concurrent3"))
        assert payload["chi_y_X"] == ["1", "-3"]
        assert payload["euler_X"] == "4"

    def test_spectra(self, capsys):
        payload = run_json(capsys, "spectra", corpus_file("pencil3planes"))
        row = payload["strata"][0]
        assert row["source"] == "ordinary(3)"
        assert row["validation"]["ok"] is True

    def test_spectra_reports_missing(self, capsys, tmp_path):
        source = tmp_path / "nonred.json"
        source.write_text(json.dumps({
            "n": 2,
            "hyperplanes": [{"coeffs": ["1", "0", "0"], "mult": 2},
                            {"coeffs": ["0", "1", "0"], "mult": 1},
                            {"coeffs": ["1", "1", "0"], "mult": 1}],
        }))
        payload = run_json(capsys, "spectra", str(source))
        sources = {row["edge"]: row["source"] for row in payload["strata"]}
        assert sources["1,2,3"] == "user_table_required"

    def test_check(self, capsys):
        code, out, _ = run(capsys, "check")
        assert code == 0
        assert "12/12 checks passed" in out
        assert "FAIL" not in out

    def test_calibrate(self, capsys):
        payload = run_json(capsys, "calibrate")
        assert payload["chosen"]["sign_mode"] == "as_printed"
        assert set(payload["conventions"]) == {
            "as_printed/res_(0,1]", "as_printed/res_[0,1)",
            "flip_odd_strata/res_(0,1]", "flip_odd_strata/res_[0,1)"}

    def test_schema(self, capsys):
        payload = run_json(capsys, "--schema")
        assert "arrangement_input" in payload

    def test_no_command_usage(self, capsys):
        code, out, _ = run(capsys)
        assert code == 2


test_corpus_report_matches_golden = pin_test("corpus")
test_corpus_report_under_conventions_matches_golden = pin_test("conventions")
test_wide_input_digest = pin_test("wide")
test_large_multiplicity_digest = pin_test("multiplicity")
test_user_tables_digest = pin_test("tables")
test_blown_surfaces_digest = pin_test("surfaces")
test_calibration_matches_golden = pin_test("calibrate")


def test_pins_name_every_golden_and_catch_a_changed_byte(capsys):
    # no file under tests/golden/ sits unread by a pin
    named = {pin.golden for pin in pins.PINS}
    named |= {Path(arg) for pin in pins.PINS for arg in pin.argv
              if Path(arg).is_relative_to(pins.GOLDEN)}
    assert named == {path for path in pins.GOLDEN.rglob("*")
                     if path.is_file()}
    # a report with one byte changed fails both kinds of golden
    for suffix in (".json", ".sha256"):
        pin = next(p for p in pins.PINS if p.golden.suffix == suffix)
        code, out, err = run(capsys, *pin.argv)
        assert code == 0, err
        report = out.encode()
        assert pins.matches(report, pin.golden)
        i = len(report) // 2
        changed = report[:i] + bytes([report[i] ^ 1]) + report[i + 1:]
        assert not pins.matches(changed, pin.golden)


def test_cli_import_loads_no_costly_module():
    assert pins.costly_imports() == []


def test_each_command_loads_only_what_it_reads():
    assert pins.import_breaches() == []


@pytest.mark.parametrize("error, code", [
    (milnor.MissingSpectrumError(["1,2"]), 1),
    (milnor.PolynomialityError("1,2", "1/(1 + y)"), 1),
    (spectra.SpectrumValidationError("x"), 1), (milnor.MilnorError("x"), 2),
    (spectra.SpectrumError("x"), 2), (OSError("x"), 2), (ValueError("x"), 2),
    (RuntimeError("x"), None), (KeyError("x"), None)])
def test_each_error_takes_its_exit_code(monkeypatch, capsys, error, code):
    # main looks the package's error classes up among the loaded modules;
    # any error it does not report propagates
    def fail(args):
        raise error

    monkeypatch.setitem(cli.COMMANDS, "lattice", fail)
    if code is None:
        with pytest.raises(type(error)):
            main(["lattice", "in.json"])
    else:
        assert main(["lattice", "in.json"]) == code
        assert json.loads(capsys.readouterr().err) == {
            "error": {"kind": type(error).__name__, "message": str(error)}}


def test_convention_labels_are_milnor_s():
    # the CLI writes the labels out, so that parsing argv loads no milnor
    assert list(cli._CONVENTION_LABELS) == [c.label()
                                            for c in ALL_CONVENTIONS]
    assert cli._DEFAULT_LABEL == DEFAULT_CONVENTIONS.label()


@pytest.mark.parametrize("name", pins.FALLBACK_TEXTS)
def test_help_and_error_texts_are_unchanged(monkeypatch, name):
    # argparse wraps its texts at the width that COLUMNS names
    monkeypatch.delenv("COLUMNS", raising=False)
    assert pins.fresh_run(*pins.FALLBACK_TEXTS[name]["argv"]) == (
        pins.fallback_text(name))


def test_exact_parser_agrees_with_argparse():
    assert argv_parity.main() == 0


def test_parity_vocabulary_is_the_cli_table():
    # the parity run draws its argv from its own list, so an option the
    # table declares and the list leaves out would never be tried there;
    # the list gives a flag no values
    declared = {command: {spelling: convert is None
                          for spelling, convert, _, _ in options}
                for command, (_, _, options) in cli._TABLE.items()}
    listed = {command: {spelling: not values
                        for spelling, values in options.items()}
              for command, options in argv_parity.DOCUMENTED.items()}
    assert listed == declared


def test_json_reader_agrees_with_json_loads():
    assert json_parity.main() == 0


def test_abbreviated_and_joined_options_give_the_same_report(capsys,
                                                             tmp_path):
    # argparse takes --dump for --dump-strata, and --out=G for --out G
    source = corpus_file("doubleline")
    spelled = run(capsys, "milnor", source, "--dump-strata")
    assert spelled[0] == 0
    assert run(capsys, "milnor", source, "--dump") == spelled
    spelled_out, joined_out = tmp_path / "spelled.json", tmp_path / "joined.json"
    assert run(capsys, "milnor", source, "--out", str(spelled_out))[0] == 0
    assert run(capsys, "milnor", source, f"--out={joined_out}")[0] == 0
    assert joined_out.read_bytes() == spelled_out.read_bytes()
    assert spelled_out.read_text() == run(capsys, "milnor", source)[1]


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    def test_requests_in_one_process_match_fresh_runs(self, capsys):
        requests = [("lattice", corpus_file("fourplanes")),
                    ("milnor", corpus_file("doubleline"), "--conventions",
                     "flip_odd_strata/res_(0,1]"),
                    ("milnor", "--dump-strata"),  # no input file: exit 2
                    ("lattice", corpus_file("fourplanes"))]
        codes = []
        for argv in requests:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out.encode(),
                    captured.err.encode()) == pins.fresh_run(*argv)
            codes.append(code)
        assert codes == [0, 0, 2, 0]
