import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hmclass
from hmclass.ambient import MAX_AMBIENT
from hmclass.arrangement import MAX_MULTIPLICITY
from hmclass.cli import _build_parser, main
from hmclass.corpus import ALL_NAMES, corpus_path

GOLDEN = Path(__file__).parent / "golden" / "corpus"


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
        code, out, err = fresh_run(*argv)
        assert code == 2 and out == "" and err.count("\n") == 1
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


VIRTUAL_GOLDEN = Path(__file__).parent / "golden" / "virtual"


class TestOtherCommands:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
    def test_virtual_matches_golden(self, capsys, d, n):
        code, out, err = run(capsys, "virtual", "--degree", str(d),
                             "--ambient", str(n))
        assert code == 0, err
        assert out.encode() == (VIRTUAL_GOLDEN / f"d{d}-n{n}.json").read_bytes()

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


# each report command on the corpus, with the suffix of its golden file
GOLDEN_COMMANDS = {"milnor": ["milnor"],
                   "milnor-dump-strata": ["milnor", "--dump-strata"],
                   "lattice": ["lattice"],
                   "spectra": ["spectra"],
                   "chi-y": ["chi-y"]}


@pytest.mark.parametrize("command", list(GOLDEN_COMMANDS))
@pytest.mark.parametrize("name", ALL_NAMES)
def test_corpus_report_matches_golden(capsys, name, command):
    code, out, err = run(capsys, *GOLDEN_COMMANDS[command],
                         corpus_file(name))
    assert code == 0, err
    assert out.encode() == (GOLDEN / f"{name}.{command}.json").read_bytes()


# milnor under each non-default convention, with the suffix of its golden
# file; recorded before the stratum models took their closed forms
CONVENTION_GOLDENS = {
    "as_printed/res_[0,1)": "milnor-as_printed-half_open_down",
    "flip_odd_strata/res_(0,1]": "milnor-flip_odd_strata-half_open_up",
    "flip_odd_strata/res_[0,1)": "milnor-flip_odd_strata-half_open_down",
}


@pytest.mark.parametrize("conventions", list(CONVENTION_GOLDENS))
@pytest.mark.parametrize("name", ALL_NAMES)
def test_corpus_report_under_conventions_matches_golden(capsys, name,
                                                        conventions):
    code, out, err = run(capsys, "milnor", corpus_file(name),
                         "--conventions", conventions)
    assert code == 0, err
    golden = GOLDEN / f"{name}.{CONVENTION_GOLDENS[conventions]}.json"
    assert out.encode() == golden.read_bytes()


# inputs wider than the benchmark pools, with the SHA-256 of each report
# recorded in tests/golden/<input>.<command>.sha256; CI checks the same
# files with sha256sum -c
WIDE_DIGESTS = [("lines30", "lattice"), ("lines30", "spectra"),
                ("lines30", "chi-y"), ("planes12", "lattice"),
                ("planes12", "chi-y"), ("planes12", "milnor"),
                ("planes12", "spectra"), ("pencil70", "lattice"),
                ("pencil70", "chi-y"), ("pencil70", "spectra"),
                ("pencil70", "milnor")]


@pytest.mark.parametrize("name,command", WIDE_DIGESTS)
def test_wide_input_digest(capsys, name, command):
    # lines30: covectors (1, i, i^2) for i < 30; planes12: (1, i, i^2, i^3)
    # for i < 12, with 220 triple points and 66 double lines; pencil70: 66
    # lines through [0:0:1] and 4 lines in general position, so an index
    # set as a bitmask is wider than 64 bits
    golden = GOLDEN.parent
    code, out, err = run(capsys, command, str(golden / f"{name}.json"))
    assert code == 0, err
    digest = (golden / f"{name}.{command}.sha256").read_text().split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# one line of multiplicity 1000 plus 3 generic lines, and a plane of
# multiplicity 24 meeting 4 generic planes: Deligne powers and spectra far
# above the pools'; the digests were recorded before the stratum
# contributions moved to integer vectors, and CI checks the same files
# with sha256sum -c.  mult100k and plane100k are the same shapes at
# multiplicity 100 000, the limit; their digests, and that of the spectra
# of mult1000, were recorded while each stratum's spectrum was still
# listed entry by entry and summed one Deligne power at a time
MULTIPLE_DIGESTS = [("mult1000", "milnor"), ("mult1000", "milnor-dump-strata"),
                    ("plane24", "milnor"), ("plane24", "milnor-dump-strata"),
                    ("mult100k", "milnor"), ("mult100k", "milnor-dump-strata"),
                    ("plane100k", "milnor"),
                    ("plane100k", "milnor-dump-strata"),
                    ("mult1000", "spectra")]


@pytest.mark.parametrize("name,command", MULTIPLE_DIGESTS)
def test_large_multiplicity_digest(capsys, name, command):
    golden = GOLDEN.parent
    argv = command.replace("-dump", " --dump").split()
    code, out, err = run(capsys, *argv, str(golden / f"{name}.json"))
    assert code == 0, err
    digest = (golden / f"{name}.{command}.sha256").read_text().split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# seven planes in P^3 with multiplicities up to 3 and every stratum served
# by a user table: each catalogue germ with m_s > 1 and a nonzero spectrum
# by its catalogue spectrum written out as a table, and each stratum the
# catalogue cannot serve by its whole signed mass at exponent 1
# (oracles.table_entries).  The suffix after the colon names the golden
# digest; CI checks the same files with sha256sum -c
TABLE_DIGESTS = [
    ("milnor", "as_printed/res_(0,1]:milnor"),
    ("milnor", "as_printed/res_[0,1):milnor-as_printed-half_open_down"),
    ("milnor", "flip_odd_strata/res_(0,1]:milnor-flip_odd_strata-half_open_up"),
    ("milnor",
     "flip_odd_strata/res_[0,1):milnor-flip_odd_strata-half_open_down"),
    ("spectra", ":spectra"),
]


@pytest.mark.parametrize("command,variant", TABLE_DIGESTS)
def test_user_tables_digest(capsys, command, variant):
    golden = GOLDEN.parent
    conventions, suffix = variant.split(":")
    argv = [command, str(golden / "tables7.json"),
            "--tables", str(golden / "tables7.tables.json")]
    if conventions:
        argv += ["--conventions", conventions]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    digest = (golden / f"tables7.{suffix}.sha256").read_text().split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_thirty_generic_lines_digest(capsys):
    # covectors (1, i, i^2) for i < 30: 435 double points and a 4.3 MB
    # report, too large to keep; its digest was recorded with the dense
    # json.dumps writer that the spliced one replaced, and CI checks the
    # same file with sha256sum -c
    golden = GOLDEN.parent
    code, out, err = run(capsys, "milnor", str(golden / "lines30.json"))
    assert code == 0, err
    digest = (golden / "lines30.milnor.sha256").read_text().split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def fresh_run(*argv):
    """Exit code, stdout and stderr of the command in a new interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hmclass.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "hmclass", *argv],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def test_cli_import_generates_no_code():
    # a fresh interpreter without the host's site hooks (-S), which may
    # import anything; the records are plain classes, and only check and
    # calibrate import the corpus
    src = os.path.dirname(os.path.dirname(os.path.abspath(hmclass.__file__)))
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "from hmclass import cli; "
             "print(sorted({'dataclasses', 'inspect', 'importlib.resources'}"
             " & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, src],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


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
            assert (code, captured.out, captured.err) == fresh_run(*argv)
            codes.append(code)
        assert codes == [0, 0, 2, 0]
