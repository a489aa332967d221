"""Every pinned report of hmclass, listed once.

A pin is an ``hmclass`` command line and its golden under tests/golden/:
a ``.json`` file that the report equals byte for byte, or a ``.sha256``
file holding the report's SHA-256 digest as ``sha256sum`` writes it.
tests/test_cli.py runs each pin in process.  Run as a script, with the
standard library alone, this module runs each pin in a fresh interpreter,
probes what importing the CLI, and running each report command, loads,
and checks the help, usage and error texts pinned in
tests/fallback_texts.json:

    python -I tests/pins.py

To add a pin, add its entry below and its golden under tests/golden/.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
SRC = TESTS.parent / "src"
CORPUS = sorted((SRC / "hmclass" / "corpus").glob("*.json"))

# family groups the pins that share a provenance; name tells the pins of
# a family apart
Pin = namedtuple("Pin", "family name argv golden")

# each report command, with the suffix of its golden file
COMMANDS = {"milnor": ["milnor"],
            "milnor-dump-strata": ["milnor", "--dump-strata"],
            "lattice": ["lattice"],
            "spectra": ["spectra"],
            "chi-y": ["chi-y"]}

# each non-default convention, with the suffix of its milnor golden file
CONVENTIONS = {
    "as_printed/res_[0,1)": "milnor-as_printed-half_open_down",
    "flip_odd_strata/res_(0,1]": "milnor-flip_odd_strata-half_open_up",
    "flip_odd_strata/res_[0,1)": "milnor-flip_odd_strata-half_open_down",
}


def digest(family, name, suffix):
    """The pin of COMMANDS[suffix] on tests/golden/<name>.json, held by the
    digest tests/golden/<name>.<suffix>.sha256."""
    return Pin(family, f"{name}-{suffix}",
               [*COMMANDS[suffix], str(GOLDEN / f"{name}.json")],
               GOLDEN / f"{name}.{suffix}.sha256")


# each report command on each built-in corpus file
PINS = [Pin("corpus", f"{path.stem}-{suffix}", [*argv, str(path)],
            GOLDEN / "corpus" / f"{path.stem}.{suffix}.json")
        for path in CORPUS for suffix, argv in COMMANDS.items()]

# milnor on the corpus under each non-default convention, recorded before
# the stratum models took their closed forms
PINS += [Pin("conventions", f"{path.stem}-{conventions}",
             ["milnor", str(path), "--conventions", conventions],
             GOLDEN / "corpus" / f"{path.stem}.{suffix}.json")
         for path in CORPUS for conventions, suffix in CONVENTIONS.items()]

PINS += [Pin("virtual", f"{d}-{n}",
             ["virtual", "--degree", str(d), "--ambient", str(n)],
             GOLDEN / "virtual" / f"d{d}-n{n}.json")
         for d in (1, 2, 3, 4, 7) for n in range(1, 7)]

# the full-order series at the largest ambient dimension, MAX_AMBIENT;
# recorded while the series were still elements of a truncated ring class
PINS.append(Pin("virtual", "3-32",
                ["virtual", "--degree", "3", "--ambient", "32"],
                GOLDEN / "virtual" / "d3-n32.sha256"))

# inputs wider than the benchmark pools.  lines30: covectors (1, i, i^2)
# for i < 30, with 435 double points; its milnor report is 4.3 MB, too
# large to keep, and its digest was recorded with the dense json.dumps
# writer that the spliced one replaced.  planes12: (1, i, i^2, i^3) for
# i < 12, with 220 triple points and 66 double lines.  pencil70: 66 lines
# through [0:0:1] and 4 lines in general position, so an index set as a
# bitmask is wider than 64 bits
PINS += [digest("wide", name, suffix)
         for name in ("lines30", "planes12", "pencil70")
         for suffix in ("milnor", "lattice", "spectra", "chi-y")]

# one line of multiplicity 1000 plus 3 generic lines, and a plane of
# multiplicity 24 meeting 4 generic planes: Deligne powers and spectra far
# above the pools'; the digests were recorded before the stratum
# contributions moved to integer vectors.  mult100k and plane100k are the
# same shapes at multiplicity 100 000, the limit; their digests, and that
# of the spectra of mult1000, were recorded while each stratum's spectrum
# was still listed entry by entry and summed one Deligne power at a time
PINS += [digest("multiplicity", name, suffix)
         for name in ("mult1000", "plane24", "mult100k", "plane100k")
         for suffix in ("milnor", "milnor-dump-strata")]
PINS.append(digest("multiplicity", "mult1000", "spectra"))

# the lattice-side reports of mult1000 and mult100k, whose m_s and Milnor
# fiber Euler numbers are far above the pools'; recorded while the lattice
# report still summed chi_y over the open strata for its Euler number.
# chi_y does not read the multiplicities, so the two chi-y digests are equal
PINS += [digest("multiplicity", name, suffix)
         for name in ("mult1000", "mult100k")
         for suffix in ("lattice", "chi-y")]

# seven planes in P^3 with multiplicities up to 3 and every stratum served
# by a user table: each catalogue germ with m_s > 1 and a nonzero spectrum
# by its catalogue spectrum written out as a table, and each stratum the
# catalogue cannot serve by its whole signed mass at exponent 1
# (oracles.table_entries)
TABLES7 = [str(GOLDEN / "tables7.json"),
           "--tables", str(GOLDEN / "tables7.tables.json")]
PINS += [Pin("tables", f"milnor-{conventions}:{suffix}",
             ["milnor", *TABLES7, "--conventions", conventions],
             GOLDEN / f"tables7.{suffix}.sha256")
         for conventions, suffix in [("as_printed/res_(0,1]", "milnor"),
                                     *CONVENTIONS.items()]]
PINS.append(Pin("tables", "spectra-:spectra", ["spectra", *TABLES7],
                GOLDEN / "tables7.spectra.sha256"))

# the benchmark pools use the default conventions only; the calibration
# report covers the other three
PINS.append(Pin("calibrate", "calibrate", ["calibrate"],
                GOLDEN / "calibration.json"))


# dataclasses and inspect generate code, where the records are plain
# classes; importlib.resources is for the corpus, which only check and
# calibrate read; argparse, with the gettext and shutil it imports, is for
# help, usage and error texts only, as the CLI parses documented argv itself
COSTLY = {"dataclasses", "inspect", "importlib.resources", "argparse",
          "gettext", "shutil"}


def matches(report: bytes, golden: Path) -> bool:
    """Whether a report's bytes are those its golden pins."""
    if golden.suffix == ".sha256":
        expected = golden.read_text().split()[0]
        return hashlib.sha256(report).hexdigest() == expected
    return report == golden.read_bytes()


def costly_imports() -> list:
    """The modules among COSTLY that importing hmclass.cli loads, in a
    fresh interpreter without the site hooks (-I -S), which may import
    anything.  Each costs a cold run time that its report does not need."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "from hmclass import cli; "
             f"print(*sorted({sorted(COSTLY)!r} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRC)],
                          capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(done.stderr)
    return done.stdout.split()


# what no report reads: the json package, which only the reader's second
# path and the error writer import, and the exact-rational and cache
# modules, as every rational is a pair of integers and every lazy value a
# plain attribute or a module dict
_NO_REPORT_READS = ("fractions", "decimal", "re", "functools")


def _report_breach(name: str) -> bool:
    return (name == "json" or name.startswith("json.")
            or name in _NO_REPORT_READS)


def _schema_breach(name: str) -> bool:
    return (name.startswith("hmclass.")
            and name not in ("hmclass.cli", "hmclass.jsontext")
            or _report_breach(name))


def _lattice_side_breach(name: str) -> bool:
    return name in ("hmclass.milnor", "hmclass.genera", "hmclass.ambient",
                    "hmclass.spectra") or _report_breach(name)


def _spectra_breach(name: str) -> bool:
    return name in ("hmclass.milnor", "hmclass.genera",
                    "hmclass.ambient") or _report_breach(name)


FOURPLANES = str(SRC / "hmclass" / "corpus" / "fourplanes.json")

# each probed command line, by name, and the test of a module it must not
# load:
# --schema loads only what parsing argv and writing its text need, the
# lattice-side reports no Milnor-class, series or spectrum module, the
# spectra report no Milnor-class or series module, and no report on
# well-formed input the json package, fractions, decimal, re or functools
IMPORT_PROBES = [
    ("--schema", ["--schema"], _schema_breach),
    ("lattice", ["lattice", FOURPLANES], _lattice_side_breach),
    ("chi-y", ["chi-y", FOURPLANES], _lattice_side_breach),
    ("spectra", ["spectra", FOURPLANES], _spectra_breach),
    ("spectra --tables", ["spectra", *TABLES7], _spectra_breach),
    ("virtual", ["virtual", "--degree", "3", "--ambient", "3"],
     _report_breach),
    ("milnor", ["milnor", FOURPLANES], _report_breach),
    ("milnor --tables", ["milnor", *TABLES7], _report_breach),
]


def import_breaches() -> list:
    """'name: module' for each module a probed command loads that its
    test refuses, or for a probed run that fails, each command run in
    process in a fresh interpreter without the site hooks (-I -S), which
    may import anything, with its report sent to the null device."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "from hmclass import cli; "
             "sys.stdout = open(sys.argv[2], 'w'); "
             "code = cli.main(sys.argv[3:]); sys.stdout = sys.__stdout__; "
             "print(code, *sorted(sys.modules))")
    breaches = []
    for name, argv, breach in IMPORT_PROBES:
        done = subprocess.run([sys.executable, "-I", "-S", "-c", probe,
                               str(SRC), os.devnull, *argv],
                              capture_output=True, text=True)
        words = done.stdout.split()
        if done.returncode or words[:1] != ["0"]:
            breaches.append(f"{name}: failed {done.stderr}")
            continue
        breaches += [f"{name}: {module}" for module in words[1:]
                     if breach(module)]
    return breaches


def fresh_run(*argv) -> tuple:
    """The exit code and the stdout and stderr bytes of ``hmclass *argv``
    in a fresh interpreter that imports hmclass from src."""
    done = subprocess.run([sys.executable, "-m", "hmclass", *argv],
                          capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    return done.returncode, done.stdout, done.stderr


# the exit code and the stdout and stderr texts of argv lists that argparse
# answers with help or an error, recorded with COLUMNS unset before the
# documented argv was parsed without argparse.  A text that lists choices
# keeps two wordings, keyed by choice_wording(): "quoted", as 3.10.13,
# 3.11.7, 3.12.1 and 3.13.0 write it, and "unquoted", as 3.13.13 does
FALLBACK_TEXTS = json.loads((TESTS / "fallback_texts.json").read_text())


def choice_wording() -> str:
    """How this interpreter's argparse lists the choices in an invalid
    choice error: "quoted", as in (choose from 'a', 'b'), or "unquoted",
    as in (choose from a, b)."""
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("x", choices=["a", "b"])
    with contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.suppress(SystemExit):
        parser.parse_args(["c"])
    for wording, listed in (("quoted", "'a', 'b'"), ("unquoted", "a, b")):
        if f"(choose from {listed})" in err.getvalue():
            return wording
    raise RuntimeError(f"unknown choice error: {err.getvalue()}")


def fallback_text(name: str) -> tuple:
    """The exit code and the stdout and stderr bytes pinned for
    FALLBACK_TEXTS[name]'s argv, in this interpreter's wording."""
    pinned = FALLBACK_TEXTS[name]
    texts = []
    for stream in ("stdout", "stderr"):
        text = pinned[stream]
        if isinstance(text, dict):
            text = text[choice_wording()]
        texts.append(text.encode())
    return (pinned["exit"], *texts)


def main() -> int:
    loaded = costly_imports()
    print("importing the CLI loads:", loaded)
    breaches = import_breaches()
    print("each command loads past what it reads:", breaches)
    # argparse wraps its texts at the width that COLUMNS names
    os.environ.pop("COLUMNS", None)
    changed = [name for name in FALLBACK_TEXTS
               if fresh_run(*FALLBACK_TEXTS[name]["argv"])
               != fallback_text(name)]
    print(f"help, usage and error texts ({choice_wording()} choices) "
          f"that differ from their pins: {changed}")
    failed = 0
    for pin in PINS:
        code, out, err = fresh_run(*pin.argv)
        if code or not matches(out, pin.golden):
            failed += 1
            print(f"FAIL {pin.family}[{pin.name}] (exit {code}):",
                  err.decode().strip())
    print(f"{len(PINS) - failed}/{len(PINS)} pins match their goldens")
    return 1 if failed or loaded or breaches or changed else 0


if __name__ == "__main__":
    sys.exit(main())
