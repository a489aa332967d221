"""The CLI's exact parser against argparse, on argv lists drawn from the
documented vocabulary and junk tokens.

``hmclass.cli.main`` parses the argv shapes README documents itself and
hands every other argv to argparse.  For each argv this module lists,
``main`` asserts that

- whenever the exact parser accepts it, ``vars()`` of its result equals
  ``vars()`` of argparse's ``Namespace``;
- whenever argparse exits, with an error or with help, the exact parser
  handed it over;
- the exact parser accepts every documented shape.

argparse's behaviour differs between Python versions, so this runs on
each of them, with the standard library alone:

    python -I tests/argv_parity.py
"""

import contextlib
import io
import sys
from itertools import permutations, product
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hmclass.cli import _build_parser, _documented_args  # noqa: E402
from hmclass.milnor import ALL_CONVENTIONS  # noqa: E402

LABELS = [c.label() for c in ALL_CONVENTIONS]

# each command's options, each with the values it is tried with: the
# positional input as "input", and [] for a flag
DOCUMENTED = {
    "lattice": {"input": ["in.json"], "--out": ["o.json"]},
    "spectra": {"input": ["in.json"], "--out": ["o.json"],
                "--tables": ["t.json"]},
    "virtual": {"--degree": ["4", "03"], "--ambient": ["3"],
                "--out": ["o.json"]},
    "chi-y": {"input": ["in.json"], "--out": ["o.json"]},
    "milnor": {"input": ["in.json"], "--out": ["o.json"],
               "--tables": ["t.json"], "--conventions": LABELS,
               "--dump-strata": []},
    "check": {},
    "calibrate": {"--out": ["o.json"]},
}

# tokens README does not document, or documents elsewhere: help,
# abbreviations, joined values, the end-of-options marker, an empty token,
# a negative number, a non-ASCII digit, ints that int() reads and ASCII
# digits it does not, a value outside the listed labels, and unknown words
JUNK = ["-h", "--help", "--dump", "--conv", "--out=x", "--dump-strata=1",
        "--", "", "-", "-3", "٣", "+3", "3_0", "9" * 5000, "foo",
        "--schema", "--unknown", "frobnicate", "in.json", "--out",
        "--degree", "--dump-strata"]

VOCABULARY = ["--schema", *DOCUMENTED, *JUNK, *LABELS[:1], "4"]


def spelled(option: str, value) -> list:
    """The tokens that give an option its value."""
    if option == "input":
        return [value]
    return [option] if value is None else [option, value]


def documented_shapes() -> list:
    """Each documented argv: each command with every set of its options,
    the required ones always, in their listed order and reversed, each
    option with each of its values."""
    shapes = [["--schema"]]
    for command, options in DOCUMENTED.items():
        required = [o for o in options if o in ("input", "--degree",
                                                "--ambient")]
        optional = [o for o in options if o not in required]
        for mask in range(1 << len(optional)):
            chosen = required + [o for i, o in enumerate(optional)
                                 if mask >> i & 1]
            choices = [options[o] or [None] for o in chosen]
            for values in product(*choices):
                pairs = list(zip(chosen, values))
                for order in (pairs, pairs[::-1]):
                    argv = [command]
                    for option, value in order:
                        argv += spelled(option, value)
                    if argv not in shapes:
                        shapes.append(argv)
    return shapes


def edits(argv: list) -> list:
    """argv with one token dropped, replaced by junk or doubled, and with
    one junk token inserted at each place."""
    out = []
    for i in range(len(argv)):
        out.append(argv[:i] + argv[i + 1:])
        out.append(argv[:i + 1] + argv[i:])
        out += [argv[:i] + [junk] + argv[i + 1:] for junk in JUNK]
    for i in range(len(argv) + 1):
        out += [argv[:i] + [junk] + argv[i:] for junk in JUNK]
    return out


def argv_lists() -> tuple:
    """The documented shapes, and every argv this module checks, each
    once: the shapes, single edits of each command's longest shapes, and
    every argv of at most two tokens from the vocabulary."""
    shapes = documented_shapes()
    longest = {}
    for argv in shapes:
        longest[argv[0]] = max(len(argv), longest.get(argv[0], 0))
    listed = list(shapes)
    for argv in shapes:
        if len(argv) == longest[argv[0]]:
            listed += edits(argv)
    listed += [list(p) for k in range(3)
               for p in permutations(VOCABULARY, k)]
    listed += [[token, token] for token in VOCABULARY]
    unique = {tuple(argv): argv for argv in listed}
    return shapes, list(unique.values())


def argparse_vars(argv: list):
    """vars() of argparse's Namespace for argv, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


def main() -> int:
    shapes, listed = argv_lists()
    refused = [argv for argv in shapes if _documented_args(argv) is None]
    assert not refused, f"documented argv handed over: {refused[:3]}"
    accepted = exits = 0
    for argv in listed:
        exact = _documented_args(argv)
        expected = argparse_vars(argv)
        if exact is not None:
            accepted += 1
            assert vars(exact) == expected, (argv, vars(exact), expected)
        elif expected is None:
            exits += 1
    assert exits, "no argv made argparse exit"
    print(f"{len(listed)} argv lists on Python {sys.version.split()[0]}: "
          f"{accepted} parsed exactly, each as argparse parses it; "
          f"{exits} on which argparse exits, each handed over")
    return 0


if __name__ == "__main__":
    sys.exit(main())
