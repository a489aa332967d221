"""Command-line surface: lattice and spectrum reports, virtual classes,
chi_y genera, Milnor-class assembly, the built-in check harness, and the
convention calibration report.

All output is deterministic JSON with rationals serialized as strings,
written as the text of json.dumps(value, indent=2) by jsontext, the one
module that writes JSON punctuation and indents: this one names fields,
builds skeletons with holes and renders leaf texts.  Exit codes: 0
success, 1 validation failure, 2 malformed input.

The lattice report reads each edge's density from the lattice's Euler
table (dense exactly when the Euler number is nonzero, by Crapo's
theorem) and the divisor's Euler number from the same Mobius pass, and
fills each edge's fields into one row skeleton, cut once per report.  The
spectra report builds a catalogue row's spectrum, shift and validation
once per germ type, and reports a user table's verdict from its load;
each distinct row is rendered once, cut at its stratum's own fields.
The chi-y report renders each distinct open-stratum value once.

The argv shapes README documents are parsed by a small table-driven
parser, without argparse, into the namespace argparse would give them.
Any other argv, help and abbreviations included, goes to argparse, which
is imported and built only then, so every help, usage and error text is
argparse's own.

A cold run loads only what its command reads.  At start this module
imports what parsing argv, --schema and the error writer need; each
command imports the package modules its report reads when it runs, so
lattice and chi-y load no milnor, genera, ambient or spectra, and spectra
loads no milnor, genera or ambient.  The input loaders read JSON through
jsontext's reader, whose one second path, json.loads, sees only text the
C scanner does not accept, so no well-formed request loads the json
package; the error writer imports json when it writes.
"""

from __future__ import annotations

import sys
from itertools import chain
from types import SimpleNamespace

from .jsontext import HOLE, dumps, encode_basestring_ascii, parts, splice

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MALFORMED = 2

SCHEMAS = {
    "arrangement_input": {
        "n": "int, ambient projective dimension",
        "hyperplanes": [{"coeffs": ["rational strings, length n+1"],
                         "mult": "positive int"}],
    },
    "spectrum_tables_input": {
        "<edge key '1,2,3'>": [{"alpha": "rational string (germ frame)",
                                "mult": "int"}],
    },
    "milnor_report": {
        "conventions": {"sign_mode": "...", "extension_mode": "..."},
        "M_y": {"<label>": ["rational strings, ascending powers of y"]},
        "per_stratum": {"<edge key>": "same shape as M_y"},
        "specializations": {"-1|0|1": {"<label>": "rational string"}},
        "degree0": {"virtual_genus": "...", "chi_y_X": "...", "delta": "...",
                    "trace_M_y": "...", "equal": "bool"},
        "cross_path": {"ok": "bool", "chern_milnor": {"<label>": "rational"}},
    },
}


def _emit(chunks, out_path=None):
    """Write a report's text, chunk by chunk, to out_path or stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _dumps(payload, fills=()):
    """A report's text, chunk by chunk: dumps(payload) with its holes
    filled in turn from fills, and a newline."""
    return chain(splice(payload, fills), ("\n",))


def _template(value, depth: int) -> str:
    """A %-template of dumps(value, depth), with a %s in each hole."""
    return "%s".join(piece.replace("%", "%%")
                     for piece in parts(value, depth))


def _list_text(members: list, depth: int) -> str:
    """The text of a list depth levels deep in a report whose members have
    the given texts, framed by one join."""
    if not members:
        return dumps([], depth)
    opening, sep, closing = parts([HOLE, HOLE], depth)
    return opening + sep.join(members) + closing


def _fail(code: int, kind: str, message: str) -> int:
    import json  # only a failed run writes with it

    sys.stderr.write(json.dumps(
        {"error": {"kind": kind, "message": message}}) + "\n")
    return code


# ---------------------------------------------------------------------------
# subcommands


def cmd_lattice(args) -> int:
    from . import arrangement, strata

    arr = arrangement.Arrangement.load(args.input)
    lattice = arr.lattice
    # each edge carries its localization's Euler number, and its Milnor
    # fiber's Euler number is that times m_s; the edge is dense exactly
    # when the localization's beta invariant, up to sign its Euler number,
    # is nonzero (Crapo 1967)
    row = _template(dict.fromkeys(
        ("key", "codim", "dim", "m_s", "dense", "complement_chi",
         "milnor_fiber_chi"), HOLE), 2)
    rows = [row % (encode_basestring_ascii(e.key), e.codim, e.dim, e.m_s,
                   "true" if e.euler else "false", e.euler, e.euler * e.m_s)
            for e in lattice.edges]
    payload = {
        "n": arr.n,
        "m": arr.m,
        "edges": HOLE,
        "chow_dims": {k: {str(d): v for d, v in sorted(t.items(), reverse=True)}
                      for k, t in strata.chow_dims(arr).items()},
        "weight_dims": {str(k): v for k, v in
                        sorted(strata.homology_weight_dims(arr).items())},
        # the divisor's Euler number, from the lattice's Mobius pass; the
        # key name is kept so the report stays stable
        "euler_inclusion_exclusion": lattice.divisor_euler,
    }
    _emit(_dumps(payload, [_list_text(rows, 1)]), args.out)
    return EXIT_OK


# the fields of a spectra row: the stratum's edge, codimension, dimension
# and m_s, which head the row, then its body: the spectrum's source, its
# entries in the germ frame and, shifted, in the stratum frame, and the
# validators' verdict against the stratum's localization
_SPECTRA_ROW = ("edge", "codim", "dim", "m_s",
                "source", "germ", "stratum_frame", "validation")


def cmd_spectra(args) -> int:
    from . import arrangement, spectra

    arr = arrangement.Arrangement.load(args.input)
    tables = spectra.sp_user_load(args.tables, arr) if args.tables else {}
    # a catalogue row's body reads the germ and the stratum's dimension,
    # rank, degree, reducedness and Euler number, and the germ fixes the
    # rest: its data are the multiplicities of rank independent hyperplanes
    # (a torus complement, Euler number 0 from rank 2) or k reduced lines
    # through a point (Euler number 2 - k), and the dimension is n - rank.
    # So a row's body is rendered once per germ, keyed by its source text
    # (one to one with its class and the order of its data), and a table's
    # row is its own; each row is its stratum's head, from a %-template,
    # and its body
    head, body, required = _spectra_row_writers()
    by_source = {}
    rows = []
    strata = arrangement.sigma_strata(arr)
    for s, germ in zip(strata, spectra.stratum_germs(strata, tables)):
        if germ is None:
            text = required
        elif germ.source == "user_table":
            # sp_user_load validated the table against this same
            # record and rejected any failure
            text = body(germ, spectra.sp_shift(germ, s, arr.n),
                        {"ok": True, "failures": []})
        else:
            text = by_source.get(germ.source)
            if text is None:
                text = by_source[germ.source] = body(
                    germ, spectra.sp_shift(germ, s, arr.n),
                    spectra.sp_validate(germ, s))
        rows.append(head % (encode_basestring_ascii(s.key), s.codim,
                            s.dim, s.m_s) + text)
    payload = {"n": arr.n, "m": arr.m, "strata": HOLE}
    _emit(_dumps(payload, [_list_text(rows, 1)]), args.out)
    return EXIT_OK


def _spectra_row_writers():
    """The %-template of a spectra row's head, two levels deep in the
    report, with a hole for each of the stratum's own fields; the function
    that writes a row's body from a spectrum, its shift and the
    validators' verdict; and the body of a row whose stratum the
    catalogue cannot serve.  Each is cut once per report."""
    from .coeffs import ratio_text

    cut = parts(dict.fromkeys(_SPECTRA_ROW, HOLE), 2)
    head = "%s".join(piece.replace("%", "%%") for piece in cut[:5])
    entry = _template({"alpha": HOLE, "mult": HOLE}, 4)
    opening, sep, closing = parts([HOLE, HOLE], 3)
    passed = dumps({"ok": True, "failures": []}, 3)

    def entries(sp) -> str:
        e = sp.e
        if not sp.pairs:
            return "[]"
        return opening + sep.join([entry % (f'"{ratio_text(c, e)}"', n)
                                   for c, n in sp.pairs]) + closing

    def body(sp, shifted, validation: dict) -> str:
        verdict = passed if validation["ok"] else dumps(validation, 3)
        return "".join((encode_basestring_ascii(sp.source), cut[5],
                        entries(sp), cut[6], entries(shifted), cut[7],
                        verdict, cut[8]))

    return head, body, encode_basestring_ascii("user_table_required") + cut[8]


def cmd_virtual(args) -> int:
    from . import ambient, coeffs

    n = args.ambient
    pushed = ambient.virtual_pushed(args.degree, n)
    genus = pushed[n]
    # the coefficient of h^(n-k) sits in homology degree k
    pushed_class = {str(k): pushed[n - k].as_strings()
                    for k in range(n + 1) if pushed[n - k]}
    payload = {
        "degree": args.degree,
        "ambient": n,
        "pushed_class": pushed_class,
        "genus": coeffs.poly_str(genus),
        "genus_coeffs": genus.as_strings(),
        "specializations": {str(y0): genus.text_at(y0) for y0 in (-1, 0, 1)},
    }
    _emit(_dumps(payload), args.out)
    return EXIT_OK


def cmd_chi_y(args) -> int:
    from . import arrangement, coeffs

    arr = arrangement.Arrangement.load(args.input)
    # chi_y of the divisor comes from the lattice's Mobius pass, and is
    # the sum over its strata, one per edge; the lattice holds each open
    # stratum's chi_y as an integer tuple, and each distinct tuple is
    # rendered once
    lattice = arr.lattice
    texts = {cs: dumps(coeffs.RatFuncY(cs).as_strings(), 2)
             for cs in set(lattice.chi_y_open)}
    value = arrangement.chi_y(arr)
    payload = {
        "n": arr.n,
        "chi_y_X": value.as_strings(),
        "chi_y_X_text": coeffs.poly_str(value),
        "chi_y_Pn": arrangement.chi_y_pn(arr.n).as_strings(),
        "euler_X": value.text_at(-1),
        "per_stratum": dict.fromkeys([e.key for e in lattice.edges], HOLE),
    }
    _emit(_dumps(payload, [texts[cs] for cs in lattice.chi_y_open]),
          args.out)
    return EXIT_OK


def cmd_milnor(args) -> int:
    from . import arrangement, milnor, spectra

    arr = arrangement.Arrangement.load(args.input)
    tables = spectra.sp_user_load(args.tables, arr) if args.tables else None
    conv = next(c for c in milnor.ALL_CONVENTIONS
                if c.label() == args.conventions)
    report = milnor.assemble(arr, tables, conv)
    _emit(report.json_chunks(args.dump_strata), args.out)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    from . import corpus, milnor  # only check and calibrate read the corpus

    suite = corpus.calibration_suite()
    _, report = milnor.calibrate(suite)
    _emit(_dumps(report), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    results = run_builtin_checks()
    for name, ok, detail in results:
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail and not ok:
            line += f"  [{detail}]"
        print(line)
    bad = [r for r in results if not r[1]]
    print(f"{len(results) - len(bad)}/{len(results)} checks passed")
    return EXIT_OK if not bad else EXIT_VALIDATION


def run_builtin_checks() -> list:
    """Invariant harness over the built-in corpus; returns
    (name, ok, detail) rows."""
    from . import corpus  # only check and calibrate read the corpus
    from .ambient import virtual_genus
    from .arrangement import (chi_y, edges, euler_by_inclusion_exclusion,
                              is_dense, localize, sigma_strata)
    from .coeffs import RatFuncY
    from .genera import hirzebruch_series, verify_identity_qr
    from .milnor import assemble
    from .spectra import sp_monomial, sp_ordinary
    from .strata import (compactify, deligne_residues, power_identity_holds,
                         relabel_vector, residues)

    out = []

    def check(name, fn):
        try:
            ok = bool(fn())
            out.append((name, ok, ""))
        except Exception as exc:  # report, never crash the harness
            out.append((name, False, f"{type(exc).__name__}: {exc}"))

    check("series identity (order 12)",
          lambda: verify_identity_qr(12)["ok"])
    check("series specialization y=-1 is 1+a",
          lambda: [c(-1) for c in hirzebruch_series("Q", 8)] ==
          [1, 1] + [0] * 7)
    check("virtual genus oracle values",
          lambda: virtual_genus(2, 2) == RatFuncY([1, -1])
          and virtual_genus(2, 3) == RatFuncY([1, -2, 1])
          and virtual_genus(3, 3) == RatFuncY([1, -7, 1])
          and virtual_genus(4, 3) == RatFuncY([2, -20, 2]))

    def chi_euler_agrees():
        for name in corpus.ALL_NAMES:
            arr = corpus.load(name)
            if chi_y(arr)(-1) != euler_by_inclusion_exclusion(arr):
                return False
        return True

    check("chi_y at y=-1 matches inclusion-exclusion", chi_euler_agrees)

    def dense_iff_chi():
        for name in corpus.ALL_NAMES:
            arr = corpus.load(name)
            for e in edges(arr):
                if is_dense(e, arr) != (localize(arr, e).euler != 0):
                    return False
        return True

    check("dense edge iff nonzero complement chi", dense_iff_chi)

    def spectrum_validators():
        for k in range(2, 7):
            if sp_ordinary(k).mass != (k - 1) ** 2:
                return False
        return sp_monomial([1, 1]) == sp_ordinary(2)

    check("spectrum catalogue validators", spectrum_validators)

    def residue_windows():
        for name in corpus.ALL_NAMES:
            arr = corpus.load(name)
            for s in sigma_strata(arr):
                model = compactify(arr, s)
                if not power_identity_holds(model):
                    return False
                for v in residues(model).values():
                    if not 0 <= v < model.m_s:
                        return False
                for k in range(1, model.m_s + 1):
                    for rv in deligne_residues(model, k).values():
                        if not 0 < rv <= 1:
                            return False
        return True

    check("residue windows and tensor-power identity", residue_windows)

    reports = {}

    def corpus_assembles():
        for name in corpus.ALL_NAMES:
            reports[name] = assemble(corpus.load(name))
        return True

    check("corpus assembles with polynomial strata", corpus_assembles)
    check("cross-path identity at y=-1",
          lambda: all(r.cross_path_ok for r in reports.values()))
    check("degree-0 identity on reduced plane corpus",
          lambda: all(reports[n].degree0["equal"]
                      for n in ("concurrent3", "triangle3", "quad6a", "quad6b")))

    def invariance_pair():
        rep_a, rep_b = reports["quad6a"], reports["quad6b"]
        moved = relabel_vector(rep_a.m_y, corpus.QUAD6_BIJECTION,
                               rep_a.schema, rep_b.schema)
        return moved == rep_b.m_y

    check("combinatorial invariance of the 6-line pair", invariance_pair)

    def deterministic_output():
        one = "".join(assemble(corpus.load("fourplanes")).json_chunks())
        two = "".join(assemble(corpus.load("fourplanes")).json_chunks())
        return one == two

    check("byte-identical reports across runs", deterministic_output)
    return out


# ---------------------------------------------------------------------------
# argument parsing


# the four conventions labels, in the order of milnor.ALL_CONVENTIONS,
# and the default, milnor.DEFAULT_CONVENTIONS.label(), written out so
# that parsing argv loads no milnor; a test holds them equal
_CONVENTION_LABELS = ("as_printed/res_(0,1]", "as_printed/res_[0,1)",
                      "flip_odd_strata/res_(0,1]", "flip_odd_strata/res_[0,1)")
_DEFAULT_LABEL = "as_printed/res_(0,1]"
_LABELS = frozenset(_CONVENTION_LABELS)


def _count(value: str) -> int:
    """An integer written in ASCII digits, as type=int reads it."""
    if not (value.isascii() and value.isdigit()):
        raise ValueError(value)
    return int(value)  # ValueError past int()'s digit limit


def _label(value: str) -> str:
    """One of the four conventions labels."""
    if value not in _LABELS:
        raise ValueError(value)
    return value


# The argv shapes README documents, parsed without argparse: each
# command's options, keyed by their spelling ("input" for the positional
# input), each with the converter of its value (None for a flag) and
# argparse's default for it; a _REQUIRED one must be given.
_REQUIRED = object()
_INPUT = {"input": (str, _REQUIRED), "--out": (str, None)}
_OPTIONS = {
    "lattice": _INPUT,
    "spectra": {**_INPUT, "--tables": (str, None)},
    "virtual": {"--degree": (_count, _REQUIRED),
                "--ambient": (_count, _REQUIRED), "--out": (str, None)},
    "chi-y": _INPUT,
    "milnor": {**_INPUT, "--tables": (str, None),
               "--conventions": (_label, _DEFAULT_LABEL),
               "--dump-strata": (None, False)},
    "check": {},
    "calibrate": {"--out": (str, None)},
}


def _documented_args(argv: list):
    """The namespace argparse gives argv, when argv is a lone --schema or
    a command word followed by its input and options, each spelled out in
    full at most once, with a value that is not empty and does not start
    with '-'; None for any other argv, which argparse then parses, so that
    every help, usage and error text is argparse's own."""
    if argv == ["--schema"]:
        return SimpleNamespace(schema=True, command=None)
    options = _OPTIONS.get(argv[0]) if argv else None
    if options is None:
        return None
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        key = token if token.startswith("-") else "input"
        if key not in options or key in given:
            return None
        convert = options[key][0]
        if convert is None:
            given[key] = True
            continue
        value = token if key == "input" else next(tokens, "")
        if not value or value.startswith("-"):
            return None
        try:
            given[key] = convert(value)
        except ValueError:
            return None
    values = {}
    for key, (_, default) in options.items():
        value = given.get(key, default)
        if value is _REQUIRED:
            return None
        values[key.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(schema=False, command=argv[0], **values)


_parser = None  # built once per process; parse_args leaves it unchanged


def _build_parser() -> argparse.ArgumentParser:
    global _parser
    if _parser is not None:
        return _parser
    import argparse  # only help, usage and errors need it

    parser = argparse.ArgumentParser(
        prog="hmclass",
        description="Exact characteristic-class computations for projective "
                    "hyperplane arrangements.")
    parser.add_argument("--schema", action="store_true",
                        help="print the JSON input/output schemas and exit")
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("input", help="arrangement JSON file")
        p.add_argument("--out", help="write the report to a file")

    p = sub.add_parser("lattice", help="edges, density, chi data, dimension tables")
    add_common(p)

    p = sub.add_parser("spectra", help="per-stratum spectra and validation")
    add_common(p)
    p.add_argument("--tables", help="user spectrum tables JSON")

    p = sub.add_parser("virtual", help="pushed virtual class and genus")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--ambient", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("chi-y", help="chi_y genus of the divisor by strata")
    add_common(p)

    p = sub.add_parser("milnor", help="assemble the Milnor-class report")
    add_common(p)
    p.add_argument("--tables", help="user spectrum tables JSON")
    p.add_argument("--conventions", default=_DEFAULT_LABEL,
                   choices=list(_CONVENTION_LABELS),
                   help="sign mode/extension mode, default %(default)s")
    p.add_argument("--dump-strata", action="store_true")

    sub.add_parser("check", help="run the built-in invariant harness")

    p = sub.add_parser("calibrate", help="evaluate all conventions on the corpus")
    p.add_argument("--out")
    _parser = parser
    return parser


COMMANDS = {
    "lattice": cmd_lattice,
    "spectra": cmd_spectra,
    "virtual": cmd_virtual,
    "chi-y": cmd_chi_y,
    "milnor": cmd_milnor,
    "check": cmd_check,
    "calibrate": cmd_calibrate,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _documented_args(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    if args.schema:
        _emit(_dumps(SCHEMAS))
        return EXIT_OK
    if not args.command:
        _build_parser().print_help()
        return EXIT_MALFORMED
    try:
        return COMMANDS[args.command](args)
    except (OSError, RuntimeError, ValueError) as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        return _fail(code, type(exc).__name__, str(exc))


def _exit_code(exc: Exception):
    """EXIT_VALIDATION for a MissingSpectrumError, a PolynomialityError or
    a SpectrumValidationError, EXIT_MALFORMED for any other MilnorError,
    OSError or ValueError, and None for an error main lets propagate.  An
    error of milnor's or spectra's exists only once its module is loaded,
    so the classes are looked up among the loaded modules, and neither is
    imported here."""
    milnor = sys.modules.get(f"{__package__}.milnor")
    spectra = sys.modules.get(f"{__package__}.spectra")
    if (milnor and isinstance(exc, (milnor.MissingSpectrumError,
                                    milnor.PolynomialityError))
            or spectra and isinstance(exc, spectra.SpectrumValidationError)):
        return EXIT_VALIDATION
    if (isinstance(exc, (OSError, ValueError))
            or milnor and isinstance(exc, milnor.MilnorError)):
        return EXIT_MALFORMED
    return None


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
