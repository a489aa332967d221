"""Mutants the tests must kill.

Each mutant names a source file, an exact text that occurs in it exactly
once, the text that replaces it, and the pytest node ids that must each
fail once it is in place.  The runner copies src/ and tests/ to a
temporary directory, checks that the named tests all pass on the
unmutated copy, and then, mutant by mutant, makes the one replacement in
a fresh copy of that checked copy and runs its tests there, so that
every verdict is about one tree, whatever the working tree does
meanwhile.  The clean copy's tests and the mutants run on WORKERS
processes at a time, and the verdicts print in the list's order.  It
exits 1 if the clean copy fails, if a text is not found exactly once, or
if any named test passes under its mutant.  Standard library only; the
tests it runs need pytest, hypothesis and sympy.

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# pytest processes at a time: each is one thread of Python, and a host
# with two CPUs runs two of them in about the time of one
WORKERS = 2

PROPS = "tests/test_properties.py"
RING_PATH = f"{PROPS}::test_integer_path_matches_ring_path_on_every_stratum"
CROSS_PATH = f"{PROPS}::test_cross_path_reruns_and_relabeling"
DEGREE0 = f"{PROPS}::test_degree0_equality_on_reduced_plane_arrangements"
BRUTE = "tests/test_arrangement.py::TestEdges"
STREAMED = f"{PROPS}::test_streamed_report_matches_dense_reference"
LATTICE_SIDE = f"{PROPS}::test_lattice_side_reports_match_json_dumps"
CORPUS = "tests/test_cli.py::test_corpus_report_matches_golden"
PARITY = "tests/test_cli.py::test_exact_parser_agrees_with_argparse"
REGROUPED = "tests/test_milnor.py::TestRegroupedContribution"
SPECIALIZED = f"{PROPS}::test_specializations_and_trace_read_every_label"
READER = "tests/test_cli.py::test_json_reader_agrees_with_json_loads"
VALIDATE_TEXTS = "tests/test_spectra.py::TestValidate::test_failure_texts"
CONCURRENT = ("tests/test_spectra.py::TestOrdinary"
              "::test_validates_against_concurrent_lines")

# name -> (file, old text, new text, node ids that must fail)
MUTANTS = {
    "surface-drops-Q": (
        "src/hmclass/milnor.py",
        "        point = sq + wc + 2 * a\n",
        "        point = wc + 2 * a\n",
        [RING_PATH]),
    "surface-L-for-L-minus-2": (
        "src/hmclass/milnor.py",
        "line + 2 * (lines - 2) * a",
        "line + 2 * lines * a",
        [RING_PATH]),
    "surface-swaps-C-and-X": (
        "src/hmclass/milnor.py",
        "        point = sq + wc + 2 * a\n"
        "        middle = 2 * wx + kappa * a\n",
        "        point = sq + wx + 2 * a\n"
        "        middle = 2 * wc + kappa * a\n",
        [RING_PATH]),
    "chern-3-minus-L": (
        "src/hmclass/milnor.py",
        "(shared[1], 2 - lines)",
        "(shared[1], 3 - lines)",
        [f"{PROPS}::test_chern_path_matches_class_oracle"]),
    "search-skips-without-containment": (
        "src/hmclass/arrangement.py",
        "                if found & mask == mask:\n"
        "                    skip |= found\n",
        "                skip |= found\n",
        [f"{BRUTE}::test_random_arrangements_against_brute_force",
         f"{BRUTE}::test_random_p4_arrangements_against_brute_force"]),
    # an edge that forgets the joins found through its hyperplanes from
    # earlier edges finds a concurrent point again, unsaturated
    "search-forgets-found-joins": (
        "src/hmclass/arrangement.py",
        "                for j in joined:\n"
        "                    through[j].append(key)\n",
        "",
        [f"{BRUTE}::test_concurrent_counts",
         f"{BRUTE}::test_cover_walks_against_filters"]),
    # the open stratum of an edge is P^d minus the open strata above it
    "chi-y-open-adds-the-strata-above": (
        "src/hmclass/arrangement.py",
        "                        cs[p] -= c\n",
        "                        cs[p] += c\n",
        [f"{PROPS}::test_lattice_tables_match_whitney_oracle"]),
    "curve-beta-ceiling-as-floor": (
        "src/hmclass/milnor.py",
        "beta, b_d = -(m - m_s) // m_s,",
        "beta, b_d = -((m - m_s) // m_s),",
        [RING_PATH]),
    "type-key-skips-frame-check": (
        "src/hmclass/milnor.py",
        'if germ.frame != ("germ", codim):',
        "if False:",
        [f"{REGROUPED}::test_germ_frame_only"]),
    # no catalogue germ or validated table has an e that does not divide
    # m_s, so only a hand-built table reaches the refusal
    "type-key-skips-divisibility": (
        "src/hmclass/milnor.py",
        "    if m_s % e:\n",
        "    if False:\n",
        [f"{REGROUPED}::test_e_divides_m_s"]),
    "mobius-chi-y-parity-sign": (
        "src/hmclass/arrangement.py",
        "chi_y[p] = -acc if p % 2 else acc",
        "chi_y[p] = acc if p % 2 else -acc",
        [f"{PROPS}::test_chi_y_of_the_mobius_pass_sums_the_open_strata",
         DEGREE0]),
    "trace-ignores-multiplicity": (
        "src/hmclass/strata.py",
        "RatFuncY.from_ints([count * c for c in num], den, k)",
        "RatFuncY.from_ints(list(num), den, k)",
        ["tests/test_strata.py::TestTraceAndSpecializations"
         "::test_trace_counts_each_label",
         DEGREE0]),
    "point-drops-linear-term": (
        "src/hmclass/milnor.py",
        "a * n + b * (lo + hi) * n // 2",
        "a * n",
        [RING_PATH, DEGREE0, CROSS_PATH]),
    "m-y-keeps-last-push": (
        "src/hmclass/milnor.py",
        "            m_y[name] = v if prev is None else prev + v\n",
        "            m_y[name] = v\n",
        ["tests/test_milnor.py::TestMemo::test_random_arrangements",
         CROSS_PATH]),
    "label-value-depth-off-by-one": (
        "src/hmclass/milnor.py",
        "rendered[form] = dumps(to_json(value), depth + 1)",
        "rendered[form] = dumps(to_json(value), depth)",
        [f"{CORPUS}[fourplanes-milnor]", STREAMED]),
    "lattice-row-depth-off-by-one": (
        "src/hmclass/cli.py",
        '"milnor_fiber_chi"), HOLE), 2)',
        '"milnor_fiber_chi"), HOLE), 1)',
        [f"{CORPUS}[concurrent3-lattice]", LATTICE_SIDE]),
    # every milnor coefficient has denominator 1 or 2, so no report text
    # shows a fraction whose gcd is neither 1 nor its denominator; the
    # coefficient-text property and a virtual class do
    "coeff-text-skips-gcd": (
        "src/hmclass/coeffs.py",
        'return f"{c // g}/{den // g}"',
        'return f"{c}/{den}"',
        ["tests/test_coeffs.py::TestCoefficientText"
         "::test_text_is_the_fraction_text",
         "tests/test_cli.py::TestOtherCommands"
         "::test_virtual_matches_golden[1-4]"]),
    # (1, 1, 1) is ordinary(3) on a triple line and monomial(1,1,1) at a
    # normal-crossing point, so a germ memo keyed by the multiplicities
    # alone gives one of them the other's germ
    "germ-memo-drops-codim": (
        "src/hmclass/spectra.py",
        "local = (s.codim, s.mults)",
        "local = s.mults",
        ["tests/test_milnor.py::TestOnePass::test_germ_per_local_type"]),
    # a stored zero renders as "0", as a missing label does, so no golden
    # shows it; the vectors do
    "specialization-keeps-zero": (
        "src/hmclass/strata.py",
        "for out, c in zip(outs.values(), values)\n"
        "                             if c]",
        "for out, c in zip(outs.values(), values)]",
        [f"{PROPS}::test_no_vector_stores_a_zero",
         "tests/test_strata.py::TestTraceAndSpecializations"
         "::test_three_specializations"]),
    # a coefficient's value at y = 1 is the sum of its numerator over den
    "specialization-at-one-reads-constant": (
        "src/hmclass/strata.py",
        "num[0], sum(num))",
        "num[0], num[0])",
        [SPECIALIZED,
         "tests/test_strata.py::TestTraceAndSpecializations"
         "::test_three_specializations"]),
    # a vector is keyed by the labels of its source schema; the target's
    # names differ under any relabeling that moves an edge
    "relabel-reads-target-labels": (
        "src/hmclass/strata.py",
        "    for l in source.labels:\n",
        "    for l in target.labels:\n",
        ["tests/test_milnor.py::TestInvariance", CROSS_PATH]),
    # labels and strata read one rule, so the multiple hyperplanes lose
    # both their labels and their strata
    "sigma-rule-drops-multiple-hyperplanes": (
        "src/hmclass/arrangement.py",
        "    return edge.codim > 1 or edge.m_s > 1\n",
        "    return edge.codim > 1\n",
        [f"{CORPUS}[doubleline-milnor]", f"{CORPUS}[doubleline-lattice]"]),
    # each edge is built with the Euler number of its own position
    "localization-misreads-euler": (
        "src/hmclass/arrangement.py",
        "euler, [n - codim for codim in codims]",
        "euler[-1:] + euler[:-1], [n - codim for codim in codims]",
        [f"{CORPUS}[concurrent3-milnor]",
         f"{PROPS}::test_lattice_tables_match_whitney_oracle"]),
    # the divisor's Euler number is its chi_y at y = -1, the even
    # coefficients counted positive
    "divisor-euler-parity": (
        "src/hmclass/arrangement.py",
        "sum(divisor_chi_y[::2]) - sum(divisor_chi_y[1::2])",
        "sum(divisor_chi_y[1::2]) - sum(divisor_chi_y[::2])",
        [f"{PROPS}::test_divisor_euler_of_the_mobius_pass",
         f"{CORPUS}[concurrent3-lattice]"]),
    # no CLI input reaches a frame mismatch, since sp_user_load builds each
    # table's frame from its record; a direct caller's spectrum does
    "sp-validate-frame-check-and": (
        "src/hmclass/spectra.py",
        'if kind != "germ" or d != rank:',
        'if kind != "germ" and d != rank:',
        ["tests/test_spectra.py::TestValidate::test_frame_failure"]),
    # assembly asks every germ whether it is zero, so a zero test that
    # expands the entries expands every catalogue germ in every report
    "is-zero-expands-entries": (
        "src/hmclass/spectra.py",
        "        return self._zero\n",
        "        return not self.pairs\n",
        ["tests/test_milnor.py::TestWorkPerStratum"]),
    # sp_shift signs the runs, not the entries; on a curve ordinary(3)'s
    # linear multiplicities change sign with their constants
    "sp-shift-leaves-b-unsigned": (
        "src/hmclass/spectra.py",
        "(p, lo, hi, sign * a, sign * b)",
        "(p, lo, hi, sign * a, b)",
        ["tests/test_spectra.py::TestShift::test_triple_germ_on_a_line",
         f"{CORPUS}[pencil3planes-spectra]"]),
    "m-y-keeps-cancelled-sum": (
        "src/hmclass/milnor.py",
        "    m_y = {name: v for name, v in m_y.items() if v}  # sums may cancel\n",
        "",
        [f"{PROPS}::test_no_vector_stores_a_zero"]),
    # a label-owning codimension-2 edge of dimension 3 in P^5 has no letter
    "labels-skip-envelope": (
        "src/hmclass/strata.py",
        "                check_envelope(e)\n",
        "",
        ["tests/test_strata.py::TestPushAndLabels"
         "::test_label_past_the_envelope_is_refused"]),
    "series-inverse-sign": (
        "src/hmclass/genera.py",
        "out.append(-acc * inv0)",
        "out.append(acc * inv0)",
        ["tests/test_coeffs.py::TestSeries::test_geometric_inverse"]),
    "series-product-drops-top": (
        "src/hmclass/genera.py",
        "range(len(a) - i)",
        "range(len(a) - i - 1)",
        ["tests/test_coeffs.py::TestSeries::test_product_truncation"]),
    "q-adds-y": (
        "src/hmclass/genera.py",
        "q[1] - _Y",
        "q[1] + _Y",
        ["tests/test_genera.py::TestSeries"
         "::test_q_specializes_to_chern_at_minus_one"]),
    # the exact parser then hands documented argv over, and gives no
    # dump_strata to the milnor argv it still parses
    "exact-parser-drops-dump-strata": (
        "src/hmclass/cli.py",
        '               "--dump-strata": (None, False)},\n',
        "               },\n",
        [PARITY]),
    # argparse refuses --conventions foo; the exact parser must hand it over
    "exact-parser-skips-label-check": (
        "src/hmclass/cli.py",
        "    if value not in _LABELS:\n",
        "    if False:\n",
        [PARITY]),
    # json.loads refuses "[1] x" with "Extra data"; the C scanner reads
    # the [1] and stops
    "reader-accepts-trailing-data": (
        "src/hmclass/jsontext.py",
        "            if not text[end:].lstrip(_SPACE):\n",
        "            if True:\n",
        [READER]),
    # int() then refuses an unquoted over-long integer in its own text,
    # which differs by version, and untyped
    "reader-drops-digit-hook": (
        "src/hmclass/arrangement.py",
        "_read = reader(_json_int)",
        "_read = reader(int)",
        ["tests/test_cli.py::TestMilnorCommand"
         "::test_unquoted_digit_limit_exit_code", READER]),
    # the validators read integer numerators c of the exponents c/e, whose
    # symmetry partner is rank - c/e, numerator rank e - c
    "sp-validate-symmetry-partner-sum": (
        "src/hmclass/spectra.py",
        "            partner = top - c\n",
        "            partner = top + c\n",
        [VALIDATE_TEXTS, CONCURRENT]),
    # e divides c m_s exactly when the exponent's denominator divides m_s;
    # every fractional catalogue exponent c/e has c prime to e
    "sp-validate-denominator-drops-m-s": (
        "src/hmclass/spectra.py",
        "        if c * m_s % e:\n",
        "        if c % e:\n",
        [CONCURRENT]),
    # the support is the open interval (0, rank)
    "sp-validate-support-closed-at-rank": (
        "src/hmclass/spectra.py",
        "if not (0 < c < top):",
        "if not (0 < c <= top):",
        [VALIDATE_TEXTS]),
    # rat gives pairs in lowest terms, so that equal exponents of a table
    # sum into one entry
    "rat-skips-lowest-terms": (
        "src/hmclass/coeffs.py",
        "        return (p // g, q // g) if g != 1 else pair\n",
        "        return pair\n",
        ["tests/test_coeffs.py::TestRatFunc::test_rat_agrees_with_fraction",
         "tests/test_arrangement.py::TestBuild::test_coefficient_parse"]),
    # a spectra row's entries sit four levels deep in the report
    "spectra-entry-depth-off-by-one": (
        "src/hmclass/cli.py",
        'entry = _template({"alpha": HOLE, "mult": HOLE}, 4)',
        'entry = _template({"alpha": HOLE, "mult": HOLE}, 3)',
        [f"{CORPUS}[concurrent3-spectra]", LATTICE_SIDE]),
    # --schema, lattice and chi-y then load the Milnor-class modules
    "cli-imports-milnor-at-start": (
        "src/hmclass/cli.py",
        "from .jsontext import HOLE, dumps, encode_basestring_ascii, parts, "
        "splice\n",
        "from .jsontext import HOLE, dumps, encode_basestring_ascii, parts, "
        "splice\nfrom . import milnor  # noqa: F401\n",
        ["tests/test_cli.py::test_each_command_loads_only_what_it_reads"]),
}


def copy_tree(source: Path, dest: Path):
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(source / part, dest / part, ignore=skip)


def run_tests(tree: Path, node_ids) -> dict:
    """node id -> passed, for each id; a test pytest does not report (a
    wrong id, or a collection error) counts as not passed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         *node_ids], cwd=tree, env=env, capture_output=True, text=True)
    outcome = {}
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            outcome[rest.split(" - ")[0]] = word == "PASSED"
    # a node id names a test or a group of them (a class, parametrized
    # cases): it passes when every test under it does, and there is one
    def under(node):
        return [ok for k, ok in outcome.items()
                if k == node or k.startswith((node + "[", node + "::"))]

    return {node: bool(under(node)) and all(under(node))
            for node in node_ids}


def run_mutant(tmp: Path, clean: Path, name: str) -> tuple:
    """(bad, lines): the mutant's verdict in a fresh copy of the clean
    copy, bad when its text is not found once or a named test survives."""
    rel, old, new, ids = MUTANTS[name]
    tree = tmp / name
    copy_tree(clean, tree)
    try:
        path = tree / rel
        text = path.read_text()
        if text.count(old) != 1:
            return True, [f"{name}: the text occurs {text.count(old)} times "
                          f"in {rel}, not once"]
        path.write_text(text.replace(old, new))
        start = time.perf_counter()
        survived = [n for n, ok in run_tests(tree, ids).items() if ok]
        took = time.perf_counter() - start
        return bool(survived), [
            f"{name}: {'SURVIVED' if survived else 'killed'} ({took:.1f} s)",
            *(f"  still passes: {n}" for n in survived)]
    finally:
        shutil.rmtree(tree)


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp, \
            ThreadPoolExecutor(WORKERS) as pool:
        tmp = Path(tmp)
        clean = tmp / "clean"
        copy_tree(ROOT, clean)
        nodes = sorted({n for *_, ids in MUTANTS.values() for n in ids})
        start = time.perf_counter()
        passed = {}
        for part in pool.map(lambda i: run_tests(clean, nodes[i::WORKERS]),
                             range(WORKERS)):
            passed.update(part)
        failing = [n for n in nodes if not passed[n]]
        print(f"clean copy: {len(nodes) - len(failing)}/{len(nodes)} pass "
              f"({time.perf_counter() - start:.1f} s)")
        if failing:
            print("  fail on the clean copy:", *failing, sep="\n    ")
            return 1
        for mutant_bad, lines in pool.map(
                lambda name: run_mutant(tmp, clean, name), MUTANTS):
            print(*lines, sep="\n", flush=True)
            bad += mutant_bad
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
