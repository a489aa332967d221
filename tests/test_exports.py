"""The package exports nothing that only tests read.

Every name in a module's __all__, and every public module-level function
and class of src/hmclass and every public method of such a class, must
have a reader in src/hmclass besides its own definition, or stand in
ALLOWED with the reason it stays; and ALLOWED names no name that has a
reader, so that it cannot go stale.  A function or class is read where
its module, or a module that imports it, loads the name outside a
function that binds the same name itself, or where an attribute of that
name is read; a method is read where an attribute of its name is.  The
body of hmclass check (cli.run_builtin_checks) is an invariant harness,
not a reader: what only it reads stands in ALLOWED.  Standard library
only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hmclass"

# the harness whose reads do not count, as (module, function)
CHECK = ("cli", "run_builtin_checks")

_BY_CHECK = "read only by hmclass check (cli.run_builtin_checks)"
_BY_PERFBENCH = "read by the benchmark, perfbench/"

# qualified name -> why it stays without a reader in the package
ALLOWED = {
    "arrangement.build": "the in-memory constructor beside "
                         "Arrangement.load: arrangements from covectors, "
                         "which the tests build throughout",
    "arrangement.Edge.edge": f"{_BY_PERFBENCH}make_pool.py (s.edge.codim)",
    "arrangement.euler_by_inclusion_exclusion": _BY_CHECK,
    "arrangement.is_dense": _BY_CHECK,
    "arrangement.localize": _BY_CHECK,
    "genera.verify_identity_qr": _BY_CHECK,
    "spectra.Spectrum.describe": f"{_BY_PERFBENCH}make_pool.py",
    "spectra.sp_monomial": _BY_CHECK,
    "spectra.sp_ordinary": _BY_CHECK,
    "spectra.stratum_spectrum": f"{_BY_PERFBENCH}spans.py's span target "
                                "and make_pool.py",
    "strata.relabel_vector": _BY_CHECK,
}


def modules() -> dict:
    """Module name -> its syntax tree, for every module of the package."""
    return {p.relative_to(SRC).with_suffix("").as_posix().replace("/", "."):
            ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.rglob("*.py"))}


def public(tree) -> list:
    """(qualified name in its module, name, node, is a method) per public
    module-level function and class, and per public method of such a
    class."""
    out = []
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            out.append((node.name, node.name, node, False))
            if isinstance(node, ast.ClassDef):
                out += [(f"{node.name}.{sub.name}", sub.name, sub, True)
                        for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")]
    return out


def exported(tree) -> list:
    """The names of a module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [e.value for e in node.value.elts]
    return []


def _bound(function) -> set:
    """The names a function or lambda binds itself: its arguments and
    every name it stores, nested functions included."""
    args = function.args
    names = {a.arg for a in (*args.posonlyargs, *args.args,
                             *args.kwonlyargs, args.vararg, args.kwarg)
             if a is not None}
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def reads(tree, skip: str = "") -> tuple:
    """(global loads, attribute reads) of a module, each a list of
    (name, line): the loads are names read outside any function that
    binds them.  The module-level function named skip is not read."""
    loads, attributes = [], []

    def visit(node, bound):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            bound = bound | _bound(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in bound:
                loads.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            attributes.append((node.attr, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    for node in tree.body:
        if not (isinstance(node, ast.FunctionDef) and node.name == skip):
            visit(node, frozenset())
    return loads, attributes


def imported(tree) -> set:
    """The names a module binds by from-imports."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unread(trees: dict) -> list:
    """The qualified names of the package that no package code reads."""
    seen = {name: reads(tree, CHECK[1] if name == CHECK[0] else "")
            for name, tree in trees.items()}
    imports = {name: imported(tree) for name, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        names = public(tree)
        candidates = [(qual, name, (node.lineno, node.end_lineno), method)
                      for qual, name, node, method in names]
        defined = {name for _, name, _, method in names if not method}
        candidates += [(name, name, None, False) for name in exported(tree)
                       if name not in defined]
        for qual, name, span, method in candidates:
            def elsewhere(where, line):
                return not (where == module and span
                            and span[0] <= line <= span[1])

            found = any(attr == name and elsewhere(where, line)
                        for where, (_, attrs) in seen.items()
                        for attr, line in attrs)
            if not method:
                found = found or any(
                    load == name and elsewhere(where, line)
                    for where, (loads, _) in seen.items()
                    if where == module or name in imports[where]
                    for load, line in loads)
            if not found:
                out.append(f"{module}.{qual}")
    return sorted(out)


def test_every_public_name_has_a_reader_or_a_reason():
    assert unread(modules()) == sorted(ALLOWED)


def test_every_reason_is_given():
    assert all(reason.strip() for reason in ALLOWED.values())


def test_an_unread_function_is_found():
    # the scan itself: a public function nothing reads is reported, and a
    # local of the same name does not read it
    tree = ast.parse("def spare():\n    pass\n\n\n"
                     "def other(spare):\n    return spare\n")
    assert unread({"extra": tree}) == ["extra.other", "extra.spare"]
