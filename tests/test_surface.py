"""Every public name in bsfour earns its place.

The rule: each public module-level function or class of src/bsfour,
and each public method of those classes (dunders aside), is referred
to somewhere in src/bsfour outside its own definition, or in
layerbench/*.py.  A reference from inside a definition that fails the
rule does not count either, so a name used only by unused names is
found too (a cycle of names that only call each other is not).  A
name that only the tests call belongs in tests/support.py, or nowhere.

The check is by name only.  A reference is an identifier in code, or
a string literal spelling a dotted name (as layerbench's tracer names
the callables it wraps, "module.function"); comments, docstrings and
other strings do not count.  Two unrelated definitions that share a
name count as using each other, so the check can miss dead code.
"""

import ast
import io
import pathlib
import re
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bsfour"
BENCHMARK = ROOT / "layerbench"
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+\Z")


def _docstring_starts(tree):
    starts = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            starts.add((node.lineno, node.col_offset))
    return starts


def references(path):
    """(name, line) for every reference in the file, as defined above;
    the name in a def or class header is not a reference."""
    source = path.read_text()
    docstrings = _docstring_starts(ast.parse(source))
    out = []
    previous = None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        line = tok.start[0]
        if tok.type == tokenize.NAME:
            if previous not in ("def", "class"):
                out.append((tok.string, line))
        elif tok.type == tokenize.STRING and tok.start not in docstrings:
            prefix = tok.string[:tok.string.index(tok.string[-1])]
            if "f" in prefix.lower():
                continue  # an f-string names nothing literally
            text = ast.literal_eval(tok.string)
            if isinstance(text, str) and _DOTTED.match(text):
                out.extend((word, line) for word in text.split("."))
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            previous = tok.string
    return out


def public_definitions(path):
    """(qualified name, name, first line, last line) of each public
    function, class and non-dunder method the module defines."""
    out = []
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        out.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    out.append(("%s.%s" % (node.name, item.name), item.name,
                                item.lineno, item.end_lineno))
    return out


def unused_names(package, benchmark):
    """Qualified names of the definitions that fail the rule, and the
    number of definitions checked.  package maps each module path to
    its references; benchmark is the set of names layerbench refers to.
    """
    defs = [(path,) + d for path in sorted(package)
            for d in public_definitions(path)]
    sites = {}
    for path, refs in package.items():
        for word, line in refs:
            sites.setdefault(word, []).append((path, line))

    def used(defn, dead):
        path, _, name, first, last = defn
        if name in benchmark:
            return True
        # references inside the definition itself, or inside one
        # already found unused, do not count
        blind = [(d[0], d[3], d[4]) for d in dead] + [(path, first, last)]
        return any(not any(p == other and lo <= line <= hi
                           for p, lo, hi in blind)
                   for other, line in sites.get(name, ()))

    dead = []
    while True:
        now = [d for d in defs if not used(d, dead)]
        if now == dead:
            return ["%s.%s" % (d[0].stem, d[1]) for d in dead], len(defs)
        dead = now


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    package = {path: references(path) for path in PACKAGE.glob("*.py")}
    benchmark = {word for path in BENCHMARK.glob("*.py")
                 for word, _ in references(path)}
    unused, checked = unused_names(package, benchmark)
    assert checked >= 50, "found only %d public names" % checked
    assert not unused, "used only outside bsfour and layerbench: " + \
        ", ".join(unused)


def test_references_skip_prose_and_definitions(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '"""alpha in a docstring."""\n'
        "def beta():\n"
        '    """gamma."""\n'
        '    return delta("epsilon zeta", "eta.theta",\n'
        '                 f"kappa.{x}")  # iota\n')
    words = {word for word, _ in references(path)}
    assert {"delta", "eta", "theta", "return"} <= words
    assert not words & {"alpha", "beta", "gamma", "epsilon", "zeta", "iota",
                        "kappa"}


def test_a_name_used_only_by_unused_names_is_unused(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def helper():\n    return 1\n\n\n"
        "def caller():\n    return helper()\n\n\n"
        "def run():\n    return 2\n\n\n"
        "class Box:\n    def get(self):\n        return run()\n")
    package = {path: references(path)}
    unused, checked = unused_names(package, set())
    assert checked == 5
    assert unused == ["m.helper", "m.caller", "m.run", "m.Box", "m.Box.get"]
    assert unused_names(package, {"caller", "Box", "get"}) == ([], 5)
