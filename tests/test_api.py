"""Dead-code guards.

Every library definition has a caller outside its tests: a top-level
function or class of `src/redtri`, or a public method of such a class, must
be named somewhere in `src/redtri` or `perfbench/*.py` besides its own
definition, or be listed in LIBRARY_API with the reason it stays.  A
top-level name counts as named wherever it appears; a method only where it
is read as an attribute (`x.name`) or named in `perfbench/tracer.py`, so a
builtin or a local variable of the same name does not keep it.  Code that
only its own test calls belongs in `tests/` or nowhere.

Every name a test module imports is read in that module, or imported from
it by another test module (as `conftest` passes on `random_drawing`).

Every function that `perfbench/tracer.py` patches by name exists.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "redtri").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
# the tracer patches functions by their names, given as strings
TRACER = ROOT / "perfbench" / "tracer.py"
TESTS = sorted((ROOT / "tests").glob("*.py"))

# public entry points with no caller in the library itself
LIBRARY_API = {
    "CoverChart.expand": "grows a chart to a radius; the cover tests use it",
    "CoverChart.lift_walk": "lifts a base walk into the chart",
    "is_reduced": "the reducedness predicate of the walk calculus",
    "_Parser.error": "argparse calls it on a usage error",
}


def _names(node, strings=False):
    """Every identifier that node refers to: names, attributes, imported
    names, and with `strings` identifier-like strings.  An attribute read
    (`x.name`) and a string also count under `.name`, the key of a
    method."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
            if isinstance(n.ctx, ast.Load):
                out["." + n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rsplit(".", 1)[-1]] += 1
        elif strings and isinstance(n, ast.Constant) \
                and isinstance(n.value, str) and n.value.isidentifier():
            out[n.value] += 1
            out["." + n.value] += 1
    return out


def _definitions(tree):
    """(qualified name, key, node) of each top-level function and class,
    keyed by its name, and of each public method of a top-level class,
    keyed by `.name`."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, defs[:2]) and not m.name.startswith("_"):
                    yield "%s.%s" % (node.name, m.name), "." + m.name, m


def _dead_definitions(sources=SOURCES, callers=CALLERS):
    """Definitions in `sources` with no caller in `callers` but themselves
    and other dead code."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in callers}
    used = Counter()
    for p, tree in trees.items():
        used.update(_names(tree, strings=p == TRACER))
    # per (file, qualified name), the key and the references its own
    # code makes; a class's own code leaves out its public methods, which
    # are definitions of their own
    own = {}
    for p in sources:
        for qual, key, node in _definitions(trees[p]):
            own[p.name, qual] = (key, _names(node))
            if "." in qual:
                own[p.name, qual.split(".")[0]][1].subtract(_names(node))
    dead = set()
    while True:
        new = set()
        for (f, qual), (key, _) in own.items():
            if (f, qual) in dead or qual in LIBRARY_API:
                continue
            # references from the definition itself, or from the live
            # methods of a class, do not call it
            selfrefs = sum(
                refs[key] for k, (_, refs) in own.items() if k not in dead
                and k[0] == f and (k[1] == qual or k[1].startswith(qual + ".")))
            if used[key] <= selfrefs or (f, qual.split(".")[0]) in dead:
                new.add((f, qual))
        if not new:
            return sorted("%s: %s" % k for k in dead)
        for k in new:
            used.subtract(own[k][1])
        dead |= new


def test_every_definition_has_a_caller():
    dead = _dead_definitions()
    assert not dead, "no caller outside tests:\n" + "\n".join(dead)


def test_a_builtin_of_the_same_name_does_not_call_a_method(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class Walk:\n"
                   "    def reversed(self):\n"
                   "        return self\n\n"
                   "    def end(self):\n"
                   "        return 0\n\n\n"
                   "def ends(walks):\n"
                   "    return [w.end() for w in reversed(walks)]\n")
    main = tmp_path / "main.py"
    main.write_text("import lib\nprint(lib.ends([lib.Walk()]))\n")
    assert _dead_definitions([lib], [lib, main]) == ["lib.py: Walk.reversed"]


def test_library_api_entries_exist():
    # a stale entry would exempt a name that no longer exists
    quals = {qual for p in SOURCES
             for qual, _, _ in _definitions(ast.parse(p.read_text()))}
    assert set(LIBRARY_API) <= quals


def _tracer_patches():
    """(namespace, attribute) of each entry of the tracer's PATCHES, read
    from its source: the namespace as dotted names, such as
    ("cover", "CoverChart")."""
    tree = ast.parse(TRACER.read_text(), str(TRACER))
    table = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                 and [ast.unparse(t) for t in n.targets] == ["PATCHES"])
    return [(tuple(ast.unparse(ns).split(".")), attr.value)
            for ns, attr, *_ in (e.elts for e in table.elts)]


def test_tracer_patch_targets_exist():
    # the traced benchmark run patches each by name, so a rename breaks it
    patches = _tracer_patches()
    assert len(patches) > 20
    for ns, attr in patches:
        obj = importlib.import_module("redtri." + ns[0])
        for name in ns[1:]:
            obj = getattr(obj, name)
        assert callable(getattr(obj, attr, None)), (ns, attr)


def _unused_test_imports():
    """(module, name) of each imported name that its test module never
    reads and no other test module imports from it."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in TESTS}
    passed_on = {(n.module, a.name) for tree in trees.values()
                 for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                 for a in n.names}
    unused = []
    for mod, tree in trees.items():
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for n in ast.walk(tree):
            if isinstance(n, (ast.Import, ast.ImportFrom)):
                for a in n.names:
                    name = a.asname or a.name.split(".")[0]
                    if name not in read and (mod, name) not in passed_on:
                        unused.append("%s: %s" % (mod, name))
    return sorted(unused)


def test_every_test_import_is_used():
    unused = _unused_test_imports()
    assert not unused, "imported but unused:\n" + "\n".join(unused)
