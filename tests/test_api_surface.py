"""Every public name of the package is used by the package or the benchmark.

A public top-level function or class of src/ptmc, or a public method of
such a class, that nothing in src/ptmc or perfbench/ refers to outside its
own definition is API that only tests call: delete it, or keep it in KEEP
with the reason. A reference is a Name that is read, or an Attribute of
that name; a method counts only as an Attribute. Names are matched alone,
not by owner, so a method that shares its name with another attribute in
use (a second `translate`, say) passes unseen.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ptmc"

# module.name or module.Class.method, kept though nothing above refers to it
KEEP = {
    # what the acceptance suite (test_acceptance.py) checks
    "metric.truncated_distance",
    "codes.box_hull_check",
    "codes.verify_t_ptmc",
    # the compound's neighbours as the tests' oracles read them
    "gamma2.neighbors",
    # Graph's queries by vertex, beside degree and `in`: the package reads
    # neighbours by position, users of the exported Graph by vertex
    "graphs.Graph.neighbors",
    "graphs.Graph.has_edge",
}


def _trees(paths):
    return {p: ast.parse(p.read_text(), str(p)) for p in paths}


def _public_definitions(trees):
    """(qualified name, bare name, is a method, file, definition node)."""
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                out.append((f"{path.stem}.{node.name}", node.name, False, path, node))
            if isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}.{node.name}.{m.name}", m.name, True, path, m)
                        for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return out


def _references(trees):
    """name -> [(is an attribute, file, line)] over every file's syntax tree."""
    refs: dict[str, list] = {}
    for path, tree in trees.items():
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute):
                refs.setdefault(n.attr, []).append((True, path, n.lineno))
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                refs.setdefault(n.id, []).append((False, path, n.lineno))
    return refs


def _unreferenced():
    package = _trees(sorted(PACKAGE.glob("*.py")))
    refs = _references({**package, **_trees(sorted((ROOT / "perfbench").glob("*.py")))})
    defined, unused = set(), set()
    for qualified, name, method, path, node in _public_definitions(package):
        defined.add(qualified)
        if not any((attr or not method)
                   and not (where == path and node.lineno <= line <= node.end_lineno)
                   for attr, where, line in refs.get(name, ())):
            unused.add(qualified)
    return defined, unused


def test_every_public_name_is_used_outside_the_tests():
    defined, unused = _unreferenced()
    assert KEEP <= defined, f"KEEP names what is not defined: {sorted(KEEP - defined)}"
    assert sorted(unused - KEEP) == []
    # a KEEP entry that the package or the benchmark has come to use is stale
    assert sorted(KEEP - unused) == []
