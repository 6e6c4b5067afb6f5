"""Every top-level function, class and assigned name of the package, and
every public method, is referenced somewhere in the package or the
benchmark outside its own definition.  References from the tests do not
count: a definition that only tests call is not part of what the lab runs.

A reference is a Name, an Attribute, an import alias or a string constant;
string constants cover the benchmark tracer, which names what it wraps.  A
store into a subscript of a name (``x[i] = ...``) fills the name without
reading it, so it is no reference to that name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/kwlab", "perfbench")


def _subscript_stores(tree):
    """The Name nodes that a subscript store writes into, as in x[i][j] = v."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            while isinstance(node, ast.Subscript):
                node = node.value
            if isinstance(node, ast.Name):
                yield node


def _references(tree):
    """(name, line) of every reference in a module."""
    stores = set(map(id, _subscript_stores(tree)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if id(node) not in stores:
                yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for name in (node.name.rsplit(".", 1)[-1], node.asname):
                if name:
                    yield name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _definitions(tree):
    """(qualified name, name, node) of the top-level functions, classes and
    assigned names, and of the public methods of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, name.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def test_no_orphans():
    trees = {p: ast.parse(p.read_text(), str(p))
             for d in SCANNED for p in sorted((ROOT / d).glob("*.py"))}
    refs = {}  # name -> [(path, line)]
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    orphans = []
    for path in sorted((ROOT / "src/kwlab").glob("*.py")):
        for qualname, name, node in _definitions(trees[path]):
            uses = refs.get(name, [])
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, line in uses):
                orphans.append(f"{path.stem}.{qualname}")
    assert orphans == []
