"""Every module-level import in the package and the tests is used, and
every definition in the package is used by the package.

A name counts as used when some scope of the module reads it as the
module-level binding (symtable: referenced at module level, or referenced
as an implicit global in a nested scope), when an annotation names it
(`from __future__ import annotations` keeps annotations out of the symbol
table), or when `__all__` exports it.  A plain name scan is not enough: a
parameter that shares an import's name would hide the unused import.

A definition (top-level function, class, method, or UPPER_CASE constant)
counts as used when some source file of the package reads its bare name,
as a name or an attribute, outside the definition itself: an API that only
the tests reach is not part of the program.
"""

import ast
import symtable
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC_FILES = sorted((ROOT / "src" / "hardylab").glob("*.py"))
FILES = SRC_FILES + sorted((ROOT / "tests").glob("*.py"))
# definitions used only from outside the package, with the reason
UNUSED_ALLOWED = {
    # perfbench/workloads.py writes the cone-split probe files with it
    "grids.write_ndfn",
}


def _imported_names(tree):
    """{bound name: line} of the imports in the module body."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_as_global(table, top=True):
    used = set()
    for sym in table.get_symbols():
        if sym.is_referenced() and (top or sym.is_global()):
            used.add(sym.get_name())
    for child in table.get_children():
        used |= _used_as_global(child, top=False)
    return used


def _annotation_names(tree):
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes += [a.annotation for a in
                      args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg] if a is not None]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    return {n.id for note in notes if note is not None
            for n in ast.walk(note) if isinstance(n, ast.Name)}


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = (_used_as_global(symtable.symtable(source, str(path), "exec"))
            | _annotation_names(tree) | _exported(tree))
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"unused imports in {path.name}: {unused}"


def _definitions(tree):
    """[(qualified name, bare name, node)] of the module's top-level
    functions and classes, the methods of those classes (dunders aside:
    the language calls them) and its UPPER_CASE constants."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append((node.name, node.name, node))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{item.name}", item.name, item)
                     for item in node.body
                     if isinstance(item, ast.FunctionDef)
                     and not item.name.startswith("__")]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defs += [(t.id, t.id, node) for t in targets
                     if isinstance(t, ast.Name) and t.id.isupper()]
    return defs


def _reads(node):
    """Counter of the bare names node reads as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def test_every_package_definition_is_used_by_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC_FILES}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unused = sorted(
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, name, node in _definitions(tree)
        if reads[name] - _reads(node)[name] <= 0)
    assert [name for name in unused if name not in UNUSED_ALLOWED] == []
    assert set(unused) >= UNUSED_ALLOWED, "stale allow-list entry"
