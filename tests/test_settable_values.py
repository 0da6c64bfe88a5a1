"""The package's settable values stay at or below a committed ceiling.

A settable value is a parameter with a default (positional or keyword-only,
in any function, method or lambda) or a dataclass field with a default:
each is a knob a caller can turn without the code needing it.  Adding one
means raising SETTABLE_CEILING here, a visible and stated edit; removing
one means lowering it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "hardylab").glob("*.py"))
SETTABLE_CEILING = 91


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _settable(tree):
    """[(line, what)] of the defaulted parameters and dataclass fields."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):]
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
            label = getattr(node, "name", "<lambda>")
            found += [(node.lineno, f"{label}({a.arg})") for a in named]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [(stmt.lineno, f"{node.name}.{stmt.target.id}")
                      for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and stmt.value is not None]
    return found


def test_settable_values_at_most_ceiling():
    per_file = {path.name: _settable(ast.parse(path.read_text()))
                for path in FILES}
    count = sum(len(v) for v in per_file.values())
    listing = {name: [what for _, what in v] for name, v in per_file.items()
               if v}
    assert count <= SETTABLE_CEILING, (
        f"{count} settable values > ceiling {SETTABLE_CEILING}: {listing}")


def test_counter_sees_each_kind():
    source = '''
from dataclasses import dataclass, field

def f(a, b=1, *args, c, d=2, **kw):
    return lambda x, y=3: x

@dataclass
class C:
    u: int
    v: int = 0
    w: list = field(default_factory=list)
    z = 5

class Plain:
    t: int = 1
'''
    found = [what for _, what in _settable(ast.parse(source))]
    assert sorted(found) == ["<lambda>(y)", "C.v", "C.w", "f(b)", "f(d)"]
