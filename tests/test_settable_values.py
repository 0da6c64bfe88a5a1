"""The package's settable values stay at or below a committed ceiling.

A settable value is a parameter with a default (positional or keyword-only,
in any function, method or lambda) or a dataclass field with a default:
each is a knob a caller can turn without the code needing it.  Adding one
means raising SETTABLE_CEILING here, a visible and stated edit; removing
one means lowering it.

A default of a function also has to be a knob the package turns: some call
site in the package sets the parameter and some other leaves it out.  One
that no call site sets is a constant; one that every call site sets is a
required input.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "hardylab").glob("*.py"))
SETTABLE_CEILING = 35


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


def _defaulted(tree):
    """[(line, name, [(position, parameter)])] of the functions with
    defaulted parameters; position is None for a keyword-only one, and a
    method's position counts self."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            named = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            named += [(None, a.arg) for a, d in
                      zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if named:
                skip = int(bool(positional) and positional[0].arg in
                           ("self", "cls"))
                found.append((node.lineno, node.name,
                              [(None if i is None else i - skip, a)
                               for i, a in named]))
    return found


def _calls(trees):
    """{called name: [ast.Call]}, the name a bare name or the last
    attribute of the called expression."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else \
                    getattr(fn, "id", None)
                calls.setdefault(name, []).append(node)
    return calls


def _fixed_defaults(sources):
    """[what] of the defaulted function parameters that no call site in
    sources sets, or that every call site sets, matched by the called name
    and then by keyword or argument position."""
    trees = [ast.parse(text) for text in sources]
    calls = _calls(trees)
    fixed = []
    for tree in trees:
        for line, name, params in _defaulted(tree):
            sites = calls.get(name, [])
            for pos, arg in params:
                set_by = sum(
                    arg in {k.arg for k in c.keywords}
                    or (pos is not None and len(c.args) > pos)
                    for c in sites)
                if set_by == 0:
                    fixed.append(f"{name}({arg}) line {line}: set by no call")
                elif set_by == len(sites):
                    fixed.append(f"{name}({arg}) line {line}: set by every "
                                 f"call")
    return fixed


def test_every_default_is_set_by_some_call_and_omitted_by_another():
    fixed = _fixed_defaults(path.read_text() for path in FILES)
    assert fixed == [], fixed


def test_fixed_default_check_sees_each_case():
    source = '''
def f(a, never=1, always=2, mixed=3, *, kw_never=4, kw_mixed=5):
    return a

class C:
    def m(self, x, y=0):
        return x

f(0, always=1, mixed=2, kw_mixed=3)
f(0, always=2)
C().m(1, 2)
C().m(1)
'''
    found = sorted(what.split(")")[0] + ")"
                   for what in _fixed_defaults([source]))
    assert found == ["f(always)", "f(kw_never)", "f(never)"]
