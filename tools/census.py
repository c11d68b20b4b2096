"""Census of the package source: its line count, its defaulted parameters
(positional and keyword-only parameters of every ``def`` that have a
default) and those that no call in the source sets.

A call sets a parameter by keyword, or by enough positional arguments to
reach it (``self``/``cls`` are bound through an attribute or a class call);
a call with ``*args`` or ``**kwargs`` sets all.  Calls match definitions by
name, and a class call matches the class's ``__init__``.  Gates nothing.

Usage, from the repository root: ``python3 tools/census.py [src/nsdarcy]``.
"""

import ast
import sys
from pathlib import Path

files = sorted(Path(sys.argv[1] if len(sys.argv) > 1 else "src/nsdarcy").glob("*.py"))
trees = [ast.parse(path.read_text()) for path in files]
nodes = [node for tree in trees for node in ast.walk(tree)]
calls = [node for node in nodes if isinstance(node, ast.Call)]
defs = [(node.name, node) for node in nodes if isinstance(node, ast.FunctionDef)
        and node.name != "__init__"]
defs += [(cls.name, fn) for cls in nodes if isinstance(cls, ast.ClassDef)
         for fn in cls.body
         if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"]

total, unset = 0, []
for name, fn in defs:
    a = fn.args
    positional = a.posonlyargs + a.args
    bound = int(bool(positional) and positional[0].arg in ("self", "cls"))
    first = len(positional) - len(a.defaults)
    wanted = {p.arg: i for i, p in enumerate(positional) if i >= first}
    wanted |= {p.arg: None for p, d in zip(a.kwonlyargs, a.kw_defaults) if d}
    total += len(wanted)
    for call in calls:
        f = call.func
        if getattr(f, "id", getattr(f, "attr", None)) != name:
            continue
        if (any(isinstance(x, ast.Starred) for x in call.args)
                or any(k.arg is None for k in call.keywords)):
            wanted = {}
            break
        attribute = isinstance(f, ast.Attribute) or fn.name == "__init__"
        reach = len(call.args) + bound * attribute
        wanted = {k: i for k, i in wanted.items()
                  if (i is None or i >= reach)
                  and k not in {kw.arg for kw in call.keywords}}
    unset += [f"{name}({p})" for p in wanted]

print(f"lines: {sum(len(p.read_text().splitlines()) for p in files)}")
print(f"defaulted parameters: {total}")
print(f"defaulted parameters no call sets: {len(unset)}")
for entry in sorted(unset):
    print(f"  {entry}")
