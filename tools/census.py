"""Census of the package source: its line count, in all and per module,
its defaulted parameters (positional and keyword-only parameters of every
``def`` that have a default), those that no call in the source sets, and
the module-level functions and classes that no code in the source reads.

A call sets a parameter by keyword, or by enough positional arguments to
reach it (``self``/``cls`` are bound through an attribute or a class call);
a call with ``*args`` or ``**kwargs`` sets all.  Calls match definitions by
name, and a class call matches the class's ``__init__``.  A definition is
read where its name is loaded (as a name or an attribute) or imported
anywhere outside its own body; strings, such as ``__all__`` entries, are
not reads.  ``tests/test_surface.py`` pins both lists.

Usage, from the repository root: ``python3 tools/census.py [src/nsdarcy]``.
"""

import ast
import sys
from collections import Counter
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


def reads(nodes):
    """Every name that ``nodes`` load or import, once per occurrence."""
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


# a definition is unread when every read of its name is in its own body
counts = Counter(reads(nodes))
unread = [f"{path.stem}.{node.name}" for path, tree in zip(files, trees)
          for node in tree.body
          if isinstance(node, ast.FunctionDef | ast.ClassDef)
          and counts[node.name] == Counter(reads(ast.walk(node)))[node.name]]

lines = {path.name: len(path.read_text().splitlines()) for path in files}
print(f"lines: {sum(lines.values())}")
print("lines by module:")
for name, count in lines.items():
    print(f"  {name} {count}")
print(f"defaulted parameters: {total}")
print(f"defaulted parameters no call sets: {len(unset)}")
for entry in sorted(unset):
    print(f"  {entry}")
print(f"definitions no code reads: {len(unread)}")
for entry in sorted(unread):
    print(f"  {entry}")
