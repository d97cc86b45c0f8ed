"""Every public top-level name of the library has a user besides the tests.

A name defined at the top of a `src/revreact` module counts as used when
- code in another top-level statement of `src/revreact` names it (the
  package `__init__` and import statements do not count);
- code in `demos/` names it; or
- `README.md` or a file under `perfbench/` mentions it by name.

A public name that only tests call is a second copy of a formula or a knob
nobody sets: point the tests at the code that stays instead.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "revreact"


def _defined(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _named(stmt: ast.stmt) -> set[str]:
    """The names and attributes that code in one statement refers to."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _code_statements(path: Path) -> list[ast.stmt]:
    body = ast.parse(path.read_text(), str(path)).body
    return [s for s in body if not isinstance(s, (ast.Import, ast.ImportFrom))]


def unused_public_names() -> list[str]:
    modules = {path.stem: _code_statements(path)
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    uses = [(stem, i, _named(stmt))
            for stem, body in modules.items() for i, stmt in enumerate(body)]
    demos = set().union(*(_named(stmt) for path in (ROOT / "demos").glob("*.py")
                          for stmt in _code_statements(path)))
    text = (ROOT / "README.md").read_text() + "".join(
        path.read_text() for path in sorted((ROOT / "perfbench").rglob("*"))
        if path.suffix in (".py", ".json"))
    unused = []
    for stem, body in modules.items():
        for i, stmt in enumerate(body):
            for name in sorted(_defined(stmt)):
                if name.startswith("_"):
                    continue
                in_src = any(name in named for where, j, named in uses if (where, j) != (stem, i))
                if not (in_src or name in demos or re.search(rf"\b{name}\b", text)):
                    unused.append(f"{stem}.{name}")
    return unused


def test_every_public_name_has_a_user_outside_the_tests():
    assert unused_public_names() == []
