"""Dead-code guard for the library.

Every top-level function or class in ``src/pointprops/*.py`` must be named
somewhere else in the package (an ``ast.Name`` or ``ast.Attribute``) or be
exported in ``pointprops.__all__``. Code that only tests call belongs in
``tests/``. ``oracle.py`` is exempt: it is the brute-force reference module.
"""

import ast
from pathlib import Path

import pointprops

SRC = Path(pointprops.__file__).resolve().parent
EXEMPT = {"oracle.py"}


def unreferenced_definitions(src=SRC):
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(src.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = []
    for filename, tree in trees.items():
        if filename in EXEMPT:
            continue
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name not in referenced
                    and node.name not in pointprops.__all__):
                unused.append(f"{filename}:{node.lineno} {node.name}")
    return unused


def test_every_definition_is_used_or_exported():
    assert unreferenced_definitions() == []


def test_guard_flags_an_unused_function(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return used()\n"
    )
    assert unreferenced_definitions(tmp_path) == ["mod.py:5 unused"]
