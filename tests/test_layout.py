"""Dead-code guards for the library.

Every top-level function or class in ``src/pointprops/*.py`` must be named
somewhere else in the package (an ``ast.Name`` or ``ast.Attribute``) or be
exported in ``pointprops.__all__``. Code that only tests call belongs in
``tests/``.

Every field of a ``@dataclass`` in the package must be read as an attribute
(a loaded ``ast.Attribute``) somewhere in the package: a field that is only
written is state nothing uses.

Every array that ``model._layout`` places must be taken by ``model.forward``
(its tape-free run asks the workspace for it): an array nothing takes is
workspace memory that nothing reads.
"""

import ast
from pathlib import Path

import numpy as np

import pointprops
from conftest import ReadRecorder
from pointprops import model

SRC = Path(pointprops.__file__).resolve().parent


def _parse(src):
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(src.glob("*.py"))}


def unreferenced_definitions(src=SRC):
    trees = _parse(src)
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = []
    for filename, tree in trees.items():
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


def _is_dataclass(node):
    return any((isinstance(d, ast.Name) and d.id == "dataclass")
               or (isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass")
               for d in node.decorator_list)


def unread_dataclass_fields(src=SRC):
    trees = _parse(src)
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for filename, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                        and node.target.id not in read):
                    unread.append(f"{filename}:{node.lineno} {cls.name}.{node.target.id}")
    return unread


def test_every_dataclass_field_is_read():
    assert unread_dataclass_fields() == []


def test_guard_flags_an_unread_field(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Box:\n    read: int\n    written: int\n\n\n"
        "def size(box):\n    box.written = 2\n    return box.read\n"
    )
    assert unread_dataclass_fields(tmp_path) == ["mod.py:7 Box.written"]


def test_every_layout_entry_is_taken_by_forward(monkeypatch):
    workspace, recorders = model._workspace, []

    def recording_workspace(*shape):
        recorders.append(ReadRecorder(workspace(*shape)))
        return recorders[-1]

    monkeypatch.setattr(model, "_workspace", recording_workspace)
    model.forward(model.init_params(0, 2), np.zeros((8, 12)), keep_cache=False)
    assert recorders[0].read == set(model._layout(8, 12, 2))
