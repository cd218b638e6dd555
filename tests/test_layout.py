"""Dead-code guards for the library.

Every top-level function or class in ``src/pointprops/*.py`` must be named
somewhere else in the package (an ``ast.Name`` or ``ast.Attribute``) or be
exported in ``pointprops.__all__``. Code that only tests call belongs in
``tests/``.

Every field of a ``@dataclass`` in the package must be read as an attribute
(a loaded ``ast.Attribute``) somewhere in the package: a field that is only
written is state nothing uses. A read of a bare name cannot tell apart two
dataclasses that declare the same field, so such a shared field must be read
off a parameter annotated with its own class, or off ``self`` in one of that
class's methods.

Every defaulted parameter of a function in the package must be passed, by
keyword or by position, by some call in the package: a default that no call
overrides is a constant dressed as a knob. Calls are matched by the callee's
name, as the other guards match references. The public API
(``pointprops.__all__`` and the methods of its classes) and ``cli.main`` are
exempt, since their callers live outside the package.

Every array that ``model._layout`` places must be taken by ``model.forward``
(its tape-free run asks the workspace for it): an array nothing takes is
workspace memory that nothing reads.

Only ``workers.py`` may name ``_blas_thread_functions``: numpy's OpenBLAS
thread count is set once, when that module is imported. Only ``workers.py``
may read the CPU count (``usable_cpus``, ``sched_getaffinity``,
``cpu_count``) or ``BLAS_PINNED``: every other module takes how many jobs
run at once from ``workers.parallelism``.
"""

import ast
import math
from collections import Counter
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


def _call_arguments(trees):
    """Callee name -> (most positional arguments, keyword names) over every
    call in the package; ``*args`` passes every position, ``**kwargs`` adds
    the keyword None, which passes every name."""
    positional, keywords = Counter(), {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            positional[name] = max(positional[name], math.inf if starred else len(node.args))
            keywords.setdefault(name, set()).update(kw.arg for kw in node.keywords)
    return positional, keywords


def _functions(tree):
    """(owning class or None, function) for every function in ``tree``."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield owner, child
                yield from visit(child, None)
            else:
                yield from visit(child, child.name if isinstance(child, ast.ClassDef) else owner)
    return visit(tree, None)


def unset_defaults(src=SRC):
    trees = _parse(src)
    positional, keywords = _call_arguments(trees)
    unset = []
    for filename, tree in trees.items():
        for owner, func in _functions(tree):
            if ((owner or func.name) in pointprops.__all__
                    or (filename, func.name) == ("cli.py", "main")):
                continue
            passed_names = keywords.get(func.name, set())
            # a call through an instance or class binds the first argument
            bound = 1 if owner else 0
            args = func.args.posonlyargs + func.args.args
            first_default = len(args) - len(func.args.defaults)
            defaulted = [(arg, index) for index, arg in enumerate(args) if index >= first_default]
            defaulted += [(arg, math.inf) for arg, default in
                          zip(func.args.kwonlyargs, func.args.kw_defaults) if default]
            for arg, index in defaulted:
                if not (positional[func.name] > index - bound or arg.arg in passed_names
                        or None in passed_names):
                    name = f"{owner}.{func.name}" if owner else func.name
                    unset.append(f"{filename}:{func.lineno} {name}({arg.arg})")
    return unset


def test_every_default_is_set_by_some_call():
    assert unset_defaults() == []


def test_guard_flags_an_unset_default(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def scale(x, factor=2, offset=0, *, clip=False):\n"
        "    return x * factor + offset\n\n\n"
        "class Box:\n    def grow(self, by=1, twice=False):\n        return by\n\n\n"
        "def use(box):\n    return scale(1, 3) + scale(2, clip=True) + box.grow(2)\n"
    )
    assert unset_defaults(tmp_path) == ["mod.py:1 scale(offset)", "mod.py:6 Box.grow(twice)"]


def named_outside_workers(names, src=SRC):
    """Where a module other than ``workers.py`` names one of ``names`` (a
    name, an attribute, an import or a definition)."""
    return [f"{filename}:{node.lineno}" for filename, tree in _parse(src).items()
            if filename != "workers.py" for node in ast.walk(tree)
            if names & {getattr(node, key, None) for key in ("id", "attr", "name")}]


def test_only_workers_sets_the_blas_thread_count():
    assert named_outside_workers({"_blas_thread_functions"}) == []


def test_guard_flags_a_second_blas_pin(tmp_path):
    (tmp_path / "workers.py").write_text("def _blas_thread_functions():\n    return None\n")
    (tmp_path / "model.py").write_text(
        "from . import workers\n\n\ndef forward():\n"
        "    return workers._blas_thread_functions()\n"
    )
    (tmp_path / "em.py").write_text("from .workers import _blas_thread_functions\n")
    assert named_outside_workers({"_blas_thread_functions"}, tmp_path) == \
        ["em.py:1", "model.py:5"]


PARALLELISM_INPUTS = {"usable_cpus", "sched_getaffinity", "cpu_count", "BLAS_PINNED"}


def test_only_workers_reads_the_cpu_count_or_the_blas_pin():
    assert named_outside_workers(PARALLELISM_INPUTS) == []


def test_guard_flags_a_second_parallelism_reader(tmp_path):
    (tmp_path / "workers.py").write_text(
        "import os\n\nBLAS_PINNED = True\n\n\ndef usable_cpus():\n"
        "    return os.cpu_count()\n"
    )
    (tmp_path / "em.py").write_text(
        "import os\n\nfrom . import workers\n\n\ndef train():\n"
        "    if workers.BLAS_PINNED:\n        return min(2, workers.usable_cpus())\n"
        "    return os.getpid()\n"
    )
    (tmp_path / "cli.py").write_text(
        "import os\nfrom os import cpu_count\n\nCPUS = len(os.sched_getaffinity(0))\n"
    )
    assert named_outside_workers(PARALLELISM_INPUTS, tmp_path) == \
        ["cli.py:2", "cli.py:4", "em.py:7", "em.py:8"]


def _is_dataclass(node):
    return any((isinstance(d, ast.Name) and d.id == "dataclass")
               or (isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass")
               for d in node.decorator_list)


def _class_names(annotation):
    """Every class an annotation names: ``C``, ``module.C``, ``"C"``, ``C | None``."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _typed_reads(tree):
    """(class, attribute) for each attribute loaded off a parameter annotated
    with that class, or off the first parameter of one of its methods; nested
    functions see their enclosing functions' parameters."""
    reads = set()

    def visit(node, scope, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            scope = {**scope, **{arg.arg: _class_names(arg.annotation) if arg.annotation
                                 else set() for arg in params}}
            if owner and params:
                scope[params[0].arg] = {owner}
            owner = None
        elif isinstance(node, ast.ClassDef):
            owner = node.name
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)):
            reads.update((cls, node.attr) for cls in scope.get(node.value.id, ()))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, owner)

    visit(tree, {}, None)
    return reads


def unread_dataclass_fields(src=SRC):
    trees = _parse(src)
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    typed = set().union(*map(_typed_reads, trees.values()))
    fields = [(filename, cls.name, node) for filename, tree in trees.items()
              for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    declared = Counter(node.target.id for _, _, node in fields)
    unread = []
    for filename, cls, node in fields:
        name = node.target.id
        if not ((cls, name) in typed if declared[name] > 1 else name in read):
            unread.append(f"{filename}:{node.lineno} {cls}.{name}")
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


def test_guard_ties_a_shared_field_to_its_class(tmp_path):
    # both classes declare ``size``; only Reader's is read off a typed name,
    # and the untyped ``loose.size`` proves nothing about Writer's
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Reader:\n    size: int\n\n\n"
        "@dataclass\nclass Writer:\n    size: int\n\n\n"
        "def area(box: Reader, other: Writer, loose):\n"
        "    other.size = 2\n    return box.size * loose.size\n"
    )
    assert unread_dataclass_fields(tmp_path) == ["mod.py:11 Writer.size"]


def test_guard_reads_a_shared_field_through_self(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Box:\n    size: int\n\n"
        "    def double(self):\n        return 2 * self.size\n\n\n"
        "@dataclass\nclass Tag:\n    size: int\n\n\n"
        "def area(tag: 'Tag'):\n    return tag.size\n"
    )
    assert unread_dataclass_fields(tmp_path) == []


def test_every_layout_entry_is_taken_by_forward(monkeypatch):
    workspace, recorders = model._workspace, []

    def recording_workspace(*shape):
        recorders.append(ReadRecorder(workspace(*shape)))
        return recorders[-1]

    monkeypatch.setattr(model, "_workspace", recording_workspace)
    model.forward(model.init_params(0, 2), np.zeros((8, 12)), keep_cache=False)
    assert recorders[0].read == set(model._layout(8, 12, 2))
