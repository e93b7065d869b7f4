"""The benchmark's tracer (perfbench/child.py) patches allz names in place.

It looks each one up with `vars(owner)[attr]`, so a rename or a move in
`allz` breaks a traced benchmark run. The target tuples are read from the
file's source; nothing there is imported or changed.
"""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def child_constant(name):
    for node in ast.parse(CHILD.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == name:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {CHILD}")


def test_every_trace_target_resolves():
    functions = child_constant("FUNCTION_TARGETS")
    methods = child_constant("METHOD_TARGETS")
    assert functions and methods
    missing = [
        (module, attr)
        for module, attr, _ in functions
        if attr not in vars(importlib.import_module(module))
    ]
    for module, cls, attr, _ in methods:
        owner = vars(importlib.import_module(module)).get(cls)
        if owner is None or attr not in vars(owner):
            missing.append((module, f"{cls}.{attr}"))
    assert missing == []


def bound_names(node):
    """The names an import statement binds in its scope."""
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def test_every_import_is_used_or_traced():
    # An import a module never reads stays only while the tracer patches it
    # there; once a target goes, this names the import left to delete.
    src = Path(importlib.import_module("allz").__file__).parent
    traced = {(module, attr) for module, attr, _ in child_constant("FUNCTION_TARGETS")}
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"allz.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                unused += [
                    (module, name)
                    for name in bound_names(node)
                    if name not in read and (module, name) not in traced
                ]
    assert unused == []
