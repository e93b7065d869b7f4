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
