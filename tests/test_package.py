import ast
from pathlib import Path

import pidtune

SOURCES = sorted(Path(pidtune.__file__).parent.glob("*.py"))


def test_star_import_resolves_every_export():
    # a stale __all__ entry makes the star import raise AttributeError
    namespace = {}
    exec("from pidtune import *", namespace)
    missing = [name for name in pidtune.__all__ if name not in namespace]
    assert missing == []


def test_no_module_imports_another_modules_private_names():
    # a private name is its module's own business; importing the module
    # _kernels itself (from . import _kernels) stays allowed
    leaks = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
                leaks.extend(
                    f"{path.name}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert SOURCES
    assert leaks == []


def test_only_objective_runs_the_gains_to_response_chain():
    # objective.step_response is the one place that turns gains plus a plant
    # into a response; other modules may import the chain's names (cli does,
    # so perfbench's tracer can patch them there) but not call them
    chain = {"close_unity_feedback", "tf_to_state_space", "simulate_step"}
    calls = []
    for path in SOURCES:
        if path.name == "objective.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in chain:
                    calls.append(f"{path.name}:{node.lineno}: {name}")
    assert calls == []
