"""The benchmark's tracer wraps cfsl functions by name and reads their
positional arguments, so every name it probes must resolve in the package.

bench/tracing.py only imports the standard library; it is loaded from its
file here, without installing anything.
"""

import ast
import importlib.util
import inspect
import os

import pytest

from cfsl import labeling, models

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "cfsl")
_spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module_name,attr", [(m, a) for m, a, _, _ in tracing.LAYERS]
)
def test_every_traced_layer_resolves(module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_counters_count_traced_layers():
    names = {name for _, _, name, _ in tracing.LAYERS}
    assert set(tracing.COUNTERS) <= names


@pytest.mark.parametrize(
    "fn,second",
    [(labeling.pseudo_label, "features"), (labeling.inject, "batch"),
     (models.confidences, "features")],
)
def test_counted_arguments_stay_positional(fn, second):
    # The counters read args[1] of these calls.
    params = list(inspect.signature(fn).parameters.values())
    assert params[1].name == second
    assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


# Probes of code that src/ no longer calls: they read 0 in every traced run.
# Selection scores every candidate in labeling.select_best_model itself.
# Every read of train rows in src/ goes through DeviceDataset.train_batch.
KNOWN_DEAD = {"labeling.utility"}


def _called_names() -> set:
    """Names called anywhere in src/cfsl (`f(...)` or `x.f(...)`), except
    from inside a function of the same name."""
    called = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None and name != enclosing:
                called.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for filename in os.listdir(SRC):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), None)
    return called


def test_every_probe_but_the_known_dead_is_called_in_src():
    # Matching is by name, so a call of a same-named method elsewhere also
    # counts; a probe whose name nothing in src/ calls reads 0 for certain.
    called = _called_names()
    uncalled = {name for _, attr, name, _ in tracing.LAYERS
                if attr.split(".")[-1] not in called}
    assert uncalled == KNOWN_DEAD
