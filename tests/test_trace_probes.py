"""The benchmark's tracer wraps cfsl functions by name and reads their
positional arguments, so every name it probes must resolve in the package.

bench/tracing.py only imports the standard library; it is loaded from its
file here, without installing anything.
"""

import importlib.util
import inspect
import os

import pytest

from cfsl import labeling, models

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
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
