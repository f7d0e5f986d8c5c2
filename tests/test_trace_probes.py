"""The benchmark's tracer wraps cfsl functions by name and reads their
positional arguments, so every name it probes must resolve in the package.

bench/tracing.py only imports the standard library; it is loaded from its
file here, without installing anything. One test installs every probe in a
child process and runs a small self-labeling config through them.
"""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys

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
# A labeling phase scores every candidate in its holdout and pool passes;
# `labeling.utility`, which scores one candidate through `confidences`, has
# no caller in src/.
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


TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install(tracing.LAYERS)
from cfsl.config import parse_config
from cfsl.experiment import run_experiment
run_experiment(parse_config(sys.argv[2]))
print(json.dumps({"layers": tracer.layers(), "counts": dict(tracer.counts)}))
"""

# hfl-ssl labels with the shared model from round `label_interval` on,
# with no split to wait for.
SELF_LABELING = """
[topology]
edges = 2
devices = 8

[data]
samples_per_device = 60
labeled_fraction = 0.2

[ssl]
phi = 0.3
label_interval = 1

[run]
rounds = 3
baseline = hfl-ssl
out_dir = {out_dir}
"""


def test_every_probe_installs_and_counts_a_self_labeling_run(tmp_path):
    # The counters read pseudo_label's features and inject's device and
    # batch; a probe whose target changed shape fails the run or reads 0.
    paths = (os.path.dirname(os.path.abspath(SRC)), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, TRACING, SELF_LABELING.format(out_dir=tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.splitlines()[-1])
    assert traced["counts"]["labeling.pseudo_label.rows"] > 0
    # The per-layer report reads one selection, one labeling and one
    # injection per selecting device: a phase that batches its candidate
    # work still makes each of these calls once per device.
    calls = [traced["layers"][name]["calls"] for name in (
        "labeling.select_best_model", "labeling.pseudo_label", "labeling.inject")]
    assert calls[0] > 0 and calls == [calls[0]] * 3
