"""`jsonable` against a verbatim copy of the recursive implementation it
replaced, and the events of a real run against strict JSON."""

import json
import math
from collections import defaultdict

import numpy as np

import cfsl.orchestrator as orchestrator
from cfsl.config import parse_config
from cfsl.experiment import build_simulation
from cfsl.orchestrator import jsonable

# ---------------------------------------------------------------- reference


def ref_jsonable(obj):
    """Strict-JSON view of an event or config: numpy scalars and arrays
    become Python values, infinities the strings "inf" and "-inf"."""
    if isinstance(obj, dict):
        return {ref_jsonable(k): ref_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return ref_jsonable(obj.tolist())
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


# ---------------------------------------------------------------- helpers


def same(a, b) -> bool:
    """Equal values of the same exact types all the way down (NaN equals
    NaN), so that True and 1, or 1 and 1.0, count as different."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(
            same(ka, kb) and same(a[ka], b[kb]) for ka, kb in zip(a, b)
        )
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def leaf(rng):
    kind = int(rng.integers(17))
    if kind == 0:
        return int(rng.integers(-10**6, 10**6))
    if kind == 1:
        return float(rng.normal())
    if kind == 2:
        return [math.inf, -math.inf, math.nan][int(rng.integers(3))]
    if kind == 3:
        return bool(rng.integers(2))
    if kind == 4:
        return None
    if kind == 5:
        return f"s{int(rng.integers(100))}"
    if kind == 6:
        return [np.int64, np.int32, np.uint8][int(rng.integers(3))](rng.integers(100))
    if kind == 7:
        return [np.float64, np.float32][int(rng.integers(2))](rng.normal())
    if kind == 8:
        return np.float64([np.inf, -np.inf][int(rng.integers(2))])
    if kind == 9:
        return rng.normal(size=int(rng.integers(0, 4)))
    if kind == 10:
        a = rng.normal(size=(2, 3))
        a[rng.integers(2), rng.integers(3)] = [np.inf, -np.inf][int(rng.integers(2))]
        return a
    if kind == 11:
        return rng.integers(0, 9, size=int(rng.integers(0, 5)))
    if kind == 12:
        return np.array(rng.normal())  # 0-d
    if kind == 13:
        return np.bool_(rng.integers(2))
    if kind == 14:
        return list(range(int(rng.integers(0, 6))))  # plain ints
    if kind == 15:
        return [1, True, 2]  # a bool among ints
    return [3, np.int64(4), 5]  # a numpy int among ints


def tree(rng, depth=0):
    if depth >= 4 or rng.random() < 0.3:
        return leaf(rng)
    n = int(rng.integers(0, 5))
    kind = int(rng.integers(4))
    if kind == 0:
        return [tree(rng, depth + 1) for _ in range(n)]
    if kind == 1:
        return tuple(tree(rng, depth + 1) for _ in range(n))
    keys = [f"k{i}" for i in range(n)]
    if kind == 3:
        keys = [[i, np.int64(i), f"k{i}", math.inf][int(rng.integers(4))] for i in range(n)]
    out = defaultdict(list) if rng.random() < 0.2 else {}
    for key in keys:
        out[key] = tree(rng, depth + 1)
    return out


# ---------------------------------------------------------------- tests


def test_matches_reference_on_seeded_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(3000):
        obj = tree(rng)
        assert same(jsonable(obj), ref_jsonable(obj)), obj


def test_bools_stay_bools_and_containers_are_copied():
    assert jsonable(True) is True and jsonable(False) is False
    out = jsonable({"acted": True, "flags": [True, False], "mixed": [1, True]})
    assert same(out, {"acted": True, "flags": [True, False], "mixed": [1, True]})
    ids = [3, 1, 2]
    for obj in (ids, tuple(ids)):
        got = jsonable(obj)
        assert type(got) is list and got == ids and got is not obj
    nested = {"members": ids}
    assert jsonable(nested)["members"] is not ids


def test_infinities_become_strings_and_numpy_values_plain():
    assert jsonable(math.inf) == "inf" and jsonable(-math.inf) == "-inf"
    assert jsonable({math.inf: np.float64(-np.inf)}) == {"inf": "-inf"}
    assert same(jsonable([np.int64(7), np.float32(0.5)]), [7, 0.5])
    assert same(jsonable(np.array([[1.0, np.inf]])), [[1.0, "inf"]])


def test_flat_containers_are_copied_whole_into_new_objects():
    # A dict or list of plain keys and values comes back equal but new, so
    # that changing the input afterwards leaves the stored copy as it was.
    z = dict.fromkeys(range(5), 0)
    flags = [1, "a", True, None]
    event = jsonable({"z": z, "flags": flags})
    assert same(event, {"z": dict.fromkeys(range(5), 0), "flags": [1, "a", True, None]})
    assert event["z"] is not z and event["flags"] is not flags
    z[3] = 1
    flags.append(2)
    assert event["z"][3] == 0 and event["flags"] == [1, "a", True, None]
    sim = build_simulation(parse_config(SPLIT_AND_LABEL))
    payload = {"type": "selection", "z": {4: 0, 7: 1}}
    sim._event(payload)
    payload["z"][4] = 1
    assert sim.events[-1]["z"] == {4: 0, 7: 1}


def test_flat_path_leaves_non_plain_values_to_the_recursion():
    # One float, infinity, numpy scalar, bool subtype or nested value makes
    # a container take the element-wise path, which maps it as before.
    cases = [
        {1: 0, 2: math.inf}, {1: 0, 2: -math.inf}, {1: 0.5, 2: 1},
        {1: 0, 2: np.int64(3)}, {np.int64(1): 0, 2: 1}, {math.inf: 0},
        {1: np.bool_(True)}, {1: [2, 3]}, {"a": {"b": np.float64(-np.inf)}},
        [1, 2, math.inf], [1, np.float32(0.5)], [1, [np.int64(2)]], (1, -math.inf),
    ]
    for obj in cases:
        assert same(jsonable(obj), ref_jsonable(obj)), obj


def test_selection_payload_with_many_candidates_matches_the_recursive_path():
    ids = list(range(100, 190))
    payload = {"type": "selection", "round": 20, "device": 3, "chosen_model": 137,
               "z": {**dict.fromkeys(ids, 0), 137: 1}, "val_accuracy": 0.75,
               "coverage": 0.5, "est_label_latency_s": 1.6e-7}
    got = jsonable(payload)
    assert same(got, ref_jsonable(payload))
    assert list(got["z"]) == ids and sum(got["z"].values()) == 1


SPLIT_AND_LABEL = """
[topology]
edges = 2
devices = 12

[data]
distributions = 2
classes = 4
features = 4
samples_per_device = 50
labeled_fraction = 0.3

[model]
learning_rate = 0.2
epochs = 2

[clustering]
split_interval = 2

[ssl]
phi = 0.5
label_interval = 2

[run]
rounds = 8
seed = 3
"""


def test_every_event_of_a_run_is_strict_json_and_matches_reference(monkeypatch):
    """Each raw event payload converts as the reference converts it."""
    checked = []
    emit = orchestrator.Simulation._event

    def check(sim, payload):
        emit(sim, payload)
        assert same(sim.events[-1], ref_jsonable(payload)), payload
        checked.append(payload["type"])

    monkeypatch.setattr(orchestrator.Simulation, "_event", check)
    sim = build_simulation(parse_config(SPLIT_AND_LABEL))
    sim.run()
    assert checked == [e["type"] for e in sim.events]
    kinds = {e["type"] for e in sim.events}
    assert {"schedule", "aggregate", "split", "selection", "injection", "round",
            "termination"} <= kinds
    for event in sim.events:
        json.dumps(event, sort_keys=True, allow_nan=False)
