"""A seeded config fuzz: every config that validates runs to the end, and
every one that does not fails with a `ConfigError` that names a key,
before any round.

The draws come from the config sections' own field metadata, so a new key
is fuzzed without editing this file. A choice key takes one of its
options (the list its check's message names), a Boolean either value,
and any other key with a default half or twice it or one more, or its
default where that value fails the key's check; in half the configs, one
checked key gets a boundary value (0, 1, 0.5 or -1) instead, which may
fail its check. Keys are left out half the time, so that defaults apply.
The keys without a default are sized here, to keep each run small: at
most 24 devices and 6 rounds; so is `ssl.label_interval`, 1-3 where it is
drawn. A quarter of the configs are labeling draws: they run hfl-ssl with
self-labeling on at phi 0.3 and always draw the interval, so that they
label within 6 rounds. The csv path is always given, so that a csv draw
reads a file. After a run, `events.jsonl` is strict JSON and
`references.check_run_invariants` holds; every fourth config runs twice and
must write the same bytes. The draw reaches the paths no oracle covers: csv
data, split signals from local training (`use_weight_deltas`), Rayleigh
fading, edge-scoped candidates and labeling. `CFSL_FUZZ_CONFIGS` sets the
number of configs (40 by default) for a longer sweep.
"""

import json
import os
import random
from dataclasses import fields

import numpy as np
import pytest

from cfsl.config import REQUIRED, SECTIONS, ini_key, override, parse_config
from cfsl.errors import ConfigError
from cfsl.experiment import build_simulation, run_experiment
from references import check_run_invariants

CONFIGS = int(os.environ.get("CFSL_FUZZ_CONFIGS", "40"))
# The keys without a default, and a labeling interval that a run of at
# most 6 rounds reaches.
SIZES = {"topology.edges": range(1, 5), "topology.devices": range(3, 25), "run.rounds": range(7),
         "ssl.label_interval": range(1, 4)}
# The keys a labeling draw sets: hfl-ssl labels with the shared model from
# round `label_interval` on, with no split to wait for.
LABELING = {"ssl.enabled": True, "run.baseline": "hfl-ssl", "ssl.phi": 0.3}
LABELING_SHARE = 0.25
BOUNDARY = (0, 1, 0.5, -1)
CHOICE = "must be one of "
KEYS = [(f"{cls.section}.{ini_key(f)}", f) for cls in SECTIONS for f in fields(cls)]


def is_int(f) -> bool:
    return "int" in str(f.type)


def draw_value(rng, where, f):
    """A value of field `f` drawn from its metadata."""
    if where in SIZES:
        return rng.choice(SIZES[where])
    message, default = f.metadata["message"], f.default
    if message.startswith(CHOICE):
        return rng.choice(message[len(CHOICE):].split(", "))
    if isinstance(default, bool):
        return rng.random() < 0.5
    if isinstance(default, str):
        return default
    if default is None:
        return rng.choice([None, 1, 2, 7] if is_int(f) else [None, 0.5, 2.0, 50.0])
    value = rng.choice([default // 2 if is_int(f) else default * 0.5, default * 2, default + 1])
    check = f.metadata["check"]
    return value if check is None or check(value) else default


def text_of(value, f) -> str:
    if value is None:
        return "auto" if is_int(f) else "none"
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def draw_config(seed, csv_path, out_dir):
    """(INI text, {section.key: (field, value)} of the keys it gives) of
    config `seed`."""
    rng = random.Random(seed)
    checked = [where for where, f in KEYS if f.metadata["check"] is not None
               and not f.metadata["message"].startswith(CHOICE)
               and not isinstance(f.default, bool)]
    edge = rng.choice(checked) if rng.random() < 0.5 else None
    labeling = rng.random() < LABELING_SHARE
    drawn = {}
    for where, f in KEYS:
        if where == "run.out_dir":
            drawn[where] = (f, out_dir)
        elif where == "data.csv_path":
            # Given always, so that every csv draw reads a file.
            drawn[where] = (f, csv_path)
        elif labeling and where in LABELING:
            drawn[where] = (f, LABELING[where])
        elif where == edge:
            value = rng.choice(BOUNDARY)
            drawn[where] = (f, int(value) if is_int(f) else value)
        elif (f.default is REQUIRED or (labeling and where == "ssl.label_interval")
              or rng.random() < 0.5):
            drawn[where] = (f, draw_value(rng, where, f))
    lines = []
    for cls in SECTIONS:
        lines.append(f"[{cls.section}]")
        lines += [f"{where.split('.')[1]} = {text_of(value, f)}"
                  for where, (f, value) in drawn.items() if where.startswith(f"{cls.section}.")]
    return "\n".join(lines) + "\n", drawn


def write_csv(path, data, devices, seed):
    """A csv of `data.features` columns and a label in [0, data.classes):
    four labeled rows per device, then one unlabeled row per device."""
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(5 * devices):
        label = str(rng.integers(data.classes)) if k < 4 * devices else ""
        rows.append(",".join(f"{v:.3f}" for v in rng.normal(size=data.features)) + f",{label}")
    path.write_text("\n".join(rows) + "\n")


def read_strict_json(path) -> list:
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line, parse_constant=reject) for line in fh]


@pytest.mark.parametrize("seed", range(CONFIGS))
def test_a_drawn_config_is_rejected_by_key_or_runs_to_the_end(seed, tmp_path):
    csv_path = tmp_path / "data.csv"
    text, drawn = draw_config(seed, str(csv_path), str(tmp_path / "out"))
    names = {where for where, _ in KEYS}
    try:
        config = parse_config(text)
    except ConfigError as exc:
        assert exc.key in names, exc
        return
    # No value that fails its own check is accepted.
    assert all(f.metadata["check"] is None or f.metadata["check"](value)
               for f, value in drawn.values()), text
    if config.data.mode == "csv":
        write_csv(csv_path, config.data, config.topology.devices, seed)
    # Building the population reads the csv: the last place to reject.
    try:
        build_simulation(config)
    except ConfigError as exc:
        assert exc.key in names, exc
        return
    result = run_experiment(config)
    sim = result.sim
    assert len(sim.metrics) <= config.run.rounds
    members = sorted(k for leaf in sim.tree.leaves() for k in leaf.members)
    assert members == list(range(config.topology.devices))
    events = read_strict_json(result.events_path)
    assert events[0]["type"] == "run_header" and len(events) == 1 + len(sim.events)
    check_run_invariants(sim, events)
    if seed % 4 == 0:
        again = run_experiment(override(config, {"run.out_dir": str(tmp_path / "again")}))
        for first, second in ((result.metrics_path, again.metrics_path),
                              (result.events_path, again.events_path)):
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read(), first


def test_the_draw_runs_the_paths_no_oracle_covers(tmp_path):
    configs = []
    for seed in range(CONFIGS):
        csv_path = tmp_path / f"data{seed}.csv"
        try:
            config = parse_config(draw_config(seed, str(csv_path), str(tmp_path))[0])
            if config.data.mode == "csv":
                write_csv(csv_path, config.data, config.topology.devices, seed)
            build_simulation(config)
        except ConfigError:
            continue
        configs.append(config)
    reached = {
        "csv": any(c.data.mode == "csv" for c in configs),
        # A split check trains the cluster's members for their weight deltas.
        "use_weight_deltas": any(
            c.clustering.enabled and c.clustering.use_weight_deltas
            and c.run.rounds >= c.clustering.split_interval for c in configs),
        "rayleigh": any(c.network.fading == "rayleigh" and c.run.rounds for c in configs),
        "edge scope": any(c.ssl.enabled and c.clustering.enabled and c.run.rounds
                          and c.ssl.candidate_scope == "edge" for c in configs),
        # hfl-ssl labels with the shared model from round `label_interval`
        # on, with no split to wait for.
        "labeling": any(c.ssl.enabled and c.run.baseline == "hfl-ssl"
                        and c.run.rounds >= c.ssl.label_interval for c in configs),
    }
    assert all(reached.values()), reached
