"""Config parsing, defaults, and validation errors."""

import dataclasses
import math

import pytest

from cfsl.config import (
    SECTIONS,
    DataConfig,
    NetworkConfig,
    ini_key,
    load_config,
    override,
    parse_config,
)
from cfsl.errors import ConfigError

MINIMAL = """
[topology]
edges = 2
devices = 6

[run]
rounds = 10
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.topology.edges == 2
    assert cfg.topology.devices == 6
    assert cfg.run.rounds == 10
    assert cfg.run.seed == 0
    assert cfg.data.samples_per_device == 200
    assert cfg.data.labeled_fraction == 0.05
    assert cfg.model.epochs == 5
    assert cfg.clustering.split_interval == 5
    assert cfg.ssl.phi == 0.8
    assert cfg.network.bandwidth_hz == 10e6
    assert cfg.network.time_budget_s == math.inf
    assert "run.seed" in cfg.defaults_applied
    assert "topology.edges" not in cfg.defaults_applied


def test_every_schema_key_defaulted_or_required():
    cfg = parse_config(MINIMAL)
    required = {"topology.edges", "topology.devices", "run.rounds"}
    all_keys = {
        f"{cls.section}.{ini_key(f)}" for cls in SECTIONS for f in dataclasses.fields(cls)
    }
    assert set(cfg.defaults_applied) == all_keys - required


def test_comments_and_inline_comments():
    cfg = parse_config(
        """
# experiment setup
[topology]
edges = 1      ; one edge
devices = 3    # three devices
[run]
rounds = 2
"""
    )
    assert cfg.topology.devices == 3


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "\n[surprise]\nx = 1\n")
    assert "surprise" in str(exc.value)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "\n[data]\nclases = 4\n")
    assert "data.clases" in str(exc.value)


def test_missing_required_key_named():
    with pytest.raises(ConfigError) as exc:
        parse_config("[topology]\nedges = 1\ndevices = 2\n")
    assert "run.rounds" in str(exc.value)


def test_bad_value_names_key():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "\n[ssl]\nphi = 1.5\n")
    assert "ssl.phi" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "\n[model]\nepochs = zero\n")
    assert "model.epochs" in str(exc.value)


def test_domain_checks():
    bad = [
        ("[data]\nlabeled_fraction = 0\n", "data.labeled_fraction"),
        ("[data]\nlabeled_fraction = 1.2\n", "data.labeled_fraction"),
        ("[data]\nclasses = 1\n", "data.classes"),
        ("[data]\ndistributions = 0\n", "data.distributions"),
        ("[data]\nfeatures = 1\n", "data.features"),
        ("[data]\nholdout_fraction = 1.0\n", "data.holdout_fraction"),
        ("[data]\ndistribution_assignment = alphabetical\n", "data.distribution_assignment"),
        ("[model]\nlearning_rate = -0.1\n", "model.learning_rate"),
        ("[clustering]\neps1 = 0\n", "clustering.eps1"),
        ("[clustering]\ngamma_merge = -1\n", "clustering.gamma_merge"),
        ("[ssl]\nlabel_interval = 0\n", "ssl.label_interval"),
        ("[network]\nnoise_w = 0\n", "network.noise_w"),
        ("[network]\nsubchannels = 0\n", "network.subchannels"),
        ("[network]\ndeadline_kappa = 0\n", "network.deadline_kappa"),
        ("[network]\nbandwidth_hz = 0\n", "network.bandwidth_hz"),
        ("[network]\ncloud_rate_bps = 0\n", "network.cloud_rate_bps"),
        ("[run]\nrounds = -1\n", "run.rounds"),
        ("[run]\nrounds = 1\nbaseline = fedavg\n", "run.baseline"),
    ]
    for snippet, key in bad:
        base = MINIMAL if not snippet.startswith("[run]") else "[topology]\nedges = 2\ndevices = 6\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(base + "\n" + snippet)
        assert key in str(exc.value), snippet
    with pytest.raises(ConfigError, match="topology.devices"):
        parse_config("[topology]\nedges = 1\ndevices = 0\n[run]\nrounds = 1\n")
    # The data section checks itself however it is built.
    with pytest.raises(ConfigError, match="data.distributions"):
        DataConfig(classes=2, distributions=3)
    assert DataConfig(mode="gaussian-clusters", classes=2, distributions=3).distributions == 3


def test_choice_keys_reject_unknown_values_however_set():
    required = {"topology": {"edges": 1, "devices": 1}, "run": {"rounds": 1}}
    choices = [(cls, f) for cls in SECTIONS for f in dataclasses.fields(cls)
               if isinstance(f.default, str) and f.metadata["check"] is not None]
    assert len(choices) == 8
    for cls, f in choices:
        with pytest.raises(ConfigError, match=f"{cls.section}.{ini_key(f)}"):
            cls(**required.get(cls.section, {}), **{f.name: "mystery"})
    # An override is checked like a file value: no baseline runs under a
    # name the metrics would misreport.
    with pytest.raises(ConfigError, match="run.baseline"):
        override(parse_config(MINIMAL), {"run.baseline": "cfsl2"})
    with pytest.raises(ConfigError, match="network.fading"):
        override(parse_config(MINIMAL), {"network.fading": "nakagami"})


def test_class_whitelist_needs_enough_samples():
    data = "\n[data]\nclasses = 6\nmax_classes_per_device = 5\nsamples_per_device = {}\n"
    with pytest.raises(ConfigError, match="data.samples_per_device"):
        parse_config(MINIMAL + data.format(4))
    assert parse_config(MINIMAL + data.format(5)).data.samples_per_device == 5
    # A csv file's rows are dealt, not drawn per class: no such floor.
    assert DataConfig(mode="csv", csv_path="rows.csv", classes=6, max_classes_per_device=5,
                      samples_per_device=4).samples_per_device == 4


def test_optional_keys_parse_none_and_auto():
    cfg = parse_config(
        MINIMAL
        + """
[clustering]
eps1 = none
eps2 = 0.5
[network]
subchannels = auto
deadline_s = none
"""
    )
    assert cfg.clustering.eps1 is None
    assert cfg.clustering.eps2 == 0.5
    assert cfg.network.subchannels is None
    assert cfg.network.deadline_s is None


def test_cross_checks():
    with pytest.raises(ConfigError) as exc:
        parse_config("[topology]\nedges = 4\ndevices = 3\n[run]\nrounds = 1\n")
    assert "topology.devices" in str(exc.value)

    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "\n[model]\nfamily = logistic\nhidden = 8\n")
    assert "model.hidden" in str(exc.value)

    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "\n[network]\ndeadline_policy = fixed\n")
    assert "network.deadline_s" in str(exc.value)

    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "\n[data]\nmode = csv\n")
    assert "data.csv_path" in str(exc.value)

    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "\n[data]\nclasses = 2\ndistributions = 3\n")
    assert "data.distributions" in str(exc.value)

    # Inverted radio ranges: the only guard, as sample_radios draws unchecked.
    for low, high, key in (("cpu_min_hz = 5e9", "cpu_max_hz = 2e9", "network.cpu_min_hz"),
                           ("power_min_dbm = 10", "power_max_dbm = 0", "network.power_min_dbm"),
                           ("distance_min_m = 30", "distance_max_m = 3",
                            "network.distance_min_m")):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + f"\n[network]\n{low}\n{high}\n")
        assert key in str(exc.value)

    # The network section checks itself however it is built.
    with pytest.raises(ConfigError, match="network.deadline_s"):
        NetworkConfig(deadline_policy="fixed")
    with pytest.raises(ConfigError, match="network.cpu_min_hz"):
        dataclasses.replace(NetworkConfig(), cpu_min_hz=1e10)


def test_holdout_that_takes_every_labeled_sample_is_rejected():
    # 5% of 40 samples is 2 labeled (also the 1-per-class floor of 2
    # whitelisted classes); a 0.9 holdout rounds to both of them.
    data = "\n[data]\nsamples_per_device = 40\nlabeled_fraction = 0.05\nholdout_fraction = {}\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + data.format(0.9))
    assert "data.holdout_fraction" in str(exc.value)
    # 1% of 40 rounds to 0, lifted to the floor of 2: still all held out.
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + data.format(0.9).replace("0.05", "0.01"))
    assert "data.holdout_fraction" in str(exc.value)
    # One of the two held out leaves one to train on.
    assert parse_config(MINIMAL + data.format(0.7)).data.holdout_fraction == 0.7
    # cfl-fully-labeled labels all 40 samples, so 0.9 leaves 4.
    cfg = parse_config(MINIMAL.replace("[run]", "[run]\nbaseline = cfl-fully-labeled")
                       + data.format(0.9))
    assert cfg.run.baseline == "cfl-fully-labeled"


def test_mlp_hidden_defaults():
    cfg = parse_config(MINIMAL + "\n[model]\nfamily = mlp\n")
    assert cfg.model.hidden == 16
    cfg = parse_config(MINIMAL + "\n[model]\nfamily = mlp\nhidden = 4\n")
    assert cfg.model.hidden == 4
    cfg = parse_config(MINIMAL)
    assert cfg.model.hidden == 0


def test_lambda_key_maps_to_lam_attribute():
    cfg = parse_config(MINIMAL + "\n[ssl]\nlambda = 0.25\n")
    assert cfg.ssl.lam == 0.25
    assert cfg.resolved()["ssl"]["lambda"] == 0.25


def test_resolved_excludes_out_dir():
    resolved = parse_config(MINIMAL).resolved()
    assert "out_dir" not in resolved["run"]
    assert set(resolved) == {cls.section for cls in SECTIONS}


def test_resolved_identical_across_out_dirs():
    a = parse_config(MINIMAL)
    b = parse_config(MINIMAL.replace("rounds = 10", "rounds = 10\nout_dir = elsewhere"))
    assert a.resolved() == b.resolved()


def test_sections_are_frozen():
    cfg = parse_config(MINIMAL)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.run.seed = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.run = cfg.topology


def test_unparsable_text_rejected():
    with pytest.raises(ConfigError):
        parse_config("rounds = 3\n")  # key before any section header


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL)
    cfg = load_config(str(path))
    assert cfg.run.rounds == 10
    with pytest.raises(OSError):
        load_config(str(tmp_path / "absent.ini"))


@pytest.mark.parametrize("section", ["run", "data"])
def test_negative_seed_is_rejected_with_its_key(section):
    # numpy's SeedSequence refuses negative entries with a message that names
    # no key; the config check must fail first and name the key.
    text = MINIMAL + "\n[data]\nseed = -1\n" if section == "data" else MINIMAL + "seed = -1\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert f"{section}.seed" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        override(parse_config(MINIMAL), {f"{section}.seed": -1})
    assert f"{section}.seed" in str(exc.value)
    assert getattr(override(parse_config(MINIMAL), {f"{section}.seed": 0}), section).seed == 0
    assert parse_config(MINIMAL + "\n[data]\nseed = auto\n").data.seed is None


def test_override_rejects_a_name_that_is_not_section_attribute():
    # A misspelt key or section, a key's INI name where the attribute differs
    # (ssl.lambda is the attribute lam) and a name without a section.
    cfg = parse_config(MINIMAL)
    for name in ("run.sead", "rn.seed", "ssl.lambda", "seed"):
        with pytest.raises(ConfigError) as exc:
            override(cfg, {name: 1})
        assert exc.value.key == name
    assert override(cfg, {"ssl.lam": 0.5}).ssl.lam == 0.5
