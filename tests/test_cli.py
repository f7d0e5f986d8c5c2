"""Command line behavior: argument handling, overrides, exit codes."""

import json
import subprocess
import sys

import pytest

import cfsl.experiment as experiment
from cfsl.cli import main
from references import NON_FINITE_NETWORK

CONFIG = """
[topology]
edges = 1
devices = 4

[data]
distributions = 2
classes = 3
features = 3
samples_per_device = 30
labeled_fraction = 0.3

[model]
learning_rate = 0.1

[clustering]
eps1 = 0.5
eps2 = 1.5

[run]
rounds = 3
seed = 9
"""


def write_config(tmp_path, text=CONFIG):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return str(path)


def read_header(out_dir):
    with open(out_dir / "events.jsonl") as fh:
        return json.loads(fh.readline())


def test_run_success(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["run", cfg_path, "--out-dir", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "stopped on round budget" in captured
    assert (out / "metrics.csv").exists()
    assert (out / "events.jsonl").exists()


def test_run_overrides(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["run", cfg_path, "--out-dir", str(out), "--seed", "42",
         "--baseline", "hfl-labeled-only"]
    )
    assert code == 0
    header = read_header(out)
    assert header["seed"] == 42
    assert header["baseline"] == "hfl-labeled-only"


def test_run_override_checked_like_a_file_value(tmp_path, capsys):
    # Fully labeled, 40 samples leave 4 after a 0.9 holdout; under cfsl 5%
    # labels 2 and the holdout takes both, so --baseline cfsl must fail up
    # front, as it does when the file says cfsl.
    text = CONFIG.replace("samples_per_device = 30\nlabeled_fraction = 0.3",
                          "samples_per_device = 40\nlabeled_fraction = 0.05\n"
                          "holdout_fraction = 0.9")
    cfg_path = write_config(tmp_path, text + "baseline = cfl-fully-labeled\n")
    out = tmp_path / "out"
    assert main(["run", cfg_path, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    code = main(["run", cfg_path, "--baseline", "cfsl", "--out-dir", str(tmp_path / "b")])
    assert code == 1
    assert "config error: data.holdout_fraction" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_run_negative_seed_names_the_key(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CONFIG)
    code = main(["run", cfg_path, "--seed", "-1", "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert "config error: run.seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_missing_config_is_io_error(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.ini")])
    assert code == 2
    assert "i/o error" in capsys.readouterr().err


def test_run_bad_config_value_is_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, CONFIG + "\n[ssl]\nphi = 1.5\n")
    code = main(["run", cfg_path])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "ssl.phi" in err


@pytest.mark.parametrize("snippet, key", NON_FINITE_NETWORK)
def test_run_with_a_non_finite_network_term_names_the_key(tmp_path, capsys, snippet, key):
    cfg_path = write_config(tmp_path, CONFIG + f"\n[network]\n{snippet}\n")
    code = main(["run", cfg_path, "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert "config error" in capsys.readouterr().err
    cfg_path = write_config(tmp_path)
    assert main(["sweep", cfg_path]) == 1  # missing --axis/--values
    assert main(["run"]) == 1  # missing config path


def test_sweep_command(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "sw"
    code = main(
        ["sweep", cfg_path, "--axis", "seed", "--values", "1, 2", "--out-dir", str(out)]
    )
    assert code == 0
    assert "2 completed, 0 failed" in capsys.readouterr().out
    assert (out / "seed=1" / "metrics.csv").exists()
    assert (out / "seed=2" / "metrics.csv").exists()
    assert (out / "sweep_metrics.csv").exists()

    # A failed run is named on stderr; the sweep still exits 0.
    real = experiment.build_simulation

    def flaky(cfg):
        if cfg.run.seed == 2:
            raise RuntimeError("injected fault")
        return real(cfg)

    monkeypatch.setattr(experiment, "build_simulation", flaky)
    code = main(["sweep", cfg_path, "--axis", "seed", "--values", "1, 2",
                 "--out-dir", str(tmp_path / "flaky")])
    assert code == 0
    captured = capsys.readouterr()
    assert "1 completed, 1 failed" in captured.out
    assert "  seed=2: RuntimeError: injected fault\n" in captured.err


def test_sweep_bad_value_exit_1(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    code = main(
        ["sweep", cfg_path, "--axis", "phi", "--values", "0.4,oops",
         "--out-dir", str(tmp_path / "sw")]
    )
    assert code == 1
    assert "sweep.values" in capsys.readouterr().err


def test_sweep_repeated_value_exit_1(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "sw"
    code = main(["sweep", cfg_path, "--axis", "labeled_fraction",
                 "--values", "0.5,0.50,5e-1", "--out-dir", str(out)])
    assert code == 1
    assert "sweep.values" in capsys.readouterr().err
    assert not out.exists()


def test_plot_command(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", cfg_path, "--out-dir", str(out)]) == 0
    table = tmp_path / "acc.csv"
    code = main(
        ["plot", str(out / "metrics.csv"), "--figure", "accuracy", "--out", str(table)]
    )
    assert code == 0
    with open(table) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("baseline,labeled_fraction,")
    assert len(lines) == 2


def test_plot_default_output_next_to_metrics(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", cfg_path, "--out-dir", str(out)]) == 0
    assert main(["plot", str(out / "metrics.csv"), "--figure", "labeling-latency"]) == 0
    assert (out / "labeling_latency.csv").exists()


def test_plot_missing_metrics_exit_2(tmp_path, capsys):
    code = main(["plot", str(tmp_path / "none.csv"), "--figure", "accuracy"])
    assert code == 2


def test_plot_unknown_figure_exit_1(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", cfg_path, "--out-dir", str(out)]) == 0
    code = main(["plot", str(out / "metrics.csv"), "--figure", "loss"])
    assert code == 1


def test_module_entry_point(tmp_path):
    cfg_path = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "cfsl.cli", "run", cfg_path,
         "--out-dir", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "metrics:" in proc.stdout
