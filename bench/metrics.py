"""The benchmark's metrics, by name, with their units. BENCHMARK.json lists
the same names; bench/selftest.py checks that the two agree."""

# name -> (unit, better, time axis). Host time is what the simulator costs
# on this machine; simulated time and statistics are what the modelled
# system would show, and a change that only makes the simulator faster
# leaves them identical.
END_TO_END = {
    "updates_per_s": ("1/s", "higher", "host"),
    "round_s_p50": ("s", "lower", "host"),
    "round_s_tail": ("s", "lower", "host"),
    "setup_s": ("s", "lower", "host"),
    "write_s": ("s", "lower", "host"),
    "peak_rss_mb": ("MiB", "lower", "host"),
    "sim_time_s": ("s", "lower", "simulated"),
    "acc_mean_final": ("fraction", "higher", "simulated"),
    "injected_fraction_final": ("fraction", "higher", "simulated"),
}

# Per-layer metrics from a traced run: name -> (unit, better). Counts, rows,
# bytes and ratios repeat exactly for a seed; `.s` is inclusive host seconds.
PER_LAYER = {}
for _name in ("models.sgd_train", "models.gradient", "models.evaluate", "models.loss",
              "models.confidences", "data.train_batch", "data.pending_features",
              "clustering.bipartition", "clustering.similarity_matrix",
              "clustering.check_split_conditions", "clustering.tree.cluster_of",
              "clustering.tree.specialized", "clustering.tree.snapshot",
              "labeling.select_best_model", "labeling.utility", "labeling.pseudo_label",
              "labeling.inject", "network.schedule_round", "orchestrator.run_round",
              "orchestrator.edge_aggregate"):
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.s"] = ("s", "lower")
for _name in ("models.confidences.rows", "data.train_batch.rows", "labeling.pseudo_label.rows"):
    PER_LAYER[_name] = ("rows", "lower")
for _name in ("data.make_task_universe.s", "data.partition_devices.s",
              "network.sample_radios.s", "config.parse_config.s",
              "orchestrator.run_round.self_s"):
    PER_LAYER[_name] = ("s", "lower")
PER_LAYER.update({
    "clustering.bipartition.members_max": ("devices", "lower"),
    "clustering.split_ratio": ("fraction", "higher"),
    "labeling.accept_ratio": ("fraction", "higher"),
    "labeling.correct_ratio": ("fraction", "higher"),
    "network.selected": ("count", "higher"),
    "network.dropped": ("count", "lower"),
    "network.drop_ratio": ("fraction", "lower"),
    "experiment.events_bytes": ("bytes", "lower"),
    "experiment.metrics_bytes": ("bytes", "lower"),
    "trace.updates_per_s": ("1/s", "higher"),
    "trace.overhead_updates_per_s": ("1/s", "lower"),
    "trace.overhead_share": ("fraction", "lower"),
})
