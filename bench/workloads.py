"""The benchmark's three workloads.

Each is a fixed cfsl config. The synthetic task is pinned by `[data] seed`,
so every run trains on the same dataset; the benchmark's --seed S sets
`[run] seed` to S * replicas + i for each replica i, and from that seed the
program draws the radio deployment, model initialisation, Rayleigh fading
and SGD order. Averaging the simulated statistics over a few replicas keeps
them steady from seed to seed without hiding a change: each replica's
results are exact, and their artifact digests are checked.

All three use a fixed upload deadline (`deadline_policy = fixed`). Under the
default median policy a round lasts as long as the slowest device within
twice the median estimate, and with fourth-power path loss that value swings
by 80% or more between radio deployments; a fixed deadline keeps the
simulated time a property of the workload rather than of one seed.

`tail_pct` is the percentile reported as round_s_tail, with nearest-rank
indexing. It is fixed per workload so that it means the same thing on every
commit, and chosen so that a run's minimum sample count (every replica once)
leaves at least ten rounds beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    replicas: int
    tail_pct: int
    config: str  # INI text with {seed} and {out_dir} placeholders


FEDAVG_128 = Workload(
    name="fedavg-128",
    replicas=4,
    tail_pct=87,
    config="""
[topology]
edges = 8
devices = 128

[data]
seed = 0
labeled_fraction = 1.0

[model]
family = mlp
hidden = 16

[clustering]
enabled = false

[ssl]
enabled = false

[network]
fading = rayleigh
deadline_policy = fixed
deadline_s = 120

[run]
rounds = 20
convergence_window = 21
seed = {seed}
out_dir = {out_dir}
""",
)

SELFLABEL_64 = Workload(
    name="selflabel-64",
    replicas=2,
    tail_pct=90,
    config="""
[topology]
edges = 4
devices = 64

[data]
seed = 0
distributions = 4
classes = 6
features = 16
samples_per_device = 1000
labeled_fraction = 0.02
separation = 3.0

[model]
epochs = 2

[clustering]
split_interval = 5

[ssl]
phi = 0.9
label_interval = 2

[network]
fading = rayleigh
deadline_policy = fixed
deadline_s = 12

[run]
rounds = 80
convergence_window = 81
seed = {seed}
out_dir = {out_dir}
""",
)

SPLIT_512 = Workload(
    name="split-512",
    replicas=2,
    tail_pct=75,
    config="""
[topology]
edges = 8
devices = 512

[data]
seed = 0
distributions = 4
samples_per_device = 100
labeled_fraction = 0.2

[clustering]
eps1 = 2.5
eps2 = 1.8
split_interval = 5

[network]
deadline_policy = fixed
deadline_s = 20

[run]
rounds = 20
convergence_window = 21
seed = {seed}
out_dir = {out_dir}
""",
)

WORKLOADS = {w.name: w for w in (FEDAVG_128, SELFLABEL_64, SPLIT_512)}
