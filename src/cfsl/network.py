"""Wireless latency model: path loss, Shannon rates, scheduling, deadlines.

Closed-form timing only, after Yang et al., "Energy Efficient Federated
Learning Over Wireless Communication Networks" (IEEE TWC 2021): a device's
round estimate is its local compute time plus its upload at the Shannon
rate of one OFDMA sub-channel. `schedule_round` computes it, and nothing
else does. An edge's round time, `ScheduleEntry.round_s`, is the slowest
participating device's estimate; a global round, `round_time`, is the
slowest edge that shipped anything plus the one cloud hop every edge
shares. Broadcast time is treated as zero.

Every setting of the model (band, channel, CPU cycles, deadline rule,
radio ranges) is read from the validated `[network]` section,
`config.NetworkConfig`, and every radio attribute from a checked
`DeviceRadio`; only a round's sub-channel count is per edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig
from .seeding import RADIO_STREAM, streams


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 1e-3 * 10.0 ** (dbm / 10.0)


def channel_gain(distance_m: float, ref_gain_linear: float, ref_distance_m: float) -> float:
    """Fourth-power path-loss gain g0 * (d0 / d)^4."""
    if distance_m <= 0 or ref_distance_m <= 0:
        raise ValueError("distances must be > 0")
    return ref_gain_linear * (ref_distance_m / distance_m) ** 4


@dataclass(frozen=True)
class DeviceRadio:
    """Fixed radio/compute attributes of one device."""

    device_id: int
    f_hz: float
    power_w: float
    distance_m: float
    edge_id: int

    def __post_init__(self):
        if self.f_hz <= 0:
            raise ValueError(f"device {self.device_id}: CPU frequency must be > 0")
        if self.power_w < 0:
            raise ValueError(f"device {self.device_id}: transmit power must be >= 0")
        if self.distance_m <= 0:
            raise ValueError(f"device {self.device_id}: distance must be > 0")


@dataclass(frozen=True)
class ScheduleEntry:
    """One edge's selection for one round.

    selected/dropped are device-id tuples in ascending order; est_times
    covers every eligible device (the basis for selection and deadline).
    """

    selected: tuple
    beta: float
    deadline_s: float
    dropped: tuple
    est_times: dict

    @property
    def participating(self) -> tuple:
        return tuple([d for d in self.selected if d not in self.dropped])

    @property
    def idle(self) -> bool:
        return not self.participating

    @property
    def round_s(self) -> float:
        """The slowest participating device's estimate; 0.0 when idle."""
        return max([self.est_times[d] for d in self.participating], default=0.0)


def schedule_round(
    net: NetworkConfig,
    subchannels: int,
    radios: list,
    gains,
    workloads,
    payload_bits: float,
    epochs: int,
    fading: list | None = None,
) -> ScheduleEntry:
    """Pick up to `subchannels` (Q) of the edge's eligible `radios`,
    fastest estimated round time first. `gains` (see `path_gains`),
    `workloads` and `fading` (see `rayleigh_fading`; None is a multiplier
    of 1) give each device's path-loss gain g, training samples and
    fading multiplier by device id.

    Every scheduled device gets one sub-channel (beta = 1/Q). A device's
    estimate, `est_times`, is, evaluated left to right,

        epochs * samples * cycles_per_sample / f
            + payload_bits / (beta * B * log2(1 + g * fading * p / N0)),

    with B the band, p the transmit power and N0 the noise power; it is
    infinite when the rate is 0. The deadline is kappa times the median
    selected estimate, or a fixed configured value; estimates above it are
    dropped before training.
    """
    if fading is not None and min(fading, default=0.0) < 0:
        raise ValueError("fading multipliers must be >= 0")
    beta = 1.0 / subchannels
    band = beta * net.bandwidth_hz
    est = {}
    for radio in radios:
        k = radio.device_id
        mult = 1.0 if fading is None else fading[k]
        rate = band * math.log2(1.0 + gains[k] * mult * radio.power_w / net.noise_w)
        est[k] = (epochs * workloads[k] * net.cycles_per_sample / radio.f_hz
                  + (payload_bits / rate if rate else math.inf))
    order = [d for _, d in sorted(zip(est.values(), est))]
    selected = tuple(sorted(order[:subchannels]))
    if not selected:
        return ScheduleEntry((), beta, 0.0, (), est)
    if net.deadline_policy == "fixed":
        deadline = float(net.deadline_s)
    else:
        deadline = net.deadline_kappa * float(np.median([est[d] for d in selected]))
    dropped = tuple([d for d in selected if est[d] > deadline])
    return ScheduleEntry(selected, beta, deadline, dropped, est)


def round_time(schedules, cloud_s: float) -> float:
    """Slowest edge's round time plus the cloud hop; idle edges are skipped
    (they shipped nothing). All edges idle gives a zero-length round."""
    return max((s.round_s + cloud_s for s in schedules if not s.idle), default=0.0)


def sample_radios(edge_ids: list, seed, net: NetworkConfig) -> list:
    """Draw per-device radio attributes, uniform in the configured ranges
    (transmit power uniform in dBm, then converted to watts)."""
    radios = []
    draws = streams([int(seed), RADIO_STREAM], range(len(edge_ids)))
    for k, (edge_id, rng) in enumerate(zip(edge_ids, draws)):
        radios.append(
            DeviceRadio(
                device_id=k,
                f_hz=float(rng.uniform(net.cpu_min_hz, net.cpu_max_hz)),
                power_w=dbm_to_watts(float(rng.uniform(net.power_min_dbm, net.power_max_dbm))),
                distance_m=float(rng.uniform(net.distance_min_m, net.distance_max_m)),
                edge_id=edge_id,
            )
        )
    return radios


def path_gains(radios: list, net: NetworkConfig) -> dict:
    """{device id: path-loss gain} of each radio under `net`: a constant."""
    g0 = db_to_linear(net.ref_gain_db)
    return {r.device_id: channel_gain(r.distance_m, g0, net.ref_distance_m) for r in radios}


def rayleigh_fading(n_devices: int, rng: np.random.Generator) -> list:
    """Unit-mean exponential power-fading multipliers, indexed by device id:
    one draw per device, in device order."""
    return rng.exponential(1.0, n_devices).tolist()
