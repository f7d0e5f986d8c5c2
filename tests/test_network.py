"""Latency-model checks against hand-computed and high-precision oracles."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from cfsl.config import NetworkConfig
from cfsl.network import (
    DeviceRadio,
    ScheduleEntry,
    channel_gain,
    db_to_linear,
    dbm_to_watts,
    path_gains,
    rayleigh_fading,
    round_time,
    sample_radios,
    schedule_round,
)

G0 = db_to_linear(-35.0)
# Band 1e7 Hz, reference gain -35 dB at 2 m, noise 1e-6 W, 20 cycles per sample.
NET = NetworkConfig(bandwidth_hz=1e7, ref_gain_db=-35.0, ref_distance_m=2.0, noise_w=1e-6,
                    cycles_per_sample=20.0)


# ---------------------------------------------------------------- conversions


def test_unit_conversions():
    assert math.isclose(db_to_linear(-35.0), 10**-3.5, rel_tol=1e-12)
    assert math.isclose(dbm_to_watts(0.0), 1e-3, rel_tol=1e-12)
    assert math.isclose(dbm_to_watts(20.0), 0.1, rel_tol=1e-12)
    assert math.isclose(dbm_to_watts(-10.0), 1e-4, rel_tol=1e-12)


# ---------------------------------------------------------------- closed forms


def test_channel_gain_reference_and_falloff():
    assert math.isclose(channel_gain(2.0, G0, 2.0), G0, rel_tol=1e-12)
    assert math.isclose(channel_gain(4.0, G0, 2.0), G0 / 16, rel_tol=1e-12)
    assert math.isclose(channel_gain(5.0, G0, 2.0), G0 * 0.0256, rel_tol=1e-12)
    with pytest.raises(ValueError):
        channel_gain(0.0, G0, 2.0)
    with pytest.raises(ValueError):
        channel_gain(2.0, G0, -1.0)


def estimate(radio, q=1, workload=100, payload_bits=3.2e5, net=NET, gain=None):
    """`schedule_round`'s estimate for one device alone on 1/q of the band
    and 5 epochs, at its path gain under `net` unless `gain` is given."""
    gains = path_gains([radio], net) if gain is None else {radio.device_id: gain}
    entry = schedule_round(net, q, [radio], gains, {radio.device_id: workload}, payload_bits, 5)
    return entry.est_times[radio.device_id]


def test_data_rate_unit_snr():
    # gain * P / N0 == 1 turns log2(1 + snr) into exactly 1: the rate is
    # the sub-channel's band, B / Q.
    unit = DeviceRadio(0, f_hz=2e9, power_w=2e-6, distance_m=4.0, edge_id=0)
    assert estimate(unit, workload=0, payload_bits=1e7, gain=0.5) == 1.0
    assert estimate(unit, q=4, workload=0, payload_bits=1e7, gain=0.5) == 4.0


def test_data_rate_zero_power_and_beta_linearity():
    silent = DeviceRadio(0, f_hz=2e9, power_w=0.0, distance_m=4.0, edge_id=0)
    assert estimate(silent) == math.inf
    # Half the band, half the rate: twice the upload time.
    loud = DeviceRadio(0, f_hz=2e9, power_w=0.01, distance_m=4.0, edge_id=0)
    full = estimate(loud, q=1, workload=0)
    assert math.isclose(estimate(loud, q=2, workload=0), 2 * full, rel_tol=1e-12)


def test_data_rate_monotone():
    # More band, more power or fewer sub-channels: a higher rate, so a
    # shorter upload.
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = int(rng.integers(2, 9))
        net = replace(NET, bandwidth_hz=rng.uniform(1e6, 2e7))
        wider = replace(net, bandwidth_hz=net.bandwidth_hz * 1.1)
        r = DeviceRadio(0, f_hz=2e9, power_w=rng.uniform(1e-4, 0.1), distance_m=10.0, edge_id=0)
        louder = replace(r, power_w=r.power_w * 1.1)
        base = estimate(r, q=q, workload=0, net=net)
        assert estimate(r, q=q - 1, workload=0, net=net) < base
        assert estimate(r, q=q, workload=0, net=wider) < base
        assert estimate(louder, q=q, workload=0, net=net) < base


def test_data_rate_against_high_precision():
    mpmath.mp.dps = 50
    r = DeviceRadio(0, f_hz=2e9, power_w=dbm_to_watts(15.0), distance_m=10.0, edge_id=0)
    got = estimate(r, q=2, workload=0, payload_bits=3.2e5)
    snr = (
        mpmath.mpf(10) ** mpmath.mpf("-3.5")
        * (mpmath.mpf(2) / 10) ** 4
        * (mpmath.mpf("1e-3") * mpmath.mpf(10) ** mpmath.mpf("1.5"))
        / mpmath.mpf("1e-6")
    )
    rate = mpmath.mpf("0.5") * mpmath.mpf(1e7) * mpmath.log(1 + snr) / mpmath.log(2)
    assert math.isclose(got, float(mpmath.mpf("3.2e5") / rate), rel_tol=1e-12)


def test_compute_time_hand_values():
    # With no payload the estimate is the compute time alone.
    r = DeviceRadio(0, f_hz=1e9, power_w=0.01, distance_m=4.0, edge_id=0)
    assert math.isclose(estimate(r, payload_bits=0.0), 1e-5, rel_tol=1e-12)
    assert estimate(r, workload=0, payload_bits=0.0) == 0.0
    assert math.isclose(estimate(r, workload=200, payload_bits=0.0),
                        2 * estimate(r, payload_bits=0.0), rel_tol=1e-12)


def test_injection_strictly_increases_compute_time():
    rng = np.random.default_rng(1)
    for _ in range(30):
        d = int(rng.integers(1, 500))
        extra = int(rng.integers(1, 100))
        r = DeviceRadio(0, f_hz=rng.uniform(1e9, 9e9), power_w=0.01, distance_m=4.0, edge_id=0)
        assert estimate(r, workload=d + extra) > estimate(r, workload=d)


def test_upload_time_hand_values():
    # Unit SNR on the whole band: a rate of 1e7 bits/s.
    r = DeviceRadio(0, f_hz=1e9, power_w=2e-6, distance_m=4.0, edge_id=0)
    assert math.isclose(estimate(r, workload=0, payload_bits=3.2e6, gain=0.5), 0.32,
                        rel_tol=1e-12)
    assert estimate(r, workload=0, payload_bits=0.0, gain=0.5) == 0.0


# ---------------------------------------------------------------- device time


def test_device_round_time_composition():
    r = DeviceRadio(0, f_hz=2e9, power_w=0.01, distance_m=4.0, edge_id=0)
    t_cmp = 5 * 100 * 20 / 2e9
    rate = 0.25 * 1e7 * math.log2(1.0 + channel_gain(4.0, G0, 2.0) * 0.01 / 1e-6)
    assert math.isclose(estimate(r, q=4), t_cmp + 3.2e5 / rate, rel_tol=1e-12)


def test_device_round_time_zero_rate_is_infinite_upload():
    # Rate 0 is an infinite estimate even with nothing to upload, so the
    # device is scheduled after every device that can upload.
    silent = DeviceRadio(0, f_hz=1e9, power_w=0.0, distance_m=4.0, edge_id=0)
    loud = radio(1, d=40.0)
    entry = schedule(1, [silent, loud], {0: 0, 1: 500}, 0.0)
    assert entry.est_times[0] == math.inf and entry.selected == (1,)


def test_device_round_time_zero_fading_is_infinite_upload():
    # A faded-out link has rate 0, not an error; only a negative multiplier
    # is. Multipliers are read by device id.
    radios = [radio(3, f=3e9, d=10.0), radio(4, f=2e9, d=20.0), radio(5, f=1e9, d=5.0)]
    loads = {3: 80, 4: 120, 5: 7}
    fading = [1.0, 1.0, 1.0, 0.37, 2.9, 0.0]
    entry = schedule_round(NET, 2, radios, path_gains(radios, NET), loads, 2e5, 5, fading)
    assert entry.est_times[5] == math.inf and entry.selected == (3, 4)
    assert entry.est_times[3] == estimate(radios[0], q=2, workload=80, payload_bits=2e5,
                                          gain=path_gains(radios, NET)[3] * 0.37)
    with pytest.raises(ValueError, match="fading"):
        schedule_round(NET, 2, radios, path_gains(radios, NET), loads, 2e5, 5,
                       [1.0, 1.0, 1.0, 1.0, -1e-9, 1.0])


# ---------------------------------------------------------------- scheduling


def radio(k, f=1e9, p_dbm=10.0, d=4.0, edge=0):
    return DeviceRadio(k, f_hz=f, power_w=dbm_to_watts(p_dbm), distance_m=d, edge_id=edge)


def schedule(q, radios, workloads, payload_bits, net=NET):
    """schedule_round with q sub-channels and 5 epochs."""
    return schedule_round(net, q, radios, path_gains(radios, net), workloads, payload_bits, 5)


def test_schedule_selects_all_when_capacity_allows():
    radios = [radio(k) for k in range(3)]
    entry = schedule(4, radios, {k: 50 for k in range(3)}, 1e5)
    assert entry.selected == (0, 1, 2)
    assert entry.dropped == ()
    assert not entry.idle
    assert entry.beta == 0.25
    assert entry.beta * len(entry.selected) <= 1.0


def test_schedule_picks_fastest_two_of_four():
    # Distance drives upload time; nearer devices are strictly faster.
    radios = [radio(0, d=40.0), radio(1, d=4.0), radio(2, d=30.0), radio(3, d=6.0)]
    entry = schedule(2, radios, {k: 50 for k in range(4)}, 1e6)
    assert entry.selected == (1, 3)
    assert entry.est_times[1] < entry.est_times[3] < entry.est_times[2] < entry.est_times[0]


def test_schedule_breaks_ties_by_device_id():
    radios = [radio(k) for k in range(4)]
    entry = schedule(2, radios, {k: 50 for k in range(4)}, 1e5)
    assert entry.selected == (0, 1)


def test_schedule_fixed_deadline_drops_everyone():
    radios = [radio(k) for k in range(3)]
    fixed = replace(NET, deadline_policy="fixed", deadline_s=1e-9)
    entry = schedule(3, radios, {k: 50 for k in range(3)}, 1e6, fixed)
    assert entry.dropped == entry.selected
    assert entry.idle
    assert entry.participating == ()


def test_schedule_median_deadline_value():
    radios = [radio(0, d=4.0), radio(1, d=8.0), radio(2, d=12.0)]
    entry = schedule(3, radios, {k: 50 for k in range(3)}, 1e6,
                     replace(NET, deadline_kappa=2.0))
    assert math.isclose(entry.deadline_s, 2.0 * entry.est_times[1], rel_tol=1e-12)


def test_schedule_empty_eligible_set_is_idle():
    entry = schedule(2, [], {}, 1e5)
    assert entry.idle
    assert entry.selected == ()


def test_schedule_estimates_keep_the_docstring_order():
    # The estimate's bits are part of every digest: each product and sum
    # runs in the order schedule_round's docstring writes them. Radios near
    # enough for an SNR of order 1, fading multipliers and a fractional
    # cycle count make a reordered product show in the bits.
    rng = np.random.default_rng(4)
    net = replace(NET, cycles_per_sample=17312.7)
    drawn = [radio(k, f=rng.uniform(1e9, 9e9), p_dbm=rng.uniform(0, 20), d=rng.uniform(2, 4))
             for k in range(40)]
    loads = {k: int(rng.integers(1, 500)) for k in range(40)}
    fading = rayleigh_fading(40, rng)
    gains = path_gains(drawn, net)
    entry = schedule_round(net, 6, drawn, gains, loads, 2e4, 7, fading)
    for r in drawn:
        k = r.device_id
        snr = gains[k] * fading[k] * r.power_w / net.noise_w
        rate = 1 / 6 * net.bandwidth_hz * math.log2(1 + snr)
        assert entry.est_times[k] == 7 * loads[k] * net.cycles_per_sample / r.f_hz + 2e4 / rate


# ---------------------------------------------------------------- aggregation


def entry_with(est, dropped=()):
    """An entry that selected every device of `est`, dropping `dropped`."""
    return ScheduleEntry(tuple(sorted(est)), 0.25, math.inf, tuple(dropped), est)


def test_round_s_max_and_idle():
    assert entry_with({0: 3.0, 1: 5.0}).round_s == 5.0
    assert entry_with({2: 1.25}).round_s == 1.25
    assert entry_with({0: 2.0, 1: 7.5, 2: 4.0}).round_s == 7.5
    # A dropped device's estimate never counts; all dropped is an idle edge.
    assert entry_with({0: 2.0, 1: 7.5, 2: 4.0}, dropped=(1,)).round_s == 4.0
    idle = entry_with({0: 3.0, 1: 5.0}, dropped=(0, 1))
    assert idle.idle and idle.round_s == 0.0
    assert entry_with({}).round_s == 0.0


def test_round_time_cases():
    assert round_time([entry_with({0: 4.0})], 1.0) == 5.0
    assert round_time([entry_with({0: 1.0}), entry_with({1: 2.0})], 3.0) == 5.0
    # Three-edge hand case: edges 0.5, 0.84 and 0.74 plus 0.02 -> 0.86.
    edges = [entry_with({0: 0.5}), entry_with({1: 0.84}), entry_with({2: 0.74})]
    assert math.isclose(round_time(edges, 0.02), 0.86, rel_tol=1e-12)
    # An idle edge shipped nothing, so its estimates never count.
    edges[1] = entry_with({1: 0.84}, dropped=(1,))
    assert round_time(edges, 0.032) == 0.772
    assert round_time([entry_with({0: 1.0}, dropped=(0,))], 1.0) == 0.0
    assert round_time([], 1.0) == 0.0


# ---------------------------------------------------------------- sampling


def test_sample_radios_ranges_and_determinism():
    edge_ids = [0, 0, 1, 1, 2]
    a = sample_radios(edge_ids, 9, NET)
    b = sample_radios(edge_ids, 9, NET)
    c = sample_radios(edge_ids, 10, NET)
    assert [r.edge_id for r in a] == edge_ids
    for x, y in zip(a, b):
        assert x == y
    assert any(x != y for x, y in zip(a, c))
    for r in a:
        assert 1e9 <= r.f_hz <= 9e9
        assert dbm_to_watts(-10) <= r.power_w <= dbm_to_watts(20)
        assert 2.0 <= r.distance_m <= 50.0


def test_sample_radios_prefix_stable():
    short = sample_radios([0, 0], 4, NET)
    longer = sample_radios([0, 0, 1, 1], 4, NET)
    assert short == longer[:2]


def test_radio_validation():
    with pytest.raises(ValueError):
        DeviceRadio(0, f_hz=0.0, power_w=0.01, distance_m=2.0, edge_id=0)
    with pytest.raises(ValueError):
        DeviceRadio(0, f_hz=1e9, power_w=-0.1, distance_m=2.0, edge_id=0)
    with pytest.raises(ValueError):
        DeviceRadio(0, f_hz=1e9, power_w=0.1, distance_m=0.0, edge_id=0)


def test_rayleigh_fading_unit_mean_and_determinism():
    draws = rayleigh_fading(20000, np.random.default_rng(7))
    assert len(draws) == 20000 and abs(np.mean(draws) - 1.0) < 0.02
    assert rayleigh_fading(3, np.random.default_rng(5)) == rayleigh_fading(
        3, np.random.default_rng(5))


def test_rayleigh_fading_equals_one_draw_per_device():
    # One vector draw has the bits of one scalar draw per device, in device
    # order, from the same stream.
    for seed in range(5):
        for n in (1, 7, 512):
            rng = np.random.default_rng(seed)
            scalars = [float(rng.exponential(1.0)) for _ in range(n)]
            got = rayleigh_fading(n, np.random.default_rng(seed))
            assert got == scalars and all(type(v) is float for v in got)


def ks_statistic(sample, cdf) -> float:
    """Kolmogorov–Smirnov distance between a sample's empirical CDF and `cdf`."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    f = cdf(x)
    return float(max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max()))


def test_rayleigh_fading_power_is_unit_exponential():
    # Rayleigh amplitude fading makes the power gain Exp(1): F(x) = 1 - e^{-x}.
    # Asymptotic one-sample critical value at level alpha:
    # sqrt(-ln(alpha / 2) / 2) / sqrt(n).
    n, alpha = 20000, 1e-3
    critical = math.sqrt(-math.log(alpha / 2) / 2) / math.sqrt(n)

    def unit_exponential(x):
        return 1.0 - np.exp(-x)

    for seed in (0, 1, 2):
        draws = np.array(rayleigh_fading(n, np.random.default_rng(seed)))
        assert ks_statistic(draws, unit_exponential) < critical
        # The test can tell the wrong law: the amplitude instead of the
        # power, or a power of mean 2, is rejected.
        assert ks_statistic(np.sqrt(draws), unit_exponential) > critical
        assert ks_statistic(2.0 * draws, unit_exponential) > critical
