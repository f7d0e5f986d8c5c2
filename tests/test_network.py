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
    compute_time,
    data_rate,
    db_to_linear,
    dbm_to_watts,
    device_round_time,
    path_gains,
    rayleigh_fading,
    round_time,
    sample_radios,
    schedule_round,
    upload_time,
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


def test_data_rate_unit_snr():
    # gain * P / N0 == 1 turns log2(1 + snr) into exactly 1.
    assert math.isclose(data_rate(1.0, 1e7, 0.5, 2e-6, 1e-6), 1e7, rel_tol=1e-12)


def test_data_rate_zero_power_and_beta_linearity():
    assert data_rate(1.0, 1e7, G0, 0.0, 1e-6) == 0.0
    full = data_rate(1.0, 1e7, G0, 0.01, 1e-6)
    half = data_rate(0.5, 1e7, G0, 0.01, 1e-6)
    assert math.isclose(half, full / 2, rel_tol=1e-12)


def test_data_rate_monotone():
    rng = np.random.default_rng(0)
    for _ in range(50):
        beta = rng.uniform(0.1, 0.9)
        bw = rng.uniform(1e6, 2e7)
        p = rng.uniform(1e-4, 0.1)
        base = data_rate(beta, bw, G0, p, 1e-6)
        assert data_rate(beta * 1.1, bw, G0, p, 1e-6) > base
        assert data_rate(beta, bw * 1.1, G0, p, 1e-6) > base
        assert data_rate(beta, bw, G0, p * 1.1, 1e-6) > base


def test_data_rate_against_high_precision():
    mpmath.mp.dps = 50
    beta, bw = 0.5, 1e7
    gain = channel_gain(10.0, G0, 2.0)
    power = dbm_to_watts(15.0)
    got = data_rate(beta, bw, gain, power, 1e-6)
    snr = (
        mpmath.mpf(10) ** mpmath.mpf("-3.5")
        * (mpmath.mpf(2) / 10) ** 4
        * (mpmath.mpf("1e-3") * mpmath.mpf(10) ** mpmath.mpf("1.5"))
        / mpmath.mpf("1e-6")
    )
    expected = mpmath.mpf("0.5") * mpmath.mpf(1e7) * mpmath.log(1 + snr) / mpmath.log(2)
    assert math.isclose(got, float(expected), rel_tol=1e-12)


def test_data_rate_rejects_bad_domains():
    for args in [
        (0.0, 1e7, G0, 0.01, 1e-6),
        (1.5, 1e7, G0, 0.01, 1e-6),
        (1.0, 0.0, G0, 0.01, 1e-6),
        (1.0, 1e7, G0, 0.01, 0.0),
        (1.0, 1e7, -G0, 0.01, 1e-6),
        (1.0, 1e7, G0, -0.01, 1e-6),
    ]:
        with pytest.raises(ValueError):
            data_rate(*args)


def test_compute_time_hand_values():
    assert math.isclose(compute_time(5, 100, 20, 1e9), 1e-5, rel_tol=1e-12)
    assert compute_time(5, 0, 20, 1e9) == 0.0
    assert math.isclose(
        compute_time(5, 200, 20, 1e9), 2 * compute_time(5, 100, 20, 1e9), rel_tol=1e-12
    )
    with pytest.raises(ValueError):
        compute_time(5, 100, 20, 0.0)


def test_compute_time_takes_zero_epochs_and_rejects_negative_terms():
    assert compute_time(0, 100, 20, 1e9) == 0.0
    for args in ((-1, 100, 20, 1e9), (5, -1, 20, 1e9), (5, 100, -1.0, 1e9)):
        with pytest.raises(ValueError, match="workload terms"):
            compute_time(*args)


def test_injection_strictly_increases_compute_time():
    rng = np.random.default_rng(1)
    for _ in range(30):
        d = int(rng.integers(1, 500))
        extra = int(rng.integers(1, 100))
        f = rng.uniform(1e9, 9e9)
        assert compute_time(5, d + extra, 20, f) > compute_time(5, d, 20, f)


def test_upload_time_hand_values():
    assert upload_time(1e7, 1e7) == 1.0
    assert math.isclose(upload_time(3.2e6, 1e7), 0.32, rel_tol=1e-12)
    assert upload_time(0.0, 1e7) == 0.0
    with pytest.raises(ValueError):
        upload_time(1.0, 0.0)


# ---------------------------------------------------------------- device time


def test_device_round_time_composition():
    radio = DeviceRadio(0, f_hz=2e9, power_w=0.01, distance_m=4.0, edge_id=0)
    t_cmp, t_com = device_round_time(
        radio, beta=0.25, net=NET, payload_bits=3.2e5, epochs=5, workload=100,
    )
    assert math.isclose(t_cmp, 5 * 100 * 20 / 2e9, rel_tol=1e-12)
    rate = data_rate(0.25, 1e7, channel_gain(4.0, G0, 2.0), 0.01, 1e-6)
    assert math.isclose(t_com, 3.2e5 / rate, rel_tol=1e-12)


def test_device_round_time_zero_rate_is_infinite_upload():
    radio = DeviceRadio(0, f_hz=2e9, power_w=0.0, distance_m=4.0, edge_id=0)
    _, t_com = device_round_time(radio, 0.5, NET, 3.2e5, 5, 100)
    assert math.isinf(t_com)


def test_device_round_time_zero_fading_is_infinite_upload():
    # A faded-out link has rate 0, not an error; only a negative multiplier is.
    radio = DeviceRadio(0, f_hz=2e9, power_w=0.01, distance_m=4.0, edge_id=0)
    t_cmp, t_com = device_round_time(radio, 0.5, NET, 3.2e5, 5, 100, fading=0.0)
    assert t_cmp == 5 * 100 * 20 / 2e9 and t_com == math.inf
    with pytest.raises(ValueError, match="fading"):
        device_round_time(radio, 0.5, NET, 3.2e5, 5, 100, fading=-1e-9)


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


def test_schedule_estimates_match_device_round_time():
    # The same operations in the same order: the same bits, with and without
    # fading, and an infinite estimate for a device faded out.
    radios = [radio(0, f=3e9, d=10.0), radio(1, f=2e9, d=20.0), radio(2, f=1e9, d=5.0)]
    loads = {0: 80, 1: 120, 2: 7}
    for fading in (None, {0: 0.37, 1: 2.9, 2: 0.0}):
        entry = schedule_round(NET, 2, radios, path_gains(radios, NET), loads, 2e5, 5, fading)
        for r in radios:
            mult = 1.0 if fading is None else fading[r.device_id]
            t_cmp, t_com = device_round_time(r, 0.5, NET, 2e5, 5, loads[r.device_id], mult)
            assert entry.est_times[r.device_id] == t_cmp + t_com
    assert entry.est_times[2] == math.inf and entry.selected == (0, 1)
    # Drawn radios near enough for an SNR of order 1, and a fractional cycle
    # count, where a reordered product in either time shows in its bits.
    rng = np.random.default_rng(4)
    net = replace(NET, cycles_per_sample=17312.7)
    drawn = [radio(k, f=rng.uniform(1e9, 9e9), p_dbm=rng.uniform(0, 20), d=rng.uniform(2, 4))
             for k in range(40)]
    loads = {k: int(rng.integers(1, 500)) for k in range(40)}
    fading = {k: float(rng.exponential()) for k in range(40)}
    entry = schedule_round(net, 8, drawn, path_gains(drawn, net), loads, 2e4, 7, fading)
    for r in drawn:
        t_cmp, t_com = device_round_time(r, 1 / 8, net, 2e4, 7, loads[r.device_id],
                                         fading[r.device_id])
        assert entry.est_times[r.device_id] == t_cmp + t_com
    with pytest.raises(ValueError, match="fading"):
        schedule_round(NET, 2, radios, path_gains(radios, NET), loads, 2e5, 5,
                       {0: 1.0, 1: -0.5, 2: 1.0})


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
    rng = np.random.default_rng(7)
    draws = rayleigh_fading(range(20000), rng)
    assert abs(np.mean(list(draws.values())) - 1.0) < 0.02
    a = rayleigh_fading([3, 1, 2], np.random.default_rng(5))
    b = rayleigh_fading([1, 2, 3], np.random.default_rng(5))
    assert a == b


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
        draws = np.array(list(rayleigh_fading(range(n), np.random.default_rng(seed)).values()))
        assert ks_statistic(draws, unit_exponential) < critical
        # The test can tell the wrong law: the amplitude instead of the
        # power, or a power of mean 2, is rejected.
        assert ks_statistic(np.sqrt(draws), unit_exponential) > critical
        assert ks_statistic(2.0 * draws, unit_exponential) > critical
