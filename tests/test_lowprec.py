import math

import numpy as np
import pytest

from oracles import NoWideMultiplierTables
from stochcirc import lowprec
from stochcirc.entropy import EntropyStream
from stochcirc.errors import ConfigError, DomainError, NoSupportError
from stochcirc.lowprec import (
    DEFAULT_FORMAT,
    MAX_FRAC_BITS,
    EnergyFormat,
    EnergyVector,
    concentration_for_entropy,
    default_entropy_grid,
    discrete_sample,
    encode_energy,
    invert_cdf,
    mean_dirichlet_entropy,
    precision_sweep,
    relative_entropy,
    total_variation,
    truncated_distribution,
    truncation_kl,
)


def test_format_properties():
    fmt = EnergyFormat(8, 4)
    assert fmt.max_raw == 255
    assert fmt.resolution == 1 / 16
    assert fmt.max_energy == 254 / 16
    with pytest.raises(ConfigError):
        EnergyFormat(8, 9)


@pytest.mark.parametrize("bits,frac", [(32, 27), (32, 32), (20, 17)])
def test_format_refuses_fraction_bits_past_the_multiplier_bound(bits, frac, monkeypatch):
    monkeypatch.setattr(lowprec, "_TABLE_CACHE", NoWideMultiplierTables())
    with pytest.raises(ConfigError, match=f"must be in \\[0, {MAX_FRAC_BITS}\\], got {frac}"):
        EnergyFormat(bits, frac)


def test_format_admits_the_widest_fraction_the_bound_allows(monkeypatch):
    monkeypatch.setattr(lowprec, "_TABLE_CACHE", NoWideMultiplierTables())
    fmt = EnergyFormat(32, MAX_FRAC_BITS)
    qmax = fmt.max_raw >> MAX_FRAC_BITS
    # energies 0, 1 bit and the sentinel
    assert EnergyVector([0, 1 << MAX_FRAC_BITS, fmt.max_raw], fmt).weights() == [
        1 << (16 + qmax), 1 << (15 + qmax), 0]


def test_encode_energy_examples():
    assert encode_energy(1.0, EnergyFormat(8, 4)).raw == 0
    assert encode_energy(0.5, EnergyFormat(8, 4)).raw == 16
    # -log2(0.1) = 3.3219...; * 16 = 53.15 -> 53
    assert encode_energy(0.1, EnergyFormat(8, 4)).raw == 53


def test_encode_energy_saturates():
    w = encode_energy(1e-9, EnergyFormat(8, 4))
    assert w.raw == 255 and w.saturated


def test_encode_energy_domain():
    with pytest.raises(DomainError):
        encode_energy(0.0)
    with pytest.raises(DomainError):
        encode_energy(-0.5)


def test_equal_energies_uniform():
    # K=10 all-equal energies: TV < 0.01 at 1e6 draws
    vec = EnergyVector([3] * 10, DEFAULT_FORMAT)
    s = EntropyStream(1)
    n = 10**6
    counts = np.zeros(10)
    for _ in range(n):
        counts[discrete_sample(vec, s)] += 1
    assert total_variation(counts / n, np.full(10, 0.1)) < 0.01


def test_saturated_entry_never_drawn():
    vec = EnergyVector([0, DEFAULT_FORMAT.max_raw], DEFAULT_FORMAT)
    s = EntropyStream(2)
    assert all(discrete_sample(vec, s) == 0 for _ in range(2000))
    assert vec.declared_distribution()[1] == 0.0


def test_all_saturated_raises():
    vec = EnergyVector([DEFAULT_FORMAT.max_raw] * 3, DEFAULT_FORMAT)
    with pytest.raises(NoSupportError):
        vec.weights()


def test_gate_matches_declared_distribution():
    # gate/analysis agreement: empirical vs declared, TV < 0.01 at 1e6 draws
    rng = np.random.default_rng(6)
    probs = rng.dirichlet(np.ones(10))
    vec = EnergyVector.from_probs(probs, DEFAULT_FORMAT)
    declared = vec.declared_distribution()
    s = EntropyStream(3)
    n = 10**6
    counts = np.zeros(10)
    for _ in range(n):
        counts[discrete_sample(vec, s)] += 1
    assert total_variation(counts / n, declared) < 0.01


def test_declared_close_to_exact_at_default_format():
    rng = np.random.default_rng(7)
    probs = rng.dirichlet(np.ones(10))
    approx = truncated_distribution(probs, DEFAULT_FORMAT)
    assert total_variation(approx, probs) < 0.02


def test_shift_invariance():
    # adding a representable constant to all energies leaves the declared
    # distribution unchanged (only ratios matter)
    fmt = EnergyFormat(8, 4)
    base = [0, 5, 17, 40]
    shifted = [r + 48 for r in base]  # +3.0 bits, still in range
    a = EnergyVector(base, fmt).declared_distribution()
    b = EnergyVector(shifted, fmt).declared_distribution()
    assert np.array_equal(a, b)


def test_relative_entropy_basics():
    assert relative_entropy([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert relative_entropy([1.0, 0.0], [0.5, 0.5]) == 1.0
    assert math.isinf(relative_entropy([0.5, 0.5], [1.0, 0.0]))


def test_relative_entropy_matches_direct_summation():
    rng = np.random.default_rng(8)
    p = rng.dirichlet(np.ones(10))
    q = rng.dirichlet(np.ones(10))
    direct = sum(pi * math.log2(pi / qi) for pi, qi in zip(p, q) if pi > 0)
    assert abs(relative_entropy(p, q) - direct) < 1e-12


def test_truncation_kl_trivial_cases():
    one_hot = np.zeros(8)
    one_hot[3] = 1.0
    assert truncation_kl(one_hot, EnergyFormat(4, 2)) == 0.0
    uniform = np.full(8, 1 / 8)
    assert truncation_kl(uniform, EnergyFormat(4, 2)) == 0.0


def test_truncation_kl_monotone_in_total_bits():
    # fixed fraction bits: more total bits never increases the loss
    rng = np.random.default_rng(9)
    formats = [EnergyFormat(b, 4) for b in (5, 6, 8, 10, 12)]
    for _ in range(50):
        probs = rng.dirichlet(np.full(20, 0.3))
        kls = [truncation_kl(probs, fmt) for fmt in formats]
        for coarse, fine in zip(kls, kls[1:]):
            assert fine <= coarse + 1e-12


def test_thousand_outcome_loss_small_at_8_bits():
    rng = np.random.default_rng(10)
    kls = [truncation_kl(rng.dirichlet(np.ones(1000)), DEFAULT_FORMAT)
           for _ in range(200)]
    assert np.mean(kls) < 1e-2


def test_dirichlet_entropy_calibration():
    # the solved concentration reproduces the target mean entropy
    k = 1000
    for target in (3.0, 6.0, 9.0):
        alpha = concentration_for_entropy(target, k)
        assert abs(mean_dirichlet_entropy(alpha, k) - target) < 1e-6


def test_sweep_table_shape_and_endpoints():
    rows = precision_sweep(k=100, n_dists=200,
                           formats=[EnergyFormat(4, 2), EnergyFormat(8, 4)], seed=5)
    grid = default_entropy_grid(100)
    assert len(rows) == 2 * len(grid)
    by_key = {(r.entropy_bits, r.total_bits): r for r in rows}
    assert by_key[(0.0, 8)].mean_kl == 0.0
    assert by_key[(round(math.log2(100), 3), 8)].mean_kl == 0.0
    for r in rows:
        assert r.max_kl >= r.mean_kl >= 0.0
        assert r.n == 200


def test_sweep_resilience_at_entropy_extremes():
    # bins near 0 and near log2(K) show less loss than the mid-entropy peak
    rows = precision_sweep(k=100, n_dists=300, formats=[EnergyFormat(8, 4)], seed=6)
    top = math.log2(100)
    lows = [r.mean_kl for r in rows if r.entropy_bits < 0.05 or r.entropy_bits > 0.95 * top]
    mids = [r.mean_kl for r in rows if 0.05 <= r.entropy_bits <= 0.95 * top]
    assert max(lows) <= max(mids)


def test_sweep_low_precision_much_worse():
    rows = precision_sweep(k=200, n_dists=300,
                           formats=[EnergyFormat(4, 2), EnergyFormat(8, 4)], seed=7)
    mean8 = np.mean([r.mean_kl for r in rows if r.total_bits == 8])
    mean4 = np.mean([r.mean_kl for r in rows if r.total_bits == 4])
    assert mean4 > 10 * mean8


def test_energy_vector_needs_outcome():
    with pytest.raises(ConfigError):
        EnergyVector([], DEFAULT_FORMAT)


@pytest.mark.parametrize("weights, last", [([2, 0, 0], 0), ([0, 3, 0], 1), ([1, 0, 4, 0], 2),
                                           ([1.0, 2.0 ** -53, 0.0], 1)])
def test_invert_cdf_at_or_past_the_sum_takes_the_last_positive_weight(weights, last):
    total = sum(weights)
    for u in (total, total + 1, 2 * total + 5):
        assert invert_cdf(weights, u) == last
    assert invert_cdf(weights, 0) == next(i for i, w in enumerate(weights) if w > 0)
