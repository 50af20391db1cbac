import math

import numpy as np
import pytest

from oracles import fork_graph
from stochcirc.compiler import compile as compile_graph
from stochcirc.entropy import EntropyStream
from stochcirc.errors import ConfigError, NoSupportError
from stochcirc.factorgraph import Factor, FactorGraph, Variable, enumerate_joint
from stochcirc.lowprec import DEFAULT_FORMAT, EnergyFormat, EnergyVector, total_variation
from stochcirc.spiking import SpikeRaster, race_sample, simulate_spiking_assembly


def test_equal_energies_symmetric_race():
    vec = EnergyVector([4, 4], DEFAULT_FORMAT)
    s = EntropyStream(1)
    n = 100_000
    wins = sum(race_sample(vec, s)[0] for _ in range(n))
    assert abs(wins / n - 0.5) < 0.005


def test_one_bit_energy_gap_race_probabilities():
    # energies (0, 1) in bits: rates 2:1, win probabilities (2/3, 1/3)
    fmt = EnergyFormat(8, 4)
    vec = EnergyVector([0, 16], fmt)
    s = EntropyStream(2)
    n = 100_000
    counts = np.zeros(2)
    for _ in range(n):
        counts[race_sample(vec, s)[0]] += 1
    assert total_variation(counts / n, [2 / 3, 1 / 3]) < 0.01


def test_race_never_picks_saturated_unit():
    vec = EnergyVector([0, DEFAULT_FORMAT.max_raw], DEFAULT_FORMAT)
    s = EntropyStream(3)
    for _ in range(500):
        winner, times = race_sample(vec, s)
        assert winner == 0
        assert math.isinf(times[1])


def test_all_saturated_raises():
    vec = EnergyVector([DEFAULT_FORMAT.max_raw] * 2, DEFAULT_FORMAT)
    with pytest.raises(NoSupportError):
        race_sample(vec, EntropyStream(4))


def test_race_matches_discrete_sample_declared_distribution():
    # cross-implementation oracle on random 10-outcome energy vectors
    rng = np.random.default_rng(5)
    s = EntropyStream(6)
    races = 30_000
    for _ in range(30):
        raws = rng.integers(0, 128, size=10)
        vec = EnergyVector(raws.tolist(), DEFAULT_FORMAT)
        declared = vec.declared_distribution()
        counts = np.zeros(10)
        for _ in range(races):
            counts[race_sample(vec, s)[0]] += 1
        assert total_variation(counts / races, declared) < 0.02


def test_race_win_probability_is_rate_softmax():
    # analytic identity P(winner=i) = lambda_i / sum(lambda), not merely
    # agreement with the sampling gate
    fmt = EnergyFormat(8, 4)
    raws = [0, 8, 24, 40]
    vec = EnergyVector(raws, fmt)
    lam = np.array([2.0 ** (-(r / 16)) for r in raws])
    analytic = lam / lam.sum()
    s = EntropyStream(7)
    n = 200_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[race_sample(vec, s)[0]] += 1
    assert total_variation(counts / n, analytic) < 0.01


def test_spiking_assembly_matches_enumeration():
    graph = fork_graph()
    joint = enumerate_joint(graph)
    asm = compile_graph(graph, seed=8)
    raster, trace = simulate_spiking_assembly(asm, 100_000, record_raster=False)
    emp = trace.empirical_joint([2, 2, 2])
    assert total_variation(emp.reshape(-1), joint.reshape(-1)) < 0.02
    assert raster.events == []


def test_spiking_clamped_matches_conditional():
    graph = fork_graph({"C": 1})
    joint = enumerate_joint(graph)
    asm = compile_graph(graph, seed=9)
    raster, trace = simulate_spiking_assembly(asm, 60_000, record_raster=False)
    emp = trace.empirical_joint([2, 2, 2])
    assert total_variation(emp.reshape(-1), joint.reshape(-1)) < 0.02
    assert all(row[2] == 1 for row in trace.rows)


def test_clamped_variable_units_never_race():
    graph = fork_graph({"C": 1})
    asm = compile_graph(graph, seed=10)
    raster, _ = simulate_spiking_assembly(asm, 50, burn_in=0)
    assert all(var != "C" for _, _, var, _ in raster.events)


def test_single_variable_assembly_reduces_to_race():
    variables = [Variable("X", 3)]
    graph = FactorGraph(variables, [Factor("u", ["X"], [4.0, 2.0, 2.0], [3])])
    asm = compile_graph(graph, seed=11)
    _, trace = simulate_spiking_assembly(asm, 60_000, record_raster=False)
    counts = np.bincount([r[0] for r in trace.rows], minlength=3)
    target = np.array([0.5, 0.25, 0.25])
    assert total_variation(counts / counts.sum(), target) < 0.01


def test_raster_one_winner_per_variable_per_epoch():
    graph = fork_graph()
    asm = compile_graph(graph, seed=12)
    raster, trace = simulate_spiking_assembly(asm, 40, burn_in=0)
    # every (variable, epoch) pair has exactly one recorded transition
    seen = set()
    for epoch, _t, var, _v in raster.transitions:
        assert (var, epoch) not in seen
        seen.add((var, epoch))
    # burn_in=0: every variable races exactly once per sweep
    for var in "ABC":
        assert sum(1 for v, _ in seen if v == var) == len(trace.rows)
    # inhibited units fire at most once per epoch
    per_race = {}
    for epoch, _t, var, unit in raster.events:
        key = (var, epoch, unit)
        assert key not in per_race
        per_race[key] = True


def test_raster_epochs_increase_per_variable():
    graph = fork_graph()
    asm = compile_graph(graph, seed=13)
    raster, _ = simulate_spiking_assembly(asm, 30, burn_in=0)
    by_var = {}
    for epoch, t, var, _ in raster.transitions:
        by_var.setdefault(var, []).append((epoch, t))
    for races in by_var.values():
        epochs = [e for e, _ in races]
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == len(epochs)
        # each spike lands after its own epoch start
        assert all(t >= e for e, t in races)


def test_spiking_requires_gibbs_kernels():
    graph = fork_graph()
    asm = compile_graph(graph, kernel="mh", seed=14)
    with pytest.raises(ConfigError):
        simulate_spiking_assembly(asm, 10)


def test_spiking_deterministic_per_seed():
    graph = fork_graph()
    r1, t1 = simulate_spiking_assembly(compile_graph(graph, seed=15), 200)
    r2, t2 = simulate_spiking_assembly(compile_graph(graph, seed=15), 200)
    assert t1.rows == t2.rows
    assert r1.events == r2.events


def test_high_precision_spiking_also_correct():
    graph = fork_graph()
    joint = enumerate_joint(graph)
    asm = compile_graph(graph, fmt=None, seed=16)
    _, trace = simulate_spiking_assembly(asm, 60_000, record_raster=False)
    emp = trace.empirical_joint([2, 2, 2])
    assert total_variation(emp.reshape(-1), joint.reshape(-1)) < 0.02


def test_raster_csv_header():
    raster = SpikeRaster(events=[(0, 0.25, "A", 1)])
    lines = raster.events_csv().strip().split("\n")
    assert lines[0] == "time,variable,unit"
    assert lines[1] == "0.25,A,1"


def test_random_scan_spiking_follows_scan_stream():
    graph = fork_graph()
    joint = enumerate_joint(graph)
    asm = compile_graph(graph, schedule="random-scan", seed=17)
    raster, trace = simulate_spiking_assembly(asm, 40_000)
    # three unclamped variables: three scan draws, hence three epochs, a
    # sweep; each draw takes at least one word of the scan stream
    draws = 3 * (40_000 + 30)
    assert asm.scan_stream.draws_consumed >= draws
    assert trace.meta["epochs"] == draws
    assert [e for e, _t, _v, _u in raster.transitions] == list(range(draws))
    emp = trace.empirical_joint([2, 2, 2])
    assert total_variation(emp.reshape(-1), joint.reshape(-1)) < 0.02


def test_race_on_a_wide_word_format():
    # (10, 0) weights exceed the float range; rates are weights over the
    # largest one, so the minimum-energy unit still has rate one
    vec = EnergyVector([0, 1, 1023], EnergyFormat(10, 0))
    s = EntropyStream(7)
    counts = np.zeros(3)
    for _ in range(30_000):
        winner, times = race_sample(vec, s)
        counts[winner] += 1
        assert math.isinf(times[2])
    assert total_variation(counts / counts.sum(), vec.declared_distribution()) < 0.01


def test_spiking_rejects_negative_burn_in():
    with pytest.raises(ConfigError, match="burn-in must be nonnegative"):
        simulate_spiking_assembly(compile_graph(fork_graph()), 10, burn_in=-5)
