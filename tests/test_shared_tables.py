"""Compile specializes each distinct (table, axis) once per assembly.

The shared row blocks must equal, bit for bit, what specializing every
factor-variable pair on its own gives.
"""

import math
import warnings

import numpy as np
import pytest

from stochcirc import fixture_text, transition
from stochcirc.compiler import compile as compile_graph
from stochcirc.entropy import EntropyStream
from stochcirc.factorgraph import parse
from stochcirc.lowprec import EnergyFormat
from stochcirc.transition import run
from stochcirc.mrf import (
    ImagePair,
    LatticeMRF,
    evidence_from_images,
    random_dot_stereogram,
)
from test_lane import lattice_graph, mixed_arity_graph


def float_rows(kernel, part):
    """The part's read-only block of float rows, from its kernel's table."""
    return next(rows for at, _, rows in kernel.table.blocks.values() if at == part.offset)


def motion_graph(size=10, d=5, seed=4):
    rng = np.random.default_rng(seed)
    first = (rng.integers(0, 2, size=(size, size)) * 255).astype(np.uint8)
    second = np.roll(first, 1, axis=0)
    evidence = evidence_from_images(ImagePair(first, second), d, "motion")
    return LatticeMRF(size, size, d, evidence).to_factor_graph()


def stereo_graph(size, d, shift=3, seed=201):
    pair, _ = random_dot_stereogram(size, size, shift, seed=seed)
    return LatticeMRF(size, size, d, evidence_from_images(pair, d)).to_factor_graph()


GRAPHS = {
    "chain3": lambda: parse(fixture_text("chain3.json")),
    "icu_monitor": lambda: parse(fixture_text("icu_monitor.json")),
    "three_var_fork": lambda: parse(fixture_text("three_var_fork.json")),
    "stereo16d6": lambda: stereo_graph(16, 6),
    "motion_d5": motion_graph,
    "mixed_arity": mixed_arity_graph,
}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kernel", ["gibbs", "mh"])
@pytest.mark.parametrize("which", sorted(GRAPHS))
def test_shared_parts_equal_per_pair_specialization(which, kernel):
    graph = GRAPHS[which]()
    asm = compile_graph(graph, kernel=kernel, seed=1)
    for name, circ in asm.circuits.items():
        factors = graph.factors_touching(name)
        assert len(circ.kernel.parts) == len(factors)
        for part, factor in zip(circ.kernel.parts, factors):
            energy = transition._specialized_energy_table(factor, name)
            strides = tuple(math.prod(energy.shape[t + 1:])
                            for t in range(energy.ndim - 1))
            assert part.neighbors == tuple(v for v in factor.vars if v != name)
            assert part.arity == energy.shape[-1]
            assert part.strides == strides
            assert same_bits(float_rows(circ.kernel, part), energy.reshape(-1))


def test_one_specialization_per_distinct_table_and_axis(monkeypatch):
    graph = stereo_graph(32, 8)
    calls = []
    specialize = transition._specialized_energy_table

    def counting(factor, var):
        calls.append((factor.name, var))
        return specialize(factor, var)

    monkeypatch.setattr(transition, "_specialized_energy_table", counting)
    compile_graph(graph, seed=201)
    pairs = [(f, v) for f in graph.factors for v in f.vars]
    keys = {(f.table.tobytes(), f.table.shape, f.vars.index(v)) for f, v in pairs}
    assert len(pairs) == 4992
    assert len(calls) == len(keys) < 200


def test_shared_blocks_are_read_only_and_per_compile():
    graph = lattice_graph(size=8, d=3)
    first = compile_graph(graph, seed=2)
    second = compile_graph(graph, seed=2)
    # every pairwise smoothness factor has the same table
    a, b = first.schedule[0][:2]
    block = float_rows(first.circuits[a].kernel, first.circuits[a].kernel.parts[-1])
    assert block is float_rows(first.circuits[b].kernel, first.circuits[b].kernel.parts[-1])
    assert block is not float_rows(second.circuits[a].kernel, second.circuits[a].kernel.parts[-1])
    with pytest.raises(ValueError):
        block[0] = 0.0


def test_kernel_built_alone_specializes_its_own_tables():
    graph = lattice_graph(size=4, d=3)
    name = sorted(graph.var_names)[0]
    factors = graph.factors_touching(name)
    one = transition.GibbsKernel(name, 3, factors, None)
    two = transition.GibbsKernel(name, 3, factors, None)
    for p, q in zip(one.parts, two.parts):
        assert float_rows(one, p) is not float_rows(two, q)
        assert same_bits(float_rows(one, p), float_rows(two, q))


@pytest.mark.parametrize("temperature,word", [(1.0, 16), (1e-3, 254), (1e-310, 254)])
def test_a_finite_energy_stays_possible_at_any_temperature(temperature, word):
    # energy / T overflows at 1e-310; the finite energy still clamps below
    # the sentinel, and the overflow warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = transition._quantize_rows(np.array([0.0, 1.0, math.inf]), EnergyFormat(8, 4),
                                        temperature)
    assert raw.tolist() == [0, word, 255]


@pytest.mark.parametrize("temperature,energy", [(1.0, 1.0), (1e-3, 1000.0),
                                                (1e-310, 2.0 ** 1000)])
def test_a_finite_energy_stays_possible_at_any_temperature_on_the_float_path(temperature,
                                                                             energy):
    # energy / T overflows at 1e-310; the finite energy still stays below
    # +inf, the float path's mark of a zero weight, and the overflow warns
    # nothing
    table = transition._EnergyTable(None)
    table.add("block", lambda: np.array([0.0, 1.0, math.inf]))
    table.set_temperature(temperature)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = table.raw
    assert raw.tolist() == [0.0, energy, math.inf]


def energies(kernel, snapshot) -> list:
    if isinstance(kernel, transition.GibbsKernel):
        return kernel.conditional_energies(snapshot)
    return kernel.tabulate(snapshot)


@pytest.mark.parametrize("kernel", ["gibbs", "mh"])
def test_one_kernels_temperature_moves_every_kernel_of_its_assembly(kernel):
    graph = GRAPHS["icu_monitor"]()
    asm = compile_graph(graph, kernel=kernel, seed=3)
    reference = compile_graph(graph, kernel=kernel, seed=3)
    assert len({id(c.kernel.table) for c in asm.circuits.values()}) == 1
    stream = EntropyStream(9)
    snapshots = [[stream.next_below(c.arity) for c in asm.circuits.values()]
                 for _ in range(20)]
    at_one = [[energies(c.kernel, s) for c in asm.circuits.values()] for s in snapshots]
    asm.circuits[asm.names[0]].kernel.set_temperature(0.4)
    reference.set_temperature(0.4)
    moved = [[energies(c.kernel, s) for c in asm.circuits.values()] for s in snapshots]
    assert moved == [[energies(c.kernel, s) for c in reference.circuits.values()]
                     for s in snapshots]
    # every kernel moved, not only the one whose temperature was set
    for name, i in asm.index.items():
        assert any(m[i] != one[i] for m, one in zip(moved, at_one)), name
    assert run(asm, 5).rows == run(reference, 5).rows


def test_a_kernel_built_on_a_shared_table_keeps_its_temperature():
    graph = GRAPHS["icu_monitor"]()
    asm = compile_graph(graph, seed=3)
    asm.set_temperature(0.4)
    name = asm.names[0]
    table = asm.circuits[name].kernel.table
    transition.GibbsKernel(name, graph.arity[name], graph.factors_touching(name), table.fmt,
                           table=table)
    transition.MhKernel(name, graph.arity[name], graph.factors_touching(name), table.fmt,
                        table=table)
    assert table.temperature == 0.4
