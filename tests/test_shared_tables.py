"""Compile specializes each distinct (table, axis) once per assembly.

The shared row blocks must equal, bit for bit, what specializing every
factor-variable pair on its own gives.
"""

import math

import numpy as np
import pytest

from stochcirc import fixture_text, transition
from stochcirc.compiler import compile as compile_graph
from stochcirc.factorgraph import parse
from stochcirc.mrf import (
    ImagePair,
    LatticeMRF,
    evidence_from_images,
    random_dot_stereogram,
)
from test_lane import lattice_graph, mixed_arity_graph


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
            neighbors, energy, arity = transition._specialized_energy_table(factor, name)
            strides = tuple(math.prod(energy.shape[t + 1:])
                            for t in range(energy.ndim - 1))
            assert part.neighbors == neighbors
            assert part.arity == arity
            assert part.strides == strides
            assert same_bits(part.float_rows, energy.reshape(-1))


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
    block = first.circuits[a].kernel.parts[-1].float_rows
    assert block is first.circuits[b].kernel.parts[-1].float_rows
    assert block is not second.circuits[a].kernel.parts[-1].float_rows
    with pytest.raises(ValueError):
        block[0] = 0.0


def test_kernel_built_alone_specializes_its_own_tables():
    graph = lattice_graph(size=4, d=3)
    name = sorted(graph.var_names)[0]
    factors = graph.factors_touching(name)
    one = transition.GibbsKernel(name, 3, factors, None)
    two = transition.GibbsKernel(name, 3, factors, None)
    for p, q in zip(one.parts, two.parts):
        assert p.float_rows is not q.float_rows
        assert same_bits(p.float_rows, q.float_rows)
