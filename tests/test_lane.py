"""Differential tests: the lane kernel against the scalar reference path.

Every case runs the same assembly twice, once as `run` dispatches it and
once with the lane kernel switched off, and requires identical trace rows,
registers, and per-circuit stream words and draw counts.
"""

import numpy as np
import pytest

from stochcirc import fixture_text, transition
from stochcirc.compiler import compile as compile_graph
from stochcirc.entropy import EntropyStream
from stochcirc.errors import NoSupportError
from stochcirc.factorgraph import Factor, FactorGraph, Variable, parse
from stochcirc.lowprec import EnergyFormat
from stochcirc.mrf import LatticeMRF, evidence_from_images, random_dot_stereogram
from stochcirc.spiking import simulate_spiking_assembly
from stochcirc.transition import FaultModel, LANE_MIN_WIDTH, run

FORMATS = [EnergyFormat(6, 2), EnergyFormat(8, 4), EnergyFormat(10, 5)]


def lattice_graph(size=12, d=5, seed=3):
    pair, _ = random_dot_stereogram(size, size, 2, seed=seed)
    evidence = evidence_from_images(pair, d)
    return LatticeMRF(size, size, d, evidence, lam=1.5).to_factor_graph()


def mixed_arity_graph(n=24, seed=5):
    """Two wide color classes of arities 2..5 joined by pair and triple
    factors; some unary zeros exercise the sentinel, and weights down to
    1e-9 exercise the clamp to the largest finite energy."""
    rng = np.random.default_rng(seed)
    arity = {}
    for i in range(n):
        arity[f"a{i:02d}"] = 2 + i % 4
        arity[f"b{i:02d}"] = 2 + (i + 1) % 4
    variables = [Variable(name, k) for name, k in arity.items()]
    factors = []

    def table(names):
        shape = [arity[v] for v in names]
        return np.exp(rng.uniform(-20.0, 0.0, size=shape)), shape

    for i in range(n):
        a, b, b_next = f"a{i:02d}", f"b{i:02d}", f"b{(i + 1) % n:02d}"
        t, shape = table([a, b])
        factors.append(Factor(f"ab{i}", [a, b], t, shape))
        t, shape = table([a, b_next])
        factors.append(Factor(f"an{i}", [b_next, a], np.moveaxis(t, 0, 1), shape[::-1]))
        if i % 3 == 0:
            names = [f"b{(i + 5) % n:02d}", a, b]
            t, shape = table(names)
            factors.append(Factor(f"tri{i}", names, t, shape))
        unary = rng.uniform(0.1, 1.0, size=arity[a])
        unary[0] = 0.0 if i % 2 else unary[0]
        factors.append(Factor(f"u{i}", [a], unary, [arity[a]]))
    return FactorGraph(variables, factors)


def snapshot(assembly):
    streams = {n: (c.stream.state, c.stream.draws_consumed)
               for n, c in assembly.circuits.items()}
    return dict(assembly.state), streams


def both_paths(make_assembly, script, monkeypatch):
    """script(assembly) -> result on a lane run and a scalar run, plus the
    final assembly snapshots; asserts they agree and returns lane counts."""
    calls = {"lanes": 0}
    step = transition._LaneGroup.step

    def counting(self, *args):
        calls["lanes"] += 1
        return step(self, *args)

    with monkeypatch.context() as m:
        m.setattr(transition._LaneGroup, "step", counting)
        lane_asm = make_assembly()
        lane_out = script(lane_asm)
    with monkeypatch.context() as m:
        m.setattr(transition, "_bind_lanes", lambda assembly: {})
        scalar_asm = make_assembly()
        scalar_out = script(scalar_asm)
    assert lane_out == scalar_out
    assert snapshot(lane_asm) == snapshot(scalar_asm)
    return calls["lanes"]


def rows_of(*runs):
    def script(assembly):
        out = []
        for temperature, sweeps, burn_in in runs:
            assembly.set_temperature(temperature)
            out.append(run(assembly, sweeps, burn_in=burn_in).rows)
        return out
    return script


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f"{f.bits},{f.frac}")
def test_lattice_lanes_match_scalar_at_two_temperatures(fmt, monkeypatch):
    graph = lattice_graph()
    used = both_paths(lambda: compile_graph(graph, fmt=fmt, seed=11),
                      rows_of((1.7, 4, 2), (0.3, 3, 0)), monkeypatch)
    assert used == 2 * (6 + 3)


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f"{f.bits},{f.frac}")
def test_mixed_arity_lanes_match_scalar(fmt, monkeypatch):
    graph = mixed_arity_graph()
    used = both_paths(lambda: compile_graph(graph, fmt=fmt, seed=12),
                      rows_of((1.0, 6, 3), (0.45, 4, 1)), monkeypatch)
    assert used > 0


@pytest.mark.parametrize("with_factor", [False, True], ids=["no factors", "one arity-2 factor"])
def test_factorless_lanes_wider_than_every_block(with_factor, monkeypatch):
    # Sixteen arity-3 variables that touch no factor read only padding, so
    # the zeros they read must be as wide as the widest arity in the group,
    # not as wide as the widest block in the table.
    variables = [Variable(f"x{i:02d}", 3) for i in range(LANE_MIN_WIDTH)]
    factors = []
    if with_factor:
        variables.append(Variable("y", 2))
        factors.append(Factor("uy", ["y"], np.array([0.25, 1.0]), [2]))
    graph = FactorGraph(variables, factors)
    used = both_paths(lambda: compile_graph(graph, fmt=FORMATS[1], seed=16),
                      rows_of((1.0, 5, 0)), monkeypatch)
    assert used == 5


def test_lanes_on_a_table_that_grew_after_an_earlier_lowering(monkeypatch):
    # The second assembly's kernels add their arity-2 block to the first
    # one's table after the zeros its lowering added; the second lowering
    # reads 3 candidates from that block's rows, so its zeros must follow it.
    def make_assembly():
        graph = FactorGraph([Variable(f"x{i:02d}", 3) for i in range(LANE_MIN_WIDTH)], [])
        first = compile_graph(graph, fmt=FORMATS[1], seed=17)
        run(first, 1, burn_in=0)
        table = first.circuits["x00"].kernel.table
        kernels = [transition.GibbsKernel("z", 3, [], table.fmt, table=table)] + [
            transition.GibbsKernel(f"y{i:02d}", 2,
                                   [Factor(f"u{i}", [f"y{i:02d}"], [0.25, 1.0], [2])],
                                   table.fmt, table=table)
            for i in range(LANE_MIN_WIDTH)]
        master = EntropyStream(18)
        circuits = [transition.TransitionCircuit(k, master.fork(i))
                    for i, k in enumerate(kernels)]
        return transition.TransitionAssembly(circuits, [[c.var for c in circuits]])

    assert both_paths(make_assembly, rows_of((1.0, 4, 0)), monkeypatch) == 1 + 4


def test_clamps_changing_between_runs(monkeypatch):
    graph = lattice_graph(size=10, d=4)
    names = sorted(graph.var_names)

    def script(assembly):
        # the third pattern leaves 15 live circuits in the first class, so
        # that class falls back to the scalar path while the other stays
        # on lanes
        patterns = (names[:5], names[40:43], assembly.schedule[0][:35], [])
        out = []
        for clamp in patterns:
            for name in list(assembly.clamped):
                assembly.unclamp(name)
            for k, name in enumerate(clamp):
                assembly.clamp(name, k % 4)
            out.append(run(assembly, 3, burn_in=1).rows)
        return out

    used = both_paths(lambda: compile_graph(graph, seed=13), script, monkeypatch)
    assert used == 2 * 4 + 2 * 4 + 1 * 4 + 2 * 4


def test_all_saturated_conditional_raises_like_scalar(monkeypatch):
    n = 2 * LANE_MIN_WIDTH + 4
    names = [f"v{i:02d}" for i in range(n)]
    variables = [Variable(name, 2) for name in names]
    factors = [Factor(f"c{i}", [names[i], names[i + 1]], [2.0, 1.0, 1.0, 2.0], [2, 2])
               for i in range(n - 1)]
    # v20 = 1 forbids every value of v21
    factors.append(Factor("dead", ["v20", "v21"], [1.0, 1.0, 0.0, 0.0], [2, 2]))
    graph = FactorGraph(variables, factors)

    def script(assembly):
        assembly.clamp("v20", 1)
        with pytest.raises(NoSupportError) as err:
            run(assembly, 2, burn_in=0)
        return str(err.value), err.value.variable

    assert both_paths(lambda: compile_graph(graph, seed=14), script, monkeypatch) >= 1


def test_error_message_names_the_first_empty_lane(monkeypatch):
    graph = lattice_graph(size=8, d=3)
    asm = compile_graph(graph, seed=15)
    group = asm.schedule[0]
    for name in (group[3], group[9]):
        # a fresh all-inf block: the compiled one is shared with other sites
        kernel = asm.circuits[name].kernel
        part = kernel.parts[0]
        size = next(rows.size for at, _, rows in kernel.table.blocks.values()
                    if at == part.offset)
        part.offset = kernel.table.add(("all inf", name), np.full,
                                       (size // part.arity, part.arity), np.inf)[0]
    with pytest.raises(NoSupportError) as err:
        run(asm, 1, burn_in=0)
    assert err.value.variable == group[3]
    assert str(err.value) == f"variable {group[3]!r}: conditional has no support"


def never_lanes(monkeypatch):
    def fail(self, *args):
        raise AssertionError("lane kernel taken")
    monkeypatch.setattr(transition._LaneGroup, "step", fail)


@pytest.mark.parametrize("case", ["icu", "float", "mh", "fault", "random-scan", "16,8"])
def test_dispatch_keeps_these_on_the_scalar_path(case, monkeypatch):
    never_lanes(monkeypatch)
    graph = lattice_graph(size=8, d=3)
    kwargs, fault = {}, None
    if case == "icu":
        graph = parse(fixture_text("icu_monitor.json"))
    elif case == "float":
        kwargs["fmt"] = None
    elif case == "mh":
        kwargs["kernel"] = "mh"
    elif case == "fault":
        fault = FaultModel(0.01)
    elif case == "random-scan":
        kwargs["schedule"] = "random-scan"
    else:
        kwargs["fmt"] = EnergyFormat(16, 8)
    run(compile_graph(graph, seed=16, **kwargs), 2, burn_in=1, fault=fault)


def test_spiking_never_takes_lanes(monkeypatch):
    never_lanes(monkeypatch)
    simulate_spiking_assembly(compile_graph(lattice_graph(size=8, d=3), seed=17), 2,
                              burn_in=0, record_raster=False)


def test_fault_rate_zero_takes_lanes_and_matches_no_fault(monkeypatch):
    graph = lattice_graph(size=8, d=3)
    a = compile_graph(graph, seed=18)
    b = compile_graph(graph, seed=18)
    assert run(a, 3).rows == run(b, 3, fault=FaultModel(0.0)).rows
    assert snapshot(a) == snapshot(b)
    assert len(a._lanes) == 2


def test_lowering_is_built_once_per_assembly(monkeypatch):
    calls = []
    lower = transition._lower
    monkeypatch.setattr(transition, "_lower", lambda asm: calls.append(1) or lower(asm))
    asm = compile_graph(lattice_graph(size=8, d=3), seed=20)
    for temperature, clamp in ((1.0, None), (0.5, None), (0.5, "x_0_0")):
        if clamp:
            asm.clamp(clamp, 1)
        asm.set_temperature(temperature)
        run(asm, 1, burn_in=0)
    assert calls == [1]
    assert len(asm._lanes) == 2


def test_narrow_group_width_boundary():
    # 2 x 16 lattice: each checkerboard class holds exactly LANE_MIN_WIDTH
    variables = [Variable(f"x{i:02d}", 3) for i in range(2 * LANE_MIN_WIDTH)]
    factors = [Factor(f"c{i}", [f"x{i:02d}", f"x{i + 1:02d}"], np.ones((3, 3)), [3, 3])
               for i in range(2 * LANE_MIN_WIDTH - 1)]
    asm = compile_graph(FactorGraph(variables, factors), seed=19)
    assert [len(g) for g in asm.schedule] == [LANE_MIN_WIDTH] * 2
    assert len(transition._bind_lanes(asm)) == 2
    asm.clamp("x00", 0)
    assert len(transition._bind_lanes(asm)) == 1


def test_bit_length_is_exact_above_float_precision():
    edges = [2**j + delta for j in range(63) for delta in (-1, 0, 1)] + [2**63 - 1]
    randoms = np.random.default_rng(21).integers(0, 2**63 - 1, size=1000).tolist()
    values = np.array(edges + randoms, dtype=np.int64)
    assert transition._bit_length(values).tolist() == [int(v).bit_length()
                                                       for v in values.tolist()]


def lane_bounds():
    """Lane totals from 2^16, the least, to 2^62, the most: powers of two,
    which accept every attempt, one past them, which reject about half,
    and random totals near 2^50, the widest a (10,5) lane of 8 reaches."""
    powers = [2**k for k in range(16, 63)]
    above = [2**k + 1 for k in range(16, 62)]
    near = np.random.default_rng(22).integers(2**49, 2**51, size=200).tolist()
    return np.array(powers + above + near, dtype=np.int64)


@pytest.mark.parametrize("prefix", [None, 101], ids=["all lanes", "a prefix"])
def test_lane_below_is_next_below_on_every_lane(prefix):
    bounds = lane_bounds()
    n = bounds.size
    streams = [EntropyStream(23).fork(i) for i in range(n)]
    words = np.array([s.state for s in streams], np.uint64)
    draws = np.zeros(n, np.int64)
    untouched = words[prefix:].copy() if prefix else None
    live = bounds[:prefix]
    for _ in range(6):
        out = transition._lane_below(live, words, draws)
        assert out.tolist() == [s.next_below(int(b)) for s, b in zip(streams, live.tolist())]
        assert words[:live.size].tolist() == [s.state for s in streams[:live.size]]
        assert draws[:live.size].tolist() == [s.draws_consumed for s in streams[:live.size]]
    assert draws[:live.size].sum() > 6 * live.size   # some lanes were rejected
    if prefix:
        assert words[prefix:].tolist() == untouched.tolist()
        assert not draws[prefix:].any()
