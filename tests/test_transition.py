import math

import numpy as np
import pytest

from oracles import FixedUnitStream, conditional_by_enumeration, fork_graph
from stochcirc.compiler import compile as compile_graph, fault_kl_report
from stochcirc.entropy import EntropyStream
from stochcirc.errors import ConfigError, DomainError, NoSupportError, ScheduleViolationError
from stochcirc.factorgraph import Factor, FactorGraph, Variable, enumerate_joint
from stochcirc.lowprec import (
    DEFAULT_FORMAT,
    GIBBS_WEIGHT_BITS,
    MULTIPLIER_BITS,
    EnergyFormat,
    float_weights,
    invert_cdf,
    total_variation,
)
from stochcirc.transition import (
    FaultModel,
    GibbsKernel,
    MhKernel,
    TransitionAssembly,
    TransitionCircuit,
    run,
    validate_schedule,
)


def make_assembly(graph, fmt=DEFAULT_FORMAT, seed=0, serial=False, clamped=None):
    return compile_graph(graph, fmt=fmt, seed=seed,
                         schedule="serial" if serial else "parallel") \
        if clamped is None else _clamped(graph, fmt, seed, clamped)


def _clamped(graph, fmt, seed, clamped):
    asm = compile_graph(graph, fmt=fmt, seed=seed)
    for k, v in clamped.items():
        asm.clamp(k, v)
    return asm


def test_unary_gibbs_kernel_reproduces_factor():
    f = Factor("u", ["X"], [0.25, 0.75], [2])
    kernel = GibbsKernel("X", 2, [f], DEFAULT_FORMAT)
    s = EntropyStream(1)
    n = 100_000
    ones = sum(kernel.step(0, {}, s) for _ in range(n))
    assert abs(ones / n - 0.75) < 0.01


def test_fork_model_full_conditional_matches_bayes_rule():
    # conditional of the root given both effects, vs enumeration over 8 states;
    # high-precision mode isolates kernel logic from quantization loss
    graph = fork_graph()
    kernel = GibbsKernel("A", 2, graph.factors_touching("A"), None)
    s = EntropyStream(2)
    for b, c in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        expected = conditional_by_enumeration(graph, "A", {"B": b, "C": c})
        n = 100_000
        counts = np.zeros(2)
        snapshot = {"B": b, "C": c}
        for _ in range(n):
            counts[kernel.step(0, snapshot, s)] += 1
        assert total_variation(counts / n, expected) < 0.01


def test_fork_model_conditional_fixed_point_within_budget():
    # same check at the (8,4) default: quantization bias stays within TV 0.02
    graph = fork_graph()
    kernel = GibbsKernel("A", 2, graph.factors_touching("A"), DEFAULT_FORMAT)
    s = EntropyStream(2)
    for b, c in [(0, 0), (1, 1)]:
        expected = conditional_by_enumeration(graph, "A", {"B": b, "C": c})
        n = 100_000
        counts = np.zeros(2)
        for _ in range(n):
            counts[kernel.step(0, {"B": b, "C": c}, s)] += 1
        assert total_variation(counts / n, expected) < 0.02


def test_ising_pair_kernel_prefers_agreement():
    # 2-state agreement coupling: conditional must favor the neighbor's value
    couple = Factor("c", ["X", "Y"], [3.0, 1.0, 1.0, 3.0], [2, 2])
    kernel = GibbsKernel("X", 2, [couple], DEFAULT_FORMAT)
    s = EntropyStream(3)
    n = 50_000
    agree = sum(kernel.step(0, {"Y": 1}, s) for _ in range(n)) / n
    assert abs(agree - 0.75) < 0.01  # hand enumeration: 3/(3+1)


def test_zero_support_conditional_reports_variable():
    dead = Factor("d", ["X"], [0.0, 1.0], [2])
    pin = Factor("p", ["X"], [1.0, 0.0], [2])
    kernel = GibbsKernel("X", 2, [dead, pin], DEFAULT_FORMAT)
    with pytest.raises(NoSupportError) as err:
        kernel.step(0, {}, EntropyStream(0))
    assert err.value.variable == "X"


@pytest.mark.parametrize("bits,frac", [(32, 0), (16, 0), (12, 0)])
def test_gibbs_kernel_refuses_weights_past_the_bound(bits, frac):
    fmt = EnergyFormat(bits, frac)
    f = Factor("u", ["X"], [0.25, 0.75], [2])
    with pytest.raises(ConfigError, match=f"wider than {GIBBS_WEIGHT_BITS} bits"):
        GibbsKernel("X", 2, [f], fmt)
    with pytest.raises(ConfigError):
        compile_graph(fork_graph(), fmt=fmt)
    # MH compares energies and never builds the weights
    assert compile_graph(fork_graph(), kernel="mh", fmt=fmt).meta["format"] == [bits, frac]


@pytest.mark.parametrize("bits,frac", [(4, 0), (8, 4), (10, 5), (16, 8), (10, 0), (12, 2),
                                       (12, 1)])
def test_gibbs_kernel_admits_formats_up_to_the_bound(bits, frac):
    fmt = EnergyFormat(bits, frac)
    assert (fmt.max_raw >> frac) + MULTIPLIER_BITS <= GIBBS_WEIGHT_BITS
    f = Factor("u", ["X"], [0.25, 0.75], [2])
    assert GibbsKernel("X", 2, [f], fmt).step(0, {}, EntropyStream(6)) in (0, 1)


def test_mh_uniform_target_always_accepts():
    flat = Factor("u", ["X"], [1.0, 1.0, 1.0, 1.0], [4])
    kernel = MhKernel("X", 4, [flat], DEFAULT_FORMAT)
    s = EntropyStream(4)
    current = 0
    moves = 0
    proposals = 0
    for _ in range(5000):
        nxt = kernel.step(current, {}, s)
        if nxt != current:
            moves += 1
        proposals += 1
        current = nxt
    # uniform proposal hits the current state 1/4 of the time; everything else accepted
    assert moves / proposals > 0.70


def test_mh_two_state_stationary_distribution():
    # target (0.25, 0.75); TV < 0.01 over 1e6 steps
    target = Factor("t", ["X"], [0.25, 0.75], [2])
    kernel = MhKernel("X", 2, [target], DEFAULT_FORMAT)
    s = EntropyStream(5)
    counts = np.zeros(2)
    x = 0
    for _ in range(10**6):
        x = kernel.step(x, {}, s)
        counts[x] += 1
    assert total_variation(counts / counts.sum(), [0.25, 0.75]) < 0.01


def test_mh_agrees_with_gibbs_on_fork_model():
    graph = fork_graph()
    joint = enumerate_joint(graph)
    asm = compile_graph(graph, kernel="mh", seed=11)
    trace = run(asm, 200_000)
    emp = trace.empirical_joint([2, 2, 2])
    assert total_variation(emp.reshape(-1), joint.reshape(-1)) < 0.02


def test_run_unclamped_matches_enumeration():
    graph = fork_graph()
    joint = enumerate_joint(graph)
    trace = run(compile_graph(graph, seed=7), 100_000)
    emp = trace.empirical_joint([2, 2, 2])
    assert total_variation(emp.reshape(-1), joint.reshape(-1)) < 0.02


def test_run_clamped_matches_conditional():
    graph = fork_graph({"C": 1})
    joint = enumerate_joint(graph)
    trace = run(compile_graph(graph, seed=8), 100_000)
    emp = trace.empirical_joint([2, 2, 2])
    assert total_variation(emp.reshape(-1), joint.reshape(-1)) < 0.02
    assert all(row[2] == 1 for row in trace.rows)  # clamped var never moves


def test_serial_and_parallel_schedules_agree():
    graph = fork_graph()
    par = run(compile_graph(graph, seed=9, schedule="parallel"), 100_000)
    ser = run(compile_graph(graph, seed=10, schedule="serial"), 100_000)
    tv = total_variation(par.empirical_joint([2, 2, 2]).reshape(-1),
                         ser.empirical_joint([2, 2, 2]).reshape(-1))
    assert tv < 0.02


def test_random_scan_schedule_matches_enumeration():
    # mixture kernel: uniformly drawn singleton updates, same target law
    graph = fork_graph()
    joint = enumerate_joint(graph)
    trace = run(compile_graph(graph, seed=12, schedule="random-scan"), 100_000)
    emp = trace.empirical_joint([2, 2, 2])
    assert total_variation(emp.reshape(-1), joint.reshape(-1)) < 0.02
    again = run(compile_graph(graph, seed=12, schedule="random-scan"), 1000)
    first = run(compile_graph(graph, seed=12, schedule="random-scan"), 1000)
    assert again.rows == first.rows


def test_every_clamping_pattern_matches_enumeration():
    # all 2^3 clamping subsets of the three-variable model
    graph = fork_graph()
    patterns = [{}, {"A": 0}, {"B": 1}, {"C": 0}, {"A": 1, "B": 0},
                {"A": 0, "C": 1}, {"B": 1, "C": 1}, {"A": 1, "B": 0, "C": 1}]
    for pattern in patterns:
        cond = enumerate_joint(graph, evidence=pattern)
        asm = compile_graph(graph, seed=13)
        for k, v in pattern.items():
            asm.clamp(k, v)
        trace = run(asm, 40_000)
        emp = trace.empirical_joint([2, 2, 2])
        assert total_variation(emp.reshape(-1), cond.reshape(-1)) < 0.02


def test_fixed_seed_reproduces_trace():
    graph = fork_graph()
    t1 = run(compile_graph(graph, seed=21), 2000)
    t2 = run(compile_graph(graph, seed=21), 2000)
    assert t1.rows == t2.rows


def test_validate_serial_schedule_always_ok():
    asm = compile_graph(fork_graph(), schedule="serial")
    assert validate_schedule(asm) == []


def test_validate_fork_parallel_schedule():
    # B and C do not interact, so {B, C} in one group is valid
    asm = compile_graph(fork_graph())
    assert validate_schedule(asm) == []
    assert [sorted(g) for g in asm.schedule] == [["A"], ["B", "C"]]


def test_triangle_single_group_three_violations():
    variables = [Variable(n, 2) for n in "XYZ"]
    pair = [1.0, 2.0, 2.0, 1.0]
    factors = [Factor("xy", ["X", "Y"], pair, [2, 2]),
               Factor("yz", ["Y", "Z"], pair, [2, 2]),
               Factor("xz", ["X", "Z"], pair, [2, 2])]
    graph = FactorGraph(variables, factors)
    asm = compile_graph(graph)
    asm.schedule = [["X", "Y", "Z"]]
    asm._validated = False
    assert len(validate_schedule(asm)) == 3
    with pytest.raises(ScheduleViolationError):
        run(asm, 10)


def test_validate_schedule_matches_pairwise_probe_order():
    # the index-based check returns what probing every same-group pair in
    # order returns, including names repeated within and across groups
    rng = np.random.default_rng(7)
    names = [f"v{i}" for i in range(12)]
    for _ in range(50):
        asm = compile_graph(fork_graph())
        asm.edges = {tuple(sorted(rng.choice(names, 2, replace=False)))
                     for _ in range(15)}
        asm.edges.add(("v3", "v3"))
        asm.schedule = [list(rng.choice(names, int(rng.integers(1, 7))))
                        for _ in range(4)]
        expected = [(a, b, gi) for gi, group in enumerate(asm.schedule)
                    for i, a in enumerate(group) for b in group[i + 1:]
                    if tuple(sorted((a, b))) in asm.edges]
        assert validate_schedule(asm) == expected


def test_fault_rate_zero_is_bit_identical():
    graph = fork_graph()
    base = run(compile_graph(graph, seed=30), 5000)
    with_model = run(compile_graph(graph, seed=30), 5000, fault=FaultModel(0.0))
    assert base.rows == with_model.rows


def test_fault_injection_changes_trace_and_stays_in_domain():
    variables = [Variable("X", 3)]
    graph = FactorGraph(variables, [Factor("u", ["X"], [1.0, 1.0, 1.0], [3])])
    clean = run(compile_graph(graph, seed=31), 4000)
    faulty = run(compile_graph(graph, seed=31), 4000, fault=FaultModel(0.05))
    assert clean.rows != faulty.rows
    assert all(0 <= row[0] < 3 for row in faulty.rows)


def test_fault_report_curve():
    rows = fault_kl_report(fork_graph(), rates=(0.0, 1e-4, 1e-3, 1e-2),
                           sweeps=20_000, seed=33)
    rates = [r for r, _ in rows]
    assert rates == [0.0, 1e-4, 1e-3, 1e-2]
    kls = [kl for _, kl in rows]
    assert all(np.isfinite(kls))
    # the rate-0 row is computed from the same trace as a no-fault run
    asm = compile_graph(fork_graph(), seed=33)
    baseline = run(asm, 20_000)
    asm0 = compile_graph(fork_graph(), seed=33)
    zero = run(asm0, 20_000, fault=None)
    assert baseline.rows == zero.rows


def test_reclamping_without_recompilation():
    graph = fork_graph()
    asm = compile_graph(graph, seed=40)
    asm.clamp("C", 1)
    t1 = run(asm, 40_000)
    cond = enumerate_joint(graph, evidence={"C": 1})
    assert total_variation(t1.empirical_joint([2, 2, 2]).reshape(-1),
                           cond.reshape(-1)) < 0.02
    asm.unclamp("C")
    asm.clamp("B", 0)
    t2 = run(asm, 40_000)
    cond2 = enumerate_joint(graph, evidence={"B": 0})
    assert total_variation(t2.empirical_joint([2, 2, 2]).reshape(-1),
                           cond2.reshape(-1)) < 0.02


def test_isolated_variable_assembly():
    # a single unary circuit run directly, without the compiler
    f = Factor("u", ["X"], [1.0, 3.0], [2])
    kernel = GibbsKernel("X", 2, [f], DEFAULT_FORMAT)
    circ = TransitionCircuit("X", 2, kernel, EntropyStream(50))
    asm = TransitionAssembly([circ], set(), [["X"]])
    trace = run(asm, 50_000)
    assert abs(np.mean(trace.column("X")) - 0.75) < 0.01


def test_trace_csv_format():
    trace = run(compile_graph(fork_graph(), seed=41), 5, burn_in=0)
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "A,B,C"
    assert len(lines) == 6


@pytest.mark.parametrize("kernel", ["gibbs", "mh"])
@pytest.mark.parametrize("temperature", [0.0, -1.5])
def test_set_temperature_rejects_nonpositive(kernel, temperature):
    asm = compile_graph(fork_graph(), kernel=kernel, seed=23)
    with pytest.raises(ConfigError):
        asm.set_temperature(temperature)


@pytest.mark.parametrize("state", [{"B": 5}, {"C": -1}, {"Z": 0}],
                         ids=["above-domain", "negative", "unknown-name"])
def test_initial_state_is_checked_against_the_domains(state):
    asm = compile_graph(fork_graph(), seed=42)
    with pytest.raises(DomainError):
        TransitionAssembly(list(asm.circuits.values()), asm.edges, asm.schedule,
                           state=state)


def _zam_assembly(**kwargs):
    """A chain Z - A - M compiled, then rebuilt as an assembly with kwargs."""
    graph = FactorGraph([Variable(n, 3) for n in ("Z", "A", "M")],
                        [Factor("za", ["Z", "A"], np.arange(1.0, 10.0).reshape(3, 3), [3, 3]),
                         Factor("am", ["A", "M"], np.ones((3, 3)), [3, 3])])
    asm = compile_graph(graph, seed=44)
    return TransitionAssembly(list(asm.circuits.values()), asm.edges, asm.schedule,
                              meta=asm.meta, **kwargs)


def test_registers_are_one_vector_in_sorted_name_order():
    asm = _zam_assembly(state={"Z": 2, "M": 1})
    assert asm.names == sorted(asm.names) == ["A", "M", "Z"]
    assert asm.values.dtype == np.int64
    assert dict(asm.state) == {"A": 0, "M": 1, "Z": 2}
    trace = run(asm, 4, burn_in=0)
    assert trace.var_names == asm.names
    assert trace.rows[-1] == tuple(asm.values.tolist())
    for name in asm.names:
        assert asm.values[asm.index[name]] == asm.state[name]
    # kernels read their neighbors by register index
    assert asm.circuits["A"].kernel.parts[0].keys in ((asm.index["Z"],), (asm.index["M"],))


def test_state_is_read_only():
    asm = _zam_assembly()
    with pytest.raises(TypeError):
        asm.state["A"] = 1
    assert asm.state["A"] == 0


def test_clamp_writes_the_register_before_the_next_run():
    asm = _zam_assembly()
    asm.clamp("M", 2)
    assert asm.values[asm.index["M"]] == 2
    assert run(asm, 5, burn_in=0).column("M") == [2] * 5
    asm.unclamp("M")
    asm.clamp("Z", 1)
    assert asm.values[asm.index["Z"]] == 1
    assert run(asm, 5, burn_in=0).column("Z") == [1] * 5


def test_a_kernel_serves_one_register_layout():
    asm = _zam_assembly()
    unary = GibbsKernel("B", 2, [Factor("u", ["B"], [1.0, 2.0], [2])], DEFAULT_FORMAT)
    circuits = list(asm.circuits.values()) + [TransitionCircuit("B", 2, unary, EntropyStream(3))]
    # "B" sorts between "A" and "M", so A's neighbors would move to other registers
    with pytest.raises(ConfigError, match="kernel bound to other registers"):
        TransitionAssembly(circuits, asm.edges, asm.schedule + [["B"]])
    assert run(asm, 3, burn_in=0).rows == run(_zam_assembly(), 3, burn_in=0).rows


@pytest.mark.parametrize("value", [1.5, 1.0, "1", None],
                         ids=["fraction", "integral-float", "string", "none"])
def test_register_values_must_be_integers(value):
    with pytest.raises(DomainError):
        _zam_assembly(state={"A": value})
    with pytest.raises(DomainError):
        _zam_assembly().clamp("A", value)


def test_mh_explicit_proposal_never_proposes_past_the_domain():
    # ten normalized 0.1 entries sum to 1 - 2^-53, the largest unit draw
    flat = Factor("u", ["X"], [1.0] * 10, [10])
    kernel = MhKernel("X", 10, [flat], DEFAULT_FORMAT, proposal=np.ones((10, 10)))
    assert kernel.step(0, {"X": 0}, FixedUnitStream(1.0 - 2.0 ** -53)) == 9


def test_mh_explicit_proposal_draw_matches_bisection_below_the_row_sum():
    proposal = np.array([[2.0, 1.0, 3.0], [1.0, 5.0, 1.0], [3.0, 1.0, 2.0]])
    flat = Factor("u", ["X"], [1.0] * 3, [3])
    kernel = MhKernel("X", 3, [flat], DEFAULT_FORMAT, proposal=proposal)
    cdf = np.cumsum(proposal / proposal.sum(axis=1, keepdims=True), axis=1)
    stream = EntropyStream(5)
    for _ in range(2000):
        current = stream.next_below(3)
        u = stream.next_unit()
        expected = int(np.searchsorted(cdf[current], u, side="right"))
        assert kernel.step(current, {"X": current}, FixedUnitStream(u)) == expected


@pytest.mark.parametrize("kernel_cls", [GibbsKernel, MhKernel])
def test_kernels_check_arity_at_construction(kernel_cls):
    two_valued = Factor("u", ["X"], [1.0, 2.0], [2])
    with pytest.raises(ConfigError, match="arity mismatch"):
        kernel_cls("X", 3, [two_valued], DEFAULT_FORMAT)
    with pytest.raises(ConfigError, match="arity 0"):
        kernel_cls("X", 0, [], DEFAULT_FORMAT)


def test_float_gibbs_totals_the_weights_left_to_right():
    # left to right 1 + 2^-53 + 2^-53 rounds to 1 twice, the exact sum is
    # 1 + 2^-52; scaled by the largest unit draw, that exact total would
    # run past the running sum and fall through to the zero-weight value 3
    table = [1.0, 2.0 ** -53, 2.0 ** -53, 0.0]
    kernel = GibbsKernel("X", 4, [Factor("u", ["X"], table, [4])], None)
    weights = float_weights(kernel.conditional_energies({}))
    assert weights == table
    assert math.fsum(weights) > weights[0] + weights[1] + weights[2] + weights[3]
    u = 1.0 - 2.0 ** -53
    assert invert_cdf(weights, u * math.fsum(weights)) == 3
    assert kernel.step(0, {"X": 0}, FixedUnitStream(u)) == 0


def test_negative_burn_in_is_rejected():
    with pytest.raises(ConfigError, match="burn-in must be nonnegative"):
        run(make_assembly(fork_graph()), 10, burn_in=-5)


@pytest.mark.parametrize("rate", [-0.5, float("nan"), 1.5])
def test_fault_report_checks_every_nonzero_rate(rate):
    with pytest.raises(ConfigError, match="bit flip rate"):
        fault_kl_report(fork_graph(), rates=(0.0, rate), sweeps=10)
