"""Property tests, derandomized so every run draws the same examples and
writes no example database.

Hypothesis also caches the constants it reads from source files under its
home directory, ./.hypothesis by default, while pytest collects; the home
directory is set to a temporary one, removed at exit, as this module is
imported.
"""

import itertools
import json
import math
import tempfile
import traceback
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.extra.numpy import arrays

from oracles import (
    conditional_by_enumeration,
    dpmm_reference_chain,
    evidence_by_pixel,
    gibbs_energies_by_parts,
    joint_weights_by_enumeration,
    mh_energy_by_parts,
    recomputing_twin,
)
from stochcirc import dpmm, fixture_text
from stochcirc.cli import main
from stochcirc.compiler import compile as compile_graph
from stochcirc.entropy import EntropyStream
from stochcirc.errors import NoSupportError, StochcircError
from stochcirc.factorgraph import Factor, FactorGraph, Variable, parse
from stochcirc.lowprec import (
    MULTIPLIER_BITS,
    EnergyFormat,
    float_weights,
    integer_weights,
    weight_bits,
)
from stochcirc.mrf import (
    EVIDENCE_CAP,
    EVIDENCE_SCALE,
    ImagePair,
    evidence_from_images,
    motion_offsets,
    random_dot_stereogram,
)
from stochcirc.pgm import write_pgm
from stochcirc.spiking import simulate_spiking_assembly
from stochcirc.transition import LANE_MIN_WIDTH, GibbsKernel, TransitionAssembly, run
from test_lane import both_paths

HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(HYPOTHESIS_HOME.name)

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None,
                         max_examples=150)
FORMATS = [None, EnergyFormat(8, 4), EnergyFormat(6, 2), EnergyFormat(10, 5),
           EnergyFormat(16, 8), EnergyFormat(4, 0)]


@st.composite
def image_pairs(draw):
    shape = (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    pixels = arrays(np.uint8, shape, elements=st.sampled_from([0, 1, 40, 128, 200, 255]))
    return ImagePair(draw(pixels), draw(pixels))


@DETERMINISTIC
@given(pair=image_pairs(), data=st.data())
def test_stereo_evidence_is_the_per_pixel_oracle(pair, data):
    # stereo candidate k pairs site (i, j) with (i, j - k) of the second image
    d = data.draw(st.integers(1, pair.first.shape[1]))
    expected = evidence_by_pixel(pair.first, pair.second, [(0, -k) for k in range(d)],
                                 EVIDENCE_CAP, EVIDENCE_SCALE)
    assert evidence_from_images(pair, d, "stereo").tobytes() == expected.tobytes()


@DETERMINISTIC
@given(pair=image_pairs(), d=st.integers(1, 13))
def test_motion_evidence_is_the_per_pixel_oracle(pair, d):
    expected = evidence_by_pixel(pair.first, pair.second, motion_offsets(d),
                                 EVIDENCE_CAP, EVIDENCE_SCALE)
    assert evidence_from_images(pair, d, "motion").tobytes() == expected.tobytes()


@DETERMINISTIC
@given(data=st.data())
def test_kernel_weights_are_the_conditionals_weights(data):
    """A variable X with a unary factor and up to two pairwise factors, each
    pairwise table holding X's axis first or second."""
    arity = data.draw(st.integers(1, 4))
    fmt = data.draw(st.sampled_from(FORMATS))
    entries = st.sampled_from([0.0, 1e-9, 0.05, 0.3, 1.0, 2.5])
    factors = [Factor("u", ["X"], data.draw(st.lists(entries, min_size=arity,
                                                     max_size=arity)), [arity])]
    snapshot = {}
    for i in range(data.draw(st.integers(0, 2))):
        other = data.draw(st.integers(1, 3))
        table = data.draw(st.lists(entries, min_size=arity * other,
                                   max_size=arity * other))
        if data.draw(st.booleans()):
            factors.append(Factor(f"f{i}", ["X", f"N{i}"], table, [arity, other]))
        else:
            factors.append(Factor(f"f{i}", [f"N{i}", "X"], table, [other, arity]))
        snapshot[f"N{i}"] = data.draw(st.integers(0, other - 1))
    if any(f.table.max() <= 0.0 for f in factors):
        return   # an all-zero table is rejected when the kernel is built
    kernel = GibbsKernel("X", arity, factors, fmt)
    kernel.set_temperature(data.draw(st.sampled_from([0.25, 1.0, 3.0])))
    energies = kernel.conditional_energies(snapshot)
    try:
        expected = (float_weights(energies) if fmt is None
                    else integer_weights(energies, fmt))
    except NoSupportError:
        with pytest.raises(NoSupportError) as err:
            kernel.weights(snapshot)
        assert err.value.variable == "X"
        assert str(err.value) == "variable 'X': conditional has no support"
        return
    got = kernel.weights(snapshot)
    assert got == expected
    assert [type(w) for w in got] == [type(w) for w in expected]
    # the spike race scales by the largest weight, the minimum-energy value's
    assert max(got) == (1.0 if fmt is None
                        else 1 << ((fmt.max_raw >> fmt.frac) + MULTIPLIER_BITS))


@pytest.mark.parametrize("fmt", [f for f in FORMATS if f is not None]
                         + [EnergyFormat(12, 1)], ids=str)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 16])
def test_weight_bits_bounds_the_total_of_k_weights(fmt, k):
    # no weight exceeds the minimum-energy value's, so k equal energies
    # weigh the most in total
    total = sum(integer_weights([0] * k, fmt))
    assert total <= 2 ** weight_bits(fmt, k)
    if k & (k - 1) == 0:
        assert total == 2 ** weight_bits(fmt, k)


@st.composite
def lane_cases(draw):
    """A graph of two or three classes of LANE_MIN_WIDTH + 4 to LANE_MIN_WIDTH + 8
    variables of arities 2 to 5, joined by pair factors between classes and,
    with three classes, triple factors across them, plus some unary
    factors; tables hold zeros at a drawn rate. Returns the graph, its
    classes (a chromatic schedule), a format, clamps and two temperatures."""
    n_classes = draw(st.integers(2, 3))
    widths = [draw(st.integers(LANE_MIN_WIDTH + 4, LANE_MIN_WIDTH + 8))
              for _ in range(n_classes)]
    classes = [[f"{'abc'[c]}{i:02d}" for i in range(w)] for c, w in enumerate(widths)]
    arity = {name: draw(st.integers(2, 5)) for group in classes for name in group}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.03, 0.15]))

    def pick(c):
        return classes[c][int(rng.integers(len(classes[c])))]

    scopes = [[pick(c)] for c in range(n_classes) for _ in range(3)]
    for _ in range(draw(st.integers(sum(widths), 2 * sum(widths)))):
        c, d = rng.choice(n_classes, size=2, replace=False)
        scopes.append([pick(c), pick(d)])
    if n_classes == 3:
        scopes += [[pick(c) for c in rng.permutation(3)]
                   for _ in range(draw(st.integers(1, max(widths))))]
    factors = []
    for i, scope in enumerate(scopes):
        shape = [arity[v] for v in scope]
        table = np.exp(rng.uniform(-12.0, 0.0, size=shape))
        table[rng.random(shape) < zeros] = 0.0
        table.flat[int(rng.integers(table.size))] = 1.0   # never an all-zero table
        factors.append(Factor(f"f{i}", scope, table, shape))
    graph = FactorGraph([Variable(n, k) for n, k in arity.items()], factors)
    clamped = draw(st.lists(st.sampled_from(sorted(arity)), max_size=4, unique=True))
    clamps = {n: draw(st.integers(0, arity[n] - 1)) for n in clamped}
    fmt = draw(st.sampled_from([EnergyFormat(6, 2), EnergyFormat(8, 4), EnergyFormat(10, 5)]))
    temperatures = [draw(st.sampled_from([0.3, 0.7, 1.0, 1.9])) for _ in range(2)]
    return graph, classes, fmt, clamps, temperatures


@settings(DETERMINISTIC, max_examples=60)
@given(case=lane_cases(), seed=st.integers(0, 2**16))
def test_compiled_lanes_match_the_scalar_path(case, seed):
    graph, classes, fmt, clamps, temperatures = case

    def make():
        compiled = compile_graph(graph, fmt=fmt, seed=seed)
        return TransitionAssembly(compiled.circuits.values(), classes,
                                  clamped=clamps)

    def script(assembly):
        out = []
        try:
            for temperature, (sweeps, burn_in) in zip(temperatures, [(3, 1), (2, 0)]):
                assembly.set_temperature(temperature)
                out.append(run(assembly, sweeps, burn_in=burn_in).rows)
        except NoSupportError as err:
            out.append((str(err), err.variable))
        return out

    # at most four clamps leave every class LANE_MIN_WIDTH live circuits, so
    # every group runs as lanes
    assert both_paths(make, script, pytest.MonkeyPatch()) > 0


@st.composite
def small_graphs(draw, max_vars=5):
    """Two to max_vars variables of arities 1 to 3 under one to six unary,
    pair or triple factors, where a factor may reuse an earlier table of its
    shape, plus up to two clamps."""
    arity = draw(st.lists(st.integers(1, 3), min_size=2, max_size=max_vars))
    names = [f"v{i}" for i in range(len(arity))]
    entries = st.sampled_from([0.0, 1e-9, 0.05, 0.3, 1.0, 2.5])
    drawn = {}   # shape -> its tables so far
    factors = []
    for i in range(draw(st.integers(1, 6))):
        scope = draw(st.lists(st.integers(0, len(arity) - 1), min_size=1, max_size=3,
                              unique=True))
        shape = tuple(arity[v] for v in scope)
        tables = drawn.setdefault(shape, [])
        if tables and draw(st.booleans()):
            table = draw(st.sampled_from(tables))
        else:
            size = int(np.prod(shape))
            table = draw(st.lists(entries, min_size=size, max_size=size))
            if max(table) <= 0.0:
                table[0] = 1.0   # an all-zero table is rejected when compiled
            tables.append(table)
        factors.append(Factor(f"f{i}", [names[v] for v in scope], table, shape))
    clamped = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
    clamps = {n: draw(st.integers(0, arity[names.index(n)] - 1)) for n in clamped}
    return FactorGraph([Variable(n, k) for n, k in zip(names, arity)], factors), clamps


@settings(DETERMINISTIC, max_examples=100)
@given(case=small_graphs(max_vars=4), kernel=st.sampled_from(["gibbs", "mh"]),
       fmt=st.sampled_from(FORMATS))
def test_kernel_conditionals_are_bayes_rule(case, kernel, fmt):
    """Every kernel's CPT row, at every configuration of the other variables,
    against Bayes' rule over the enumerated joint states of the factors
    touching its variable (the others are constant in it, so they cancel
    wherever the configuration has positive probability). Float Gibbs
    weights normalize to the conditional and float MH energy gaps are its
    log2 odds; in every format a value has zero weight or an impossible
    energy exactly where it has probability 0, and a Gibbs step on a
    conditional with no possible value raises NoSupportError naming it."""
    graph, _ = case
    asm = compile_graph(graph, kernel=kernel, fmt=fmt, seed=0)
    for i, var in enumerate(asm.names):
        kern = asm.circuits[var].kernel
        local = FactorGraph(graph.variables, graph.factors_touching(var))
        others = [range(asm.circuits[n].arity) if n != var else [0] for n in asm.names]
        for snapshot in product(*others):
            snapshot = list(snapshot)
            context = {n: v for n, v in zip(asm.names, snapshot) if n != var}
            probs = joint_weights_by_enumeration(local, var, context)
            zero = [p == 0.0 for p in probs]
            if kernel == "mh":
                energies = kern.tabulate(snapshot)
                assert [e is None or e == math.inf for e in energies] == zero
                if fmt is None:
                    for u, v in product(range(kern.arity), repeat=2):
                        if not (zero[u] or zero[v]):
                            assert math.isclose(2.0 ** (energies[v] - energies[u]),
                                                probs[u] / probs[v], rel_tol=1e-12)
            elif probs.sum() == 0.0:   # checked before the oracle divides by it
                with pytest.raises(NoSupportError) as err:
                    kern.step(snapshot[i], snapshot, EntropyStream(1))
                assert err.value.variable == var
            else:
                weights, total, _ = kern.tabulate(snapshot)
                assert [w == 0 for w in weights] == zero
                if fmt is None:
                    expected = conditional_by_enumeration(local, var, context)
                    assert np.allclose(np.divide(weights, total), expected,
                                       rtol=0.0, atol=1e-12)


@settings(DETERMINISTIC, max_examples=100)
@given(case=small_graphs(), kernel=st.sampled_from(["gibbs", "mh"]),
       fmt=st.sampled_from([EnergyFormat(6, 2), EnergyFormat(8, 4), EnergyFormat(16, 8), None]),
       temperatures=st.lists(st.sampled_from([0.3, 1.0, 1.7]), min_size=2, max_size=2),
       seed=st.integers(0, 2**16))
def test_one_table_matches_per_part_quantization(case, kernel, fmt, temperatures, seed):
    """Every kernel's energies equal the per-factor oracle's at each
    temperature, and runs with the oracle's energies in place of the
    table's give the same rows and final stream words."""
    graph, clamps = case
    assemblies = [compile_graph(graph, kernel=kernel, fmt=fmt, seed=seed) for _ in range(2)]
    asm, reference = assemblies
    for assembly in assemblies:
        for name, value in clamps.items():
            assembly.clamp(name, value)
    now = {"T": 1.0}

    def oracle(name, snapshot, value=None):
        by_name = dict(zip(asm.names, snapshot))
        factors, circ = graph.factors_touching(name), asm.circuits[name]
        if value is None:
            return gibbs_energies_by_parts(factors, name, circ.arity, by_name, fmt, now["T"])
        return mh_energy_by_parts(factors, name, value, by_name, fmt, now["T"])

    for name, circ in reference.circuits.items():
        if kernel == "gibbs":
            circ.kernel.conditional_energies = lambda snap, name=name: oracle(name, snap)
        else:
            circ.kernel.tabulate = lambda snap, name=name, arity=circ.arity: [
                oracle(name, snap, v) for v in range(arity)]
    stream = EntropyStream(seed)
    results = [[], []]
    for temperature in temperatures:
        now["T"] = temperature
        for assembly in assemblies:
            assembly.set_temperature(temperature)
        for name, circ in asm.circuits.items():
            for _ in range(3):
                snapshot = [stream.next_below(c.arity) for c in asm.circuits.values()]
                if kernel == "gibbs":
                    assert circ.kernel.conditional_energies(snapshot) == oracle(name, snapshot)
                else:
                    assert (circ.kernel.tabulate(snapshot)
                            == [oracle(name, snapshot, v) for v in range(circ.arity)])
        for assembly, out in zip(assemblies, results):
            try:
                out.append(run(assembly, 3, burn_in=1).rows)
            except NoSupportError as err:
                out.append((str(err), err.variable))
    assert results[0] == results[1]
    assert ([(c.stream.state, c.stream.draws_consumed) for c in asm.circuits.values()]
            == [(c.stream.state, c.stream.draws_consumed) for c in reference.circuits.values()])


@settings(DETERMINISTIC, max_examples=100)
@given(case=small_graphs(), realization=st.sampled_from(["gibbs", "mh", "spike"]),
       fmt=st.sampled_from([EnergyFormat(6, 2), EnergyFormat(8, 4), EnergyFormat(16, 8), None]),
       schedule=st.sampled_from(["parallel", "random-scan"]),
       temperatures=st.lists(st.sampled_from([0.3, 1.0, 1.7]), min_size=2, max_size=2),
       seed=st.integers(0, 2**16))
def test_cached_rows_draw_what_rows_computed_per_call_draw(case, realization, fmt, schedule,
                                                           temperatures, seed):
    """An assembly drawing from its cached conditional rows and its twin
    recomputing every row give the same trace rows, registers, rasters,
    no-support errors and final stream words and draw counts, across a
    temperature change between runs."""
    graph, clamps = case
    kernel = "mh" if realization == "mh" else "gibbs"
    cached, reference = (compile_graph(graph, kernel=kernel, fmt=fmt, schedule=schedule,
                                       seed=seed) for _ in range(2))
    recomputing_twin(reference)
    results = []
    for assembly in (cached, reference):
        for name, value in clamps.items():
            assembly.clamp(name, value)
        out = []
        for temperature in temperatures:
            assembly.set_temperature(temperature)
            try:
                if realization == "spike":
                    raster, trace = simulate_spiking_assembly(assembly, 4, burn_in=2)
                    out.append((trace.rows, raster.events, raster.transitions))
                else:
                    out.append(run(assembly, 4, burn_in=2).rows)
            except NoSupportError as err:
                out.append((str(err), err.variable))
            out.append(assembly.values.tolist())
        streams = [c.stream for c in assembly.circuits.values()] + [assembly.scan_stream]
        out.append([(s.state, s.draws_consumed) for s in streams if s is not None])
        results.append(out)
    assert results[0] == results[1]
    assert next(iter(reference.circuits.values())).kernel.table.cpt == {}


def _cached_and_reference_dpmm_chains(data, fmt, alpha, beta_on, beta_off, seed, sweeps=3):
    """Run gibbs_chain on the cached rows, recording the energies of every
    draw and auditing the state after every sweep, and the reference chain
    from per-cluster energies; both must agree draw for draw."""
    drawn = []
    energies = dpmm.assignment_energies

    def recorded(state, datum):
        out = energies(state, datum)
        drawn.append(out[0])
        return out

    state = dpmm.DpmmState(len(data[0]), alpha=alpha, beta_on=beta_on, beta_off=beta_off,
                           fmt=fmt)
    stream = EntropyStream(seed)
    partitions = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dpmm, "assignment_energies", recorded)
        for _ in dpmm.gibbs_chain(state, data, sweeps, 0, stream):
            state.audit()
            partitions.append(state.partition())
    ref_stream = EntropyStream(seed)
    ref_drawn, ref_assignments, ref_partitions = dpmm_reference_chain(
        data, sweeps, ref_stream, fmt, alpha, beta_on, beta_off)
    assert drawn == ref_drawn
    assert state.assignments == ref_assignments
    assert partitions == ref_partitions
    assert (stream.state, stream.draws_consumed) == (ref_stream.state,
                                                     ref_stream.draws_consumed)


PRIOR = st.floats(0.05, 12.0).filter(lambda v: v not in (0.5, 1.0))


@settings(DETERMINISTIC, max_examples=40)
@given(dim=st.sampled_from([0, 1, 5, 16, 130]), n=st.integers(2, 12),
       density=st.sampled_from([0.1, 0.5, 0.9]), alpha=PRIOR, beta_on=PRIOR,
       beta_off=PRIOR, fmt=st.sampled_from([(16, 8), (12, 4), (8, 4)]),
       seed=st.integers(0, 2**32))
def test_dpmm_cached_rows_match_the_per_cluster_energies(dim, n, density, alpha, beta_on,
                                                         beta_off, fmt, seed):
    data = np.random.default_rng(seed).random((n, dim)) < density
    _cached_and_reference_dpmm_chains(list(data.astype(np.int8)), EnergyFormat(*fmt),
                                      alpha, beta_on, beta_off, seed)


def test_dpmm_cached_rows_match_the_per_cluster_energies_at_784_pixels():
    rng = np.random.default_rng(784)
    protos = rng.random((2, 784)) < 0.3
    data = protos[rng.integers(0, 2, size=6)] ^ (rng.random((6, 784)) < 0.05)
    _cached_and_reference_dpmm_chains(list(data.astype(np.int8)), EnergyFormat(16, 8),
                                      alpha=0.7, beta_on=0.3, beta_off=1.9, seed=28)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)


def _json_paths(node, path=()):
    """The path of every value under node, as keys and indices from it."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


@settings(DETERMINISTIC, max_examples=300)
@given(name=st.sampled_from(["three_var_fork.json", "chain3.json", "icu_monitor.json"]),
       data=st.data())
def test_malformed_model_documents_raise_only_library_errors(name, data):
    """A bundled model with up to three fields dropped, retyped or nested
    parses or raises a StochcircError (or a JSONDecodeError), nothing else."""
    doc = json.loads(fixture_text(name))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_json_paths(doc))
        if not paths:
            break
        *head, last = data.draw(st.sampled_from(paths))
        parent = doc
        for key in head:
            parent = parent[key]
        action = data.draw(st.sampled_from(["drop", "retype", "nest"]))
        if action == "drop":
            del parent[last]
        elif action == "retype":
            parent[last] = data.draw(JSON_VALUES)
        else:
            parent[last] = data.draw(st.sampled_from([[parent[last]], {"x": parent[last]}]))
    try:
        parse(json.dumps(doc))
    except (StochcircError, json.JSONDecodeError):
        pass


#: Junk drawn now and then for any CLI option: mostly not a number of the
#: kind the option asks for.
CLI_JUNK = ("nan", "inf", "-inf", "", "x", "1x", "2,0.1")
_COUNT = ("0", "1", "2", "3", "-1")
_REAL = ("0.5", "1", "2", "0", "-1", "1e308")
_EVIDENCE = ("A=1", "C=0", "B=5", "Z=0", "A=x", "A", "=1")
_CHAIN = [("--evidence", _EVIDENCE, False), ("--sweeps", _COUNT, True),
          ("--burn-in", _COUNT, False)]
_MATCHING = [("-d", ("1", "2", "3", "8", "40", "0", "-1"), False), ("--sweeps", _COUNT, True),
             ("--lam", _REAL, False), ("--tau", _REAL, False),
             ("--anneal", ("off", "2,0.1", "2", "0,1", "2,1e-310", "nan,1"), False)]
#: Each subcommand but selftest: its path, its input files by their usual
#: file, and [(option, values, always given)]; values None is a flag, a
#: string an input file. Every size is small: sweeps up to 3, -d up to 40
#: on 8x8 images, --per-bin up to 3, --outcomes up to 5, -n up to 5.
CLI_COMMANDS = [
    (["gate", "sample"], [], [("--cpt", "cpt.json", True),
                              ("--input", ("0", "1", "2", "-1"), True),
                              ("-n", ("0", "1", "5", "-1"), True)]),
    (["precision-sweep"], [], [("--outcomes", ("0", "1", "2", "5", "-1"), True),
                               ("--per-bin", ("0", "1", "3", "-1"), True),
                               ("--bits", ("4", "4,6", "2", "17", "40"), False)]),
    (["fg", "validate"], ["model.json"], []),
    (["compile"], ["model.json"], [("--kernel", ("gibbs", "mh"), False),
                                   ("--evidence", _EVIDENCE, False)]),
    (["query"], ["model.json"], _CHAIN + [("--thin", _COUNT, False)]),
    (["run"], ["model.json"], _CHAIN + [("--thin", _COUNT, False)]),
    (["fault-report"], ["model.json"], [("--rates", ("0", "0,0.01", "1", "-0.5", "2"), False),
                                        ("--sweeps", _COUNT, True)]),
    (["stereo"], ["left.pgm", "right.pgm"], _MATCHING),
    (["motion"], ["left.pgm", "right.pgm"], _MATCHING),
    (["dpmm", "run"], ["data.txt"], [
        ("--alpha", _REAL, False), ("--beta-on", _REAL, False), ("--beta-off", _REAL, False),
        ("--sweeps", _COUNT, True), ("--burn-in", _COUNT, True), ("--idx", None, False),
        ("--binarize", ("0", "128", "-1", "300"), False),
        ("--image-shape", ("2x2", "1x4", "0x4", "-1x-4", "2x3", "4"), False)]),
    (["spike", "run"], ["model.json"], _CHAIN),
]
CLI_GLOBALS = [("--seed", ("0", "7", "-1")),
               ("--format", ("8,4", "float", "16,8", "4,0", "32,27")),
               ("--schedule", ("parallel", "serial", "random-scan")),
               ("--fault-rate", ("0", "0.01", "1", "2")),
               ("--threads", ("1", "2", "0"))]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """The CLI fuzz's input files by name, and a counter for fresh output
    directories under the same base."""
    base = tmp_path_factory.mktemp("cli")
    files = {name: base / name for name in (
        "model.json", "adir", "bytes.bin", "left.pgm", "right.pgm", "cut.pgm",
        "nan_cpt.json", "cpt.json", "data.txt", "digits.idx")}
    pair, _ = random_dot_stereogram(8, 8, 2, seed=1)
    files["model.json"].write_text(fixture_text("three_var_fork.json"))
    files["adir"].mkdir()
    files["bytes.bin"].write_bytes(bytes([0xFF, 0xFE, 0x80]) * 4)
    write_pgm(files["left.pgm"], pair.first)
    write_pgm(files["right.pgm"], pair.second)
    files["cut.pgm"].write_bytes(files["left.pgm"].read_bytes()[:40])
    files["nan_cpt.json"].write_text('{"m": 1, "n": 1, "rows": [[NaN, 0.5], [1, 0]]}')
    files["cpt.json"].write_text('{"m": 1, "n": 1, "rows": [[0.25, 0.75], [1.0, 0.0]]}')
    files["data.txt"].write_text("0 1 1 0\n1 1 0 0\n0 0 1 1\n")
    files["digits.idx"].write_bytes(bytes([0, 0, 0x08, 3]) + b"".join(
        d.to_bytes(4, "big") for d in (3, 2, 2)) + bytes(range(0, 240, 20)))
    return {name: str(path) for name, path in files.items()}, base, itertools.count()


@settings(DETERMINISTIC, max_examples=250)
@given(rng=st.randoms(use_true_random=True))
def test_cli_arguments_end_in_a_documented_exit_code(cli_files, rng):
    """Any argv of small sizes, junk values and awkward input files (a
    directory, bytes that are not UTF-8, a cut-off PGM, a NaN CPT), with
    now and then an output directory beneath an input file, exits 0 or 2-6
    with no traceback, and a run that fails leaves no output directory."""
    files, base, serial = cli_files
    out = base / f"out{next(serial)}"
    if rng.random() < 0.1:  # now and then beneath an input file or the directory
        out = base / rng.choice(sorted(files)) / out.name

    def value(values):  # the usual file or value; now and then any file, or junk
        if isinstance(values, str):
            return files[values if rng.random() < 0.7 else rng.choice(sorted(files))]
        return rng.choice(CLI_JUNK if rng.random() < 0.1 else values)

    argv = ["--out-dir", str(out)]
    for option, values in CLI_GLOBALS:
        if rng.random() < 0.3:
            argv += [option, value(values)]
    path, slots, options = rng.choice(CLI_COMMANDS)
    argv += path + [value(usual) for usual in slots]
    for option, values, always in options:
        if always or rng.random() < 0.5:
            argv += [option] if values is None else [option, value(values)]
    result = CliRunner().invoke(main, argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv, "".join(traceback.format_exception(*result.exc_info)))
    assert result.exit_code in (0, 2, 3, 4, 5, 6), (argv, result.output)
    assert result.exit_code == 0 or not out.exists(), (argv, result.output)


#: Tokens the reader fuzz splices past a header: numbers that are not 0/1
#: integers of the usual kind, separators, a comment mark and bytes that are
#: not UTF-8.
READER_TOKENS = (b"99999999999999999999", b"1e0", b"0x1", b"-0", b"-1", b"2", b"0.5",
                 b"nan", b" ", b"\n", b"\t", b"\r\n", b"#", b",", b"\x00", b"\xff\xfe")
#: Valid headers of an 8x8 8-bit PGM (the fixture's size), in the layouts a
#: header may take.
PGM_HEADERS = (b"P5\n8 8\n255\n", b"P5 8 8 255 ", b"P5\n# a comment\n8 8\n255\n",
               b"P5\n8\n8\n200\n")


@settings(DETERMINISTIC, max_examples=200)
@given(reader=st.sampled_from(["stereo", "dpmm run"]), data=st.data())
def test_input_readers_past_their_headers_end_in_a_documented_exit_code(cli_files, reader,
                                                                         data):
    """A valid PGM header, or the first row of a 0/1 text file, followed by
    the usual body with bytes overwritten, spliced in or cut: stereo and
    dpmm run exit 0 or 2-6 with no traceback, and a run that fails leaves
    no output directory."""
    files, base, serial = cli_files
    if reader == "stereo":
        head = data.draw(st.sampled_from(PGM_HEADERS))
        body = bytearray(Path(files["left.pgm"]).read_bytes()[len(PGM_HEADERS[0]):])
    else:
        head, _, rest = Path(files["data.txt"]).read_bytes().partition(b"\n")
        head += b"\n"
        body = bytearray(rest)
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(body)))
        action = data.draw(st.sampled_from(["overwrite", "splice", "cut"]))
        if action == "splice":
            body[at:at] = data.draw(st.sampled_from(READER_TOKENS))
        elif action == "cut":
            del body[at:at + data.draw(st.integers(1, 70))]
        elif at < len(body):
            body[at] = data.draw(st.integers(0, 255))
    content = head + bytes(body)
    n = next(serial)
    mutated = base / f"reader{n}"
    mutated.write_bytes(content)
    out = base / f"out{n}"
    if reader == "stereo":
        argv = ["stereo", str(mutated), files["right.pgm"], "-d", "2", "--sweeps", "1"]
    else:
        argv = ["dpmm", "run", str(mutated), "--sweeps", "1", "--burn-in", "0"]
    result = CliRunner().invoke(main, ["--out-dir", str(out)] + argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        content, "".join(traceback.format_exception(*result.exc_info)))
    assert result.exit_code in (0, 2, 3, 4, 5, 6), (content, result.output)
    assert result.exit_code == 0 or not out.exists(), (content, result.output)
