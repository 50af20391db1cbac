"""Property tests, derandomized so every run draws the same examples and
writes no example database.

Hypothesis also caches the constants it reads from source files under its
home directory, ./.hypothesis by default, while pytest collects; the home
directory is set to a temporary one, removed at exit, as this module is
imported.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.extra.numpy import arrays

from oracles import evidence_by_pixel
from stochcirc.compiler import compile as compile_graph
from stochcirc.errors import NoSupportError
from stochcirc.factorgraph import Factor, FactorGraph, Variable
from stochcirc.lowprec import MULTIPLIER_BITS, EnergyFormat, float_weights, integer_weights
from stochcirc.mrf import (
    EVIDENCE_CAP,
    EVIDENCE_SCALE,
    ImagePair,
    evidence_from_images,
    motion_offsets,
)
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
        return TransitionAssembly(compiled.circuits.values(), compiled.edges, classes,
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
