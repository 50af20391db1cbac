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
from stochcirc.errors import NoSupportError
from stochcirc.factorgraph import Factor
from stochcirc.lowprec import MULTIPLIER_BITS, EnergyFormat, float_weights, integer_weights
from stochcirc.mrf import (
    EVIDENCE_CAP,
    EVIDENCE_SCALE,
    ImagePair,
    evidence_from_images,
    motion_offsets,
)
from stochcirc.transition import GibbsKernel

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
