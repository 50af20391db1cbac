"""Differential tests: mrf.solve's checkerboard lowering against the
compiled path (to_factor_graph, compile, run).

Each case solves one lattice twice, once as solve dispatches it and once
with the lowering swapped for the compiled path, and requires identical
labels, energy traces, and final stream words and draw counts per site.
"""

import numpy as np
import pytest

from stochcirc import mrf, transition
from stochcirc.compiler import compile as compile_graph
from stochcirc.errors import NoSupportError
from stochcirc.lowprec import EnergyFormat
from stochcirc.mrf import LatticeMRF, evidence_from_images, random_dot_stereogram

FORMATS = [EnergyFormat(6, 2), EnergyFormat(8, 4), EnergyFormat(10, 5)]
# (height, width, mode, candidates): stereo needs candidates <= width, so the
# one-column lattices use motion evidence
SHAPES = [(16, 16, "stereo", 8), (32, 32, "stereo", 8), (12, 12, "motion", 5),
          (1, 20, "stereo", 4), (2, 17, "stereo", 4), (20, 1, "motion", 5),
          (17, 2, "motion", 5), (3, 3, "stereo", 3)]
ANNEALS = {"annealed": (2.0, 0.1), "T=1": None}


def lattice(h, w, mode, d, seed=3, lam=1.0):
    pair, _ = random_dot_stereogram(h, w, min(2, w - 1), seed=seed)
    return LatticeMRF(h, w, d, evidence_from_images(pair, d, mode), lam=lam)


def compiled_instead(monkeypatch):
    monkeypatch.setattr(mrf, "_Checkerboard", lambda m, fmt, seed:
                        mrf._Compiled(m, fmt, seed, "parallel"))


def both_paths(monkeypatch, m, **kwargs):
    """(lowered, compiled) results of mrf._solve on one lattice."""
    kwargs = {"sweeps": 13, "seed": 21, "fmt": FORMATS[1], "anneal": (2.0, 0.1),
              "anneal_rungs": 5, "schedule": "parallel", **kwargs}
    lowered = mrf._solve(m, **kwargs)
    with monkeypatch.context() as patch:
        compiled_instead(patch)
        compiled = mrf._solve(m, **kwargs)
    return lowered, compiled


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f"{f.bits},{f.frac}")
@pytest.mark.parametrize("anneal", ANNEALS.values(), ids=ANNEALS.keys())
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}-{s[2]}")
def test_lowering_matches_compiled_path(shape, anneal, fmt, monkeypatch):
    taken = []
    lower = mrf._Checkerboard
    monkeypatch.setattr(mrf, "_Checkerboard", lambda *a: taken.append(1) or lower(*a))
    (result, lowered), (ref, compiled) = both_paths(
        monkeypatch, lattice(*shape), fmt=fmt, anneal=anneal)
    assert taken == [1]
    assert np.array_equal(result.labels, ref.labels)
    assert result.labels.dtype == ref.labels.dtype
    assert result.energy_csv() == ref.energy_csv()
    assert result.meta == ref.meta
    assert lowered.streams() == compiled.streams()


def test_no_sweeps_keeps_the_zero_start(monkeypatch):
    (result, _), (ref, _) = both_paths(monkeypatch, lattice(6, 7, "stereo", 4),
                                       sweeps=0)
    assert result.energy_trace == ref.energy_trace == []
    assert np.array_equal(result.labels, np.zeros((6, 7), np.int64))


@pytest.mark.parametrize("h", range(1, 6))
@pytest.mark.parametrize("w", range(1, 6))
def test_groups_are_the_greedy_coloring(h, w):
    m = LatticeMRF(h, w, 2, np.zeros((h, w, 2)))
    lowered = mrf._Checkerboard(m, FORMATS[1], 0)
    names = [name for row in m.site_names() for name in row]
    groups = tuple(tuple(names[s] for s in group.sites) for group in lowered.groups)
    assert groups == compile_graph(m.to_factor_graph()).schedule


def test_lowered_rows_are_the_compiled_rows():
    rng = np.random.default_rng(4)
    m = LatticeMRF(5, 6, 4, rng.uniform(0.0, 5.0, size=(5, 6, 4)), lam=0.7, tau=2.5)
    lowered = mrf._Checkerboard(m, FORMATS[1], 0).table
    asm = compile_graph(m.to_factor_graph(), fmt=FORMATS[1])
    compiled = asm.circuits[asm.names[0]].kernel.table

    def float_rows(table):
        return np.concatenate([rows for _, _, rows in table.blocks.values()])

    table, compiled_rows = float_rows(lowered), float_rows(compiled)
    d, n = m.labels, m.height * m.width
    first, second = n * d, n * d + d * d
    for s, name in enumerate(name for row in m.site_names() for name in row):
        for part in asm.circuits[name].kernel.parts:
            if not part.neighbors:
                start, size = s * d, d
            else:
                # the site is the pair table's first axis for its east and
                # south neighbors, which sort after it
                start, size = (first if part.neighbors[0] > name else second), d * d
            at = part.offset
            assert table[start:start + size].tobytes() == compiled_rows[at:at + size].tobytes()
            assert (lowered.raw[start:start + size].tobytes()
                    == compiled.raw[at:at + size].tobytes())


def count_quantizations(monkeypatch) -> list:
    """The temperature of every _quantize_rows call, from now on."""
    calls = []
    quantize = transition._quantize_rows

    def counting(float_rows, fmt, temperature):
        calls.append(temperature)
        return quantize(float_rows, fmt, temperature)

    monkeypatch.setattr(transition, "_quantize_rows", counting)
    return calls


@pytest.mark.parametrize("schedule", ["serial", "parallel"])
def test_a_compiled_lattice_quantizes_once_per_rung(schedule, monkeypatch):
    calls = count_quantizations(monkeypatch)
    compiled_instead(monkeypatch)   # the parallel schedule too
    _, sampler = mrf._solve(lattice(8, 8, "stereo", 3), 6, 22, FORMATS[1], (2.0, 0.1), 3,
                            schedule)
    assert isinstance(sampler, mrf._Compiled)
    assert calls == [t for t, _ in mrf._ladder(6, (2.0, 0.1), 3)]


def test_the_lowering_quantizes_once_per_rung_and_builds_no_row_list(monkeypatch):
    def fail(table):
        raise AssertionError("Python list of the table built")

    calls = count_quantizations(monkeypatch)
    monkeypatch.setattr(transition._EnergyTable, "rows", property(fail))
    _, sampler = mrf._solve(lattice(8, 8, "stereo", 3), 6, 22, FORMATS[1], (2.0, 0.1), 3,
                            "parallel")
    assert isinstance(sampler, mrf._Checkerboard)
    assert calls == [t for t, _ in mrf._ladder(6, (2.0, 0.1), 3)]


def test_all_zero_unary_raises_like_compile(monkeypatch):
    m = lattice(5, 6, "stereo", 3)
    m.evidence[1, 2, :] = 2000.0   # 2^-2000 underflows to weight 0
    m.evidence[3, 0, :] = 2000.0
    errors = []
    for force in (False, True):
        with monkeypatch.context() as patch:
            if force:
                compiled_instead(patch)
            with pytest.raises(NoSupportError) as err:
                mrf.solve(m, 4)
            errors.append(str(err.value))
    assert errors[0] == errors[1] == "factor 'ev_x_1_2' has an all-zero table"


def test_empty_conditional_names_the_first_site_like_run(monkeypatch):
    # lam = 2000 forbids any two different neighboring labels. From the all
    # zero start, a site whose evidence forbids label 0 has no support.
    m = lattice(6, 6, "stereo", 3, lam=2000.0)
    for i, j in ((0, 1), (2, 4)):   # group 1 (earlier) and group 0 (later)
        m.evidence[i, j] = [2000.0, 0.0, 0.0]
    errors = []
    for force in (False, True):
        with monkeypatch.context() as patch:
            if force:
                compiled_instead(patch)
            with pytest.raises(NoSupportError) as err:
                mrf.solve(m, 4)
            errors.append((str(err.value), err.value.variable))
    assert errors[0] == errors[1] == ("variable 'x_2_4': conditional has no support",
                                      "x_2_4")


@pytest.mark.parametrize("case", ["float", "serial", "random-scan", "16,8"])
def test_these_take_the_compiled_path(case, monkeypatch):
    def fail(*args):
        raise AssertionError("lattice lowering taken")

    monkeypatch.setattr(mrf, "_Checkerboard", fail)
    kwargs = {"fmt": EnergyFormat(16, 8)} if case == "16,8" else {}
    if case == "float":
        kwargs["fmt"] = None
    elif case != "16,8":
        kwargs["schedule"] = case
    mrf.solve(lattice(4, 5, "stereo", 3), 3, **kwargs)


def test_one_lane_kernel_serves_both_paths(monkeypatch):
    assert mrf._LaneGroup is transition._LaneGroup
    calls = []
    step = transition._LaneGroup.step

    def counting(self, *args):
        calls.append(len(self.sites))
        return step(self, *args)

    monkeypatch.setattr(transition._LaneGroup, "step", counting)
    m = lattice(8, 8, "stereo", 3)
    mrf.solve(m, 2, anneal=None)
    transition.run(compile_graph(m.to_factor_graph()), 1, burn_in=0)
    assert calls == [32] * 4 + [32] * 2
