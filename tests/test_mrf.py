import warnings

import numpy as np
import pytest

from stochcirc.compiler import compile as compile_graph
from stochcirc.errors import ConfigError, ShapeError
from stochcirc.factorgraph import enumerate_joint, marginal
from stochcirc.lowprec import total_variation
from stochcirc.mrf import (
    EVIDENCE_CAP,
    EVIDENCE_SCALE,
    ImagePair,
    LatticeMRF,
    evidence_from_images,
    labels_to_gray,
    motion_offsets,
    random_dot_stereogram,
    smoothness_energy,
    solve,
)
from stochcirc.pgm import read_pgm, write_pgm
from stochcirc.transition import run, validate_schedule


def test_image_pair_shape_check():
    with pytest.raises(ShapeError):
        ImagePair(np.zeros((4, 4)), np.zeros((4, 5)))


def test_identical_images_zero_cost_at_candidate_zero():
    img = (np.arange(16).reshape(4, 4) * 13 % 256).astype(np.uint8)
    y = evidence_from_images(ImagePair(img, img), 3, "stereo")
    assert np.all(y[:, :, 0] == 0.0)


def test_shifted_pair_prefers_true_disparity():
    pair, _ = random_dot_stereogram(8, 16, 2, seed=1)
    y = evidence_from_images(pair, 4, "stereo")
    interior = y[:, 2:, :]
    assert np.all(interior[:, :, 2] == 0.0)
    # away from borders the true shift is never beaten
    assert np.all(interior.min(axis=2) == interior[:, :, 2])


def test_border_candidates_cost_cap():
    img = np.zeros((3, 5), dtype=np.uint8)
    y = evidence_from_images(ImagePair(img, img), 3, "stereo")
    # column j < d has no in-bounds match: documented border rule
    assert np.all(y[:, 0, 1] == 32.0 / EVIDENCE_SCALE)
    assert np.all(y[:, 1, 2] == 32.0 / EVIDENCE_SCALE)


def test_too_many_candidates_rejected():
    img = np.zeros((2, 4), dtype=np.uint8)
    with pytest.raises(ConfigError):
        evidence_from_images(ImagePair(img, img), 5, "stereo")


def test_motion_offsets_ring_order():
    offs = motion_offsets(5)
    assert offs[0] == (0, 0)
    assert set(offs[1:]) == {(0, 1), (0, -1), (1, 0), (-1, 0)}


def test_motion_mode_recovers_vertical_shift():
    # second(i, j) = first(i+1, j), so first(i, j) matches second at dy = -1
    rng = np.random.default_rng(2)
    first = rng.integers(0, 256, size=(10, 10)).astype(np.uint8)
    second = np.roll(first, -1, axis=0)
    y = evidence_from_images(ImagePair(first, second), 5, "motion")
    k = motion_offsets(5).index((-1, 0))
    assert np.all(y[1:, :, k] == 0.0)


def test_motion_offsets_past_the_image_edge_cost_the_cap_everywhere():
    rng = np.random.default_rng(3)
    first, second = rng.integers(0, 256, size=(2, 4, 5)).astype(np.uint8)
    y = evidence_from_images(ImagePair(first, second), 82, "motion")
    past = [k for k, (dy, dx) in enumerate(motion_offsets(82)) if abs(dy) >= 4 or abs(dx) >= 5]
    assert past
    assert np.all(y[:, :, past] == EVIDENCE_CAP / EVIDENCE_SCALE)


def test_smoothness_energy_examples():
    assert smoothness_energy(3, 3, 2.0, 3.0) == 0.0
    assert smoothness_energy(4, 3, 2.0, 3.0) == 2.0
    assert smoothness_energy(13, 3, 2.0, 3.0) == 6.0  # truncated at tau


def test_lattice_is_bipartite_and_schedule_valid():
    m = LatticeMRF(4, 6, 3, np.zeros((4, 6, 3)))
    asm = compile_graph(m.to_factor_graph())
    assert len(asm.schedule) == 2
    assert validate_schedule(asm) == []


def test_lambda_zero_pixels_sample_their_evidence():
    # 8x8, lam=0: each pixel's marginal mode equals argmin of its cost vector
    rng = np.random.default_rng(3)
    y = rng.uniform(0.0, 4.0, size=(8, 8, 3))
    m = LatticeMRF(8, 8, 3, y, lam=0.0)
    asm = compile_graph(m.to_factor_graph(), seed=4)
    trace = run(asm, 4000)
    for i in range(8):
        for j in range(8):
            probs = trace.marginal(m.site_name(i, j), 3)
            assert probs.argmax() == y[i, j].argmin()


def test_three_by_three_oracle():
    # per-pixel marginals vs brute force over 3^9 states, TV < 0.03
    rng = np.random.default_rng(5)
    y = rng.uniform(0.0, 2.0, size=(3, 3, 3))
    m = LatticeMRF(3, 3, 3, y, lam=0.5, tau=2.0)
    graph = m.to_factor_graph()
    joint = enumerate_joint(graph)
    asm = compile_graph(graph, seed=6)
    trace = run(asm, 40_000)
    for i in range(3):
        for j in range(3):
            name = m.site_name(i, j)
            tv = total_variation(trace.marginal(name, 3), marginal(joint, graph, name))
            assert tv < 0.03


def test_serial_and_checkerboard_agree_on_oracle():
    rng = np.random.default_rng(7)
    y = rng.uniform(0.0, 2.0, size=(3, 3, 3))
    m = LatticeMRF(3, 3, 3, y, lam=0.5)
    graph = m.to_factor_graph()
    par = run(compile_graph(graph, seed=8, schedule="parallel"), 40_000)
    ser = run(compile_graph(graph, seed=9, schedule="serial"), 40_000)
    for i in range(3):
        for j in range(3):
            name = m.site_name(i, j)
            assert total_variation(par.marginal(name, 3), ser.marginal(name, 3)) < 0.03


def test_low_precision_close_to_float_energies():
    rng = np.random.default_rng(10)
    y = rng.uniform(0.0, 2.0, size=(3, 3, 3))
    m = LatticeMRF(3, 3, 3, y, lam=0.5)
    graph = m.to_factor_graph()
    lo = run(compile_graph(graph, seed=11), 40_000)
    hi = run(compile_graph(graph, fmt=None, seed=11), 40_000)
    for i in range(3):
        for j in range(3):
            name = m.site_name(i, j)
            assert total_variation(lo.marginal(name, 3), hi.marginal(name, 3)) < 0.05


def test_annealed_solve_recovers_synthetic_shift():
    pair, _ = random_dot_stereogram(16, 16, 2, seed=12)
    y = evidence_from_images(pair, 5, "stereo")
    m = LatticeMRF(16, 16, 5, y)
    result = solve(m, 120, seed=13)
    interior = result.labels[:, 2:]
    assert (interior == 2).mean() >= 0.95
    assert result.energy_trace[-1] < result.energy_trace[0]
    assert len(result.energy_trace) == 120


def test_posterior_mode_solve_runs_flat_temperature():
    rng = np.random.default_rng(14)
    y = rng.uniform(0.0, 2.0, size=(4, 4, 2))
    m = LatticeMRF(4, 4, 2, y)
    result = solve(m, 30, seed=15, anneal=None)
    assert result.labels.shape == (4, 4)
    assert len(result.energy_trace) == 30


def test_labels_to_gray_range():
    labels = np.array([[0, 2], [4, 1]])
    gray = labels_to_gray(labels, 5)
    assert gray.dtype == np.uint8
    assert gray.max() <= 255 and gray[1, 0] == 4 * (255 // 4)


@pytest.mark.parametrize("d", [257, 300])
def test_labels_to_gray_past_256_labels_spans_the_gray_range(d):
    gray = labels_to_gray(np.arange(d), d)
    assert gray[0] == 0 and gray[-1] == 255
    assert np.all(np.diff(gray.astype(int)) >= 0)


def test_labels_to_gray_keeps_its_step_up_to_256_labels():
    assert labels_to_gray(np.arange(8), 8).tolist() == list(range(0, 253, 36))
    assert labels_to_gray(np.arange(256), 256).tolist() == list(range(256))


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(16)
    img = rng.integers(0, 256, size=(7, 11)).astype(np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert np.array_equal(back, img)


def test_pgm_rejects_non_p5(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ConfigError):
        read_pgm(path)


@pytest.mark.parametrize("lam, tau, labels", [
    (float("nan"), 2.0, 3), (1.0, float("nan"), 3), (-2000.0, 2.0, 3),
    (float("inf"), 2.0, 3), (-2000.0, -5.0, 1),   # the last table is all zero
])
def test_lattice_rejects_a_bad_smoothness_table_without_warnings(lam, tau, labels):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigError, match="smoothness table"):
            LatticeMRF(2, 2, labels, np.zeros((2, 2, labels)), lam=lam, tau=tau)


@pytest.mark.parametrize("kwargs", [
    {"anneal": (2.0,)}, {"anneal": (2.0, 1.0, 0.5)}, {"anneal": (2.0, float("nan"))},
    {"anneal": (float("inf"), 0.1)}, {"anneal": (0.0, 0.1)}, {"sweeps": -4},
    {"sweeps": -4, "anneal": None},
])
def test_solve_rejects_a_bad_ladder(kwargs):
    m = LatticeMRF(2, 3, 2, np.zeros((2, 3, 2)))
    with pytest.raises(ConfigError):
        solve(m, **{"sweeps": 4, **kwargs})


def test_total_energy_by_site():
    rng = np.random.default_rng(7)
    m = LatticeMRF(4, 5, 3, rng.uniform(0.0, 3.0, size=(4, 5, 3)), lam=0.8, tau=1.5)
    labels = rng.integers(0, 3, size=(4, 5))
    expected = sum(m.evidence[i, j, labels[i, j]] for i in range(4) for j in range(5))
    expected += sum(smoothness_energy(labels[i, j], labels[i, j + 1], 0.8, 1.5)
                    for i in range(4) for j in range(4))
    expected += sum(smoothness_energy(labels[i, j], labels[i + 1, j], 0.8, 1.5)
                    for i in range(3) for j in range(5))
    assert m.total_energy(labels) == pytest.approx(expected, rel=1e-12)
