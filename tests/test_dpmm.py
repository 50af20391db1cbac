import copy

import numpy as np
import pytest

from oracles import (
    ambiguous_dataset,
    dict_tv,
    dpmm_partition_posterior,
    dpmm_reference_energies,
    partition_histogram,
    separated_dataset,
)
from stochcirc.dpmm import (
    DPMM_FORMAT,
    LOG_TABLE_COUNTS,
    DpmmState,
    assignment_energies,
    cluster_summaries,
    gibbs_sweep,
    run_batch,
    stream_datum,
)
from stochcirc.entropy import EntropyStream
from stochcirc.errors import ConfigError, ShapeError
from stochcirc.lowprec import EnergyFormat

FOUR_POINT_DATA = [np.array(v) for v in ([0, 0], [0, 1], [1, 1], [1, 1])]


def test_state_rejects_bad_hyperparameters():
    with pytest.raises(ConfigError):
        DpmmState(4, alpha=0.0)
    with pytest.raises(ConfigError):
        DpmmState(4, beta_on=-1.0)


def test_dimension_mismatch():
    state = DpmmState(4)
    with pytest.raises(ShapeError):
        state.add_datum([1, 0])


@pytest.mark.parametrize("datum", [[0.5, 1.0], [1.7, 0], [0, 1, 256], [257, 0, 1], [-1, 0],
                                   [0, float("nan")], ["0", "1"]])
def test_non_binary_data_are_rejected_not_cast(datum):
    with pytest.raises(ShapeError, match="binary"):
        run_batch([[0] * len(datum), datum], 2, EntropyStream(1))
    with pytest.raises(ShapeError, match="binary"):
        assignment_energies(DpmmState(len(datum)), datum)


def test_binary_data_of_any_numeric_type_are_accepted():
    state = DpmmState(3)
    for datum in ([True, False, True], [1.0, 0.0, 1.0], np.array([1, 0, 1], dtype=np.uint8)):
        assert state.data[state.add_datum(datum)].tolist() == [1, 0, 1]


def test_stream_datum_rejects_negative_inner_sweeps():
    state = DpmmState(2)
    with pytest.raises(ConfigError, match="inner sweeps"):
        stream_datum(state, [0, 1], -1, EntropyStream(1))
    assert state.n_data() == 0


@pytest.mark.parametrize("bits,frac", [(32, 0), (12, 0)])
def test_chain_refuses_weights_past_the_gibbs_bound(bits, frac):
    with pytest.raises(ConfigError, match="wider than"):
        run_batch(FOUR_POINT_DATA, 2, EntropyStream(1), fmt=EnergyFormat(bits, frac))


def test_state_refuses_a_format_too_wide_when_it_is_built():
    with pytest.raises(ConfigError, match="wider than"):
        DpmmState(2, fmt=EnergyFormat(12, 0))


def test_state_and_batch_refuse_the_float_path():
    with pytest.raises(ConfigError, match="fixed-point"):
        DpmmState(2, fmt=None)
    with pytest.raises(ConfigError, match="fixed-point"):
        run_batch(FOUR_POINT_DATA, 2, EntropyStream(1), fmt=None)


def test_audit_checks_the_cached_rows_bit_for_bit():
    state, _ = run_batch(list(separated_dataset()[:8]), 5, EntropyStream(3))
    state.audit()
    state._log_on[0, 0] = np.nextafter(state._log_on[0, 0], 0.0)
    with pytest.raises(AssertionError, match="cached cluster rows"):
        state.audit()


def test_clusters_past_the_log_tables_keep_exact_rows():
    state = DpmmState(3, alpha=0.4, beta_on=0.7, beta_off=1.3)
    data = np.random.default_rng(5).random((LOG_TABLE_COUNTS + 3, 3)) < 0.4
    for datum in data:
        state.assign(state.add_datum(datum), 0 if state.clusters else None)
    probe = np.array([1, 0, 1])
    for _ in range(2):   # above the tables, then back below them
        state.audit()
        clusters = {cid: (s.count, s.on_counts) for cid, s in state.clusters.items()}
        assert assignment_energies(state, probe)[0] == dpmm_reference_energies(
            clusters, probe, 0.4, 0.7, 1.3)
        for idx in range(4):
            state.remove(idx)


def test_a_copied_state_audits_and_sweeps_like_the_original():
    state, _ = run_batch(list(separated_dataset()[:8]), 3, EntropyStream(4))
    twin = copy.deepcopy(state)
    twin.audit()
    stream, twin_stream = EntropyStream(9), EntropyStream(9)
    gibbs_sweep(state, stream)
    gibbs_sweep(twin, twin_stream)
    twin.audit()
    assert twin.assignments == state.assignments
    assert twin_stream.draws_consumed == stream.draws_consumed


def test_empty_state_new_cluster_certain():
    state = DpmmState(2)
    energies, slots = assignment_energies(state, np.array([1, 0]))
    assert slots == [None]
    assert len(energies) == 1


def test_crp_weights_proportional_to_counts():
    # zero-dimension data isolate the partition prior: weights (2, 1, alpha)
    state = DpmmState(0, alpha=1.0)
    for _ in range(3):
        state.add_datum([])
    state.assign(0, None)
    cid = state.assignments[0]
    state.assign(1, cid)
    state.assign(2, None)
    energies, slots = assignment_energies(state, np.array([], dtype=int))
    weights = 2.0 ** -np.array(energies)
    assert np.allclose(weights / weights.min(), [2.0, 1.0, 1.0])
    assert slots[-1] is None


def test_beta_bernoulli_predictive():
    # one cluster, n=2, both on, beta=(1,1): predictive(on) = 3/4
    state = DpmmState(1, beta_on=1.0, beta_off=1.0)
    state.add_datum([1])
    state.add_datum([1])
    state.assign(0, None)
    state.assign(1, state.assignments[0])
    energies, slots = assignment_energies(state, np.array([1]))
    # energy of the existing cluster: -log2(n * predictive) = -log2(2 * 3/4)
    assert abs(energies[0] - (-np.log2(2 * 0.75))) < 1e-12


def test_single_datum_always_one_cluster():
    state = DpmmState(3)
    state.add_datum([1, 0, 1])
    stream = EntropyStream(1)
    state.assign(0, None)
    for _ in range(20):
        gibbs_sweep(state, stream)
        assert len(state.clusters) == 1
        state.audit()


def test_partition_posterior_matches_enumeration():
    # all 15 partitions of 4 data, TV < 0.02 (quick version of acceptance)
    exact = dpmm_partition_posterior(FOUR_POINT_DATA)
    _, parts = run_batch(FOUR_POINT_DATA, 30_000, EntropyStream(2))
    assert dict_tv(partition_histogram(parts), exact) < 0.02


def test_stats_audit_after_many_sweeps():
    state, _ = run_batch(list(separated_dataset()[:8]), 50, EntropyStream(3))
    state.audit()
    assert sum(s.count for s in state.clusters.values()) == 8


def test_separated_clusters_recover_two():
    _, parts = run_batch(separated_dataset(), 2000, EntropyStream(4))
    frac2 = sum(1 for p in parts if len(p) == 2) / len(parts)
    assert frac2 >= 0.90


def test_ambiguous_fixture_shows_posterior_variance():
    _, parts = run_batch(ambiguous_dataset(), 4000, EntropyStream(5))
    sizes = [len(p) for p in parts]
    frac3 = sum(1 for s in sizes if s == 3) / len(sizes)
    frac4 = sum(1 for s in sizes if s == 4) / len(sizes)
    assert frac3 > 0.05 and frac4 > 0.05


def test_streaming_identical_data_single_cluster_mode():
    state = DpmmState(4)
    stream = EntropyStream(6)
    for _ in range(8):
        stream_datum(state, [1, 1, 0, 0], 2, stream)
    counts = []
    for _ in range(300):
        gibbs_sweep(state, stream)
        counts.append(len(state.clusters))
    assert np.mean([c == 1 for c in counts]) > 0.8


def test_streaming_into_empty_state_founds_cluster():
    state = DpmmState(2)
    stream_datum(state, [0, 1], 0, EntropyStream(7))
    assert len(state.clusters) == 1
    assert state.clusters[state.assignments[0]].count == 1


def test_streamed_and_batch_posteriors_agree():
    exact = dpmm_partition_posterior(FOUR_POINT_DATA)
    state = DpmmState(2)
    stream = EntropyStream(8)
    for datum in FOUR_POINT_DATA:
        stream_datum(state, datum, 1, stream)
    parts = []
    for _ in range(30_000):
        gibbs_sweep(state, stream)
        parts.append(state.partition())
    assert dict_tv(partition_histogram(parts), exact) < 0.03


def test_exchangeability_under_presentation_order():
    # posterior over partitions of the same items, streamed in two orders
    perm = [2, 0, 3, 1]
    reordered = [FOUR_POINT_DATA[i] for i in perm]
    _, parts_fwd = run_batch(FOUR_POINT_DATA, 30_000, EntropyStream(9))
    _, parts_perm = run_batch(reordered, 30_000, EntropyStream(10))
    # map position-partitions back to original item ids
    remapped = [
        tuple(sorted(tuple(sorted(perm[i] for i in block)) for block in p))
        for p in parts_perm
    ]
    assert dict_tv(partition_histogram(parts_fwd),
                   partition_histogram(remapped)) < 0.03


def test_cluster_summaries_beta_posterior():
    state = DpmmState(3, beta_on=1.0, beta_off=1.0)
    state.add_datum([1, 1, 1])
    state.add_datum([1, 1, 1])
    state.assign(0, None)
    state.assign(1, state.assignments[0])
    summaries = cluster_summaries(state)
    assert len(summaries) == 1
    count, probs = summaries[0]
    assert count == 2
    assert np.allclose(probs, 0.75)


def test_empty_state_summaries():
    assert cluster_summaries(DpmmState(4)) == []


def test_no_stale_clusters_after_deletion():
    state, _ = run_batch(separated_dataset(), 20, EntropyStream(11))
    live = {cid for cid in state.assignments}
    assert set(state.clusters) == live
    state.audit()


def test_summaries_sorted_by_size():
    state, _ = run_batch(separated_dataset() + [np.ones(16, dtype=int)],
                         50, EntropyStream(12))
    sizes = [count for count, _ in cluster_summaries(state)]
    assert sizes == sorted(sizes, reverse=True)


def test_wide_format_default():
    assert DPMM_FORMAT.bits == 16 and DPMM_FORMAT.frac == 8


def test_idx_reader_roundtrip(tmp_path):
    from stochcirc.dpmm import read_idx_images

    rng = np.random.default_rng(20)
    images = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
    blob = bytes([0, 0, 0x08, 3])
    for dim in images.shape:
        blob += dim.to_bytes(4, "big")
    blob += images.tobytes()
    path = tmp_path / "digits.idx"
    path.write_bytes(blob)
    vectors, shape = read_idx_images(path, threshold=100)
    assert shape == (4, 3)
    assert len(vectors) == 5
    assert np.array_equal(vectors[0], (images[0].reshape(-1) >= 100).astype(int))


def test_idx_reader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"\x01\x02\x03\x04")
    with pytest.raises(ConfigError):
        from stochcirc.dpmm import read_idx_images

        read_idx_images(path)


@pytest.mark.parametrize("prior", [{"alpha": float("nan")}, {"alpha": float("inf")},
                                   {"beta_on": float("nan")}, {"beta_off": float("inf")},
                                   {"beta_on": 1e308, "beta_off": 1e308}])
def test_state_rejects_non_finite_priors(prior):
    with pytest.raises(ConfigError, match="finite and positive"):
        DpmmState(4, **prior)


@pytest.mark.parametrize("sweeps, burn_in", [(0, 0), (-2, 0), (3, -1)])
def test_batch_needs_a_sweep_and_a_nonnegative_burn_in(sweeps, burn_in):
    with pytest.raises(ConfigError):
        run_batch(FOUR_POINT_DATA, sweeps, EntropyStream(1), burn_in=burn_in)


def test_batch_is_the_chain_after_streaming_each_datum_in():
    stream = EntropyStream(13)
    state, parts = run_batch(FOUR_POINT_DATA, 5, stream, burn_in=2)
    ref, ref_stream = DpmmState(2), EntropyStream(13)
    for datum in FOUR_POINT_DATA:
        stream_datum(ref, datum, 0, ref_stream)
    ref_parts = []
    for sweep in range(7):
        gibbs_sweep(ref, ref_stream)
        if sweep >= 2:
            ref_parts.append(ref.partition())
    assert parts == ref_parts
    assert state.assignments == ref.assignments
    assert (stream.state, stream.draws_consumed) == (ref_stream.state,
                                                     ref_stream.draws_consumed)


def test_summaries_break_ties_by_cluster_id():
    state = DpmmState(2)
    for datum in ([1, 1], [0, 0], [1, 0]):
        state.assign(state.add_datum(datum), None)
    state.remove(0)
    state.assign(0, None)   # the [1, 1] datum refounds as the newest cluster
    assert [probs.tolist() for _, probs in cluster_summaries(state)] == [
        [0.25, 0.25], [0.75, 0.25], [0.75, 0.75]]
