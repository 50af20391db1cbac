"""Dirichlet process mixture over binary vectors, collapsed Gibbs sampling.

Cluster parameters are integrated out under a per-pixel Beta(beta_on,
beta_off) prior, so the sampler state is just the partition plus sufficient
statistics (member count and per-pixel on-counts). Reassignment energies
follow the Chinese restaurant process: an existing cluster k weighs
n_k * prod_p predictive(x_p), a new cluster weighs alpha * prior
predictive, with predictive(x=1) = (c + beta_on) / (n + beta_on + beta_off).
Energies are quantized to the fixed-point format the state fixes when it is
built, and drawn through the same discrete-sample gate as every other
sampler here; the default format is wider than the global (8, 4) because
partition posteriors are sensitive to sub-percent weight ratios.

The state caches the likelihood terms of its live clusters, one row per
cluster in ascending id order: -log2(n_k) and the log2 predictive of an on
and of an off pixel. assign and remove refresh only the row of the cluster
they touch. A last row holds the same terms for a new cluster, -log2(alpha)
and the log2 prior predictive; it depends only on the prior, so it is
computed once per state. A draw is then one vectorized energy row; it sums
each cluster's pixels exactly as a per-cluster loop would, so the energies
are bit-identical to that loop's.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .entropy import EntropyStream
from .errors import ConfigError, ShapeError
from .lowprec import EnergyFormat, EnergyVector, check_weight_width, discrete_sample

DPMM_FORMAT = EnergyFormat(16, 8)
#: Clusters of up to this many members look their cached rows up in
#: per-count log tables, one entry per possible on-count (about 8 MB when
#: every count is reached); larger clusters compute their rows directly.
LOG_TABLE_COUNTS = 1024


@dataclass
class ClusterStats:
    count: int
    on_counts: np.ndarray


class DpmmState:
    """Partition state plus per-cluster sufficient statistics, drawn in the
    fixed-point format fmt; float (None) and too wide a format are refused."""

    def __init__(self, dim: int, alpha: float = 1.0, beta_on: float = 0.5,
                 beta_off: float = 0.5, fmt: EnergyFormat | None = DPMM_FORMAT):
        if not (0 < alpha < math.inf):
            raise ConfigError(f"concentration must be finite and positive, got {alpha}")
        if not (0 < beta_on and 0 < beta_off and beta_on + beta_off < math.inf):
            raise ConfigError("beta pseudo-counts and their sum must be finite and positive")
        if dim < 0:
            raise ConfigError(f"dimension must be nonnegative, got {dim}")
        if fmt is None:
            raise ConfigError("dpmm draws need a fixed-point format 'b,f', not float")
        check_weight_width(fmt)
        self.dim = dim
        self.fmt = fmt
        self.alpha = alpha
        self.beta_on = beta_on
        self.beta_off = beta_off
        self.data: list[np.ndarray] = []
        self.assignments: list[int | None] = []
        self.clusters: dict[int, ClusterStats] = {}
        self._next_cluster = 0
        # cached likelihood rows of the live clusters, in ascending id order,
        # then the new-cluster row
        self._ids: list[int] = []
        log_n, log_on, log_off = self._new_cluster_terms()
        self._log_n = np.array([log_n])
        self._log_on = log_on[np.newaxis]
        self._log_off = log_off[np.newaxis]
        self._log_tables: dict[int, tuple] = {}

    def _on_mask(self, datum) -> np.ndarray:
        """Which pixels of the datum are on; ShapeError unless it has dim
        pixels, each 0 or 1."""
        values = np.asarray(datum).reshape(-1)
        if values.size != self.dim:
            raise ShapeError(f"datum has {values.size} pixels, expected {self.dim}")
        on = values == 1
        if values.dtype.kind not in "biuf" or not (on | (values == 0)).all():
            raise ShapeError("datum must be binary")
        return on

    def n_data(self) -> int:
        return len(self.data)

    def add_datum(self, datum) -> int:
        """Register a datum of dim pixels, each 0 or 1, as a read-only int8
        vector without assigning it; returns its index."""
        datum = self._on_mask(datum).astype(np.int8)
        datum.setflags(write=False)
        self.data.append(datum)
        self.assignments.append(None)
        return len(self.data) - 1

    def _log_terms(self, n: int, c: np.ndarray):
        """-log2(n) and the log2 predictive of an on and of an off pixel
        with on-counts c in a cluster of n members."""
        denom = n + self.beta_on + self.beta_off
        return (-np.log2(n), np.log2((c + self.beta_on) / denom),
                np.log2((n - c + self.beta_off) / denom))

    def _new_cluster_terms(self):
        """-log2(alpha) and the log2 prior predictive of an on and of an off
        pixel, dim wide."""
        total = self.beta_on + self.beta_off
        return (-np.log2(self.alpha), np.log2(np.full(self.dim, self.beta_on) / total),
                np.log2(np.full(self.dim, self.beta_off) / total))

    def _cluster_row(self, stats: ClusterStats):
        """A cluster's cached row, looked up by count and on-count."""
        n, c = stats.count, stats.on_counts
        if n > LOG_TABLE_COUNTS:
            return self._log_terms(n, c)
        table = self._log_tables.get(n)
        if table is None:
            table = self._log_tables[n] = self._log_terms(n, np.arange(n + 1))
        log_n, log_on, log_off = table
        return log_n, log_on[c], log_off[c]

    def _refresh(self, cid: int):
        """Recompute cluster cid's cached row, or delete it if cid emptied."""
        row = bisect.bisect_left(self._ids, cid)
        stats = self.clusters.get(cid)
        if stats is None:
            del self._ids[row]
            self._log_n = np.delete(self._log_n, row)
            self._log_on = np.delete(self._log_on, row, axis=0)
            self._log_off = np.delete(self._log_off, row, axis=0)
            return
        if row == len(self._ids):
            # a founded cluster: its id is the largest, so its row goes
            # last, where the new-cluster row was; that row moves down one
            self._ids.append(cid)
            self._log_n = np.concatenate((self._log_n, self._log_n[-1:]))
            self._log_on = np.concatenate((self._log_on, self._log_on[-1:]))
            self._log_off = np.concatenate((self._log_off, self._log_off[-1:]))
        self._log_n[row], self._log_on[row], self._log_off[row] = self._cluster_row(stats)

    def _found_cluster(self) -> int:
        cid = self._next_cluster
        self._next_cluster += 1
        self.clusters[cid] = ClusterStats(0, np.zeros(self.dim, dtype=np.int64))
        return cid

    def assign(self, idx: int, cid: int | None):
        """Place datum idx into cluster cid (None founds a new cluster)."""
        if self.assignments[idx] is not None:
            raise ConfigError(f"datum {idx} is already assigned")
        if cid is None:
            cid = self._found_cluster()
        stats = self.clusters[cid]
        stats.count += 1
        stats.on_counts += self.data[idx]
        self._refresh(cid)
        self.assignments[idx] = cid
        return cid

    def remove(self, idx: int):
        """Detach datum idx from its cluster, deleting the cluster if emptied."""
        cid = self.assignments[idx]
        if cid is None:
            return
        stats = self.clusters[cid]
        stats.count -= 1
        stats.on_counts -= self.data[idx]
        self.assignments[idx] = None
        if stats.count == 0:
            del self.clusters[cid]
        self._refresh(cid)

    def partition(self) -> tuple:
        """Canonical label-free partition of datum indices."""
        groups: dict[int, list[int]] = {}
        for idx, cid in enumerate(self.assignments):
            if cid is not None:
                groups.setdefault(cid, []).append(idx)
        return tuple(sorted(tuple(g) for g in groups.values()))

    def audit(self):
        """Recompute statistics and cached rows from scratch and compare
        (debug invariant); the rows must match bit for bit."""
        fresh: dict[int, ClusterStats] = {}
        for idx, cid in enumerate(self.assignments):
            if cid is None:
                continue
            stats = fresh.setdefault(
                cid, ClusterStats(0, np.zeros(self.dim, dtype=np.int64)))
            stats.count += 1
            stats.on_counts += self.data[idx]
        assert set(fresh) == set(self.clusters), "stale or missing clusters"
        for cid, stats in fresh.items():
            kept = self.clusters[cid]
            assert kept.count == stats.count, f"cluster {cid}: bad count"
            assert np.array_equal(kept.on_counts, stats.on_counts), \
                f"cluster {cid}: bad on-counts"
        total = sum(s.count for s in self.clusters.values())
        assigned = sum(1 for a in self.assignments if a is not None)
        assert total == assigned, "count conservation violated"
        assert self._ids == sorted(fresh), "cached rows out of cluster order"
        rows = [self._log_terms(fresh[cid].count, fresh[cid].on_counts) for cid in self._ids]
        rows.append(self._new_cluster_terms())
        for cached, column in zip((self._log_n, self._log_on, self._log_off), zip(*rows)):
            want = np.array(column).reshape(cached.shape)
            assert cached.tobytes() == want.tobytes(), "stale cached cluster rows"


def assignment_energies(state: DpmmState, datum) -> tuple[list[float], list[int | None]]:
    """Energies over existing clusters, in ascending id order, plus one
    new-cluster slot.

    The datum must not currently be counted in any cluster, and is checked
    as add_datum checks it. The common CRP denominator is dropped: only
    energy differences matter to the gate.
    """
    on = state._on_mask(datum)
    energies = state._log_n - np.where(on, state._log_on, state._log_off).sum(axis=1)
    return energies.tolist(), state._ids + [None]


def _draw_assignment(state: DpmmState, idx: int, stream: EntropyStream):
    energies, slots = assignment_energies(state, state.data[idx])
    energies = np.array(energies)
    choice = discrete_sample(EnergyVector.from_energies(energies - energies.min(),
                                                        state.fmt), stream)
    state.assign(idx, slots[choice])


def gibbs_sweep(state: DpmmState, stream: EntropyStream) -> DpmmState:
    """One full pass: reassign every datum in ascending index order."""
    if state.n_data() < 1:
        raise ConfigError("no data to sweep")
    for idx in range(state.n_data()):
        state.remove(idx)
        _draw_assignment(state, idx, stream)
    return state


def stream_datum(state: DpmmState, datum, inner_sweeps: int,
                 stream: EntropyStream) -> DpmmState:
    """Online ingestion: one conditional draw for the newcomer, then sweeps."""
    if inner_sweeps < 0:
        raise ConfigError(f"inner sweeps must be nonnegative, got {inner_sweeps}")
    idx = state.add_datum(datum)
    _draw_assignment(state, idx, stream)
    for _ in range(inner_sweeps):
        gibbs_sweep(state, stream)
    return state


def cluster_summaries(state: DpmmState) -> list[tuple[int, np.ndarray]]:
    """(count, per-pixel on-probability) per cluster, largest first; ties go
    to the older cluster (the lower id)."""
    order = sorted(state.clusters, key=lambda cid: (-state.clusters[cid].count, cid))
    out = []
    for cid in order:
        stats = state.clusters[cid]
        denom = stats.count + state.beta_on + state.beta_off
        out.append((stats.count, (stats.on_counts + state.beta_on) / denom))
    return out


def read_idx_images(path, threshold: int = 128):
    """Binarized vectors from an IDX ubyte image file (demo ingestion path).

    Returns (vectors, (height, width)), vectors an (images, height * width)
    int8 matrix with one row per image. The IDX header is big-endian:
    two zero bytes, type code 0x08 (unsigned byte), dimension count, then
    one 4-byte size per dimension.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[0] != 0 or blob[1] != 0 or blob[2] != 0x08:
        raise ConfigError(f"{path}: not an unsigned-byte IDX file")
    ndim = blob[3]
    if ndim != 3:
        raise ConfigError(f"{path}: expected 3 dimensions (count, height, width)")
    if len(blob) < 4 + 4 * ndim:
        raise ConfigError(f"{path}: truncated IDX header")
    dims = [int.from_bytes(blob[4 + 4 * i:8 + 4 * i], "big") for i in range(ndim)]
    n, h, w = dims
    pixels = np.frombuffer(blob[4 + 4 * ndim:], dtype=np.uint8)
    if pixels.size != n * h * w:
        raise ConfigError(f"{path}: truncated pixel data")
    return (pixels.reshape(n, h * w) >= threshold).astype(np.int8), (h, w)


def gibbs_chain(state: DpmmState, data, sweeps: int, burn_in: int,
                stream: EntropyStream):
    """Batch Gibbs: stream each datum in (stream_datum, no inner sweeps),
    then sweep burn_in + sweeps times, yielding state after each retained
    sweep."""
    if sweeps < 1:
        raise ConfigError(f"need at least one sweep, got {sweeps}")
    if burn_in < 0:
        raise ConfigError(f"burn-in must be nonnegative, got {burn_in}")
    for datum in data:
        stream_datum(state, datum, 0, stream)
    for sweep in range(burn_in + sweeps):
        gibbs_sweep(state, stream)
        if sweep >= burn_in:
            yield state


def run_batch(data, sweeps: int, stream: EntropyStream, alpha: float = 1.0,
              beta_on: float = 0.5, beta_off: float = 0.5,
              burn_in: int | None = None, fmt: EnergyFormat | None = DPMM_FORMAT):
    """gibbs_chain over a dataset, in a state drawn at fmt, burn_in
    defaulting to max(10, its size); returns (state, the canonical partition
    after each retained sweep)."""
    data = list(data)
    if not data:
        raise ConfigError("empty dataset")
    state = DpmmState(np.asarray(data[0]).size, alpha=alpha, beta_on=beta_on,
                      beta_off=beta_off, fmt=fmt)
    if burn_in is None:
        burn_in = max(10, len(data))
    partitions = [s.partition() for s in gibbs_chain(state, data, sweeps, burn_in, stream)]
    return state, partitions
