"""Independent oracles shared by the test modules.

Everything here computes expected values by enumeration or direct summation,
never through the sampling paths under test. FixedUnitStream drives a sampler
with one chosen uniform draw. The *_by_parts functions recompute a scalar
kernel's energies one factor at a time, each specialized and quantized on
its own at the temperature. recomputing_twin turns an assembly into one
whose kernels compute their conditional row on every call, caching none.
dpmm_reference_chain replays the DPMM sampler from per-cluster energies
computed in a loop, drawing through the discrete-sample gate, which is
tested on its own. NoWideMultiplierTables stands in for the multiplier-table
cache and fails any build past MAX_FRAC_BITS.
"""

import math
from itertools import product

import numpy as np

from stochcirc.factorgraph import Factor, FactorGraph, Variable
from stochcirc.lowprec import MAX_FRAC_BITS, EnergyVector, discrete_sample


class FixedUnitStream:
    """A stream stub whose every next_unit() is the same value."""

    def __init__(self, u):
        self.u = u

    def next_unit(self):
        return self.u


class NoWideMultiplierTables(dict):
    """A multiplier-table cache that fails a build past MAX_FRAC_BITS, so a
    test of the bound fails at once instead of building the table."""

    def get(self, frac, default=None):
        assert frac <= MAX_FRAC_BITS, f"multiplier table with 2^{frac} entries built"
        return super().get(frac, default)


def fork_graph(evidence=None) -> FactorGraph:
    """Three-variable model: a root cause A with two effects B and C."""
    variables = [Variable("A", 2), Variable("B", 2), Variable("C", 2)]
    factors = [
        Factor("prior_a", ["A"], [0.3, 0.7], [2]),
        Factor("cpd_b", ["A", "B"], [0.8, 0.2, 0.25, 0.75], [2, 2]),
        Factor("cpd_c", ["A", "C"], [0.6, 0.4, 0.1, 0.9], [2, 2]),
    ]
    return FactorGraph(variables, factors, evidence)


def chain_graph() -> FactorGraph:
    """Pairwise chain A - B - C with agreement couplings."""
    variables = [Variable("A", 2), Variable("B", 2), Variable("C", 2)]
    couple = [2.0, 1.0, 1.0, 2.0]
    factors = [
        Factor("lean_a", ["A"], [1.5, 1.0], [2]),
        Factor("couple_ab", ["A", "B"], couple, [2, 2]),
        Factor("couple_bc", ["B", "C"], couple, [2, 2]),
    ]
    return FactorGraph(variables, factors)


def conditional_by_enumeration(graph, var, context):
    """P(var | context) by brute-force summation over all joint states."""
    probs = joint_weights_by_enumeration(graph, var, context)
    return probs / probs.sum()


def joint_weights_by_enumeration(graph, var, context):
    """The unnormalized P(var = v, context) for every v, by brute-force
    summation over all joint states; all zero when the context is impossible."""
    names = graph.var_names
    arities = [graph.arity[n] for n in names]
    idx = names.index(var)
    probs = np.zeros(graph.arity[var])
    for config in product(*(range(a) for a in arities)):
        if any(config[names.index(k)] != v for k, v in context.items()):
            continue
        w = 1.0
        for f in graph.factors:
            w *= f.table[tuple(config[names.index(v)] for v in f.vars)]
        probs[config[idx]] += w
    return probs


def joint_by_enumeration(graph, evidence=None):
    """Normalized joint table by direct product, independent of numpy broadcasting."""
    names = graph.var_names
    arities = [graph.arity[n] for n in names]
    ev = graph.evidence if evidence is None else evidence
    joint = np.zeros(tuple(arities))
    for config in product(*(range(a) for a in arities)):
        if any(config[names.index(k)] != v for k, v in ev.items()):
            continue
        w = 1.0
        for f in graph.factors:
            w *= f.table[tuple(config[names.index(v)] for v in f.vars)]
        joint[config] = w
    return joint / joint.sum()


def set_partitions(items):
    """All set partitions of a sequence (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def canonical_partition(blocks):
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def _log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def dpmm_partition_posterior(data, alpha=1.0, beta_on=0.5, beta_off=0.5):
    """Exact posterior over partitions: CRP prior x Beta-Bernoulli evidence."""
    data = [np.asarray(d, dtype=int) for d in data]
    n = len(data)
    log_weights = {}
    for part in set_partitions(range(n)):
        lw = len(part) * math.log(alpha)
        for block in part:
            lw += math.lgamma(len(block))
            stack = np.stack([data[i] for i in block])
            c = stack.sum(axis=0)
            m = len(block)
            for pixel_on in c:
                lw += _log_beta(beta_on + pixel_on, beta_off + m - pixel_on)
                lw -= _log_beta(beta_on, beta_off)
        log_weights[canonical_partition(part)] = lw
    peak = max(log_weights.values())
    weights = {k: math.exp(v - peak) for k, v in log_weights.items()}
    total = sum(weights.values())
    return {k: v / total for k, v in weights.items()}


def dpmm_reference_energies(clusters, datum, alpha, beta_on, beta_off):
    """CRP energies of datum, one per cluster in ascending id order, then the
    new-cluster slot; clusters maps id -> (count, per-pixel on-counts).

    One cluster at a time: the log2 predictive row of each cluster is summed
    on its own.
    """
    on = np.asarray(datum) == 1
    energies = []
    for cid in sorted(clusters):
        count, c = clusters[cid]
        denom = count + beta_on + beta_off
        pred = np.where(on, (c + beta_on) / denom, (count - c + beta_off) / denom)
        energies.append(float(-np.log2(count) - np.log2(pred).sum()))
    prior = np.where(on, beta_on, beta_off) / (beta_on + beta_off)
    energies.append(float(-np.log2(alpha) - np.log2(prior).sum()))
    return energies


def dpmm_reference_chain(data, sweeps, stream, fmt, alpha, beta_on, beta_off):
    """Batch collapsed Gibbs from dpmm_reference_energies: each datum drawn
    in turn, then `sweeps` passes in index order, ids founded in increasing
    order. Returns (energies of every draw, final assignments, the partition
    after each sweep)."""
    data = [np.asarray(d, dtype=np.int64).reshape(-1) for d in data]
    clusters = {}
    assignments = [None] * len(data)
    draws, partitions = [], []
    next_id = 0

    def draw(idx):
        nonlocal next_id
        energies = dpmm_reference_energies(clusters, data[idx], alpha, beta_on, beta_off)
        draws.append(energies)
        shift = min(energies)
        vec = EnergyVector.from_energies([e - shift for e in energies], fmt)
        ids = sorted(clusters)
        choice = discrete_sample(vec, stream)
        if choice < len(ids):
            cid = ids[choice]
        else:
            cid, next_id = next_id, next_id + 1
            clusters[cid] = (0, np.zeros_like(data[idx]))
        count, c = clusters[cid]
        clusters[cid] = (count + 1, c + data[idx])
        assignments[idx] = cid

    for idx in range(len(data)):
        draw(idx)
    for _ in range(sweeps):
        for idx in range(len(data)):
            cid = assignments[idx]
            count, c = clusters[cid]
            if count == 1:
                del clusters[cid]
            else:
                clusters[cid] = (count - 1, c - data[idx])
            draw(idx)
        blocks = {}
        for idx, cid in enumerate(assignments):
            blocks.setdefault(cid, []).append(idx)
        partitions.append(canonical_partition(blocks.values()))
    return draws, assignments, partitions


def partition_histogram(partitions):
    hist = {}
    for p in partitions:
        hist[p] = hist.get(p, 0) + 1
    total = len(partitions)
    return {k: v / total for k, v in hist.items()}


def dict_tv(p, q):
    """Total variation between two distributions given as dicts."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def separated_dataset():
    """Two well-separated groups: 10 all-zeros and 10 all-ones, P=16."""
    return [np.zeros(16, dtype=int)] * 10 + [np.ones(16, dtype=int)] * 10


def ambiguous_dataset():
    """Three clear sources where the third may plausibly split into two.

    Clusters on P=8: pattern a uses pixels 0-1, pattern b uses 2-3, and the
    third group shares pixel 4 but differs on pixels 5-6, leaving it
    borderline between one cluster and two.
    """
    a = [1, 1, 0, 0, 0, 0, 0, 0]
    b = [0, 0, 1, 1, 0, 0, 0, 0]
    c1 = [0, 0, 0, 0, 1, 1, 1, 0]
    c2 = [0, 0, 0, 0, 1, 0, 0, 0]
    return [np.array(a)] * 6 + [np.array(b)] * 6 + [np.array(c1)] * 4 + [np.array(c2)] * 4


def evidence_by_pixel(first, second, offsets, c_max, scale):
    """Truncated absolute difference per site and candidate, pixel by pixel.

    Candidate k of site (i, j) compares first[i, j] with second[i + dy, j + dx]
    for offsets[k] = (dy, dx); a partner outside the image costs c_max.
    """
    h, w = first.shape
    y = np.empty((h, w, len(offsets)))
    for i in range(h):
        for j in range(w):
            for k, (dy, dx) in enumerate(offsets):
                if 0 <= i + dy < h and 0 <= j + dx < w:
                    cost = min(abs(float(first[i, j]) - float(second[i + dy, j + dx])), c_max)
                else:
                    cost = c_max
                y[i, j, k] = cost / scale
    return y


def specialized_row(factor, var, snapshot, fmt, temperature) -> list:
    """One factor's energies for var given its neighbors' values (snapshot
    maps a name to its value), specialized and quantized on their own.

    The row is -log2 of the factor's weights over the table's peak, shifted
    to minimum zero unless every entry is +inf, then divided by the
    temperature. With a format, a zero weight is the sentinel and a finite
    energy is rounded half to even to a raw word below it.
    """
    moved = np.moveaxis(factor.table, factor.vars.index(var), -1)
    weights = moved[tuple(snapshot[n] for n in factor.vars if n != var)]
    with np.errstate(divide="ignore"):
        row = -np.log2(weights / factor.table.max())
    low = row.min()
    energies = (row - low if math.isfinite(low) else row).tolist()
    if fmt is None:
        return [e / temperature for e in energies]
    return [fmt.max_raw if e == math.inf
            else min(round(e / temperature * (1 << fmt.frac)), fmt.max_raw - 1)
            for e in energies]


def gibbs_energies_by_parts(factors, var, arity, snapshot, fmt, temperature) -> list:
    """GibbsKernel.conditional_energies: the factors' rows summed in order;
    with a format, a value that any row saturates is the sentinel, and the
    rest are shifted to minimum zero and clamped below it."""
    rows = [specialized_row(f, var, snapshot, fmt, temperature) for f in factors]
    if fmt is None:
        energies = [0.0] * arity
        for row in rows:
            for v in range(arity):
                energies[v] += row[v]
        return energies
    sat = fmt.max_raw
    sums = [None if any(row[v] == sat for row in rows) else sum(row[v] for row in rows)
            for v in range(arity)]
    live = [s for s in sums if s is not None]
    if not live:
        return [sat] * arity
    low = min(live)
    return [sat if s is None else min(s - low, sat - 1) for s in sums]


def mh_energy_by_parts(factors, var, value, snapshot, fmt, temperature):
    """MhKernel.tabulate at value: the factors' entries summed in order;
    None when a fixed-point entry is the sentinel."""
    entries = [specialized_row(f, var, snapshot, fmt, temperature)[value] for f in factors]
    if fmt is None:
        total = 0.0
        for e in entries:
            total += e
        return total
    return None if fmt.max_raw in entries else sum(entries)


def recomputing_twin(assembly):
    """The assembly, with every kernel computing its conditional row on every
    call, the way a kernel past transition.CPT_MAX_ENTRIES does, so no row
    is ever cached."""
    for circ in assembly.circuits.values():
        circ.kernel.blanket = None
    return assembly
