"""Stochastic transition circuits: state registers driven by sampling kernels.

A transition circuit is a kernel, which names a register's variable and
domain and draws its next value given the neighbors' values, and the stream
it draws from. Circuits compose into assemblies scheduled in groups; no two
circuits in a group may interact, which is checked when the assembly is
built, so every group updates against a snapshot taken at group start and
parallel execution is exactly equivalent to any serialization of the group.

Kernels work in the energy domain. Each factor touching the variable is
specialized at build time: its table is reorganized so the variable's axis
is last and every row (one per neighbor configuration) is renormalized to
min zero, which keeps fixed-point sums well inside the representable range
without changing any conditional distribution. Zero weights are saturated
("impossible") and additions clamp into the saturation sentinel. Kernels
read their rows from an _EnergyTable, which holds each distinct (table,
axis) block once and quantizes them all at one temperature. compile builds
one table per assembly, so its kernels anneal together; a kernel built
alone gets its own.

A scalar kernel, built by _Kernel, draws from its conditional probability
table: one row per configuration of its Markov blanket, the sorted union of
its parts' keys. Every Gibbs, MH and spike step reads its row through
_cpt_row, and _part_sums adds the parts' energies that fill it, in one loop
for both formats: a Gibbs row is the weights, their total and the spike
rates, an MH row every value's energy. The table caches each row, keyed by
the kernel's blanket getter and the blanket's values, on its first read.
Adding a block or changing the temperature empties the cache; a Gibbs
conditional with no support raises and is never cached. A kernel whose
blanket configurations times arity exceed CPT_MAX_ENTRIES caches nothing:
its row is computed on the call and not stored.

An assembly's registers are one int64 vector in sorted-name order. Scalar
kernels read a list snapshot of it; a wide color class of fixed-point Gibbs
circuits runs as lanes on it: a _LaneGroup of index arrays into their table
and into the vector, with one uint64 xorshift word per circuit, whose one
step updates every lane at once, bit-identical to updating the circuits one
at a time; its arrays are candidate-major, lanes last. _lower lowers wide
groups once per assembly, when _lanes_fit says their weights fit int64;
each run binds their live members by slicing the lane axis. mrf lowers a
lattice to two such groups on a table of its own, under the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType

import numpy as np

from . import csv_text
from .entropy import EntropyStream
from .errors import (
    ConfigError,
    DomainError,
    NoSupportError,
    ScheduleViolationError,
    UnknownVariableError,
)
from .factorgraph import Factor
from .lowprec import (
    EnergyFormat,
    _multiplier_table,
    check_weight_width,
    float_weights,
    integer_weights,
    invert_cdf,
    weight_bits,
)

#: A group runs as lanes only from this many live circuits; narrower groups
#: lose more to per-step array overhead than they save (crossover near 8).
LANE_MIN_WIDTH = 16
#: A scalar kernel caches its conditional rows only while blanket
#: configurations x arity stay within this many entries. A compiled d=8
#: lattice site (8^4 x 8 = 32,768) computes each row per call instead, so a
#: long run on a large lattice cannot grow the cache without limit.
CPT_MAX_ENTRIES = 4096
#: Lane weights and their running CDF are int64: weight_bits(fmt, K) must not exceed this.
LANE_WEIGHT_BITS = 62
#: The float path's largest finite energy / T: a kernel can add 2^23 parts
#: of it without overflowing to +inf, its mark of a zero weight.
FLOAT_ENERGY_CAP = 2.0 ** 1000
_POW2 = np.left_shift(1, np.arange(63, dtype=np.int64))  # 2^0 .. 2^62


def _specialized_energy_table(factor: Factor, var: str) -> np.ndarray:
    """Float energies of the factor with var's axis last and per-row minimum
    zero; zero weights become +inf."""
    peak = factor.table.max()
    if peak <= 0.0:
        raise NoSupportError(f"factor {factor.name!r} has an all-zero table")
    return _energy_rows(np.moveaxis(factor.table, factor.vars.index(var), -1), peak)


def _energy_rows(weights: np.ndarray, peak) -> np.ndarray:
    """-log2(weights / peak), each row along the last axis shifted to minimum zero.

    Zero weights become +inf; a row of zeros keeps its infinities. peak
    broadcasts, so a stack of tables can be specialized in one call with
    exactly the per-table arithmetic.
    """
    with np.errstate(divide="ignore"):
        energy = -np.log2(weights / peak)
    mins = np.min(energy, axis=-1, keepdims=True)
    return energy - np.where(np.isfinite(mins), mins, 0.0)


def _quantize_rows(float_rows: np.ndarray, fmt: EnergyFormat | None,
                   temperature: float) -> np.ndarray:
    """Raw words of float energy rows at a temperature, as int64, or energy
    / T as floats on the float path (fmt None).

    The sentinel, max_raw or +inf, is reserved for true zero weights;
    finite energies clamp below it, to max_raw - 1 or FLOAT_ENERGY_CAP, so
    cooling never manufactures impossible states, even where energy / T
    overflows.
    """
    finite = np.isfinite(float_rows)
    with np.errstate(over="ignore"):
        if fmt is None:
            return np.where(finite, np.minimum(float_rows / temperature, FLOAT_ENERGY_CAP),
                            np.inf)
        raw = np.rint(float_rows / temperature * (1 << fmt.frac))
    return np.where(finite, np.minimum(raw, fmt.max_raw - 1), fmt.max_raw).astype(np.int64)


def _no_support(var: str) -> NoSupportError:
    return NoSupportError(f"variable {var!r}: conditional has no support", variable=var)


class _EnergyTable:
    """One format's energy rows, at one temperature, for kernels and lanes.

    blocks maps a key, (table bytes, shape, axis) for a factor, to the
    (offset, shape, read-only flat float rows) of its specialized rows, held
    once. Blocks are only appended, so an offset stays valid; the zeros that
    lanes read for missing parts are a block like any other. The first read
    after an add or a temperature change quantizes once (_quantize_rows):
    raw is int64 raw words (energies / T on the float path), and rows, its
    Python list for scalar kernels, is built on first read. Both are cached
    attributes, so the read a kernel makes on every conditional is a
    lookup, not a call. cpt, the scalar kernels' conditional rows (see
    _cpt_row), goes with them.
    """

    def __init__(self, fmt: EnergyFormat | None):
        self.fmt = fmt
        self.temperature = 1.0
        self.blocks: dict = {}
        self.size = 0

    def add(self, key, specialize, *args) -> tuple:
        """key's entry in blocks; when key is new, specialize(*args) gives its
        float energies, candidate axis last."""
        entry = self.blocks.get(key)
        if entry is None:
            energy = specialize(*args)
            flat = energy.reshape(-1)
            flat.flags.writeable = False
            entry = self.blocks[key] = (self.size, energy.shape, flat)
            self.size += flat.size
            self._drop_quantized()
        return entry

    def set_temperature(self, temperature: float):
        if temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {temperature}")
        if temperature != self.temperature:
            self.temperature = temperature
            self._drop_quantized()

    def _drop_quantized(self):
        for name in ("raw", "rows", "cpt"):
            self.__dict__.pop(name, None)

    @cached_property
    def raw(self) -> np.ndarray:
        # the empty start serves a table of factorless kernels
        floats = np.concatenate([np.empty(0)] + [b for _, _, b in self.blocks.values()])
        return _quantize_rows(floats, self.fmt, self.temperature)

    @cached_property
    def rows(self) -> list:
        return self.raw.tolist()

    @cached_property
    def cpt(self) -> dict:
        return {}


class _FactorPart:
    """One factor's contribution to a variable's conditional, precompiled.

    Each distinct (table, axis) is specialized once per _EnergyTable, so
    parts of the same (table, axis) on one table share the block at offset.
    keys index a snapshot: the neighbors' names, or in an assembly their
    registers.
    """

    __slots__ = ("neighbors", "keys", "strides", "offset", "arity")

    def __init__(self, factor: Factor, var: str, table: _EnergyTable):
        key = (factor.table.tobytes(), factor.table.shape, factor.vars.index(var))
        self.offset, shape, _ = table.add(
            key, _specialized_energy_table, factor, var)
        self.neighbors = self.keys = tuple(v for v in factor.vars if v != var)
        self.arity = shape[-1]
        self.strides = tuple(math.prod(shape[t + 1:]) for t in range(len(shape) - 1))

    def base_offset(self, snapshot) -> int:
        """Where the row for the snapshot's neighbor values starts in the table."""
        base = self.offset
        for key, stride in zip(self.keys, self.strides):
            base += snapshot[key] * stride
        return base


def _blanket(parts):
    """A new getter of the blanket's values, the sorted union of the parts'
    keys, from a snapshot; re-derived whenever the keys are rebound."""
    keys = sorted({k for p in parts for k in p.keys})
    return itemgetter(*keys) if keys else lambda snapshot: ()


def _cpt_row(kernel, snapshot):
    """kernel.tabulate(snapshot), the kernel's conditional row for the
    snapshot's blanket values, cached on its table while the kernel is
    within CPT_MAX_ENTRIES; past it (kernel.blanket is None) the row is
    computed on the call and not stored.

    A Gibbs tabulate raises NoSupportError for a conditional with no
    support, so such a row is never cached and every read raises again.
    """
    blanket = kernel.blanket
    if blanket is None:
        return kernel.tabulate(snapshot)
    # the getter is the kernel's own, and unlike the kernel it refers to no
    # table, so the cache makes no reference cycle
    key = (blanket, blanket(snapshot))
    cpt = kernel.table.cpt
    try:
        return cpt[key]
    except KeyError:
        row = cpt[key] = kernel.tabulate(snapshot)
        return row


def _part_sums(kernel, snapshot) -> list:
    """Each value's sum of the kernel's part rows for the snapshot, the parts
    added in order: wide integers, or floats on the float path, and
    kernel.impossible for a value that some part saturates (zero weight)."""
    rows = kernel.table.rows
    bases = [p.base_offset(snapshot) for p in kernel.parts]
    sat = kernel.sat
    sums = []
    for v in range(kernel.arity):
        total = 0
        for base in bases:
            b = rows[base + v]
            if b == sat:
                total = kernel.impossible
                break
            total += b
        sums.append(total)
    return sums


def _rates(weights) -> list:
    """Spike rates: weights scaled so the minimum-energy unit, the
    heaviest, has rate one."""
    top = max(weights)
    return [w / top for w in weights]


class _Kernel:
    """A scalar kernel's variable, arity, format, table (its own when table
    is None), factor parts and blanket getter (None past CPT_MAX_ENTRIES),
    all checked. sat is the table's word for a zero weight and impossible a
    row's: max_raw and None at fixed point, both +inf on the float path;
    unit is one bit of energy, 2^f or 1."""

    def __init__(self, var: str, arity: int, factors, fmt: EnergyFormat | None,
                 table: _EnergyTable | None = None):
        if arity < 1:
            raise ConfigError(f"variable {var!r} has arity {arity}")
        table = _EnergyTable(fmt) if table is None else table
        if table.fmt != fmt:
            raise ConfigError(f"kernel of {var!r} has another format than its table")
        self.parts = [_FactorPart(f, var, table) for f in factors]
        if any(p.arity != arity for p in self.parts):
            raise ConfigError(f"factor table arity mismatch on {var!r}")
        sizes = {v: k for f in factors for v, k in zip(f.vars, f.table.shape) if v != var}
        cached = math.prod(sizes.values()) * arity <= CPT_MAX_ENTRIES
        self.blanket = _blanket(self.parts) if cached else None
        self.var, self.arity, self.fmt, self.table = var, arity, fmt, table
        self.sat, self.impossible, self.unit = (
            (math.inf, math.inf, 1) if fmt is None else (fmt.max_raw, None, 1 << fmt.frac))

    def set_temperature(self, temperature: float):
        """Set T on the kernel's table, so on every kernel that shares it: in
        a compiled assembly, all of them."""
        self.table.set_temperature(temperature)


class GibbsKernel(_Kernel):
    """Samples the variable's full conditional given its neighbors."""

    def __init__(self, var: str, arity: int, factors, fmt: EnergyFormat | None,
                 table: _EnergyTable | None = None):
        if fmt is not None:
            check_weight_width(fmt)
        super().__init__(var, arity, factors, fmt, table)

    def conditional_energies(self, snapshot):
        """Raw (fixed-point) or float energies of each candidate value.

        Fixed-point sums run in a wide accumulator (a zero weight in any
        part makes the value impossible), are renormalized to minimum zero,
        and only then clamp back into the representable range: a possible
        value still beyond it after renormalization clamps to max_raw - 1,
        the largest possible energy, never to "impossible".
        """
        sums = _part_sums(self, snapshot)
        if self.fmt is None:
            return sums
        sat = self.sat
        live = [s for s in sums if s is not None]
        if not live:
            return [sat] * self.arity
        low = min(live)
        return [sat if s is None else min(s - low, sat - 1) for s in sums]

    def weights(self, snapshot) -> list:
        """The conditional's exact integer weights (float weights on the
        float path); the minimum-energy value has the largest weight."""
        energies = self.conditional_energies(snapshot)
        try:
            if self.fmt is None:
                return float_weights(energies)
            return integer_weights(energies, self.fmt)
        except NoSupportError:
            raise _no_support(self.var) from None

    def tabulate(self, snapshot) -> tuple:
        """The conditional's CPT row: (weights, their total, spike rates)."""
        weights = self.weights(snapshot)
        # left to right, as invert_cdf accumulates: the builtin sum of floats
        # is compensated from Python 3.12 on
        total = 0
        for w in weights:
            total += w
        return weights, total, _rates(weights)

    def step(self, current: int, snapshot, stream: EntropyStream) -> int:
        weights, total, _ = _cpt_row(self, snapshot)
        if self.fmt is None:
            return invert_cdf(weights, stream.next_unit() * total)
        return invert_cdf(weights, stream.next_below(total))


class MhKernel(_Kernel):
    """Metropolis kernel with the uniform proposal, next_below(arity).

    The proposal is symmetric, so acceptance needs no Hastings ratio; it is
    computed in the energy domain: accept v' over v with probability
    min(1, 2^(e(v) - e(v'))), e a CPT row entry over unit. On a conditional
    with no support a step raises NoSupportError, as a Gibbs step does,
    unless it proposes the current value at arity two or more."""

    def tabulate(self, snapshot) -> list:
        """The conditional's CPT row: every value's energy (_part_sums)."""
        return _part_sums(self, snapshot)

    def step(self, current: int, snapshot, stream: EntropyStream) -> int:
        proposed = stream.next_below(self.arity)
        if proposed == current and self.arity > 1:
            return current
        row = _cpt_row(self, snapshot)
        e_cur, e_new = row[current], row[proposed]
        impossible = self.impossible
        if e_new == impossible:
            if e_cur == impossible and row.count(impossible) == self.arity:
                raise _no_support(self.var)
            return current
        if e_cur == impossible:
            return proposed
        diff = (e_cur - e_new) / self.unit
        if diff >= 0:
            return proposed
        return proposed if stream.next_unit() < 2.0 ** diff else current


@dataclass
class FaultModel:
    """Independent per-bit register flips applied after each transition."""

    bit_flip_rate: float

    def __post_init__(self):
        if not 0.0 <= self.bit_flip_rate <= 1.0:
            raise ConfigError(f"bit flip rate must be in [0, 1], got {self.bit_flip_rate}")


@dataclass
class TransitionCircuit:
    """A state register: the kernel names its variable and domain, and draws from stream."""

    kernel: _Kernel
    stream: EntropyStream

    @property
    def var(self) -> str:
        return self.kernel.var

    @property
    def arity(self) -> int:
        return self.kernel.arity

    @property
    def register_bits(self) -> int:
        return max(1, (self.arity - 1).bit_length())


class TransitionAssembly:
    """Circuits plus interaction graph, schedule groups, and clamps.

    The interaction graph, edges, comes from the kernels: a frozenset of
    sorted name pairs, one for each variable a circuit's factor parts read.
    The schedule, a tuple of name tuples, is checked against it when the
    assembly is built: a group of interacting circuits raises
    ScheduleViolationError, then a name with no circuit DomainError. Both
    are read-only, so no schedule runs unchecked.
    The registers are one int64 vector, values, in the sorted-name order of
    circuits, and index maps a name to its register. Kernel parts are bound
    to read neighbors by register index, so a kernel serves one register
    layout. A scan_stream, when set, switches
    run() to random-scan mode: each sweep draws variable indices uniformly
    (a mixture hybrid kernel) instead of cycling the schedule groups.
    """

    def __init__(self, circuits, schedule, clamped=None, state=None,
                 meta=None, scan_stream=None):
        self.circuits: dict[str, TransitionCircuit] = {
            c.var: c for c in sorted(circuits, key=lambda c: c.var)}
        self.names = list(self.circuits)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.values = np.zeros(len(self.names), np.int64)
        self._schedule = tuple(tuple(g) for g in schedule)
        edges = set()
        self.clamped: dict[str, int] = {}
        self.scan_stream = scan_stream
        for name, value in dict(state or {}).items():
            self.values[self._register(name, value)] = value
        for name, value in dict(clamped or {}).items():
            self.clamp(name, value)
        for circ in self.circuits.values():
            for part in circ.kernel.parts:
                try:
                    keys = tuple(self.index[n] for n in part.neighbors)
                except KeyError as err:
                    raise UnknownVariableError(f"kernel of {circ.var!r} reads {err.args[0]!r}, "
                                               "which has no circuit") from None
                if part.keys not in (part.neighbors, keys):
                    raise ConfigError(f"{circ.var!r}: kernel bound to other registers")
                part.keys = keys
                edges.update(tuple(sorted((circ.var, n))) for n in part.neighbors)
            if circ.kernel.blanket is not None:
                circ.kernel.blanket = _blanket(circ.kernel.parts)
        self._edges = frozenset(edges)
        violations = validate_schedule(self)
        if violations:
            raise ScheduleViolationError(
                f"schedule updates interacting circuits together: {violations}", violations)
        for group in self.schedule:
            for name in group:
                if name not in self.circuits:
                    raise DomainError(f"schedule names unknown variable {name!r}")
        self.meta = dict(meta or {})
        self._lanes = None  # _lower(self), built on the first run

    @property
    def schedule(self) -> tuple[tuple[str, ...], ...]:
        return self._schedule

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return self._edges

    @property
    def state(self) -> MappingProxyType:  # a read-only copy, by name
        return MappingProxyType(dict(zip(self.names, self.values.tolist())))

    def _register(self, name, value) -> int:  # once value is checked
        if name not in self.circuits:
            raise DomainError(f"unknown variable {name!r}")
        if not isinstance(value, (int, np.integer)) or not (
                0 <= value < self.circuits[name].arity):
            raise DomainError(f"value {value} outside domain of {name!r}")
        return self.index[name]

    def clamp(self, name: str, value: int):
        """Fix a variable; takes effect on the next run without recompiling."""
        self.values[self._register(name, value)] = value
        self.clamped[name] = value

    def unclamp(self, name: str):
        self.clamped.pop(name, None)

    def set_temperature(self, temperature: float):
        """Set T on every kernel's table; quantizing waits for the next read."""
        for circ in self.circuits.values():
            circ.kernel.set_temperature(temperature)


def validate_schedule(assembly: TransitionAssembly):
    """Return every same-group adjacent pair as (var_a, var_b, group_index).

    Pairs come in schedule order: by group, then by the positions of the
    two names within it.
    """
    where: dict[str, list[tuple[int, int]]] = {}
    for gi, group in enumerate(assembly.schedule):
        for pos, name in enumerate(group):
            where.setdefault(name, []).append((gi, pos))
    found = set()
    for a, b in assembly.edges:
        for ga, pa in where.get(a, ()):
            for gb, pb in where.get(b, ()):
                if ga == gb and pa != pb:
                    found.add((ga, min(pa, pb), max(pa, pb)))
    return [(assembly.schedule[gi][i], assembly.schedule[gi][j], gi)
            for gi, i, j in sorted(found)]


@dataclass
class Trace:
    var_names: list[str]
    rows: list[tuple]
    meta: dict = field(default_factory=dict)

    def column(self, name: str) -> list[int]:
        idx = self.var_names.index(name)
        return [r[idx] for r in self.rows]

    def empirical_joint(self, arities) -> np.ndarray:
        arities = tuple(arities)
        flat = np.zeros(len(self.rows), np.int64)
        for name, k in zip(self.var_names, arities):
            flat = flat * k + np.asarray(self.column(name), np.int64)
        counts = np.bincount(flat, minlength=math.prod(arities)).reshape(arities)
        return counts / max(1, len(self.rows))

    def marginal(self, name: str, arity: int) -> np.ndarray:
        column = np.asarray(self.column(name), np.int64)  # int64 even with no rows
        return np.bincount(column, minlength=arity) / max(1, len(self.rows))

    def to_csv(self) -> str:
        return csv_text(",".join(self.var_names), self.rows)


def _apply_fault(value: int, circuit: TransitionCircuit, rate: float) -> int:
    mask = 0
    stream = circuit.stream
    for b in range(circuit.register_bits):
        if stream.next_unit() < rate:
            mask |= 1 << b
    if mask:
        value = (value ^ mask) % circuit.arity
    return value


def _bit_length(v: np.ndarray) -> np.ndarray:
    """int.bit_length of every nonnegative int64 entry: how many powers of
    two are at or below it."""
    return np.searchsorted(_POW2, v, side="right")


def _lane_below(bound: np.ndarray, lanes: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """EntropyStream.next_below(bound) on the first len(bound) lanes.

    Every bound is at least 2^16 (the weight of the minimum-energy
    candidate) and at most 2^62, so no lane takes next_below's bound-1
    shortcut and each rejection attempt is one 64-bit word. The first
    attempt runs in place on the prefix; only rejected lanes retry.
    """
    shift = (64 - _bit_length(bound - 1)).astype(np.uint64)
    bound = bound.view(np.uint64)  # nonnegative, so the same values unsigned
    x = lanes[:bound.size]
    x ^= x << 13
    x ^= x >> 7
    x ^= x << 17
    draws[:bound.size] += 1
    out = x >> shift
    pending = np.flatnonzero(out >= bound)
    while pending.size:
        x = lanes[pending]
        x ^= x << 13
        x ^= x >> 7
        x ^= x << 17
        lanes[pending] = x
        draws[pending] += 1
        v = x >> shift[pending]
        ok = v < bound[pending]
        out[pending[ok]] = v[ok]
        pending = pending[~ok]
    return out.view(np.int64)


class _LaneGroup:
    """A color class of fixed-point Gibbs circuits as lanes: the one lane kernel.

    Lane m updates values[sites[m]] of an int64 value vector. Its energy for
    candidate v is the sum over its parts p of table.raw[base[p, m] + v], where
    base[p, m] = offset[p, m] + sum_t values[nbr[p, t, m]] * stride[p, t, m]
    and table is the lanes' fixed-point _EnergyTable, at its temperature:
    exactly the scalar kernel's part sum. Where every part reads at most one
    neighbor, nbr and stride may drop their middle axis. pad, which
    broadcasts against (candidates, lanes), masks candidates past a lane's
    arity. words and draws are each lane's xorshift stream word and draw
    count, advanced in place, and name(site) names the variable at a site.
    The arrays are lanes last: the step gathers one part at a time into a
    (candidates, lanes) block and adds it in place, so every add, minimum
    and CDF step runs on whole rows (one (parts, candidates, lanes) gather
    reduced over parts measured about twice as slow).
    """

    def __init__(self, sites, nbr, stride, offset, pad, words, name, table: _EnergyTable):
        self.sites = sites
        self.nbr = nbr
        self.stride = stride
        self.offset = offset
        self.pad = pad
        self.words = np.array(words, np.uint64)
        self.draws = np.zeros(len(sites), np.int64)
        self.name = name
        self.table = table
        self.candidates = np.arange(pad.shape[0])[:, None]

    def step(self, values: np.ndarray):
        """GibbsKernel.step on every lane, all reading values as they stand.

        The drawn values are written to values[sites]. As the scalar path
        updates in order and stops at the first conditional with no support,
        only the lanes before the first empty one draw and are written, and
        the NoSupportError names that lane's variable.
        """
        base = values[self.nbr] * self.stride
        if base.ndim == 3:
            base = base.sum(axis=1)
        base += self.offset
        fmt, table = self.table.fmt, self.table.raw
        sat = fmt.max_raw
        sums = table[base[0] + self.candidates]
        dead = self.pad | (sums == sat)
        for p in range(1, len(base)):
            raw = table[base[p] + self.candidates]
            sums += raw
            dead |= raw == sat
        np.putmask(sums, dead, (1 << 63) - 1)  # never the minimum, then weightless
        sums -= sums.min(axis=0)
        energy = np.minimum(sums, sat - 1, out=sums)
        weights = _multiplier_table(fmt.frac)[1][energy & ((1 << fmt.frac) - 1)]
        weights <<= (sat >> fmt.frac) - (energy >> fmt.frac)
        np.putmask(weights, dead, 0)
        for j in range(1, len(weights)):  # the running CDF, row by row
            weights[j] += weights[j - 1]
        empty = weights[-1] == 0  # a live candidate weighs at least 2^15
        stop = int(empty.argmax()) if empty.any() else len(empty)
        u = _lane_below(weights[-1, :stop], self.words, self.draws)
        # as the CDF never decreases: the first candidate whose CDF exceeds u
        values[self.sites[:stop]] = (u >= weights[:, :stop]).sum(axis=0)
        if stop < len(empty):
            raise _no_support(self.name(int(self.sites[stop])))


def _lanes_fit(fmt: EnergyFormat | None, k: int) -> bool:
    """Whether the lane kernel can weigh k candidates in fmt: a fixed-point
    format whose weight_bits(fmt, k) is at most LANE_WEIGHT_BITS."""
    return fmt is not None and weight_bits(fmt, k) <= LANE_WEIGHT_BITS


def _lower(assembly: TransitionAssembly) -> dict:
    """{group index: (sites, arrays, table)} for each group the lane kernel
    can take; built once per assembly.

    A group qualifies when it has at least LANE_MIN_WIDTH circuits, all
    Gibbs kernels on one table, when _lanes_fit(fmt, K) for its widest arity
    K, and when no name appears twice in the schedule. sites are the
    members' registers, and arrays their nbr, stride, offset and pad as
    _LaneGroup takes them, nbr holding register indices and offset table
    offsets. Padding parts read a zero block as wide as the group's widest
    arity, which the lowering adds to the end of the table.
    """
    names = [n for group in assembly.schedule for n in group]
    if len(set(names)) != len(names):
        return {}
    lowered = {}
    for gi, group in enumerate(assembly.schedule):
        if len(group) < LANE_MIN_WIDTH:
            continue
        kernels = [assembly.circuits[n].kernel for n in group]
        table = kernels[0].table
        k = max(kern.arity for kern in kernels)
        if not _lanes_fit(table.fmt, k) or any(
                type(kern) is not GibbsKernel or kern.table is not table for kern in kernels):
            continue
        n_parts = max(1, max(len(kern.parts) for kern in kernels))
        width = max((len(p.keys) for kern in kernels for p in kern.parts), default=0)
        nbr = np.zeros((n_parts, width, len(group)), np.int64)
        stride = np.zeros_like(nbr)
        # keyed by size, so the zeros come last: a lane reads k candidates
        # from every row, past the end of a narrower part's block
        zeros = table.add(("zeros", k, table.size), np.zeros, k)[0]
        offset = np.full((n_parts, len(group)), zeros, np.int64)
        for m, kern in enumerate(kernels):
            for j, part in enumerate(kern.parts):
                offset[j, m] = part.offset
                nbr[j, :len(part.keys), m] = part.keys
                stride[j, :len(part.strides), m] = part.strides
        pad = np.arange(k)[:, None] >= np.array([kern.arity for kern in kernels])
        sites = np.array([assembly.index[n] for n in group], np.int64)
        lowered[gi] = (sites, (nbr, stride, offset, pad), table)
    return lowered


def _bind_lanes(assembly: TransitionAssembly) -> dict:
    """{group index: _LaneGroup} for the lowered groups with at least
    LANE_MIN_WIDTH live circuits.

    The lanes are the live circuits, with their stream words loaded; they
    step assembly.values in place, reading their table at its temperature.
    """
    if assembly._lanes is None:
        assembly._lanes = _lower(assembly)
    free = np.ones(len(assembly.names), bool)
    free[[assembly.index[n] for n in assembly.clamped]] = False
    registers = list(assembly.circuits.values())
    bound = {}
    for gi, (sites, arrays, table) in assembly._lanes.items():
        live = free[sites]
        if live.sum() >= LANE_MIN_WIDTH:
            if not live.all():  # else share the arrays: the lane step never writes them
                sites, arrays = sites[live], [a[..., live] for a in arrays]
            words = [registers[i].stream.state for i in sites.tolist()]
            bound[gi] = _LaneGroup(sites, *arrays, words, assembly.names.__getitem__, table)
    return bound


def _sweep(assembly: TransitionAssembly, sweeps: int, burn_in: int | None,
           thin: int, update, lanes: bool = False):
    """The sweep loop shared by every realization of the transitions.

    update(i, snapshot, epoch) returns register i's next value. Within a
    group every circuit reads a list of the registers taken at group start;
    in random-scan mode each draw reads a list kept live through the sweep.
    An epoch is one schedule group or one random-scan draw. A row of the
    registers is recorded after each retained sweep. Returns (Trace,
    epochs); the trace's metadata is the one every realization records.

    With lanes set (update must then be the kernel's own step), each
    lowered group with at least LANE_MIN_WIDTH live circuits runs as one
    lane step instead of through update; random-scan never does.
    """
    if sweeps < 1:
        raise ConfigError(f"need at least one sweep, got {sweeps}")
    if thin < 1:
        raise ConfigError(f"thin must be >= 1, got {thin}")
    if burn_in is not None and burn_in < 0:
        raise ConfigError(f"burn-in must be nonnegative, got {burn_in}")
    if burn_in is None:
        burn_in = 10 * len(assembly.circuits)
    values, index, clamped = assembly.values, assembly.index, assembly.clamped
    rows = []
    epoch = 0
    scan = assembly.scan_stream
    unclamped = [i for i, n in enumerate(assembly.names) if n not in clamped]
    groups = [[index[n] for n in group if n not in clamped] for group in assembly.schedule]
    bound = _bind_lanes(assembly) if lanes and scan is None else {}
    try:
        for sweep in range(burn_in + sweeps):
            if scan is not None and unclamped:
                # mixture kernel: one sweep = |unclamped| uniformly drawn
                # singleton updates
                live = values.tolist()
                for _ in range(len(unclamped)):
                    i = unclamped[scan.next_below(len(unclamped))]
                    live[i] = values[i] = update(i, live, epoch)
                    epoch += 1
            else:
                for gi, members in enumerate(groups):
                    if gi in bound:
                        bound[gi].step(values)
                    elif members:
                        snapshot = values.tolist()
                        for i in members:
                            values[i] = update(i, snapshot, epoch)
                    epoch += 1
            if sweep >= burn_in and (sweep - burn_in) % thin == 0:
                rows.append(tuple(values.tolist()))
    finally:
        circuits = list(assembly.circuits.values())
        for group in bound.values():
            for site, word, count in zip(group.sites.tolist(), group.words.tolist(),
                                         group.draws.tolist()):
                stream = circuits[site].stream
                stream.state = word
                stream.draws_consumed += count
    meta = {"sweeps": sweeps, "burn_in": burn_in, "thin": thin,
            "clamped": dict(assembly.clamped), **assembly.meta}
    return Trace(list(assembly.names), rows, meta), epoch


def run(assembly: TransitionAssembly, sweeps: int, burn_in: int | None = None,
        thin: int = 1, fault: FaultModel | None = None) -> Trace:
    """Execute the schedule for burn_in + sweeps passes, recording after burn-in.

    Within a group every circuit reads the snapshot taken at group start;
    group order and within-group order are deterministic, and each circuit
    draws only from its own stream. Register-bit faults (when rate > 0)
    consume draws from the owning circuit's stream immediately after its
    transition.
    """
    rate = fault.bit_flip_rate if fault is not None else 0.0
    circuits = list(assembly.circuits.values())

    def update(i, snapshot, epoch):
        circ = circuits[i]
        value = circ.kernel.step(snapshot[i], snapshot, circ.stream)
        if rate > 0.0:
            value = _apply_fault(value, circ, rate)
        return value

    trace, _ = _sweep(assembly, sweeps, burn_in, thin, update, lanes=rate == 0.0)
    trace.meta.update(fault_rate=rate, schedule_groups=[list(g) for g in assembly.schedule])
    return trace
