"""Stochastic transition circuits: state registers driven by sampling kernels.

A transition circuit pairs one variable's register with a kernel that, given
the neighbors' current values, draws the next register value. Circuits
compose into assemblies scheduled in groups; the discipline is that no two
circuits in the same group may interact, so every group updates against an
immutable snapshot taken at group start and parallel execution is exactly
equivalent to any serialization of the group.

Kernels work in the energy domain. Each factor touching the variable is
specialized at build time: its table is reorganized so the variable's axis
is last and every row (one per neighbor configuration) is renormalized to
min zero, which keeps fixed-point sums well inside the representable range
without changing any conditional distribution. Zero weights are saturated
("impossible") and additions clamp into the saturation sentinel. Kernels
built with one tables mapping specialize each distinct (table, axis) once
and share its read-only row block.

A wide color class of fixed-point Gibbs circuits runs as lanes: a _LaneGroup
holds it as index arrays into one table of energy rows and into an int64
value vector, with one uint64 xorshift word per circuit, and its one step
updates every lane at once, bit-identical to updating the circuits one at a
time. _lower lowers an assembly's wide groups once; each run binds their
live members and quantizes their tables. mrf lowers a lattice straight to
its two checkerboard groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entropy import EntropyStream
from .errors import ConfigError, DomainError, NoSupportError, ScheduleViolationError
from .factorgraph import Factor
from .lowprec import (
    MULTIPLIER_BITS,
    EnergyFormat,
    _multiplier_table,
    check_weight_width,
    float_weights,
    integer_weights,
    invert_cdf,
)

#: A group runs as lanes only from this many live circuits; narrower groups
#: lose more to per-step array overhead than they save (crossover near 8).
LANE_MIN_WIDTH = 16
#: Lane weights are int64: Qmax + MULTIPLIER_BITS + ceil(log2 K) must fit.
LANE_WEIGHT_BITS = 62


def _specialized_energy_table(factor: Factor, var: str):
    """Float energy table with var's axis last and per-row minimum zero.

    Zero weights become +inf. Returns (neighbor names, flat row-major table,
    arity of var).
    """
    idx = factor.vars.index(var)
    moved = np.moveaxis(factor.table, idx, -1)
    neighbors = tuple(v for v in factor.vars if v != var)
    peak = factor.table.max()
    if peak <= 0.0:
        raise NoSupportError(f"factor {factor.name!r} has an all-zero table")
    return neighbors, _energy_rows(moved, peak), moved.shape[-1]


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


def _quantize_rows(float_rows: np.ndarray, fmt: EnergyFormat,
                   temperature: float) -> np.ndarray:
    """Raw words of float energy rows at a temperature, as int64.

    The sentinel is reserved for true zero weights; finite energies clamp to
    the largest representable value so cooling never manufactures
    impossible states.
    """
    raw = np.rint(float_rows / temperature * (1 << fmt.frac))
    raw = np.where(np.isfinite(raw), np.minimum(raw, fmt.max_raw - 1), fmt.max_raw)
    return raw.astype(np.int64)


def _no_support(var: str) -> NoSupportError:
    return NoSupportError(f"variable {var!r}: conditional has no support", variable=var)


def _requantize(kernel):
    """Bring a kernel's rows to its recorded temperature."""
    for p in kernel.parts:
        p.quantize(kernel.fmt, kernel.temperature)
    kernel._stale = False


class _FactorPart:
    """One factor's contribution to a variable's conditional, precompiled.

    The (arity, strides, float_rows) of a specialized table depend only on
    the table and the variable's axis, so parts built with the same tables
    mapping share one read-only row block per distinct (table, axis).
    """

    __slots__ = ("neighbors", "strides", "float_rows", "rows", "arity")

    def __init__(self, factor: Factor, var: str, tables: dict):
        key = (factor.table.tobytes(), factor.table.shape, factor.vars.index(var))
        entry = tables.get(key)
        if entry is None:
            _, energy, arity = _specialized_energy_table(factor, var)
            strides = []
            acc = arity
            for size in reversed(energy.shape[:-1]):
                strides.append(acc)
                acc *= size
            float_rows = energy.reshape(-1)
            float_rows.flags.writeable = False
            entry = tables[key] = (arity, tuple(reversed(strides)), float_rows)
        self.neighbors = tuple(v for v in factor.vars if v != var)
        self.arity, self.strides, self.float_rows = entry
        self.rows = None  # set by quantize

    def quantize(self, fmt: EnergyFormat | None, temperature: float):
        if fmt is None:
            self.rows = (self.float_rows / temperature).tolist()
        else:
            self.rows = _quantize_rows(self.float_rows, fmt, temperature).tolist()

    def base_offset(self, snapshot) -> int:
        base = 0
        for name, stride in zip(self.neighbors, self.strides):
            base += snapshot[name] * stride
        return base


def _kernel_parts(var: str, arity: int, factors, tables: dict | None):
    """A kernel's factor parts; the arity and every part's arity are checked."""
    if arity < 1:
        raise ConfigError(f"variable {var!r} has arity {arity}")
    tables = {} if tables is None else tables
    parts = [_FactorPart(f, var, tables) for f in factors]
    for p in parts:
        if p.arity != arity:
            raise ConfigError(f"factor table arity mismatch on {var!r}")
    return parts


class GibbsKernel:
    """Samples the variable's full conditional given its neighbors."""

    def __init__(self, var: str, arity: int, factors, fmt: EnergyFormat | None,
                 tables: dict | None = None):
        if fmt is not None:
            check_weight_width(fmt)
        self.parts = _kernel_parts(var, arity, factors, tables)
        self.var = var
        self.arity = arity
        self.fmt = fmt
        self.set_temperature(1.0)

    def set_temperature(self, temperature: float):
        """Record T; the rows are requantized before the next conditional."""
        if temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {temperature}")
        self.temperature = temperature
        self._stale = True

    def conditional_energies(self, snapshot):
        """Raw (fixed-point) or float energies of each candidate value.

        Fixed-point sums run in a wide accumulator (the sentinel stays
        sticky for zero weights), are renormalized to minimum zero, and
        only then clamp back into the representable range; values still
        beyond range after renormalization saturate to "impossible".
        """
        if self._stale:
            _requantize(self)
        k = self.arity
        if self.fmt is None:
            energies = [0.0] * k
            for p in self.parts:
                base = p.base_offset(snapshot)
                rows = p.rows
                for v in range(k):
                    energies[v] += rows[base + v]
            return energies
        sat = self.fmt.max_raw
        sums = [0] * k
        for p in self.parts:
            base = p.base_offset(snapshot)
            rows = p.rows
            for v in range(k):
                b = rows[base + v]
                if b == sat or sums[v] == -1:
                    sums[v] = -1  # marks a zero-weight (impossible) value
                else:
                    sums[v] += b
        emin = None
        for s in sums:
            if s >= 0 and (emin is None or s < emin):
                emin = s
        if emin is None:
            return [sat] * k
        return [sat if s < 0 else min(s - emin, sat - 1) for s in sums]

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

    def step(self, current: int, snapshot, stream: EntropyStream) -> int:
        weights = self.weights(snapshot)
        if self.fmt is None:
            # left to right, as invert_cdf accumulates: the builtin sum of
            # floats is compensated from Python 3.12 on
            total = 0.0
            for w in weights:
                total += w
            return invert_cdf(weights, stream.next_unit() * total)
        return invert_cdf(weights, stream.next_below(sum(weights)))


class MhKernel:
    """Metropolis-Hastings kernel with a symmetric proposal (uniform default).

    Acceptance is computed in the energy domain: accept v' over v with
    probability min(1, 2^(e(v) - e(v'))).
    """

    def __init__(self, var: str, arity: int, factors, fmt: EnergyFormat | None,
                 proposal=None, tables: dict | None = None):
        self.parts = _kernel_parts(var, arity, factors, tables)
        self.var = var
        self.arity = arity
        self.fmt = fmt
        if proposal is not None:
            proposal = np.asarray(proposal, dtype=float)
            if proposal.shape != (arity, arity):
                raise ConfigError("proposal must be an arity x arity table")
            if np.any(proposal <= 0):
                raise ConfigError("proposal must give positive probability everywhere")
            if not np.allclose(proposal, proposal.T):
                raise ConfigError("only symmetric proposals are supported")
            proposal = (proposal / proposal.sum(axis=1, keepdims=True)).tolist()
        self._proposal = proposal
        self.set_temperature(1.0)

    def set_temperature(self, temperature: float):
        """Record T; the rows are requantized before the next energy read."""
        if temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {temperature}")
        self.temperature = temperature
        self._stale = True

    def _energy_of(self, value: int, snapshot):
        """Wide-accumulator energy sum; None marks a zero-weight value."""
        if self._stale:
            _requantize(self)
        if self.fmt is None:
            total = 0.0
            for p in self.parts:
                total += p.rows[p.base_offset(snapshot) + value]
            return total
        sat = self.fmt.max_raw
        total = 0
        for p in self.parts:
            b = p.rows[p.base_offset(snapshot) + value]
            if b == sat:
                return None
            total += b
        return total

    def step(self, current: int, snapshot, stream: EntropyStream) -> int:
        if self._proposal is None:
            proposed = stream.next_below(self.arity)
        else:
            proposed = invert_cdf(self._proposal[current], stream.next_unit())
        if proposed == current:
            return current
        e_cur = self._energy_of(current, snapshot)
        e_new = self._energy_of(proposed, snapshot)
        if self.fmt is None:
            if e_new == float("inf"):
                return current
            if e_cur == float("inf"):
                return proposed
            diff = e_cur - e_new
        else:
            if e_new is None:
                return current
            if e_cur is None:
                return proposed
            diff = (e_cur - e_new) / (1 << self.fmt.frac)
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
    var: str
    arity: int
    kernel: object
    stream: EntropyStream

    @property
    def register_bits(self) -> int:
        return max(1, (self.arity - 1).bit_length())


class TransitionAssembly:
    """Circuits plus interaction graph, schedule groups, and clamps.

    A scan_stream, when set, switches run() to random-scan mode: each sweep
    draws variable indices uniformly (a mixture hybrid kernel) instead of
    cycling the schedule groups.
    """

    def __init__(self, circuits, edges, schedule, clamped=None, state=None,
                 meta=None, scan_stream=None):
        self.circuits: dict[str, TransitionCircuit] = {c.var: c for c in circuits}
        self.edges = {tuple(sorted(e)) for e in edges}
        self.schedule: list[list[str]] = [list(g) for g in schedule]
        self.clamped: dict[str, int] = dict(clamped or {})
        self.scan_stream = scan_stream
        self.state: dict[str, int] = dict(state or {})
        for name, value in self.state.items():
            self._check_value(name, value)
        for name in self.circuits:
            self.state.setdefault(name, 0)
        for name, value in self.clamped.items():
            self._check_value(name, value)
            self.state[name] = value
        self.meta = dict(meta or {})
        self._validated = False
        self._lanes = None  # _lower(self), built on the first run

    def _check_value(self, name, value):
        if name not in self.circuits:
            raise DomainError(f"unknown variable {name!r}")
        if not 0 <= value < self.circuits[name].arity:
            raise DomainError(f"value {value} outside domain of {name!r}")

    def clamp(self, name: str, value: int):
        """Fix a variable; takes effect on the next run without recompiling."""
        self._check_value(name, value)
        self.clamped[name] = value
        self.state[name] = value

    def unclamp(self, name: str):
        self.clamped.pop(name, None)

    def set_temperature(self, temperature: float):
        """Record T on every kernel; requantizing waits for the next run."""
        if temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {temperature}")
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
        counts = np.zeros(tuple(arities))
        for row in self.rows:
            counts[row] += 1
        return counts / max(1, len(self.rows))

    def marginal(self, name: str, arity: int) -> np.ndarray:
        counts = np.zeros(arity)
        for v in self.column(name):
            counts[v] += 1
        return counts / max(1, len(self.rows))

    def to_csv(self) -> str:
        lines = [",".join(self.var_names)]
        for row in self.rows:
            lines.append(",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


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
    """int.bit_length of every entry of a nonnegative int64 array, exactly.

    The float exponent is exact below 2^53; above, rounding to the next
    power of two can overshoot by one, which the shift test takes back.
    """
    n = np.frexp(v.astype(np.float64))[1].astype(np.int64)
    return n - ((n > 0) & ((v >> np.maximum(n - 1, 0)) == 0))


def _lane_weights_fit(fmt: EnergyFormat, arity: int) -> bool:
    """Whether the integer weights of arity candidates fit LANE_WEIGHT_BITS."""
    return ((fmt.max_raw >> fmt.frac) + MULTIPLIER_BITS + (arity - 1).bit_length()
            <= LANE_WEIGHT_BITS)


def _lane_below(bound: np.ndarray, lanes: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """EntropyStream.next_below(bound) on the first len(bound) lanes.

    Every bound is at least 2^16 (the weight of the minimum-energy
    candidate) and at most 2^62, so no lane takes next_below's bound-1
    shortcut and each rejection attempt is one 64-bit word.
    """
    shift = (64 - _bit_length(bound - 1)).astype(np.uint64)
    out = np.empty(bound.size, np.int64)
    pending = np.arange(bound.size)
    while pending.size:
        x = lanes[pending]
        x ^= x << 13
        x ^= x >> 7
        x ^= x << 17
        lanes[pending] = x
        draws[pending] += 1
        v = (x >> shift[pending]).astype(np.int64)
        ok = v < bound[pending]
        out[pending[ok]] = v[ok]
        pending = pending[~ok]
    return out


class _LaneGroup:
    """A color class of fixed-point Gibbs circuits as lanes: the one lane kernel.

    Lane m updates values[sites[m]] of an int64 value vector. Its energy for
    candidate v is the sum over its parts p of table[base[m, p] + v], where
    base[m, p] = offset[m, p] + sum_t values[nbr[m, p, t]] * stride[m, p, t]
    and table holds raw words at the run's temperature: exactly the scalar
    kernel's part sum. Where every part reads at most one neighbor, nbr and
    stride may drop their last axis. pad, which broadcasts against (lanes,
    candidates), masks candidates past a lane's arity. words and draws are
    each lane's xorshift stream word and draw count, advanced in place, and
    name(site) names the variable at a site.
    """

    def __init__(self, sites, nbr, stride, offset, pad, words, name):
        self.sites = sites
        self.nbr = nbr
        self.stride = stride
        self.offset = offset
        self.pad = pad
        self.words = np.array(words, np.uint64)
        self.draws = np.zeros(len(sites), np.int64)
        self.name = name

    def step(self, table: np.ndarray, fmt: EnergyFormat, values: np.ndarray):
        """GibbsKernel.step on every lane, all reading values as they stand.

        The drawn values are written to values[sites]. As the scalar path
        updates in order and stops at the first conditional with no support,
        only the lanes before the first empty one draw and are written, and
        the NoSupportError names that lane's variable.
        """
        base = values[self.nbr] * self.stride
        if base.ndim == 3:
            base = base.sum(axis=2)
        base += self.offset
        sat = fmt.max_raw
        candidates = np.arange(self.pad.shape[1])
        # part by part: numpy reduces a short middle axis far slower than it adds
        sums = table[base[:, 0, None] + candidates]
        dead = self.pad | (sums == sat)
        for p in range(1, base.shape[1]):
            raw = table[base[:, p, None] + candidates]
            sums += raw
            dead |= raw == sat
        emin = np.where(dead, np.iinfo(np.int64).max, sums).min(axis=1, keepdims=True)
        energy = np.clip(sums - emin, 0, sat - 1)
        multipliers = np.asarray(_multiplier_table(fmt.frac)[0], np.int64)
        weights = np.where(
            dead, 0,
            multipliers[energy & ((1 << fmt.frac) - 1)]
            << ((sat >> fmt.frac) - (energy >> fmt.frac)))
        empty = dead.all(axis=1)
        stop = int(empty.argmax()) if empty.any() else len(base)
        cdf = np.cumsum(weights[:stop], axis=1)
        u = _lane_below(cdf[:, -1], self.words, self.draws)
        values[self.sites[:stop]] = np.argmax(u[:, None] < cdf, axis=1)
        if stop < len(base):
            raise _no_support(self.name(int(self.sites[stop])))


def _lower(assembly: TransitionAssembly) -> dict:
    """{group index: (names, reads, arrays, float table)} for each group the
    lane kernel can take; built once per assembly.

    A group qualifies when it has at least LANE_MIN_WIDTH circuits, all
    fixed-point Gibbs kernels of one format whose integer weights fit
    LANE_WEIGHT_BITS, and no name appears twice in the schedule. arrays are
    the members' nbr, stride, offset and pad as _LaneGroup takes them, nbr
    indexing reads, the names the group reads. The float table holds every
    distinct specialized row block of the group once, as float energies,
    followed by a zero block that padding parts read.
    """
    names = [n for group in assembly.schedule for n in group]
    if len(set(names)) != len(names):
        return {}
    lowered = {}
    for gi, group in enumerate(assembly.schedule):
        if len(group) < LANE_MIN_WIDTH:
            continue
        kernels = [assembly.circuits[n].kernel for n in group]
        fmt = kernels[0].fmt
        k = max(kern.arity for kern in kernels)
        if fmt is None or not _lane_weights_fit(fmt, k) or any(
                type(kern) is not GibbsKernel or kern.fmt != fmt for kern in kernels):
            continue
        n_parts = max(1, max(len(kern.parts) for kern in kernels))
        width = max((len(p.neighbors) for kern in kernels for p in kern.parts), default=0)
        nbr = np.zeros((len(group), n_parts, width), np.int64)
        stride = np.zeros_like(nbr)
        offset = np.full(nbr.shape[:2], -1, np.int64)
        read_at: dict[str, int] = {}
        blocks: list[np.ndarray] = []
        block_at: dict[int, int] = {}  # id of a shared read-only row block
        size = 0
        for m, kern in enumerate(kernels):
            for j, part in enumerate(kern.parts):
                key = id(part.float_rows)
                if key not in block_at:
                    block_at[key] = size
                    blocks.append(part.float_rows)
                    size += part.float_rows.size
                offset[m, j] = block_at[key]
                for t, (name, s) in enumerate(zip(part.neighbors, part.strides)):
                    nbr[m, j, t] = read_at.setdefault(name, len(read_at))
                    stride[m, j, t] = s
        offset[offset < 0] = size
        blocks.append(np.zeros(k))
        pad = np.arange(k) >= np.array([[kern.arity] for kern in kernels])
        lowered[gi] = (list(group), list(read_at), (nbr, stride, offset, pad),
                       np.concatenate(blocks))
    return lowered


def _bind_lanes(assembly: TransitionAssembly) -> dict:
    """{group index: (_LaneGroup, table, fmt, index)} for the lowered groups
    with at least LANE_MIN_WIDTH live circuits, all at one temperature.

    The lanes are the live circuits, with their stream words loaded. They
    read a value vector over index, the live names followed by the group's
    reads, and write its head; table is the group's float table quantized
    at the temperature.
    """
    if assembly._lanes is None:
        assembly._lanes = _lower(assembly)
    bound = {}
    for gi, (names, reads, arrays, float_table) in assembly._lanes.items():
        live = [m for m, name in enumerate(names) if name not in assembly.clamped]
        circuits = [assembly.circuits[names[m]] for m in live]
        temperatures = {c.kernel.temperature for c in circuits}
        if len(live) >= LANE_MIN_WIDTH and len(temperatures) == 1:
            index = [c.var for c in circuits] + reads
            at = np.array(live)
            nbr, stride, offset, pad = (a[at] for a in arrays)
            group = _LaneGroup(np.arange(len(live)), nbr + len(live), stride, offset, pad,
                               [c.stream.state for c in circuits], index.__getitem__)
            fmt = circuits[0].kernel.fmt
            table = _quantize_rows(float_table, fmt, temperatures.pop())
            bound[gi] = (group, table, fmt, index)
    return bound


def _sweep(assembly: TransitionAssembly, sweeps: int, burn_in: int | None,
           thin: int, update, lanes: bool = False):
    """The sweep loop shared by every realization of the transitions.

    update(name, snapshot, epoch) returns the circuit's next value. Within a
    group every circuit reads the snapshot taken at group start; in
    random-scan mode each draw reads the live state. An epoch is one
    schedule group or one random-scan draw. A row is recorded after each
    retained sweep. Returns (var_names, rows, burn_in, epochs).

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
    if not assembly._validated:
        violations = validate_schedule(assembly)
        if violations:
            raise ScheduleViolationError(
                f"schedule updates interacting circuits together: {violations}",
                violations,
            )
        for group in assembly.schedule:
            for name in group:
                if name not in assembly.circuits:
                    raise DomainError(f"schedule names unknown variable {name!r}")
        assembly._validated = True
    if burn_in is None:
        burn_in = 10 * len(assembly.circuits)
    var_names = sorted(assembly.circuits)
    state = assembly.state
    rows = []
    epoch = 0
    scan = assembly.scan_stream
    unclamped = [n for n in var_names if n not in assembly.clamped]
    groups = [[n for n in group if n not in assembly.clamped]
              for group in assembly.schedule]
    bound = _bind_lanes(assembly) if lanes and scan is None else {}
    try:
        for sweep in range(burn_in + sweeps):
            if scan is not None and unclamped:
                # mixture kernel: one sweep = |unclamped| uniformly drawn
                # singleton updates
                for _ in range(len(unclamped)):
                    name = unclamped[scan.next_below(len(unclamped))]
                    state[name] = update(name, state, epoch)
                    epoch += 1
            else:
                for gi, live in enumerate(groups):
                    if gi in bound:
                        group, table, fmt, index = bound[gi]
                        values = np.fromiter(map(state.__getitem__, index), np.int64,
                                             len(index))
                        try:
                            group.step(table, fmt, values)
                        finally:
                            # sites are 0, 1, ... and index starts with the live names
                            state.update(zip(index, values[group.sites].tolist()))
                    elif live:
                        snapshot = dict(state)
                        for name in live:
                            state[name] = update(name, snapshot, epoch)
                    epoch += 1
            if sweep >= burn_in and (sweep - burn_in) % thin == 0:
                rows.append(tuple(state[n] for n in var_names))
    finally:
        for group, _, _, index in bound.values():
            words, draws = group.words.tolist(), group.draws.tolist()
            for name, word, count in zip(index, words, draws):
                stream = assembly.circuits[name].stream
                stream.state = word
                stream.draws_consumed += count
    return var_names, rows, burn_in, epoch


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
    circuits = assembly.circuits

    def update(name, snapshot, epoch):
        circ = circuits[name]
        value = circ.kernel.step(snapshot[name], snapshot, circ.stream)
        if rate > 0.0:
            value = _apply_fault(value, circ, rate)
        return value

    var_names, rows, burn_in, _ = _sweep(assembly, sweeps, burn_in, thin, update,
                                         lanes=rate == 0.0)
    meta = {
        "sweeps": sweeps,
        "burn_in": burn_in,
        "thin": thin,
        "fault_rate": rate,
        "clamped": dict(assembly.clamped),
        "schedule_groups": [list(g) for g in assembly.schedule],
    }
    meta.update(assembly.meta)
    return Trace(var_names, rows, meta)
