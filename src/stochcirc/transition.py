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

A wide group of fixed-point Gibbs circuits runs as lanes: one numpy step
updates every live circuit of the group, with each circuit's xorshift
stream held as one uint64 lane. The lanes repeat the scalar kernel's
integer arithmetic and draws exactly, so traces, registers and streams are
bit-identical to updating the circuits one at a time.
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
    with np.errstate(divide="ignore"):
        energy = -np.log2(moved / peak)
    flat = energy.reshape(-1, energy.shape[-1])
    mins = np.min(flat, axis=1, keepdims=True)
    mins = np.where(np.isfinite(mins), mins, 0.0)
    flat = flat - mins
    return neighbors, flat.reshape(energy.shape), moved.shape[-1]


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


class GibbsKernel:
    """Samples the variable's full conditional given its neighbors."""

    def __init__(self, var: str, arity: int, factors, fmt: EnergyFormat | None,
                 tables: dict | None = None):
        if arity < 1:
            raise ConfigError(f"variable {var!r} has arity {arity}")
        self.var = var
        self.arity = arity
        self.fmt = fmt
        tables = {} if tables is None else tables
        self.parts = [_FactorPart(f, var, tables) for f in factors]
        for p in self.parts:
            if p.arity != arity:
                raise ConfigError(f"factor table arity mismatch on {var!r}")
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

    def step(self, current: int, snapshot, stream: EntropyStream) -> int:
        energies = self.conditional_energies(snapshot)
        try:
            if self.fmt is None:
                weights = float_weights(energies)
                return invert_cdf(weights, stream.next_unit() * sum(weights))
            weights = integer_weights(energies, self.fmt)
        except NoSupportError:
            raise _no_support(self.var) from None
        return invert_cdf(weights, stream.next_below(sum(weights)))


class MhKernel:
    """Metropolis-Hastings kernel with a symmetric proposal (uniform default).

    Acceptance is computed in the energy domain: accept v' over v with
    probability min(1, 2^(e(v) - e(v'))).
    """

    def __init__(self, var: str, arity: int, factors, fmt: EnergyFormat | None,
                 proposal=None, tables: dict | None = None):
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
            self._prop_cdf = np.cumsum(proposal / proposal.sum(axis=1, keepdims=True), axis=1)
        else:
            self._prop_cdf = None
        tables = {} if tables is None else tables
        self.parts = [_FactorPart(f, var, tables) for f in factors]
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
        if self._prop_cdf is None:
            proposed = stream.next_below(self.arity)
        else:
            u = stream.next_unit()
            proposed = int(np.searchsorted(self._prop_cdf[current], u, side="right"))
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


def gibbs_kernel_from_factors(var: str, arity: int, factors,
                              fmt: EnergyFormat | None = None) -> GibbsKernel:
    return GibbsKernel(var, arity, factors, fmt)


def mh_kernel(var: str, arity: int, factors, fmt: EnergyFormat | None = None,
              proposal=None) -> MhKernel:
    return MhKernel(var, arity, factors, fmt, proposal)


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
        self._lanes = None  # {group index: _LaneGroup}, lowered on first run

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
    """int.bit_length of every entry of a nonnegative int64 array, exactly."""
    n = np.zeros_like(v)
    for shift in (32, 16, 8, 4, 2, 1):
        high = v >> shift
        big = high > 0
        n += big * shift
        v = np.where(big, high, v)
    return n + v


class _LaneGroup:
    """A schedule group of fixed-point Gibbs circuits lowered to index arrays.

    Member m's energy for candidate v is the sum over its parts p of
    table[offset[m, p] + sum_t value(reads[nbr[m, p, t]]) * stride[m, p, t] + v],
    exactly the scalar kernel's part sum. The table holds every distinct
    specialized row block of the group once, as float energies, followed by a
    zero block that padding parts read; candidates past a member's arity are
    masked to the sentinel.
    """

    def __init__(self, names, circuits):
        kernels = [circuits[n].kernel for n in names]
        self.names = list(names)
        self.kernels = kernels
        self.streams = [circuits[n].stream for n in names]
        self.fmt = kernels[0].fmt
        k = max(kern.arity for kern in kernels)
        n_parts = max(1, max(len(kern.parts) for kern in kernels))
        width = max((len(p.neighbors) for kern in kernels for p in kern.parts), default=0)
        shape = (len(names), n_parts, width)
        self.nbr = np.zeros(shape, np.int64)
        self.stride = np.zeros(shape, np.int64)
        self.offset = np.full(shape[:2], -1, np.int64)
        self.reads: list[str] = []
        read_at: dict[str, int] = {}
        blocks: list[np.ndarray] = []
        block_at: dict[bytes, int] = {}
        size = 0
        for m, kern in enumerate(kernels):
            for j, part in enumerate(kern.parts):
                key = part.float_rows.tobytes()
                if key not in block_at:
                    block_at[key] = size
                    blocks.append(part.float_rows)
                    size += part.float_rows.size
                self.offset[m, j] = block_at[key]
                for t, (name, stride) in enumerate(zip(part.neighbors, part.strides)):
                    if name not in read_at:
                        read_at[name] = len(self.reads)
                        self.reads.append(name)
                    self.nbr[m, j, t] = read_at[name]
                    self.stride[m, j, t] = stride
        self.offset[self.offset < 0] = size
        blocks.append(np.zeros(k))
        self.float_table = np.concatenate(blocks)
        self.candidates = np.arange(k)
        self.pad = self.candidates >= np.array([[kern.arity] for kern in kernels])
        self.multipliers = np.asarray(_multiplier_table(self.fmt.frac)[0], np.int64)
        self.temperature = None
        self.table = None

    def bind(self, live: list[int], temperature: float) -> "_Lanes":
        """The live members as lanes for one run, the table at temperature."""
        if temperature != self.temperature:
            self.table = _quantize_rows(self.float_table, self.fmt, temperature)
            self.temperature = temperature
        return _Lanes(self, live)


class _Lanes:
    """A lane group's live circuits during one run.

    Each circuit's stream is one uint64 lane; store() writes the lanes back
    into the streams.
    """

    def __init__(self, group: _LaneGroup, live: list[int]):
        self.group = group
        self.names = [group.names[i] for i in live]
        self.streams = [group.streams[i] for i in live]
        self.nbr = group.nbr[live]
        self.stride = group.stride[live]
        self.offset = group.offset[live]
        self.pad = group.pad[live]
        self.lanes = np.array([s.state for s in self.streams], np.uint64)
        self.draws = np.zeros(len(live), np.int64)

    def store(self):
        for stream, state, draws in zip(self.streams, self.lanes.tolist(),
                                        self.draws.tolist()):
            stream.state = state
            stream.draws_consumed += draws

    def _below(self, bound: np.ndarray) -> np.ndarray:
        """EntropyStream.next_below(bound) on the first len(bound) lanes.

        Every bound is at least 2^16 (the weight of the minimum-energy
        candidate) and at most 2^62, so no lane takes next_below's bound-1
        shortcut and each rejection attempt is one 64-bit word.
        """
        shift = (64 - _bit_length(bound - 1)).astype(np.uint64)
        out = np.empty(bound.size, np.int64)
        pending = np.arange(bound.size)
        while pending.size:
            x = self.lanes[pending]
            x ^= x << 13
            x ^= x >> 7
            x ^= x << 17
            self.lanes[pending] = x
            self.draws[pending] += 1
            v = (x >> shift[pending]).astype(np.int64)
            ok = v < bound[pending]
            out[pending[ok]] = v[ok]
            pending = pending[~ok]
        return out

    def step(self, state: dict):
        """GibbsKernel.step for every lane, all reading the group-start state."""
        group = self.group
        fmt = group.fmt
        sat = fmt.max_raw
        values = np.fromiter(map(state.__getitem__, group.reads), np.int64,
                             len(group.reads))
        base = self.offset + (values[self.nbr] * self.stride).sum(axis=2)
        raw = group.table[base[:, :, None] + group.candidates]
        dead = (raw == sat).any(axis=1) | self.pad
        sums = raw.sum(axis=1)
        emin = np.where(dead, np.iinfo(np.int64).max, sums).min(axis=1, keepdims=True)
        energy = np.clip(sums - emin, 0, sat - 1)
        weights = np.where(
            dead, 0,
            group.multipliers[energy & ((1 << fmt.frac) - 1)]
            << ((sat >> fmt.frac) - (energy >> fmt.frac)))
        # the scalar path updates circuits in order and stops at the first
        # conditional without support
        empty = dead.all(axis=1)
        stop = int(empty.argmax()) if empty.any() else len(self.names)
        cdf = np.cumsum(weights[:stop], axis=1)
        u = self._below(cdf[:, -1])
        drawn = np.argmax(u[:, None] < cdf, axis=1)
        state.update(zip(self.names, drawn.tolist()))
        if stop < len(self.names):
            raise _no_support(self.names[stop])


def _lower(assembly: TransitionAssembly) -> dict:
    """{group index: _LaneGroup} for each group the lane kernel can take.

    A group qualifies when it has at least LANE_MIN_WIDTH circuits, all
    fixed-point Gibbs kernels of one format whose integer weights fit
    LANE_WEIGHT_BITS, and no name appears twice in the schedule.
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
        if fmt is None or any(type(k) is not GibbsKernel or k.fmt != fmt for k in kernels):
            continue
        k = max(kern.arity for kern in kernels)
        if (fmt.max_raw >> fmt.frac) + MULTIPLIER_BITS + (k - 1).bit_length() > LANE_WEIGHT_BITS:
            continue
        lowered[gi] = _LaneGroup(group, assembly.circuits)
    return lowered


def _bind_lanes(assembly: TransitionAssembly) -> dict:
    """{group index: _Lanes} for the lowered groups wide enough this run."""
    if assembly._lanes is None:
        assembly._lanes = _lower(assembly)
    bound = {}
    for gi, group in assembly._lanes.items():
        live = [i for i, n in enumerate(group.names) if n not in assembly.clamped]
        temperatures = {group.kernels[i].temperature for i in live}
        if len(live) >= LANE_MIN_WIDTH and len(temperatures) == 1:
            bound[gi] = group.bind(live, temperatures.pop())
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
                        bound[gi].step(state)
                    elif live:
                        snapshot = dict(state)
                        for name in live:
                            state[name] = update(name, snapshot, epoch)
                    epoch += 1
            if sweep >= burn_in and (sweep - burn_in) % thin == 0:
                rows.append(tuple(state[n] for n in var_names))
    finally:
        for lane_group in bound.values():
            lane_group.store()
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
