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
("impossible") and additions clamp into the saturation sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entropy import EntropyStream
from .errors import ConfigError, DomainError, NoSupportError, ScheduleViolationError
from .factorgraph import Factor
from .lowprec import EnergyFormat, float_weights, integer_weights, invert_cdf


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


class _FactorPart:
    """One factor's contribution to a variable's conditional, precompiled."""

    __slots__ = ("neighbors", "strides", "float_rows", "rows", "arity")

    def __init__(self, factor: Factor, var: str):
        neighbors, energy, arity = _specialized_energy_table(factor, var)
        self.neighbors = neighbors
        self.arity = arity
        shape = energy.shape[:-1]
        strides = []
        acc = arity
        for size in reversed(shape):
            strides.append(acc)
            acc *= size
        self.strides = tuple(reversed(strides))
        self.float_rows = energy.reshape(-1)
        self.rows = None  # set by set_temperature

    def quantize(self, fmt: EnergyFormat | None, temperature: float):
        # the sentinel is reserved for true zero weights; finite energies
        # clamp to the largest representable value so cooling never
        # manufactures impossible states
        scaled = self.float_rows / temperature
        if fmt is None:
            self.rows = scaled.tolist()
        else:
            raw = np.rint(scaled * (1 << fmt.frac))
            raw = np.where(np.isfinite(raw),
                           np.minimum(raw, fmt.max_raw - 1), fmt.max_raw)
            self.rows = raw.astype(np.int64).tolist()

    def base_offset(self, snapshot) -> int:
        base = 0
        for name, stride in zip(self.neighbors, self.strides):
            base += snapshot[name] * stride
        return base


class GibbsKernel:
    """Samples the variable's full conditional given its neighbors."""

    def __init__(self, var: str, arity: int, factors, fmt: EnergyFormat | None):
        if arity < 1:
            raise ConfigError(f"variable {var!r} has arity {arity}")
        self.var = var
        self.arity = arity
        self.fmt = fmt
        self.parts = [_FactorPart(f, var) for f in factors]
        for p in self.parts:
            if p.arity != arity:
                raise ConfigError(f"factor table arity mismatch on {var!r}")
        self.set_temperature(1.0)

    def set_temperature(self, temperature: float):
        if temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {temperature}")
        for p in self.parts:
            p.quantize(self.fmt, temperature)

    def conditional_energies(self, snapshot):
        """Raw (fixed-point) or float energies of each candidate value.

        Fixed-point sums run in a wide accumulator (the sentinel stays
        sticky for zero weights), are renormalized to minimum zero, and
        only then clamp back into the representable range; values still
        beyond range after renormalization saturate to "impossible".
        """
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
            raise NoSupportError(
                f"variable {self.var!r}: conditional has no support", variable=self.var
            ) from None
        return invert_cdf(weights, stream.next_below(sum(weights)))


class MhKernel:
    """Metropolis-Hastings kernel with a symmetric proposal (uniform default).

    Acceptance is computed in the energy domain: accept v' over v with
    probability min(1, 2^(e(v) - e(v'))).
    """

    def __init__(self, var: str, arity: int, factors, fmt: EnergyFormat | None,
                 proposal=None):
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
        self.parts = [_FactorPart(f, var) for f in factors]
        self.set_temperature(1.0)

    def set_temperature(self, temperature: float):
        if temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {temperature}")
        for p in self.parts:
            p.quantize(self.fmt, temperature)

    def _energy_of(self, value: int, snapshot):
        """Wide-accumulator energy sum; None marks a zero-weight value."""
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
        for name, circ in self.circuits.items():
            self.state.setdefault(name, 0)
        for name, value in self.clamped.items():
            self._check_value(name, value)
            self.state[name] = value
        self.meta = dict(meta or {})
        self._validated = False

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
        for circ in self.circuits.values():
            circ.kernel.set_temperature(temperature)


def validate_schedule(assembly: TransitionAssembly):
    """Return every same-group adjacent pair as (var_a, var_b, group_index)."""
    violations = []
    for gi, group in enumerate(assembly.schedule):
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if tuple(sorted((a, b))) in assembly.edges:
                    violations.append((a, b, gi))
    return violations


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


def _sweep(assembly: TransitionAssembly, sweeps: int, burn_in: int | None,
           thin: int, update):
    """The sweep loop shared by every realization of the transitions.

    update(name, snapshot, epoch) returns the circuit's next value. Within a
    group every circuit reads the snapshot taken at group start; in
    random-scan mode each draw reads the live state. An epoch is one
    schedule group or one random-scan draw. A row is recorded after each
    retained sweep. Returns (var_names, rows, burn_in, epochs).
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
    for sweep in range(burn_in + sweeps):
        if scan is not None and unclamped:
            # mixture kernel: one sweep = |unclamped| uniformly drawn
            # singleton updates
            for _ in range(len(unclamped)):
                name = unclamped[scan.next_below(len(unclamped))]
                state[name] = update(name, state, epoch)
                epoch += 1
        else:
            for group in assembly.schedule:
                live = [n for n in group if n not in assembly.clamped]
                if live:
                    snapshot = dict(state)
                    for name in live:
                        state[name] = update(name, snapshot, epoch)
                epoch += 1
        if sweep >= burn_in and (sweep - burn_in) % thin == 0:
            rows.append(tuple(state[n] for n in var_names))
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

    var_names, rows, burn_in, _ = _sweep(assembly, sweeps, burn_in, thin, update)
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
