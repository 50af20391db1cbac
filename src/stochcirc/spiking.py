"""Spiking realization of the discrete-sample gate: exponential first-spike races.

Each candidate value gets one unit firing with rate lambda_i = 2^(-e_i)
(base 2 to match the energy coding; concretely the rate is the candidate's
integer weight scaled so the minimum-energy unit has rate one). The winner
is the unit with the smallest first-spike time — fast lateral inhibition —
and since the minimum of exponentials selects index i with probability
lambda_i / sum(lambda), a race is exactly one draw from the gate's declared
distribution. Saturated energies give rate zero and never fire.

Assemblies are clocked quasi-synchronously: each schedule group occupies
one unit epoch, all races of the group run inside it, and spike times are
the raw exponential draws offset by the epoch start. Under a random-scan
schedule each scan draw is one epoch holding a single race.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .entropy import EntropyStream
from .errors import ConfigError
from .lowprec import EnergyVector
from .transition import GibbsKernel, TransitionAssembly, _sweep


def _rates(weights) -> list[float]:
    """Weights scaled so the minimum-energy unit, the heaviest, has rate one."""
    top = max(weights)
    return [w / top for w in weights]


def _race(rates, stream: EntropyStream):
    """Draw first-spike times for the units of positive rate; returns
    (winner, times). The rate-one unit always fires."""
    times = []
    winner = -1
    best = math.inf
    for i, lam in enumerate(rates):
        if lam <= 0.0:
            times.append(math.inf)
            continue
        u = 1.0 - stream.next_unit()  # in (0, 1]
        t = -math.log(u) / lam
        times.append(t)
        if t < best:
            best = t
            winner = i
    return winner, times


def race_sample(energies: EnergyVector, stream: EntropyStream):
    """One race over an energy vector: (winner index, first-spike times)."""
    return _race(_rates(energies.weights()), stream)


@dataclass
class SpikeRaster:
    """First-spike events and winner transitions, tagged with their epoch.

    Spike times are epoch_start + raw exponential draw; with no refractory
    modeling a draw may overshoot its unit epoch, so the epoch index is kept
    explicitly. The CSV projection is (time, variable, unit).
    """

    events: list[tuple[int, float, str, int]] = field(default_factory=list)
    transitions: list[tuple[int, float, str, int]] = field(default_factory=list)

    def events_csv(self) -> str:
        lines = ["time,variable,unit"]
        for _epoch, t, var, unit in self.events:
            lines.append(f"{t!r},{var},{unit}")
        return "\n".join(lines) + "\n"


def simulate_spiking_assembly(assembly: TransitionAssembly, sweeps: int,
                              burn_in: int | None = None, thin: int = 1,
                              record_raster: bool = True):
    """Run an assembly with every transition realized as a spike race.

    Only Gibbs kernels expose the per-value conditional energies a race
    needs. Returns (SpikeRaster, Trace); the trace is a valid Gibbs
    trajectory with the same recording rules as transition.run. Each epoch
    (one schedule group, or one random-scan draw) starts at its index.
    """
    circuits = list(assembly.circuits.values())
    if not all(isinstance(circ.kernel, GibbsKernel) for circ in circuits):
        raise ConfigError("spiking simulation requires Gibbs kernels")
    raster = SpikeRaster()

    def update(i, snapshot, epoch):
        circ = circuits[i]
        winner, times = _race(_rates(circ.kernel.weights(snapshot)), circ.stream)
        if record_raster:
            for unit, t in enumerate(times):
                if math.isfinite(t):
                    raster.events.append((epoch, epoch + t, circ.var, unit))
            raster.transitions.append((epoch, epoch + times[winner], circ.var, winner))
        return winner

    trace, epochs = _sweep(assembly, sweeps, burn_in, thin, update)
    trace.meta["epochs"] = epochs
    return raster, trace
