"""Lattice Markov random fields for dense matching (depth / motion).

Each lattice site holds a latent label (a disparity or motion candidate)
with a per-site evidence cost vector and truncated-linear smoothness
potentials on the 4-connected edges:

    f_smooth(a, b) = lambda * min(|a - b|, tau)
    f_evidence(i, j, d) = min(|L(i,j) - R(i, j-d)|, c_max) / evidence_scale

Evidence costs and pairwise penalties are energies in bits. The lattice
compiles to a factor graph whose chromatic schedule is the two-phase
checkerboard, and solving runs annealed Gibbs through the transition
module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compiler import compile as compile_graph
from .errors import ConfigError, ShapeError
from .factorgraph import Factor, FactorGraph, Variable
from .lowprec import DEFAULT_FORMAT, EnergyFormat
from .transition import run

EVIDENCE_CAP = 32.0       # gray levels; bounds energies for fixed point
EVIDENCE_SCALE = 8.0      # gray levels per bit of energy


@dataclass
class ImagePair:
    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        self.first = np.asarray(self.first, dtype=np.uint8)
        self.second = np.asarray(self.second, dtype=np.uint8)
        if self.first.shape != self.second.shape:
            raise ShapeError(
                f"image shapes differ: {self.first.shape} vs {self.second.shape}"
            )
        if self.first.ndim != 2:
            raise ShapeError("images must be 2-D grayscale")


def motion_offsets(d: int) -> list[tuple[int, int]]:
    """First d 2-D offsets in ring order: (0,0), then by L1 radius."""
    out = []
    radius = 0
    while len(out) < d:
        for dy in range(-radius, radius + 1):
            for dx in range(-radius, radius + 1):
                if max(abs(dy), abs(dx)) == radius:
                    out.append((dy, dx))
        radius += 1
    out.sort(key=lambda o: (abs(o[0]) + abs(o[1]), o[0], o[1]))
    return out[:d]


def evidence_from_images(pair: ImagePair, d: int, mode: str = "stereo",
                         c_max: float = EVIDENCE_CAP,
                         scale: float = EVIDENCE_SCALE) -> np.ndarray:
    """Per-site cost vectors: truncated absolute difference per candidate.

    Stereo candidates are horizontal shifts 0..d-1 of the second image;
    motion candidates are 2-D offsets in ring order. Out-of-bounds
    candidates cost c_max (border rule).
    """
    if d < 1:
        raise ConfigError(f"need at least one candidate, got {d}")
    h, w = pair.first.shape
    left = pair.first.astype(float)
    right = pair.second.astype(float)
    y = np.full((h, w, d), c_max)
    if mode == "stereo":
        if d > w:
            raise ConfigError(f"{d} disparity candidates exceed image width {w}")
        for disp in range(d):
            if disp == 0:
                diff = np.abs(left - right)
                y[:, :, 0] = np.minimum(diff, c_max)
            else:
                diff = np.abs(left[:, disp:] - right[:, :-disp])
                y[:, disp:, disp] = np.minimum(diff, c_max)
    elif mode == "motion":
        for k, (dy, dx) in enumerate(motion_offsets(d)):
            ys = slice(max(0, -dy), min(h, h - dy))
            xs = slice(max(0, -dx), min(w, w - dx))
            ys2 = slice(max(0, dy), min(h, h + dy))
            xs2 = slice(max(0, dx), min(w, w + dx))
            diff = np.abs(left[ys, xs] - right[ys2, xs2])
            y[ys, xs, k] = np.minimum(diff, c_max)
    else:
        raise ConfigError(f"unknown evidence mode {mode!r}")
    return y / scale


def smoothness_energy(x_a: int, x_b: int, lam: float, tau: float) -> float:
    """Truncated-linear pairwise penalty: lam * min(|x_a - x_b|, tau)."""
    return lam * min(abs(x_a - x_b), tau)


@dataclass
class LatticeMRF:
    height: int
    width: int
    labels: int
    evidence: np.ndarray          # (height, width, labels) energies in bits
    lam: float = 1.0
    tau: float = 2.0

    def __post_init__(self):
        self.evidence = np.asarray(self.evidence, dtype=float)
        if self.evidence.shape != (self.height, self.width, self.labels):
            raise ShapeError(
                f"evidence shape {self.evidence.shape} != "
                f"{(self.height, self.width, self.labels)}"
            )
        if np.any(self.evidence < 0) or not np.all(np.isfinite(self.evidence)):
            raise ConfigError("evidence energies must be finite and nonnegative")

    def site_name(self, i: int, j: int) -> str:
        pad = len(str(max(self.height, self.width) - 1))
        return f"x_{i:0{pad}d}_{j:0{pad}d}"

    def smoothness_table(self) -> np.ndarray:
        d = self.labels
        a, b = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        return np.exp2(-self.lam * np.minimum(np.abs(a - b), self.tau))

    def to_factor_graph(self) -> FactorGraph:
        """Unary evidence factors plus shared pairwise smoothness tables."""
        d = self.labels
        variables = [
            Variable(self.site_name(i, j), d)
            for i in range(self.height) for j in range(self.width)
        ]
        factors = []
        pair_table = self.smoothness_table()
        for i in range(self.height):
            for j in range(self.width):
                name = self.site_name(i, j)
                factors.append(Factor(
                    f"ev_{name}", [name], np.exp2(-self.evidence[i, j]), [d]))
                if j + 1 < self.width:
                    factors.append(Factor(
                        f"sm_{name}_e", [name, self.site_name(i, j + 1)],
                        pair_table, [d, d]))
                if i + 1 < self.height:
                    factors.append(Factor(
                        f"sm_{name}_s", [name, self.site_name(i + 1, j)],
                        pair_table, [d, d]))
        return FactorGraph(variables, factors)

    def total_energy(self, labels: np.ndarray) -> float:
        """Model energy of a label grid: evidence plus smoothness, in bits."""
        labels = np.asarray(labels)
        ii, jj = np.meshgrid(np.arange(self.height), np.arange(self.width),
                             indexing="ij")
        e = self.evidence[ii, jj, labels].sum()
        dh = np.abs(labels[:, 1:] - labels[:, :-1])
        dv = np.abs(labels[1:, :] - labels[:-1, :])
        e += self.lam * np.minimum(dh, self.tau).sum()
        e += self.lam * np.minimum(dv, self.tau).sum()
        return float(e)


@dataclass
class SolveResult:
    labels: np.ndarray
    energy_trace: list[float]
    meta: dict = field(default_factory=dict)

    def energy_csv(self) -> str:
        lines = ["sweep,energy"]
        for s, e in enumerate(self.energy_trace):
            lines.append(f"{s},{e!r}")
        return "\n".join(lines) + "\n"


def solve(mrf: LatticeMRF, sweeps: int, seed: int = 0,
          fmt: EnergyFormat | None = DEFAULT_FORMAT,
          anneal: tuple[float, float] | None = (2.0, 0.1),
          anneal_rungs: int = 24, schedule: str = "parallel") -> SolveResult:
    """Checkerboard Gibbs on the lattice; anneal=None samples at T=1.

    With annealing, temperature steps down a geometric ladder from
    anneal[0] to anneal[1]; each rung is one run at its temperature and the
    final state is the label estimate. The energy trace records the model
    energy after every sweep, read from the run's trace rows.
    """
    graph = mrf.to_factor_graph()
    assembly = compile_graph(graph, fmt=fmt, schedule=schedule, seed=seed)
    # trace rows list the variables in sorted name order
    var_names = sorted(assembly.circuits)
    column = {name: k for k, name in enumerate(var_names)}
    grid = np.array([[column[mrf.site_name(i, j)] for j in range(mrf.width)]
                     for i in range(mrf.height)])

    trace_energy = []
    if anneal is None:
        ladder = [(1.0, sweeps)]
    else:
        t_hi, t_lo = anneal
        if t_hi <= 0 or t_lo <= 0:
            raise ConfigError("annealing temperatures must be positive")
        rungs = max(1, min(anneal_rungs, sweeps))
        temps = np.geomspace(t_hi, t_lo, rungs)
        per = [sweeps // rungs + (1 if r < sweeps % rungs else 0)
               for r in range(rungs)]
        ladder = [(float(t), n) for t, n in zip(temps, per)]
    for temperature, n in ladder:
        if n < 1:
            continue
        assembly.set_temperature(temperature)
        for row in run(assembly, n, burn_in=0).rows:
            trace_energy.append(mrf.total_energy(np.array(row)[grid]))
    labels = np.array([assembly.state[name] for name in var_names])[grid]
    meta = {
        "seed": seed, "sweeps": sweeps, "schedule": schedule,
        "format": None if fmt is None else [fmt.bits, fmt.frac],
        "anneal": None if anneal is None else list(anneal),
        "lam": mrf.lam, "tau": mrf.tau, "labels": mrf.labels,
    }
    return SolveResult(labels, trace_energy, meta)


def labels_to_gray(labels: np.ndarray, d: int) -> np.ndarray:
    """Scale a label grid to 8-bit gray for PGM output."""
    if d <= 1:
        return np.zeros_like(labels, dtype=np.uint8)
    return (labels * (255 // (d - 1))).astype(np.uint8)


def random_dot_stereogram(height: int, width: int, shift: int,
                          seed: int = 0) -> tuple[ImagePair, np.ndarray]:
    """Synthetic pair where the second image is the first shifted by `shift`.

    Returns the pair and the ground-truth disparity map (constant shift).
    The first `shift` columns of the second image, which have no match, are
    filled with fresh random dots.
    """
    if shift < 0 or shift >= width:
        raise ConfigError(f"shift {shift} outside [0, {width})")
    rng = np.random.default_rng(seed)
    first = (rng.integers(0, 2, size=(height, width)) * 255).astype(np.uint8)
    second = np.empty_like(first)
    if shift:
        second[:, :-shift] = first[:, shift:]
        second[:, -shift:] = (rng.integers(0, 2, size=(height, shift)) * 255).astype(np.uint8)
    else:
        second[:] = first
    truth = np.full((height, width), shift)
    return ImagePair(first, second), truth
