"""Lattice Markov random fields for dense matching (depth / motion).

Each lattice site holds a latent label (a disparity or motion candidate)
with a per-site evidence cost vector and truncated-linear smoothness
potentials on the 4-connected edges:

    f_smooth(a, b) = lambda * min(|a - b|, tau)
    f_evidence(i, j, d) = min(|L(i,j) - R(i, j-d)|, EVIDENCE_CAP) / EVIDENCE_SCALE

Evidence costs and pairwise penalties are energies in bits. The lattice
compiles to a factor graph whose chromatic schedule is the two-phase
checkerboard, and solving runs annealed Gibbs through the transition
module.

For a fixed-point format whose weights fit the lane kernel and the
parallel schedule, solve() skips the factor graph: it builds the two
checkerboard color classes as transition._LaneGroup lanes (index arrays for
the 4-stencil into one transition._EnergyTable of specialized energy rows,
one uint64 stream word per site) over one label vector laid out as the
compiled assembly's registers, and keeps them loaded for the whole
annealing ladder. Each rung sets the table's temperature, which quantizes
its rows once. Each sweep is two calls of the lane step that compiled
assemblies run on their register vector.
Chromatic Gibbs is exact when each color class updates in parallel against
the other's state, and the lowering repeats the compiled path's rows,
streams, coloring and draws, so its labels, energies and stream words are
bit-identical to to_factor_graph, compile and run. The float path, the
serial and random-scan schedules and wider formats take that compiled path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import csv_text
from .compiler import compile as compile_graph
from .entropy import fork_states
from .errors import ConfigError, NoSupportError, ShapeError
from .factorgraph import Factor, FactorGraph, Variable
from .lowprec import DEFAULT_FORMAT, EnergyFormat
from .transition import _energy_rows, _EnergyTable, _LaneGroup, _lanes_fit, run

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


def evidence_from_images(pair: ImagePair, d: int, mode: str = "stereo") -> np.ndarray:
    """Per-site cost vectors in bits: the absolute difference per candidate,
    truncated at EVIDENCE_CAP gray levels, over EVIDENCE_SCALE.

    Candidate k compares site (i, j) of the first image with site
    (i + dy, j + dx) of the second for its offset (dy, dx): stereo
    disparity k is the offset (0, -k), and motion candidates are 2-D
    offsets in ring order. Out-of-bounds candidates cost the cap (border
    rule), so an offset past the image edge costs the cap at every site.
    """
    if d < 1:
        raise ConfigError(f"need at least one candidate, got {d}")
    h, w = pair.first.shape
    if mode == "stereo":
        if d > w:
            raise ConfigError(f"{d} disparity candidates exceed image width {w}")
        offsets = [(0, -disp) for disp in range(d)]
    elif mode == "motion":
        offsets = motion_offsets(d)
    else:
        raise ConfigError(f"unknown evidence mode {mode!r}")
    left = pair.first.astype(float)
    right = pair.second.astype(float)
    y = np.full((h, w, d), EVIDENCE_CAP)
    for k, (dy, dx) in enumerate(offsets):
        ys = slice(max(0, -dy), max(0, min(h, h - dy)))
        xs = slice(max(0, -dx), max(0, min(w, w - dx)))
        ys2 = slice(max(0, dy), max(0, min(h, h + dy)))
        xs2 = slice(max(0, dx), max(0, min(w, w + dx)))
        diff = np.abs(left[ys, xs] - right[ys2, xs2])
        y[ys, xs, k] = np.minimum(diff, EVIDENCE_CAP)
    return y / EVIDENCE_SCALE


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
        if min(self.height, self.width, self.labels) < 1:
            raise ShapeError(f"lattice needs at least one site and one label, got "
                             f"{(self.height, self.width, self.labels)}")
        self.evidence = np.asarray(self.evidence, dtype=float)
        if self.evidence.shape != (self.height, self.width, self.labels):
            raise ShapeError(
                f"evidence shape {self.evidence.shape} != "
                f"{(self.height, self.width, self.labels)}"
            )
        if np.any(self.evidence < 0) or not np.all(np.isfinite(self.evidence)):
            raise ConfigError("evidence energies must be finite and nonnegative")
        pair = self.smoothness_table()
        if not np.isfinite(pair).all() or pair.max() <= 0.0:
            raise ConfigError(f"lam={self.lam!r} and tau={self.tau!r} give a "
                              "non-finite or all-zero smoothness table")

    def site_name(self, i: int, j: int) -> str:
        pad = len(str(max(self.height, self.width) - 1))
        return f"x_{i:0{pad}d}_{j:0{pad}d}"

    def site_names(self) -> list[list[str]]:
        """site_name(i, j) for every site, as rows of the lattice."""
        pad = len(str(max(self.height, self.width) - 1))
        return [[f"x_{i:0{pad}d}_{j:0{pad}d}" for j in range(self.width)]
                for i in range(self.height)]

    def smoothness_table(self) -> np.ndarray:
        d = self.labels
        a, b = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp2(-self.lam * np.minimum(np.abs(a - b), self.tau))

    def to_factor_graph(self) -> FactorGraph:
        """Unary evidence factors plus shared pairwise smoothness tables."""
        d = self.labels
        names = self.site_names()
        variables = [Variable(name, d) for row in names for name in row]
        factors = []
        pair_table = self.smoothness_table()
        unary = np.exp2(-self.evidence)
        for i, row in enumerate(names):
            for j, name in enumerate(row):
                factors.append(Factor(f"ev_{name}", [name], unary[i, j], [d]))
                if j + 1 < self.width:
                    factors.append(Factor(
                        f"sm_{name}_e", [name, row[j + 1]], pair_table, [d, d]))
                if i + 1 < self.height:
                    factors.append(Factor(
                        f"sm_{name}_s", [name, names[i + 1][j]], pair_table, [d, d]))
        return FactorGraph(variables, factors)

    def total_energy(self, labels: np.ndarray) -> float:
        """Model energy of a label grid: evidence plus smoothness, in bits."""
        labels = np.asarray(labels)
        flat = labels.reshape(-1) + np.arange(0, labels.size * self.labels, self.labels)
        e = self.evidence.reshape(-1)[flat].sum()   # site s's row starts at s * labels
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
        return csv_text("sweep,energy", enumerate(self.energy_trace))


class _Compiled:
    """The reference path: to_factor_graph, compile, then one run per rung;
    zero-padded site names put its registers and trace columns row-major."""

    def __init__(self, mrf: LatticeMRF, fmt, seed: int, schedule: str):
        self.shape = (mrf.height, mrf.width)
        self.assembly = compile_graph(mrf.to_factor_graph(), fmt=fmt,
                                      schedule=schedule, seed=seed)

    def sweeps(self, temperature: float, n: int):
        self.assembly.set_temperature(temperature)
        for row in run(self.assembly, n, burn_in=0).rows:
            yield np.array(row).reshape(self.shape)

    def labels(self) -> np.ndarray:
        return self.assembly.values.reshape(self.shape).copy()

    def streams(self) -> list[tuple[int, int]]:
        return [(c.stream.state, c.stream.draws_consumed)
                for c in self.assembly.circuits.values()]


class _Checkerboard:
    """A lattice lowered straight to its two checkerboard lane groups.

    Sites are numbered row-major, as the compiled assembly's registers are,
    and the lanes' value vector is the label vector state. The energy table
    holds every site's unary rows, the rows of the lattice's
    smoothness_table that a site reads for its east or south neighbor (the
    table's first axis is the site's), those for its west or north neighbor
    (its second axis), and a zero block. Each site has five parts: its
    unary rows and one per stencil neighbor, where a missing neighbor reads
    the zero block; part p's row starts at offset[p, s] + label[nbr[p, s]] *
    stride[p, s]. These are the rows, and the (sorted-name, so row-major)
    stream forks, that compile gives each site. Group 0 is the greedy coloring's color 0: the parity of
    the first site of maximum degree.
    """

    def __init__(self, mrf: LatticeMRF, fmt: EnergyFormat, seed: int):
        h, w, d = mrf.height, mrf.width, mrf.labels
        n = h * w
        states = fork_states(seed, n)   # checks the seed first, as compile does
        unary = np.exp2(-mrf.evidence).reshape(n, d)
        peak = unary.max(axis=1, keepdims=True)
        if (peak <= 0.0).any():
            i, j = divmod(int((peak[:, 0] <= 0.0).argmax()), w)
            raise NoSupportError(f"factor 'ev_{mrf.site_name(i, j)}' has an all-zero table")
        pair = mrf.smoothness_table()
        table = self.table = _EnergyTable(fmt)
        unary_at = table.add("unary", _energy_rows, unary, peak)[0]
        first = table.add("site first", _energy_rows, np.moveaxis(pair, 0, -1), pair.max())[0]
        second = table.add("site second", _energy_rows, pair, pair.max())[0]
        zero = table.add("zeros", np.zeros, d)[0]
        sites = np.arange(n)
        row, col = np.divmod(sites, w)
        stencil = [(col + 1 < w, 1, first), (row + 1 < h, w, first),
                   (col > 0, -1, second), (row > 0, -w, second)]
        nbr = np.stack([sites] + [np.where(ok, sites + step, sites)
                                  for ok, step, _ in stencil])
        stride = np.stack([np.zeros_like(sites)] + [ok * d for ok, _, _ in stencil])
        offset = np.stack([unary_at + sites * d] + [np.where(ok, block, zero)
                                                    for ok, _, block in stencil])
        degree = sum(ok.astype(int) for ok, _, _ in stencil)
        parity = (row + col) % 2
        color = parity != parity[degree.argmax()]
        pad = np.zeros((d, 1), bool)

        def name(site: int) -> str:
            return mrf.site_name(*divmod(site, w))

        self.groups = [_LaneGroup(g, nbr[:, g], stride[:, g], offset[:, g], pad, states[g],
                                  name, table)
                       for g in (sites[~color], sites[color]) if g.size]
        self.shape = (h, w)
        self.state = np.zeros(n, np.int64)

    def sweeps(self, temperature: float, n: int):
        """n sweeps at temperature; yields the live label grid after each."""
        self.table.set_temperature(temperature)
        grid = self.state.reshape(self.shape)
        for _ in range(n):
            for group in self.groups:
                group.step(self.state)
            yield grid

    def labels(self) -> np.ndarray:
        return self.state.reshape(self.shape).copy()

    def streams(self) -> list[tuple[int, int]]:
        words = np.empty(self.state.size, np.uint64)
        draws = np.empty(self.state.size, np.int64)
        for group in self.groups:
            words[group.sites] = group.words
            draws[group.sites] = group.draws
        return list(zip(words.tolist(), draws.tolist()))


def _ladder(sweeps: int, anneal, anneal_rungs: int) -> list[tuple[float, int]]:
    """(temperature, sweeps) per rung; anneal=None is one rung at T=1."""
    if sweeps < 0:
        raise ConfigError(f"sweeps must be nonnegative, got {sweeps}")
    if anneal is None:
        return [(1.0, sweeps)]
    if len(anneal) != 2 or not all(np.isfinite(t) and t > 0 for t in anneal):
        raise ConfigError(f"annealing needs two finite positive temperatures, "
                          f"got {tuple(anneal)}")
    t_hi, t_lo = anneal
    rungs = max(1, min(anneal_rungs, sweeps))
    temps = np.geomspace(t_hi, t_lo, rungs)
    per = [sweeps // rungs + (1 if r < sweeps % rungs else 0) for r in range(rungs)]
    return [(float(t), n) for t, n in zip(temps, per)]


def _solve(mrf: LatticeMRF, sweeps: int, seed: int, fmt: EnergyFormat | None,
           anneal, anneal_rungs: int, schedule: str):
    """solve(), plus the sampler that ran it; its streams() gives every
    site's final (stream word, draws consumed) in row-major order."""
    ladder = _ladder(sweeps, anneal, anneal_rungs)
    if schedule == "parallel" and _lanes_fit(fmt, mrf.labels):
        sampler = _Checkerboard(mrf, fmt, seed)
    else:
        sampler = _Compiled(mrf, fmt, seed, schedule)
    trace_energy = []
    for temperature, n in ladder:
        if n >= 1:
            trace_energy.extend(mrf.total_energy(grid)
                                for grid in sampler.sweeps(temperature, n))
    meta = {
        "seed": seed, "sweeps": sweeps, "schedule": schedule,
        "format": None if fmt is None else [fmt.bits, fmt.frac],
        "anneal": None if anneal is None else list(anneal),
        "lam": mrf.lam, "tau": mrf.tau, "labels": mrf.labels,
    }
    return SolveResult(sampler.labels(), trace_energy, meta), sampler


def solve(mrf: LatticeMRF, sweeps: int, seed: int = 0,
          fmt: EnergyFormat | None = DEFAULT_FORMAT,
          anneal: tuple[float, float] | None = (2.0, 0.1),
          anneal_rungs: int = 24, schedule: str = "parallel") -> SolveResult:
    """Checkerboard Gibbs on the lattice; anneal=None samples at T=1.

    With annealing, temperature steps down a geometric ladder from
    anneal[0] to anneal[1]; each rung is one run at its temperature and the
    final state is the label estimate. The energy trace records the model
    energy after every sweep.
    """
    return _solve(mrf, sweeps, seed, fmt, anneal, anneal_rungs, schedule)[0]


def labels_to_gray(labels: np.ndarray, d: int) -> np.ndarray:
    """Scale a label grid to 8-bit gray for PGM output: label k is
    k * (255 // (d - 1)), or k * 255 // (d - 1) past 256 labels."""
    if d <= 1:
        return np.zeros_like(labels, dtype=np.uint8)
    step = 255 // (d - 1)
    return (labels * step if step else labels * 255 // (d - 1)).astype(np.uint8)


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
