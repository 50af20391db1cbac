"""Low-precision fixed-point energies and the discrete-sample gate.

Energies are unnormalized negative log2 probabilities stored as unsigned
fixed-point words: a format (b, f) gives b total bits with f fraction bits,
so a raw word r encodes the energy r / 2^f. The all-ones word 2^b - 1 is a
saturation sentinel meaning "effectively impossible" (probability exactly
zero). Lower energy means higher probability.

The sampling gate renormalizes by subtracting the minimum energy, then
exponentiates base 2. To keep the implemented distribution exactly
computable, weights are exact integers:

    d_i = raw_i - raw_min,   q_i = d_i >> f,   r_i = d_i & (2^f - 1)
    w_i = M[r_i] << (Qmax - q_i)

where M[r] = round(2^(-r/2^f) * 2^16) is a per-format table of 2^f sub-unit
multipliers and Qmax = (2^b - 1) >> f. The declared output distribution is
w_i / sum(w), and the gate samples it by integer CDF inversion, so analysis
and hardware behavior agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from . import csv_text
from .entropy import EntropyStream
from .errors import ConfigError, DomainError, NoSupportError

MULTIPLIER_BITS = 16
#: A sampler that computes the exact integer weights, Qmax + MULTIPLIER_BITS
#: bits wide, refuses a format whose weights are wider than this. Every draw
#: computes with integers that wide, so (32,0), whose weights have about
#: 2^32 bits, would never finish a sweep; (12,1) and (10,0) are admitted,
#: (12,0) is not.
GIBBS_WEIGHT_BITS = 4096
#: EnergyFormat refuses more fraction bits: the weight formula's multiplier
#: table has 2^f entries, so (32,27) would take minutes and gigabytes to build.
MAX_FRAC_BITS = 16


@dataclass(frozen=True)
class EnergyFormat:
    """Fixed-point energy format: total bits and fraction bits."""

    bits: int
    frac: int
    #: Saturation sentinel: the largest raw word. Set once, in __post_init__,
    #: with the other fields, so reading any of them stays a plain lookup.
    max_raw: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.bits <= 32:
            raise ConfigError(f"total bits must be in [1, 32], got {self.bits}")
        top = min(self.bits, MAX_FRAC_BITS)
        if not 0 <= self.frac <= top:
            raise ConfigError(f"fraction bits must be in [0, {top}], got {self.frac}")
        object.__setattr__(self, "max_raw", (1 << self.bits) - 1)

    @property
    def resolution(self) -> float:
        return 2.0 ** -self.frac

    @property
    def max_energy(self) -> float:
        """Largest representable (non-saturated) energy in bits."""
        return (self.max_raw - 1) / (1 << self.frac)


DEFAULT_FORMAT = EnergyFormat(8, 4)


def weight_bits(fmt: EnergyFormat, outcomes: int = 1) -> int:
    """Bits that bound the total of outcomes integer weights at fmt:
    Qmax + MULTIPLIER_BITS + ceil(log2 outcomes)."""
    return (fmt.max_raw >> fmt.frac) + MULTIPLIER_BITS + (outcomes - 1).bit_length()


def check_weight_width(fmt: EnergyFormat):
    """ConfigError unless fmt's integer weights fit GIBBS_WEIGHT_BITS."""
    if weight_bits(fmt) > GIBBS_WEIGHT_BITS:
        raise ConfigError(f"format ({fmt.bits},{fmt.frac}) gives Gibbs weights wider "
                          f"than {GIBBS_WEIGHT_BITS} bits")


@dataclass(frozen=True)
class EnergyWord:
    raw: int
    fmt: EnergyFormat

    @property
    def value(self) -> float:
        return self.raw / (1 << self.fmt.frac)

    @property
    def saturated(self) -> bool:
        return self.raw == self.fmt.max_raw


_TABLE_CACHE: dict[int, tuple[list[int], np.ndarray, np.ndarray]] = {}


def _multiplier_table(frac: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Sub-unit multipliers M[r], as a list and as int64, and their exact
    log2 values, cached per f."""
    cached = _TABLE_CACHE.get(frac)
    if cached is None:
        scale = 1 << MULTIPLIER_BITS
        table = [round(2.0 ** (-r / (1 << frac)) * scale) for r in range(1 << frac)]
        lanes = np.asarray(table, np.int64)
        cached = _TABLE_CACHE[frac] = (table, lanes, np.log2(lanes))
    return cached


def encode_energy(p: float, fmt: EnergyFormat = DEFAULT_FORMAT) -> EnergyWord:
    """Encode a probability as a fixed-point energy, saturating out of range."""
    if not 0.0 < p <= 1.0:
        raise DomainError(f"probability must lie in (0, 1], got {p}")
    raw = int(round(-math.log2(p) * (1 << fmt.frac)))
    return EnergyWord(min(raw, fmt.max_raw), fmt)


def quantize_energies(energies, fmt: EnergyFormat = DEFAULT_FORMAT) -> np.ndarray:
    """Round energies (in bits) to raw words, saturating; +inf maps to the sentinel."""
    e = np.asarray(energies, dtype=float)
    raw = np.rint(e * (1 << fmt.frac))
    raw = np.where(np.isfinite(raw), raw, fmt.max_raw)
    return np.minimum(raw, fmt.max_raw).astype(np.int64)


def integer_weights(raws, fmt: EnergyFormat) -> list[int]:
    """Exact integer weights for a raw energy vector; saturated entries get 0.

    Raises NoSupportError when every entry is saturated.
    """
    sat = fmt.max_raw
    live = [r for r in raws if r != sat]
    if not live:
        raise NoSupportError("all energies saturated: distribution has no support")
    emin = min(live)
    table = _multiplier_table(fmt.frac)[0]
    mask = (1 << fmt.frac) - 1
    qmax = sat >> fmt.frac
    out = []
    for r in raws:
        if r == sat:
            out.append(0)
        else:
            d = r - emin
            out.append(table[d & mask] << (qmax - (d >> fmt.frac)))
    return out


def float_weights(energies) -> list[float]:
    """Float weights 2^-(e - e_min); +inf energies get weight 0.

    Raises NoSupportError when every energy is infinite.
    """
    emin = min(energies)
    if emin == math.inf:
        raise NoSupportError("all energies saturated: distribution has no support")
    return [2.0 ** -(e - emin) for e in energies]


def invert_cdf(weights, u) -> int:
    """The first index whose running weight sum exceeds u (0 <= u < sum).

    A linear scan: K is small on every sampling path, where it beats
    building a cumulative list for bisection. When u reaches the running
    sum (float rounding can bring it there), the last index of positive
    weight is drawn, never a zero-weight one.
    """
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    for i in range(len(weights) - 1, -1, -1):
        if weights[i] > 0:
            return i
    return len(weights) - 1


class EnergyVector:
    """A vector of same-format energies over K outcomes."""

    def __init__(self, raws, fmt: EnergyFormat = DEFAULT_FORMAT):
        raws = [int(r) for r in raws]
        if not raws:
            raise ConfigError("energy vector needs at least one outcome")
        for r in raws:
            if not 0 <= r <= fmt.max_raw:
                raise DomainError(f"raw word {r} outside [0, {fmt.max_raw}]")
        self.raws = raws
        self.fmt = fmt

    @classmethod
    def from_probs(cls, probs, fmt: EnergyFormat = DEFAULT_FORMAT) -> "EnergyVector":
        """Encode a probability vector, renormalized so the mode has energy 0."""
        p = np.asarray(probs, dtype=float)
        if np.any(p < 0) or p.max() <= 0:
            raise DomainError("probabilities must be nonnegative with positive max")
        with np.errstate(divide="ignore"):
            e = -np.log2(p / p.max())
        return cls(quantize_energies(e, fmt).tolist(), fmt)

    @classmethod
    def from_energies(cls, energies, fmt: EnergyFormat = DEFAULT_FORMAT) -> "EnergyVector":
        return cls(quantize_energies(energies, fmt).tolist(), fmt)

    def __len__(self):
        return len(self.raws)

    def weights(self) -> list[int]:
        return integer_weights(self.raws, self.fmt)

    def declared_distribution(self) -> np.ndarray:
        """The exact output distribution of the gate on these energies."""
        w = self.weights()
        total = sum(w)
        return np.array([wi / total for wi in w])


def discrete_sample(energies: EnergyVector, stream: EntropyStream) -> int:
    """Draw an outcome index with probability proportional to 2^(-energy)."""
    weights = energies.weights()
    return invert_cdf(weights, stream.next_below(sum(weights)))


def relative_entropy(p, q) -> float:
    """KL(p || q) in bits; returns inf when q lacks support where p has mass."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ConfigError(f"length mismatch: {p.shape} vs {q.shape}")
    live = p > 0
    if np.any(q[live] == 0):
        return math.inf
    return float(np.sum(p[live] * (np.log2(p[live]) - np.log2(q[live]))))


def total_variation(p, q) -> float:
    """Half the L1 distance between two distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * float(np.abs(p - q).sum())


def truncated_distribution(probs: np.ndarray, fmt: EnergyFormat) -> np.ndarray:
    """The gate's declared distribution after encoding probs at the format.

    Works along the last axis, so a (n, K) batch gives n distributions; a row
    saturated everywhere raises NoSupportError. Past the weights' log2 the
    steps run in place: fresh arrays cost about a fifth of a (300, 1000) call.
    """
    p = np.asarray(probs, dtype=float)
    with np.errstate(divide="ignore"):
        e = -np.log2(p / p.max(axis=-1, keepdims=True))
    d = quantize_energies(e, fmt)
    sat = d == fmt.max_raw
    if np.any(np.all(sat, axis=-1)):
        raise NoSupportError("all energies saturated: distribution has no support")
    d -= np.where(sat, fmt.max_raw, d).min(axis=-1, keepdims=True)
    mask = (1 << fmt.frac) - 1
    qmax = fmt.max_raw >> fmt.frac
    lw = _multiplier_table(fmt.frac)[2][d & mask] + (qmax - (d >> fmt.frac))
    lw[sat] = -np.inf
    lw -= lw.max(axis=-1, keepdims=True)
    w = np.exp2(lw, out=lw)
    return w / w.sum(axis=-1, keepdims=True)


def truncation_kl(probs, fmt: EnergyFormat) -> np.ndarray | float:
    """Accuracy loss of the gate on a distribution, in bits, along the last
    axis: one float for a distribution, n for a (n, K) batch.

    Measured as KL(implemented || exact): the implemented distribution's
    support is always contained in the exact one's, so the divergence is
    finite even when truncation drops outcomes.
    """
    p = np.asarray(probs, dtype=float)
    q = truncated_distribution(p, fmt)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = q * (np.log2(q) - np.log2(p))
    return np.where(q > 0.0, terms, 0.0).sum(axis=-1)


# --- precision sweep -------------------------------------------------------

_CONC_LO, _CONC_HI = 1e-3, 1e3


def mean_dirichlet_entropy(alpha: float, k: int) -> float:
    """E[H(p)] in bits for p ~ Dirichlet(alpha * 1_k)."""
    from scipy.special import digamma  # only the precision sweep pays scipy's import
    return float(digamma(k * alpha + 1.0) - digamma(alpha + 1.0)) / math.log(2.0)


def concentration_for_entropy(target_bits: float, k: int) -> float:
    """Invert mean_dirichlet_entropy by bisection, clamped to [1e-3, 1e3]."""
    if target_bits <= mean_dirichlet_entropy(_CONC_LO, k):
        return _CONC_LO
    if target_bits >= mean_dirichlet_entropy(_CONC_HI, k):
        return _CONC_HI
    lo, hi = math.log(_CONC_LO), math.log(_CONC_HI)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mean_dirichlet_entropy(math.exp(mid), k) < target_bits:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def default_entropy_grid(k: int) -> list[float]:
    """0 (one-hot), Dirichlet-reachable targets, and log2(k) (uniform)."""
    top = math.log2(k)
    reachable_lo = mean_dirichlet_entropy(_CONC_LO, k)
    grid = [0.0]
    step = max(1.0, (top - reachable_lo) / 9.0)
    t = reachable_lo
    while t < top - 0.25:
        grid.append(round(t, 3))
        t += step
    grid.append(round(top, 3))
    return grid


@dataclass
class SweepRow:
    entropy_bits: float
    total_bits: int
    frac_bits: int
    mean_kl: float
    max_kl: float
    n: int


def _bin_probs(target_bits: float, k: int, n_dists: int, rng: np.random.Generator) -> np.ndarray:
    if target_bits <= 0.0:
        out = np.zeros((n_dists, k))
        out[:, 0] = 1.0
        return out
    if target_bits >= math.log2(k):
        return np.full((n_dists, k), 1.0 / k)
    alpha = concentration_for_entropy(target_bits, k)
    # dirichlet via gammas; tiny concentrations underflow some entries to 0,
    # which encode to the saturation sentinel (probability-zero outcomes).
    g = rng.gamma(alpha, 1.0, size=(n_dists, k))
    totals = g.sum(axis=1)
    dead = totals == 0.0
    if np.any(dead):
        g[dead, 0] = 1.0
        totals = g.sum(axis=1)
    return g / totals[:, None]


def precision_sweep(
    k: int = 1000,
    n_dists: int = 10_000,
    formats=None,
    seed: int = 0,
) -> list[SweepRow]:
    """Measure truncation KL across entropy bins and fixed-point formats.

    Distributions are stratified by target entropy, one bin per entry of
    default_entropy_grid(k): each bin draws from a symmetric Dirichlet whose
    concentration is solved so the expected draw entropy matches the
    target, plus exact one-hot and uniform endpoints.
    The analysis-side draws come from a numpy generator seeded from an
    EntropyStream fork so runs stay reproducible from one master seed.
    """
    if k < 2:
        raise ConfigError(f"need at least two outcomes, got {k}")
    if n_dists < 1:
        raise ConfigError(f"need at least one distribution per bin, got {n_dists}")
    if formats is None:
        formats = [EnergyFormat(4, 2), EnergyFormat(6, 3), EnergyFormat(8, 4), EnergyFormat(10, 5)]
    master = EntropyStream(seed)
    rows = []
    for bin_idx, target in enumerate(default_entropy_grid(k)):
        rng = np.random.default_rng(master.fork(bin_idx).next_bits(64))
        probs = _bin_probs(float(target), k, n_dists, rng)
        for fmt in formats:
            kl = truncation_kl(probs, fmt)
            rows.append(
                SweepRow(
                    entropy_bits=float(target),
                    total_bits=fmt.bits,
                    frac_bits=fmt.frac,
                    mean_kl=float(kl.mean()),
                    max_kl=float(kl.max()),
                    n=n_dists,
                )
            )
    return rows


def sweep_rows_to_csv(rows) -> str:
    return csv_text("entropy_bits,total_bits,frac_bits,mean_kl,max_kl,n",
                    (astuple(r) for r in rows))
