"""Combinational stochastic gates: samplers driven by conditional probability tables.

A gate with m input bits and n output bits is specified by a table with one
probability row per input word. Boolean logic is the degenerate case where
every row is one-hot, so deterministic and stochastic gates compose freely.
Serial composition multiplies tables (marginalizing the intermediate wire);
parallel composition of gates on disjoint wires takes the tensor product.
"""

from __future__ import annotations

import json

import numpy as np

from .entropy import EntropyStream
from .errors import CompositionError, ConfigError, DomainError

ROW_SUM_TOL = 1e-12
MAX_TABLE_ENTRIES = 1 << 16  # larger gates must be procedural


class Cpt:
    """Dense conditional probability table: rows[x][y] = P(output=y | input=x)."""

    def __init__(self, m: int, n: int, rows):
        rows = np.asarray(rows, dtype=float)
        if rows.shape != (1 << m, 1 << n):
            raise ConfigError(
                f"table shape {rows.shape} does not match interface m={m}, n={n}"
            )
        if rows.size > MAX_TABLE_ENTRIES:
            raise ConfigError(
                f"dense table with {rows.size} entries exceeds limit {MAX_TABLE_ENTRIES}; "
                "use a procedural gate"
            )
        if np.any(rows < 0.0) or np.any(rows > 1.0):
            raise DomainError("table entries must lie in [0, 1]")
        sums = rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise DomainError(f"row {bad} sums to {sums[bad]!r}, expected 1")
        self.m = m
        self.n = n
        self.rows = rows

    @classmethod
    def deterministic(cls, m: int, n: int, fn) -> "Cpt":
        """Embed a Boolean function as a 0/1 table (one-hot rows)."""
        rows = np.zeros((1 << m, 1 << n))
        for x in range(1 << m):
            y = fn(x)
            if not 0 <= y < (1 << n):
                raise DomainError(f"function output {y} outside [0, 2^{n})")
            rows[x, y] = 1.0
        return cls(m, n, rows)

    def matmul(self, other: "Cpt") -> "Cpt":
        if self.n != other.m:
            raise CompositionError(
                f"cannot chain {self.n}-bit output into {other.m}-bit input"
            )
        return Cpt(self.m, other.n, self.rows @ other.rows)

    def tensor(self, other: "Cpt") -> "Cpt":
        """Product gate over disjoint wires; first operand takes the high bits."""
        return Cpt(self.m + other.m, self.n + other.n, np.kron(self.rows, other.rows))

    def to_json(self) -> str:
        return json.dumps({"m": self.m, "n": self.n, "rows": self.rows.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Cpt":
        doc = json.loads(text)
        try:
            return cls(int(doc["m"]), int(doc["n"]), doc["rows"])
        except KeyError as exc:
            raise ConfigError(f"CPT JSON is missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed CPT JSON: {exc}") from None


class StochasticGate:
    """Base class: an (m, n) interface plus a sampling behavior.

    Subclasses either carry an explicit table or declare an equivalent one
    via cpt(); sample() must follow the declared row distribution.
    """

    m: int
    n: int

    def sample(self, x: int, stream: EntropyStream) -> int:
        raise NotImplementedError

    def cpt(self) -> Cpt:
        raise NotImplementedError

    def _check_input(self, x: int):
        if not 0 <= x < (1 << self.m):
            raise DomainError(f"input {x} outside [0, 2^{self.m})")


class TableGate(StochasticGate):
    """Gate that samples directly from a stored table by CDF inversion.

    The lookup bisects (rows can hold up to 2^16 entries) and clamps to the
    row's last output of positive probability when rounding leaves the
    row's running sum at or below u.
    """

    def __init__(self, cpt: Cpt):
        self._cpt = cpt
        self.m = cpt.m
        self.n = cpt.n
        self._cdf = np.cumsum(cpt.rows, axis=1)
        self._last = ((1 << cpt.n) - 1 - np.argmax(cpt.rows[:, ::-1] > 0, axis=1)).tolist()

    def sample(self, x: int, stream: EntropyStream) -> int:
        self._check_input(x)
        u = stream.next_unit()
        return min(int(np.searchsorted(self._cdf[x], u, side="right")), self._last[x])

    def cpt(self) -> Cpt:
        return self._cpt


class ThetaGate(StochasticGate):
    """Bernoulli gate: emits 1 with probability k / 2^m for input weight k.

    Implemented as a comparator against an m-bit uniform draw, so the weight
    k = 2^m is unreachable and theta = 1 cannot be encoded.
    """

    def __init__(self, m: int):
        if not 1 <= m <= 64:
            raise ConfigError(f"weight width must be in [1, 64], got {m}")
        self.m = m
        self.n = 1

    def sample(self, k: int, stream: EntropyStream) -> int:
        self._check_input(k)
        return 1 if stream.next_bits(self.m) < k else 0

    def cpt(self) -> Cpt:
        scale = float(1 << self.m)
        rows = np.array([[1.0 - k / scale, k / scale] for k in range(1 << self.m)])
        return Cpt(self.m, 1, rows)


class SerialGate(StochasticGate):
    """Chain of two gates; samples g1 then feeds the result to g2."""

    def __init__(self, g1: StochasticGate, g2: StochasticGate):
        if g1.n != g2.m:
            raise CompositionError(
                f"output width {g1.n} does not match input width {g2.m}"
            )
        self.g1 = g1
        self.g2 = g2
        self.m = g1.m
        self.n = g2.n

    def sample(self, x: int, stream: EntropyStream) -> int:
        self._check_input(x)
        return self.g2.sample(self.g1.sample(x, stream), stream)

    def cpt(self) -> Cpt:
        return self.g1.cpt().matmul(self.g2.cpt())


class ParallelGate(StochasticGate):
    """Fan-out product of gates on disjoint wires; g1 owns the high bits."""

    def __init__(self, g1: StochasticGate, g2: StochasticGate):
        self.g1 = g1
        self.g2 = g2
        self.m = g1.m + g2.m
        self.n = g1.n + g2.n

    def sample(self, x: int, stream: EntropyStream) -> int:
        self._check_input(x)
        x1 = x >> self.g2.m
        x2 = x & ((1 << self.g2.m) - 1)
        return (self.g1.sample(x1, stream) << self.g2.n) | self.g2.sample(x2, stream)

    def cpt(self) -> Cpt:
        return self.g1.cpt().tensor(self.g2.cpt())


def theta_sample(weight: int, m: int, stream: EntropyStream) -> int:
    """One Bernoulli(weight / 2^m) draw: ThetaGate(m) on input weight."""
    return ThetaGate(m).sample(weight, stream)


def compose_serial(g1: StochasticGate, g2: StochasticGate) -> SerialGate:
    return SerialGate(g1, g2)


def compose_parallel(g1: StochasticGate, g2: StochasticGate) -> ParallelGate:
    return ParallelGate(g1, g2)


def binomial_circuit(n_coins: int, weight: int, m: int, stream: EntropyStream) -> int:
    """Sum of n_coins independent theta draws: Binomial(n_coins, weight/2^m)."""
    if n_coins < 1:
        raise DomainError(f"need at least one coin, got {n_coins}")
    return sum(theta_sample(weight, m, stream) for _ in range(n_coins))


def estimate_cpt(gate: StochasticGate, samples_per_row: int, stream: EntropyStream) -> Cpt:
    """Estimate the table by time-averaging outputs, row by row."""
    if samples_per_row < 1:
        raise DomainError("samples_per_row must be >= 1")
    rows = np.zeros((1 << gate.m, 1 << gate.n))
    for x in range(1 << gate.m):
        for _ in range(samples_per_row):
            rows[x, gate.sample(x, stream)] += 1
    return Cpt(gate.m, gate.n, rows / samples_per_row)


# Stock Boolean gates, embedded as degenerate tables.

def and_gate() -> TableGate:
    return TableGate(Cpt.deterministic(2, 1, lambda x: (x >> 1) & x & 1))


def or_gate() -> TableGate:
    return TableGate(Cpt.deterministic(2, 1, lambda x: ((x >> 1) | x) & 1))


def xor_gate() -> TableGate:
    return TableGate(Cpt.deterministic(2, 1, lambda x: ((x >> 1) ^ x) & 1))


def not_gate() -> TableGate:
    return TableGate(Cpt.deterministic(1, 1, lambda x: 1 - x))


def identity_gate(n: int) -> TableGate:
    return TableGate(Cpt.deterministic(n, n, lambda x: x))
