import numpy as np
import pytest

from oracles import FixedUnitStream
from stochcirc.entropy import EntropyStream
from stochcirc.errors import CompositionError, ConfigError, DomainError
from stochcirc.gates import (
    Cpt,
    TableGate,
    ThetaGate,
    and_gate,
    binomial_circuit,
    compose_parallel,
    compose_serial,
    estimate_cpt,
    identity_gate,
    not_gate,
    or_gate,
    theta_sample,
    xor_gate,
)
from stochcirc.lowprec import total_variation


def random_cpt(m, n, rng):
    rows = rng.random((1 << m, 1 << n)) + 0.05
    return Cpt(m, n, rows / rows.sum(axis=1, keepdims=True))


def test_cpt_validation():
    with pytest.raises(DomainError):
        Cpt(1, 1, [[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(DomainError):
        Cpt(1, 1, [[1.2, -0.2], [0.5, 0.5]])
    with pytest.raises(ConfigError):
        Cpt(1, 1, [[0.5, 0.5]])


def test_and_gate_truth_table():
    g = and_gate()
    s = EntropyStream(0)
    # (1,1) -> 1 always; any other input -> 0 always
    assert all(g.sample(3, s) == 1 for _ in range(50))
    for x in (0, 1, 2):
        assert all(g.sample(x, s) == 0 for _ in range(50))


def test_boolean_gates_match_truth_tables_everywhere():
    s = EntropyStream(1)
    for gate, fn in [(xor_gate(), lambda x: ((x >> 1) ^ x) & 1),
                     (or_gate(), lambda x: int(x > 0)),
                     (not_gate(), lambda x: 1 - x),
                     (identity_gate(2), lambda x: x)]:
        for x in range(1 << gate.m):
            assert all(gate.sample(x, s) == fn(x) for _ in range(20))


def test_gate_input_out_of_range():
    with pytest.raises(DomainError):
        and_gate().sample(4, EntropyStream(0))


def test_theta_zero_weight_never_fires():
    s = EntropyStream(3)
    assert all(theta_sample(0, 8, s) == 0 for _ in range(1000))


def test_theta_half_weight_frequency():
    # m=8, k=128: P(1)=0.5 exactly; 3-sigma bound at 1e6 draws
    s = EntropyStream(42)
    n = 10**6
    ones = sum(theta_sample(128, 8, s) for _ in range(n))
    assert abs(ones / n - 0.5) <= 0.0015


def test_theta_max_weight_frequency():
    # k=255: P(1) = 255/256 from the comparator rule
    s = EntropyStream(43)
    n = 200_000
    ones = sum(theta_sample(255, 8, s) for _ in range(n))
    p = 255 / 256
    assert abs(ones / n - p) <= 3 * np.sqrt(p * (1 - p) / n)


def test_theta_gate_cpt_unreachable_one():
    g = ThetaGate(4)
    table = g.cpt().rows
    assert table[0, 1] == 0.0
    assert table[15, 1] == 15 / 16  # theta = 1 cannot be encoded


def test_compose_serial_deterministic_recovers_boolean_composition():
    # NOT after NOT is the identity, as one-hot matrix product
    c = compose_serial(not_gate(), not_gate()).cpt()
    assert np.array_equal(c.rows, np.eye(2))


def test_compose_serial_identity_is_neutral():
    rng = np.random.default_rng(0)
    g = TableGate(random_cpt(2, 2, rng))
    composed = compose_serial(g, identity_gate(2)).cpt()
    assert np.allclose(composed.rows, g.cpt().rows, atol=1e-15)


def test_compose_serial_interface_mismatch():
    with pytest.raises(CompositionError):
        compose_serial(and_gate(), and_gate())


def test_compose_serial_matches_matrix_product_empirically():
    # 1e6 draws split over the 4 input rows; TV < 0.01 per row
    rng = np.random.default_rng(7)
    g1 = TableGate(random_cpt(2, 2, rng))
    g2 = TableGate(random_cpt(2, 2, rng))
    chained = compose_serial(g1, g2)
    declared = g1.cpt().rows @ g2.cpt().rows
    s = EntropyStream(99)
    per_row = 250_000
    for x in range(4):
        counts = np.zeros(4)
        for _ in range(per_row):
            counts[chained.sample(x, s)] += 1
        assert total_variation(counts / per_row, declared[x]) < 0.01


def test_cpt_algebra_associative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c = (random_cpt(2, 2, rng) for _ in range(3))
        left = a.matmul(b).matmul(c).rows
        right = a.matmul(b.matmul(c)).rows
        assert np.abs(left - right).max() < 1e-12


def test_parallel_composition_is_tensor_product():
    rng = np.random.default_rng(5)
    g1 = TableGate(random_cpt(1, 1, rng))
    g2 = TableGate(random_cpt(1, 1, rng))
    prod = compose_parallel(g1, g2)
    assert np.allclose(prod.cpt().rows, np.kron(g1.cpt().rows, g2.cpt().rows))
    s = EntropyStream(17)
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[prod.sample(0b01, s)] += 1
    assert total_variation(counts / n, prod.cpt().rows[0b01]) < 0.01


def test_binomial_zero_weight():
    s = EntropyStream(0)
    assert all(binomial_circuit(5, 0, 8, s) == 0 for _ in range(200))


def test_binomial_three_fair_coins_pmf():
    # Binomial(3, 1/2): pmf C(3,j)/8; TV < 0.01 at 1e6 draws
    s = EntropyStream(8)
    n = 10**6
    counts = np.zeros(4)
    for _ in range(n):
        counts[binomial_circuit(3, 128, 8, s)] += 1
    pmf = np.array([1, 3, 3, 1]) / 8
    assert total_variation(counts / n, pmf) < 0.01


def test_binomial_single_coin_reduces_to_theta():
    s1 = EntropyStream(21)
    s2 = EntropyStream(21)
    a = [binomial_circuit(1, 200, 8, s1) for _ in range(500)]
    b = [theta_sample(200, 8, s2) for _ in range(500)]
    assert a == b


def test_estimate_cpt_deterministic_gate_exact():
    est = estimate_cpt(and_gate(), 50, EntropyStream(3))
    assert np.array_equal(est.rows, and_gate().cpt().rows)


def test_estimate_cpt_theta_converges():
    # theta gate m=4, k=4: row estimate within +/-0.002 of 0.25 at 1e6 samples
    g = ThetaGate(4)
    s = EntropyStream(10)
    n = 10**6
    ones = sum(g.sample(4, s) for _ in range(n))
    assert abs(ones / n - 0.25) < 0.002


def test_estimate_cpt_of_composition_matches_product():
    rng = np.random.default_rng(2)
    g1 = TableGate(random_cpt(2, 2, rng))
    g2 = TableGate(random_cpt(2, 2, rng))
    chained = compose_serial(g1, g2)
    est = estimate_cpt(chained, 100_000, EntropyStream(12))
    declared = chained.cpt().rows
    for x in range(4):
        assert total_variation(est.rows[x], declared[x]) < 0.01


def test_builtin_gates_statistically_sound():
    # every built-in gate: empirical rows match the declared table, TV < 0.01
    rng = np.random.default_rng(9)
    gates = [and_gate(), xor_gate(), not_gate(), ThetaGate(3),
             TableGate(random_cpt(2, 2, rng))]
    s = EntropyStream(55)
    for g in gates:
        declared = g.cpt().rows
        per_row = 10**6 // (1 << g.m)
        for x in range(1 << g.m):
            counts = np.zeros(1 << g.n)
            for _ in range(per_row):
                counts[g.sample(x, s)] += 1
            assert total_variation(counts / per_row, declared[x]) < 0.01


def test_cpt_json_roundtrip():
    rng = np.random.default_rng(4)
    c = random_cpt(2, 1, rng)
    c2 = Cpt.from_json(c.to_json())
    assert c2.m == c.m and c2.n == c.n
    assert np.allclose(c2.rows, c.rows)


def test_dense_table_size_limit():
    with pytest.raises(ConfigError):
        Cpt(9, 9, np.full((512, 512), 1 / 512))


def test_table_gate_clamps_a_short_row_to_the_last_output():
    # the row sums to 1 - 4e-13, inside ROW_SUM_TOL, so the largest unit
    # draw lies past the end of its CDF
    gate = TableGate(Cpt(1, 1, [[0.5, 0.5 - 4e-13], [1.0, 0.0]]))
    assert gate.sample(0, FixedUnitStream(1.0 - 2.0 ** -53)) == 1
    assert gate.sample(0, FixedUnitStream(0.25)) == 0
    assert gate.sample(0, FixedUnitStream(0.5)) == 1


def test_table_gate_never_clamps_to_an_output_of_probability_zero():
    # the row sums to 1 - 1e-13, inside ROW_SUM_TOL, and its last two
    # outputs have probability zero
    gate = TableGate(Cpt(0, 2, [[0.3, 0.7 - 1e-13, 0.0, 0.0]]))
    assert gate.sample(0, FixedUnitStream(1.0 - 2.0 ** -53)) == 1
    assert gate.sample(0, FixedUnitStream(0.3)) == 1
    assert gate.sample(0, FixedUnitStream(0.0)) == 0


def test_theta_sample_is_the_theta_gate():
    s1, s2 = EntropyStream(44), EntropyStream(44)
    gate = ThetaGate(5)
    assert ([theta_sample(k % 32, 5, s1) for k in range(300)]
            == [gate.sample(k % 32, s2) for k in range(300)])
    with pytest.raises(DomainError, match=r"input 32 outside \[0, 2\^5\)"):
        theta_sample(32, 5, s1)
    with pytest.raises(ConfigError):
        theta_sample(0, 65, s1)
