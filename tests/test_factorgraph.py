import json

import numpy as np
import pytest

from oracles import fork_graph, joint_by_enumeration
from stochcirc import fixture_text
from stochcirc.compiler import compile as compile_graph
from stochcirc.errors import (
    AcyclicityError,
    DuplicateNameError,
    GraphError,
    NegativeWeightError,
    NoSupportError,
    StateSpaceError,
    TableLengthError,
    UnknownVariableError,
)
from stochcirc.factorgraph import (
    BayesNet,
    BayesNode,
    Factor,
    FactorGraph,
    Variable,
    enumerate_joint,
    from_bayes_net,
    marginal,
    parse,
    serialize,
)


def test_parse_minimal_document():
    g = parse('{"variables": [{"name": "X", "arity": 2}], '
              '"factors": [{"name": "u", "vars": ["X"], "table": [1, 3]}]}')
    assert len(g.variables) == 1 and len(g.factors) == 1


def test_fork_fixture_edges():
    g = parse(fixture_text("three_var_fork.json"))
    assert g.interaction_edges() == {("A", "B"), ("A", "C")}


def test_wrong_table_length_names_factor():
    doc = {"variables": [{"name": "X", "arity": 2}],
           "factors": [{"name": "bad", "vars": ["X"], "table": [1, 2, 3]}]}
    with pytest.raises(TableLengthError, match="bad"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("kernel", ["gibbs", "mh"])
def test_table_shape_must_match_declared_arities(kernel):
    variables = [Variable("A", 2), Variable("B", 3)]
    factor = Factor("f", ["A", "B"], [1.0, 2.0, 3.0, 4.0], [2, 2])
    with pytest.raises(TableLengthError, match="'f'"):
        compile_graph(FactorGraph(variables, [factor]), kernel)


def test_unknown_variable_error():
    doc = {"variables": [{"name": "X", "arity": 2}],
           "factors": [{"name": "f", "vars": ["Y"], "table": [1, 1]}]}
    with pytest.raises(UnknownVariableError):
        parse(json.dumps(doc))


def test_negative_weight_error():
    doc = {"variables": [{"name": "X", "arity": 2}],
           "factors": [{"name": "f", "vars": ["X"], "table": [1, -1]}]}
    with pytest.raises(NegativeWeightError):
        parse(json.dumps(doc))


def test_duplicate_names_error():
    doc = {"variables": [{"name": "X", "arity": 2}, {"name": "X", "arity": 2}],
           "factors": []}
    with pytest.raises(DuplicateNameError):
        parse(json.dumps(doc))
    doc = {"variables": [{"name": "X", "arity": 2}],
           "factors": [{"name": "f", "vars": ["X"], "table": [1, 1]},
                       {"name": "f", "vars": ["X"], "table": [1, 1]}]}
    with pytest.raises(DuplicateNameError):
        parse(json.dumps(doc))


def test_evidence_validated():
    doc = {"variables": [{"name": "X", "arity": 2}],
           "factors": [{"name": "f", "vars": ["X"], "table": [1, 1]}],
           "evidence": {"X": 5}}
    with pytest.raises(GraphError):
        parse(json.dumps(doc))


def test_unsupported_evidence_rejected_at_parse():
    doc = {"variables": [{"name": "X", "arity": 2}],
           "factors": [{"name": "f", "vars": ["X"], "table": [0, 1]}],
           "evidence": {"X": 0}}
    with pytest.raises(NoSupportError):
        parse(json.dumps(doc))


def test_roundtrip_serialize_parse():
    g = parse(fixture_text("icu_monitor.json"))
    g2 = parse(serialize(g))
    assert g2.var_names == g.var_names
    assert [f.name for f in g2.factors] == [f.name for f in g.factors]
    for f, f2 in zip(g.factors, g2.factors):
        assert f.vars == f2.vars
        assert np.array_equal(f.table, f2.table)
    assert g2.evidence == g.evidence


def test_enumerate_unary_normalizes():
    g = parse('{"variables": [{"name": "X", "arity": 2}], '
              '"factors": [{"name": "u", "vars": ["X"], "table": [1, 3]}]}')
    assert np.allclose(enumerate_joint(g), [0.25, 0.75])


def test_enumerate_uniform_factors():
    g = FactorGraph([Variable("X", 2), Variable("Y", 3)],
                    [])
    assert np.allclose(enumerate_joint(g), np.full((2, 3), 1 / 6))


def test_enumerate_matches_independent_oracle():
    g = fork_graph()
    assert np.allclose(enumerate_joint(g), joint_by_enumeration(g), atol=1e-14)
    g_ev = fork_graph({"C": 1})
    assert np.allclose(enumerate_joint(g_ev), joint_by_enumeration(g_ev), atol=1e-14)


def test_evidence_is_renormalized_slice():
    g = fork_graph()
    full = enumerate_joint(g)
    sliced = full[:, :, 1] / full[:, :, 1].sum()
    cond = enumerate_joint(fork_graph({"C": 1}))
    assert np.allclose(cond[:, :, 1], sliced)
    assert cond[:, :, 0].sum() == 0.0


def test_enumerate_refuses_large_state_space():
    variables = [Variable(f"x{i}", 2) for i in range(21)]
    g = FactorGraph(variables, [])
    with pytest.raises(StateSpaceError):
        enumerate_joint(g)


def test_marginal_helper():
    g = fork_graph()
    joint = enumerate_joint(g)
    assert np.allclose(marginal(joint, g, "A"), [0.3, 0.7])


def test_bayes_net_single_root():
    net = BayesNet([BayesNode("R", 2, [], [[0.4, 0.6]])])
    g = from_bayes_net(net)
    assert len(g.factors) == 1
    assert np.allclose(enumerate_joint(g), [0.4, 0.6])


def test_bayes_net_fork_matches_cpt_product():
    net = BayesNet([
        BayesNode("A", 2, [], [[0.3, 0.7]]),
        BayesNode("B", 2, ["A"], [[0.8, 0.2], [0.25, 0.75]]),
        BayesNode("C", 2, ["A"], [[0.6, 0.4], [0.1, 0.9]]),
    ])
    g = from_bayes_net(net)
    assert np.allclose(enumerate_joint(g), joint_by_enumeration(fork_graph()), atol=1e-12)


def test_bayes_net_v_structure():
    # two parents, one child: single ternary factor, joint = product of CPTs
    pa, pb = [0.6, 0.4], [0.2, 0.8]
    child = [[0.9, 0.1], [0.5, 0.5], [0.3, 0.7], [0.05, 0.95]]
    net = BayesNet([
        BayesNode("A", 2, [], [pa]),
        BayesNode("B", 2, [], [pb]),
        BayesNode("C", 2, ["A", "B"], child),
    ])
    g = from_bayes_net(net)
    assert max(len(f.vars) for f in g.factors) == 3
    joint = enumerate_joint(g)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                expected = pa[a] * pb[b] * child[a * 2 + b][c]
                assert abs(joint[a, b, c] - expected) < 1e-12


def test_bayes_net_cycle_detected():
    net_nodes = [
        BayesNode("A", 2, ["B"], [[0.5, 0.5], [0.5, 0.5]]),
        BayesNode("B", 2, ["A"], [[0.5, 0.5], [0.5, 0.5]]),
    ]
    with pytest.raises(AcyclicityError):
        from_bayes_net(BayesNet(net_nodes))


def test_icu_fixture_parses_and_enumerates():
    g = parse(fixture_text("icu_monitor.json"))
    assert len(g.variables) == 8
    joint = enumerate_joint(g)
    assert abs(joint.sum() - 1.0) < 1e-12


def test_factors_touching_keeps_declaration_order():
    variables = [Variable(n, 2) for n in "XYZ"]
    factors = [Factor("yz", ["Y", "Z"], np.ones((2, 2)), [2, 2]),
               Factor("x", ["X"], [1, 2], [2]),
               Factor("zx", ["Z", "X"], np.ones((2, 2)), [2, 2]),
               Factor("y", ["Y"], [2, 1], [2])]
    graph = FactorGraph(variables, factors)
    for name in "XYZ":
        expected = [f.name for f in factors if name in f.vars]
        assert [f.name for f in graph.factors_touching(name)] == expected
    assert graph.factors_touching("W") == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_factor_rejects_non_finite_weights(bad):
    with pytest.raises(GraphError, match="non-finite"):
        Factor("f", ["X"], [1.0, bad], [2])
