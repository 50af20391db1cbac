"""Factor graphs over finite-domain variables, with a JSON wire format.

The on-disk schema is a JSON object:

    {"variables": [{"name": str, "arity": int}, ...],
     "factors":   [{"name": str, "vars": [str, ...], "table": [num, ...]}, ...],
     "evidence":  {str: int}}                      # optional

Factor tables are row-major with the LAST listed variable varying fastest
(numpy C order), and hold nonnegative linear weights. Exact enumeration of
the joint is provided for models up to 2^20 states and serves as the test
oracle for every sampler in the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AcyclicityError,
    DuplicateNameError,
    GraphError,
    NegativeWeightError,
    NoSupportError,
    StateSpaceError,
    TableLengthError,
    UnknownVariableError,
)

MAX_ENUM_STATES = 1 << 20


@dataclass(frozen=True)
class Variable:
    name: str
    arity: int


class Factor:
    """Named nonnegative weight table over an ordered tuple of variables."""

    def __init__(self, name: str, var_names, table, arities):
        self.name = name
        self.vars = tuple(var_names)
        if len(set(self.vars)) != len(self.vars):
            raise DuplicateNameError(f"factor {name!r} repeats a variable")
        shape = tuple(arities)
        try:
            flat = np.asarray(table, dtype=float).reshape(-1)
        except (TypeError, ValueError):
            raise GraphError(f"factor {name!r}: table entries must be numbers") from None
        expected = math.prod(shape)
        if flat.size != expected:
            raise TableLengthError(
                f"factor {name!r}: table has {flat.size} entries, expected {expected}"
            )
        if not np.isfinite(flat).all():
            raise GraphError(f"factor {name!r}: non-finite weight in table")
        if (flat < 0).any():
            raise NegativeWeightError(f"factor {name!r}: negative weight in table")
        self.table = flat.reshape(shape)

    def __repr__(self):
        return f"Factor({self.name!r}, vars={self.vars})"


class FactorGraph:
    def __init__(self, variables, factors, evidence=None):
        self.variables: list[Variable] = list(variables)
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise DuplicateNameError("duplicate variable name")
        self.arity = {v.name: v.arity for v in self.variables}
        fnames = [f.name for f in factors]
        if len(set(fnames)) != len(fnames):
            raise DuplicateNameError("duplicate factor name")
        for f in factors:
            for vn in f.vars:
                if vn not in self.arity:
                    raise UnknownVariableError(
                        f"factor {f.name!r} references unknown variable {vn!r}"
                    )
            declared = tuple(self.arity[vn] for vn in f.vars)
            if f.table.shape != declared:
                raise TableLengthError(
                    f"factor {f.name!r}: table shape {f.table.shape} does not match "
                    f"the declared arities {declared}"
                )
        self.factors: list[Factor] = list(factors)
        self._touching: dict[str, list[Factor]] = {n: [] for n in self.arity}
        for f in self.factors:
            for vn in f.vars:
                self._touching[vn].append(f)
        self.evidence: dict[str, int] = dict(evidence or {})
        for name, val in self.evidence.items():
            if name not in self.arity:
                raise UnknownVariableError(f"evidence on unknown variable {name!r}")
            if not 0 <= int(val) <= self.arity[name] - 1:
                raise GraphError(
                    f"evidence value {val} outside domain of {name!r}"
                )

    @property
    def var_names(self) -> list[str]:
        return [v.name for v in self.variables]

    def joint_states(self) -> int:
        n = 1
        for v in self.variables:
            n *= v.arity
        return n

    def interaction_edges(self) -> set[tuple[str, str]]:
        """Edges between variables that co-occur in some factor."""
        edges = set()
        for f in self.factors:
            for i, a in enumerate(f.vars):
                for b in f.vars[i + 1:]:
                    edges.add((a, b) if a < b else (b, a))
        return edges

    def factors_touching(self, name: str) -> list[Factor]:
        """The factors over name, in declaration order."""
        return list(self._touching.get(name, ()))


def parse(text: str) -> FactorGraph:
    """Parse the JSON schema; raises a distinct error kind per defect."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise GraphError("top level must be a JSON object")
    try:
        var_docs = doc["variables"]
        factor_docs = doc["factors"]
    except KeyError as exc:
        raise GraphError(f"missing required field {exc.args[0]!r}") from None
    variables = []
    for vd in var_docs:
        try:
            name, arity = str(vd["name"]), int(vd["arity"])
        except (KeyError, TypeError, ValueError):
            raise GraphError(
                f"variable entry {vd!r} needs a name and an integer arity") from None
        if arity < 1:
            raise GraphError(f"variable {name!r} has arity {arity}")
        variables.append(Variable(name, arity))
    arity = {v.name: v.arity for v in variables}
    if len(arity) != len(variables):
        raise DuplicateNameError("duplicate variable name")
    factors = []
    for fd in factor_docs:
        try:
            fname, fvars, table = str(fd["name"]), [str(v) for v in fd["vars"]], fd["table"]
        except (KeyError, TypeError):
            raise GraphError(f"factor entry {fd!r} needs a name, vars and a table") from None
        for vn in fvars:
            if vn not in arity:
                raise UnknownVariableError(
                    f"factor {fname!r} references unknown variable {vn!r}"
                )
        factors.append(Factor(fname, fvars, table, [arity[v] for v in fvars]))
    graph = FactorGraph(variables, factors, doc.get("evidence"))
    if graph.joint_states() <= MAX_ENUM_STATES:
        joint = enumerate_joint(graph)  # raises NoSupportError when empty
        del joint
    return graph


def parse_file(path) -> FactorGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def serialize(graph: FactorGraph) -> str:
    doc = {
        "variables": [{"name": v.name, "arity": v.arity} for v in graph.variables],
        "factors": [
            {"name": f.name, "vars": list(f.vars), "table": f.table.reshape(-1).tolist()}
            for f in graph.factors
        ],
    }
    if graph.evidence:
        doc["evidence"] = {k: int(v) for k, v in graph.evidence.items()}
    return json.dumps(doc, indent=2)


# --- Bayes nets -------------------------------------------------------------

@dataclass
class BayesNode:
    name: str
    arity: int
    parents: list[str] = field(default_factory=list)
    cpt: np.ndarray = None  # shape (prod parent arities, arity), rows normalized


class BayesNet:
    def __init__(self, nodes):
        self.nodes: list[BayesNode] = list(nodes)
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise DuplicateNameError("duplicate node name")
        self.by_name = {n.name: n for n in self.nodes}
        arity = {n.name: n.arity for n in self.nodes}
        for n in self.nodes:
            rows = 1
            for p in n.parents:
                if p not in self.by_name:
                    raise UnknownVariableError(f"node {n.name!r} has unknown parent {p!r}")
                rows *= arity[p]
            n.cpt = np.asarray(n.cpt, dtype=float).reshape(rows, n.arity)
            if np.any(n.cpt < 0):
                raise NegativeWeightError(f"node {n.name!r}: negative CPT entry")
            if np.any(np.abs(n.cpt.sum(axis=1) - 1.0) > 1e-9):
                raise GraphError(f"node {n.name!r}: CPT rows must sum to 1")

    def topological_order(self) -> list[str]:
        order, seen, visiting = [], set(), set()

        def visit(name):
            if name in seen:
                return
            if name in visiting:
                raise AcyclicityError(f"cycle through node {name!r}")
            visiting.add(name)
            for p in self.by_name[name].parents:
                visit(p)
            visiting.discard(name)
            seen.add(name)
            order.append(name)

        for n in self.nodes:
            visit(n.name)
        return order


def from_bayes_net(net: BayesNet) -> FactorGraph:
    """One factor per node over (parents + node); preserves the joint exactly."""
    net.topological_order()  # raises on cycles
    variables = [Variable(n.name, n.arity) for n in net.nodes]
    arity = {v.name: v.arity for v in variables}
    factors = []
    for n in net.nodes:
        fvars = list(n.parents) + [n.name]
        shape = [arity[v] for v in fvars]
        factors.append(Factor(f"cpt_{n.name}", fvars, n.cpt.reshape(shape), shape))
    return FactorGraph(variables, factors)


# --- exact enumeration oracle -----------------------------------------------

def enumerate_joint(graph: FactorGraph, evidence=None) -> np.ndarray:
    """Normalized joint as an ndarray indexed by variables in declared order.

    Evidence (graph's own unless overridden) selects a slice which is then
    renormalized; raises NoSupportError when no configuration has weight.
    """
    if graph.joint_states() > MAX_ENUM_STATES:
        raise StateSpaceError(
            f"{graph.joint_states()} joint states exceed enumeration limit {MAX_ENUM_STATES}"
        )
    names = graph.var_names
    axis = {n: i for i, n in enumerate(names)}
    shape = tuple(graph.arity[n] for n in names)
    joint = np.ones(shape)
    for f in graph.factors:
        # broadcast the factor table across the full joint index space:
        # permute factor axes into global axis order, then reshape with 1s
        src_axes = [axis[vn] for vn in f.vars]
        moved = np.transpose(f.table, axes=np.argsort(src_axes)) if f.vars else f.table
        perm_shape = [1] * len(names)
        for vn in f.vars:
            perm_shape[axis[vn]] = graph.arity[vn]
        joint = joint * moved.reshape(perm_shape)
    ev = graph.evidence if evidence is None else evidence
    for name, val in ev.items():
        keep = np.zeros(graph.arity[name])
        keep[int(val)] = 1.0
        sel_shape = [1] * len(names)
        sel_shape[axis[name]] = graph.arity[name]
        joint = joint * keep.reshape(sel_shape)
    total = joint.sum()
    if total <= 0.0:
        raise NoSupportError("no joint configuration has positive weight under evidence")
    return joint / total


def marginal(joint: np.ndarray, graph: FactorGraph, name: str) -> np.ndarray:
    idx = graph.var_names.index(name)
    axes = tuple(i for i in range(joint.ndim) if i != idx)
    return joint.sum(axis=axes)
