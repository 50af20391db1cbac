"""Compile factor graphs into scheduled transition-circuit assemblies.

Every variable gets one circuit whose kernel sums energy contributions from
the factors touching it. The interaction graph (variables co-occurring in a
factor) is greedily colored — vertices in descending degree order, ties
broken by name — and color classes become the parallel schedule groups.
Evidence enters as clamps on the finished assembly, so changing the query
never requires recompiling.
"""

from __future__ import annotations

import numpy as np

from .entropy import EntropyStream
from .errors import ConfigError, UnknownVariableError
from .factorgraph import FactorGraph, enumerate_joint, marginal
from .lowprec import DEFAULT_FORMAT, EnergyFormat, relative_entropy
from .transition import (
    FaultModel,
    GibbsKernel,
    MhKernel,
    TransitionAssembly,
    TransitionCircuit,
    run,
)


def color_interaction_graph(nodes, edges) -> dict[str, int]:
    """Proper greedy coloring; deterministic for identical input.

    Order: descending degree, ties by name. Uses at most max_degree + 1
    colors; on 4-connected lattices with row-major zero-padded names this
    yields the two-phase checkerboard.
    """
    nodes = list(nodes)
    adjacency = {n: set() for n in nodes}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    order = sorted(nodes, key=lambda n: (-len(adjacency[n]), n))
    coloring: dict[str, int] = {}
    for n in order:
        used = {coloring[x] for x in adjacency[n] if x in coloring}
        c = 0
        while c in used:
            c += 1
        coloring[n] = c
    return coloring


def schedule_from_coloring(coloring: dict[str, int]) -> list[list[str]]:
    """Groups ordered by color index; names sorted within each group."""
    n_colors = max(coloring.values()) + 1 if coloring else 0
    groups = [[] for _ in range(n_colors)]
    for name in sorted(coloring):
        groups[coloring[name]].append(name)
    return groups


def compile(graph: FactorGraph, kernel: str = "gibbs",
            fmt: EnergyFormat | None = DEFAULT_FORMAT,
            schedule: str = "parallel", seed: int = 0) -> TransitionAssembly:
    """Build a scheduled assembly for every variable of the graph.

    kernel: "gibbs" or "mh". fmt None selects the high-precision float
    energy path. schedule "serial" emits singleton groups in name order
    (a cycle kernel), "parallel" the chromatic schedule, and "random-scan"
    a mixture kernel drawing one variable at a time from a dedicated stream.
    """
    if kernel not in ("gibbs", "mh"):
        raise ConfigError(f"unknown kernel {kernel!r}")
    if schedule not in ("serial", "parallel", "random-scan"):
        raise ConfigError(f"unknown schedule {schedule!r}")
    master = EntropyStream(seed)
    names = sorted(graph.var_names)
    circuits = []
    tables = {}  # specialized row blocks shared across this assembly's kernels
    for idx, name in enumerate(names):
        touching = graph.factors_touching(name)
        arity = graph.arity[name]
        if kernel == "gibbs":
            k = GibbsKernel(name, arity, touching, fmt, tables=tables)
        else:
            k = MhKernel(name, arity, touching, fmt, tables=tables)
        circuits.append(TransitionCircuit(name, arity, k, master.fork(idx)))
    edges = graph.interaction_edges()
    coloring = color_interaction_graph(graph.var_names, edges)
    if schedule == "parallel":
        groups = schedule_from_coloring(coloring)
    else:
        groups = [[n] for n in names]
    scan_stream = master.fork(len(names)) if schedule == "random-scan" else None
    assembly = TransitionAssembly(
        circuits,
        edges,
        groups,
        clamped=dict(graph.evidence),
        meta={"seed": seed, "kernel": kernel, "schedule": schedule,
              "format": None if fmt is None else [fmt.bits, fmt.frac],
              "coloring": coloring},
        scan_stream=scan_stream,
    )
    return assembly


def query(assembly: TransitionAssembly, query_vars, sweeps: int,
          burn_in: int | None = None, thin: int = 1):
    """Marginal histograms with naive Monte Carlo standard errors.

    Returns {name: (probs, stderr)}. Standard errors are binomial on the
    retained sample count and ignore autocorrelation.
    """
    query_vars = list(query_vars)
    for name in query_vars:
        if name not in assembly.circuits:
            raise UnknownVariableError(f"query names unknown variable {name!r}")
    trace = run(assembly, sweeps, burn_in=burn_in, thin=thin)
    n = len(trace.rows)
    out = {}
    for name in query_vars:
        probs = trace.marginal(name, assembly.circuits[name].arity)
        stderr = np.sqrt(probs * (1.0 - probs) / n)
        out[name] = (probs, stderr)
    return out, trace


def marginals_to_csv(estimates) -> str:
    lines = ["variable,value,probability,stderr"]
    for name in sorted(estimates):
        probs, stderr = estimates[name]
        for value, (p, s) in enumerate(zip(probs, stderr)):
            lines.append(f"{name},{value},{float(p)!r},{float(s)!r}")
    return "\n".join(lines) + "\n"


def fault_kl_report(graph: FactorGraph, rates=(0.0, 1e-4, 1e-3, 1e-2),
                    sweeps: int = 20_000, seed: int = 0,
                    fmt: EnergyFormat | None = DEFAULT_FORMAT):
    """KL(exact marginals || empirical marginals), summed over variables,
    for a ladder of register fault rates. The rate-0 row uses no fault model
    at all, so it doubles as the bit-identical baseline.
    """
    joint = enumerate_joint(graph)
    rows = []
    for rate in rates:
        assembly = compile(graph, fmt=fmt, seed=seed)
        fault = FaultModel(rate) if rate > 0.0 else None
        trace = run(assembly, sweeps, fault=fault)
        kl = 0.0
        for name in graph.var_names:
            exact = marginal(joint, graph, name)
            emp = trace.marginal(name, graph.arity[name])
            kl += relative_entropy(exact, emp)
        rows.append((rate, kl))
    return rows


def fault_report_to_csv(rows) -> str:
    lines = ["fault_rate,kl_bits"]
    for rate, kl in rows:
        lines.append(f"{rate!r},{kl!r}")
    return "\n".join(lines) + "\n"
