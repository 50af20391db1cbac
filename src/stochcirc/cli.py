"""Command-line entry point: every experiment emits plot-ready CSV/PGM/JSON.

Artifacts are deterministic: identical command, seed, and inputs produce
byte-identical files. Updates run serially in one thread; wide fixed-point
Gibbs color classes run as numpy lanes that stay bit-identical to
per-circuit updates. --threads is accepted and validated but never changes
results.

The global options are parsed once, before any subcommand runs, so a
malformed --format or a --fault-rate outside [0, 1] exits 6 whatever the
subcommand. The output directory is made once the subcommand's own
arguments have parsed, so an argument rejected there (a draw count below
1, say) leaves no directory behind. Every subcommand hands its artifacts
to one writer, _emit, which writes them in order, echoes "wrote <path>"
for each, and then writes <name>_meta.json (command, seed, parameters,
package version). The command is the invoked subcommand path ("dpmm
run"), and <name> is that path with spaces and dashes turned into
underscores ("dpmm_run"). No timestamps anywhere.

Exit codes:
    0 success
    2 usage error (unknown subcommand or flag)
    3 model parse/validation error
    4 no-support error (empty conditional or all-saturated energies)
    5 schedule discipline violation
    6 configuration, domain, or shape error
"""

from __future__ import annotations

import json
import pathlib
import sys

import click
import numpy as np

from . import __version__, fixture_text
from .compiler import (
    color_interaction_graph,
    compile as compile_graph,
    fault_kl_report,
    fault_report_to_csv,
    marginals_to_csv,
    query as run_query,
)
from .dpmm import (
    DPMM_FORMAT,
    DpmmState,
    cluster_summaries,
    gibbs_chain,
    read_idx_images,
    stream_datum,
)
from .entropy import DEFAULT_SEED, EntropyStream
from .errors import (
    ConfigError,
    DomainError,
    GraphError,
    NoSupportError,
    ScheduleViolationError,
    ShapeError,
    StochcircError,
)
from .factorgraph import enumerate_joint, parse, parse_file
from .gates import Cpt, TableGate, theta_sample
from .lowprec import (
    DEFAULT_FORMAT,
    EnergyFormat,
    EnergyVector,
    discrete_sample,
    precision_sweep,
    sweep_rows_to_csv,
    total_variation,
)
from .mrf import (
    ImagePair,
    LatticeMRF,
    evidence_from_images,
    labels_to_gray,
    solve,
)
from .pgm import read_pgm, write_pgm
from .spiking import race_sample, simulate_spiking_assembly
from .transition import FaultModel, run as run_assembly

EXIT_CODES = [
    (ScheduleViolationError, 5),
    (NoSupportError, 4),
    (GraphError, 3),
    (json.JSONDecodeError, 3),
    ((ConfigError, DomainError, ShapeError), 6),
    (StochcircError, 6),
]


class _Command(click.Command):
    """A subcommand; the output directory is made only once its own
    arguments have parsed, so an argument rejected while parsing leaves no
    directory behind."""

    def invoke(self, ctx):
        ctx.obj["out_dir"].mkdir(parents=True, exist_ok=True)
        return super().invoke(ctx)


class _Group(click.Group):
    command_class = _Command


class _Main(_Group):
    """The root group; maps every library and JSON error to its exit code."""

    group_class = _Group

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (StochcircError, json.JSONDecodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds)))


def _number(text: str, convert, what: str):
    """convert(text); text that is not a number is a ConfigError."""
    try:
        return convert(text)
    except ValueError:
        raise ConfigError(f"{what} must be a number, got {text!r}") from None


def _draw_count(ctx, param, value: int) -> int:
    """The -n callback: a draw count below 1 is a ConfigError."""
    if value < 1:
        raise ConfigError(f"-n must be at least 1, got {value}")
    return value


def _parse_format(text: str | None):
    if text is None:
        return DEFAULT_FORMAT
    if text.lower() in ("float", "high"):
        return None
    try:
        bits, frac = (int(t) for t in text.split(","))
        return EnergyFormat(bits, frac)
    except (ValueError, TypeError):
        raise ConfigError(f"format must be 'b,f' or 'float', got {text!r}") from None


def _write(path, content):
    """Text as UTF-8, an array as PGM; echoes the path."""
    if isinstance(content, str):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    else:
        write_pgm(path, content)
    click.echo(f"wrote {path}")


def _emit(ctx, files, params):
    """Write each (file name, content) in order, then <name>_meta.json.

    The metadata names the invoked subcommand path, walked up from ctx.
    """
    names, node = [], ctx
    while node.parent is not None:
        names.insert(0, node.command.name)
        node = node.parent
    command = " ".join(names)
    out = ctx.obj["out_dir"]
    for name, content in files:
        _write(out / name, content)
    doc = {"command": command, "seed": ctx.obj["seed"], "version": __version__,
           "params": params}
    meta_name = command.replace(" ", "_").replace("-", "_")
    _write(out / f"{meta_name}_meta.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_graph(model, evidence):
    graph = parse_file(model) if model != "-" else parse(sys.stdin.read())
    for item in evidence:
        if "=" not in item:
            raise ConfigError(f"evidence must be var=value, got {item!r}")
        name, _, value = item.partition("=")
        graph.evidence[name] = _number(value, int, f"evidence value for {name!r}")
    # revalidate evidence names/ranges
    return type(graph)(graph.variables, graph.factors, graph.evidence)


def _compiled(ctx, model, evidence, kernel="gibbs"):
    """(graph, assembly) for a model file with --evidence clamps applied."""
    graph = _load_graph(model, evidence)
    return graph, compile_graph(graph, kernel=kernel, fmt=ctx.obj["fmt"],
                                schedule=ctx.obj["schedule"], seed=ctx.obj["seed"])


@click.group(cls=_Main, context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True,
              help="Master seed; every stream in the run forks from it.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=".",
              show_default=True, help="Directory for output artifacts.")
@click.option("--format", "fmt", default=None,
              help="Fixed-point energy format 'b,f', or 'float' for high precision "
                   f"[default: {DEFAULT_FORMAT.bits},{DEFAULT_FORMAT.frac}; "
                   f"dpmm run: {DPMM_FORMAT.bits},{DPMM_FORMAT.frac}]")
@click.option("--schedule", type=click.Choice(["parallel", "serial", "random-scan"]),
              default="parallel", show_default=True,
              help="Update schedule for compiled chains.")
@click.option("--fault-rate", type=float, default=0.0, show_default=True,
              help="Per-bit register flip probability per transition.")
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
              help="Accepted for compatibility; updates run serially and the "
                   "value never changes results.")
@click.pass_context
def main(ctx, seed, out_dir, fmt, schedule, fault_rate, threads):
    """Stochastic digital circuits for sampling-based Bayesian inference."""
    ctx.ensure_object(dict)
    ctx.obj.update(seed=seed, fmt=_parse_format(fmt), fmt_given=fmt is not None,
                   schedule=schedule,
                   fault=FaultModel(fault_rate) if fault_rate != 0 else None,
                   out_dir=pathlib.Path(out_dir))


@main.group()
def gate():
    """Combinational stochastic gate utilities."""


@gate.command("sample")
@click.option("--cpt", "cpt_path", required=True, type=click.Path(exists=True),
              help="JSON table {m, n, rows}.")
@click.option("--input", "input_word", type=int, required=True)
@click.option("-n", "draws", type=int, default=10000, show_default=True,
              callback=_draw_count)
@click.pass_context
def gate_sample(ctx, cpt_path, input_word, draws):
    """Sample a table gate and emit the output histogram."""
    with open(cpt_path, "r", encoding="utf-8") as fh:
        g = TableGate(Cpt.from_json(fh.read()))
    stream = EntropyStream(ctx.obj["seed"])
    counts = np.zeros(1 << g.n, dtype=np.int64)
    for _ in range(draws):
        counts[g.sample(input_word, stream)] += 1
    lines = ["value,count,frequency"]
    for v, c in enumerate(counts):
        lines.append(f"{v},{int(c)},{float(c / draws)!r}")
    _emit(ctx, [("gate_sample.csv", "\n".join(lines) + "\n")],
          {"cpt": str(cpt_path), "input": input_word, "n": draws})


@main.command("precision-sweep")
@click.option("--outcomes", "k", type=int, default=1000, show_default=True)
@click.option("--per-bin", type=int, default=10000, show_default=True)
@click.option("--bits", default="4,6,8,10", show_default=True,
              help="Comma list of total bits; fraction bits default to half.")
@click.pass_context
def precision_sweep_cmd(ctx, k, per_bin, bits):
    """Truncation-loss sweep across entropy bins and formats."""
    bit_list = [_number(b, int, "--bits") for b in bits.split(",")]
    formats = [EnergyFormat(b, max(1, b // 2)) for b in bit_list]
    rows = precision_sweep(k=k, n_dists=per_bin, formats=formats,
                           seed=ctx.obj["seed"])
    _emit(ctx, [("precision_sweep.csv", sweep_rows_to_csv(rows))],
          {"outcomes": k, "per_bin": per_bin, "bits": bits})


@main.group()
def fg():
    """Factor-graph file utilities."""


@fg.command("validate")
@click.argument("model", type=click.Path(exists=True))
def fg_validate(model):
    """Parse and validate a model file; exit 0 when well formed."""
    graph = parse_file(model)
    click.echo(f"ok: {len(graph.variables)} variables, {len(graph.factors)} factors")


@main.command("compile")
@click.argument("model", type=click.Path(exists=True))
@click.option("--kernel", type=click.Choice(["gibbs", "mh"]),
              default="gibbs", show_default=True)
@click.option("--evidence", multiple=True, help="var=value, repeatable.")
@click.pass_context
def compile_cmd(ctx, model, kernel, evidence):
    """Compile a factor graph and emit its coloring and schedule."""
    _, assembly = _compiled(ctx, model, evidence, kernel)
    doc = {
        "variables": {n: assembly.circuits[n].arity for n in sorted(assembly.circuits)},
        "coloring": assembly.meta["coloring"],
        "schedule": assembly.schedule,
        "clamped": assembly.clamped,
        "kernel": kernel,
        "format": assembly.meta["format"],
    }
    _emit(ctx, [("assembly.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")],
          {"model": str(model), "schedule": ctx.obj["schedule"], "kernel": kernel})


@main.command("query")
@click.argument("model", type=click.Path(exists=True))
@click.option("--evidence", multiple=True, help="var=value, repeatable.")
@click.option("--sweeps", type=int, default=20000, show_default=True)
@click.option("--burn-in", type=int, default=None)
@click.option("--thin", type=int, default=1, show_default=True)
@click.pass_context
def query_cmd(ctx, model, evidence, sweeps, burn_in, thin):
    """Marginals of every variable under the given evidence clamps."""
    graph, assembly = _compiled(ctx, model, evidence)
    estimates, trace = run_query(assembly, graph.var_names, sweeps,
                                 burn_in=burn_in, thin=thin)
    _emit(ctx, [("marginals.csv", marginals_to_csv(estimates))],
          {"model": str(model), "evidence": list(evidence), **trace.meta})


@main.command("run")
@click.argument("model", type=click.Path(exists=True))
@click.option("--evidence", multiple=True, help="var=value, repeatable.")
@click.option("--sweeps", type=int, default=10000, show_default=True)
@click.option("--burn-in", type=int, default=None)
@click.option("--thin", type=int, default=1, show_default=True)
@click.pass_context
def run_cmd(ctx, model, evidence, sweeps, burn_in, thin):
    """Run the compiled chain and emit the raw state trace."""
    _, assembly = _compiled(ctx, model, evidence)
    trace = run_assembly(assembly, sweeps, burn_in=burn_in, thin=thin,
                         fault=ctx.obj["fault"])
    _emit(ctx, [("trace.csv", trace.to_csv())],
          {"model": str(model), "evidence": list(evidence), **trace.meta})


@main.command("fault-report")
@click.argument("model", type=click.Path(exists=True))
@click.option("--rates", default="0,0.0001,0.001,0.01", show_default=True)
@click.option("--sweeps", type=int, default=20000, show_default=True)
@click.pass_context
def fault_report_cmd(ctx, model, rates, sweeps):
    """KL-vs-fault-rate curve against the exact enumeration oracle."""
    graph = _load_graph(model, ())
    rate_list = [_number(r, float, "--rates") for r in rates.split(",")]
    rows = fault_kl_report(graph, rate_list, sweeps=sweeps,
                           seed=ctx.obj["seed"], fmt=ctx.obj["fmt"])
    _emit(ctx, [("fault_report.csv", fault_report_to_csv(rows))],
          {"model": str(model), "rates": rate_list, "sweeps": sweeps})


def _matching_run(ctx, mode, first_path, second_path, d, sweeps, lam, tau, anneal):
    pair = ImagePair(read_pgm(first_path), read_pgm(second_path))
    y = evidence_from_images(pair, d, mode=mode)
    m = LatticeMRF(pair.first.shape[0], pair.first.shape[1], d, y, lam=lam, tau=tau)
    anneal_pair = None if anneal == "off" else tuple(_number(t, float, "--anneal")
                                                  for t in anneal.split(","))
    result = solve(m, sweeps, seed=ctx.obj["seed"], fmt=ctx.obj["fmt"],
                   anneal=anneal_pair, schedule=ctx.obj["schedule"])
    _emit(ctx, [(f"{mode}_labels.pgm", labels_to_gray(result.labels, d)),
                (f"{mode}_energy.csv", result.energy_csv())],
          {"first": str(first_path), "second": str(second_path),
           "candidates": d, **result.meta})


@main.command("stereo")
@click.argument("left", type=click.Path(exists=True))
@click.argument("right", type=click.Path(exists=True))
@click.option("-d", "--candidates", type=int, default=8, show_default=True)
@click.option("--sweeps", type=int, default=200, show_default=True)
@click.option("--lam", type=float, default=1.0, show_default=True)
@click.option("--tau", type=float, default=2.0, show_default=True)
@click.option("--anneal", default="2.0,0.1", show_default=True,
              help="T_start,T_end geometric ladder, or 'off' to sample at T=1.")
@click.pass_context
def stereo_cmd(ctx, left, right, candidates, sweeps, lam, tau, anneal):
    """Disparity map for a rectified image pair (PGM in, PGM out)."""
    _matching_run(ctx, "stereo", left, right, candidates, sweeps, lam, tau, anneal)


@main.command("motion")
@click.argument("first", type=click.Path(exists=True))
@click.argument("second", type=click.Path(exists=True))
@click.option("-d", "--candidates", type=int, default=9, show_default=True)
@click.option("--sweeps", type=int, default=200, show_default=True)
@click.option("--lam", type=float, default=1.0, show_default=True)
@click.option("--tau", type=float, default=2.0, show_default=True)
@click.option("--anneal", default="2.0,0.1", show_default=True)
@click.pass_context
def motion_cmd(ctx, first, second, candidates, sweeps, lam, tau, anneal):
    """Motion labels between two frames (candidate offsets in ring order)."""
    _matching_run(ctx, "motion", first, second, candidates, sweeps, lam, tau, anneal)


@main.group()
def dpmm():
    """Nonparametric clustering of binary vectors."""


@dpmm.command("run")
@click.argument("data", type=click.Path(exists=True))
@click.option("--alpha", type=float, default=1.0, show_default=True)
@click.option("--beta-on", type=float, default=0.5, show_default=True)
@click.option("--beta-off", type=float, default=0.5, show_default=True)
@click.option("--sweeps", type=int, default=500, show_default=True)
@click.option("--burn-in", type=int, default=100, show_default=True)
@click.option("--idx", "is_idx", is_flag=True,
              help="Input is an IDX ubyte image file (demo path).")
@click.option("--binarize", type=int, default=128, show_default=True,
              help="Pixel threshold for IDX input.")
@click.option("--image-shape", default=None,
              help="HxW for PGM cluster summaries; defaults to 1xP.")
@click.pass_context
def dpmm_run(ctx, data, alpha, beta_on, beta_off, sweeps, burn_in,
             is_idx, binarize, image_shape):
    """Cluster binary vectors from a 0/1 text matrix or an IDX image file.

    Draws at (16,8) unless --format names another fixed-point format.
    """
    fmt = ctx.obj["fmt"] if ctx.obj["fmt_given"] else DPMM_FORMAT
    if fmt is None:
        raise ConfigError("dpmm draws need a fixed-point --format 'b,f', not float")
    if is_idx:
        rows, idx_shape = read_idx_images(data, threshold=binarize)
        if image_shape is None:
            image_shape = f"{idx_shape[0]}x{idx_shape[1]}"
    else:
        try:
            rows = np.loadtxt(data, dtype=int, ndmin=2)
        except ValueError as exc:
            raise ShapeError(f"data file must be a 0/1 integer matrix: {exc}") from None
    if rows.size == 0:
        raise ShapeError("empty data file")
    if image_shape:
        h, _, w = image_shape.partition("x")
        shape = (_number(h, int, "--image-shape"), _number(w, int, "--image-shape"))
        if min(shape) < 1:
            raise ShapeError(f"--image-shape sizes must be at least 1, got {image_shape}")
        if shape[0] * shape[1] != rows.shape[1]:
            raise ShapeError(f"--image-shape {image_shape} does not hold "
                             f"{rows.shape[1]} pixels")
    else:
        shape = (1, rows.shape[1])
    state = DpmmState(rows.shape[1], alpha=alpha, beta_on=beta_on,
                      beta_off=beta_off)
    count_hist = {}
    assign_lines = ["sweep," + ",".join(f"d{i}" for i in range(rows.shape[0]))]
    chain = gibbs_chain(state, rows, sweeps, burn_in, EntropyStream(ctx.obj["seed"]), fmt)
    for sweep, _ in enumerate(chain):
        k = len(state.clusters)
        count_hist[k] = count_hist.get(k, 0) + 1
        assign_lines.append(f"{sweep}," + ",".join(str(a) for a in state.assignments))
    hist_lines = ["clusters,count"] + [f"{k},{count_hist[k]}" for k in sorted(count_hist)]
    files = [("assignments.csv", "\n".join(assign_lines) + "\n"),
             ("cluster_counts.csv", "\n".join(hist_lines) + "\n")]
    for rank, (count, probs) in enumerate(cluster_summaries(state)):
        img = np.clip(np.round(probs.reshape(shape) * 255), 0, 255)
        files.append((f"cluster_{rank:02d}_n{count}.pgm", img))
    _emit(ctx, files, {"data": str(data), "alpha": alpha, "beta_on": beta_on,
                       "beta_off": beta_off, "sweeps": sweeps, "burn_in": burn_in,
                       "format": [fmt.bits, fmt.frac]})


@main.group()
def spike():
    """Spiking (first-spike race) simulation."""


@spike.command("run")
@click.argument("model", type=click.Path(exists=True))
@click.option("--evidence", multiple=True, help="var=value, repeatable.")
@click.option("--sweeps", type=int, default=1000, show_default=True)
@click.option("--burn-in", type=int, default=None)
@click.pass_context
def spike_run(ctx, model, evidence, sweeps, burn_in):
    """Simulate an assembly with exponential races and emit the raster."""
    _, assembly = _compiled(ctx, model, evidence)
    raster, trace = simulate_spiking_assembly(assembly, sweeps, burn_in=burn_in)
    _emit(ctx, [("raster.csv", raster.events_csv()), ("spike_trace.csv", trace.to_csv())],
          {"model": str(model), "evidence": list(evidence), **trace.meta})


@main.command("selftest")
@click.pass_context
def selftest(ctx):
    """Quick oracle checks across every subsystem; exit 0 on pass."""
    failures = []

    def check(name, ok):
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    seed = ctx.obj["seed"]
    # entropy determinism
    a = [EntropyStream(seed).next_bits(32) for _ in range(4)]
    b = [EntropyStream(seed).next_bits(32) for _ in range(4)]
    check("entropy determinism", a == b)
    # theta frequency
    s = EntropyStream(seed)
    freq = sum(theta_sample(128, 8, s) for _ in range(20000)) / 20000
    check("theta comparator near 0.5", abs(freq - 0.5) < 0.02)
    # discrete-sample gate vs declared distribution
    vec = EnergyVector.from_probs([0.5, 0.25, 0.125, 0.125], DEFAULT_FORMAT)
    s = EntropyStream(seed + 1)
    counts = np.zeros(4)
    for _ in range(20000):
        counts[discrete_sample(vec, s)] += 1
    check("discrete-sample matches declared",
          total_variation(counts / counts.sum(), vec.declared_distribution()) < 0.02)
    # compiled chain vs enumeration on the bundled three-variable model
    graph = parse(fixture_text("three_var_fork.json"))
    joint = enumerate_joint(graph)
    assembly = compile_graph(graph, seed=seed)
    trace = run_assembly(assembly, 20000)
    emp = trace.empirical_joint([2, 2, 2])
    check("compiled chain matches enumeration",
          total_variation(emp.reshape(-1), joint.reshape(-1)) < 0.05)
    # race sampler symmetry
    s = EntropyStream(seed + 2)
    wins = np.zeros(2)
    even = EnergyVector.from_probs([0.5, 0.5], DEFAULT_FORMAT)
    for _ in range(20000):
        winner, _times = race_sample(even, s)
        wins[winner] += 1
    check("race symmetry", abs(wins[0] / wins.sum() - 0.5) < 0.02)
    # chromatic schedule on a lattice
    mrf_probe = LatticeMRF(4, 4, 2, np.zeros((4, 4, 2)))
    g = mrf_probe.to_factor_graph()
    coloring = color_interaction_graph(g.var_names, g.interaction_edges())
    check("lattice 2-coloring", max(coloring.values()) == 1)
    # dpmm single datum
    st = DpmmState(3)
    stream_datum(st, [1, 0, 1], 0, EntropyStream(seed + 3))
    check("dpmm single datum founds one cluster", len(st.clusters) == 1)
    if failures:
        click.echo(f"{len(failures)} selftest failure(s)", err=True)
        sys.exit(1)
    click.echo("selftest ok")


if __name__ == "__main__":
    main()
