"""stochcirc benchmark: one workload, one process, closed loop, one client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The library is imported from that
checkout's `src/` and nowhere else. With `--trace 0` the run measures the
end-to-end metrics with no tracing. With `--trace 1` it runs the same jobs
twice, untraced and then with layer wrappers installed, reports the
per-layer metrics, and runs the matching `stochcirc` CLI subcommand once to
compare its CSV/PGM artifacts byte for byte with the in-process job.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. Earlier lines are the human-readable summary, the environment and
the determinism record; the full record (spans too, when traced) is written
to `.perfbench-out/` in the checkout.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread per BLAS/OpenMP pool, for this process and the CLI processes it
# starts; set before numpy is first imported.
THREAD_PINS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
CLI_TIMEOUT_S = 120


def refuse(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_checkout():
    """Import stochcirc from this checkout's src/, or refuse to run."""
    if not (SRC / "stochcirc" / "__init__.py").is_file():
        refuse(f"no stochcirc package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import stochcirc

    where = Path(stochcirc.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        refuse(f"stochcirc resolved to {where}, outside {SRC}")
    return stochcirc


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def commit_of(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(stochcirc):
    import numpy
    import scipy

    return {
        "commit": commit_of(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "stochcirc": stochcirc.__version__,
        "stochcirc_path": str(Path(stochcirc.__file__).resolve().parent),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
    }


# --- the measured loop -------------------------------------------------------

@dataclass
class Job:
    index: int
    seconds: float = 0.0
    items: int = 0
    error: float = float("nan")
    ok: bool = False
    digest: str = ""


def measure(workload, ctx, seconds, scratch, tracer=None, at_prefix=None):
    """Run jobs back to back until `seconds` have passed, and at least the
    workload's prefix. Only `workload.run` is timed."""
    from workloads import artifact_digest

    jobs = []
    start = time.perf_counter()
    while len(jobs) < workload.prefix_jobs or time.perf_counter() - start < seconds:
        job = Job(len(jobs))
        inputs = workload.make_input(ctx, job.index)
        gc.collect()
        try:
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    output = tracer.call("job", job.index, workload.run, ctx, inputs)
                else:
                    output = workload.run(ctx, inputs)
            finally:
                job.seconds = time.perf_counter() - t0
                if tracer is not None:
                    tracer.enabled = False
            job.items = workload.items(ctx, inputs, output)
            job.error, job.ok = workload.check(ctx, inputs, output)
            job.digest = artifact_digest(workload.artifacts(ctx, inputs, output, scratch))
        except Exception:  # a job that raises counts as failed; keep measuring
            print(f"job {job.index} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            job.ok = False
        jobs.append(job)
        if at_prefix is not None and len(jobs) == workload.prefix_jobs:
            at_prefix(jobs)
    return jobs


def items_per_s(jobs):
    return sum(j.items for j in jobs) / sum(j.seconds for j in jobs)


def end_to_end(jobs, setup_s):
    """The end-to-end metrics plus the summary-only ones."""
    times = sorted(j.seconds for j in jobs)
    n = len(times)
    p50 = statistics.median(times)
    # highest percentile that leaves ten jobs beyond it; below 22 jobs that
    # would fall under the median, so the median stands in
    rank = n - 11
    if rank >= n / 2:
        tail, tail_pct = times[rank], 100.0 * (n - 10) / n
    else:
        tail, tail_pct = p50, 50.0
    failed = sum(not j.ok for j in jobs)
    errors = [j.error for j in jobs if not math.isnan(j.error)]
    metrics = {
        "setup_s": setup_s,
        "items_per_s": items_per_s(jobs),
        "job_s_p50": p50,
        "job_s_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = {
        "jobs": n,
        "job_s_tail_percentile": tail_pct,
        "oracle_error": statistics.fmean(errors) if errors else float("nan"),
        "failed_frac": failed / n,
    }
    return metrics, summary, failed


def determinism(workload, jobs, counts=None):
    prefix = [j.digest for j in jobs[:workload.prefix_jobs]]
    record = {
        "prefix_jobs": workload.prefix_jobs,
        "prefix_digest": hashlib.sha256("".join(prefix).encode()).hexdigest()[:16],
        "job_digests": [j.digest for j in jobs],
        "job_seconds": [j.seconds for j in jobs],
    }
    if counts is not None:
        record["counts"] = counts
    return record


# --- CLI process level -------------------------------------------------------

def cli_env():
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PINS)


def cli_check(workload, ctx, scratch):
    """Run the matching CLI subcommand on the first job's inputs and compare
    its artifacts byte for byte with the in-process job's."""
    from workloads import artifact_digest

    workdir = scratch / "cli"
    outdir = workdir / "out"
    outdir.mkdir(parents=True)
    probe = ("import time; t = time.perf_counter(); import stochcirc.cli; "
             "print(time.perf_counter() - t)")
    import_times = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=cli_env(),
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        import_times.append(float(proc.stdout) if proc.returncode == 0 else -1.0)
    inputs = workload.make_input(ctx, 0)
    argv, output = workload.cli_job(ctx, inputs, workdir)
    expected = workload.artifacts(ctx, inputs, output, scratch)
    cmd = [sys.executable, "-m", "stochcirc.cli", "--out-dir", str(outdir)] + argv
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    process_s = time.perf_counter() - t0
    written = {p.name: p.read_bytes() for p in outdir.iterdir()
               if p.suffix in (".csv", ".pgm")}
    mismatched = sorted(name for name in expected if written.get(name) != expected[name])
    record = {
        "argv": ["python", "-m", "stochcirc.cli"] + argv,
        "exit_code": proc.returncode,
        "compared": sorted(expected),
        "mismatched": mismatched,
        "not_compared": sorted(set(written) - set(expected)),
        "digest": artifact_digest(expected),
        "import_s": statistics.median(import_times),
        "process_s": process_s,
    }
    if proc.returncode != 0:
        record["stderr"] = proc.stderr[-2000:]
    return record, proc.returncode == 0 and not mismatched and min(import_times) >= 0


# --- runs ----------------------------------------------------------------------

def untraced_run(workload, args, import_s, scratch):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    jobs = measure(workload, ctx, args.seconds, scratch)
    metrics, summary, failed = end_to_end(jobs, setup_s)
    summary["import_s"] = import_s
    summary["setup_body_s"] = setup_times
    record = {"summary": summary, "determinism": determinism(workload, jobs)}
    return metrics, record, len(jobs), failed, failed == 0


def traced_run(workload, args, import_s, scratch):
    import stochcirc.cli  # noqa: F401  (its re-imported names get wrapped too)

    import layers
    from tracing import Tracer

    reached_on = json.loads((HERE / "layers.json").read_text())["reached_on"]

    half = args.seconds / 2
    base_jobs = measure(workload, workload.setup(args.seed), half, scratch)

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        ctx = tracer.call("setup", "setup", workload.setup, args.seed)
    finally:
        tracer.enabled = False
    snaps = {"setup": tracer.snapshot()}

    def at_prefix(done):
        snaps["prefix"] = tracer.snapshot()
        snaps["prefix_items"] = sum(j.items for j in done)

    jobs = measure(workload, ctx, half, scratch, tracer=tracer, at_prefix=at_prefix)
    snaps["end"] = tracer.snapshot()
    tracer.uninstall()

    cli, cli_ok = cli_check(workload, ctx, scratch)

    view = layers.TraceView(snaps["setup"], snaps["prefix"], snaps["end"], len(jobs),
                            sum(j.seconds for j in jobs), snaps["prefix_items"])
    values, coverage = layers.compute(view, workload.name, reached_on, tracer.missing)
    everything = base_jobs + jobs
    _, summary, failed = end_to_end(everything, 0.0)
    values.update({
        "cli.import_s": cli["import_s"],
        "cli.process_s": cli["process_s"],
        "trace.overhead_ratio": items_per_s(base_jobs) / items_per_s(jobs),
        "oracle.error": summary["oracle_error"],
        "oracle.failed_frac": summary["failed_frac"],
    })
    counts = {name: values[name] for name in
              ("entropy.draws", "transition.updates", "spiking.races", "dpmm.reassignments")}
    record = {
        "summary": summary,
        "determinism": determinism(workload, jobs, counts),
        "untraced_determinism": determinism(workload, base_jobs),
        "coverage": coverage,
        "bindings": tracer.bindings,
        "cli": cli,
        "aggregates": {name: {"calls": c, "total_s": t, "self_s": s}
                       for name, (c, t, s) in sorted(tracer.agg.items())},
        "spans": {"fields": ["id", "parent", "name", "job", "start", "end", "self_s"],
                  "rows": tracer.spans},
    }
    # tracing must not change a single output
    same = all(a.digest == b.digest for a, b in zip(base_jobs, jobs))
    record["traced_outputs_match_untraced"] = same
    correct = failed == 0 and cli_ok and same
    return values, record, len(everything), failed, correct


def print_split(values):
    shares = {k[len("split."):]: v for k, v in values.items() if k.startswith("split.")}
    shares["other"] = 1.0 - sum(v for v in shares.values() if v > 0)
    print("split of traced job time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))


def main(argv=None):
    args = parse_args(argv)
    stochcirc = import_checkout()
    import workloads

    import_s = time.perf_counter() - PROCESS_START
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        refuse(f"cannot read the benchmark definition: {exc}")
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        refuse(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"work-{os.getpid()}"
    scratch.mkdir()
    try:
        run = traced_run if args.trace else untraced_run
        values, record, attempted, failed, correct = run(workload, args, import_s, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if set(values) != set(units):
        refuse(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    record.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment(stochcirc), metrics=values)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    summary = record["summary"]
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"workload {workload.name} seed {args.seed}: {summary['jobs']} jobs, "
          f"{failed} failed, job_s_tail at p{summary['job_s_tail_percentile']:.1f}")
    if not args.trace:
        for name in units:
            print(f"  {name} = {values[name]!r} {units[name]}")
        print(f"  oracle_error = {summary['oracle_error']!r}")
        print(f"  failed_frac = {summary['failed_frac']!r} ratio")
    else:
        print_split(values)
        cov = record["coverage"]
        if cov["missing"] or cov["unreached"]:
            print(f"WARNING coverage: missing {cov['missing']}, unreached {cov['unreached']}; "
                  f"reported as -1: {cov['not_measured']}")
        print("cli " + json.dumps({k: v for k, v in record["cli"].items()
                                   if k in ("exit_code", "compared", "mismatched",
                                            "not_compared")}))
    print("determinism " + json.dumps({k: v for k, v in record["determinism"].items()
                                       if not k.startswith("job_")}, sort_keys=True))
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
