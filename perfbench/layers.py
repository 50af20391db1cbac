"""Per-layer metrics, computed from a traced run's aggregates.

Conventions, shared by every metric here:
  * `_s` metrics are host seconds spent in the layer during one traced
    set-up plus one average traced job (set-up work such as `bn_query`'s
    compiles shows up once, per-job work once per job);
  * counts and ratios cover the set-up and the first `prefix_jobs` jobs,
    a fixed amount of work, so they repeat exactly for a given seed;
  * `split.*` shares are fractions of traced job time (set-up excluded).
A metric whose traced name no longer exists, or recorded no call on a
workload that reaches it at the seed, reads -1 and is listed under
`coverage` in the run record.
"""

from __future__ import annotations

NEXT_BITS = "entropy.EntropyStream.next_bits"
ENTROPY = [NEXT_BITS, "entropy.EntropyStream.next_below",
           "entropy.EntropyStream.next_unit", "entropy.EntropyStream.fork"]
IW = "lowprec.integer_weights"
STEPS = ["transition.GibbsKernel.step", "transition.MhKernel.step"]
BOOKKEEPING = ["dpmm.DpmmState.assign", "dpmm.DpmmState.remove"]


class TraceView:
    """Differences between tracer snapshots, read the way the metrics need."""

    def __init__(self, setup, prefix, end, n_jobs, job_seconds, prefix_items):
        self._setup, self._prefix, self._end = setup, prefix, end
        self.n_jobs = n_jobs
        self.job_seconds = job_seconds
        self.items = prefix_items

    @staticmethod
    def _agg(snap, name):
        return snap[0].get(name, (0, 0.0, 0.0))

    def _per_job(self, name, field):
        setup = self._agg(self._setup, name)[field]
        return setup + (self._agg(self._end, name)[field] - setup) / self.n_jobs

    def seconds(self, *names):
        return sum(self._per_job(n, 1) for n in names)

    def self_seconds(self, *names):
        return sum(self._per_job(n, 2) for n in names)

    def calls(self, *names):
        return sum(self._agg(self._prefix, n)[0] for n in names)

    def total_calls(self, name):
        return self._agg(self._end, name)[0]

    def count(self, key):
        return self._prefix[1][key]

    def share(self, name):
        jobs_only = self._agg(self._end, name)[1] - self._agg(self._setup, name)[1]
        return jobs_only / self.job_seconds


def ratio(num, den):
    return num / den if den else 0.0


# metric name -> (traced names it reads, formula)
METRICS = {
    "entropy.self_s": (ENTROPY, lambda v: v.self_seconds(*ENTROPY)),
    "entropy.draws": ([NEXT_BITS], lambda v: v.calls(NEXT_BITS)),
    "entropy.draws_per_item": ([NEXT_BITS], lambda v: ratio(v.calls(NEXT_BITS), v.items)),
    "entropy.next_below_accept_ratio": (
        ["entropy.EntropyStream.next_below"],
        lambda v: ratio(v.count("entropy.below_accepted"), v.count("entropy.below_attempts"))),
    "lowprec.integer_weights_calls": ([IW], lambda v: v.calls(IW)),
    "lowprec.integer_weights_self_s": ([IW], lambda v: v.self_seconds(IW)),
    "lowprec.discrete_sample_self_s": (
        ["lowprec.discrete_sample"], lambda v: v.self_seconds("lowprec.discrete_sample")),
    "lowprec.quantize_energies_s": (
        ["lowprec.quantize_energies"], lambda v: v.seconds("lowprec.quantize_energies")),
    "lowprec.precision_sweep_s": (
        ["lowprec.precision_sweep"], lambda v: v.seconds("lowprec.precision_sweep")),
    "lowprec.wide_weight_ratio": (
        [IW], lambda v: ratio(v.count("lowprec.wide_vectors"), v.calls(IW))),
    "factorgraph.parse_s": (["factorgraph.parse"], lambda v: v.seconds("factorgraph.parse")),
    "factorgraph.factors_touching_calls": (
        ["factorgraph.FactorGraph.factors_touching"],
        lambda v: v.calls("factorgraph.FactorGraph.factors_touching")),
    "factorgraph.factors_touching_s": (
        ["factorgraph.FactorGraph.factors_touching"],
        lambda v: v.seconds("factorgraph.FactorGraph.factors_touching")),
    "factorgraph.enumerate_joint_s": (
        ["factorgraph.enumerate_joint"], lambda v: v.seconds("factorgraph.enumerate_joint")),
    "compiler.compile_s": (["compiler.compile"], lambda v: v.seconds("compiler.compile")),
    "compiler.color_s": (
        ["compiler.color_interaction_graph"],
        lambda v: v.seconds("compiler.color_interaction_graph")),
    "compiler.query_s": (["compiler.query"], lambda v: v.seconds("compiler.query")),
    "compiler.groups": (
        ["compiler.compile"],
        lambda v: ratio(v.count("compiler.groups"), v.count("compiler.assemblies"))),
    "compiler.group_width_mean": (
        ["compiler.compile"],
        lambda v: ratio(v.count("compiler.group_members"), v.count("compiler.groups"))),
    "transition.run_s": (["transition.run"], lambda v: v.seconds("transition.run")),
    "transition.run_calls": (["transition.run"], lambda v: v.calls("transition.run")),
    "transition.run_self_s": (["transition.run"], lambda v: v.self_seconds("transition.run")),
    "transition.updates": (STEPS, lambda v: v.calls(*STEPS)),
    "transition.step_self_s": (STEPS, lambda v: v.self_seconds(*STEPS)),
    "transition.conditional_energies_s": (
        ["transition.GibbsKernel.conditional_energies"],
        lambda v: v.seconds("transition.GibbsKernel.conditional_energies")),
    "transition.set_temperature_s": (
        ["transition.TransitionAssembly.set_temperature"],
        lambda v: v.seconds("transition.TransitionAssembly.set_temperature")),
    "transition.set_temperature_calls": (
        ["transition.TransitionAssembly.set_temperature"],
        lambda v: v.calls("transition.TransitionAssembly.set_temperature")),
    "transition.validate_schedule_s": (
        ["transition.validate_schedule"], lambda v: v.seconds("transition.validate_schedule")),
    "transition.moved_ratio": (
        STEPS, lambda v: ratio(v.count("transition.moved"), v.calls(*STEPS))),
    "spiking.simulate_s": (
        ["spiking.simulate_spiking_assembly"],
        lambda v: v.seconds("spiking.simulate_spiking_assembly")),
    "spiking.races": (["spiking.simulate_spiking_assembly"], lambda v: v.count("spiking.races")),
    "spiking.spike_events": (
        ["spiking.simulate_spiking_assembly"], lambda v: v.count("spiking.spike_events")),
    "mrf.evidence_s": (["mrf.evidence_from_images"], lambda v: v.seconds("mrf.evidence_from_images")),
    "mrf.to_factor_graph_s": (
        ["mrf.LatticeMRF.to_factor_graph"], lambda v: v.seconds("mrf.LatticeMRF.to_factor_graph")),
    "mrf.total_energy_s": (
        ["mrf.LatticeMRF.total_energy"], lambda v: v.seconds("mrf.LatticeMRF.total_energy")),
    "mrf.solve_self_s": (["mrf.solve"], lambda v: v.self_seconds("mrf.solve")),
    "dpmm.gibbs_sweep_s": (["dpmm.gibbs_sweep"], lambda v: v.seconds("dpmm.gibbs_sweep")),
    "dpmm.assignment_energies_s": (
        ["dpmm.assignment_energies"], lambda v: v.seconds("dpmm.assignment_energies")),
    "dpmm.bookkeeping_s": (BOOKKEEPING, lambda v: v.seconds(*BOOKKEEPING)),
    "dpmm.reassignments": (BOOKKEEPING, lambda v: v.count("dpmm.reassignments")),
    "dpmm.clusters_mean": (
        ["dpmm.gibbs_sweep"], lambda v: ratio(v.count("dpmm.clusters"), v.count("dpmm.sweeps"))),
    "dpmm.moved_ratio": (
        BOOKKEEPING, lambda v: ratio(v.count("dpmm.moved"), v.count("dpmm.reassignments"))),
    "split.compile_share": (["compiler.compile"], lambda v: v.share("compiler.compile")),
    "split.requantize_share": (
        ["transition.TransitionAssembly.set_temperature"],
        lambda v: v.share("transition.TransitionAssembly.set_temperature")),
    "split.sweep_share": (["transition.run"], lambda v: v.share("transition.run")),
    "split.energy_share": (
        ["mrf.LatticeMRF.total_energy"], lambda v: v.share("mrf.LatticeMRF.total_energy")),
}


def compute(view: TraceView, workload: str, reached_on: dict, missing) -> tuple[dict, dict]:
    """(metric values, coverage record) for one traced workload run."""
    missing = set(missing)
    unreached = sorted(name for name, where in reached_on.items()
                       if workload in where and name not in missing
                       and view.total_calls(name) == 0)
    bad = missing | set(unreached)
    values = {}
    for metric, (names, formula) in METRICS.items():
        values[metric] = -1 if bad.intersection(names) else formula(view)
    coverage = {"missing": sorted(missing), "unreached": unreached,
                "not_measured": sorted(m for m, v in values.items() if v == -1)}
    return values, coverage
