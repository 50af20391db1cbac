"""Layer tracing from outside the library.

The traced run replaces public functions and methods of `stochcirc` with
timing wrappers. A module-level function is replaced at every binding that
holds it, so re-imports such as `compiler.run`, `mrf.run`,
`mrf.compile_graph` and `cli.run_assembly` are traced too; methods are
replaced on their class.

Coarse calls (a solve, a sweep, a compile) each record a span: id, parent
span, name, job, start, end and self time. Hot leaf calls (entropy draws,
integer weights, kernel steps) run into the millions per run, so they are
only aggregated into count, total time and self time per name. Self time is
a call's duration minus the time of the traced calls nested in it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """A traced name: `module` is a stochcirc module, `attr` a function or
    `Class.method`. `hot` calls are aggregated, not kept as spans."""

    module: str
    attr: str
    hot: bool = False

    @property
    def name(self) -> str:
        return f"{self.module.removeprefix('stochcirc.')}.{self.attr}"


def _next_below_pre(args, kwargs):
    return args[0].draws_consumed


def _next_below_post(tracer, args, kwargs, result, before):
    bound = args[1] if len(args) > 1 else kwargs["bound"]
    if bound > 1:
        # each rejection attempt stitches ceil(k / 64) words for a k-bit bound
        per_attempt = -(-(bound - 1).bit_length() // 64)
        tracer.counters["entropy.below_attempts"] += (args[0].draws_consumed - before) // per_attempt
        tracer.counters["entropy.below_accepted"] += 1


def _integer_weights_post(tracer, args, kwargs, result, before):
    if sum(result) > 1 << 62:
        tracer.counters["lowprec.wide_vectors"] += 1


def _step_post(tracer, args, kwargs, result, before):
    if result != args[1]:
        tracer.counters["transition.moved"] += 1


def _compile_post(tracer, args, kwargs, result, before):
    tracer.counters["compiler.assemblies"] += 1
    tracer.counters["compiler.groups"] += len(result.schedule)
    tracer.counters["compiler.group_members"] += sum(len(g) for g in result.schedule)


def _simulate_post(tracer, args, kwargs, result, before):
    raster = result[0]
    tracer.counters["spiking.races"] += len(raster.transitions)
    tracer.counters["spiking.spike_events"] += len(raster.events)


def _remove_pre(args, kwargs):
    return args[0].assignments[args[1]]


def _remove_post(tracer, args, kwargs, result, before):
    tracer.removed[args[1]] = before


def _assign_post(tracer, args, kwargs, result, before):
    old = tracer.removed.pop(args[1], None)
    if old is not None:
        tracer.counters["dpmm.reassignments"] += 1
        if result != old:
            tracer.counters["dpmm.moved"] += 1


def _gibbs_sweep_post(tracer, args, kwargs, result, before):
    tracer.counters["dpmm.sweeps"] += 1
    tracer.counters["dpmm.clusters"] += len(args[0].clusters)


# (target, pre hook, post hook); a pre hook's result is handed to the post hook
TARGETS = [
    (Target("stochcirc.entropy", "EntropyStream.next_bits", hot=True), None, None),
    (Target("stochcirc.entropy", "EntropyStream.next_below", hot=True),
     _next_below_pre, _next_below_post),
    (Target("stochcirc.entropy", "EntropyStream.next_unit", hot=True), None, None),
    (Target("stochcirc.entropy", "EntropyStream.fork", hot=True), None, None),
    (Target("stochcirc.lowprec", "integer_weights", hot=True), None, _integer_weights_post),
    (Target("stochcirc.lowprec", "discrete_sample", hot=True), None, None),
    (Target("stochcirc.lowprec", "quantize_energies", hot=True), None, None),
    (Target("stochcirc.lowprec", "precision_sweep"), None, None),
    (Target("stochcirc.factorgraph", "parse"), None, None),
    (Target("stochcirc.factorgraph", "enumerate_joint"), None, None),
    (Target("stochcirc.factorgraph", "FactorGraph.factors_touching", hot=True), None, None),
    (Target("stochcirc.compiler", "compile"), None, _compile_post),
    (Target("stochcirc.compiler", "color_interaction_graph"), None, None),
    (Target("stochcirc.compiler", "query"), None, None),
    (Target("stochcirc.transition", "run"), None, None),
    (Target("stochcirc.transition", "validate_schedule"), None, None),
    (Target("stochcirc.transition", "TransitionAssembly.set_temperature"), None, None),
    (Target("stochcirc.transition", "GibbsKernel.step", hot=True), None, _step_post),
    (Target("stochcirc.transition", "MhKernel.step", hot=True), None, _step_post),
    (Target("stochcirc.transition", "GibbsKernel.conditional_energies", hot=True), None, None),
    (Target("stochcirc.transition", "GibbsKernel.set_temperature", hot=True), None, None),
    (Target("stochcirc.transition", "MhKernel.set_temperature", hot=True), None, None),
    (Target("stochcirc.spiking", "simulate_spiking_assembly"), None, _simulate_post),
    (Target("stochcirc.mrf", "evidence_from_images"), None, None),
    (Target("stochcirc.mrf", "LatticeMRF.to_factor_graph"), None, None),
    (Target("stochcirc.mrf", "LatticeMRF.total_energy"), None, None),
    (Target("stochcirc.mrf", "solve"), None, None),
    (Target("stochcirc.dpmm", "run_batch"), None, None),
    (Target("stochcirc.dpmm", "gibbs_sweep"), None, _gibbs_sweep_post),
    (Target("stochcirc.dpmm", "assignment_energies", hot=True), None, None),
    (Target("stochcirc.dpmm", "DpmmState.assign", hot=True), None, _assign_post),
    (Target("stochcirc.dpmm", "DpmmState.remove", hot=True), _remove_pre, _remove_post),
]


class Tracer:
    """Wrappers, the span stack, spans, per-name aggregates and counters."""

    def __init__(self):
        self.enabled = False
        self.job = None
        self.spans: list[tuple] = []
        # name -> [calls, total seconds, self seconds]
        self.agg: dict[str, list] = {}
        self.counters: Counter = Counter()
        self.removed: dict[int, int] = {}
        self.bindings: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self._stack = [[0.0, 0]]   # frames: [seconds of traced children, span id]
        self._next_id = 1
        self._installed: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, hot, pre, post):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            before = pre(args, kwargs) if pre is not None else None
            parent = stack[-1]
            if hot:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, tracer._next_id]
                tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                own = duration - frame[0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += own
                if not hot:
                    spans.append((frame[1], parent[1], name, tracer.job, start, end, own))
            if post is not None:
                post(tracer, args, kwargs, result, before)
            return result

        return wrapper

    def call(self, name, job, fn, *args):
        """Run fn(*args) as a benchmark-level span (a job or a set-up)."""
        self.job = job
        return self._wrap(name, fn, False, None, None)(*args)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target at every binding; record missing names."""
        modules = {name: mod for name, mod in sorted(sys.modules.items())
                   if name == "stochcirc" or name.startswith("stochcirc.")}
        for target, pre, post in TARGETS:
            module = modules.get(target.module)
            owner_name, _, method = target.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = None
            if owner is not None:
                original = vars(owner).get(method) if owner_name else getattr(owner, method, None)
            if original is None:
                self.missing.append(target.name)
                continue
            wrapper = self._wrap(target.name, original, target.hot, pre, post)
            if owner_name:
                self._replace(owner, method, original, wrapper)
                self.bindings[target.name] = [target.name]
                continue
            where = []
            for mod_name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapper)
                        where.append(f"{mod_name}.{key}")
            self.bindings[target.name] = where

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- reading ----------------------------------------------------------

    def snapshot(self):
        """A copy of the aggregates and counters, for differencing."""
        return {k: list(v) for k, v in self.agg.items()}, Counter(self.counters)
