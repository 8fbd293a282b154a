"""Per-layer attribution for traced runs: which entry points get a span,
and how spans become the per-layer metrics.

Layers are named after the ``repro`` modules they time.  A name imported
directly by a caller is patched in that caller's module (for example
``repro.serve.daemon.validate_request``); methods are patched on their
class.  Only public entry points are wrapped, never an engine's private
kernels, so engine rewrites do not touch this file.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterable, List, Optional, Tuple

import repro.core.scenario as scenario_module
from repro.core.incremental_spsta import IncrementalSpsta
from repro.hier import InterfaceModelStore
import repro.hier.scheduler as hier_scheduler
import repro.opt.spsta_opt as opt_module
import repro.serve.daemon as serve_daemon

from spans import Span, Tracer

ALGEBRA_LAYER = {"MomentAlgebra": "moment", "GridAlgebra": "grid",
                 "MixtureAlgebra": "mixture"}

#: Per-layer metrics: name -> (unit, how to compute it).
#:   ("time", spans)            self seconds per job that used the layer
#:   ("count", spans, key)      counter per job that used the layer
#:   ("max", spans, key)        largest counter value
#:   ("ratio", spans, hit, miss)
#:   ("latency", op...)         median serve request wall time, ms
#:   ("per_request_ms", spans)  self ms per serve request
#:   ("unattributed", family)   job wall not under any layer span, per job
#:   ("value", name)            a number the run computed directly
SPSTA = ("spsta.moment", "spsta.grid", "spsta.mixture")
OPT = ("opt.greedy", "opt.anneal")
PER_LAYER: Dict[str, Tuple[str, tuple]] = {
    "netlist.load_s": ("s", ("time", ("netlist.load",))),
    "lint.preflight_s": ("s", ("time", ("lint.preflight",))),
    "lint.diagnostics": ("count",
                         ("count", ("lint.preflight",), "diagnostics")),
    "bounds.compute_s": ("s", ("time", ("bounds.compute",))),
    "bounds.bdd_gates": ("count", ("count", ("bounds.compute",), "bdd")),
    "bounds.frechet_gates": ("count",
                             ("count", ("bounds.compute",), "frechet")),
    "sta.run_s": ("s", ("time", ("sta.run",))),
    "ssta.run_s": ("s", ("time", ("ssta.run",))),
    "spsta.moment_s": ("s", ("time", ("spsta.moment",))),
    "spsta.grid_s": ("s", ("time", ("spsta.grid",))),
    "spsta.mixture_s": ("s", ("time", ("spsta.mixture",))),
    "spsta.subset_terms": ("count", ("count", SPSTA, "subset_terms")),
    "spsta.max_folds": ("count", ("count", SPSTA, "max_folds")),
    "spsta.weight_table_hit_ratio": (
        "ratio", ("ratio", SPSTA, "weight_table_hits",
                  "weight_table_misses")),
    "spsta.kernel_cache_hit_ratio": (
        "ratio", ("ratio", SPSTA, "kernel_cache_hits",
                  "kernel_cache_misses")),
    "spsta.fft_rows": ("count", ("count", SPSTA, "fft_convolutions")),
    "spsta.direct_rows": ("count", ("count", SPSTA, "direct_convolutions")),
    "spsta.clipped_mass": ("prob", ("count", SPSTA, "clipped_mass")),
    "sim.mc_s": ("s", ("time", ("sim.mc",))),
    "sim.peak_wave_bytes": ("bytes", ("max", ("sim.mc",), "peak_bytes")),
    "opt.greedy_s": ("s", ("time", ("opt.greedy",))),
    "opt.anneal_s": ("s", ("time", ("opt.anneal",))),
    "opt.moves": ("count", ("count", OPT, "moves")),
    "opt.pruned_candidates": ("count", ("count", OPT, "pruned")),
    "incremental.build_s": ("s", ("time", ("incremental.build",))),
    "incremental.repair_s": ("s", ("time", ("incremental.repair",))),
    "incremental.recomputed_gates": (
        "count", ("count", ("incremental.repair",), "recomputed")),
    "incremental.cone_gates": (
        "count", ("count", ("incremental.repair",), "cone")),
    "serve.query_ms": ("ms", ("latency", ("query",))),
    "serve.analyze_ms": ("ms", ("latency", ("analyze",))),
    "serve.edit_ms": ("ms", ("latency", ("edit", "clear"))),
    "serve.cache_hit_ratio": ("ratio", ("value", "serve.cache_hit_ratio")),
    "serve.validate_ms": ("ms", ("per_request_ms", ("serve.validate",))),
    "serve.fingerprint_ms": ("ms",
                             ("per_request_ms", ("serve.fingerprint",))),
    "scenario.compile_s": ("s", ("time", ("scenario.compile",))),
    "scenario.batch_grid_s": ("s", ("time", ("scenario.batch_grid",))),
    "scenario.batch_moment_s": ("s", ("time", ("scenario.batch_moment",))),
    "hier.run_s": ("s", ("time", ("hier.run",))),
    "hier.partition_s": ("s", ("time", ("hier.partition",))),
    "hier.store_get_s": ("s", ("time", ("hier.store_get",))),
    "hier.store_put_s": ("s", ("time", ("hier.store_put",))),
    "hier.dedup_hits": ("count", ("count", ("hier.run",), "dedup_hits")),
    "hier.regions": ("count", ("count", ("hier.run",), "regions")),
    "trace.overhead_frac": ("ratio", ("value", "trace.overhead_frac")),
    "batch.unattributed_s": ("s", ("unattributed", "batch")),
    "serve.unattributed_s": ("s", ("unattributed", "serve")),
    "scale.unattributed_s": ("s", ("unattributed", "scale")),
}


# -- patches -----------------------------------------------------------------


def _lint(report: Any, tracer: Tracer) -> None:
    tracer.count("diagnostics", len(report.diagnostics))


def _bounds(result: Any, tracer: Tracer) -> None:
    regimes = result.regime_counts
    tracer.count("bdd", regimes["bdd"])
    tracer.count("frechet", regimes["frechet"])


def _spsta(result: Any, tracer: Tracer) -> None:
    profile = result.profile
    for key in ("subset_terms", "max_folds", "weight_table_hits",
                "weight_table_misses", "kernel_cache_hits",
                "kernel_cache_misses", "fft_convolutions",
                "direct_convolutions", "clipped_mass"):
        tracer.count(key, getattr(profile, key))


def _algebra_of(args: tuple, kwargs: dict, position: int) -> str:
    algebra = kwargs.get("algebra",
                         args[position] if len(args) > position else None)
    return ALGEBRA_LAYER.get(type(algebra).__name__, "moment")


def _opt(result: Any, tracer: Tracer) -> None:
    tracer.count("moves", len(result.moves))
    tracer.count("pruned", result.pruned_candidates)


def _repair(stats: Any, tracer: Tracer) -> None:
    tracer.count("recomputed", stats.recomputed)
    tracer.count("cone", stats.cone_size)


def _hier(run: Any, tracer: Tracer) -> None:
    tracer.count("dedup_hits", run.dedup_hits)
    tracer.count("regions", run.partition.n_regions)


class _PhaseSeeds:
    """Stands in for the optimizer's SeedSequence: its first ``spawn``
    starts the anneal phase (``optimize_spsta`` spawns the anneal stream
    right after the greedy loop ends)."""

    def __init__(self, seed_seq: Any, tracer: Tracer) -> None:
        self._seed_seq = seed_seq
        self._tracer = tracer

    def spawn(self, n: int) -> Any:
        self._tracer.switch("opt.greedy", "opt.anneal")
        return self._seed_seq.spawn(n)


def install(tracer: Tracer, workloads: Any) -> None:
    """Wrap every layer entry point (traced runs only)."""
    patch = tracer.patch
    patch(workloads, "preflight", "lint.preflight", _lint)
    patch(workloads, "compute_bounds", "bounds.compute", _bounds)
    patch(workloads, "run_sta", "sta.run")
    patch(workloads, "run_ssta", "ssta.run")
    patch(workloads, "run_spsta",
          lambda *a, **k: f"spsta.{_algebra_of(a, k, 3)}", _spsta)
    patch(workloads, "run_monte_carlo", "sim.mc",
          lambda r, t: t.count("peak_bytes", r.peak_wave_bytes))
    patch(workloads, "optimize_spsta", "opt.greedy", _opt)
    patch(workloads, "run_scenario_batch",
          lambda *a, **k: f"scenario.batch_{_algebra_of(a, k, 2)}")
    patch(workloads, "run_hier", "hier.run", _hier)

    patch(opt_module, "compute_bounds", "bounds.compute", _bounds)
    tracer.replace(opt_module, "seed_sequence_of",
                   lambda original: lambda rng: _PhaseSeeds(original(rng),
                                                            tracer))
    patch(serve_daemon, "validate_request", "serve.validate")
    patch(serve_daemon, "delay_fingerprint", "serve.fingerprint")
    patch(serve_daemon, "value_fingerprint", "serve.fingerprint")
    patch(serve_daemon, "run_lint", "lint.preflight", _lint)
    patch(scenario_module, "compile_netlist", "scenario.compile")
    patch(hier_scheduler, "partition_netlist", "hier.partition")
    patch(IncrementalSpsta, "__init__", "incremental.build")
    patch(IncrementalSpsta, "set_delay", "incremental.repair", _repair)
    patch(IncrementalSpsta, "clear_delay", "incremental.repair", _repair)
    patch(InterfaceModelStore, "get", "hier.store_get")
    patch(InterfaceModelStore, "put", "hier.store_put")


# -- aggregation -------------------------------------------------------------


def _by_job(tracer: Tracer, names: Iterable[str]) -> Dict[int, List[Span]]:
    """Traced spans named in ``names``, grouped by job.  Home-family jobs
    are preferred: probe jobs count only for layers the home family never
    reached."""
    wanted = set(names)
    jobs = tracer.jobs
    grouped: Dict[int, List[Span]] = {}
    for span in tracer.spans:
        if span.name in wanted and span.job is not None \
                and jobs[span.job].traced:
            grouped.setdefault(span.job, []).append(span)
    if any(jobs[j].home for j in grouped):
        grouped = {j: s for j, s in grouped.items() if jobs[j].home}
    return grouped


def _family_jobs(tracer: Tracer, family: str, kinds: Optional[tuple] = None
                 ) -> List[Any]:
    return [job for job in tracer.jobs
            if job.traced and job.family == family
            and (kinds is None or job.kind in kinds)]


def unattributed(tracer: Tracer, family: str) -> Tuple[float, float]:
    """(mean job seconds outside top-level layer spans, covered share)."""
    jobs = _family_jobs(tracer, family)
    covered: Dict[int, float] = {}
    for span in tracer.spans:
        if span.parent is None and span.job is not None:
            covered[span.job] = covered.get(span.job, 0.0) + span.seconds
    wall = sum(job.seconds for job in jobs)
    outside = sum(job.seconds - covered.get(job.id, 0.0) for job in jobs)
    if not jobs or wall <= 0.0:
        return 0.0, 0.0
    return outside / len(jobs), 1.0 - outside / wall


def overhead_frac(tracer: Tracer, family: str) -> float:
    """Traced over untraced wall time of the same home jobs, minus one."""
    untraced: Dict[str, List[float]] = {}
    traced: Dict[str, List[float]] = {}
    for job in tracer.jobs:
        if job.home and job.family == family:
            side = traced if job.traced else untraced
            side.setdefault(job.key, []).append(job.seconds)
    keys = [key for key in traced if key in untraced]
    before = sum(statistics.median(untraced[key]) for key in keys)
    after = sum(statistics.median(traced[key]) for key in keys)
    return after / before - 1.0 if before > 0.0 else 0.0


def per_layer(tracer: Tracer, values: Dict[str, float]
              ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as (value, unit)."""
    out: Dict[str, Tuple[float, str]] = {}
    for name, (unit, rule) in PER_LAYER.items():
        out[name] = (float(_evaluate(tracer, rule, values)), unit)
    return out


def _evaluate(tracer: Tracer, rule: tuple, values: Dict[str, float]
              ) -> float:
    kind = rule[0]
    if kind == "value":
        return values[rule[1]]
    if kind == "unattributed":
        return unattributed(tracer, rule[1])[0]
    if kind == "latency":
        jobs = _family_jobs(tracer, "serve", rule[1])
        return (statistics.median(job.seconds for job in jobs) * 1e3
                if jobs else 0.0)
    if kind == "per_request_ms":
        ids = {job.id for job in _family_jobs(tracer, "serve")
               if job.kind != "cold"}
        wanted = set(rule[1])
        spent = sum(span.self_seconds for span in tracer.spans
                    if span.name in wanted and span.job in ids)
        return spent / len(ids) * 1e3 if ids else 0.0
    grouped = _by_job(tracer, rule[1])
    if not grouped:
        return 0.0
    spans = [span for group in grouped.values() for span in group]
    if kind == "time":
        return sum(span.self_seconds for span in spans) / len(grouped)
    if kind == "count":
        return sum(span.counters.get(rule[2], 0.0)
                   for span in spans) / len(grouped)
    if kind == "max":
        return max(span.counters.get(rule[2], 0.0) for span in spans)
    hits = sum(span.counters.get(rule[2], 0.0) for span in spans)
    misses = sum(span.counters.get(rule[3], 0.0) for span in spans)
    return hits / (hits + misses) if hits + misses else 0.0

