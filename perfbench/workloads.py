"""The three job families the benchmark measures, and their output checks.

Every job calls a stable public entry point with default engine selection
and the ROADMAP engine-baseline inputs: ``CONFIG_I`` launch statistics and
``NormalDelay(1, 0.1)`` gate delays.

A workload runs in rounds.  Each round runs one round of its own (home)
family at ``FULL`` size and one round of each other family at ``PROBE``
size, so every workload reports every end-to-end metric, and each
metric's samples are spread over the whole run rather than taken in one
stretch of it.  Jobs run closed-loop: one at a time, the next only after
the previous returned.  Outputs are checked after the timed region; each
failed check is recorded as a failed operation.  Every timing is in
reference seconds (see ``speed.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import math
import os
from pathlib import Path
import shutil
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bounds import compute_bounds
from repro.core.delay import NormalDelay
from repro.core.inputs import CONFIG_I
from repro.core.scenario import (
    derate_corners,
    run_scenario_batch,
    scenarios_from_corners,
)
from repro.core.spsta import (
    GridAlgebra,
    MixtureAlgebra,
    MomentAlgebra,
    run_spsta,
)
from repro.core.ssta import run_ssta
from repro.core.sta import run_sta
from repro.hier import AlgebraSpec, InterfaceModelStore, run_hier
from repro.lint import LintConfig, preflight
from repro.netlist.analysis import critical_endpoint
from repro.netlist.benchmarks import benchmark_circuit
from repro.netlist.core import Netlist
from repro.netlist.generator import TiledProfile, generate_tiled_circuit
from repro.opt import optimize_spsta
from repro.serve.daemon import Server
from repro.sim.accumulator import DirectionMoments
from repro.sim.montecarlo import run_monte_carlo
from repro.stats.grid import TimeGrid
from repro.verify.policies import POLICIES

from spans import Tracer
from speed import Speed

DELAY = NormalDelay(1.0, 0.1)
GRID = (-8.0, 60.0)

#: Serve request mix per block of 20 requests to one session: 60% query,
#: 15% analyze, 20% delay edit, 5% clear.  Every block holds exactly this
#: mix, so the share of expensive requests does not swing with the seed.
REQUEST_BLOCK = (("query", 12), ("analyze", 3), ("edit", 4), ("clear", 1))

#: Serve requests timed between two calibration points.
SERVE_CALIBRATION_BLOCK = 20

#: Fan-out cone size classes the serve edits are spread over; fine classes
#: keep the latency tail (the largest cones) the same from seed to seed.
EDIT_STRATA = 64

#: Relative delay spread the serve edits keep, so a session's effective
#: delays are expressible as one ``frozen`` delay spec for the fresh-daemon
#: check (base NormalDelay(1, 0.1) has the same ratio).
EDIT_RELATIVE_SIGMA = 0.1

#: The Table 2 reference row: on s27 the independence approximation leaves
#: an error well above Monte Carlo sampling noise, so ``table2_err`` tracks
#: the engines' accuracy rather than the seed.  Its Monte Carlo runs
#: ``TABLE2_TRIALS`` trials, outside the timed region.
TABLE2_REFERENCE = "s27"
TABLE2_TRIALS = 1_000_000

#: Rounds of a probe family per workload round: probe jobs last
#: milliseconds, so several samples per round keep their medians steady.
PROBE_REPEATS = {"batch": 3, "serve": 1, "scale": 3}


@dataclass(frozen=True)
class BatchSize:
    analyze: Tuple[Tuple[str, str, str], ...]   # (metric, circuit, algebra)
    mc_trials: int
    optimize: Tuple[Dict[str, Any], ...]


@dataclass(frozen=True)
class ServeSize:
    sessions: Tuple[Tuple[str, str, Optional[str]], ...]  # circuit, alg, grid
    requests_per_round: int
    min_requests: int


@dataclass(frozen=True)
class ScaleSize:
    sweep_grid: Tuple[str, int, int]      # circuit, corners, bins
    sweep_moment: Tuple[str, int]         # circuit, corners
    tiled: TiledProfile
    hier_bins: int
    hier_workers: Optional[int]           # None: one per CPU


FULL = {
    "batch": BatchSize(
        analyze=(("analyze_moment_s", "s1196", "moment"),
                 ("analyze_grid_s", "s1196", "grid"),
                 ("analyze_mixture_s", "s344", "mixture")),
        mc_trials=10_000,
        optimize=(dict(circuit="s1196", clock_period=16.5,
                       metric="mean-ksigma", max_iterations=4),
                  # An unreachable yield target and no area cap run the
                  # whole schedule: greedy steps, then 200 anneal moves.
                  dict(circuit="s344", clock_period=12.0, metric="yield",
                       target_yield=1.0, max_area=1000.0, anneal=True,
                       anneal_moves=200))),
    "serve": ServeSize(
        sessions=(("s1196", "moments", None),
                  ("s1196", "grid", "-8:60:512"),
                  ("s344", "mixture", None)),
        requests_per_round=340, min_requests=1000),
    "scale": ScaleSize(
        sweep_grid=("s1196", 16, 128), sweep_moment=("s1196", 8),
        tiled=TiledProfile(name="tiled20k", n_tiles=16,
                           gates_per_tile=1246, tile_variants=2, seed=0),
        hier_bins=512, hier_workers=None),
}

PROBE = {
    "batch": BatchSize(
        analyze=(("analyze_moment_s", "s27", "moment"),
                 ("analyze_grid_s", "s27", "grid"),
                 ("analyze_mixture_s", "s27", "mixture")),
        mc_trials=10_000,
        optimize=(dict(circuit="s27", clock_period=4.0,
                       metric="mean-ksigma", max_iterations=4),
                  dict(circuit="s27", clock_period=3.0, metric="yield",
                       target_yield=1.0, max_area=1000.0, anneal=True,
                       anneal_moves=200))),
    "serve": ServeSize(
        sessions=(("s27", "moments", None),
                  ("s27", "grid", "-8:60:512"),
                  ("s27", "mixture", None)),
        requests_per_round=340, min_requests=1000),
    "scale": ScaleSize(
        sweep_grid=("s27", 16, 128), sweep_moment=("s27", 8),
        # Serial: on ten-millisecond regions a worker pool's start-up
        # would be most of the time, and it varies from run to run.
        tiled=TiledProfile(name="tiled1k", n_tiles=4, gates_per_tile=250,
                           tile_variants=2, seed=0),
        hier_bins=512, hier_workers=1),
}


def circuits_needed(family: str, size: Any) -> List[str]:
    """Benchmark circuits a family loads during set-up."""
    if family == "batch":
        names = [c for _, c, _ in size.analyze]
        names += [job["circuit"] for job in size.optimize]
        names.append(TABLE2_REFERENCE)
    elif family == "serve":
        names = [c for c, _, _ in size.sessions]
    else:
        names = [size.sweep_grid[0], size.sweep_moment[0]]
    return list(dict.fromkeys(names))


class Circuits:
    """Set-up state: every netlist a run uses, parsed or generated once."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.netlists: Dict[str, Netlist] = {}

    def load(self, name: str) -> Netlist:
        if name not in self.netlists:
            with self.tracer.span("netlist.load"):
                self.netlists[name] = benchmark_circuit(name)
        return self.netlists[name]

    def tiled(self, profile: TiledProfile) -> Netlist:
        if profile.name not in self.netlists:
            with self.tracer.span("netlist.load"):
                self.netlists[profile.name] = generate_tiled_circuit(profile)
        return self.netlists[profile.name]


@dataclass
class Outcome:
    """Samples and check results of one family's measurement."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def child_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator ``stream`` of the workload seed."""
    return np.random.default_rng([seed, *stream])


def _time_grid(bins: int) -> TimeGrid:
    return TimeGrid(GRID[0], GRID[1], bins)


def _algebra(name: str):
    if name == "moment":
        return MomentAlgebra()
    if name == "mixture":
        return MixtureAlgebra()
    return GridAlgebra(_time_grid(512))


class Family:
    """One job family at one size: ``round`` runs each of its jobs once,
    ``finish`` checks the outputs and returns the samples."""

    family = ""

    def __init__(self, circuits: Circuits, size: Any, seed: int,
                 home: bool, speed: Speed) -> None:
        self.size = size
        self.seed = seed
        self.home = home
        self.speed = speed
        self.repeats = 1 if home else PROBE_REPEATS[self.family]
        self.rounds = 0
        self.tracer = circuits.tracer
        self.netlists = {c: circuits.load(c)
                         for c in circuits_needed(self.family, size)}
        self.out = Outcome()

    def job(self, kind: str, key: Optional[str] = None):
        return self.tracer.job(self.family, kind, self.home, key)

    def timed(self, metric: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as one job and record its wall time under ``metric``."""
        with self.job(metric) as job:
            result = fn()
        self.out.add(metric, self.speed.scale(job.seconds))
        return result

    def satisfied(self) -> bool:
        """Whether enough samples exist to stop at the deadline."""
        return True

    def run_rounds(self) -> None:
        """This family's share of one workload round."""
        for _ in range(self.repeats):
            self.speed.mark()
            self.round(self.rounds)
            self.rounds += 1

    def round(self, index: int) -> None:
        raise NotImplementedError

    def finish(self) -> Outcome:
        return self.out


# -- batch -------------------------------------------------------------------


class Batch(Family):
    """One-shot commands on flat circuits: three full analyzes, the Monte
    Carlo validation and two optimizer runs."""

    family = "batch"

    def __init__(self, circuits: Circuits, size: BatchSize, seed: int,
                 home: bool, speed: Speed) -> None:
        super().__init__(circuits, size, seed, home, speed)
        self.analyzed: Dict[str, Tuple[str, str, Any]] = {}
        self.mc_circuits = list(dict.fromkeys(
            [c for _, c, _ in size.analyze]))
        self.mc_moments: Dict[Tuple[str, str, str], DirectionMoments] = {}
        self.optimized: List[Any] = []

    def _analyze(self, circuit: str, algebra: str) -> Tuple[str, Any]:
        """The ``spsta analyze --trials 0`` sequence."""
        netlist = self.netlists[circuit]
        preflight(netlist, LintConfig(input_stats=CONFIG_I, trials=0,
                                      delay_model=DELAY))
        compute_bounds(netlist, stats=CONFIG_I, delay_model=DELAY)
        endpoint, _ = critical_endpoint(netlist)
        run_sta(netlist, DELAY)
        run_ssta(netlist, DELAY)
        return endpoint, run_spsta(netlist, CONFIG_I, DELAY,
                                   _algebra(algebra))

    def _monte_carlo(self, index: int) -> List[Any]:
        """Stream MC of every analyzed circuit; each round draws fresh
        trials, pooled for the accuracy figure."""
        return [run_monte_carlo(self.netlists[circuit], CONFIG_I,
                                self.size.mc_trials, DELAY,
                                rng=child_rng(self.seed, 1, index, k),
                                mode="stream")
                for k, circuit in enumerate(self.mc_circuits)]

    def _optimize(self, index: int) -> List[Any]:
        """Both optimizer jobs; each round anneals along fresh seeded
        streams, so the median covers several schedules."""
        results = []
        for k, spec in enumerate(self.size.optimize):
            options = dict(spec)
            netlist = self.netlists[options.pop("circuit")]
            period = options.pop("clock_period")
            results.append(optimize_spsta(
                netlist, period, stats=CONFIG_I, base_delay=DELAY.mu,
                delay_sigma=DELAY.sigma,
                rng=child_rng(self.seed, 2, index, k), **options))
        return results

    def round(self, index: int) -> None:
        for metric, circuit, algebra in self.size.analyze:
            analyzed = self.timed(
                metric, lambda c=circuit, a=algebra: self._analyze(c, a))
            self.analyzed.setdefault(metric, (circuit, *analyzed))
        mc = self.timed("mc_validate_s", lambda: self._monte_carlo(index))
        for circuit, result in zip(self.mc_circuits, mc):
            endpoint, _ = critical_endpoint(self.netlists[circuit])
            for direction in ("rise", "fall"):
                stats = result.direction_stats(endpoint, direction)
                moments = DirectionMoments(
                    stats.n_occurrences, stats.mean,
                    stats.std ** 2 * stats.n_occurrences)
                key = (circuit, endpoint, direction)
                self.mc_moments[key] = (
                    self.mc_moments[key].merge(moments)
                    if key in self.mc_moments else moments)
        self.optimized = self.timed("optimize_s",
                                    lambda: self._optimize(index))

    def finish(self) -> Outcome:
        """``table2_err``: the largest |mu_SPSTA - mu_MC| or
        |sigma_SPSTA - sigma_MC| at the critical endpoint over the analyze
        jobs and the s27 reference, against the Monte Carlo the rounds
        drew (pooled), or against the large s27 reference run."""
        out = self.out
        rows = list(self.analyzed.values())
        reference = self.netlists[TABLE2_REFERENCE]
        endpoint, _ = critical_endpoint(reference)
        rows.append((TABLE2_REFERENCE, endpoint,
                     run_spsta(reference, CONFIG_I, DELAY)))
        large = run_monte_carlo(reference, CONFIG_I, TABLE2_TRIALS, DELAY,
                                rng=child_rng(self.seed, 5), mode="stream")
        errors = []
        for circuit, endpoint, result in rows:
            for direction in ("rise", "fall"):
                _, mean, std = result.report(endpoint, direction)
                if circuit == TABLE2_REFERENCE:
                    mc = large.direction_stats(endpoint, direction)
                else:
                    mc = self.mc_moments[(circuit, endpoint, direction)]
                errors += [abs(mean - mc.mean), abs(std - mc.std)]
        out.check(all(math.isfinite(e) for e in errors),
                  f"table2_err terms are not finite: {errors}")
        out.add("table2_err", max(errors))
        for result in self.optimized:
            out.check(math.isfinite(result.metric_after),
                      f"optimizer returned metric {result.metric_after}")
        return out


# -- serve -------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One serve request and the session's edits in effect after it."""

    op: str
    session: int
    net: Optional[str]
    direction: Optional[str]
    text: str
    edits: Dict[str, float]


def _session_fields(circuit: str, algebra: str,
                    grid: Optional[str]) -> Dict[str, Any]:
    fields: Dict[str, Any] = {"circuit": circuit, "config": "I",
                              "algebra": algebra}
    if grid is not None:
        fields["grid"] = grid
    return fields


def _cone_strata(netlist: Netlist, count: int) -> List[List[str]]:
    """Combinational gates sorted by fan-out cone size, cut into ``count``
    equal strata, at most one per gate (the incremental repair cost of an
    edit grows with the edited gate's cone)."""
    gates = netlist.combinational_gates
    fanout: Dict[str, List[str]] = {g.name: [] for g in gates}
    for gate in gates:
        for source in gate.inputs:
            if source in fanout:
                fanout[source].append(gate.name)
    cone: Dict[str, int] = {}
    for i, gate in reversed(list(enumerate(gates))):
        mask = 1 << i
        for sink in fanout[gate.name]:
            mask |= cone[sink]
        cone[gate.name] = mask
    ranked = sorted(cone, key=lambda g: (cone[g].bit_count(), g))
    count = min(count, len(ranked))
    size = len(ranked) / count
    return [ranked[int(k * size):int((k + 1) * size)] for k in range(count)]


class Serve(Family):
    """A warm daemon answering a seeded stream of reads and writes through
    ``Server.handle_text``, the entry both transports use.  Each round is
    one daemon lifetime: cold-start every session, then answer
    ``requests_per_round`` requests."""

    family = "serve"

    def __init__(self, circuits: Circuits, size: ServeSize, seed: int,
                 home: bool, speed: Speed) -> None:
        super().__init__(circuits, size, seed, home, speed)
        self.delay_spec = {"kind": "normal", "mu": DELAY.mu,
                           "sigma": DELAY.sigma}
        self.strata = [_cone_strata(self.netlists[c], EDIT_STRATA)
                       for c, _, _ in size.sessions]
        self.strata_order: List[List[int]] = [[] for _ in size.sessions]
        self.streams: List[List[Request]] = []
        self.latencies_ms: List[float] = []
        self.loop_seconds = 0.0
        self.cache_hits = 0
        self.cache_lookups = 0
        self.first_life: Optional[Tuple[Server, Dict[int, Dict]]] = None

    def _base(self, session: int) -> Dict[str, Any]:
        fields = _session_fields(*self.size.sessions[session])
        fields["delay"] = self.delay_spec
        return fields

    def stream(self, life: int) -> List[Request]:
        """The seeded request stream of one daemon lifetime.

        Nets are drawn Zipf-skewed over a seeded order, so popular nets
        repeat and reach the result cache until the next edit.  Edited
        gates are drawn from fan-out-cone strata in seeded passes that
        visit every stratum once and continue across lifetimes, so each
        seed edits small and large cones in the same proportion."""
        while len(self.streams) <= life:
            self.streams.append(self._new_stream(len(self.streams)))
        return self.streams[life]

    def _new_stream(self, life: int) -> List[Request]:
        rng = child_rng(self.seed, 3, life)
        nets = []
        for circuit, _, _ in self.size.sessions:
            netlist = self.netlists[circuit]
            names = list(netlist.launch_points) + [
                g.name for g in netlist.combinational_gates]
            nets.append([str(n) for n in rng.permutation(names)])
        block = [op for op, count in REQUEST_BLOCK for _ in range(count)]
        schedule: List[Tuple[str, int]] = []
        while len(schedule) < self.size.requests_per_round:
            pairs = [(op, s) for s in range(len(nets)) for op in block]
            schedule += [pairs[int(i)] for i in rng.permutation(len(pairs))]
        edits: List[Dict[str, float]] = [{} for _ in nets]
        stream = []
        for i, (op, s) in enumerate(
                schedule[:self.size.requests_per_round]):
            fields: Dict[str, Any] = {"v": 1, "id": i, **self._base(s)}
            net = direction = None
            if op == "query":
                net = nets[s][min(int(rng.zipf(1.3)) - 1, len(nets[s]) - 1)]
                direction = ("rise", "fall", None)[int(rng.integers(3))]
                fields.update(op="query", net=net)
                if direction is not None:
                    fields["direction"] = direction
            elif op == "analyze":
                fields["op"] = "analyze"
            elif op == "edit":
                if not self.strata_order[s]:
                    self.strata_order[s] = [int(k) for k in rng.permutation(
                        len(self.strata[s]))]
                stratum = self.strata[s][self.strata_order[s].pop()]
                gate = stratum[int(rng.integers(len(stratum)))]
                mu = round(float(rng.uniform(0.7, 1.3)), 3)
                fields.update(op="edit", gate=gate, mu=mu,
                              sigma=mu * EDIT_RELATIVE_SIGMA)
                edits[s] = {**edits[s], gate: mu}
            else:
                edited = sorted(edits[s])
                gate = (edited[int(rng.integers(len(edited)))] if edited
                        else self.strata[s][0][0])
                fields.update(op="edit", gate=gate, clear=True)
                edits[s] = {g: m for g, m in edits[s].items() if g != gate}
            stream.append(Request(op, s, net, direction, json.dumps(fields),
                                  edits[s]))
        return stream

    def satisfied(self) -> bool:
        return len(self.latencies_ms) >= self.size.min_requests

    def round(self, index: int) -> None:
        stream = self.stream(index)
        server = Server()
        answered: List[Tuple[Request, Dict[str, Any]]] = []
        cold = 0.0
        self.speed.mark()
        for s in range(len(self.size.sessions)):
            request = Request("analyze", s, None, None, json.dumps(
                {"v": 1, "id": f"cold-{s}", "op": "analyze",
                 **self._base(s)}), {})
            with self.job("cold", f"{index}/cold{s}") as job:
                response = server.handle_text(request.text)
            cold += self.speed.scale(job.seconds)
            answered.append((request, response))
        self.out.add("serve_cold_s", cold)

        # Calibrate per block of requests; a request lasts milliseconds.
        for first in range(0, len(stream), SERVE_CALIBRATION_BLOCK):
            block = []
            block_start = time.perf_counter()
            for i in range(first, min(first + SERVE_CALIBRATION_BLOCK,
                                      len(stream))):
                request = stream[i]
                with self.job(request.op, f"{index}/{i}") as job:
                    response = server.handle_text(request.text)
                block.append(job.seconds)
                answered.append((request, response))
            wall = time.perf_counter() - block_start
            reference = self.speed.scale(wall)
            self.loop_seconds += reference
            self.latencies_ms += [x * reference / wall * 1e3 for x in block]

        cache = server.handle_text(json.dumps(
            {"v": 1, "op": "status"}))["result"]["cache"]
        self.cache_hits += cache["hits"]
        self.cache_lookups += cache["hits"] + cache["misses"]
        self._check_responses(answered)
        if self.first_life is None:
            self.first_life = (server, {r.session: r.edits
                                        for r in stream})

    @property
    def cache_hit_ratio(self) -> float:
        return self.cache_hits / max(1, self.cache_lookups)

    def finish(self) -> Outcome:
        out = self.out
        out.add("serve_p50_ms", float(np.percentile(self.latencies_ms, 50)))
        out.add("serve_p99_ms", float(np.percentile(self.latencies_ms, 99)))
        out.add("serve_rps", len(self.latencies_ms) / self.loop_seconds)
        if self.first_life is not None:
            self._check_fresh(*self.first_life)
        return out

    def _check_responses(self, answered) -> None:
        """Every response ok; every cached payload bit-identical to the
        first uncached answer for the same key."""
        uncached: Dict[Tuple, str] = {}
        for request, response in answered:
            ok = bool(response.get("ok"))
            self.out.check(ok, f"{request.op} on session {request.session} "
                               f"failed: {response.get('error')}")
            if not ok or request.op not in ("query", "analyze"):
                continue
            result = response["result"]
            key = (request.session, request.op, request.net,
                   request.direction, result["fingerprints"]["delay"])
            payload = json.dumps(result, sort_keys=True)
            if not response["cached"]:
                uncached.setdefault(key, payload)
            elif key in uncached:
                self.out.check(payload == uncached[key],
                               f"cached {request.op} on session "
                               f"{request.session} differs from the "
                               f"uncached answer")

    def _check_fresh(self, server: Server,
                     final: Dict[int, Dict[str, float]]) -> None:
        """Each session's final analyze equals a fresh daemon's cold
        analyze of the same effective delays."""
        for s, (circuit, algebra, grid) in enumerate(self.size.sessions):
            warm = server.handle_text(json.dumps(
                {"v": 1, "op": "analyze", **self._base(s)}))
            edits = final.get(s, {})
            delays = {g.name: edits.get(g.name, DELAY.mu)
                      for g in self.netlists[circuit].combinational_gates}
            fresh = Server().handle_text(json.dumps(
                {"v": 1, "op": "analyze",
                 **_session_fields(circuit, algebra, grid),
                 "delay": {"kind": "frozen", "delays": delays,
                           "relative_sigma": EDIT_RELATIVE_SIGMA}}))
            same = (warm.get("ok") and fresh.get("ok")
                    and warm["result"]["endpoints"]
                    == fresh["result"]["endpoints"])
            self.out.check(bool(same), f"session {s} ({circuit}/{algebra}) "
                                       f"differs from a fresh daemon")


# -- scale -------------------------------------------------------------------


class Scale(Family):
    """Analyses that repeat structure: derate-corner batches through the
    compiled scenario program, and a tiled circuit whose identical tiles
    the hierarchical scheduler deduplicates and stores."""

    family = "scale"

    def __init__(self, circuits: Circuits, size: ScaleSize, seed: int,
                 home: bool, speed: Speed, workdir: Path) -> None:
        super().__init__(circuits, size, seed, home, speed)
        self.workdir = workdir
        self.tiled = circuits.tiled(size.tiled)
        self.grid_scenarios = scenarios_from_corners(
            derate_corners(0.8, 1.25, size.sweep_grid[1]), DELAY, CONFIG_I)
        self.moment_scenarios = scenarios_from_corners(
            derate_corners(0.8, 1.25, size.sweep_moment[1]), DELAY,
            CONFIG_I)
        self.sweeps: Dict[str, Any] = {}

    def _hier(self, store_dir: str) -> Any:
        return run_hier(
            self.tiled, CONFIG_I, DELAY,
            AlgebraSpec.grid(_time_grid(self.size.hier_bins)),
            n_regions=self.size.tiled.n_tiles,
            workers=self.size.hier_workers or os.cpu_count() or 1,
            store=InterfaceModelStore(store_dir))

    def round(self, index: int) -> None:
        circuit, _, bins = self.size.sweep_grid
        self.sweeps["grid"] = self.timed(
            "sweep_grid_s", lambda: run_scenario_batch(
                self.netlists[circuit], self.grid_scenarios,
                GridAlgebra(_time_grid(bins))))
        self.sweeps["moment"] = self.timed(
            "sweep_moment_s", lambda: run_scenario_batch(
                self.netlists[self.size.sweep_moment[0]],
                self.moment_scenarios, MomentAlgebra()))
        # Cold: an empty store.  Warm: a fresh store object over the
        # directory the cold run populated.
        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        try:
            cold = self.timed("hier_cold_s", lambda: self._hier(store_dir))
            warm = self.timed("hier_warm_s", lambda: self._hier(store_dir))
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        self.out.check(_rows_equal(cold.endpoint_rows(self.tiled),
                                   warm.endpoint_rows(self.tiled)),
                       "warm hier endpoint rows differ from the cold rows")

    def finish(self) -> Outcome:
        """Two seeded corners of each sweep against ``run_spsta`` on the
        same derated delays, at the batched-vs-fast conformance
        tolerance."""
        rng = child_rng(self.seed, 4)
        checks = (("grid", self.size.sweep_grid[0], self.grid_scenarios,
                   lambda: GridAlgebra(_time_grid(self.size.sweep_grid[2]))),
                  ("moment", self.size.sweep_moment[0],
                   self.moment_scenarios, MomentAlgebra))
        for algebra, circuit, scenarios, make in checks:
            policy = POLICIES[f"batched-vs-fast/{algebra}"]
            netlist = self.netlists[circuit]
            for index in rng.choice(len(scenarios), 2, replace=False):
                scenario = scenarios[int(index)]
                reference = run_spsta(netlist, scenario.stats,
                                      scenario.delay_model, make())
                worst = _worst_delta(netlist, self.sweeps[algebra][
                    int(index)], reference)
                self.out.check(
                    worst[0] <= policy.abs_probability
                    and worst[1] <= policy.abs_mean
                    and worst[2] <= policy.abs_std,
                    f"sweep {algebra} corner {scenario.name} differs from "
                    f"run_spsta by {worst}")
        return self.out


def _worst_delta(netlist: Netlist, a, b) -> Tuple[float, float, float]:
    """Largest |difference| of (P, mean, std) over every endpoint report;
    a transition present in one result but not the other counts as inf."""
    worst = [0.0, 0.0, 0.0]
    for net in netlist.endpoints:
        for direction in ("rise", "fall"):
            for i, (x, y) in enumerate(zip(a.report(net, direction),
                                           b.report(net, direction))):
                if math.isnan(x) and math.isnan(y):
                    continue
                delta = abs(x - y)
                worst[i] = max(worst[i],
                               math.inf if math.isnan(delta) else delta)
    return worst[0], worst[1], worst[2]


def _rows_equal(a: list, b: list) -> bool:
    """Exact equality of endpoint rows, with NaN equal to NaN."""
    return len(a) == len(b) and all(
        len(x) == len(y) and all(
            u == v or (isinstance(u, float) and isinstance(v, float)
                       and math.isnan(u) and math.isnan(v))
            for u, v in zip(x, y))
        for x, y in zip(a, b))


# -- the run -----------------------------------------------------------------


def build(circuits: Circuits, workload: str, seed: int, speed: Speed,
          workdir: Path) -> List[Family]:
    """The home family at full size first, then the other two probes."""
    families: List[Family] = []
    for name in [workload] + [f for f in FULL if f != workload]:
        home = name == workload
        size = (FULL if home else PROBE)[name]
        if name == "batch":
            families.append(Batch(circuits, size, seed, home, speed))
        elif name == "serve":
            families.append(Serve(circuits, size, seed, home, speed))
        else:
            families.append(Scale(circuits, size, seed, home, speed,
                                  workdir))
    return families


def run_rounds(families: List[Family], deadline: float) -> int:
    """Run rounds of every family until ``deadline``; returns how many.
    A round starts only if one more of the last round's length fits,
    unless a family still needs samples (serve's minimum request count);
    the first round always runs."""
    rounds = 0
    last = 0.0
    while True:
        start = time.perf_counter()
        if rounds and start + last > deadline \
                and all(f.satisfied() for f in families):
            return rounds
        for family in families:
            family.run_rounds()
        last = time.perf_counter() - start
        rounds += 1
