"""Performance smoke tests (CI's ``perf-smoke`` job, ``-m perf_smoke``).

Kept deliberately coarse — CI runners are noisy, so thresholds are a
fraction of the locally measured margins (the real numbers live in
``benchmarks/results/spsta_speedup.txt``).  The whole module must finish
well under a minute.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.core.delay import NormalDelay
from repro.core.inputs import CONFIG_I
from repro.core.profiling import SpstaProfile
from repro.core.spsta import (
    GridAlgebra,
    MixtureAlgebra,
    MomentAlgebra,
    run_spsta,
)
from repro.netlist.benchmarks import benchmark_circuit
from repro.stats.grid import TimeGrid

pytestmark = pytest.mark.perf_smoke

GRID = TimeGrid(-8.0, 60.0, 2048)
DELAY = NormalDelay(1.0, 0.1)


def _seconds(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _quiet_seconds(fn):
    """``_seconds`` from a collected heap with the cyclic collector
    paused, as in ``timeit``: a full collection's cost grows with every
    object the rest of the test session keeps alive, and landing in one
    side's samples it swamps the gap being measured."""
    gc.collect()
    gc.disable()
    try:
        return _seconds(fn)
    finally:
        gc.enable()


def _timed(netlist, engine):
    profile = SpstaProfile()
    t0 = time.perf_counter()
    run_spsta(netlist, CONFIG_I, DELAY, GridAlgebra(GRID), engine=engine,
              profile=profile)
    return time.perf_counter() - t0, profile


def test_fast_grid_engine_beats_naive_on_s1196():
    """The headline claim at smoke scale: the compiled grid program
    clearly outruns the naive reference on a mid-size circuit.  The
    compiled run goes first so same-process memory pressure can only
    penalize the naive side — the asserted direction is unaffected.
    """
    netlist = benchmark_circuit("s1196")
    fast_seconds, profile = _timed(netlist, "fast")
    naive_seconds, _ = _timed(netlist, "naive")
    speedup = naive_seconds / fast_seconds
    assert speedup >= 1.5, (
        f"compiled grid program only {speedup:.2f}x faster than naive on "
        f"s1196 ({fast_seconds:.2f}s vs {naive_seconds:.2f}s)")
    assert fast_seconds < 30.0
    # The run must have actually gone through the optimized machinery.
    assert profile.fft_convolutions > 0
    assert profile.kernel_cache_hits > 0
    assert profile.weight_table_hits > 0


def test_fast_engine_matches_naive_with_populated_profile():
    """Smoke-scale equivalence: production ≡ naive (bit-exact moments) on
    a small bench, with the production profile's counters populated."""
    netlist = benchmark_circuit("s298")
    profile = SpstaProfile()
    fast = run_spsta(netlist, CONFIG_I, DELAY, engine="fast",
                     profile=profile)
    naive = run_spsta(netlist, CONFIG_I, DELAY, engine="naive")
    for net in naive.tops:
        for direction in ("rise", "fall"):
            a = getattr(fast.tops[net], direction)
            b = getattr(naive.tops[net], direction)
            assert a.weight == b.weight, (net, direction)
            if b.occurs:
                assert (fast.algebra.stats(a.conditional)
                        == naive.algebra.stats(b.conditional)), \
                    (net, direction)
    assert profile.gates_processed == len(list(netlist.combinational_gates))
    assert profile.subset_terms > 0
    assert sum(profile.phase_seconds.values()) > 0.0


def test_incremental_grid_build_runs_the_compiled_program():
    """A grid IncrementalSpsta session (the serve daemon's cold start)
    builds on the compiled program: no slower than 2x one ``run_spsta``
    grid pass on s1196 and faster than the naive per-gate reference, so
    a fallback to per-gate speed fails here.  Build and pass alternate
    and each keeps its best of three, so drift hits both sides."""
    from repro.core.incremental_spsta import IncrementalSpsta

    netlist = benchmark_circuit("s1196")
    grid = TimeGrid(-8.0, 60.0, 512)
    build = run = float("inf")
    for _ in range(3):
        build = min(build, _seconds(lambda: IncrementalSpsta(
            netlist, CONFIG_I, DELAY, GridAlgebra(grid))))
        run = min(run, _seconds(lambda: run_spsta(
            netlist, CONFIG_I, DELAY, GridAlgebra(grid))))
    naive = _seconds(lambda: run_spsta(netlist, CONFIG_I, DELAY,
                                       GridAlgebra(grid), engine="naive"))
    assert build <= 2.0 * run, (
        f"grid session build {build:.3f}s vs run_spsta {run:.3f}s")
    assert build < naive, (
        f"grid session build {build:.3f}s vs naive {naive:.3f}s")


def test_mixture_reducer_beats_the_rescan_oracle_on_s344():
    """The heap-ordered mixture reduction: an s344 mixture ``run_spsta``
    is at least 1.4x faster than the same algebra reducing with the
    O(n^2) rescan oracle (2.1x to 2.7x locally), so a quadratic reducer
    creeping back fails here.  The two sides alternate and each keeps
    its best of three."""
    from tests.test_stats_mixture import OracleMixtureAlgebra

    netlist = benchmark_circuit("s344")
    heap = rescan = float("inf")
    for _ in range(3):
        heap = min(heap, _seconds(lambda: run_spsta(
            netlist, CONFIG_I, DELAY, MixtureAlgebra())))
        rescan = min(rescan, _seconds(lambda: run_spsta(
            netlist, CONFIG_I, DELAY, OracleMixtureAlgebra())))
    assert rescan >= 1.4 * heap, (
        f"mixture run {heap:.3f}s vs rescan oracle {rescan:.3f}s "
        f"({rescan / heap:.2f}x)")


def test_closed_form_moment_sweep_beats_looped_on_s1196():
    """Term plans are built once per gate and statistics group, then
    replayed per scenario: an 8-corner s1196 moment sweep must be at
    least 1.3x faster than 8 ``run_spsta`` calls (about 1.5x on a
    2-CPU container; the two cost the same when every scenario rebuilds
    its terms).  After one untimed round the two sides alternate and
    each keeps its best of three ``_quiet_seconds`` samples."""
    from repro.core.scenario import (
        derate_corners,
        run_scenario_batch,
        run_scenarios_looped,
        scenarios_from_corners,
    )

    netlist = benchmark_circuit("s1196")
    scenarios = scenarios_from_corners(derate_corners(0.8, 1.25, 8), DELAY,
                                       CONFIG_I)
    # Fills the process-wide lattice and parity-table memos and warms
    # the allocator for both sides.
    run_scenario_batch(netlist, scenarios, MomentAlgebra())
    run_scenarios_looped(netlist, scenarios, MomentAlgebra)
    batched = looped = float("inf")
    for _ in range(3):
        batched = min(batched, _quiet_seconds(lambda: run_scenario_batch(
            netlist, scenarios, MomentAlgebra())))
        looped = min(looped, _quiet_seconds(lambda: run_scenarios_looped(
            netlist, scenarios, MomentAlgebra)))
    assert looped >= 1.3 * batched, (
        f"moment sweep {batched:.3f}s vs looped {looped:.3f}s "
        f"({looped / batched:.2f}x)")


def test_cone_move_pricing_beats_the_whole_netlist_oracle_on_s344(
        monkeypatch):
    """Greedy moves are priced by a variational pass over the worst
    endpoint's fan-in cone: the perfbench s344 yield optimize job (44
    greedy steps on cones of 5 to 42 of 160 gates, then 200 anneal
    proposals) must run at least 1.6x faster than with the
    whole-netlist oracle scorer (about 2.5x locally).  After one
    untimed round the two sides alternate and each keeps its best of
    three ``_quiet_seconds`` samples."""
    from repro.opt import optimize_spsta, spsta_opt
    from tests.test_spsta_opt import whole_netlist_score_candidates

    netlist = benchmark_circuit("s344")

    def job():
        optimize_spsta(netlist, 12.0, metric="yield", target_yield=1.0,
                       max_area=1000.0, anneal=True, anneal_moves=200,
                       stats=CONFIG_I, base_delay=DELAY.mu,
                       delay_sigma=DELAY.sigma)

    def oracle_job():
        with monkeypatch.context() as patch:
            patch.setattr(spsta_opt, "_score_candidates",
                          whole_netlist_score_candidates)
            job()

    job()
    oracle_job()
    cone = whole = float("inf")
    for _ in range(3):
        cone = min(cone, _quiet_seconds(job))
        whole = min(whole, _quiet_seconds(oracle_job))
    assert whole >= 1.6 * cone, (
        f"s344 optimize {cone:.3f}s vs whole-netlist oracle {whole:.3f}s "
        f"({whole / cone:.2f}x)")


def test_fast_moment_engine_is_quick_on_s9234():
    """The closed-form production path sweeps the largest bundled bench in
    well under a second locally; a generous lid catches gross
    regressions (accidental quadratic rescans, cache losses)."""
    netlist = benchmark_circuit("s9234")
    t0 = time.perf_counter()
    run_spsta(netlist, CONFIG_I, DELAY, engine="fast")
    assert time.perf_counter() - t0 < 10.0


def test_incremental_update_fast_on_deep_wide_cone():
    """The incremental worklist pops via a topological-rank heap; on a
    deep, wide fanout cone the old min-over-set scan cost O(cone x
    frontier).  Smoke bound: a ~1.8k-gate cone repairs in well under a
    second even on a noisy runner."""
    from repro.core.incremental import IncrementalSsta
    from repro.logic.gates import GateType
    from repro.netlist.core import Gate, Netlist
    from repro.stats.normal import Normal

    width, depth = 150, 60
    gates = [Gate(f"g0_{w}", GateType.AND,
                  (f"a{w % 4}", f"a{(w + 1) % 4}")) for w in range(width)]
    for level in range(1, depth):
        gates.extend(
            Gate(f"g{level}_{w}", GateType.AND,
                 (f"g{level - 1}_{w}", f"g{level - 1}_{(w + 1) % width}"))
            for w in range(width))
    netlist = Netlist("lattice", [f"a{i}" for i in range(4)],
                      [f"g{depth - 1}_{w}" for w in range(width)], gates)
    inc = IncrementalSsta(netlist)
    t0 = time.perf_counter()
    stats = inc.set_delay("g0_0", Normal(25.0, 2.0))
    seconds = time.perf_counter() - t0
    # The fanout wedge of g0_0 grows one column per level: a triangle.
    assert stats.cone_size == depth * (depth + 1) // 2
    assert stats.recomputed == stats.cone_size  # each gate exactly once
    assert seconds < 2.0, (
        f"incremental update took {seconds:.2f}s on a "
        f"{stats.cone_size}-gate cone")
    # Re-setting the same delay terminates at the unchanged source gate.
    again = inc.set_delay("g0_0", Normal(25.0, 2.0))
    assert again.recomputed == 1
