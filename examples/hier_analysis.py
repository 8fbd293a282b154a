#!/usr/bin/env python3
"""Hierarchical partition-parallel analysis: regions, caching, resume.

Partitions a circuit at its register boundaries, analyzes the regions
on the resilient worker pool, and stitches the per-region interface
models back into an ordinary whole-design result
(docs/performance.md, "Hierarchical partition-parallel analysis").
Shows the bit-exact match against the flat engine, interface-model
reuse across runs via the on-disk store, deadline-bounded partial runs
that resume from the store, and the replicated-tile dedup that carries
the 10^6-gate benchmark.

Run:  python examples/hier_analysis.py
"""

import tempfile
import time

from repro import benchmark_circuit, critical_endpoint
from repro.core.inputs import CONFIG_I
from repro.core.spsta import run_spsta
from repro.hier import AlgebraSpec, InterfaceModelStore, run_hier
from repro.netlist.generator import TiledProfile, generate_tiled_circuit


def main() -> None:
    netlist = benchmark_circuit("s1238")
    endpoint, depth = critical_endpoint(netlist)
    print(f"Loaded {netlist!r}; critical endpoint {endpoint} "
          f"(depth {depth})\n")

    # 1. Partition into four regions and analyze.  s1238's combinational
    #    logic is one monolithic blob, so the partitioner falls back to
    #    level-band cuts: a chained region DAG, scheduled in waves.
    run = run_hier(netlist, CONFIG_I, n_regions=4, keep="all")
    print(run.partition.summary())
    for report in run.reports:
        print(f"  {report.format()}")

    # 2. The stitched result is an ordinary SpstaResult, and for the
    #    closed-form algebras it matches the flat engine bit-exactly:
    #    every region rerun is the unmodified run_spsta seeded with
    #    the exact upstream boundary TOPs.
    flat = run_spsta(netlist, CONFIG_I)
    p_h, mu_h, sd_h = run.result.report(endpoint, "rise")
    p_f, mu_f, sd_f = flat.report(endpoint, "rise")
    assert (p_h, mu_h, sd_h) == (p_f, mu_f, sd_f)
    print(f"\n{endpoint} rise: P={p_h:.4f} arrival ~ ({mu_h:.3f}, "
          f"{sd_h:.3f})  [identical flat vs hierarchical]\n")

    # 3. Interface models persist: a store-backed rerun recomputes
    #    nothing — and because cache hits need no dispatch, even a
    #    zero-second deadline completes against a populated store.
    #    That is the resume loop: a run cut by a deadline persists what
    #    it finished, and the follow-up call computes only the rest.
    with tempfile.TemporaryDirectory() as tmp:
        store = InterfaceModelStore(tmp)
        run_hier(netlist, CONFIG_I, n_regions=4, store=store)
        warm = run_hier(netlist, CONFIG_I, n_regions=4,
                        store=InterfaceModelStore(tmp))
        print(f"Store-backed rerun: {warm.cache_hits} cache hits, "
              f"{warm.cache_misses} misses")

        cut = run_hier(netlist, CONFIG_I, n_regions=4,
                       store=InterfaceModelStore(tmp), deadline=0.0)
        print(f"deadline=0 against the warm store: "
              f"complete={cut.complete} "
              f"(all {cut.cache_hits} regions served from cache)")

    # 4. Replicated structures are analyzed once.  Sixteen tiles with
    #    only two distinct structures: two analyses, fourteen interface
    #    models translated to the clones' net names.  This dedup is what
    #    lets the 10^6-gate benchmark (benchmarks/test_bench_hier.py)
    #    finish in seconds-per-region under a 2 GiB budget.
    profile = TiledProfile(name="tiles", n_tiles=16, gates_per_tile=600,
                           tile_variants=2, seed=0)
    tiled = generate_tiled_circuit(profile)
    t0 = time.perf_counter()
    scale = run_hier(tiled, CONFIG_I, algebra_spec=AlgebraSpec.moment(),
                     n_regions=16, keep="interface")
    seconds = time.perf_counter() - t0
    computed = sum(1 for r in scale.reports if r.source == "computed")
    print(f"\n{len(tiled.gates)} gates in 16 tiles: {computed} regions "
          f"computed, {scale.dedup_hits} deduplicated, "
          f"{seconds * 1e3:.0f} ms total")

    print("\nSame analyses from the shell:")
    print("  spsta hier s1238 --partitions 4 --compare-flat")
    print("  spsta hier s1238 --partitions 4 --cache im-cache")
    print("  spsta analyze s1238 --partition 4 --trials 0")


if __name__ == "__main__":
    main()
