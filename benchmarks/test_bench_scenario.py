"""Benchmark F2: scenario-batched sweep vs looped run_spsta.

Writes ``benchmarks/results/BENCH_scenario_sweep.json`` — the
benchmark-trajectory artifact: a 64-corner derate sweep of s1196 at
several grid resolutions, batched (`run_scenario_batch`) against the
pre-batching loop (`run_scenarios_looped`), with the per-grid wall
times and speedups.  The payload is validated against
``repro.experiments.bench_schema`` before it hits disk.

Measurement protocol matches ``test_bench_spsta_speedup.py``: every
(backend, grid) sample runs in a fresh subprocess so allocator and
page-cache state from one run cannot skew another, and each cell takes
the median of ``REPEATS`` samples.  The headline grid is the coarsest
one — that is the regime where the loop is dominated by per-scenario
Python overhead, which is exactly what batching amortises; at finer
grids the FLOPs are irreducible and the ratio honestly shrinks, which
is why the artifact records the whole trajectory instead of one number.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import statistics
import subprocess
import sys

from benchmarks.conftest import save_artifact
from repro.experiments.bench_schema import (
    SCENARIO_SWEEP_VERSION,
    validate_scenario_sweep,
)

CIRCUIT = "s1196"
N_SCENARIOS = 64
GRID_START, GRID_STOP = -8.0, 45.0
GRID_SIZES = (32, 48, 128)
HEADLINE_GRID = GRID_SIZES[0]
REPEATS = 3
MIN_SPEEDUP = 5.0  # defensive floor; the artifact records the real ratio

_RUNNER = """
import json
import time

from repro.core.scenario import (
    derate_corners, run_scenario_batch, run_scenarios_looped,
    scenarios_from_corners,
)
from repro.core.spsta import GridAlgebra
from repro.netlist.benchmarks import benchmark_circuit
from repro.stats.grid import TimeGrid

circuit, mode, grid_n = {circuit!r}, {mode!r}, {grid_n!r}
netlist = benchmark_circuit(circuit)
scenarios = scenarios_from_corners(
    derate_corners(0.8, 1.25, {n_scenarios!r}))
grid = TimeGrid({start!r}, {stop!r}, grid_n)
t0 = time.perf_counter()
if mode == "batched":
    run_scenario_batch(netlist, scenarios, GridAlgebra(grid),
                       keep="endpoints")
else:
    run_scenarios_looped(netlist, scenarios, lambda: GridAlgebra(grid))
seconds = time.perf_counter() - t0
print(json.dumps({{"seconds": seconds}}))
"""


def _run_isolated(mode: str, grid_n: int) -> float:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH", "")) \
        + env.get("PYTHONPATH", "")
    script = _RUNNER.format(circuit=CIRCUIT, mode=mode, grid_n=grid_n,
                            n_scenarios=N_SCENARIOS, start=GRID_START,
                            stop=GRID_STOP)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return float(json.loads(out.stdout.splitlines()[-1])["seconds"])


def _median_seconds(mode: str, grid_n: int) -> float:
    return statistics.median(_run_isolated(mode, grid_n)
                             for _ in range(REPEATS))


def test_scenario_sweep_trajectory_artifact(results_dir):
    trajectory = []
    for grid_n in GRID_SIZES:
        batched = _median_seconds("batched", grid_n)
        looped = _median_seconds("looped", grid_n)
        trajectory.append({
            "grid": {"start": GRID_START, "stop": GRID_STOP, "n": grid_n},
            "batched_seconds": batched,
            "looped_seconds": looped,
            "speedup": looped / batched,
        })
    headline = trajectory[0]
    payload = {
        "report": "spsta-scenario-sweep",
        "version": SCENARIO_SWEEP_VERSION,
        "circuit": CIRCUIT,
        "n_scenarios": N_SCENARIOS,
        "algebra": "grid",
        "repeats": REPEATS,
        "headline": {"grid_n": HEADLINE_GRID,
                     "speedup": headline["speedup"]},
        "trajectory": trajectory,
    }
    validate_scenario_sweep(payload)
    save_artifact(results_dir, "BENCH_scenario_sweep.json",
                  json.dumps(payload, indent=2))
    assert headline["speedup"] >= MIN_SPEEDUP, (
        f"64-corner {CIRCUIT} sweep at n={HEADLINE_GRID}: batched only "
        f"{headline['speedup']:.2f}x over the looped run_spsta "
        f"(floor {MIN_SPEEDUP:.0f}x)")
