"""Benchmark F1: the compiled grid program vs the naive SPSTA sweep.

``run_spsta`` runs :class:`GridAlgebra` as a single scenario of the
compiled program (:mod:`repro.core.scenario`); ``engine="naive"`` is the
per-gate reference sweep.  Writes ``benchmarks/results/spsta_speedup.txt``
with per-circuit wall times, the asserted speedups, and the compiled
runs' profile blocks.

Each engine run executes in its own subprocess: back-to-back analyses in
one process share allocator/page-cache state, and the second run measures
visibly slower than the same run in a fresh process — cross-engine ratios
taken in-process are therefore biased.  Subprocess isolation gives each
engine the same cold-ish start.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import subprocess
import sys

from benchmarks.conftest import save_artifact

CIRCUITS = ("s1196", "s9234")
MIN_SPEEDUP = 3.0

_RUNNER = """
import json
import time

from repro.core.delay import NormalDelay
from repro.core.inputs import CONFIG_I
from repro.core.profiling import SpstaProfile
from repro.core.spsta import GridAlgebra, run_spsta
from repro.netlist.benchmarks import benchmark_circuit
from repro.stats.grid import TimeGrid

circuit, engine = {circuit!r}, {engine!r}
netlist = benchmark_circuit(circuit)
algebra = GridAlgebra(TimeGrid(-8.0, 60.0, 2048))
profile = SpstaProfile()
t0 = time.perf_counter()
run_spsta(netlist, CONFIG_I, NormalDelay(1.0, 0.1), algebra,
          engine=engine, profile=profile)
seconds = time.perf_counter() - t0
print(json.dumps({{"seconds": seconds,
                   "profile": profile.render(indent="  ")}}))
"""


def _run_isolated(circuit: str, engine: str) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH", "")) \
        + env.get("PYTHONPATH", "")
    script = _RUNNER.format(circuit=circuit, engine=engine)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_spsta_speedup_artifact(results_dir):
    lines = [
        "Compiled grid program (run_spsta) vs naive SPSTA grid sweep",
        "(GridAlgebra, TimeGrid(-8, 60, 2048), NormalDelay(1.0, 0.1), "
        "CONFIG I;",
        " one subprocess per engine run so allocator state from one run",
        " cannot skew the other)",
        "",
    ]
    speedups = {}
    profiles = []
    for circuit in CIRCUITS:
        fast = _run_isolated(circuit, "fast")
        naive = _run_isolated(circuit, "naive")
        speedup = naive["seconds"] / fast["seconds"]
        speedups[circuit] = speedup
        lines.append(f"{circuit:>7}:  naive {naive['seconds']:7.2f}s   "
                     f"compiled {fast['seconds']:7.2f}s   "
                     f"speedup {speedup:5.2f}x")
        profiles.append(fast["profile"])
    lines += ["", "Compiled-program profiles:"] + profiles
    save_artifact(results_dir, "spsta_speedup.txt", "\n".join(lines))
    assert speedups["s9234"] >= MIN_SPEEDUP, (
        f"s9234 grid speedup {speedups['s9234']:.2f}x below "
        f"{MIN_SPEEDUP:.0f}x")
