"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md): ``batch``, ``serve`` and ``scale``.
For ``--seconds`` a workload runs rounds of its own job family at full
size, each followed by a round of the other two families at probe size,
so every workload reports every metric.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when any output check fails.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
from pathlib import Path  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("batch", "serve", "scale")

#: End-to-end metrics and their units (BENCHMARK.json lists the same).
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "analyze_moment_s": "s", "analyze_grid_s": "s",
    "analyze_mixture_s": "s", "mc_validate_s": "s", "optimize_s": "s",
    "table2_err": "time_units",
    "serve_cold_s": "s", "serve_p50_ms": "ms", "serve_p99_ms": "ms",
    "serve_rps": "req/s",
    "sweep_grid_s": "s", "sweep_moment_s": "s",
    "hier_cold_s": "s", "hier_warm_s": "s",
}

#: Set-up runs per measurement (this process plus fresh interpreters).
SETUP_SAMPLES = 3


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=FAMILIES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up alone and print it (used to "
                             "sample set-up time in fresh processes)")
    return parser.parse_args(argv)


def set_up(workload: str, tracer: Tracer):
    """Imports plus every circuit parse or generation the run needs."""
    with tracer.job("setup", "setup", True):
        workloads = importlib.import_module("workloads")
        circuits = workloads.Circuits(tracer)
        for family in FAMILIES:
            sizes = workloads.FULL if family == workload \
                else workloads.PROBE
            for name in workloads.circuits_needed(family, sizes[family]):
                circuits.load(name)
        tiled = (workloads.FULL if workload == "scale"
                 else workloads.PROBE)["scale"].tiled
        circuits.tiled(tiled)
    return workloads, circuits


def sample_setup(args: argparse.Namespace) -> List[float]:
    """Set-up time of fresh interpreters running this script."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
            check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def environment(seed: int) -> Dict[str, object]:
    versions = {}
    for package in ("numpy", "scipy", "jsonschema"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), **versions,
            "git_sha": _git_sha(), "source_sha256": digest.hexdigest()}


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def end_to_end(outcomes, setup: List[float]) -> Dict[str, float]:
    metrics = {"setup_s": statistics.median(setup),
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for outcome in outcomes:
        for name, values in outcome.samples.items():
            metrics[name] = statistics.median(values)
    return metrics


def check_declared(metrics: Dict[str, Tuple[float, str]], key: str) -> None:
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    expected = {m["name"]: m["unit"] for m in declared}
    actual = {name: unit for name, (_, unit) in metrics.items()}
    if expected != actual:
        raise SystemExit(
            f"perfbench: metrics differ from BENCHMARK.json {key}: "
            f"missing {sorted(set(expected) - set(actual))}, "
            f"extra {sorted(set(actual) - set(expected))}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer(enabled=bool(args.trace))
    workloads, circuits = set_up(args.workload, tracer)
    elapsed = time.perf_counter() - T_START
    speed = importlib.import_module("speed").Speed()
    setup_seconds = speed.scale(elapsed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_seconds}))
        return 0
    setup = [setup_seconds] + sample_setup(args)

    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    families = workloads.build(circuits, args.workload, args.seed, speed,
                               workdir)
    if args.trace:
        layers = importlib.import_module("layers")
        layers.install(tracer, workloads)
    try:
        workloads.run_rounds(families, time.perf_counter() + args.seconds)
    finally:
        tracer.restore()
    if args.trace:
        # The first home round again, untraced and warm: the reference
        # trace.overhead_frac compares the traced jobs against.
        tracer.enabled = False
        families[0].round(0)
    outcomes = [family.finish() for family in families]
    failures = [failure for outcome in outcomes
                for failure in outcome.failures]
    attempted = sum(1 for job in tracer.jobs if job.family != "setup")

    if args.trace:
        serve = next(f for f in families if f.family == "serve")
        values = {"serve.cache_hit_ratio": serve.cache_hit_ratio,
                  "trace.overhead_frac": layers.overhead_frac(
                      tracer, args.workload)}
        metrics = layers.per_layer(tracer, values)
        check_declared(metrics, "per_layer")
        for family in FAMILIES:
            seconds, share = layers.unattributed(tracer, family)
            print(f"coverage {family}: {100 * share:.1f}% of job wall time "
                  f"under layer spans ({seconds:.4f} s/job outside)")
    else:
        metrics = {name: (value, END_TO_END[name]) for name, value
                   in end_to_end(outcomes, setup).items()}
        check_declared(metrics, "end_to_end")

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    env = environment(args.seed)
    print("environment " + json.dumps(env))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(str(workdir / f"{tag}.spans.jsonl"))
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (workdir / f"{tag}.json").write_text(json.dumps(
        {**result, "environment": env, "failures": failures,
         "setup_samples": setup,
         "samples": {name: values for outcome in outcomes
                     for name, values in outcome.samples.items()}},
        indent=2))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
