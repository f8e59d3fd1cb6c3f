#!/usr/bin/env python3
"""Run one linrec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload point --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; linrec is imported from ``src`` and
nothing is installed.  With ``--trace 0`` the run reports the end-to-end
metrics: set-up is sampled in ``SETUP_SAMPLES`` fresh worker processes and
the last of them goes on to run the workload.  With ``--trace 1`` one
worker runs a fixed number of operations with every layer wrapped and
reports per-layer counts and self times (see ``tracer.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the run context: workload property shares, the tail percentile and
its sample count, ``error_rate``, a fixed calibration loop's time and the
host's steal ticks over the run.  Neither the context nor ``error_rate``
is a metric: ``failed`` and ``attempted`` carry the error rate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

clock = time.monotonic


def calibration_ms() -> float:
    """Time of a fixed pure-Python loop; it changes only with the machine."""
    start = clock()
    x = 0
    for i in range(400_000):
        x = (x * 31 + i) % 1_000_003
    return (clock() - start) * 1000.0


def steal_ticks() -> int | None:
    """Host steal time in clock ticks, summed over CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def run_worker(args, *extra) -> tuple[float, dict]:
    """Start one worker; return its start time and its JSON result."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    started = clock()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker timed out after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return started, json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one linrec benchmark workload.")
    parser.add_argument("--workload", required=True, choices=("point", "box", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "linrec" / "__init__.py").is_file():
        print(f"error: no linrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    steal_before = steal_ticks()
    calibration = [calibration_ms()]
    context = {"workload": args.workload, "seed": args.seed, "loop": "closed", "clients": 1}
    if args.trace:
        _, result = run_worker(args)
        metrics = result["metrics"]
    else:
        setups = []
        for sample in range(SETUP_SAMPLES):
            extra = () if sample == SETUP_SAMPLES - 1 else ("--setup-only",)
            started, result = run_worker(args, *extra)
            setups.append(result["ready"] - started)
        found = result["metrics"]
        metrics = {name: found[name] for name in END_TO_END if name in found}
        metrics["setup_s"] = statistics.median(setups)
        context["setup_samples_s"] = setups
        for key in ("latency_tail_percentile", "latency_samples", "error_rate"):
            context[key] = found[key]
    calibration.append(calibration_ms())
    steal_after = steal_ticks()
    context.update(result.get("context", {}))
    context["calibration_ms"] = calibration
    context["steal_ticks"] = (
        None if steal_before is None or steal_after is None else steal_after - steal_before
    )

    units = {name: "count" for name in metrics}
    units.update(END_TO_END)
    units.update({name: "ms" for name in metrics if name.endswith("_ms")})
    if not args.trace:
        for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb"):
            print(f"{name:>16} {metrics[name]:14.4f} {units[name]}")
        print(f"{'error_rate':>16} {context['error_rate']:14.4f} ratio")
        print(
            f"  tail is p{context['latency_tail_percentile']:.2f} "
            f"of {context['latency_samples']} samples"
        )
    print(json.dumps(context, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
