"""One benchmark process: set up a workload, run it closed-loop, check it.

Started by ``run.py``; prints one JSON line.  ``--setup-only`` stops at the
point where the first timed operation would start, so that ``run.py`` can
sample set-up time in several fresh processes.

The closed loop has one client and no threads: the next operation starts
when the previous one has returned.  Each result is checked against the
independent reference between operations, with the clock paused, so
checking costs no measured time.  If a fast program exhausts the prepared
operations, they are prepared again with the clock paused.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import gzip
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

clock = time.monotonic


class Context:
    """What a workload's ``prepare`` may use: the checkout root, a scratch
    directory inside it, and the tracer when the run is traced."""

    def __init__(self, scratch: Path | None = None, tracer=None):
        self.root = ROOT
        self.scratch = scratch
        self.tracer = tracer


def run_loop(wl, descs, ctx, *, seconds=None, count=None, corrupt=None):
    """Run prepared operations in order until ``seconds`` of measured time
    or ``count`` operations; return the run's tallies.

    ``corrupt(i, result)`` may replace a result before it is checked; the
    benchmark's tests use it to show that a wrong answer is counted."""
    return _loop(wl, descs, prepare_all(wl, descs, ctx), ctx, seconds, count, corrupt)


def prepare_all(wl, descs, ctx) -> list:
    """Prepare operations, then exempt everything alive from the cyclic
    collector, so that collections during the run scan only what the
    operations themselves allocate and not the benchmark's prepared pool."""
    thunks = [wl.prepare(d, ctx) for d in descs]
    gc.collect()
    gc.freeze()
    return thunks


def _loop(wl, descs, thunks, ctx, seconds, count, corrupt):
    latencies = []
    failed = 0
    failures = []
    shares = collections.Counter()
    paused = 0.0
    rebuilds = 0
    start = clock()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i and clock() - start - paused >= seconds:
            break
        slot = i % len(thunks)
        if i and slot == 0:
            t = clock()
            thunks = prepare_all(wl, descs, ctx)
            rebuilds += 1
            paused += clock() - t
        if ctx.tracer is not None:
            ctx.tracer.op = i
        thunk, thunks[slot] = thunks[slot], None  # free each object once used
        t0 = clock()
        try:
            result = thunk()
            ok = True
        except Exception as exc:  # an unexpected exception is a failed op
            result, ok = exc, False
        t1 = clock()
        latencies.append(t1 - t0)
        if ok:
            if corrupt is not None:
                result = corrupt(i, result)
            try:
                ok = wl.check(descs[slot], result)
            except Exception:
                ok = False
        props = wl.props(descs[slot])
        if not ok:
            failed += 1
            if len(failures) < 5:  # enough to reproduce: inputs follow from the seed
                failures.append({"op": i, "result": repr(result)[:200], **props})
        for key, value in props.items():
            shares[f"{key}={value}"] += 1
        paused += clock() - t1
        i += 1
    elapsed = clock() - start - paused
    return {
        "attempted": i,
        "failed": failed,
        "elapsed_s": elapsed,
        "latencies": latencies,
        "shares": {k: v / i for k, v in sorted(shares.items())},
        "rebuilds": rebuilds,
        "failures": failures,
    }


def tail(latencies):
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, samples)``."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(measured, peak_rss_mb: float) -> dict:
    value, pct, n = tail(measured["latencies"])
    return {
        "ops_per_s": measured["attempted"] / measured["elapsed_s"],
        "latency_p50_ms": statistics.median(measured["latencies"]) * 1000.0,
        "latency_tail_ms": value * 1000.0,
        "latency_tail_percentile": pct,
        "latency_samples": n,
        "error_rate": measured["failed"] / measured["attempted"],
        "peak_rss_mb": peak_rss_mb,
    }


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if getattr(wl, "WORK_IN_CHILDREN", False) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import linrec  # noqa: F401  (import time is part of set-up)
    from workloads import load

    wl = load(args.workload)
    with scratch_dir() as scratch:
        if args.trace:
            out = traced(wl, args, scratch)
        else:
            out = untraced(wl, args, scratch)
    print(json.dumps(out))
    return 0


@contextlib.contextmanager
def scratch_dir():
    """A private directory inside the checkout, removed afterwards."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)


def untraced(wl, args, scratch) -> dict:
    ctx = Context(scratch)
    descs = wl.generate(args.seed, max(1, round(wl.POOL_PER_SECOND * args.seconds)))
    thunks = prepare_all(wl, descs, ctx)
    ready = clock()
    if args.setup_only:
        return {"ready": ready}
    measured = _loop(wl, descs, thunks, ctx, args.seconds, None, None)
    return {
        "ready": ready,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": end_to_end(measured, peak_rss_mb(wl)),
        "context": {
            "shares": measured["shares"],
            "rebuilds": measured["rebuilds"],
            "measured_s": measured["elapsed_s"],
            "failures": measured["failures"],
        },
    }


def traced(wl, args, scratch) -> dict:
    """A fixed number of operations, first untraced and then traced on
    freshly prepared objects, so that counts repeat exactly for a seed and
    the ratio of the two rates is the tracing overhead."""
    from tracer import Tracer

    count = max(1, round(wl.TRACE_PER_SECOND * args.seconds))
    descs = wl.generate(args.seed, count)
    plain = run_loop(wl, descs, Context(scratch), count=count)
    tracer = Tracer()
    tracer.install()
    ctx = Context(scratch, tracer)
    traced_tally = run_loop(wl, descs, ctx, count=count)
    plain_rate = plain["attempted"] / plain["elapsed_s"]
    traced_rate = traced_tally["attempted"] / traced_tally["elapsed_s"]
    spans_file = _write_spans(args, tracer)
    return {
        "attempted": plain["attempted"] + traced_tally["attempted"],
        "failed": plain["failed"] + traced_tally["failed"],
        "metrics": tracer.metrics(),
        "context": {
            "operations": count,
            "untraced_ops_per_s": plain_rate,
            "traced_ops_per_s": traced_rate,
            "tracing_overhead": plain_rate / traced_rate,
            "shares": traced_tally["shares"],
            "failures": plain["failures"] + traced_tally["failures"],
            "spans": len(tracer.spans),
            "spans_file": str(spans_file.relative_to(ROOT)),
        },
    }


def _write_spans(args, tracer) -> Path:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["id", "parent", "role", "start_s", "end_s", "op"]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


if __name__ == "__main__":
    sys.exit(main())
