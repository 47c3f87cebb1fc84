"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  The line before it is a ``{"record": ...}``
object with the environment and the details behind the metrics.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Thread-count variables of the BLAS/OpenMP runtimes numpy may load.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "1/s",
    "success_frac": "frac",
    "peak_rss_mb": "MiB",
    "swaps_total": "count",
    "two_qubit_gates_total": "count",
    "two_qubit_depth_total": "count",
}

PER_LAYER = {
    "pipeline.request_ms": "ms",
    "pipeline.glue_ms": "ms",
    "hamiltonians.build_ms": "ms",
    "cache.key_ms": "ms",
    "cache.load_ms": "ms",
    "cache.store_ms": "ms",
    "cache.lookups": "1/req",
    "cache.hit_frac": "frac",
    "unify.ms": "ms",
    "mapping.ms": "ms",
    "mapping.calls": "1/req",
    "mapping.iterations": "count",
    "mapping.qap_build_ms": "ms",
    "routing.ms": "ms",
    "scheduling.ms": "ms",
    "bind.ms": "ms",
    "decompose.ms": "ms",
    "decompose.memo_hit_frac": "frac",
    "synthesis.ms": "ms",
    "synthesis.matrices": "1/req",
    "service.queue_wait_ms": "ms",
    "service.exec_ms": "ms",
    "service.coalesced_frac": "frac",
    "service.rejected": "count",
    "service.http_ms": "ms",
    "batch.compute_ms": "ms",
    "batch.pool_idle_frac": "frac",
    "trace.overhead_ms": "ms",
}


def _pin_environment() -> bool:
    """Production settings; returns whether REPRO_CACHE_STRICT was set."""
    for name in BLAS_VARS:
        os.environ[name] = "1"
    return os.environ.pop("REPRO_CACHE_STRICT", None) is not None


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain"], capture_output=True,
                                text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(status.strip())}


def environment(seed: int, strict_was_set: bool) -> dict:
    import numpy
    import scipy

    return {
        **_git(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "blas_threads": {name: os.environ[name] for name in BLAS_VARS},
        "repro_cache_strict": "unset",
        "repro_cache_strict_was_set_by_caller": strict_was_set,
    }


def _percentile(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def block_throughput(samples, block: int, scaled: bool = True) -> float:
    """Median over consecutive blocks of ``block`` samples (in end order)
    of successful requests per second; the whole phase if it holds less
    than one block.  A block's seconds are those in which a request was
    in flight, so the probes between slices of load are not counted;
    ``scaled`` counts them at reference speed (each sample's factor)."""
    ordered = sorted(samples, key=lambda sample: sample.ended)
    # merge overlapping calls; calls that overlap share a slice of load,
    # so a merged interval has one factor
    merged: list[list[float]] = []
    for sample in sorted(ordered, key=lambda sample: sample.began):
        if merged and sample.began <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], sample.ended)
        else:
            merged.append([sample.began, sample.ended,
                           sample.factor if scaled else 1.0])

    def busy(start: float, end: float) -> float:
        return sum(factor * max(0.0, min(ended, end) - max(began, start))
                   for began, ended, factor in merged)

    start = merged[0][0]
    if len(ordered) < block:
        return sum(s.ok for s in ordered) / busy(start, ordered[-1].ended)
    rates = []
    for first in range(0, len(ordered) - block + 1, block):
        chunk = ordered[first:first + block]
        rates.append(sum(s.ok for s in chunk)
                     / busy(start, chunk[-1].ended))
        start = chunk[-1].ended
    return statistics.median(rates)


def end_to_end(workload: str, outcome) -> tuple[dict, dict]:
    """The end-to-end metrics.  Times are reported at the reference
    host's speed (see ``perfbench/speed.py``): each request's measured
    time is multiplied by the factor of its slice of load, and set-up
    times by the factor of all the run's probes."""
    from perfbench.workloads import TAIL_PERCENTILE

    speed = outcome.probe.factor()
    measured = [sample.latency_s for sample in outcome.samples]
    latencies = [sample.factor * sample.latency_s
                 for sample in outcome.samples]
    tail = TAIL_PERCENTILE[workload]
    failed = outcome.errors + outcome.wrong
    totals = {
        "swaps_total": sum(r["n_swaps"] for r in outcome.quality),
        "two_qubit_gates_total": sum(r["n_two_qubit_gates"]
                                     for r in outcome.quality),
        "two_qubit_depth_total": sum(r["two_qubit_depth"]
                                     for r in outcome.quality),
    }
    metrics = {
        "setup_s": speed * statistics.median(outcome.setup_s),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * _percentile(latencies, tail),
        "throughput_rps": block_throughput(outcome.samples, outcome.block),
        "success_frac": 1.0 - failed / max(1, outcome.attempted),
        "peak_rss_mb": outcome.peak_rss_mb,
        **totals,
    }
    beyond = sum(1 for value in latencies
                 if value > _percentile(latencies, tail))
    details = {
        "speed_factor": speed,
        "probe_mean_s": (statistics.fmean(outcome.probe.durations)
                         if outcome.probe.durations else None),
        "measured": {
            "setup_s": statistics.median(outcome.setup_s),
            "latency_p50_ms": 1000.0 * statistics.median(measured),
            "latency_tail_ms": 1000.0 * _percentile(measured, tail),
            "throughput_rps": block_throughput(outcome.samples,
                                               outcome.block, scaled=False),
        },
        "samples": len(latencies),
        "throughput_block": outcome.block,
        "tail_percentile": tail,
        "tail_samples_beyond": beyond,
        "setup_runs_s": outcome.setup_s,
        "quality_requests": len(outcome.quality),
    }
    if beyond < 10:
        print(f"perfbench: only {beyond} samples beyond p{tail:g}; run "
              f"longer for a supported tail", file=sys.stderr)
    return metrics, details


def per_layer(outcome) -> tuple[dict, dict]:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(outcome.layers)
    if outcome.samples and outcome.traced:
        metrics["trace.overhead_ms"] = 1000.0 * (
            statistics.median(s.latency_s for s in outcome.traced)
            - statistics.median(s.latency_s for s in outcome.samples))
    unobserved = sorted(set(PER_LAYER) - set(outcome.layers)
                        - {"trace.overhead_ms"})
    return metrics, {"unobserved": unobserved}


def result_line(outcome, metrics: dict, units: dict) -> dict:
    """The last line of output.  A request that raised or was refused
    fails the run as a wrong answer does: it also drops out of the
    latencies and circuit totals, which would read as a gain."""
    failed = outcome.errors + outcome.wrong
    return {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-compile", "warm-rebind", "serve-http",
                                 "batch-fanout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small problem sizes (the benchmark's tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    strict_was_set = _pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # a SIGTERM unwinds through the runners' finally blocks, which stop
    # the servers and pools they started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from perfbench import workloads

    profile = workloads.TINY if args.tiny else workloads.FULL
    outcome = workloads.RUNNERS[args.workload](
        ROOT, profile, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics, details = per_layer(outcome)
        units = PER_LAYER
        if outcome.tracer is not None:
            spans = (ROOT / "perfbench" / "out"
                     / f"spans-{args.workload}-seed{args.seed}.jsonl")
            outcome.tracer.dump(spans)
            details["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics, details = end_to_end(args.workload, outcome)
        units = END_TO_END
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(args.seed, strict_was_set),
        "attempted": outcome.attempted,
        "errors": outcome.errors,
        "wrong": outcome.wrong,
        "problems": outcome.problems,
        **details,
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result_line(outcome, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
