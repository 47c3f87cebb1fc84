"""Record sets of benchmark runs and compare two recorded sets.

    python3 perfbench/suite.py record --out perfbench/out/new.json [--runs 10]
    python3 perfbench/suite.py compare perfbench/baselines/BASE.json perfbench/out/new.json

``record`` runs ``perfbench/run.py`` once per seed for each workload,
serially, for ``run_seconds`` of ``BENCHMARK.json``, and stores every
run's metrics with its environment record.  ``compare`` refuses two sets
whose seeds or run lengths differ, so the runs pair up seed by seed on
the same inputs, and reports for each end-to-end metric on each
workload:

* ``worse`` -- the new median is worse than the base median by more
  than the metric's bound in ``BENCHMARK.json``;
* ``better`` -- the new median is better by more than the base runs'
  own spread, and the new run wins at least nine in ten seed-paired
  runs;
* ``unresolved`` -- the run-to-run spread (quartile distance over the
  median) of either side is wider than the bound, unless every new run
  is better than every base run;
* ``same`` -- otherwise.

Count metrics (unit ``count``: the circuit totals) are exact for a seed,
and their spread across seeds is instance variation, not noise.  They
are compared seed by seed instead: ``worse`` if any seed reads worse,
``better`` if none does and some seed reads better, else ``same``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One ``run.py`` invocation; returns its result and record lines."""
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall_s = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return {"seed": seed, "wall_s": wall_s, **json.loads(lines[-1]),
            "record": json.loads(lines[-2])["record"]}


def spread(values: list[float]) -> float:
    """Quartile distance over the median, as the acceptance check takes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else float("inf")


def record(args) -> int:
    benchmark = _benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in benchmark["workloads"]])
    seconds = benchmark["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    payload = {"benchmark": benchmark, "seconds": seconds, "seeds": seeds,
               "runs": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, seconds)
            runs.append(run)
            print(f"{workload} seed={seed} correct={run['correct']} "
                  f"failed={run['failed']}", file=sys.stderr)
        payload["runs"][workload] = runs
        _summary(workload, runs, benchmark)
    payload["environment"] = runs[0]["record"]["environment"]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


def _summary(workload: str, runs: list[dict], benchmark: dict) -> None:
    for metric in benchmark["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        median = statistics.median(values)
        share = spread(values) if len(values) > 1 else 0.0
        flag = " over a third of the bound" \
            if share > metric["bound"] / 3 else ""
        print(f"{workload:13s} {metric['name']:22s} median {median:12.4f} "
              f"{metric['unit']:6s} spread {share:7.3%} "
              f"(bound {metric['bound']:.1%}){flag}")


def verdict(base: list[float], new: list[float], bound: float,
            lower_is_better: bool, exact: bool = False) -> tuple[str, float]:
    """The comparison rule of the module docstring; returns the verdict
    and the signed relative change (positive = worse).  ``base`` and
    ``new`` are in seed order; ``exact`` selects the seed-by-seed rule
    of count metrics."""
    sign = 1.0 if lower_is_better else -1.0
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    change = (sign * (new_median - base_median) / abs(base_median)
              if base_median else 0.0)
    if exact:
        worse_seeds = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
        better_seeds = sum(1 for b, n in zip(base, new)
                           if sign * (n - b) < 0)
        if worse_seeds:
            return "worse", change
        return ("better" if better_seeds else "same"), change
    better_all = (max(new) < min(base) if lower_is_better
                  else min(new) > max(base))
    if max(spread(base), spread(new)) > bound and not better_all:
        return "unresolved", change
    if change > bound:
        return "worse", change
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) < 0)
    if -change > spread(base) and wins >= 0.9 * min(len(base), len(new)):
        return "better", change
    return "same", change


def compare(args) -> int:
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    benchmark = _benchmark()
    for key in ("seeds", "seconds"):
        if base[key] != new[key]:
            print(f"cannot compare: {key} differ ({base[key]} in "
                  f"{args.base}, {new[key]} in {args.new})", file=sys.stderr)
            return 2
    worse = 0
    for workload, new_runs in new["runs"].items():
        base_runs = base["runs"].get(workload)
        if base_runs is None:
            print(f"{workload}: not in the baseline")
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base_values = [r["metrics"][name]["value"] for r in base_runs]
            new_values = [r["metrics"][name]["value"] for r in new_runs]
            result, change = verdict(base_values, new_values,
                                     metric["bound"],
                                     metric["better"] == "lower",
                                     exact=metric["unit"] == "count")
            worse += result == "worse"
            print(f"{workload:13s} {name:22s} {result:10s} "
                  f"{-change:+8.2%} better  (base "
                  f"{statistics.median(base_values):.4g}, new "
                  f"{statistics.median(new_values):.4g} {metric['unit']})")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="run and store a set of runs")
    rec.add_argument("--out", required=True)
    rec.add_argument("--runs", type=int, default=10)
    rec.add_argument("--first-seed", type=int, default=1)
    rec.add_argument("--workloads", default=None,
                     help="comma-separated (default: all)")
    cmp_ = commands.add_parser("compare", help="compare two recorded sets")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    args = parser.parse_args(argv)
    return record(args) if args.command == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
