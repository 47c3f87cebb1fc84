"""Command-line interface: compile a benchmark and print the metrics.

Examples::

    python -m repro --benchmark NNN_Heisenberg --qubits 10 \
        --device montreal --gateset CNOT
    python -m repro --benchmark QAOA-REG-3 --qubits 12 --device sycamore \
        --gateset SYC --compare
    python -m repro compile --compiler tket --benchmark NNN_Ising \
        --qubits 8 --device aspen
    python -m repro compile --list-compilers
    python -m repro sweep --benchmark NNN_Ising --device aspen \
        --gateset CNOT --sizes 6,8,10 --jobs 4 --store results/store
    python -m repro batch --requests requests.json --jobs 4 \
        --cache results/cache --json
    python -m repro serve --port 8000 --jobs 2 --cache results/cache
    python -m repro lint --json --select RPR001,RPR004
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro.analysis.harness import (
    SweepConfig,
    build_step,
    build_symbolic_step,
    format_cache_stats,
    format_pass_timings,
    format_rows,
)
from repro.core.registry import (
    compiler_names,
    compiler_specs,
    get_compiler,
    resolve_spec,
)
from repro.devices.library import all_to_all, by_name

BENCHMARKS = ["NNN_Heisenberg", "NNN_XY", "NNN_Ising", "QAOA-REG-3",
              "QAOA-WR-3", "QAOA-ER"]
DEVICES = ["montreal", "sycamore", "aspen", "manhattan", "all-to-all"]
GATESETS = ["CNOT", "CZ", "SYC", "ISWAP"]
SWEEP_COMPILERS = list(compiler_names())
COMPILER_CHOICES = sorted(
    {name for spec in compiler_specs() for name in (spec.name, *spec.aliases)}
)
SWEEP_METRICS = ["n_swaps", "n_dressed", "n_two_qubit_gates",
                 "two_qubit_depth", "total_depth", "seconds"]


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="2QAN reproduction: compile 2-local Hamiltonian "
                    "simulation benchmarks onto NISQ devices",
        epilog="subcommands: 'repro compile ...' compiles one benchmark "
               "with any registered compiler; 'repro bind ...' compiles "
               "a benchmark's structure once and binds angle sets at "
               "request speed; 'repro sweep ...' runs a parallel, "
               "resumable (sizes x instances x compilers) sweep; 'repro "
               "batch ...' serves a JSON file of compile requests "
               "through the content-addressed cache; 'repro serve ...' "
               "runs the HTTP compile server; 'repro lint ...' runs "
               "the static contract checkers; see 'repro compile "
               "--help' / 'repro bind --help' / 'repro sweep --help' / "
               "'repro batch --help' / 'repro serve --help' / 'repro "
               "lint --help'",
    )
    parser.add_argument("--benchmark", default="NNN_Heisenberg",
                        choices=BENCHMARKS,
                        help="benchmark family")
    parser.add_argument("--qubits", type=int, default=10,
                        help="problem size")
    parser.add_argument("--device", default="montreal",
                        choices=DEVICES,
                        help="target device")
    parser.add_argument("--gateset", default="CNOT",
                        choices=GATESETS,
                        help="hardware two-qubit basis")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mapping-trials", type=int, default=5,
                        help="Tabu restarts (paper uses 5)")
    parser.add_argument("--mapping-jobs", type=int, default=1,
                        help="processes for the mapping trials "
                             "(identical result, less wall time)")
    parser.add_argument("--compare", action="store_true",
                        help="also run the baseline compilers")
    return parser


def _csv(text: str) -> list[str]:
    return [item for item in (p.strip() for p in text.split(",")) if item]


def _parse_binding(text: str) -> dict[str, float]:
    """Parse ``gamma=0.4,beta=1.1`` into an angle binding."""
    binding: dict[str, float] = {}
    for part in _csv(text):
        name, sep, value = part.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(
                f"bad binding {part!r}; expected name=value"
            )
        try:
            binding[name] = float(value)
        except ValueError:
            raise ValueError(
                f"bad binding value in {part!r}; expected a number"
            ) from None
    if not binding:
        raise ValueError("empty binding; expected name=value[,name=value]")
    return binding


def _resolve_device(name: str, max_qubits: int):
    """Build the target device, or None (with a message) if too small.

    ``all-to-all`` is sized to ``max_qubits``; note that for stored
    sweeps the device (including its size) is part of the store key, so
    growing an all-to-all sweep's size grid starts a fresh store file.
    """
    device = all_to_all(max_qubits) if name == "all-to-all" else by_name(name)
    if max_qubits > device.n_qubits:
        print(f"error: {max_qubits} qubits exceed {device.name}",
              file=sys.stderr)
        return None
    return device


# ----------------------------------------------------------------------
# repro compile
# ----------------------------------------------------------------------
def make_compile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro compile",
        description="Compile one benchmark instance with any compiler "
                    "from the registry and print metrics + pass timings",
    )
    parser.add_argument("--compiler", default="2qan",
                        choices=COMPILER_CHOICES,
                        help="registry name (or alias) of the compiler")
    parser.add_argument("--benchmark", default="NNN_Heisenberg",
                        choices=BENCHMARKS, help="benchmark family")
    parser.add_argument("--qubits", type=int, default=10,
                        help="problem size")
    parser.add_argument("--device", default="montreal", choices=DEVICES,
                        help="target device")
    parser.add_argument("--gateset", default="CNOT", choices=GATESETS,
                        help="hardware two-qubit basis")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bind", default=None, metavar="NAME=VAL[,...]",
                        help="compile the benchmark's symbolic form and "
                             "bind these angles (e.g. gamma=0.4,beta=1.1); "
                             "bit-identical to compiling the concrete "
                             "circuit")
    parser.add_argument("--json", action="store_true",
                        help="emit metrics/timings as JSON")
    parser.add_argument("--list-compilers", action="store_true",
                        help="list registered compilers and exit")
    return parser


def _print_compiler_list() -> None:
    print("registered compilers:")
    for spec in compiler_specs():
        alias = (f" (aliases: {', '.join(spec.aliases)})"
                 if spec.aliases else "")
        print(f"  {spec.name:14s} {spec.summary}{alias}")


def compile_main(argv: list[str]) -> int:
    args = make_compile_parser().parse_args(argv)
    if args.list_compilers:
        _print_compiler_list()
        return 0
    spec = resolve_spec(args.compiler)
    if spec.requires_device:
        device = _resolve_device(args.device, args.qubits)
        if device is None:
            return 1
    else:
        # NoMap/Paulihedral compile on all-to-all connectivity whatever
        # device is named; size the label accordingly instead of
        # rejecting problems larger than the named device.
        device = all_to_all(args.qubits)
    gateset = args.gateset if spec.uses_gateset else None
    binding = None
    if args.bind is not None:
        try:
            binding = _parse_binding(args.bind)
        except ValueError as exc:
            print(f"error: bad --bind: {exc}", file=sys.stderr)
            return 1
        step = build_symbolic_step(args.benchmark, args.qubits, args.seed)
    else:
        step = build_step(args.benchmark, args.qubits, args.seed)
    compiler = get_compiler(args.compiler, device=device,
                            gateset=args.gateset, seed=args.seed)
    from repro.synthesis.templates import DEFAULT_TEMPLATES

    tpl_hits_before = DEFAULT_TEMPLATES.hits
    tpl_misses_before = DEFAULT_TEMPLATES.misses
    try:
        result = compiler.compile(step, binding=binding)
    except ValueError as exc:
        # e.g. ic_qaoa on a benchmark without mutually commuting layers,
        # or a --bind that misses a parameter the benchmark carries
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cache_stats = {
        "decompose_hits": compiler.cache.hits,
        "decompose_misses": compiler.cache.misses,
        "template_hits": DEFAULT_TEMPLATES.hits - tpl_hits_before,
        "template_misses": DEFAULT_TEMPLATES.misses - tpl_misses_before,
    }
    metrics = result.metrics
    if args.json:
        payload = {
            "compiler": args.compiler,
            "benchmark": args.benchmark,
            "n_qubits": args.qubits,
            "device": device.name,
            "gateset": gateset,
            "seed": args.seed,
            **({"parameters": binding} if binding else {}),
            "n_swaps": metrics.n_swaps,
            "n_dressed": metrics.n_dressed,
            "n_two_qubit_gates": metrics.n_two_qubit_gates,
            "two_qubit_depth": metrics.two_qubit_depth,
            "total_depth": metrics.total_depth,
            "qap_cost": (None if math.isnan(result.qap_cost)
                         else result.qap_cost),
            "timings": result.timings,
            "cache_stats": cache_stats,
        }
        print(json.dumps(payload, indent=2))
        return 0
    basis = (f"{gateset} basis" if gateset is not None
             else "idealised CNOT cost model")
    print(f"{args.benchmark} n={args.qubits} on {device.name} ({basis})")
    if binding:
        print("  bound: " + ", ".join(f"{name}={value:g}"
                                      for name, value in binding.items()))
    print(f"  {args.compiler}: swaps={metrics.n_swaps} "
          f"dressed={metrics.n_dressed} "
          f"2q-gates={metrics.n_two_qubit_gates} "
          f"2q-depth={metrics.two_qubit_depth} "
          f"depth={metrics.total_depth}")
    if not math.isnan(result.qap_cost):
        print(f"  qap-cost={result.qap_cost:.0f}")
    print("  pass timings: " + ", ".join(
        f"{name}={seconds * 1000:.0f}ms"
        for name, seconds in result.timings.items()))
    return 0


# ----------------------------------------------------------------------
# repro bind
# ----------------------------------------------------------------------
def make_bind_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bind",
        description="Compile a benchmark's structure once, then bind one "
                    "or more angle sets at request speed; every bound "
                    "circuit is bit-identical to a from-scratch compile "
                    "of the concrete benchmark",
    )
    parser.add_argument("--compiler", default="2qan",
                        choices=COMPILER_CHOICES,
                        help="registry name (or alias) of the compiler")
    parser.add_argument("--benchmark", default="QAOA-REG-3",
                        choices=BENCHMARKS, help="benchmark family")
    parser.add_argument("--qubits", type=int, default=10,
                        help="problem size")
    parser.add_argument("--device", default="montreal", choices=DEVICES,
                        help="target device")
    parser.add_argument("--gateset", default="CNOT", choices=GATESETS,
                        help="hardware two-qubit basis")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bind", action="append", required=True,
                        metavar="NAME=VAL[,...]",
                        help="one angle set, e.g. gamma=0.4,beta=1.1; "
                             "repeat the flag for several sets")
    parser.add_argument("--json", action="store_true",
                        help="emit per-binding metrics as JSON")
    return parser


def bind_main(argv: list[str]) -> int:
    import time

    from repro.core.bind import compile_structural

    args = make_bind_parser().parse_args(argv)
    try:
        bindings = [_parse_binding(text) for text in args.bind]
    except ValueError as exc:
        print(f"error: bad --bind: {exc}", file=sys.stderr)
        return 1
    spec = resolve_spec(args.compiler)
    if spec.requires_device:
        device = _resolve_device(args.device, args.qubits)
        if device is None:
            return 1
    else:
        device = all_to_all(args.qubits)
    gateset = args.gateset if spec.uses_gateset else None
    step = build_symbolic_step(args.benchmark, args.qubits, args.seed)
    compiler = get_compiler(args.compiler, device=device,
                            gateset=args.gateset, seed=args.seed)
    start = time.perf_counter()
    try:
        structural = compile_structural(compiler, step)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    structural_seconds = time.perf_counter() - start

    payloads = []
    lines = []
    for binding in bindings:
        start = time.perf_counter()
        try:
            result = structural.bind(binding)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        seconds = time.perf_counter() - start
        metrics = result.metrics
        bound = ", ".join(f"{name}={value:g}"
                          for name, value in binding.items())
        lines.append(f"  bind {bound}: swaps={metrics.n_swaps} "
                     f"dressed={metrics.n_dressed} "
                     f"2q-gates={metrics.n_two_qubit_gates} "
                     f"2q-depth={metrics.two_qubit_depth} "
                     f"depth={metrics.total_depth} "
                     f"({seconds * 1000:.0f}ms)")
        payloads.append({
            "parameters": binding,
            "n_swaps": metrics.n_swaps,
            "n_dressed": metrics.n_dressed,
            "n_two_qubit_gates": metrics.n_two_qubit_gates,
            "two_qubit_depth": metrics.two_qubit_depth,
            "total_depth": metrics.total_depth,
            "qap_cost": (None if math.isnan(result.qap_cost)
                         else result.qap_cost),
            "seconds": seconds,
        })
    if args.json:
        print(json.dumps({
            "compiler": args.compiler,
            "benchmark": args.benchmark,
            "n_qubits": args.qubits,
            "device": device.name,
            "gateset": gateset,
            "seed": args.seed,
            "structural_passes": list(structural.prefix_names),
            "structural_seconds": structural_seconds,
            "bindings": payloads,
        }, indent=2))
        return 0
    basis = (f"{gateset} basis" if gateset is not None
             else "idealised CNOT cost model")
    print(f"{args.benchmark} n={args.qubits} on {device.name} ({basis})")
    print(f"  structural: {'+'.join(structural.prefix_names)} "
          f"({structural_seconds * 1000:.0f}ms, parameters: "
          f"{', '.join(sorted(structural.parameters)) or 'none'})")
    for line in lines:
        print(line)
    return 0


# ----------------------------------------------------------------------
# repro sweep
# ----------------------------------------------------------------------
def make_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Run a (sizes x instances x compilers) sweep on the "
                    "parallel engine with an optional persistent store",
    )
    parser.add_argument("--benchmark", default="NNN_Heisenberg",
                        choices=BENCHMARKS, help="benchmark family")
    parser.add_argument("--device", default="montreal", choices=DEVICES,
                        help="target device")
    parser.add_argument("--gateset", default="CNOT", choices=GATESETS,
                        help="hardware two-qubit basis")
    parser.add_argument("--sizes", default="6,10,14",
                        help="comma-separated problem sizes")
    parser.add_argument("--compilers", default="2qan,tket,qiskit,nomap",
                        help=f"comma-separated subset of {SWEEP_COMPILERS}")
    parser.add_argument("--instances", type=int, default=1,
                        help="random instances per size (QAOA)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: all cores)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="persist/resume rows under this directory")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="share stage artifacts across tasks via a "
                             "content-addressed cache in this directory")
    parser.add_argument("--json", action="store_true",
                        help="emit raw rows as JSON instead of tables")
    parser.add_argument("--metrics",
                        default="n_swaps,n_two_qubit_gates,two_qubit_depth",
                        help=f"comma-separated subset of {SWEEP_METRICS} "
                             "for the text tables")
    parser.add_argument("--pass-timings", action="store_true",
                        help="also print mean per-pass seconds per compiler")
    return parser


def sweep_main(argv: list[str]) -> int:
    from repro.analysis.engine import default_jobs, open_store, run_engine
    from repro.analysis.store import row_to_dict, source_digest

    args = make_sweep_parser().parse_args(argv)
    try:
        sizes = tuple(dict.fromkeys(int(s) for s in _csv(args.sizes)))
    except ValueError:
        print(f"error: bad --sizes {args.sizes!r}", file=sys.stderr)
        return 1
    metrics = _csv(args.metrics)
    bad_metrics = [m for m in metrics if m not in SWEEP_METRICS]
    if bad_metrics:
        print(f"error: bad --metrics (unknown: {bad_metrics}; choose "
              f"from {SWEEP_METRICS})", file=sys.stderr)
        return 1
    if args.instances < 1:
        print("error: --instances must be >= 1", file=sys.stderr)
        return 1
    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1
    if not sizes:
        print("error: --sizes must name at least one size", file=sys.stderr)
        return 1
    requested = _csv(args.compilers)
    unknown = [c for c in requested if c not in COMPILER_CHOICES]
    if not requested or unknown:
        print(f"error: bad --compilers (unknown: {unknown}; "
              f"choose from {COMPILER_CHOICES})", file=sys.stderr)
        return 1
    # canonicalize aliases so 'tket,order' is one compiler, not two, and
    # store keys stay stable across spellings
    compilers = tuple(dict.fromkeys(
        resolve_spec(c).name for c in requested
    ))
    if any(resolve_spec(c).requires_device for c in compilers):
        device = _resolve_device(args.device, max(sizes))
        if device is None:
            return 1
    else:
        # all requested compilers ignore the device: compile on
        # all-to-all connectivity at any size instead of rejecting
        # problems larger than the named device
        device = all_to_all(max(sizes))

    config = SweepConfig(
        benchmark=args.benchmark,
        device=device,
        gateset=args.gateset,
        sizes=sizes,
        compilers=compilers,
        instances=args.instances,
        seed=args.seed,
    )
    jobs = args.jobs if args.jobs is not None else default_jobs()
    # salt the store with a source digest so rows computed by an older
    # version of the compiler are never replayed as fresh results
    store = (open_store(args.store, config, salt=source_digest())
             if args.store else None)
    try:
        # the engine salts the cache directory with a source digest
        # itself: artifacts never outlive the code that produced them
        rows = run_engine(config, jobs=jobs, store=store,
                          artifact_cache=args.cache or None)
    except ValueError as exc:
        # e.g. ic_qaoa on a benchmark without mutually commuting layers
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps([row_to_dict(row) for row in rows], indent=2))
        return 0
    print(f"{args.benchmark} on {device.name} ({args.gateset} basis), "
          f"{len(rows)} rows, jobs={jobs}"
          + (f", store={store.path}" if store else "")
          + (f", cache={args.cache}" if args.cache else ""))
    for metric in metrics:
        print(f"\n[{metric}]")
        print(format_rows(rows, metric, compilers))
    if args.pass_timings:
        print("\n[pass seconds]")
        print(format_pass_timings(rows, compilers))
        print("\n[cache counters]")
        print(format_cache_stats(rows, compilers))
    return 0


# ----------------------------------------------------------------------
# repro batch
# ----------------------------------------------------------------------
def make_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="Serve a JSON file of compile requests: deduplicate, "
                    "share one content-addressed artifact cache across "
                    "the batch, fan independent requests out over "
                    "processes",
        epilog="the requests file holds a JSON list of objects with any "
               "of: compiler, benchmark, n_qubits, device, gateset, "
               "seed, qaoa_degree, parameters (missing fields take the "
               "'repro compile' defaults; parameters is an angle object "
               "such as {\"gamma\": 0.4, \"beta\": 1.1} -- requests "
               "differing only in angle values share one structural "
               "compilation)",
    )
    parser.add_argument("--requests", required=True, metavar="FILE",
                        help="JSON file with the request list")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for unique requests")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="persist stage artifacts in this directory "
                             "(shared across runs and processes)")
    parser.add_argument("--json", action="store_true",
                        help="emit responses as JSON (deterministic: "
                             "identical for cold and warm caches)")
    return parser


def batch_main(argv: list[str]) -> int:
    from repro.service.batch import BatchCompiler, load_requests

    args = make_batch_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1
    try:
        requests = load_requests(args.requests)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: bad --requests file: {exc}", file=sys.stderr)
        return 1
    if not requests:
        print("error: requests file holds no requests", file=sys.stderr)
        return 1
    def label(request) -> str:
        return (f"{request.compiler} {request.benchmark} "
                f"n={request.n_qubits} seed={request.seed}")

    # BatchCompiler salts the directory with a source digest itself
    with BatchCompiler(jobs=args.jobs,
                       cache_dir=args.cache or None) as service:
        responses, summary = service.run(requests)
    # the summary carries wall times and cache counters, which differ
    # between runs; keep stdout deterministic by reporting it on stderr.
    # per-request failures are isolated into error-carrying responses;
    # report them on stderr too and signal with the exit code.
    print(summary.line(), file=sys.stderr)
    for response in responses:
        if response.failed and not response.deduplicated:
            print(f"error: {label(response.request)}: {response.error}",
                  file=sys.stderr)
    exit_code = 1 if summary.n_failed else 0
    if args.json:
        print(json.dumps([r.to_dict() for r in responses], indent=2))
        return exit_code
    for response in responses:
        note = " (deduplicated)" if response.deduplicated else ""
        if response.failed:
            print(f"{label(response.request)}: "
                  f"FAILED ({response.error}){note}")
            continue
        print(f"{label(response.request)}: "
              f"swaps={response.n_swaps} "
              f"2q-gates={response.n_two_qubit_gates} "
              f"2q-depth={response.two_qubit_depth} "
              f"depth={response.total_depth}{note}")
    return exit_code


# ----------------------------------------------------------------------
# repro lint
# ----------------------------------------------------------------------
def make_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Run the domain contract checkers (pass "
                    "reads/writes, fingerprint coverage, metrics "
                    "schema, compile-path determinism, async hygiene) "
                    "over src/repro; exits 1 when any finding remains",
        epilog="findings print as 'path:line: CHECK [severity] "
               "message'; --json emits the stable schema (version 1) "
               "for tooling",
    )
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="repo root to scan (default: autodetected "
                             "from the installed repro package)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON (stable schema)")
    parser.add_argument("--select", default=None, metavar="ID[,ID...]",
                        help="run only these check ids (e.g. "
                             "RPR001,RPR004)")
    parser.add_argument("--ignore", default=None, metavar="ID[,ID...]",
                        help="skip these check ids")
    parser.add_argument("--diff-base", default=None, metavar="REF",
                        help="report only findings in files changed "
                             "since this git ref (checkers still see "
                             "the whole tree, so cross-file contracts "
                             "stay sound)")
    parser.add_argument("--list-checks", action="store_true",
                        help="list registered checks and exit")
    return parser


def _changed_paths(repo_root: Path, base: str) -> set[str] | None:
    """Repo-relative paths changed since ``base``, or None on error."""
    import subprocess

    proc = subprocess.run(
        ["git", "diff", "--name-only", base, "--"],
        cwd=repo_root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"error: git diff --name-only {base} failed: "
              f"{proc.stderr.strip()}", file=sys.stderr)
        return None
    return {line.strip() for line in proc.stdout.splitlines()
            if line.strip()}


def lint_main(argv: list[str]) -> int:
    from repro.lint import Project, all_checkers, run_lint

    args = make_lint_parser().parse_args(argv)
    if args.list_checks:
        for check_id, cls in all_checkers().items():
            print(f"{check_id}  {cls.name}: {cls.description}")
        return 0
    if args.root is not None:
        repo_root = Path(args.root)
    else:
        import repro

        # src/repro/__init__.py -> src/repro -> src -> repo root
        repo_root = Path(repro.__file__).resolve().parents[2]
    if not (repo_root / "src" / "repro").is_dir():
        print(f"error: {repo_root} has no src/repro tree (pass --root)",
              file=sys.stderr)
        return 2
    project = Project.from_root(repo_root)
    try:
        findings = run_lint(
            project,
            select=_csv(args.select) if args.select else None,
            ignore=_csv(args.ignore) if args.ignore else None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.diff_base is not None:
        changed = _changed_paths(repo_root, args.diff_base)
        if changed is None:
            return 2
        findings = [f for f in findings if f.path in changed]
    if args.json:
        checks = [
            {"id": check_id, "name": cls.name,
             "description": cls.description}
            for check_id, cls in all_checkers().items()
        ]
        print(json.dumps({
            "version": 1,
            "checks": checks,
            "findings": [f.to_dict() for f in findings],
            "summary": {
                "files": len(project.files),
                "errors": sum(f.severity == "error" for f in findings),
                "warnings": sum(f.severity == "warning"
                                for f in findings),
            },
        }, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        errors = sum(f.severity == "error" for f in findings)
        warnings = len(findings) - errors
        if findings:
            print(f"{len(findings)} finding(s): {errors} error(s), "
                  f"{warnings} warning(s)", file=sys.stderr)
        else:
            print(f"clean: {len(project.files)} files, 0 findings",
                  file=sys.stderr)
    return 1 if findings else 0


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------
def make_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the compile server: an HTTP front end with a "
                    "bounded priority job queue, in-flight request "
                    "coalescing, per-tenant cache salting, /metrics, "
                    "and graceful drain on shutdown",
        epilog="routes: POST /compile (one request), POST /batch (a "
               "request list; responses match 'repro batch --json'), "
               "GET /metrics, GET /healthz, POST /shutdown; requests "
               "may carry 'tenant', 'priority' and 'timeout_s' fields",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address")
    parser.add_argument("--port", type=int, default=8000,
                        help="TCP port (0 picks an ephemeral port; the "
                             "bound port is announced on stderr)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker threads compiling queued requests")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="pending-job bound before 429 backpressure")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="persist stage artifacts under this "
                             "directory, salted per tenant and source "
                             "digest")
    parser.add_argument("--memory-limit", type=int, default=1024,
                        help="in-memory artifact entries per tenant")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="default per-request timeout (requests may "
                             "override with 'timeout_s')")
    parser.add_argument("--workers", choices=("thread", "process"),
                        default="thread",
                        help="where compiles execute: 'thread' (default) "
                             "or 'process' (a supervised process pool: "
                             "crash isolation, bounded retries, poison-"
                             "job quarantine)")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="re-runs of a worker-crashing job before it "
                             "is quarantined (process mode)")
    parser.add_argument("--journal", nargs="?", const="auto", default=None,
                        metavar="FILE",
                        help="write-ahead log of accepted jobs, replayed "
                             "on restart; without FILE it lives at "
                             "CACHE/journal.jsonl (requires --cache)")
    parser.add_argument("--idle-timeout", type=float, default=60.0,
                        metavar="SECONDS",
                        help="how long an idle keep-alive connection is "
                             "held open")
    return parser


def serve_main(argv: list[str]) -> int:
    from repro.service.server import ServiceConfig, serve

    args = make_serve_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1
    if args.queue_depth < 1:
        print("error: --queue-depth must be >= 1", file=sys.stderr)
        return 1
    if args.port < 0 or args.port > 65535:
        print("error: --port must be in 0..65535", file=sys.stderr)
        return 1
    if args.timeout is not None and args.timeout <= 0:
        print("error: --timeout must be positive", file=sys.stderr)
        return 1
    if args.max_retries < 0:
        print("error: --max-retries must be >= 0", file=sys.stderr)
        return 1
    if args.idle_timeout <= 0:
        print("error: --idle-timeout must be positive", file=sys.stderr)
        return 1
    journal_path = args.journal
    if journal_path == "auto":
        if not args.cache:
            print("error: --journal without a FILE requires --cache",
                  file=sys.stderr)
            return 1
        journal_path = str(Path(args.cache) / "journal.jsonl")
    config = ServiceConfig(
        jobs=args.jobs,
        queue_depth=args.queue_depth,
        cache_dir=args.cache or None,
        memory_limit=args.memory_limit,
        default_timeout_s=args.timeout,
        worker_mode=args.workers,
        max_retries=args.max_retries,
        journal_path=journal_path,
        idle_timeout_s=args.idle_timeout,
    )
    return serve(config, host=args.host, port=args.port)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "compile":
        return compile_main(argv[1:])
    if argv and argv[0] == "batch":
        return batch_main(argv[1:])
    if argv and argv[0] == "bind":
        return bind_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    args = make_parser().parse_args(argv)
    step = build_step(args.benchmark, args.qubits, args.seed)
    device = _resolve_device(args.device, args.qubits)
    if device is None:
        return 1

    compiler = get_compiler("2qan", device=device, gateset=args.gateset,
                            seed=args.seed,
                            mapping_trials=args.mapping_trials,
                            mapping_jobs=args.mapping_jobs)
    result = compiler.compile(step)
    print(f"{args.benchmark} n={args.qubits} on {device.name} "
          f"({args.gateset} basis)")
    print(f"  2QAN: swaps={result.n_swaps} dressed={result.n_dressed} "
          f"2q-gates={result.metrics.n_two_qubit_gates} "
          f"2q-depth={result.metrics.two_qubit_depth} "
          f"depth={result.metrics.total_depth}")
    if args.compare:
        for label, name in (("NoMap", "nomap"), ("tket-like", "tket"),
                            ("qiskit-like", "qiskit")):
            baseline = get_compiler(name, device=device,
                                    gateset=args.gateset, seed=args.seed)
            r = baseline.compile(step)
            print(f"  {label}: swaps={r.n_swaps} "
                  f"2q-gates={r.metrics.n_two_qubit_gates} "
                  f"2q-depth={r.metrics.two_qubit_depth}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
