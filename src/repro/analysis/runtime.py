"""Compiler runtime / scalability measurement (paper Section V-D)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.registry import get_compiler
from repro.devices.topology import Device
from repro.hamiltonians.trotter import TrotterStep


@dataclass(frozen=True)
class RuntimeRecord:
    """Pass-by-pass wall times for one compilation.

    Passes a compiler's pipeline does not run (e.g. baselines without a
    mapping search) report 0.0.  ``unify_s`` (stage 1, circuit unitary
    unifying) defaults to 0.0 so records built before the field existed
    keep loading; ``total_s`` includes it -- it used to be silently
    dropped, under-reporting every total.
    """

    label: str
    n_qubits: int
    n_operators: int
    mapping_s: float
    routing_s: float
    scheduling_s: float
    decomposition_s: float
    unify_s: float = 0.0

    @property
    def total_s(self) -> float:
        return (self.unify_s + self.mapping_s + self.routing_s
                + self.scheduling_s + self.decomposition_s)


def measure_runtime(label: str, step: TrotterStep, device: Device,
                    gateset: str = "CNOT", seed: int = 0,
                    compiler: str = "2qan", **knobs) -> RuntimeRecord:
    """Compile once with a registry compiler and report per-pass timings."""
    instance = get_compiler(compiler, device=device, gateset=gateset,
                            seed=seed, **knobs)
    result = instance.compile(step)
    timings = result.timings
    return RuntimeRecord(
        label=label,
        n_qubits=step.n_qubits,
        n_operators=len(step.two_qubit_ops),
        unify_s=timings.get("unify", 0.0),
        mapping_s=timings.get("mapping", 0.0),
        routing_s=timings.get("routing", 0.0),
        scheduling_s=timings.get("scheduling", 0.0),
        decomposition_s=timings.get("decomposition", 0.0),
    )


@dataclass(frozen=True)
class RuntimeSpec:
    """A picklable description of one runtime measurement.

    Workers rebuild the Trotter step from the benchmark name and seed, so
    a list of specs can be fanned out across a process pool with
    :func:`repro.analysis.engine.parallel_map`.

    ``mapping_trials`` is a 2QAN-family knob (other compilers have no
    such parameter); to configure a baseline, put its constructor knobs
    in ``knobs`` -- they are forwarded verbatim, so a knob the compiler
    does not accept raises ``TypeError`` instead of being dropped.
    """

    label: str
    benchmark: str
    n_qubits: int
    device: Device
    gateset: str = "CNOT"
    seed: int = 0
    mapping_trials: int = 5
    qaoa_degree: int = 3
    compiler: str = "2qan"
    knobs: dict = field(default_factory=dict)


def measure_runtime_spec(spec: RuntimeSpec) -> RuntimeRecord:
    """Build the spec's problem and measure one compilation."""
    from repro.analysis.harness import build_step

    step = build_step(spec.benchmark, spec.n_qubits, spec.seed,
                      spec.qaoa_degree)
    knobs = dict(spec.knobs)
    if spec.compiler in ("2qan", "2qan_nodress"):
        knobs.setdefault("mapping_trials", spec.mapping_trials)
    return measure_runtime(spec.label, step, spec.device,
                           gateset=spec.gateset, seed=spec.seed,
                           compiler=spec.compiler, **knobs)


def runtime_records_payload(records: list[RuntimeRecord]) -> list[dict]:
    """Machine-readable form of a runtime table.

    One JSON object per record with per-pass seconds rounded to
    milliseconds, so two payloads diff without churning on
    sub-millisecond noise.
    """
    payload = []
    for r in records:
        payload.append({
            "benchmark": r.label,
            "n_qubits": r.n_qubits,
            "n_operators": r.n_operators,
            "unify_s": round(r.unify_s, 3),
            "mapping_s": round(r.mapping_s, 3),
            "routing_s": round(r.routing_s, 3),
            "scheduling_s": round(r.scheduling_s, 3),
            "decomposition_s": round(r.decomposition_s, 3),
            "total_s": round(r.total_s, 3),
        })
    return payload


def runtime_records_from_payload(payload: list[dict]) -> list[RuntimeRecord]:
    """Rebuild records from a :func:`runtime_records_payload` payload.

    Tolerates rows written before the ``unify_s`` column existed (it
    defaults to 0.0).  The stored ``total_s`` is derived and rounded, so
    it is not read back; ``total_s`` of the rebuilt record is recomputed
    from the (rounded) per-pass columns.
    """
    return [
        RuntimeRecord(
            label=row["benchmark"],
            n_qubits=int(row["n_qubits"]),
            n_operators=int(row["n_operators"]),
            unify_s=float(row.get("unify_s", 0.0)),
            mapping_s=float(row["mapping_s"]),
            routing_s=float(row["routing_s"]),
            scheduling_s=float(row["scheduling_s"]),
            decomposition_s=float(row["decomposition_s"]),
        )
        for row in payload
    ]


def format_runtime_table(records: list[RuntimeRecord]) -> str:
    header = (
        f"{'benchmark':24s} {'n':>4s} {'ops':>5s} {'unify(s)':>9s} "
        f"{'map(s)':>8s} {'route(s)':>9s} {'sched(s)':>9s} "
        f"{'decomp(s)':>10s} {'total':>8s}"
    )
    lines = [header]
    for r in records:
        lines.append(
            f"{r.label:24s} {r.n_qubits:4d} {r.n_operators:5d} "
            f"{r.unify_s:9.2f} {r.mapping_s:8.2f} {r.routing_s:9.2f} "
            f"{r.scheduling_s:9.2f} {r.decomposition_s:10.2f} "
            f"{r.total_s:8.2f}"
        )
    return "\n".join(lines)
