"""Symbolic bind benchmark (the structure/parameter split payoff).

Compiles the structure of an n = 22 QAOA instance once, then binds a
grid of angle sets through the retained pipeline suffix.  The paper's
variational use case runs exactly this loop: one circuit structure,
hundreds of angle updates from the classical optimizer.  A warm bind
must be at least 10x faster than a cold compile of the same angles,
and every bound circuit bit-identical to its cold-compiled twin.  The
measurement is printed and written to a temporary directory (timings
differ on every run).
"""

from __future__ import annotations

import json
import time

from repro.analysis.harness import build_symbolic_step
from repro.core.bind import compile_structural
from repro.core.bind_perf_smoke import circuits_identical
from repro.core.registry import get_compiler
from repro.devices.library import by_name

N_QUBITS = 22
N_BINDINGS = 12
BENCHMARK = "QAOA-REG-3"


def _angle_grid() -> list[dict[str, float]]:
    return [{"gamma": 0.05 + 0.13 * i, "beta": -0.7 + 0.09 * i}
            for i in range(N_BINDINGS)]


def _compiler():
    return get_compiler("2qan", device=by_name("sycamore"),
                        gateset="CNOT", seed=0)


def test_warm_bind_at_least_10x_faster_than_cold_compile(timings_dir):
    bindings = _angle_grid()
    symbolic = build_symbolic_step(BENCHMARK, N_QUBITS, 0)

    structural_start = time.perf_counter()
    structural = compile_structural(_compiler(), symbolic)
    structural_seconds = time.perf_counter() - structural_start

    warm = []
    warm_start = time.perf_counter()
    for binding in bindings:
        warm.append(structural.bind(binding))
    warm_seconds = time.perf_counter() - warm_start

    cold = []
    cold_start = time.perf_counter()
    for binding in bindings:
        cold.append(_compiler().compile(symbolic.bind(binding)))
    cold_seconds = time.perf_counter() - cold_start

    per_bind = warm_seconds / len(bindings)
    per_cold = cold_seconds / len(bindings)
    speedup = per_cold / per_bind
    record = {
        "benchmark": BENCHMARK,
        "n_qubits": N_QUBITS,
        "n_bindings": len(bindings),
        "structural_seconds": round(structural_seconds, 4),
        "warm_bind_seconds_per_angle_set": round(per_bind, 4),
        "cold_compile_seconds_per_angle_set": round(per_cold, 4),
        "speedup": round(speedup, 1),
    }
    path = timings_dir / "symbolic_bind.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\n=== symbolic_bind ===\n{json.dumps(record, indent=2)}")

    # the fast path is only worth having if it is *exactly* the slow one
    for w, c in zip(warm, cold):
        assert w.metrics == c.metrics
        assert circuits_identical(w.circuit, c.circuit)
    assert speedup >= 10.0, (
        f"warm bind only {speedup:.1f}x faster than a cold compile "
        f"({per_cold:.3f}s -> {per_bind:.3f}s per angle set)"
    )
