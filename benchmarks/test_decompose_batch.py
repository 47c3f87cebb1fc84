"""Batched KAK synthesis benchmark (the repro.synthesis.batch payoff).

Times the batched decomposition engine against the retained scalar
reference at two granularities: a raw synthesis batch (Haar-random U(4)
blocks through ``GateSet.decompose_batch`` vs a per-matrix loop) and an
end-to-end circuit lowering (``decompose_circuit`` two-phase walk vs
``decompose_circuit_reference``, both cache-cold).  The batched path
must be at least 3x faster on the raw batch and bit-identical in both
settings.  The measurement is printed and written to a temporary
directory (timings differ on every run).
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.core.decompose import (
    DecomposeCache,
    decompose_circuit,
    decompose_circuit_reference,
)
from repro.quantum.circuit import Circuit
from repro.quantum.gates import Gate
from repro.quantum.unitaries import random_unitary
from repro.synthesis.gateset import get_gateset
from repro.synthesis.perf_smoke import blocks_identical

N_MATRICES = 128
MIN_SPEEDUP = 3.0
ROUNDS = 3


def _haar_batch() -> list[np.ndarray]:
    rng = np.random.default_rng(42)
    return [random_unitary(4, rng) for _ in range(N_MATRICES)]


def _app_circuit(n_qubits: int = 12, layers: int = 4) -> Circuit:
    """A brickwork of unique Haar blocks: worst case for the dedupe
    phase (no repeats), so the timing isolates raw synthesis."""
    rng = np.random.default_rng(7)
    circuit = Circuit(n_qubits)
    for layer in range(layers):
        for a in range(layer % 2, n_qubits - 1, 2):
            circuit.append(Gate("APP2Q", (a, a + 1),
                                matrix=random_unitary(4, rng)))
    return circuit


def _best_of(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batched_synthesis_at_least_3x_faster(timings_dir):
    gateset = get_gateset("CNOT")
    matrices = _haar_batch()

    batched_blocks = gateset.decompose_batch(matrices)       # warm-up
    scalar_blocks = [gateset.decompose(m) for m in matrices]
    batch_seconds = _best_of(lambda: gateset.decompose_batch(matrices))
    scalar_seconds = _best_of(
        lambda: [gateset.decompose(m) for m in matrices])
    speedup = scalar_seconds / batch_seconds

    circuit = _app_circuit()
    lowered = decompose_circuit(circuit, gateset,
                                cache=DecomposeCache(maxsize=0))
    reference = decompose_circuit_reference(circuit, gateset,
                                            cache=DecomposeCache(maxsize=0))
    circuit_batch_seconds = _best_of(lambda: decompose_circuit(
        circuit, gateset, cache=DecomposeCache(maxsize=0)))
    circuit_scalar_seconds = _best_of(lambda: decompose_circuit_reference(
        circuit, gateset, cache=DecomposeCache(maxsize=0)))

    record = {
        "n_matrices": N_MATRICES,
        "batch_seconds": round(batch_seconds, 4),
        "scalar_seconds": round(scalar_seconds, 4),
        "speedup": round(speedup, 1),
        "circuit_gates": len(circuit.gates),
        "circuit_batch_seconds": round(circuit_batch_seconds, 4),
        "circuit_scalar_seconds": round(circuit_scalar_seconds, 4),
        "circuit_speedup": round(
            circuit_scalar_seconds / circuit_batch_seconds, 1),
    }
    path = timings_dir / "decompose_batch.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\n=== decompose_batch ===\n{json.dumps(record, indent=2)}")

    # the batched path is a pure perf rewrite: outputs stay bit-identical
    assert blocks_identical(batched_blocks, scalar_blocks)
    assert len(lowered.gates) == len(reference.gates)
    assert all(
        ga.name == gb.name and ga.qubits == gb.qubits
        and ga.params == gb.params
        and ((ga.matrix is None and gb.matrix is None)
             or ga.matrix.tobytes() == gb.matrix.tobytes())
        for ga, gb in zip(lowered.gates, reference.gates))
    assert speedup >= MIN_SPEEDUP, (
        f"batched synthesis only {speedup:.1f}x faster "
        f"({scalar_seconds:.3f}s -> {batch_seconds:.3f}s)"
    )
