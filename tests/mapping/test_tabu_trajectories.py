"""Retained-reference gate: Tabu search trajectories never change.

``tabu_trajectories.json`` holds ``(assignment, cost, iterations)`` from
:func:`tabu_search` and :func:`best_of_k_mapping` on a fixed set of QAP
instances, recorded before the search moved onto the rank-1-updated
gain table.  On hop-count devices every float64 sum in the search is a
sum of integers, so any rewrite of the neighbourhood evaluation must
reproduce the file exactly -- same final assignment, same cost bits,
same iteration count.

Cases: the seven ``cold-compile`` benchmark shapes (two instance seeds
each), a square instance with no free sites, an instance with a
zero-flow row, and the exhausted-neighbourhood early-break instance.

Regenerate (only when a PR deliberately changes mapping trajectories)::

    PYTHONPATH=src python tests/mapping/test_tabu_trajectories.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.harness import build_step
from repro.core.unify import unify_circuit_operators
from repro.devices.library import by_name, grid
from repro.mapping.placement import best_of_k_mapping
from repro.mapping.qap import QAPInstance, qap_from_problem
from repro.mapping.tabu import tabu_search

REFERENCE = Path(__file__).with_name("tabu_trajectories.json")

#: The cold-compile request shapes ``(benchmark, n, device)``.
COLD_SHAPES = (("NNN_Heisenberg", 22, "sycamore"),
               ("NNN_Heisenberg", 34, "sycamore"),
               ("NNN_Heisenberg", 50, "sycamore"),
               ("NNN_XY", 28, "sycamore"),
               ("NNN_Ising", 16, "aspen"),
               ("QAOA-REG-3", 20, "montreal"),
               ("QAOA-ER", 20, "montreal"))
#: Instance seeds as the benchmark draws them: ``seed * 100_000 + index``.
WORKLOAD_SEEDS = (1, 2)


def _synthetic_flow(n: int, seed: int, isolated: int | None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    flow = rng.integers(0, 4, size=(n, n)).astype(float)
    flow = flow + flow.T
    np.fill_diagonal(flow, 0.0)
    if isolated is not None:
        flow[isolated, :] = 0.0
        flow[:, isolated] = 0.0
    return flow


def _cold_case(benchmark: str, n: int, device: str, seed: int):
    def build() -> tuple[QAPInstance, int, dict]:
        step = unify_circuit_operators(build_step(benchmark, n, seed))
        return qap_from_problem(step, by_name(device)), seed, {}
    return build


def _square_case():
    """No free sites: 12 logical qubits on the 12-qubit 3x4 grid."""
    return (QAPInstance(_synthetic_flow(12, 3, None), grid(3, 4).distance),
            5, {})


def _zero_flow_row_case():
    """Logical qubit 6 interacts with nothing."""
    return (QAPInstance(_synthetic_flow(14, 4, 6),
                        by_name("montreal").distance), 6, {})


def _early_break_case():
    """Every move tabu with no aspiration after two iterations."""
    return (QAPInstance(np.zeros((2, 2)),
                        np.array([[0.0, 1.0], [1.0, 0.0]])),
            0, {"max_iterations": 500})


#: name -> builder of ``(instance, seed, tabu kwargs)``, built lazily so
#: collecting the suite costs nothing.
CASES = {
    f"{benchmark}-{n}-{device}-{workload_seed * 100_000 + index}":
        _cold_case(benchmark, n, device, workload_seed * 100_000 + index)
    for index, (benchmark, n, device) in enumerate(COLD_SHAPES)
    for workload_seed in WORKLOAD_SEEDS
}
CASES["square-grid-3x4"] = _square_case
CASES["zero-flow-row-montreal"] = _zero_flow_row_case
CASES["early-break"] = _early_break_case


def _record(result) -> dict:
    return {"assignment": [int(q) for q in result.assignment],
            "cost": float(result.cost),
            "iterations": int(result.iterations)}


def trajectory(name: str) -> dict:
    instance, seed, kwargs = CASES[name]()
    return {"tabu": _record(tabu_search(instance, seed=seed, **kwargs)),
            "best_of_k": _record(best_of_k_mapping(instance, k=5,
                                                   seed=seed, **kwargs))}


@pytest.fixture(scope="module")
def reference() -> dict[str, dict]:
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_reference(reference, name):
    assert trajectory(name) == reference[name]


def test_reference_covers_every_case(reference):
    assert sorted(reference) == sorted(CASES)


if __name__ == "__main__":
    lines = [f" {json.dumps(name)}: {json.dumps(trajectory(name))}"
             for name in sorted(CASES)]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {REFERENCE}")
