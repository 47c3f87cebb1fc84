"""Output checks: the benchmark's own verifier and cold references.

Every check runs after the timed phase.  Two kinds:

* :func:`verify` inspects one compiled circuit: every two-qubit gate is
  the gate set's basis gate on a coupling edge of the device, every
  interacting logical pair of the input step runs exactly once, either
  as an operator or inside a dressed SWAP, and the response's circuit
  figures (SWAPs, dressed SWAPs, two-qubit gates, two-qubit depth) are
  the ones counted here from the circuit and its schedule.
* :func:`mismatches` compares a served response with the cold compile
  of the same request, field by field in ``CompileResponse.to_dict``.

:func:`cold_reference` is that cold compile: the request resolved the
way ``execute_request`` resolves it, compiled by the plain uncached
pipeline, so the verifier can see the circuit behind the response.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.analysis.harness import build_step, build_symbolic_step
from repro.cache.cached import compile_cached
from repro.core.registry import get_compiler, resolve_spec
from repro.devices.library import by_name
from repro.service.batch import CompileRequest, CompileResponse


@dataclass
class Reference:
    """A compiled request: the response it must produce and its proof."""

    request: CompileRequest
    response: dict
    assignment: np.ndarray
    problems: list[str]


def _resolve(request: CompileRequest):
    device = by_name(request.device)
    if request.parameters:
        step = build_symbolic_step(request.benchmark, request.n_qubits,
                                   request.seed, request.qaoa_degree)
    else:
        step = build_step(request.benchmark, request.n_qubits, request.seed,
                          request.qaoa_degree)
    compiler = get_compiler(resolve_spec(request.compiler).name,
                            device=device, gateset=request.gateset,
                            seed=request.seed)
    return step, device, compiler


def _reference(request: CompileRequest, step, device, compiler,
               result) -> Reference:
    metrics = result.metrics
    response = CompileResponse(
        request=request,
        n_swaps=metrics.n_swaps,
        n_dressed=metrics.n_dressed,
        n_two_qubit_gates=metrics.n_two_qubit_gates,
        two_qubit_depth=metrics.two_qubit_depth,
        total_depth=metrics.total_depth,
        qap_cost=(None if math.isnan(result.qap_cost)
                  else float(result.qap_cost)),
        seconds=0.0,
    )
    l2p = result.initial_map.logical_to_physical
    assignment = np.array([l2p[q] for q in range(step.n_qubits)])
    response = response.to_dict()
    return Reference(request, response, assignment,
                     verify(result, step, device, compiler.gateset.name,
                            response))


def cold_reference(request: CompileRequest, initial=None) -> Reference:
    """Compile ``request`` from scratch, without any cache.

    ``initial`` fixes the qubit assignment instead of searching for it;
    the bound requests of one structure pass the assignment their cold
    structural compile found, which skips only the mapping search.
    """
    step, device, compiler = _resolve(request)
    result = compiler.compile(step, initial=initial,
                              binding=request.binding() or None)
    return _reference(request, step, device, compiler, result)


def replay(request: CompileRequest, cache) -> tuple[Reference, bool]:
    """Re-serve ``request`` from the artifacts ``cache`` already holds.

    Returns the reference and whether every pass was a hit, i.e. whether
    the verified circuit is the one the timed phase produced.
    """
    step, device, compiler = _resolve(request)
    result = compile_cached(compiler, step, cache,
                            binding=request.binding() or None)
    all_hits = set(result.cache_events.values()) == {"hit"}
    return _reference(request, step, device, compiler, result), all_hits


def two_qubit_depth(circuit) -> int:
    """ASAP layers holding a two-qubit gate; one-qubit gates still take
    their qubits' time steps (the paper's two-qubit depth)."""
    frontier: dict[int, int] = {}
    layers: set[int] = set()
    for gate in circuit:
        if not gate.qubits:
            continue
        start = max(frontier.get(q, 0) for q in gate.qubits)
        frontier.update((q, start + 1) for q in gate.qubits)
        if len(gate.qubits) >= 2:
            layers.add(start)
    return len(layers)


def verify(result, step, device, basis: str, response: dict) -> list[str]:
    """Checks of one compiled circuit and the response reporting it;
    returns the problems."""
    problems: list[str] = []
    edges = set(device.edges)
    for gate in result.circuit:
        if len(gate.qubits) > 2:
            problems.append(f"{gate.name} acts on {len(gate.qubits)} qubits")
        elif len(gate.qubits) == 2:
            pair = (min(gate.qubits), max(gate.qubits))
            if gate.name != basis:
                problems.append(f"two-qubit gate {gate.name} is not {basis}")
            if pair not in edges:
                problems.append(f"{gate.name} on {pair}: not a device edge")
    executed: Counter = Counter()
    for item in result.scheduled.items:
        pair = (min(item.physical_pair), max(item.physical_pair))
        if pair not in edges:
            problems.append(f"scheduled {item.kind} on non-edge {pair}")
        if item.kind == "op":
            executed[item.operator.qubits] += 1
        elif item.kind == "dressed":
            executed[item.swap.dressed_with.qubits] += 1
    expected = Counter(set(op.qubits for op in step.two_qubit_ops))
    if executed != expected:
        missing = sorted((expected - executed).keys())
        extra = sorted((executed - expected).keys())
        problems.append(f"interacting pairs differ: missing {missing[:3]}, "
                        f"extra or repeated {extra[:3]}")
    kinds = Counter(item.kind for item in result.scheduled.items)
    counted = {
        "n_swaps": kinds["swap"] + kinds["dressed"],
        "n_dressed": kinds["dressed"],
        "n_two_qubit_gates": sum(1 for gate in result.circuit
                                 if len(gate.qubits) >= 2),
        "two_qubit_depth": two_qubit_depth(result.circuit),
    }
    for name, value in counted.items():
        if response[name] != value:
            problems.append(f"response {name} {response[name]} != "
                            f"{value} counted in the circuit")
    return problems


def mismatches(served: dict, reference: dict) -> list[str]:
    """Fields of ``CompileResponse.to_dict`` where ``served`` differs."""
    keys = sorted(set(served) | set(reference))
    return [key for key in keys if served.get(key) != reference.get(key)]
