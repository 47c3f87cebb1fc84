"""Tests for the end-to-end 2QAN compiler driver."""

import numpy as np
import pytest

from repro.core.compiler import TwoQANCompiler, compile_step
from repro.devices import all_to_all
from repro.hamiltonians.models import nnn_heisenberg, nnn_ising
from repro.hamiltonians.qaoa import QAOAProblem, random_regular_graph
from repro.hamiltonians.trotter import trotter_step


class TestBasics:
    def test_compiles_heisenberg(self, montreal_device):
        step = trotter_step(nnn_heisenberg(8, seed=0))
        result = compile_step(step, montreal_device, "CNOT", seed=1)
        assert result.metrics.n_two_qubit_gates > 0
        assert result.metrics.two_qubit_depth > 0

    def test_gateset_by_name_or_object(self, montreal_device):
        from repro.synthesis.gateset import get_gateset
        step = trotter_step(nnn_ising(6, seed=0))
        by_name = TwoQANCompiler(montreal_device, "CNOT", seed=0).compile(step)
        by_obj = TwoQANCompiler(
            montreal_device, get_gateset("CNOT"), seed=0
        ).compile(step)
        assert by_name.metrics == by_obj.metrics

    def test_all_to_all_no_swaps(self):
        step = trotter_step(nnn_heisenberg(6, seed=0))
        result = compile_step(step, all_to_all(6), "CNOT", seed=0)
        assert result.n_swaps == 0
        # 9 unified pairs x 3 CNOTs
        assert result.metrics.n_two_qubit_gates == 27

    def test_explicit_initial_mapping(self, grid23):
        step = trotter_step(nnn_ising(6, seed=0))
        compiler = TwoQANCompiler(grid23, "CNOT", seed=0)
        result = compiler.compile(step, initial=np.arange(6))
        assert result.initial_map.physical(0) == 0

    @pytest.mark.parametrize("initial", [
        [0, 0, 1, 2, 3, 4],              # two logical qubits on qubit 0
        [-1, 0, 1, 2, 3, 4],             # negative location
        [0, 1, 2, 3, 4, 6],              # beyond the 6-qubit device
        [0, 1, 2, 3, 4],                 # one location short
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],  # not integers
    ])
    @pytest.mark.parametrize("name", ["2qan", "tket", "qiskit", "ic_qaoa"])
    def test_invalid_initial_mapping_rejected(self, grid23, initial, name):
        """Every compiler with a placement pass validates a caller's
        initial map through the one QAP validator."""
        from repro.core.registry import get_compiler

        step = trotter_step(nnn_ising(6, seed=0))
        compiler = get_compiler(name, device=grid23, gateset="CNOT", seed=0)
        with pytest.raises(ValueError):
            compiler.compile(step, initial=initial)

    def test_timings_recorded(self, grid23):
        step = trotter_step(nnn_ising(6, seed=0))
        result = compile_step(step, grid23, "CNOT")
        assert set(result.timings) == {
            "unify", "mapping", "routing", "scheduling", "binding",
            "decomposition"
        }

    def test_qap_cost_reported(self, grid23):
        step = trotter_step(nnn_ising(6, seed=0))
        result = compile_step(step, grid23, "CNOT")
        assert result.qap_cost > 0


class TestCacheInjection:
    def test_public_cache_field_used(self, montreal_device):
        from repro.core.decompose import DecomposeCache
        cache = DecomposeCache()
        compiler = TwoQANCompiler(montreal_device, "CNOT", seed=0,
                                  cache=cache)
        assert compiler.cache is cache
        compiler.compile(trotter_step(nnn_ising(6, seed=0)))
        assert len(cache._store) > 0

    def test_default_cache_created(self, montreal_device):
        from repro.core.decompose import DecomposeCache
        compiler = TwoQANCompiler(montreal_device, "CNOT", seed=0)
        assert isinstance(compiler.cache, DecomposeCache)

    def test_shared_cache_across_compilers(self, montreal_device):
        from repro.core.decompose import DecomposeCache
        cache = DecomposeCache()
        step = trotter_step(nnn_ising(6, seed=0))
        TwoQANCompiler(montreal_device, "CNOT", seed=0,
                       cache=cache).compile(step)
        warm = len(cache._store)
        TwoQANCompiler(montreal_device, "CNOT", seed=0,
                       cache=cache).compile(step)
        assert len(cache._store) == warm


class TestHeadlineBehaviour:
    """The properties the paper's abstract claims."""

    def test_heisenberg_zero_gate_overhead_when_dressed(self, grid23):
        """Dressed SWAPs make Heisenberg gate overhead ~zero (Fig 7a-b)."""
        step = trotter_step(nnn_heisenberg(6, seed=0))
        result = compile_step(step, grid23, "CNOT", seed=1)
        baseline_gates = (2 * 6 - 3) * 3  # unified pairs x 3 CNOTs
        overhead = result.metrics.n_two_qubit_gates - baseline_gates
        assert overhead == (result.n_swaps - result.n_dressed) * 3

    def test_dressing_reduces_gates(self, montreal_device):
        step = trotter_step(nnn_heisenberg(10, seed=0))
        with_dress = TwoQANCompiler(montreal_device, "CNOT", seed=1).compile(step)
        without = TwoQANCompiler(montreal_device, "CNOT", seed=1,
                                 dress=False).compile(step)
        assert with_dress.metrics.n_two_qubit_gates <= \
            without.metrics.n_two_qubit_gates

    def test_unify_reduces_gates(self, montreal_device):
        step = trotter_step(nnn_heisenberg(8, seed=0))
        unified = TwoQANCompiler(montreal_device, "CNOT", seed=1).compile(step)
        raw = TwoQANCompiler(montreal_device, "CNOT", seed=1,
                             unify=False).compile(step)
        assert unified.metrics.n_two_qubit_gates < \
            raw.metrics.n_two_qubit_gates

    def test_hybrid_schedule_no_deeper(self, montreal_device):
        step = trotter_step(nnn_heisenberg(10, seed=0))
        hybrid = TwoQANCompiler(montreal_device, "CNOT", seed=1).compile(step)
        generic = TwoQANCompiler(montreal_device, "CNOT", seed=1,
                                 hybrid_schedule=False).compile(step)
        assert hybrid.metrics.two_qubit_depth <= \
            generic.metrics.two_qubit_depth

    @pytest.mark.parametrize("gateset", ["CNOT", "CZ", "SYC", "ISWAP"])
    def test_retargets_all_gatesets(self, grid23, gateset):
        step = trotter_step(nnn_ising(6, seed=0))
        result = compile_step(step, grid23, gateset, seed=0)
        names = {g.name for g in result.circuit if g.n_qubits == 2}
        expected = {"CNOT"} if gateset == "CNOT" else {gateset}
        assert names <= expected


class TestMultiLayer:
    def test_three_layers_triple_size(self, montreal_device):
        g = random_regular_graph(3, 8, seed=0)
        problem = QAOAProblem(g, (0.3, 0.5, 0.7), (0.4, 0.2, 0.1))
        steps = [problem.layer_step(i) for i in range(3)]
        compiler = TwoQANCompiler(montreal_device, "CNOT", seed=1)
        single = compiler.compile(steps[0])
        triple = compiler.compile_layers(steps)
        ratio = triple.metrics.n_two_qubit_gates / \
            single.metrics.n_two_qubit_gates
        assert 2.9 <= ratio <= 3.1
        assert triple.metrics.n_swaps == 3 * single.metrics.n_swaps

    def test_single_layer_passthrough(self, montreal_device):
        g = random_regular_graph(3, 6, seed=0)
        problem = QAOAProblem(g, (0.3,), (0.4,))
        compiler = TwoQANCompiler(montreal_device, "CNOT", seed=1)
        a = compiler.compile(problem.layer_step(0))
        b = compiler.compile_layers([problem.layer_step(0)])
        assert a.metrics == b.metrics

    def test_empty_layers_rejected(self, montreal_device):
        compiler = TwoQANCompiler(montreal_device, "CNOT")
        with pytest.raises(ValueError):
            compiler.compile_layers([])
