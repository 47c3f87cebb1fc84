"""Tests of the benchmark itself (tiny sizes, a few seconds per run)."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, run, speed, suite, workloads  # noqa: E402
from perfbench.serving import ServerProcess  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "0.5"):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", seconds, "--trace",
         str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, table", [(0, "end_to_end"),
                                          (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_named_metric(workload, trace, table):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[table]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.PER_LAYER
    assert set(WORKLOADS) == set(workloads.RUNNERS)


def _generated(seed: int) -> dict:
    profile = workloads.FULL
    stream = workloads.warm_stream(profile, seed, 1)
    return {
        "cold": [workloads.cold_request(profile, seed, i) for i in range(12)],
        "warm": [next(stream) for _ in range(50)],
        "batch": [workloads.batch(profile, seed, i) for i in range(5)],
        "setup": workloads.setup_bound_request(profile, seed),
    }


def test_requests_are_a_pure_function_of_the_seed():
    assert _generated(7) == _generated(7)
    first, second = _generated(7), _generated(8)
    for part in first:
        assert first[part] != second[part], part
    assert any(request.parameters for request in first["warm"])


def test_a_corrupted_response_counts_as_failed():
    profile, seed = workloads.TINY, 5
    hot = workloads.hot_set(profile)[0]
    bound = workloads.setup_bound_request(profile, seed)
    good = {request.key(): checks.cold_reference(request).response
            for request in (hot, bound)}
    corrupted = dict(good[hot.key()], n_swaps=good[hot.key()]["n_swaps"] + 1)
    outcome = workloads.Outcome(
        setup_s=[1.0], samples=[workloads.Sample(0.0, 0.1, 1),
                                workloads.Sample(0.1, 0.3, 1)],
        served=[workloads.Served(hot, response=good[hot.key()]),
                workloads.Served(bound, response=good[bound.key()]),
                workloads.Served(hot, response=corrupted)])
    workloads.check_warm(outcome, profile, seed)
    assert outcome.wrong == 1
    assert "n_swaps" in outcome.problems[0]
    metrics, _ = run.end_to_end("warm-rebind", outcome)
    assert metrics["success_frac"] == pytest.approx(2 / 3)


def test_a_cold_response_with_a_wrong_count_counts_as_failed():
    profile, seed = workloads.TINY, 5
    cache = workloads.ArtifactCache()
    served = [workloads._serve_in_process(
        workloads.cold_request(profile, seed, index), cache)
        for index in range(2)]
    served[1].response = dict(served[1].response,
                              n_swaps=served[1].response["n_swaps"] - 1)
    outcome = workloads.Outcome(served=served)
    workloads.check_cold(outcome, profile, cache)
    assert outcome.wrong == 1
    assert "n_swaps" in outcome.problems[0]


def test_verifier_rejects_counts_the_circuit_does_not_have():
    request = workloads.hot_set(workloads.TINY)[1]
    reference = checks.cold_reference(request)
    assert reference.problems == []
    step, device, compiler = checks._resolve(request)
    result = compiler.compile(step, initial=reference.assignment)
    for name in ("n_swaps", "n_dressed", "n_two_qubit_gates",
                 "two_qubit_depth"):
        wrong = dict(reference.response, **{name: reference.response[name]
                                            + 1})
        problems = checks.verify(result, step, device,
                                 compiler.gateset.name, wrong)
        assert [p for p in problems if name in p], name


def test_a_request_that_raised_makes_the_run_incorrect(monkeypatch):
    def broken(request, cache, structurals=None, request_key=None):
        raise RuntimeError("broken compiler")

    monkeypatch.setattr(workloads, "execute_request", broken)
    served = workloads._serve_in_process(
        workloads.cold_request(workloads.TINY, 5, 0), None)
    assert served.error == "RuntimeError: broken compiler"
    outcome = workloads.Outcome(samples=[workloads.Sample(0.0, 0.1, 0)],
                                setup_s=[1.0], served=[served])
    assert outcome.errors == 1 and outcome.wrong == 0
    assert run.result_line(outcome, {}, {})["correct"] is False


def test_times_are_reported_at_reference_speed():
    outcome = workloads.Outcome(setup_s=[1.0],
                                samples=[workloads.Sample(0.0, 0.1, 1),
                                         workloads.Sample(0.1, 0.3, 1)])
    outcome.probe.durations = [2 * speed.REFERENCE_S]   # a host at half speed
    outcome.samples = [dataclasses.replace(sample, factor=0.5)
                       for sample in outcome.samples]
    metrics, details = run.end_to_end("warm-rebind", outcome)
    measured = details["measured"]
    assert details["speed_factor"] == pytest.approx(0.5)
    assert metrics["setup_s"] == pytest.approx(0.5 * measured["setup_s"])
    for name in ("latency_p50_ms", "latency_tail_ms"):
        assert metrics[name] == pytest.approx(0.5 * measured[name])
    assert metrics["throughput_rps"] == pytest.approx(
        2 * measured["throughput_rps"])


def test_probe_times_each_core_the_thread_may_use():
    cores = len(os.sched_getaffinity(0))
    probe, pinned = speed.SpeedProbe(), speed.SpeedProbe()
    assert probe.measure() > 0
    assert len(probe.durations) == speed.PROBE_REPS * cores

    def serial_workload():
        speed.pin_to_one_core()
        pinned.measure()
        assert len(os.sched_getaffinity(0)) == 1

    thread = threading.Thread(target=serial_workload)
    thread.start()
    thread.join()
    assert len(pinned.durations) == speed.PROBE_REPS
    assert len(os.sched_getaffinity(0)) == cores   # other threads unpinned


def test_probes_run_between_slices_and_stay_out_of_throughput(monkeypatch):
    monkeypatch.setattr(workloads, "SLICE_S", 0.05)
    probe = speed.SpeedProbe()
    in_flight = []

    def measure():                  # a slow probe; no request may be open
        assert not in_flight
        time.sleep(0.05)
        probe.durations.append(speed.REFERENCE_S)
        return speed.REFERENCE_S

    def send():
        in_flight.append(1)
        time.sleep(0.01)
        in_flight.pop()
        return 1

    probe.measure = measure
    samples = workloads.closed_loop([send, send], 0.3, probe)
    assert len(probe.durations) >= 5
    # two clients of 10 ms requests: 200/s while loaded, half that if
    # the probes' 50 ms after every 50 ms slice counted
    assert run.block_throughput(samples, len(samples) + 1) \
        == pytest.approx(200, rel=0.25)


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_client_stops_the_loop_with_its_error(failing):
    def ok():
        time.sleep(0.001)
        return 1

    def broken():
        raise ValueError("client broke")

    sends = [ok, ok]
    sends[failing] = broken
    with pytest.raises(ValueError, match="client broke"):
        workloads.closed_loop(sends, 0.2, speed.SpeedProbe())


def test_verifier_rejects_a_gate_off_the_coupling_graph():
    request = workloads.hot_set(workloads.TINY)[1]
    step, device, compiler = checks._resolve(request)
    result = compiler.compile(step)
    response = checks._reference(request, step, device, compiler,
                                 result).response
    assert checks.verify(result, step, device, compiler.gateset.name,
                         response) == []
    gate = next(g for g in result.circuit if len(g.qubits) == 2)
    edges = set(device.edges)
    far = next((a, b) for a in range(device.n_qubits)
               for b in range(a + 1, device.n_qubits) if (a, b) not in edges)
    result.circuit.gates.append(dataclasses.replace(gate, qubits=far))
    problems = checks.verify(result, step, device, compiler.gateset.name,
                             response)
    assert any("not a device edge" in problem for problem in problems)


def test_server_is_stopped_when_the_client_fails():
    server = ServerProcess(ROOT)
    with pytest.raises(RuntimeError, match="client crashed"):
        with server:
            assert server.port is not None
            raise RuntimeError("client crashed")
    assert server._proc.poll() is not None


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("cold-compile", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("base, new, expected", [
    ([10, 10.1, 9.9, 10, 10.05], [13, 13.1, 12.9, 13, 13.05], "worse"),
    ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], "better"),
    ([10, 10.1, 9.9, 10, 10.05], [10.02, 10.1, 9.95, 10, 10.04], "same"),
    ([5, 15, 8, 12, 10], [10, 10.1, 9.9, 10, 10.05], "unresolved"),
])
def test_compare_verdicts(base, new, expected):
    assert suite.verdict(base, new, 0.1, lower_is_better=True)[0] == expected


@pytest.mark.parametrize("new, expected", [
    ([626, 678, 629, 670, 669], "same"),
    ([626, 679, 629, 670, 669], "worse"),
    ([626, 677, 629, 670, 669], "better"),
    ([600, 700, 600, 600, 600], "worse"),
])
def test_count_metrics_compare_seed_by_seed(new, expected):
    base = [626, 678, 629, 670, 669]
    assert suite.verdict(base, new, 0.25, lower_is_better=True,
                         exact=True)[0] == expected


@pytest.mark.parametrize("key, value", [("seeds", [2, 3]), ("seconds", 5)])
def test_compare_refuses_sets_of_other_seeds_or_length(tmp_path, key, value):
    base = {"seeds": [1, 2], "seconds": 15, "runs": {}}
    paths = []
    for name, payload in (("base", base), ("new", dict(base, **{key: value}))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(payload))
    assert suite.main(["compare", *map(str, paths)]) == 2
