"""The four workloads: seeded request streams, set-up and timed loops.

Every request is a :class:`~repro.service.batch.CompileRequest` made
from the workload seed alone (:func:`cold_request`, :func:`hot_set`,
:func:`warm_stream`, :func:`batch`); the program only ever sees the
generated requests.  Cold instance seeds of workload seed ``s`` are
``s * SEED_STRIDE + i``, so two workload seeds never share one.

All load is closed loop: a client sends its next request only when the
previous one has returned.  Each runner returns an :class:`Outcome`
holding what the timed phase served, after comparing every served
response with its cold reference outside the timing.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import resource
import subprocess
import sys
import threading
import time
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import checks
from perfbench.serving import ServerProcess
from perfbench.speed import REFERENCE_S, SLICE_S, SpeedProbe, pin_to_one_core
from perfbench.tracing import Tracer, layer_metrics
from repro.cache.store import ArtifactCache
from repro.service.batch import BatchCompiler, CompileRequest, execute_request
from repro.service.client import CompileClient, ServiceError

SEED_STRIDE = 100_000
SETUP_REPEATS = 3
BATCH_JOBS = 2
SERVE_CLIENTS = 2
#: Samples per throughput block (cold-compile uses one shape cycle):
#: throughput is the median over consecutive blocks, so a few seconds
#: of contention from outside the benchmark move it less than a mean.
WARM_BLOCK = 50
BATCH_BLOCK = 4
#: Share of warm requests that bind fresh angles into the structure.
BOUND_SHARE = 0.3


@dataclass(frozen=True)
class Profile:
    """Request shapes ``(benchmark, n_qubits, device, gateset)`` per workload.

    ``cold_quality`` cold requests (whole cycles over ``cold_shapes``)
    always complete, however slow the program, so the circuit totals are
    sums over the same requests on every run of a seed.
    """

    cold_shapes: tuple
    cold_quality: int
    hot_shapes: tuple
    bound_shape: tuple
    batch_shapes: tuple
    batch_pool: int
    batch_unique: int
    batch_duplicates: int
    setup_shape: tuple


FULL = Profile(
    # the paper's runtime sizes (Section V-D) plus each other application
    # and device; QAOA-ER is weighted MaxCut, which takes the router's
    # scaled-integer path.  Seven shapes put the median inside one
    # shape's latency cluster (n=22) and p75 inside another's (n=34):
    # with six, both would sit on a boundary between two clusters.
    cold_shapes=(("NNN_Heisenberg", 22, "sycamore", "SYC"),
                 ("NNN_Heisenberg", 34, "sycamore", "SYC"),
                 ("NNN_Heisenberg", 50, "sycamore", "SYC"),
                 ("NNN_XY", 28, "sycamore", "SYC"),
                 ("NNN_Ising", 16, "aspen", "CZ"),
                 ("QAOA-REG-3", 20, "montreal", "CNOT"),
                 ("QAOA-ER", 20, "montreal", "CNOT")),
    cold_quality=42,
    # four applications on three devices, n = 12-22
    hot_shapes=(("NNN_Heisenberg", 22, "sycamore", "SYC"),
                ("NNN_XY", 12, "aspen", "ISWAP"),
                ("NNN_Ising", 14, "montreal", "CNOT"),
                ("QAOA-REG-3", 16, "sycamore", "SYC"),
                ("NNN_Heisenberg", 16, "aspen", "CZ"),
                ("QAOA-ER", 12, "montreal", "CNOT")),
    bound_shape=("QAOA-REG-3", 20, "montreal", "CNOT"),
    # small cold requests, so a 15 s run holds enough batches for a tail
    batch_shapes=(("NNN_XY", 8, "aspen", "ISWAP"),
                  ("NNN_Ising", 8, "montreal", "CNOT"),
                  ("QAOA-REG-3", 8, "sycamore", "SYC"),
                  ("NNN_Ising", 10, "aspen", "CZ"),
                  ("NNN_Heisenberg", 8, "aspen", "CZ"),
                  ("QAOA-ER", 8, "montreal", "CNOT")),
    batch_pool=24,
    batch_unique=6,
    batch_duplicates=2,
    setup_shape=("NNN_Ising", 16, "aspen", "CZ"),
)

#: Small shapes with the same structure, for the benchmark's own tests.
TINY = Profile(
    cold_shapes=(("NNN_Heisenberg", 6, "aspen", "SYC"),
                 ("QAOA-ER", 6, "montreal", "CNOT")),
    cold_quality=2,
    hot_shapes=(("NNN_XY", 6, "aspen", "ISWAP"),
                ("NNN_Ising", 6, "montreal", "CNOT")),
    bound_shape=("QAOA-REG-3", 6, "montreal", "CNOT"),
    batch_shapes=(("NNN_Ising", 6, "aspen", "CZ"),
                  ("QAOA-REG-3", 6, "sycamore", "SYC")),
    batch_pool=4,
    batch_unique=2,
    batch_duplicates=1,
    setup_shape=("NNN_Ising", 6, "aspen", "CZ"),
)


def make_request(shape: tuple, instance: int,
                 parameters: tuple = ()) -> CompileRequest:
    benchmark, n_qubits, device, gateset = shape
    return CompileRequest(benchmark=benchmark, n_qubits=n_qubits,
                          device=device, gateset=gateset, seed=instance,
                          parameters=parameters)


# ----------------------------------------------------------------------
# request generation: pure functions of the workload seed
# ----------------------------------------------------------------------
def cold_request(profile: Profile, seed: int, index: int) -> CompileRequest:
    """The ``index``-th cold request: a unique instance of a cycled shape."""
    if not 0 <= index < SEED_STRIDE:
        raise ValueError(f"cold request index {index} out of range")
    shape = profile.cold_shapes[index % len(profile.cold_shapes)]
    return make_request(shape, seed * SEED_STRIDE + index)


#: Instance seeds of the warm workloads' hot set and structure.  They are
#: fixed, as a service's popular requests are; the workload seed draws
#: the mix and the angles.  Fixed instances also make the warm circuit
#: totals the same on every seed.
HOT_INSTANCE = 7_000
STRUCTURE_INSTANCE = 7_099


def hot_set(profile: Profile) -> list[CompileRequest]:
    return [make_request(shape, HOT_INSTANCE + index)
            for index, shape in enumerate(profile.hot_shapes)]


def _angles(rng: np.random.Generator) -> tuple:
    beta, gamma = rng.uniform(0.05, 3.1, size=2)
    return (("beta", float(beta)), ("gamma", float(gamma)))


def _bound(profile: Profile, angles: tuple) -> CompileRequest:
    return make_request(profile.bound_shape, STRUCTURE_INSTANCE, angles)


def setup_bound_request(profile: Profile, seed: int) -> CompileRequest:
    """The bound request whose structural compile the warm set-up pays."""
    return _bound(profile, _angles(np.random.default_rng([seed, 99])))


def warm_stream(profile: Profile, seed: int, client: int):
    """Client ``client``'s endless warm mix: hot-set repeats and binds.

    A share :data:`BOUND_SHARE` of requests binds fresh angles into the
    one parameterised structure; the rest repeat a hot-set request.
    """
    rng = np.random.default_rng([seed, client])
    hot = hot_set(profile)
    while True:
        if rng.random() < BOUND_SHARE:
            yield _bound(profile, _angles(rng))
        else:
            yield hot[int(rng.integers(len(hot)))]


def batch_pool(profile: Profile, seed: int) -> list[CompileRequest]:
    shapes = profile.batch_shapes
    return [make_request(shapes[index % len(shapes)],
                         seed * SEED_STRIDE + index)
            for index in range(profile.batch_pool)]


def batch(profile: Profile, seed: int, index: int) -> list[CompileRequest]:
    """Batch ``index``: the next unique slice of the pool plus repeats."""
    pool = batch_pool(profile, seed)
    start = index * profile.batch_unique
    unique = [pool[(start + k) % len(pool)]
              for k in range(profile.batch_unique)]
    rng = np.random.default_rng([seed, index])
    repeats = rng.choice(len(unique), profile.batch_duplicates,
                         replace=False)
    return unique + [unique[int(k)] for k in repeats]


# ----------------------------------------------------------------------
# outcomes
# ----------------------------------------------------------------------
@dataclass
class Served:
    """One request of the timed phase and what came back."""

    request: CompileRequest
    response: dict | None = None
    error: str | None = None


@dataclass(frozen=True)
class Sample:
    """One closed-loop call: when it began and ended, and how many
    requests it served successfully (one request, or a whole batch).
    ``factor`` turns its measured time into time at reference speed:
    :data:`~perfbench.speed.REFERENCE_S` over the mean kernel time of
    the probes before and after its slice of load."""

    began: float
    ended: float
    ok: int
    factor: float = 1.0

    @property
    def latency_s(self) -> float:
        return self.ended - self.began


@dataclass
class Outcome:
    """What one workload run measured; filled by a runner and its checks.

    ``samples`` is the timed phase (the untraced half of a traced run),
    ``traced`` the traced half.  ``block`` is how many consecutive
    samples one throughput block holds.  ``probe`` times the host before
    each set-up and between slices of the timed phase.
    """

    setup_s: list[float] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    traced: list[Sample] = field(default_factory=list)
    block: int = 1
    peak_rss_mb: float = 0.0
    served: list[Served] = field(default_factory=list)
    quality: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    wrong: int = 0
    layers: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    @property
    def attempted(self) -> int:
        return len(self.served)

    @property
    def errors(self) -> int:
        return sum(1 for item in self.served if item.error is not None)


def closed_loop(sends: list, seconds: float, probe: SpeedProbe,
                done=lambda: True) -> list[Sample]:
    """One closed-loop client per callable in ``sends``, each calling its
    ``send()`` back to back, for ``seconds`` of load and until ``done()``.

    ``send()`` returns how many requests it served successfully.  The
    load runs in slices of :data:`~perfbench.speed.SLICE_S`; between two
    slices every client has returned and ``probe`` times the host, so
    probing never competes with a request.  The first client runs in the
    calling thread, the others in helper threads.
    """
    per_client: list[list[Sample]] = [[] for _ in sends]
    state = {"loaded": 0.0, "start": None, "end": 0.0, "stop": False}
    starts: list[float] = []        # of each slice
    kernel_s: list[float] = []      # of the probe before each slice, and
                                    # of the one after the last

    def boundary() -> None:     # runs once, with every client waiting
        if state["start"] is not None:
            state["loaded"] += time.perf_counter() - state["start"]
        state["stop"] = state["loaded"] >= seconds and done()
        kernel_s.append(probe.measure())
        if not state["stop"]:
            state["start"] = time.perf_counter()
            state["end"] = state["start"] + SLICE_S
            starts.append(state["start"])

    barrier = threading.Barrier(len(sends), action=boundary)

    def client(index: int) -> None:
        send, samples = sends[index], per_client[index]
        try:
            while True:
                barrier.wait()
                if state["stop"]:
                    return
                while True:
                    began = time.perf_counter()
                    ok = send()
                    ended = time.perf_counter()
                    samples.append(Sample(began, ended, ok))
                    loaded = state["loaded"] + ended - state["start"]
                    if ended >= state["end"] or (loaded >= seconds
                                                 and done()):
                        break
        except BaseException:
            barrier.abort()     # release the other clients
            raise

    errors: list[BaseException] = []

    def helper(index: int) -> None:
        try:
            client(index)
        except threading.BrokenBarrierError:
            pass
        except BaseException as exc:
            errors.append(exc)

    helpers = [threading.Thread(target=helper, args=(index,))
               for index in range(1, len(sends))]
    for thread in helpers:
        thread.start()
    broken = False
    try:
        client(0)
    except threading.BrokenBarrierError:
        broken = True           # a helper failed; its error is raised below
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
    if broken:
        raise RuntimeError("a client left the timed phase")
    factors = [2.0 * REFERENCE_S / (before + after)
               for before, after in zip(kernel_s, kernel_s[1:])]
    return sorted((dataclasses.replace(
        sample, factor=factors[bisect.bisect_right(starts, sample.began) - 1])
        for samples in per_client for sample in samples),
        key=lambda sample: sample.ended)


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _serve_in_process(request, cache, structurals=None) -> Served:
    try:
        response = execute_request(request, cache, structurals,
                                   request_key=request.key())
    except Exception as exc:    # a failed request is counted, not fatal
        return Served(request, error=f"{type(exc).__name__}: {exc}")
    return Served(request, response=response.to_dict())


def _in_process_timed(outcome: Outcome, serve, seconds: float, trace: bool,
                      done=lambda: True) -> None:
    """The timed phase of a serial in-process workload.

    Untraced: one closed loop.  Traced: half the time untraced, half
    with the tracer installed, so the difference of the two medians is
    the tracing overhead.
    """
    def send():
        outcome.served.append(serve())
        return int(outcome.served[-1].error is None)

    if not trace:
        outcome.samples = closed_loop([send], seconds, outcome.probe, done)
        return
    outcome.samples = closed_loop([send], seconds / 2, outcome.probe)
    tracer = Tracer()

    def traced_send():
        with tracer.request(len(outcome.served)):
            return send()

    with tracer.installed():
        outcome.traced = closed_loop([traced_send], seconds / 2,
                                     outcome.probe)
    outcome.tracer = tracer
    outcome.layers = layer_metrics(tracer.spans)


# ----------------------------------------------------------------------
# cold-compile
# ----------------------------------------------------------------------
_FRESH_INTERPRETER = """
import json, sys
from repro.cache.store import ArtifactCache
from repro.service.batch import execute_request, request_from_dict
response = execute_request(request_from_dict(json.loads(sys.argv[1])),
                           ArtifactCache())
sys.exit(1 if response.failed else 0)
"""


def fresh_interpreter_setup(root: Path, request: CompileRequest) -> float:
    """Seconds for a new interpreter to import and serve one request."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", _FRESH_INTERPRETER,
                              json.dumps(request.to_dict())],
                             cwd=root, env=env, stdin=subprocess.DEVNULL,
                             stdout=subprocess.DEVNULL)
    # a blocking wait sees the exit at once; wait(timeout=...) polls
    # in steps of up to 50 ms, which would quantise the measurement
    limit = threading.Timer(120.0, child.kill)
    limit.start()
    try:
        code = child.wait()
    finally:
        limit.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"fresh-interpreter set-up exited {code}")
    return elapsed


def run_cold(root: Path, profile: Profile, seed: int, seconds: float,
             trace: bool) -> Outcome:
    pin_to_one_core()
    outcome = Outcome()
    setup_request = make_request(profile.setup_shape,
                                 seed * SEED_STRIDE + SEED_STRIDE - 1)
    for _ in range(SETUP_REPEATS):
        outcome.probe.measure()
        outcome.setup_s.append(fresh_interpreter_setup(root, setup_request))
    cache = ArtifactCache()
    counter = itertools.count()
    cycle = len(profile.cold_shapes)

    def serve():
        return _serve_in_process(cold_request(profile, seed, next(counter)),
                                 cache)

    def done():
        count = len(outcome.served)
        return count >= profile.cold_quality and count % cycle == 0

    outcome.block = cycle
    _in_process_timed(outcome, serve, seconds, trace, done)
    outcome.peak_rss_mb = _self_rss_mb()
    check_cold(outcome, profile, cache)
    return outcome


def check_cold(outcome: Outcome, profile: Profile,
               cache: ArtifactCache) -> None:
    """Verify every served cold response against its stored circuit.

    The circuit is re-served from the artifacts the timed phase stored,
    so it is the one the response reports on; the verifier counts its
    SWAPs, gates and depth itself, so the response's figures are checked
    against the circuit, not against the program's own count.
    """
    for item in outcome.served:
        if item.error is not None:
            continue
        reference, all_hits = checks.replay(item.request, cache)
        _check_against(outcome, item, reference,
                       [] if all_hits else
                       ["artifacts of the timed phase were evicted"])
    outcome.quality = [item.response for item in
                       outcome.served[:profile.cold_quality]
                       if item.response is not None]


def _check_against(outcome: Outcome, item: Served,
                   reference: checks.Reference,
                   problems: list[str] | None = None) -> None:
    """Count ``item`` wrong unless it equals a verified ``reference``."""
    problems = list(problems or []) + reference.problems + [
        f"field {name} differs"
        for name in checks.mismatches(item.response, reference.response)]
    if problems:
        outcome.wrong += 1
        if len(outcome.problems) < 5:
            request = item.request
            outcome.problems.append(
                f"{request.benchmark} n={request.n_qubits} "
                f"{request.device}/{request.gateset} seed={request.seed}: "
                f"{'; '.join(problems[:3])}")


# ----------------------------------------------------------------------
# warm-rebind and serve-http share the mix and its checks
# ----------------------------------------------------------------------
def warm_set(profile: Profile, seed: int) -> list[CompileRequest]:
    """Requests the warm set-up compiles: the hot set and one structure."""
    return hot_set(profile) + [setup_bound_request(profile, seed)]


def check_warm(outcome: Outcome, profile: Profile, seed: int) -> None:
    """Compare every served warm response with a cold compile of it.

    Bound requests of the structure are compiled with the assignment the
    structure's cold compile found (the search is angle-independent), so
    each costs one pass over the pipeline without the mapping search;
    that this shortcut reproduces the full cold compile is itself
    checked on the set-up's bound request.
    """
    references = {request.key(): checks.cold_reference(request)
                  for request in warm_set(profile, seed)}
    structure = setup_bound_request(profile, seed)
    assignment = references[structure.key()].assignment
    shortcut = checks.cold_reference(structure, initial=assignment)
    if shortcut.response != references[structure.key()].response:
        raise RuntimeError("a bound reference with the cold assignment "
                           "differs from the full cold compile")
    for item in outcome.served:
        if item.error is not None:
            continue
        key = item.request.key()
        reference = references.get(key)
        if reference is None:
            reference = checks.cold_reference(item.request,
                                              initial=assignment)
            references[key] = reference
        _check_against(outcome, item, reference)
    outcome.quality = [references[request.key()].response
                       for request in warm_set(profile, seed)]


def run_warm(root: Path, profile: Profile, seed: int, seconds: float,
             trace: bool) -> Outcome:
    pin_to_one_core()
    outcome = Outcome()
    for _ in range(SETUP_REPEATS):
        outcome.probe.measure()
        start = time.perf_counter()
        cache, structurals = ArtifactCache(), {}
        for request in warm_set(profile, seed):
            execute_request(request, cache, structurals)
        outcome.setup_s.append(time.perf_counter() - start)
    stream = warm_stream(profile, seed, 0)
    outcome.block = WARM_BLOCK
    _in_process_timed(
        outcome, lambda: _serve_in_process(next(stream), cache, structurals),
        seconds, trace)
    outcome.peak_rss_mb = _self_rss_mb()
    check_warm(outcome, profile, seed)
    return outcome


def _serve_clients(port: int, seconds: float, streams: list,
                   outcome: Outcome) -> list[Sample]:
    """Run one closed-loop HTTP client per stream for ``seconds``."""
    clients = [CompileClient(port=port, retries=0, timeout_s=60.0)
               for _ in streams]
    served: list[list[Served]] = [[] for _ in streams]

    def sender(index: int):
        client, stream = clients[index], streams[index]

        def send():
            request = next(stream)
            try:
                served[index].append(Served(request,
                                            response=client.compile(request)))
            except ServiceError as exc:   # 429, 503, connection: failed
                served[index].append(Served(request, error=str(exc)))
                return 0
            return 1

        return send

    try:
        samples = closed_loop([sender(index) for index in range(len(streams))],
                              seconds, outcome.probe)
    finally:
        for client in clients:
            client.close()
    for items in served:
        outcome.served.extend(items)
    return samples


def _service_layers(before: dict, after: dict, samples: list[Sample],
                    requests: int, refused: int) -> dict[str, float]:
    """Service-layer metrics from two ``/metrics`` snapshots."""
    def delta(*path):
        a, b = before, after
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (b or 0) - (a or 0)

    compiled = max(1, delta("latency", "request", "count"))
    request_s = delta("latency", "request", "total_s") / compiled
    queue_s = (delta("latency", "queue_wait", "total_s")
               / max(1, delta("latency", "queue_wait", "count")))
    hits = delta("cache", "default", "hits")
    misses = delta("cache", "default", "misses")
    mapping_misses = delta("cache", "default", "per_pass", "mapping",
                           "misses")
    per_request = max(1, requests)
    return {
        "service.queue_wait_ms": 1000.0 * queue_s,
        "service.exec_ms": 1000.0 * (request_s - queue_s),
        "service.coalesced_frac": (delta("requests", "coalesced")
                                   / max(1, delta("requests", "received"))),
        "service.rejected": float(delta("requests", "rejected_queue_full")
                                  + refused),
        "service.http_ms": 1000.0 * (
            float(np.mean([sample.latency_s for sample in samples]))
            - request_s),
        "pipeline.request_ms": 1000.0 * request_s,
        "mapping.calls": (mapping_misses
                          + delta("requests", "structural_compiles"))
        / per_request,
        "cache.lookups": (hits + misses) / per_request,
        "cache.hit_frac": hits / max(1, hits + misses),
    }


def run_serve(root: Path, profile: Profile, seed: int, seconds: float,
              trace: bool) -> Outcome:
    outcome = Outcome()
    servers: list[ServerProcess] = []
    try:
        for _ in range(SETUP_REPEATS):
            if servers:
                servers[-1].stop()
            outcome.probe.measure()
            start = time.perf_counter()
            servers.append(ServerProcess(root))
            servers[-1].start()
            with CompileClient(port=servers[-1].port, retries=0,
                               timeout_s=60.0) as client:
                for request in warm_set(profile, seed):
                    client.compile(request)
            outcome.setup_s.append(time.perf_counter() - start)
        server = servers[-1]
        streams = [warm_stream(profile, seed, client)
                   for client in range(SERVE_CLIENTS)]
        outcome.block = WARM_BLOCK
        if trace:
            outcome.samples = _serve_clients(server.port, seconds / 2,
                                             streams, outcome)
            seconds /= 2
        with CompileClient(port=server.port, retries=0) as probe:
            before = probe.metrics()
            served_before = len(outcome.served)
            samples = _serve_clients(server.port, seconds, streams, outcome)
            after = probe.metrics()
        if trace:
            outcome.traced = samples
            phase = outcome.served[served_before:]
            refused = sum(1 for item in phase if item.error is not None)
            outcome.layers = _service_layers(before, after, samples,
                                             len(phase), refused)
        else:
            outcome.samples = samples
        outcome.peak_rss_mb = server.peak_rss_mb()
    finally:
        for server in servers:
            server.stop()
    check_warm(outcome, profile, seed)
    return outcome


# ----------------------------------------------------------------------
# batch-fanout
# ----------------------------------------------------------------------
def run_batch(root: Path, profile: Profile, seed: int, seconds: float,
              trace: bool) -> Outcome:
    outcome = Outcome()
    compiler = BatchCompiler(jobs=BATCH_JOBS)
    setup_batch = [make_request(profile.setup_shape,
                                seed * SEED_STRIDE + SEED_STRIDE - 1 - k)
                   for k in range(BATCH_JOBS)]
    for _ in range(SETUP_REPEATS):
        outcome.probe.measure()
        start = time.perf_counter()
        responses, _ = compiler.run(setup_batch)
        if any(response.failed for response in responses):
            raise RuntimeError(f"set-up batch failed: "
                               f"{[r.error for r in responses]}")
        outcome.setup_s.append(time.perf_counter() - start)
    counter = itertools.count()
    computed: list[tuple[float, float, list]] = []    # wall, seconds, resp

    def send():
        requests = batch(profile, seed, next(counter))
        start = time.perf_counter()
        responses, _ = compiler.run(requests)
        wall = time.perf_counter() - start
        fresh = [r for r in responses if not r.deduplicated]
        computed.append((wall, sum(r.seconds for r in fresh), responses))
        for request, response in zip(requests, responses):
            outcome.served.append(
                Served(request, error=response.error) if response.failed
                else Served(request, response=response.to_dict()))
        return sum(1 for response in responses if not response.failed)

    batches_per_pool = -(-profile.batch_pool // profile.batch_unique)

    def done():
        return len(computed) >= batches_per_pool

    outcome.block = BATCH_BLOCK
    if trace:
        outcome.samples = closed_loop([send], seconds / 2, outcome.probe)
        computed.clear()
        outcome.traced = closed_loop([send], seconds / 2, outcome.probe)
        outcome.layers = _batch_layers(computed)
    else:
        outcome.samples = closed_loop([send], seconds, outcome.probe, done)
    outcome.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    references = {request.key(): checks.cold_reference(request)
                  for request in batch_pool(profile, seed)}
    for item in outcome.served:
        if item.error is None:
            _check_against(outcome, item, references[item.request.key()])
    outcome.quality = [reference.response
                       for reference in references.values()]
    return outcome


def _batch_layers(computed: list) -> dict[str, float]:
    """Layer numbers of the pool workers, from response timings."""
    walls = sum(wall for wall, _, _ in computed)
    busy = sum(seconds for _, seconds, _ in computed)
    responses = [r for _, _, batch_responses in computed
                 for r in batch_responses]
    fresh = [r for r in responses if not r.deduplicated]
    per_request = max(1, len(responses))

    def pass_ms(name: str) -> float:
        return 1000.0 * sum(r.timings.get(name, 0.0)
                            for r in fresh) / per_request

    lookups = sum(len(r.cache_events) for r in fresh)
    hits = sum(r.cache_hits for r in fresh)
    return {
        "batch.compute_ms": 1000.0 * busy / max(1, len(fresh)),
        "batch.pool_idle_frac": 1.0 - busy / max(1e-9, BATCH_JOBS * walls),
        "pipeline.request_ms": 1000.0 * busy / per_request,
        "unify.ms": pass_ms("unify"),
        "mapping.ms": pass_ms("mapping"),
        "mapping.calls": sum(1 for r in fresh
                             if r.cache_events.get("mapping") == "miss")
        / per_request,
        "routing.ms": pass_ms("routing"),
        "scheduling.ms": pass_ms("scheduling"),
        "bind.ms": pass_ms("binding"),
        "decompose.ms": pass_ms("decomposition"),
        "cache.lookups": lookups / per_request,
        "cache.hit_frac": hits / max(1, lookups),
    }


RUNNERS = {
    "cold-compile": run_cold,
    "warm-rebind": run_warm,
    "serve-http": run_serve,
    "batch-fanout": run_batch,
}

#: The tail percentile each workload reports: the highest of 70, 75, 90,
#: 95 and 99 that leaves at least ten samples beyond it at HEAD (run.py
#: warns when a run has fewer).  On cold-compile p75 also falls inside
#: one shape's latency cluster (n=34) rather than between two.
TAIL_PERCENTILE = {
    "cold-compile": 75.0,
    "warm-rebind": 95.0,
    "serve-http": 95.0,
    "batch-fanout": 70.0,
}
