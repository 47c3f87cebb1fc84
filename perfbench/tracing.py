"""Spans recorded from outside the program, around its layer functions.

The benchmark never edits the compiler.  A :class:`Tracer` replaces each
layer's public function, under the name its callers look it up by, with
a wrapper that records one span ``[id, name, start, end, parent,
request, attr]`` in memory.  ``attr`` holds the one observation a layer
metric needs (Tabu iterations of the returned trial, matrices handed to
synthesis, whether a lookup hit).  Spans are written out as JSON lines
when the run ends, and :func:`layer_metrics` folds them into the
per-layer metrics.

A layer's self time is its span's duration minus the time its child
spans cover; every ``*_ms`` metric is mean self time per request.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path


def _iterations(args, kwargs, result):
    return int(result.iterations)


def _matrices(args, kwargs, result):
    # GateSet.decompose(self, unitary) gets one 4x4 matrix,
    # GateSet.decompose_batch(self, unitaries) a sequence of them
    unitaries = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    return 1 if getattr(unitaries, "ndim", None) == 2 else len(unitaries)


def _hit(args, kwargs, result):
    return result is not None


#: ``(module[:Class], attribute, span name, observer)``.  Module-level
#: functions are wrapped in the module that *calls* them (the pipeline
#: binds ``route`` at import, so ``repro.core.routing.route`` would be
#: the wrong target); ``execute_request`` and ``BindPass`` import their
#: helpers at call time, so those are wrapped where they are defined.
TARGETS = (
    ("repro.core.pipeline", "unify_circuit_operators", "unify", None),
    ("repro.core.pipeline", "qap_from_problem", "mapping.qap_build", None),
    ("repro.core.pipeline", "best_of_k_mapping", "mapping", _iterations),
    ("repro.core.pipeline", "route", "routing", None),
    ("repro.core.pipeline", "schedule_alap", "scheduling", None),
    ("repro.core.pipeline", "decompose_circuit", "decompose", None),
    ("repro.core.bind", "bind_scheduled", "bind", None),
    ("repro.analysis.harness", "build_step", "hamiltonians.build", None),
    ("repro.analysis.harness", "build_symbolic_step", "hamiltonians.build",
     None),
    ("repro.cache.cached", "context_key", "cache.key", None),
    ("repro.cache.store:ArtifactCache", "get", "cache.load", _hit),
    ("repro.cache.store:ArtifactCache", "put", "cache.store", None),
    ("repro.synthesis.gateset:GateSet", "decompose_batch", "synthesis",
     _matrices),
    ("repro.synthesis.gateset:GateSet", "decompose", "synthesis", _matrices),
    ("repro.core.decompose:DecomposeCache", "lookup", "decompose.memo",
     _hit),
)

ROOT_SPAN = "request"


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Wraps the layer functions while installed; keeps spans in memory.

    Single-threaded: spans nest through one stack, which holds for the
    in-process workloads (one serial client).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._request: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), name, 0.0, 0.0, parent, self._request, None]
        self.spans.append(span)
        self._stack.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if observe is not None:
                span[6] = observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for path, attribute, name, observe in TARGETS:
            owner = _owner(path)
            original = getattr(owner, attribute)
            setattr(owner, attribute, self._wrap(original, name, observe))
            self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def request(self, request_id: int):
        """The root span of one request; layer spans nest under it."""
        self._request = request_id
        span = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(span)
            self._request = None

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for sid, name, start, end, parent, request, attr in self.spans:
                handle.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "request": request, "attr": attr})
                    + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of the in-process workloads, from their spans."""
    covered: dict[int, float] = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    true_attr: dict[str, int] = {}
    attr_sum: dict[str, float] = {}
    names = {span[0]: span[1] for span in spans}
    top_matrices = 0
    root_s = 0.0
    for sid, name, start, end, parent, _, attr in spans:
        self_s[name] = self_s.get(name, 0.0) + (end - start) \
            - covered.get(sid, 0.0)
        count[name] = count.get(name, 0) + 1
        if name == ROOT_SPAN:
            root_s += end - start
        if attr is True:
            true_attr[name] = true_attr.get(name, 0) + 1
        elif isinstance(attr, int) and not isinstance(attr, bool):
            attr_sum[name] = attr_sum.get(name, 0) + attr
            if name == "synthesis" and names.get(parent) != "synthesis":
                top_matrices += attr
    requests = max(1, count.get(ROOT_SPAN, 0))

    def ms(name: str) -> float:
        return 1000.0 * self_s.get(name, 0.0) / requests

    def frac(name: str) -> float:
        return true_attr.get(name, 0) / max(1, count.get(name, 0))

    mapping_calls = count.get("mapping", 0)
    return {
        "pipeline.request_ms": 1000.0 * root_s / requests,
        "pipeline.glue_ms": ms(ROOT_SPAN),
        "hamiltonians.build_ms": ms("hamiltonians.build"),
        "cache.key_ms": ms("cache.key"),
        "cache.load_ms": ms("cache.load"),
        "cache.store_ms": ms("cache.store"),
        "cache.lookups": count.get("cache.load", 0) / requests,
        "cache.hit_frac": frac("cache.load"),
        "unify.ms": ms("unify"),
        "mapping.ms": ms("mapping"),
        "mapping.calls": mapping_calls / requests,
        "mapping.iterations": (attr_sum.get("mapping", 0)
                               / max(1, mapping_calls)),
        "mapping.qap_build_ms": ms("mapping.qap_build"),
        "routing.ms": ms("routing"),
        "scheduling.ms": ms("scheduling"),
        "bind.ms": ms("bind"),
        "decompose.ms": ms("decompose"),
        "decompose.memo_hit_frac": frac("decompose.memo"),
        "synthesis.ms": ms("synthesis"),
        "synthesis.matrices": top_matrices / requests,
    }
