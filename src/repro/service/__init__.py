"""Compilation service: batch front end, server, and client SDK.

Three layers over the compiler registry plus the content-addressed
cache (:mod:`repro.cache`):

* :mod:`repro.service.batch` -- callers describe work as
  :class:`CompileRequest` values; a :class:`BatchCompiler` serves a
  list of them synchronously through a :class:`CompileService` it owns
  (deduplicated, one artifact cache across batches, supervised worker
  processes with ``jobs > 1``).
* :mod:`repro.service.server` -- compilation as a service: an asyncio
  HTTP front end over a bounded priority :class:`JobQueue` with
  in-flight coalescing, per-tenant cache salting, a ``/metrics``
  endpoint and graceful shutdown.
* :mod:`repro.service.client` -- :class:`CompileClient`, a retrying
  stdlib HTTP client for the server.

Fault tolerance lives in two side modules: :mod:`repro.service.journal`
(the accepted-job write-ahead log behind ``repro serve --journal``) and
:mod:`repro.service.faults` (the injectable failure hooks the chaos
tests drive).

CLI: ``python -m repro batch --requests FILE.json --jobs N --cache DIR``
and ``python -m repro serve --port 8000 --jobs 2 --cache DIR``.
"""

from repro.service.batch import (
    BatchCompiler,
    BatchSummary,
    CompileRequest,
    CompileResponse,
    assemble_responses,
    compute_request_keys,
    error_response,
    execute_request,
    request_from_dict,
)
from repro.service.client import CompileClient, ServiceError
from repro.service.faults import FaultPlan
from repro.service.journal import JobJournal
from repro.service.metrics import ServiceMetrics
from repro.service.queue import (
    Job,
    JobQueue,
    QueueClosedError,
    QueueFullError,
)
from repro.service.server import (
    CompileServer,
    CompileService,
    ServerThread,
    ServiceConfig,
    serve,
)

__all__ = [
    "BatchCompiler",
    "BatchSummary",
    "CompileClient",
    "CompileRequest",
    "CompileResponse",
    "CompileServer",
    "CompileService",
    "FaultPlan",
    "Job",
    "JobJournal",
    "JobQueue",
    "QueueClosedError",
    "QueueFullError",
    "ServerThread",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
    "assemble_responses",
    "compute_request_keys",
    "error_response",
    "execute_request",
    "request_from_dict",
    "serve",
]
