"""``repro.serve`` — the policy deployment service and async gateway.

The paper's headline claim is deployment: a trained policy automatically
finds device parameters for *given specifications* (Sec. 4, Table 2,
Figs. 5-6).  This package turns that into a train-once / serve-many
subsystem:

* :class:`DeploymentService` — holds checkpointed policies (one per
  environment/topology), accepts many specification targets, groups them by
  topology, and micro-batches the episodes through a shared cached simulator
  via the grad-free batched deployment engine
  (:func:`repro.agents.deploy_policy_batch`);
* :class:`Gateway` — the async front door: per-request futures, deadline-
  based dynamic batching, a sharded worker pool, structured error responses
  (:mod:`repro.serve.gateway`; :class:`ProcessShardPool` is its
  multi-process backend);
* :class:`ServeRequest` / :class:`ServeResponse` / :class:`ServeError` —
  the versioned wire protocol (``schema_version`` 1), with strict
  ``to_json`` / ``from_json`` round-tripping
  (:mod:`repro.serve.protocol`);
* :func:`load_requests_document` — parse the v1 request documents consumed
  by the ``python -m repro.run deploy`` / ``serve`` CLIs
  (:mod:`repro.serve.cli`).

Quickstart::

    import repro
    from repro.serve import DeploymentService, Gateway, ServeRequest

    service = DeploymentService.from_checkpoint("ckpt/latest.npz", batch_size=8)
    with Gateway(service, num_workers=2) as gateway:
        future = gateway.submit(ServeRequest(target_specs={
            "gain": 350.0, "bandwidth": 1.8e7,
            "phase_margin": 55.0, "power": 4e-3,
        }))
        response = future.result()
        print(response.success, response.steps, response.final_parameters)
"""

from repro.serve.gateway import Gateway, ProcessShardPool, RequestQueue
from repro.serve.protocol import (
    SCHEMA_VERSION,
    ServeError,
    ServeRequest,
    ServeResponse,
    load_requests_document,
    parse_requests_document,
)
from repro.serve.service import DeploymentService, ServeStats, ServeStatsSnapshot

__all__ = [
    "SCHEMA_VERSION",
    "DeploymentService",
    "Gateway",
    "ProcessShardPool",
    "RequestQueue",
    "ServeError",
    "ServeRequest",
    "ServeResponse",
    "ServeStats",
    "ServeStatsSnapshot",
    "load_requests_document",
    "parse_requests_document",
]
