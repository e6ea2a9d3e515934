"""Serving workers: one worker loop, run in-process or in a fork child.

:class:`InlineWorker` is the only worker loop.  It hosts one
:class:`repro.serve.runtime.InferenceServer` per artifact, each
slot-batching its own queue by the cost/deadline rule, and reports
everything observable about itself as one telemetry bundle: its
:class:`repro.obs.MetricsRegistry` payload plus the trace spans it
recorded since the last bundle.

:class:`ProcessWorker` runs that same loop in a ``fork`` child and is
only a pipe transport: each call sends ``(method, args)`` to the
child's :class:`InlineWorker` and returns the result, or raises
:class:`WorkerDiedError`.  Routing, admission and the conservation
counters live in :class:`repro.serve.api.Server`, which owns the worker
list.

Workers open artifacts through :class:`repro.serve.mmapio.ArtifactMap`:
the weight and pre-encoded plaintext tables are mmapped once per
machine, so per-worker RSS stays flat as the pool grows
(``verify_mmap_tables`` asserts no worker ever copied them).
"""

from __future__ import annotations

import os
import queue
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import kernels
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.serve.artifact import ServingArtifact
from repro.serve.keys import KeyRegistry, default_backend_factory
from repro.serve.mmapio import ArtifactMap, is_mmap_backed
from repro.serve.runtime import InferenceServer, ServeResult

#: Registry client id under which each worker's own serving backend is
#: adopted (and pinned for the worker's lifetime): the pool backend is
#: permanently in flight, so the LRU may spill cold *tenant* keys around
#: it but never the keys requests are being served under.
POOL_CLIENT_ID = "__pool__"

#: How often a parent blocked on a process worker checks that the child
#: is still alive.
_POLL_SECONDS = 0.1


class AdmissionError(RuntimeError):
    """The server refused a request (backpressure).

    Attributes:
        retry_after_ms: the server's hint for when capacity should
            free up (modeled batch latency, or the backlog's overhang
            past the latency budget).
        worker_id: the worker the request routed to.
        queue_depth: that worker's queue depth at refusal time.
    """

    def __init__(
        self,
        message: str,
        retry_after_ms: float,
        worker_id: int,
        queue_depth: int,
    ):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms
        self.worker_id = worker_id
        self.queue_depth = queue_depth


class WorkerDiedError(RuntimeError):
    """A process worker exited, or reported an error and stopped.

    Attributes:
        worker_id: the worker that died.
        exitcode: the child's exit code (negative: killed by that
            signal), or ``None`` if it had not exited yet.
    """

    def __init__(self, worker_id: int, exitcode: Optional[int], detail: str = ""):
        message = f"worker {worker_id} died (exit code {exitcode})"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.worker_id = worker_id
        self.exitcode = exitcode


@dataclass(frozen=True)
class WorkerProfile:
    """What admission control knows about one (worker, artifact) lane."""

    capacity: int
    modeled_seconds: float
    mmap_backed: bool


def verify_mmap_tables(server: InferenceServer, artifact_path: str) -> bool:
    """Assert the worker's tables are mmap-backed views, never copies.

    Checks both table tiers an artifact ships: the float diagonal/bias
    weight tables inside every linear instruction, and the pre-encoded
    RNS plaintext polynomials preloading installed into the backend's
    caches.  Raises ``RuntimeError`` naming the offender on violation —
    a copied table silently multiplies fleet RSS by the worker count,
    which is exactly the regression this guard exists to catch.
    """
    from repro.core.program import LinearInstr

    for instr in server.program.instructions:
        if not isinstance(instr, LinearInstr):
            continue
        packed = instr.packed
        for (bo, bi), dmap in packed.diags.items():
            for off, vec in dmap.items():
                if not is_mmap_backed(vec):
                    raise RuntimeError(
                        f"{artifact_path}: weight diagonal "
                        f"{instr.name}[bo={bo},bi={bi},off={off}] was "
                        "copied off the artifact map"
                    )
        if packed.bias_vecs is not None:
            for vec in packed.bias_vecs:
                if not is_mmap_backed(vec):
                    raise RuntimeError(
                        f"{artifact_path}: bias table of {instr.name} was "
                        "copied off the artifact map"
                    )
        per_backend = packed._pt_cache.get(server.backend)
        if not per_backend:
            continue
        # Only the ("fused", ...) caches hold the artifact's pre-encoded
        # tables (artifact.preload installs them there); zero/bias
        # plaintexts under other keys are small runtime encodes, not
        # table copies.
        for key, cache in per_backend.items():
            if not (isinstance(key, tuple) and key and key[0] == "fused"):
                continue
            for pt, _pt_ext in cache.values():
                if not is_mmap_backed(pt.poly.data):
                    raise RuntimeError(
                        f"{artifact_path}: pre-encoded plaintext table of "
                        f"{instr.name} was copied off the artifact map"
                    )
    return True


@dataclass(frozen=True)
class ArtifactSpec:
    """One artifact hosted by the pool."""

    artifact_id: str
    path: Optional[str] = None
    artifact: Optional[ServingArtifact] = None

    def __post_init__(self):
        if self.path is None and self.artifact is None:
            raise ValueError("ArtifactSpec needs a path or a loaded artifact")


class InlineWorker:
    """One shard: an :class:`InferenceServer` per hosted artifact.

    Every worker of a pool holds the same key domain (the backend
    factory is called with ``key_seed``, bit-identical keygen), so any
    worker's response decrypts under the pool key and a solo replay
    with ``key_seed`` reproduces any worker bit-for-bit.

    Each (worker, artifact) lane also gets a
    :class:`repro.serve.keys.KeyRegistry` over the artifact's manifest:
    the worker's backend is *adopted* and pinned under
    :data:`POOL_CLIENT_ID`, so the registry's resident/spilled key-bytes
    accounting covers the pool and any per-tenant backends share its
    LRU/pin/spill discipline.

    ``shared_artifacts`` lets the workers of one process share a single
    load of each mmapped artifact (the program object and its mapped
    tables); per-worker state lives in the backends.
    """

    def __init__(
        self,
        worker_id: int,
        specs: Tuple[ArtifactSpec, ...],
        *,
        key_seed: int = 0,
        key_cache_dir: Optional[str] = None,
        max_tenants: int = 16,
        batching: bool = True,
        batch_window_seconds: float = 0.05,
        backend_factory: Optional[Callable] = None,
        tracing: bool = False,
        trace_sample_rate: float = 1.0,
        shared_artifacts: Optional[Dict[str, ServingArtifact]] = None,
    ):
        self.worker_id = worker_id
        self.specs = {spec.artifact_id: spec for spec in specs}
        #: one tracer per worker shard — its spans become this worker's
        #: track in the Chrome-trace export.
        self.tracer = Tracer(sample_rate=trace_sample_rate) if tracing else None
        if tracing:
            # Kernel dispatch counting is opt-in (a dict increment on the
            # hot path); only a tracing pool pays for it.
            kernels.enable_dispatch_counts()
        # Cumulative process-wide kernel dispatch counts accumulated from
        # the registry's destructive drain (see metrics_registry).
        self._dispatch_totals: Dict[str, int] = {}
        self._batching = batching
        self._batch_window_seconds = batch_window_seconds
        self._shared = shared_artifacts
        self.servers: Dict[str, InferenceServer] = {}
        self.profiles: Dict[str, WorkerProfile] = {}
        self.registries: Dict[str, KeyRegistry] = {}
        factory = backend_factory or default_backend_factory
        for artifact_id, spec in self.specs.items():
            artifact = self._load(spec)
            backend = factory(artifact.manifest.to_params(), key_seed)
            registry = KeyRegistry(
                artifact.manifest,
                backend_factory=factory,
                max_clients=max_tenants,
                cache_dir=key_cache_dir,
            )
            registry.adopt(POOL_CLIENT_ID, backend)
            registry.pin(POOL_CLIENT_ID)
            self.registries[artifact_id] = registry
            self._install(spec, artifact, backend)
        # Inner (per-server) ticket -> the server's pool-global ticket.
        self._tickets: Dict[Tuple[str, int], int] = {}
        self._stepped: List[ServeResult] = []

    def _load(self, spec: ArtifactSpec) -> ServingArtifact:
        if spec.path is None:
            return spec.artifact
        if self._shared is not None and spec.artifact_id in self._shared:
            return self._shared[spec.artifact_id]
        artifact = ArtifactMap(spec.path).load()
        if self._shared is not None:
            self._shared[spec.artifact_id] = artifact
        return artifact

    def _install(self, spec: ArtifactSpec, artifact, backend) -> WorkerProfile:
        server = InferenceServer(
            artifact,
            backend,
            batching=self._batching,
            max_wait_seconds=self._batch_window_seconds,
            tracer=self.tracer,
        )
        mmapped = spec.path is not None
        if mmapped:
            verify_mmap_tables(server, spec.path)
        self.servers[spec.artifact_id] = server
        profile = WorkerProfile(
            capacity=server.scheduler.capacity,
            modeled_seconds=server.scheduler.modeled_run_seconds,
            mmap_backed=mmapped,
        )
        self.profiles[spec.artifact_id] = profile
        return profile

    # -- intake ------------------------------------------------------------
    def submit(
        self,
        ticket: int,
        artifact_id: str,
        client_id: str,
        payload,
        now: Optional[float],
        deadline: Optional[float],
    ) -> None:
        inner = self.servers[artifact_id].submit(
            payload, client_id=client_id, now=now, deadline=deadline
        )
        self._tickets[(artifact_id, inner)] = ticket

    def serve_now(
        self, ticket: int, artifact_id: str, client_id: str, payload
    ) -> ServeResult:
        result = self.servers[artifact_id].serve_now(payload, client_id=client_id)
        return self._stamp(result, artifact_id, ticket)

    # -- execution ---------------------------------------------------------
    def step(self, now: Optional[float]) -> List[ServeResult]:
        """Run every due batch of every hosted artifact."""
        return [
            self._stamp(result, artifact_id)
            for artifact_id, server in self.servers.items()
            for result in server.step(now)
        ]

    def begin_step(self, now: Optional[float]) -> None:
        # In-process there is nothing to overlap: run the step now.
        self._stepped = self.step(now)

    def finish_step(self) -> List[ServeResult]:
        results, self._stepped = self._stepped, []
        return results

    def drain(self) -> List[ServeResult]:
        return [
            self._stamp(result, artifact_id)
            for artifact_id, server in self.servers.items()
            for result in server.drain()
        ]

    def warm(self, batch_sizes=None) -> None:
        for server in self.servers.values():
            server.warm(batch_sizes=batch_sizes)

    def reload(self, artifact_id: str) -> WorkerProfile:
        """Hot-swap a new artifact version into this worker.

        Re-opens the artifact's path (whose bytes the caller has already
        replaced — e.g. via
        :func:`repro.serve.artifact.apply_artifact_delta` — so the
        ``<path>.mmap`` stamp discipline re-extracts automatically) and
        rebuilds the lane's :class:`InferenceServer` around it.  The
        existing backend is **reused**: a weight update must not rotate
        the key domain out from under clients that hold ciphertexts, so
        the swapped-in artifact is required to carry the *same* key
        manifest.  Returns the refreshed :class:`WorkerProfile`.
        """
        spec = self.specs[artifact_id]
        if spec.path is None:
            raise ValueError(
                f"artifact {artifact_id!r} was opened in-memory; hot "
                "reload needs a path-backed artifact"
            )
        artifact = self._load(spec)
        registry = self.registries[artifact_id]
        if artifact.manifest.fingerprint() != registry.manifest.fingerprint():
            raise RuntimeError(
                f"artifact {artifact_id!r}: reload changes the key manifest "
                "— tenants hold ciphertexts under the current keys; open a "
                "new server for key-incompatible artifacts"
            )
        return self._install(spec, artifact, self.servers[artifact_id].backend)

    def _stamp(
        self, result: ServeResult, artifact_id: str, ticket: Optional[int] = None
    ) -> ServeResult:
        if ticket is None:
            ticket = self._tickets.pop((artifact_id, result.ticket))
        result.ticket = ticket
        result.artifact_id = artifact_id
        result.worker_id = self.worker_id
        return result

    # -- observability -----------------------------------------------------
    def metrics_registry(self) -> MetricsRegistry:
        """This worker's counters/gauges/histograms as a fresh
        :class:`repro.obs.MetricsRegistry` snapshot (naming scheme:
        docs/observability.md).  :meth:`repro.serve.WorkerStats.
        from_registry` derives the worker's stats row from it."""
        registry = MetricsRegistry()
        worker = str(self.worker_id)
        for artifact_id, server in self.servers.items():
            labels = {"worker": worker, "artifact": artifact_id}
            registry.counter(
                "repro_serve_requests_total",
                server.requests_served,
                help="Requests served (slot-batched or single).",
                **labels,
            )
            registry.counter(
                "repro_serve_batches_total",
                server.batches_run,
                help="Batched program executions run.",
                **labels,
            )
            registry.counter(
                "repro_modeled_seconds_total",
                server.ledger.seconds,
                help="Cost-model seconds charged by the op ledger.",
                **labels,
            )
            for op, count in sorted(server.ledger.counts.items()):
                registry.counter(
                    "repro_fhe_ops_total",
                    count,
                    help="FHE primitive operations executed, by op.",
                    op=op,
                    **labels,
                )
            noise = server.noise.stats()
            for op, count in (
                ("rescale", noise["rescales"]),
                ("mod_down", noise["mod_downs"]),
                ("bootstrap", noise["bootstraps"]),
            ):
                registry.counter(
                    "repro_noise_boundary_total",
                    count,
                    help="Modulus-chain boundary events, by boundary op.",
                    op=op,
                    **labels,
                )
            registry.gauge(
                "repro_serve_queue_depth",
                len(server.scheduler),
                help="Requests waiting in the slot-batching queue.",
                **labels,
            )
            registry.gauge(
                "repro_serve_capacity",
                server.scheduler.capacity,
                help="Slot-batch capacity (requests per ciphertext).",
                **labels,
            )
            registry.gauge(
                "repro_serve_preloaded_plaintexts",
                server.preloaded_plaintexts,
                help="Pre-encoded plaintexts installed at load.",
                **labels,
            )
            registry.gauge(
                "repro_serve_compilations_since_load",
                server.compilations_since_load,
                help="Compiler runs since the artifact was loaded (0 = pure).",
                **labels,
            )
            registry.gauge(
                "repro_serve_placements_since_load",
                server.placements_since_load,
                help="Placement-planner runs since the artifact was loaded.",
                **labels,
            )
            registry.gauge(
                "repro_serve_mmap_backed",
                int(self.profiles[artifact_id].mmap_backed),
                help="1 when the artifact tables are shared mmap views.",
                **labels,
            )
            if noise["min_level"] is not None:
                registry.gauge(
                    "repro_noise_min_level",
                    noise["min_level"],
                    help="Lowest ciphertext level any boundary op reached.",
                    **labels,
                )
            registry.gauge(
                "repro_noise_max_scale_drift_log2",
                noise["max_scale_drift_log2"],
                help="Max |log2(scale/Delta)| seen after a boundary op.",
                **labels,
            )
            key_registry = self.registries[artifact_id]
            for state, value in sorted(key_registry.key_bytes().items()):
                registry.gauge(
                    "repro_key_material_bytes",
                    value,
                    help="Key-registry material bytes, by residency.",
                    state=state,
                    **labels,
                )
            for state, count in (
                ("resident", len(key_registry)),
                ("spilled", key_registry.spilled_count()),
            ):
                registry.gauge(
                    "repro_key_tenants",
                    count,
                    help="Clients whose key chains are held, by residency.",
                    state=state,
                    **labels,
                )
            registry.counter(
                "repro_key_spills_total",
                key_registry.spill_count,
                help="Tenant key chains demoted to spill files.",
                **labels,
            )
            registry.counter(
                "repro_key_promotes_total",
                key_registry.promote_count,
                help="Tenant key chains promoted back from disk.",
                **labels,
            )
            registry.record_histogram(
                "repro_request_latency_seconds",
                server.request_latency,
                help="Wall-clock latency per served request.",
                **labels,
            )
            for phase, histogram in sorted(server.op_histograms.items()):
                registry.record_histogram(
                    "repro_phase_modeled_seconds",
                    histogram,
                    help="Modeled seconds per batch, by program phase.",
                    phase=phase,
                    **labels,
                )
        # Dispatch counts are process-global (the kernel registry is a
        # module singleton), so this metric carries no worker label:
        # whichever worker drains first claims the counts, and summing
        # across workers always yields the true process total.
        for kernel, count in kernels.drain_dispatch_counts().items():
            self._dispatch_totals[kernel] = (
                self._dispatch_totals.get(kernel, 0) + count
            )
        for kernel, count in sorted(self._dispatch_totals.items()):
            registry.counter(
                "repro_kernel_dispatch_total",
                count,
                help="Kernel registry dispatches (process-wide).",
                kernel=kernel,
            )
        return registry

    def telemetry(self) -> Dict:
        """The one plain-JSON telemetry bundle of this worker: its
        metrics payload plus the trace-span backlog.  ``trace`` has
        drain semantics — each completed root span is returned exactly
        once — so callers accumulate without deduplicating."""
        tracer = self.tracer
        return {
            "metrics": self.metrics_registry().to_payload(),
            "trace": tracer.drain() if tracer is not None else [],
            "clock_offset": tracer.clock_offset if tracer is not None else 0.0,
            "dropped_roots": tracer.dropped_roots if tracer is not None else 0,
        }

    def close(self) -> None:
        pass


# -- process workers --------------------------------------------------------


def _serve_in_child(
    worker_id: int,
    specs: Tuple[ArtifactSpec, ...],
    options: Dict,
    requests,
    responses,
) -> None:
    """Child entry point: build an :class:`InlineWorker` over the same
    artifact files as every sibling (shared page-cache residency), then
    run each ``(method, args)`` message against it until ``None``.

    Answers ``("ok", result)`` per message (the first one carries the
    worker's profiles), or ``("error", repr)`` once and exits.
    """
    try:
        worker = InlineWorker(worker_id, specs, **options)
        responses.put(("ok", worker.profiles))
        while True:
            method, args = requests.get()
            if method is None:
                return
            responses.put(("ok", getattr(worker, method)(*args)))
    except Exception as exc:  # fail loudly upstream, as WorkerDiedError
        responses.put(("error", repr(exc)))


class ProcessWorker:
    """An :class:`InlineWorker` in a ``fork`` child, behind a pipe.

    Same methods as :class:`InlineWorker`; each sends ``(method, args)``
    and returns the child's result.  ``begin_step`` only sends, so a
    server can start every child's step before it waits for any.
    """

    def __init__(self, worker_id: int, specs: Tuple[ArtifactSpec, ...], **options):
        import multiprocessing

        for spec in specs:
            if spec.path is None:
                raise ValueError(
                    "process workers need artifact paths (shared mmap), "
                    f"got an in-memory artifact for {spec.artifact_id!r}"
                )
        if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only guard
            raise RuntimeError("process mode requires a fork-capable platform")
        context = multiprocessing.get_context("fork")
        self.worker_id = worker_id
        self._requests = context.Queue()
        self._responses = context.Queue()
        self._process = context.Process(
            target=_serve_in_child,
            args=(worker_id, specs, options, self._requests, self._responses),
            daemon=True,
        )
        self._process.start()
        self.profiles: Dict[str, WorkerProfile] = self._receive()

    def _send(self, method: str, *args) -> None:
        self._requests.put((method, args))

    def _receive(self):
        """The child's answer to the oldest unanswered message.

        Polls so that a child which dies instead of answering raises
        :class:`WorkerDiedError` within ~``_POLL_SECONDS`` rather than
        blocking forever; an ``"error"`` answer raises it too.
        """
        while True:
            # Checked before the wait: a child that exited had already
            # flushed everything it sent, so an empty wait after a
            # dead check means no answer is coming.
            alive = self._process.is_alive()
            try:
                status, value = self._responses.get(timeout=_POLL_SECONDS)
                break
            except queue.Empty:
                if not alive:
                    raise WorkerDiedError(
                        self.worker_id, self._process.exitcode
                    ) from None
        if status == "error":
            # The child returns right after reporting; reap it so the
            # error carries its exit code.
            self._process.join(timeout=5.0)
            raise WorkerDiedError(self.worker_id, self._process.exitcode, value)
        return value

    def _call(self, method: str, *args):
        self._send(method, *args)
        return self._receive()

    def submit(self, ticket, artifact_id, client_id, payload, now, deadline) -> None:
        self._call("submit", ticket, artifact_id, client_id, payload, now, deadline)

    def serve_now(self, ticket, artifact_id, client_id, payload) -> ServeResult:
        return self._call("serve_now", ticket, artifact_id, client_id, payload)

    def begin_step(self, now: Optional[float]) -> None:
        self._send("step", now)

    def finish_step(self) -> List[ServeResult]:
        return self._receive()

    def drain(self) -> List[ServeResult]:
        return self._call("drain")

    def warm(self, batch_sizes=None) -> None:
        self._call("warm", batch_sizes)

    def reload(self, artifact_id: str) -> WorkerProfile:
        profile = self._call("reload", artifact_id)
        self.profiles[artifact_id] = profile
        return profile

    def telemetry(self) -> Optional[Dict]:
        """The child's telemetry bundle, or ``None`` once it is gone."""
        if not self._process.is_alive():
            return None
        return self._call("telemetry")

    def close(self) -> None:
        if self._process.is_alive():
            self._send(None)
            self._process.join(timeout=10.0)
            if self._process.is_alive():  # pragma: no cover - stuck child
                self._process.terminate()
                self._process.join(timeout=5.0)
