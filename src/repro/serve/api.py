"""The serving front door: ``serve.open(artifact, config) -> Server``.

- :class:`ServerConfig` — one validated, frozen dataclass holding every
  serving knob (worker count, batch window, admission limits, keys);
- :func:`open` — the single entry point: give it an artifact path (or
  several, or an already-loaded :class:`ServingArtifact`) and a config,
  get a :class:`Server`;
- :class:`Server` — owns the workers (:mod:`repro.serve.pool`) and
  everything in front of them: rendezvous routing, admission control,
  the conservation counters, hot reload, and the telemetry accumulator
  behind :meth:`Server.stats`, :meth:`Server.metrics` and
  :meth:`Server.trace`.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import write_chrome_trace
from repro.serve.artifact import ServingArtifact
from repro.serve.pool import (
    AdmissionError,
    ArtifactSpec,
    InlineWorker,
    ProcessWorker,
    WorkerDiedError,
)
from repro.serve.runtime import ServeResult
from repro.serve.stats import (
    STATS_SCHEMA_VERSION,
    ServerStats,
    WorkerStats,
)


@dataclass(frozen=True)
class ServerConfig:
    """Every serving knob, validated once, in one place.

    Args:
        workers: pool size (shards).
        mode: ``"inline"`` (in-process workers; deterministic, the mode
            every correctness gate runs under) or ``"process"`` (real
            ``multiprocessing`` children over the same mmapped files).
        batching: enable cross-request slot batching inside each worker.
        batch_window_seconds: default latency budget a request may wait
            in the batching window (the old ``max_wait_seconds``).
        max_queue_depth: bound on each worker's pending queue; beyond it
            the server rejects with :class:`AdmissionError`.
        admission_budget_seconds: optional modeled-backlog latency
            budget; a routed worker whose backlog would exceed it
            rejects at admission instead of queueing.
        routing_seed: seed folded into rendezvous routing, pinning the
            client -> worker assignment reproducibly.
        key_seed: seed of the pool key domain.  Every worker generates
            the same keys from it, so any worker's response decrypts
            under the pool key.
        key_cache_dir: optional spill directory for per-worker
            :class:`repro.serve.keys.KeyRegistry` instances.  When set,
            cold tenant key chains are demoted to fingerprint-addressed
            files under it instead of being destroyed, and promoted
            back (bit-exactly) on the next request; when ``None`` (the
            default) demotion discards keys.  See docs/keys.md.
        max_tenants: per-(worker, artifact) key-registry LRU capacity —
            how many tenants' key chains stay resident in RAM before
            the coldest spill (or drop, without ``key_cache_dir``).
        backend_factory: ``(params, seed) -> FheBackend`` override
            (defaults to the exact toy backend for toy-sized primes).
        tracing: give every worker a :class:`repro.obs.Tracer` so each
            served batch produces a span tree; export the result with
            :meth:`Server.trace` / :meth:`Server.export_chrome_trace`.
            Observe-only: outputs are bit-identical either way.
        trace_sample_rate: fraction of root spans recorded when tracing
            (systematic sampling, in ``(0, 1]``).
    """

    workers: int = 1
    mode: str = "inline"
    batching: bool = True
    batch_window_seconds: float = 0.05
    max_queue_depth: int = 32
    admission_budget_seconds: Optional[float] = None
    routing_seed: int = 0
    key_seed: int = 0
    key_cache_dir: Optional[str] = None
    max_tenants: int = 16
    backend_factory: Optional[Callable] = None
    tracing: bool = False
    trace_sample_rate: float = 1.0

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("ServerConfig.workers must be at least 1")
        if self.mode not in ("inline", "process"):
            raise ValueError(
                f"ServerConfig.mode must be 'inline' or 'process', "
                f"got {self.mode!r}"
            )
        if self.batch_window_seconds < 0:
            raise ValueError(
                "ServerConfig.batch_window_seconds must be non-negative"
            )
        if self.max_queue_depth < 1:
            raise ValueError("ServerConfig.max_queue_depth must be at least 1")
        if (
            self.admission_budget_seconds is not None
            and self.admission_budget_seconds <= 0
        ):
            raise ValueError(
                "ServerConfig.admission_budget_seconds must be positive"
            )
        if self.max_tenants < 1:
            raise ValueError("ServerConfig.max_tenants must be at least 1")
        if not 0.0 < self.trace_sample_rate <= 1.0:
            raise ValueError(
                "ServerConfig.trace_sample_rate must be in (0, 1], got "
                f"{self.trace_sample_rate!r}"
            )

    def with_overrides(self, **changes) -> "ServerConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)


ArtifactSource = Union[str, ServingArtifact]


def _artifact_specs(
    source: Union[ArtifactSource, Dict[str, ArtifactSource], List[ArtifactSource], Tuple],
) -> Tuple[ArtifactSpec, ...]:
    """Normalize ``open``'s artifact argument into named specs."""
    if isinstance(source, dict):
        items = list(source.items())
    elif isinstance(source, (list, tuple)):
        items = [(None, entry) for entry in source]
    else:
        items = [(None, source)]
    specs: List[ArtifactSpec] = []
    seen = set()
    for index, (artifact_id, entry) in enumerate(items):
        if isinstance(entry, ServingArtifact):
            name = artifact_id or f"artifact{index}"
            spec = ArtifactSpec(artifact_id=name, artifact=entry)
        elif isinstance(entry, (str, os.PathLike)):
            path = os.fspath(entry)
            stem = os.path.splitext(os.path.basename(path))[0]
            name = artifact_id or stem
            spec = ArtifactSpec(artifact_id=name, path=path)
        else:
            raise TypeError(
                f"expected an artifact path or ServingArtifact, got "
                f"{type(entry).__name__}"
            )
        if spec.artifact_id in seen:
            raise ValueError(f"duplicate artifact id {spec.artifact_id!r}")
        seen.add(spec.artifact_id)
        specs.append(spec)
    if not specs:
        raise ValueError("open() needs at least one artifact")
    return tuple(specs)


class Server:
    """A running serving deployment: the workers and everything in
    front of them.

    Use :func:`open` to construct one; do not instantiate directly.
    Context-manager friendly: leaving the ``with`` block drains and
    shuts the workers down.

    The request surface is three calls: :meth:`submit` enqueues a
    request for slot batching (``step()`` later runs the due batches),
    :meth:`serve_now` runs one request immediately, and :meth:`drain`
    flushes everything queued.  Observability is :meth:`stats` (typed,
    schema-versioned), :meth:`metrics` / :meth:`metrics_text`
    (Prometheus), and :meth:`trace` / :meth:`export_chrome_trace`
    (span tracks).  Lifecycle extras: :meth:`warm` pre-pays keygen and
    encodes, :meth:`reload` hot-swaps an updated artifact file into the
    running pool.

    Requests route by rendezvous (highest-random-weight) hashing of
    ``(routing_seed, artifact, client)`` over the workers: a client's
    requests always land on the same worker, so they coalesce into that
    worker's slot batches, reproducibly run-to-run.  Admission is
    bounded per worker (``max_queue_depth`` and the optional modeled
    latency budget); a refused request raises :class:`AdmissionError`
    with a ``retry_after_ms`` hint.  Conservation holds at every
    instant: ``submitted == admitted + rejected`` and
    ``admitted == completed + in_flight``.

    Example::

        cfg = ServerConfig(workers=4, admission_budget_seconds=0.25)
        with serve.open("mnist_mlp.npz", cfg) as server:
            ticket = server.submit(image, client_id="tenant-a")
            results = server.drain()
    """

    def __init__(self, specs: Tuple[ArtifactSpec, ...], config: ServerConfig):
        self.config = config
        self.artifact_ids: Tuple[str, ...] = tuple(
            spec.artifact_id for spec in specs
        )
        options = dict(
            key_seed=config.key_seed,
            key_cache_dir=config.key_cache_dir,
            max_tenants=config.max_tenants,
            batching=config.batching,
            batch_window_seconds=config.batch_window_seconds,
            backend_factory=config.backend_factory,
            tracing=config.tracing,
            trace_sample_rate=config.trace_sample_rate,
        )
        # Inline workers share one load of each mmapped artifact;
        # reload() drops the entry so the next load is the new version.
        self._shared: Dict[str, ServingArtifact] = {}
        if config.mode == "inline":
            self._workers = [
                InlineWorker(i, specs, shared_artifacts=self._shared, **options)
                for i in range(config.workers)
            ]
        else:
            self._workers = [
                ProcessWorker(i, specs, **options) for i in range(config.workers)
            ]
        # Queued requests per (worker, artifact), counted here so that
        # admission never needs a round trip into a worker.
        self._depths: List[Dict[str, int]] = [
            dict.fromkeys(self.artifact_ids, 0) for _ in self._workers
        ]
        self._submitted = 0
        self._admitted = 0
        self._rejected = 0
        self._completed = 0
        self._closed = False
        # The telemetry accumulator, filled only by _pump_telemetry:
        # each worker's latest metrics payload (cumulative, so it
        # replaces) and its trace track (spans append).
        self._metrics: Dict[int, Dict] = {}
        self._tracks: Dict[int, Dict] = {}

    # -- routing and admission ----------------------------------------------
    def _route(self, artifact_id: str, client_id: str) -> int:
        seed = self.config.routing_seed
        best_worker, best_score = 0, -1
        for worker_id in range(len(self._workers)):
            key = f"{seed}/{artifact_id}/{client_id}/{worker_id}"
            digest = hashlib.sha256(key.encode()).digest()
            score = int.from_bytes(digest[:8], "big")
            if score > best_score:
                best_worker, best_score = worker_id, score
        return best_worker

    def _admit(self, artifact_id: str, client_id: str) -> Tuple[int, int]:
        """Count and route one request; returns ``(worker_id, ticket)``,
        or raises :class:`AdmissionError` (counted as rejected)."""
        if self._closed:
            raise RuntimeError("server is closed")
        worker_id = self._route(artifact_id, client_id)
        self._submitted += 1
        depths = self._depths[worker_id]
        profiles = self._workers[worker_id].profiles
        profile = profiles[artifact_id]
        depth = sum(depths.values())
        limit = self.config.max_queue_depth
        budget = self.config.admission_budget_seconds
        # Modeled time to clear the worker's queues, plus this request.
        estimate = profile.modeled_seconds + sum(
            math.ceil(queued / max(1, profiles[aid].capacity))
            * profiles[aid].modeled_seconds
            for aid, queued in depths.items()
        )
        if depth >= limit:
            retry_ms = max(1.0, profile.modeled_seconds * 1e3)
            message = (
                f"worker {worker_id} queue is full ({depth}/{limit}); "
                f"retry in ~{retry_ms:.0f}ms"
            )
        elif budget is not None and estimate > budget:
            retry_ms = max(1.0, (estimate - budget) * 1e3)
            message = (
                f"worker {worker_id} backlog {estimate * 1e3:.0f}ms exceeds "
                f"the {budget * 1e3:.0f}ms latency budget; retry in "
                f"~{retry_ms:.0f}ms"
            )
        else:
            ticket = self._admitted  # tickets number the admitted requests
            self._admitted += 1
            return worker_id, ticket
        self._rejected += 1
        raise AdmissionError(
            message, retry_after_ms=retry_ms, worker_id=worker_id, queue_depth=depth
        )

    def _completes(self, results: List[ServeResult]) -> List[ServeResult]:
        for result in results:
            self._depths[result.worker_id][result.artifact_id] -= 1
        self._completed += len(results)
        return results

    # -- request flow --------------------------------------------------------
    def submit(
        self,
        image,
        client_id: str = "anon",
        artifact: Optional[str] = None,
        now: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> int:
        """Enqueue a request; returns its (pool-global) ticket.

        Raises :class:`repro.serve.pool.AdmissionError` when the routed
        worker is saturated (backpressure — retry after the hint).
        """
        artifact_id = self._resolve(artifact)
        worker_id, ticket = self._admit(artifact_id, client_id)
        self._workers[worker_id].submit(
            ticket, artifact_id, client_id, image, now, deadline
        )
        self._depths[worker_id][artifact_id] += 1
        return ticket

    def serve_now(
        self,
        image,
        client_id: str = "anon",
        artifact: Optional[str] = None,
    ) -> ServeResult:
        """Run one request immediately on its routed worker."""
        artifact_id = self._resolve(artifact)
        worker_id, ticket = self._admit(artifact_id, client_id)
        result = self._workers[worker_id].serve_now(
            ticket, artifact_id, client_id, image
        )
        self._completed += 1
        return result

    def step(self, now: Optional[float] = None) -> List[ServeResult]:
        """Run every due batch on every worker (process workers overlap)."""
        for worker in self._workers:
            worker.begin_step(now)
        return self._completes(
            [result for worker in self._workers for result in worker.finish_step()]
        )

    def drain(self) -> List[ServeResult]:
        """Flush every queue; afterwards ``stats().in_flight == 0``."""
        return self._completes(
            [result for worker in self._workers for result in worker.drain()]
        )

    def warm(self, batch_sizes=None) -> None:
        """Pre-run key/cache warm-up on every worker (off the books).

        Runs one throwaway batch per listed batch size so lazy key
        generation and plaintext encodes happen here, not under the
        first paying request.  ``batch_sizes`` defaults to each
        server's common sizes.
        """
        for worker in self._workers:
            worker.warm(batch_sizes)

    def reload(self, artifact: Optional[str] = None) -> None:
        """Hot-swap a new version of an artifact into the running pool.

        The caller first replaces the artifact's file on disk — e.g. by
        applying a weight delta with
        :func:`repro.serve.artifact.apply_artifact_delta` — and then
        calls this.  Every worker re-opens the path (the ``<path>.mmap``
        stamp discipline notices the changed bytes and re-extracts) and
        rebuilds its serving lane around the new tables while **keeping
        its backend and key domain**: clients holding ciphertexts keep
        decrypting, which is why the new version must carry the same key
        manifest.  Requires an idle pool — :meth:`drain` first, so no
        request ever sees half a swap; ``RuntimeError`` if requests are
        in flight or the manifest changed, ``ValueError`` for in-memory
        (pathless) artifacts.  Routing, admission counters, and tenant
        key domains all survive the reload.
        """
        artifact_id = self._resolve(artifact)
        if self._closed:
            raise RuntimeError("server is closed")
        if self._in_flight:
            raise RuntimeError(
                f"{self._in_flight} request(s) in flight; drain() before "
                "reloading an artifact"
            )
        self._shared.pop(artifact_id, None)
        for worker in self._workers:
            worker.reload(artifact_id)

    def close(self) -> None:
        """Shut the workers down (process workers join their children),
        keeping their last telemetry readable."""
        if self._closed:
            return
        self._closed = True
        try:
            self._pump_telemetry()
        except WorkerDiedError:
            pass  # a dead child has no telemetry left to flush
        finally:
            for worker in self._workers:
                worker.close()

    def _resolve(self, artifact: Optional[str]) -> str:
        if artifact is None:
            return self.artifact_ids[0]
        if artifact not in self.artifact_ids:
            raise KeyError(
                f"unknown artifact {artifact!r}; serving {self.artifact_ids}"
            )
        return artifact

    # -- observability -----------------------------------------------------
    @property
    def _in_flight(self) -> int:
        return self._admitted - self._completed

    def _pump_telemetry(self) -> None:
        """Pull every live worker's telemetry bundle into the
        accumulator that stats(), metrics() and trace() read."""
        for worker in self._workers:
            bundle = worker.telemetry()
            if bundle is None:
                continue  # a dead fork: keep its last snapshot
            self._metrics[worker.worker_id] = bundle["metrics"]
            track = self._tracks.setdefault(
                worker.worker_id,
                {
                    "tid": worker.worker_id,
                    "name": f"worker-{worker.worker_id}",
                    "spans": [],
                },
            )
            track["spans"].extend(bundle["trace"])
            track["clock_offset"] = bundle["clock_offset"]
            track["dropped_roots"] = bundle["dropped_roots"]

    def stats(self) -> ServerStats:
        """Typed, schema-versioned pool telemetry (docs/serving.md).

        Worker rows derive from each worker's metrics payload
        (:meth:`WorkerStats.from_registry`)."""
        from repro import kernels

        self._pump_telemetry()
        for worker_id in range(len(self._workers)):
            if worker_id not in self._metrics:
                raise RuntimeError(
                    f"worker {worker_id} is gone and left no telemetry"
                )
        return ServerStats(
            schema_version=STATS_SCHEMA_VERSION,
            artifacts=self.artifact_ids,
            requests_submitted=self._submitted,
            requests_admitted=self._admitted,
            requests_rejected=self._rejected,
            requests_completed=self._completed,
            in_flight=self._in_flight,
            kernel_backend=kernels.active_backend(),
            workers=tuple(
                WorkerStats.from_registry(worker_id, self._metrics[worker_id])
                for worker_id in range(len(self._workers))
            ),
        )

    def metrics(self) -> MetricsRegistry:
        """One aggregated :class:`repro.obs.MetricsRegistry` for the
        deployment: every worker's counters/gauges/histograms plus the
        admission-conservation counters."""
        self._pump_telemetry()
        registry = MetricsRegistry()
        for worker_id in sorted(self._metrics):
            registry.merge_payload(self._metrics[worker_id])
        for outcome, count in (
            ("submitted", self._submitted),
            ("admitted", self._admitted),
            ("rejected", self._rejected),
        ):
            registry.counter(
                "repro_admission_requests_total",
                count,
                help="Admission outcomes.",
                outcome=outcome,
            )
        registry.counter(
            "repro_requests_completed_total",
            self._completed,
            help="Requests whose results were delivered.",
        )
        registry.gauge(
            "repro_in_flight_requests",
            self._in_flight,
            help="Admitted requests not yet completed.",
        )
        return registry

    def metrics_text(self) -> str:
        """Prometheus text exposition of :meth:`metrics`."""
        return self.metrics().to_prometheus_text()

    def trace(self) -> List[Dict]:
        """Per-worker span tracks accumulated so far (tracing pools
        only; empty tracks otherwise).  Feed to
        :func:`repro.obs.chrome_trace` or :meth:`export_chrome_trace`."""
        self._pump_telemetry()
        return [self._tracks[worker_id] for worker_id in sorted(self._tracks)]

    def export_chrome_trace(self, path: str) -> str:
        """Write the pool's Chrome ``trace_event`` JSON (Perfetto-
        loadable, one thread lane per worker shard); returns ``path``."""
        return write_chrome_trace(path, self.trace())

    @property
    def workers(self) -> int:
        return len(self._workers)

    def route(self, client_id: str, artifact: Optional[str] = None) -> int:
        """Which worker a client's requests land on (deterministic)."""
        return self._route(self._resolve(artifact), client_id)

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.drain()
        finally:
            self.close()


def open(
    source: Union[ArtifactSource, Dict[str, ArtifactSource], List[ArtifactSource]],
    config: Optional[ServerConfig] = None,
) -> Server:
    """Open a serving deployment over one or more artifacts.

    Args:
        source: an artifact path (``.npz``), a loaded
            :class:`ServingArtifact`, or a dict/list of either for
            mixed-model serving (dict keys name the artifacts; paths
            default to their file stem).
        config: a :class:`ServerConfig`; defaults to a single inline
            worker.

    Returns:
        a :class:`Server` — use it as a context manager so the workers
        are drained and shut down on exit.

    Paths are opened through :class:`repro.serve.mmapio.ArtifactMap`,
    so every worker shares one mmapped copy of the tables.  In-memory
    artifacts are accepted for ``inline`` pools only — process workers
    need a path to map.  Delta artifacts
    (:func:`repro.serve.artifact.save_artifact_delta`) cannot be
    opened directly: apply them to their base first with
    :func:`repro.serve.artifact.apply_artifact_delta`.

    Example::

        import repro.serve as serve

        with serve.open({"mnist": "mnist_mlp.npz"}) as server:
            result = server.serve_now(image, client_id="tenant-a")
    """
    return Server(_artifact_specs(source), config or ServerConfig())
