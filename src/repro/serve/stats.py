"""Typed, schema-versioned serving telemetry.

The PR-4 serving surface reported raw dicts assembled ad hoc from
``OpLedger.snapshot()`` and ``LatencyHistogram.snapshot()``; every
consumer (benchmarks, the CI bench gate, dashboards) re-invented the
schema.  This module is the single typed schema both ``Server.stats()``
and ``BENCH_serving.json`` speak:

- :class:`HistogramStats` — one latency histogram, summarized;
- :class:`WorkerStats`    — one worker's serving counters, per-op
  latency, serve-path purity counters, and the mmap discipline flag;
- :class:`ServerStats`    — the pool: per-worker stats plus the
  server's admission-conservation counters.

Worker rows are derived from each worker's metrics-registry payload
(:meth:`WorkerStats.from_registry`), the same payload the Prometheus
exposition merges, so stats and metrics cannot disagree.

All three are frozen dataclasses with ``to_payload`` / ``from_payload``
(plain-JSON dicts) and ``to_json`` / ``from_json`` round-trips, pinned
by ``STATS_SCHEMA_VERSION`` — a consumer reading a payload written by a
different build fails loudly instead of mis-parsing it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.summary import summarize_histogram

#: Version 3: adds per-worker key-material accounting (``WorkerStats.
#: key_bytes_resident`` / ``key_bytes_spilled`` and the matching tenant
#: counts) from the spill-capable :class:`repro.serve.keys.KeyRegistry`.
#: Version 2 added the per-worker noise-budget telemetry
#: (``WorkerStats.noise``).  Payloads from any other version are
#: rejected loudly by ``ServerStats.from_payload``; see
#: docs/observability.md for the migration notes.
STATS_SCHEMA_VERSION = 3


class StatsSchemaError(ValueError):
    """A stats payload written by an incompatible schema version."""


@dataclass(frozen=True)
class HistogramStats:
    """Summary of one :class:`repro.backend.ledger.LatencyHistogram`.

    Produced by the shared summarizer in :mod:`repro.obs.summary`, so
    this class and ``LatencyHistogram.snapshot()`` can never disagree
    on the summary shape.
    """

    count: int
    mean_seconds: float
    p50_seconds: float
    p99_seconds: float

    @classmethod
    def from_histogram(cls, histogram) -> "HistogramStats":
        return cls(**summarize_histogram(histogram))

    def to_payload(self) -> Dict:
        return {
            "count": self.count,
            "mean_seconds": self.mean_seconds,
            "p50_seconds": self.p50_seconds,
            "p99_seconds": self.p99_seconds,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "HistogramStats":
        return cls(
            count=int(payload["count"]),
            mean_seconds=float(payload["mean_seconds"]),
            p50_seconds=float(payload["p50_seconds"]),
            p99_seconds=float(payload["p99_seconds"]),
        )


@dataclass(frozen=True)
class NoiseStats:
    """Noise-budget telemetry of one worker (schema v2).

    Summarizes a :class:`repro.obs.NoiseMonitor`: how many modulus-chain
    boundary events the worker executed, the lowest level any ciphertext
    reached (how close the run came to exhausting the chain), and the
    largest log2 drift of any post-boundary scale from the context's
    Delta (precision regressions localize here before they corrupt
    decrypted outputs).
    """

    rescales: int = 0
    mod_downs: int = 0
    bootstraps: int = 0
    min_level: Optional[int] = None
    max_scale_drift_log2: float = 0.0

    @classmethod
    def from_monitor(cls, monitor) -> "NoiseStats":
        return cls(**monitor.stats())

    def to_payload(self) -> Dict:
        return {
            "rescales": self.rescales,
            "mod_downs": self.mod_downs,
            "bootstraps": self.bootstraps,
            "min_level": self.min_level,
            "max_scale_drift_log2": self.max_scale_drift_log2,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "NoiseStats":
        min_level = payload["min_level"]
        return cls(
            rescales=int(payload["rescales"]),
            mod_downs=int(payload["mod_downs"]),
            bootstraps=int(payload["bootstraps"]),
            min_level=None if min_level is None else int(min_level),
            max_scale_drift_log2=float(payload["max_scale_drift_log2"]),
        )


@dataclass(frozen=True)
class WorkerStats:
    """One worker's serving telemetry.

    ``ops`` maps an operation phase (``linear``, ``act``, ...) to the
    modeled-latency histogram of its per-batch charges — the typed
    replacement for the raw ``stats()["ops"]`` dicts.

    ``key_bytes_resident`` / ``key_bytes_spilled`` (schema v3) split the
    worker's key-material footprint between RAM and spill files, as
    accounted by its :meth:`repro.serve.keys.KeyRegistry.key_bytes`;
    ``tenants_resident`` / ``tenants_spilled`` count the clients on each
    side.  The serving-pool benchmark gates the resident number against
    a budget so tenant-density regressions fail CI.
    """

    worker_id: int
    requests_served: int
    batches_run: int
    queue_depth: int
    capacity: int
    preloaded_plaintexts: int
    modeled_seconds: float
    rotations: int
    bootstraps: int
    compilations_since_load: int
    placements_since_load: int
    kernel_backend: str
    mmap_backed: bool
    request_latency: HistogramStats = field(
        default_factory=lambda: HistogramStats(0, 0.0, 0.0, 0.0)
    )
    ops: Tuple[Tuple[str, HistogramStats], ...] = ()
    noise: NoiseStats = field(default_factory=NoiseStats)
    key_bytes_resident: int = 0
    key_bytes_spilled: int = 0
    tenants_resident: int = 0
    tenants_spilled: int = 0

    @classmethod
    def from_registry(cls, worker_id: int, payload: Dict) -> "WorkerStats":
        """Derive one worker's row from its metrics-registry payload
        (:meth:`repro.obs.MetricsRegistry.to_payload`).

        Reads the series labelled ``worker=<worker_id>``, one label set
        per hosted artifact, and folds them: counts and bytes sum,
        ``capacity`` is the max, ``mmap_backed`` holds only if every
        artifact is mapped, and latency percentiles come from the
        merged histogram buckets.
        """
        from repro import kernels
        from repro.backend.ledger import OpLedger

        registry = MetricsRegistry()
        registry.merge_payload(payload)
        worker = str(worker_id)

        def series(name: str, **match):
            return [
                (labels, value)
                for labels, value in registry.series(name)
                if labels.get("worker") == worker
                and all(labels.get(k) == v for k, v in match.items())
            ]

        def values(name: str, **match):
            return [value for _, value in series(name, **match)]

        def total(name: str, **match) -> int:
            return int(sum(values(name, **match)))

        ledger = OpLedger()
        for labels, count in series("repro_fhe_ops_total"):
            ledger.counts[labels["op"]] += int(count)
        phases: Dict[str, list] = {}
        for labels, histogram in series("repro_phase_modeled_seconds"):
            phases.setdefault(labels["phase"], []).append(histogram)
        levels = values("repro_noise_min_level")
        return cls(
            worker_id=worker_id,
            requests_served=total("repro_serve_requests_total"),
            batches_run=total("repro_serve_batches_total"),
            queue_depth=total("repro_serve_queue_depth"),
            capacity=int(max(values("repro_serve_capacity"), default=0)),
            preloaded_plaintexts=total("repro_serve_preloaded_plaintexts"),
            modeled_seconds=float(sum(values("repro_modeled_seconds_total"))),
            rotations=ledger.rotations,
            bootstraps=ledger.bootstraps,
            compilations_since_load=total("repro_serve_compilations_since_load"),
            placements_since_load=total("repro_serve_placements_since_load"),
            kernel_backend=kernels.active_backend(),
            mmap_backed=all(values("repro_serve_mmap_backed")),
            request_latency=_merged(values("repro_request_latency_seconds")),
            ops=tuple(
                (phase, _merged(histograms))
                for phase, histograms in sorted(phases.items())
            ),
            noise=NoiseStats(
                rescales=total("repro_noise_boundary_total", op="rescale"),
                mod_downs=total("repro_noise_boundary_total", op="mod_down"),
                bootstraps=total("repro_noise_boundary_total", op="bootstrap"),
                min_level=int(min(levels)) if levels else None,
                max_scale_drift_log2=float(
                    max(values("repro_noise_max_scale_drift_log2"), default=0.0)
                ),
            ),
            key_bytes_resident=total("repro_key_material_bytes", state="resident"),
            key_bytes_spilled=total("repro_key_material_bytes", state="spilled"),
            tenants_resident=total("repro_key_tenants", state="resident"),
            tenants_spilled=total("repro_key_tenants", state="spilled"),
        )

    def to_payload(self) -> Dict:
        return {
            "worker_id": self.worker_id,
            "requests_served": self.requests_served,
            "batches_run": self.batches_run,
            "queue_depth": self.queue_depth,
            "capacity": self.capacity,
            "preloaded_plaintexts": self.preloaded_plaintexts,
            "modeled_seconds": self.modeled_seconds,
            "rotations": self.rotations,
            "bootstraps": self.bootstraps,
            "compilations_since_load": self.compilations_since_load,
            "placements_since_load": self.placements_since_load,
            "kernel_backend": self.kernel_backend,
            "mmap_backed": self.mmap_backed,
            "request_latency": self.request_latency.to_payload(),
            "ops": {op: stats.to_payload() for op, stats in self.ops},
            "noise": self.noise.to_payload(),
            "key_bytes_resident": self.key_bytes_resident,
            "key_bytes_spilled": self.key_bytes_spilled,
            "tenants_resident": self.tenants_resident,
            "tenants_spilled": self.tenants_spilled,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "WorkerStats":
        return cls(
            worker_id=int(payload["worker_id"]),
            requests_served=int(payload["requests_served"]),
            batches_run=int(payload["batches_run"]),
            queue_depth=int(payload["queue_depth"]),
            capacity=int(payload["capacity"]),
            preloaded_plaintexts=int(payload["preloaded_plaintexts"]),
            modeled_seconds=float(payload["modeled_seconds"]),
            rotations=int(payload["rotations"]),
            bootstraps=int(payload["bootstraps"]),
            compilations_since_load=int(payload["compilations_since_load"]),
            placements_since_load=int(payload["placements_since_load"]),
            kernel_backend=str(payload["kernel_backend"]),
            mmap_backed=bool(payload["mmap_backed"]),
            request_latency=HistogramStats.from_payload(
                payload["request_latency"]
            ),
            ops=tuple(
                (op, HistogramStats.from_payload(entry))
                for op, entry in sorted(payload["ops"].items())
            ),
            noise=NoiseStats.from_payload(payload["noise"]),
            key_bytes_resident=int(payload["key_bytes_resident"]),
            key_bytes_spilled=int(payload["key_bytes_spilled"]),
            tenants_resident=int(payload["tenants_resident"]),
            tenants_spilled=int(payload["tenants_spilled"]),
        )


def _merged(histograms) -> HistogramStats:
    """Summary of the bucket-wise sum of ``LatencyHistogram``s."""
    from repro.backend.ledger import LatencyHistogram

    merged = LatencyHistogram()
    for histogram in histograms:
        merged.merge(histogram)
    return HistogramStats.from_histogram(merged)


@dataclass(frozen=True)
class ServerStats:
    """The pool-level view :meth:`repro.serve.Server.stats` returns.

    Admission conservation is part of the schema, not just the tests:
    ``requests_submitted == requests_admitted + requests_rejected`` and
    ``requests_admitted == requests_completed + in_flight`` hold at
    every observation point, so a consumer can audit that no request
    was dropped silently.
    """

    schema_version: int
    artifacts: Tuple[str, ...]
    requests_submitted: int
    requests_admitted: int
    requests_rejected: int
    requests_completed: int
    in_flight: int
    kernel_backend: str
    workers: Tuple[WorkerStats, ...]

    def __post_init__(self):
        if self.requests_submitted != (
            self.requests_admitted + self.requests_rejected
        ):
            raise ValueError(
                "conservation violated: submitted != admitted + rejected "
                f"({self.requests_submitted} != {self.requests_admitted} "
                f"+ {self.requests_rejected})"
            )
        if self.requests_admitted != self.requests_completed + self.in_flight:
            raise ValueError(
                "conservation violated: admitted != completed + in_flight "
                f"({self.requests_admitted} != {self.requests_completed} "
                f"+ {self.in_flight})"
            )

    @property
    def reject_rate(self) -> float:
        if self.requests_submitted == 0:
            return 0.0
        return self.requests_rejected / self.requests_submitted

    def worker(self, worker_id: int) -> WorkerStats:
        for stats in self.workers:
            if stats.worker_id == worker_id:
                return stats
        raise KeyError(f"no worker {worker_id}")

    def to_payload(self) -> Dict:
        return {
            "schema_version": self.schema_version,
            "artifacts": list(self.artifacts),
            "requests_submitted": self.requests_submitted,
            "requests_admitted": self.requests_admitted,
            "requests_rejected": self.requests_rejected,
            "requests_completed": self.requests_completed,
            "in_flight": self.in_flight,
            "reject_rate": self.reject_rate,
            "kernel_backend": self.kernel_backend,
            "workers": [stats.to_payload() for stats in self.workers],
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Dict) -> "ServerStats":
        version = payload.get("schema_version")
        if version != STATS_SCHEMA_VERSION:
            hints = {
                1: (
                    " (version 1 payloads predate the per-worker "
                    "noise-budget telemetry; re-export from this build — "
                    "there is no lossy auto-upgrade)"
                ),
                2: (
                    " (version 2 payloads predate the per-worker "
                    "key-material accounting; re-export from this build — "
                    "there is no lossy auto-upgrade)"
                ),
            }
            raise StatsSchemaError(
                f"stats schema version {version!r} is not supported "
                f"(this build reads version {STATS_SCHEMA_VERSION})"
                f"{hints.get(version, '')}"
            )
        return cls(
            schema_version=int(version),
            artifacts=tuple(payload["artifacts"]),
            requests_submitted=int(payload["requests_submitted"]),
            requests_admitted=int(payload["requests_admitted"]),
            requests_rejected=int(payload["requests_rejected"]),
            requests_completed=int(payload["requests_completed"]),
            in_flight=int(payload["in_flight"]),
            kernel_backend=str(payload["kernel_backend"]),
            workers=tuple(
                WorkerStats.from_payload(entry) for entry in payload["workers"]
            ),
        )

    @classmethod
    def from_json(cls, doc: str) -> "ServerStats":
        return cls.from_payload(json.loads(doc))
