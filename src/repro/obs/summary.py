"""Shared telemetry summarizers.

``OpLedger.snapshot()``, ``LatencyHistogram.snapshot()`` and
``HistogramStats`` all consume these functions, so the summary shape
lives in exactly one place.

A histogram summary is the plain dict
``{"count", "mean_seconds", "p50_seconds", "p99_seconds"}``.  Summaries
are never merged: combining histograms means summing their buckets
(``LatencyHistogram.merge``) and summarizing the result.
"""

from __future__ import annotations

from typing import Dict


def summarize_histogram(histogram) -> Dict[str, float]:
    """The canonical summary of one ``LatencyHistogram``."""
    return {
        "count": histogram.count,
        "mean_seconds": histogram.mean,
        "p50_seconds": histogram.quantile(0.5),
        "p99_seconds": histogram.quantile(0.99),
    }


def summarize_ledger(ledger) -> Dict[str, float]:
    """The canonical summary of one ``OpLedger`` (per-op counts, total
    modeled seconds, rotation total, active kernel backend)."""
    from repro.kernels import active_backend

    out: Dict[str, float] = {
        op: ledger.counts[op] for op in ledger.TRACKED_OPS
    }
    out["seconds"] = ledger.seconds
    out["rotations"] = ledger.rotations
    # Which kernel backend produced these charges (provenance).
    out["kernel_backend"] = active_backend()
    return out
