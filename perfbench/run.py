"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload mlp-open --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Each workload runs in its own child process under a wall-clock
deadline, so a hang or crash becomes failed operations tagged with the
error's name instead of a hung benchmark.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload twice, once plain
for the full time and once for half of it with per-layer wrappers
installed (``perfbench.layers``), and prints the per-layer metrics plus
the tracing overhead (traced minus plain).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full record (provenance, per-rung figures, oracle outcomes).
The program under test is ``src/repro``; without it the benchmark exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median
from typing import Dict, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_tmp")
#: Traced runs write their spans here when they end.
OUTDIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("mlp-open", "deep-boot", "resnet-compile")
#: The mlp-open rung (req/s) behind its latency_ms: requests there mostly
#: run alone.  The faster rungs sit near or above the batching
#: scheduler's saturation, where latency and goodput swing too far
#: between runs to gate on; they are reported as figures.
LIGHT_RATE = 2
#: Every run must end within this many seconds.
RUN_DEADLINE_S = 170.0
#: End-to-end metrics (name -> unit), reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Workload-specific end-to-end figures (name -> unit).  Each exists on
#: one or two workloads only, so none can be an end-to-end metric (those
#: are reported by every workload).  They are printed in the record line,
#: and the traced run reports them from its untraced pass (0 where a
#: workload has no such figure).
FIGURES = {
    "p50_ms.r2": "ms",
    "tail_ms.r2": "ms",
    "p50_ms.r8": "ms",
    "tail_ms.r8": "ms",
    "p50_ms.r32": "ms",
    "tail_ms.r32": "ms",
    "slo_rps": "req/s",
    "goodput_rps.r64": "req/s",
    "generator.lateness_ms": "ms",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "precision_bits": "bits",
    "low_precision_share": "ratio",
    "failed_share": "ratio",
    "compile_s.resnet20": "s",
    "compile_s.resnet110": "s",
    "compile_s.resnet50": "s",
}


# -- child: one workload in this process ------------------------------------
def _provenance(seed: int) -> Dict:
    import numpy

    from repro import kernels

    graph_opt = os.environ.get("REPRO_GRAPH_OPT", "on").strip().lower()
    return {
        "commit": _commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.active_backend(),
        "graph_opt": "off" if graph_opt in ("off", "0", "false", "no") else "on",
        "seed": seed,
    }


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    return done.stdout.strip() or "unknown"


def child_main(args) -> int:
    from perfbench import workloads
    from perfbench.layers import Recorder, layer_metrics

    recorder = None
    if args.trace:
        recorder = Recorder()
        recorder.install()
    record = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, args.workdir, recorder
    )
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["provenance"] = _provenance(args.seed)
    if recorder is not None:
        recorder.uninstall()
        requests = record.get("serve", {}).get("requests", 0)
        record["layers"] = layer_metrics(recorder, requests)
        record["spans"] = write_spans(recorder.spans, f"{args.workload}-seed{args.seed}")
    record["outcomes"] = record["outcomes"].as_dict()
    print(json.dumps(record, default=float))
    return 0


def write_spans(spans, stem: str) -> Dict:
    """Write spans as gzipped JSON lines ``[name, start, end, parent,
    request]``; returns the file and the span count."""
    import gzip

    os.makedirs(OUTDIR, exist_ok=True)
    path = os.path.join(OUTDIR, f"{stem}-spans.jsonl.gz")
    with gzip.open(path, "wt") as out:
        for span in spans:
            out.write(json.dumps([span.name, span.start, span.end, span.parent, span.request]))
            out.write("\n")
    return {"file": os.path.relpath(path, ROOT), "count": len(spans)}


# -- parent: liveness, metrics and the result line ---------------------------
def run_child(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> Dict:
    """Run one workload in a child process; never waits past ``deadline``."""
    workdir = os.path.join(WORKDIR, f"{workload}-{os.getpid()}-{trace}")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", workdir,
    ]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=deadline, env=env, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return {"error": "TimeoutExpired", "detail": f"no result within {deadline:.0f}s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        last = (done.stderr.strip().splitlines() or ["exit code %d" % done.returncode])[-1]
        return {"error": last.split(":")[0] or "ChildCrashed", "detail": done.stderr[-2000:]}
    return json.loads(lines[-1])


class Incomplete(Exception):
    """A run lacks what a metric needs; the message is the failure tag."""


def end_to_end(workload: str, record: Dict) -> Tuple[Dict[str, float], Dict[str, float], Dict]:
    """(end-to-end metrics, workload figures, tails) of one run.

    Every workload reports every end-to-end metric.  ``latency_ms`` is
    the median request latency (``mlp-open``: at 2 req/s, where requests
    mostly run alone), or for ``resnet-compile`` the time to compile the
    ResNet-20/110/50 ladder.  ``tails`` records the percentile and
    sample count behind each tail figure, or ``None`` for a tail the run
    had too few samples for; such a figure is left out, not zeroed.
    Raises :class:`Incomplete` when a metric has nothing to stand on.
    """
    from perfbench.layers import NETWORKS
    from perfbench.workloads import LOW_PRECISION

    outcomes = record["outcomes"]
    metrics = {"setup_s": median(record["setup_s"]), "peak_rss_mb": record["peak_rss_mb"]}
    figures = {"failed_share": outcomes["failed_share"]}
    tails: Dict = {}
    if workload == "resnet-compile":
        compile_s = record["compile_s"]
        if set(compile_s) != set(NETWORKS):
            raise Incomplete("CompileFailed")
        for name, seconds in compile_s.items():
            figures[f"compile_s.{name}"] = seconds
        metrics["latency_ms"] = sum(compile_s.values()) * 1e3
        return metrics, figures, tails
    bits = record["precision_bits"]
    if not bits:
        raise Incomplete("NothingServed")
    figures["precision_bits"] = median(bits)
    figures["low_precision_share"] = outcomes["marks"].get(LOW_PRECISION, 0) / outcomes["attempted"]
    if workload == "deep-boot":
        samples = record["samples_ms"]
        figures["p50_ms"] = median(samples)
        _add_tail(figures, tails, "tail_ms", samples)
        metrics["latency_ms"] = figures["p50_ms"]
        return metrics, figures, tails
    *sustained, overload = record["rungs"]
    figures["goodput_rps.r64"] = overload["goodput_rps"]
    for rung in sustained:
        rate = rung["rate"]
        if rung["p50_ms"] is not None:
            figures[f"p50_ms.r{rate}"] = rung["p50_ms"]
        _add_tail(figures, tails, f"tail_ms.r{rate}", rung["samples_ms"])
    if f"p50_ms.r{LIGHT_RATE}" not in figures:
        raise Incomplete("NothingServed")
    metrics["latency_ms"] = figures[f"p50_ms.r{LIGHT_RATE}"]
    figures["slo_rps"] = record["slo_rps"]
    figures["generator.lateness_ms"] = record["lateness_ms_p50"]
    return metrics, figures, tails


def _add_tail(figures: Dict, tails: Dict, name: str, samples) -> None:
    from perfbench.harness import tail

    found = tail(samples)
    tails[name] = None if found is None else vars(found)
    if found is not None:
        figures[name] = found.value


def serve_layer_metrics(record: Dict) -> Dict[str, Tuple[float, str]]:
    """repro.serve figures measured by the harness's own timestamps.

    They read 0 on a workload that serves nothing; a wait tail the run
    had too few requests for is left out.
    """
    from perfbench.harness import tail

    serve = record.get("serve")
    if not serve or not serve["requests"]:
        zero = {"serve.queue_wait_ms.p50": "ms", "serve.queue_wait_ms.tail": "ms",
                "serve.batch_size": "count", "serve.slot_fill": "ratio",
                "serve.batches": "count", "serve.busy_share": "ratio",
                "serve.rejected": "count"}
        return {name: (0.0, unit) for name, unit in zero.items()}
    waits = serve["waits_ms"]
    wait_tail = tail(waits)
    mean_batch = serve["requests"] / max(1, serve["batches"])
    metrics = {
        "serve.queue_wait_ms.p50": (median(waits), "ms"),
        "serve.batch_size": (mean_batch, "count"),
        "serve.slot_fill": (mean_batch / serve["capacity"], "ratio"),
        "serve.batches": (serve["batches"], "count"),
        "serve.busy_share": (serve["busy_s"] / serve["measured_s"], "ratio"),
        "serve.rejected": (serve["rejected"], "count"),
    }
    if wait_tail is not None:
        metrics["serve.queue_wait_ms.tail"] = (wait_tail.value, "ms")
    return metrics


def _checks_pass(record: Dict) -> bool:
    """Every oracle held and no operation failed other than by an
    admission refusal: a raised error or a below-floor output makes the
    run incorrect."""
    from perfbench.workloads import REFUSED

    errors = record["outcomes"]["errors"]
    return all(record["checks"].values()) and all(tag == REFUSED for tag in errors)


def _result(correct: bool, outcomes: Dict, metrics: Dict[str, Tuple[float, str]]) -> Dict:
    return {
        "correct": bool(correct),
        "attempted": int(outcomes["attempted"]) or 1,
        "failed": int(outcomes["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def summarize(workload: str, record: Dict) -> Tuple[Dict, Dict, Dict, Dict]:
    """(full record, result line, metrics, figures) of one untraced run.

    A child that failed, or a run that lacks what a metric needs, gives
    the failed result of :func:`_failed`.
    """
    if "error" in record:
        return _failed(workload, record) + ({}, {})
    try:
        metrics, figures, tails = end_to_end(workload, record)
    except Incomplete as missing:
        return _failed(workload, {"error": str(missing)}, record["outcomes"]) + ({}, {})
    full = {"workload": workload, "provenance": record["provenance"],
            "end_to_end": {name: (metrics[name], unit) for name, unit in END_TO_END.items()},
            "figures": {name: (figures[name], FIGURES[name]) for name in FIGURES if name in figures},
            "tails": tails, "setup_s.each": record["setup_s"],
            "outcomes": record["outcomes"], "checks": record["checks"]}
    if "rungs" in record:
        full["rungs"] = record["rungs"]
    result = _result(
        _checks_pass(record), record["outcomes"], {n: (metrics[n], u) for n, u in END_TO_END.items()}
    )
    return full, result, metrics, figures


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> Tuple[Dict, Dict]:
    """(full record, result line) of one workload.

    A traced run makes a plain pass of the full measured time, which
    gives the end-to-end figures, and a traced pass of half of it.
    """
    started = time.monotonic()
    plain_deadline = RUN_DEADLINE_S / 2 if trace else RUN_DEADLINE_S
    plain = run_child(workload, seed, seconds, 0, plain_deadline)
    full, result, metrics, figures = summarize(workload, plain)
    if not trace or not result["metrics"]:
        return full, result
    remaining = RUN_DEADLINE_S - (time.monotonic() - started)
    traced = run_child(workload, seed, seconds / 2, 1, max(1.0, remaining))
    traced_full, traced_result, traced_metrics, _ = summarize(workload, traced)
    if not traced_result["metrics"]:
        return traced_full, traced_result
    layers = {name: tuple(value) for name, value in traced["layers"].items()}
    layers.update(serve_layer_metrics(traced))
    for name, unit in FIGURES.items():
        # 0 where the workload has no such figure; a missing tail is left out.
        if name in figures:
            layers[name] = (figures[name], unit)
        elif name not in full["tails"]:
            layers[name] = (0.0, unit)
    for name, unit in END_TO_END.items():
        layers[f"trace.overhead.{name}"] = (traced_metrics[name] - metrics[name], unit)
    full["spans"] = traced["spans"]
    full["traced_checks"] = traced["checks"]
    full["traced_outcomes"] = traced["outcomes"]
    correct = result["correct"] and traced_result["correct"]
    return full, _result(correct, traced["outcomes"], layers)


def _failed(workload: str, error: Dict, outcomes: Optional[Dict] = None) -> Tuple[Dict, Dict]:
    """A failed run: the error's tag joins whatever outcomes the run had."""
    tag = error["error"]
    outcomes = dict(outcomes or {"attempted": 0, "failed": 0, "errors": {}})
    outcomes["errors"] = dict(outcomes.get("errors", {}), **{tag: 1})
    attempted = max(1, int(outcomes["attempted"]))
    failed = max(1, int(outcomes["failed"]))
    full = {"workload": workload, "outcomes": outcomes, "detail": error.get("detail", "")}
    return full, {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        sys.path[:0] = [SRC, ROOT]
        return child_main(args)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program under test ({SRC}/repro) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        full, result = run_workload(name, args.seed, args.seconds, args.trace)
        ok = ok and bool(result["metrics"])
        print(json.dumps(full, default=float))
        if args.workload == "all":
            table = dict(full.get("end_to_end", {}), **full.get("figures", {}))
            tails = full.get("tails", {})
            for metric, (value, unit) in table.items():
                found = tails.get(metric)
                note = f"  (p{found['percentile']:.0f} of {found['samples']})" if found else ""
                print(f"{name:15s} {metric:24s} {value:14.4f} {unit}{note}")
            for metric in sorted(m for m, found in tails.items() if found is None):
                print(f"{name:15s} {metric:24s} {'missing':>14s}  (too few samples for a tail)")
    if args.workload != "all":
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
