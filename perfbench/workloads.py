"""The three benchmark workloads, driven through public entry points.

Each workload function takes ``(seed, seconds, workdir, recorder)``
and returns a record: set-up times, per-operation samples, the
workload's named metrics and the outcome of every correctness oracle.
Weights (``init.seed_init``), calibration batches, request images and
arrival times all derive from ``seed``.  Nothing here pins a default:
the pool is ``ServerConfig()``'s inline pool, the kernel backend is the
capability probe's pick and the graph optimizer keeps its default.

- ``mlp-open``: open-loop seeded Poisson arrivals over a rate ladder
  against the canonical ``SecureMlp(64, 16)`` serving model.
- ``deep-boot``: a closed loop of one client on ``SecureMlp(16, 8)``
  whose every request runs one real bootstrap.
- ``resnet-compile``: paper-scale ResNet-20/110/50 compiles in
  ``mode="analyze"``.
"""

from __future__ import annotations

import gc
import os
import time
from statistics import median
from typing import Dict, List, Optional

import numpy as np

from perfbench.harness import Outcomes, arrival_schedule, tail, within_floor
from perfbench.layers import SETUP

#: Latency limit on a rung's tail for the highest-sustained-rate metric.
SLO_MS = 1500.0
#: Open-loop rate ladder (req/s) and each rung's share of ``--seconds``.
#: At 20 s every rung below 64 req/s offers more than twenty requests,
#: enough for a tail above the median.
RUNGS = ((2, 0.55), (8, 0.15), (32, 0.15), (64, 0.15))
#: Rungs well below capacity: every request offered there must be served.
#: The faster rungs probe the ceiling; admission refusals there are the
#: server's designed backpressure, so they decide ``slo_rps`` and are
#: marked ``SHED`` (counted in ``failed_share``), not failed.
LIGHT_RATES = (2, 8)
#: Sleep between polls of ``Server.step`` while the generator waits.
POLL_S = 0.001
#: Set-ups per run (their median is ``setup_s``): on a 2-vCPU machine a
#: serving set-up costs about ten seconds, a compile set-up about five.
SERVING_SETUPS = 2
COMPILE_SETUPS = 3
#: The network whose untimed compile ends each compile set-up.
WARMUP = "resnet110"
#: Absolute ``precision_bits`` below which an output that clears the
#: floor (``harness.FLOOR_BITS``) is marked low precision.  The N=128
#: bootstrap leaves a few percent of deep-boot outputs there: large
#: outputs off by a little, the worst seen 3.3 bits better than an
#: all-zero output.  They count in ``failed_share`` and
#: ``low_precision_share``.
LOW_BITS = 4.0
#: Outcome tags.
BELOW_FLOOR = "BelowPrecisionFloor"
LOW_PRECISION = "LowPrecision"
REFUSED = "AdmissionError"
SHED = "Shed"


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


_clock = time.perf_counter


# -- serving ------------------------------------------------------------------
class _Serving:
    """Model, artifact and warmed server of one serving workload."""

    def __init__(self, name: str, seed: int, workdir: str, recorder):
        from repro import serve
        from repro.ckks.params import bootstrap_parameters, toy_parameters
        from repro.models import SecureMlp
        from repro.nn import init
        from repro.orion import OrionNetwork

        if name == "mlp-open":
            pixels, hidden, self.shape = 64, 16, (1, 8, 8)
            params = toy_parameters(
                ring_degree=2048, max_level=6, boot_levels=1, scale_bits=24
            )
            config = serve.ServerConfig()
        else:
            pixels, hidden, self.shape = 16, 8, (1, 4, 4)
            params = bootstrap_parameters()
            config = serve.ServerConfig(backend_factory=_real_bootstrap_backend)
        init.seed_init(seed)
        self.network = OrionNetwork(SecureMlp(input_pixels=pixels, hidden=hidden), self.shape)
        self.network.fit([_rng(seed, 1).normal(0.0, 0.5, (8,) + self.shape)])
        self.setup_s: List[float] = []
        self.server = None
        for index in range(SERVING_SETUPS):
            if self.server is not None:
                self.server.close()
                self.server = None
                gc.collect()
            path = os.path.join(workdir, f"{name}-{index}.npz")
            _set_request(recorder, SETUP)
            start = _clock()
            self.network.export(path, params)
            self.server = serve.open(path, config)
            self.capacity = self.server.stats().workers[0].capacity
            sizes = [1 << k for k in range(self.capacity.bit_length())]
            self.server.warm(batch_sizes=sizes)
            self.setup_s.append(_clock() - start)
            _set_request(recorder, None)
        self.images = _rng(seed, 2)

    def image(self) -> np.ndarray:
        return self.images.normal(0.0, 0.5, self.shape)

    def close(self) -> Dict:
        stats = self.server.stats()
        self.server.close()
        return stats


def _real_bootstrap_backend(params, seed):
    from repro.backend.toy import ToyBackend

    return ToyBackend(params, seed=seed, real_bootstrap=True)


def _set_request(recorder, request: Optional[str]) -> None:
    if recorder is not None:
        recorder.request = request


def _check_precision(network, images, outputs, outcomes, bits_out) -> None:
    """Compare every output with the plain module forward.

    An output below the floor is wrong and fails its request; one that
    clears it but reads under ``LOW_BITS`` absolute bits is marked.
    """
    for image, output in zip(images, outputs):
        clear = network.forward_cleartext(image)
        bits = network.precision_bits(output, clear)
        bits_out.append(bits)
        if not within_floor(output, clear):
            outcomes.fail(BELOW_FLOOR)
        elif bits < LOW_BITS:
            outcomes.mark(LOW_PRECISION)
        else:
            outcomes.ok()


def _open_loop_rung(serving, seed, rate, seconds, recorder, tally) -> Dict:
    """Offer one rung of seeded Poisson arrivals through submit/step.

    Each request is timed from its due time to the return of the
    ``step`` call that delivered it, so a stall also delays the requests
    due behind it.  ``step`` runs batches synchronously, so the
    generator runs late while a batch runs; its lateness is recorded.
    """
    from repro.serve import AdmissionError

    server = serving.server
    offsets = arrival_schedule(seed, rate, seconds)
    images = [serving.image() for _ in offsets]
    outputs: Dict[int, np.ndarray] = {}
    latency_ms: Dict[int, float] = {}
    due: Dict[int, tuple] = {}
    lateness: List[float] = []
    refused = 0
    outcomes = Outcomes()
    light = rate in LIGHT_RATES

    def collect(results) -> None:
        now = _clock()
        batches = set()
        for result in results:
            index, due_at = due.pop(result.ticket)
            latency_ms[index] = (now - due_at) * 1e3
            outputs[index] = result.output
            tally["batch_sizes"].append(result.batch_size)
            tally["waits_ms"].append(max(0.0, latency_ms[index] - result.wall_seconds * 1e3))
            batch = (result.worker_id, result.wall_seconds, result.batch_size)
            if batch not in batches:
                batches.add(batch)
                tally["busy_s"] += result.wall_seconds

    start = _clock()
    for index, offset in enumerate(offsets):
        due_at = start + offset
        while True:
            now = _clock()
            if now >= due_at:
                break
            results = server.step() if due else None
            if results:
                collect(results)
            else:
                time.sleep(min(POLL_S, due_at - now))
        lateness.append(_clock() - due_at)
        _set_request(recorder, f"r{rate}-{index}")
        try:
            due[server.submit(images[index], client_id=f"client-{index % 64}")] = (index, due_at)
        except AdmissionError:
            refused += 1
            if light:
                outcomes.fail(REFUSED)
            else:
                outcomes.mark(SHED)
        finally:
            _set_request(recorder, None)
    backlog = len(due)
    while due:
        results = server.step()
        if results:
            collect(results)
        else:
            time.sleep(POLL_S)
    finished = _clock()
    tally["measured_s"] += finished - start
    tally["rejected"] += refused
    served = sorted(outputs)
    bits: List[float] = []
    _check_precision(
        serving.network, [images[i] for i in served], [outputs[i] for i in served], outcomes, bits
    )
    samples = [latency_ms[i] for i in served]
    found = tail(samples)
    # Refused requests miss the latency limit; a backlog of more than two
    # full batches at the last arrival means the queue was growing.  A
    # rung too short for a tail is judged on the rest.
    sustained = bool(
        refused == 0
        and outcomes.failed == 0
        and (found is None or found.value <= SLO_MS)
        and backlog <= 2 * serving.capacity
    )
    return {
        "rate": rate,
        "arrivals": len(offsets),
        "refused": refused,
        "p50_ms": median(samples) if samples else None,
        "lateness_ms": [late * 1e3 for late in lateness],
        "lateness_ms_p50": median(lateness) * 1e3,
        "backlog_at_last_arrival": backlog,
        "goodput_rps": len(served) / (finished - start),
        "sustained": sustained,
        "samples_ms": samples,
        "precision_bits": bits,
        "outcomes": outcomes,
    }


def mlp_open(seed: int, seconds: float, workdir: str, recorder=None) -> Dict:
    serving = _Serving("mlp-open", seed, workdir, recorder)
    tally = {"batch_sizes": [], "waits_ms": [], "busy_s": 0.0, "measured_s": 0.0, "rejected": 0}
    outcomes = Outcomes()
    rungs = []
    for rate, share in RUNGS:
        rung = _open_loop_rung(serving, seed, rate, seconds * share, recorder, tally)
        outcomes.merge(rung.pop("outcomes"))
        rungs.append(rung)
    slo_rps = 0
    for rung in rungs:
        if not rung["sustained"]:
            break
        slo_rps = rung["rate"]
    worker = serving.close().workers[0]
    bits = [b for rung in rungs for b in rung.pop("precision_bits")]
    return {
        "setup_s": serving.setup_s,
        "rungs": rungs,
        "slo_rps": slo_rps,
        "precision_bits": bits,
        "lateness_ms_p50": median([ms for rung in rungs for ms in rung.pop("lateness_ms")]),
        "outcomes": outcomes,
        "checks": {"compilations_since_load == 0": worker.compilations_since_load == 0},
        "serve": dict(
            tally,
            capacity=serving.capacity,
            batches=worker.batches_run,
            requests=len(tally["batch_sizes"]),
        ),
    }


def deep_boot(seed: int, seconds: float, workdir: str, recorder=None) -> Dict:
    serving = _Serving("deep-boot", seed, workdir, recorder)
    server = serving.server
    outcomes = Outcomes()
    images, outputs, samples, waits_ms = [], [], [], []
    busy_s = 0.0
    start = _clock()
    # Keep going past ``seconds`` until there is a tail, within a hard
    # cap so that failing requests cannot loop forever.
    while _clock() - start < seconds or (tail(samples) is None and _clock() - start < 4 * seconds):
        image = serving.image()
        _set_request(recorder, f"req-{len(images)}")
        began = _clock()
        try:
            result = server.serve_now(image, client_id="client-0")
        except Exception as error:  # a raised error is a failed request
            outcomes.fail(type(error).__name__)
            continue
        finally:
            _set_request(recorder, None)
        samples.append((_clock() - began) * 1e3)
        waits_ms.append(max(0.0, samples[-1] - result.wall_seconds * 1e3))
        busy_s += result.wall_seconds
        images.append(image)
        outputs.append(result.output)
    measured_s = _clock() - start
    bits: List[float] = []
    _check_precision(serving.network, images, outputs, outcomes, bits)
    stats = serving.close()
    worker = stats.workers[0]
    return {
        "setup_s": serving.setup_s,
        "samples_ms": samples,
        "measured_s": measured_s,
        "precision_bits": bits,
        "outcomes": outcomes,
        "checks": {"compilations_since_load == 0": worker.compilations_since_load == 0},
        "serve": {
            "capacity": serving.capacity,
            "batch_sizes": [1] * len(samples),
            "waits_ms": waits_ms,
            "batches": worker.batches_run,
            "busy_s": busy_s,
            "measured_s": measured_s,
            "rejected": 0,
            "requests": len(samples),
        },
    }


# -- compile ------------------------------------------------------------------
def _networks(seed: int):
    """(name, module, input shape, calibration batch) of the ladder."""
    from repro.datasets import cifar_like, imagenet_like
    from repro.models import relu_act, resnet_cifar, resnet_imagenet
    from repro.nn import init

    out = []
    for offset, (name, build, shape) in enumerate(
        (
            ("resnet20", lambda: resnet_cifar(20, act=relu_act()), (3, 32, 32)),
            ("resnet110", lambda: resnet_cifar(110, act=relu_act()), (3, 32, 32)),
            ("resnet50", lambda: resnet_imagenet(50, act=relu_act()), (3, 224, 224)),
        )
    ):
        init.seed_init(seed * 1000 + offset)
        data_seed = int(_rng(seed, 10 + offset).integers(2**31))
        if shape[1] == 32:
            batch = cifar_like(4, seed=data_seed).images
        else:
            batch = imagenet_like(1, seed=data_seed).images
        out.append((name, build(), shape, batch))
    return out


def resnet_compile(seed: int, seconds: float, workdir: str, recorder=None) -> Dict:
    from repro.ckks.params import paper_parameters
    from repro.orion import OrionNetwork

    outcomes = Outcomes()
    setup_s: List[float] = []
    shapes: Dict[str, set] = {}
    nets = None

    def compile_one(name, onet):
        # Start each compile from a collected heap, so that a collection
        # of the previous compile's garbage does not land in this one.
        gc.collect()
        _set_request(recorder, name)
        began = _clock()
        try:
            compiled = onet.compile(paper_parameters(), mode="analyze")
        except Exception as error:
            outcomes.fail(type(error).__name__)
            return None
        finally:
            _set_request(recorder, None)
        elapsed = _clock() - began
        summary = compiled.summary()
        shapes.setdefault(name, set()).add((summary["bootstraps"], summary["rotations"]))
        return elapsed, summary

    for _ in range(COMPILE_SETUPS):
        start = _clock()
        nets = []
        for name, module, shape, batch in _networks(seed):
            onet = OrionNetwork(module, shape)
            onet.fit([batch])
            nets.append((name, onet))
        # The untimed warm-up compile: a cold compile pays one-off costs.
        # ResNet-110 rather than ResNet-20: on a shared 2-vCPU machine the
        # one-second ResNet-20 set-up moved with machine load by a quarter,
        # where the five-second ResNet-110 one moved by a tenth.
        compile_one(WARMUP + "-warmup", dict(nets)[WARMUP])
        setup_s.append(_clock() - start)
    # The measured phase is one pass over the ladder (about 20 s here),
    # whatever ``seconds`` asks: ResNet-50 alone takes most of it.
    compile_s: Dict[str, float] = {}
    summaries: Dict[str, Dict] = {}
    start = _clock()
    for name, onet in nets:
        done = compile_one(name, onet)
        if done is None:
            continue
        outcomes.ok()
        compile_s[name] = done[0]
        summaries[name] = done[1]
        if recorder is not None:
            recorder.request = name
            recorder.count("core.compiles")
            recorder.count("core.bootstraps", int(done[1]["bootstraps"]))
            recorder.count("core.rotations", int(done[1]["rotations"]))
            recorder.request = None
    measured_s = _clock() - start
    shapes[WARMUP] = shapes.get(WARMUP, set()) | shapes.pop(WARMUP + "-warmup", set())
    return {
        "setup_s": setup_s,
        "compile_s": compile_s,
        "measured_s": measured_s,
        "summaries": summaries,
        "outcomes": outcomes,
        "checks": {
            f"repeated compiles agree ({name})": len(found) == 1
            for name, found in shapes.items()
        },
    }


WORKLOADS = {
    "mlp-open": mlp_open,
    "deep-boot": deep_boot,
    "resnet-compile": resnet_compile,
}
