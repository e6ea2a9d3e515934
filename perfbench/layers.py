"""Per-layer tracing from outside the program.

:class:`Recorder` wraps public functions of each ``repro`` layer so
that every call records a :class:`perfbench.harness.Span` (name,
start, end, parent span, request id).  Spans stay in memory until the
run ends.  Nothing inside ``src/`` changes: the wrappers are installed
by patching attributes and removed again by :meth:`Recorder.uninstall`.

:func:`layer_metrics` turns the spans into the benchmark's per-layer
metrics (self time, call counts) in the names ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.harness import Span, self_times

#: (module, attribute path, span name) of every timed boundary.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    # repro.serve and the set-up entry points
    ("repro.serve", "open", "serve.open"),
    ("repro.serve.api", "Server.warm", "serve.warm"),
    ("repro.serve.api", "Server.submit", "serve.submit"),
    ("repro.serve.api", "Server.step", "serve.step"),
    ("repro.serve.api", "Server.serve_now", "serve.serve_now"),
    ("repro.orion.net", "OrionNetwork.export", "orion.export"),
    # repro.core.program
    ("repro.core.program", "FheProgram.encrypt_input", "program.encrypt"),
    ("repro.core.program", "FheProgram.execute", "program.execute"),
    ("repro.core.program", "FheProgram.decrypt_output", "program.decrypt"),
    # repro.core.packing
    ("repro.core.packing.matvec", "PackedMatVec.execute", "packing.matvec"),
    # repro.backend
    ("repro.backend.toy", "ToyBackend.bootstrap", "backend.bootstrap"),
    ("repro.backend.toy", "ToyBackend.mul", "backend.mul"),
    ("repro.backend.toy", "ToyBackend.rescale", "backend.rescale"),
    # repro.ckks
    ("repro.ckks.context", "CkksContext.rotate_hoisted_raw", "ckks.keyswitch_hoisted"),
    ("repro.ckks.context", "CkksContext.relinearize", "ckks.relinearize"),
    ("repro.ckks.context", "CkksContext.mod_raise", "ckks.boot.mod_raise"),
    ("repro.ckks.context", "CkksContext.generate_rotation_keys", "ckks.keygen"),
    ("repro.ckks.context", "CkksContext.galois_key", "ckks.keygen"),
    ("repro.ckks.bootstrap", "CkksBootstrapper.coeff_to_slot", "ckks.boot.coeff_to_slot"),
    ("repro.ckks.bootstrap", "CkksBootstrapper.eval_mod", "ckks.boot.eval_mod"),
    ("repro.ckks.bootstrap", "CkksBootstrapper.slot_to_coeff", "ckks.boot.slot_to_coeff"),
    # repro.rns / repro.ntt
    ("repro.rns.basis", "RnsBasis.forward_chain", "rns.ntt_forward"),
    ("repro.rns.basis", "RnsBasis.inverse_chain", "rns.ntt_inverse"),
    ("repro.rns.basis", "RnsBasis.divide_round_last", "rns.divide_round_last"),
    # repro.core compiler phases, as bound where the compiler calls them
    ("repro.core.compiler", "estimate_ranges", "core.ranges"),
    ("repro.core.compiler", "optimize_graph", "core.graphopt"),
    ("repro.core.compiler", "analyze_conv_packing", "core.packing"),
    ("repro.core.packing.analysis", "analyze_linear_packing", "core.packing"),
    ("repro.core.compiler", "poly_eval_ops", "core.approx"),
    ("repro.core.compiler", "solve_placement", "core.placement"),
)

#: Kernels re-registered with a timing wrapper for the active backend.
KERNELS = ("ntt_stage", "ks_inner_stacked", "ks_inner", "galois_gather")

#: The compiled networks of the compile workload (per-network suffixes).
NETWORKS = ("resnet20", "resnet110", "resnet50")
#: Request id of spans opened during a workload's set-up.
SETUP = "setup"


class Recorder:
    """Collects spans from wrapped boundaries, one stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        #: Request id stamped on every span opened while it is set.
        self.request: Optional[str] = None
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, on_result=None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = recorder._stack()
            span = Span(
                name,
                recorder.clock(),
                0.0,
                parent=stack[-1] if stack else None,
                request=recorder.request,
            )
            index = len(recorder.spans)
            recorder.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = recorder.clock()
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def count(self, name: str, amount: int = 1) -> None:
        key = f"{name}.{self.request}" if self.request in NETWORKS else name
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary, kernel and parameter construction."""
        for module_name, path, span_name in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            on_result = self._rewrites if span_name == "core.graphopt" else None
            self._patch(owner, attr, self.wrap(span_name, getattr(owner, attr), on_result))
        self._install_kernels()
        self._install_params_counter()

    def _rewrites(self, report) -> None:
        rewrites = getattr(report, "rewrites", None) or {}
        self.count("core.graphopt_rewrites", sum(rewrites.values()))

    def _patch(self, owner, attr: str, value) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, original))

    def _install_kernels(self) -> None:
        from repro import kernels

        active = kernels.active_backend()
        registry = kernels.registry
        for kernel in KERNELS:
            # get() resolves the active backend's implementation, or the
            # numpy reference it falls back to; the wrapper takes its place.
            impl = registry.get(kernel)
            registry.register(kernel, active, self.wrap(f"kernels.{kernel}", impl))
            self._restore.append(
                functools.partial(registry.register, kernel, active, impl)
            )

    def _install_params_counter(self) -> None:
        from repro.ckks.params import CkksParameters

        original = CkksParameters.__post_init__

        def counted(params_self):
            self.count("ckks.params_builds")
            original(params_self)

        self._patch(CkksParameters, "__post_init__", counted)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def _per(total: float, ops: int) -> float:
    return total / ops if ops else 0.0


def layer_metrics(recorder: Recorder, requests: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the recorded spans.

    ``*_ms`` figures are self time per completed request outside set-up
    (0 when the workload served no requests) and ``calls`` are totals
    outside set-up.  ``serve.open_s``, ``serve.warm_s``,
    ``orion.export_s`` and ``ckks.keygen_s`` are whole-call seconds per
    set-up.  Compiler figures are self seconds and counts per compile of
    each network.
    """
    spans = recorder.spans
    own = self_times(spans)
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    # Set-up figures are whole-call durations per set-up, so that they
    # add up to the workload's setup_s.
    setup_s: Dict[str, float] = {}
    keygen_s = 0.0
    for span, seconds in zip(spans, own):
        if span.name == "ckks.keygen":
            parent = spans[span.parent] if span.parent is not None else None
            if parent is None or parent.name != "ckks.keygen":
                keygen_s += span.duration
        if span.request == SETUP:
            setup_s[span.name] = setup_s.get(span.name, 0.0) + span.duration
            calls[span.name + ".setup"] = calls.get(span.name + ".setup", 0) + 1
            continue
        key = span.name
        if span.request in NETWORKS:
            key = f"{span.name}.{span.request}"
        self_s[key] = self_s.get(key, 0.0) + seconds
        calls[key] = calls.get(key, 0) + 1

    setups = max(1, calls.get("serve.open.setup", 0))

    def ms(name: str) -> Tuple[float, str]:
        return (_per(self_s.get(name, 0.0), requests) * 1e3, "ms")

    metrics: Dict[str, Tuple[float, str]] = {
        "serve.open_s": (setup_s.get("serve.open", 0.0) / setups, "s"),
        "serve.warm_s": (setup_s.get("serve.warm", 0.0) / setups, "s"),
        "orion.export_s": (setup_s.get("orion.export", 0.0) / setups, "s"),
        "program.encrypt_ms": ms("program.encrypt"),
        "program.execute_ms": ms("program.execute"),
        "program.decrypt_ms": ms("program.decrypt"),
        "packing.matvec_ms": ms("packing.matvec"),
        "packing.matvec_calls": (calls.get("packing.matvec", 0), "count"),
        "backend.bootstrap_ms": ms("backend.bootstrap"),
        "backend.bootstraps": (calls.get("backend.bootstrap", 0), "count"),
        "backend.mul_ms": ms("backend.mul"),
        "backend.rescale_ms": ms("backend.rescale"),
        "ckks.keyswitch_hoisted_ms": ms("ckks.keyswitch_hoisted"),
        "ckks.keyswitch_hoisted_calls": (calls.get("ckks.keyswitch_hoisted", 0), "count"),
        "ckks.relinearize_ms": ms("ckks.relinearize"),
        "ckks.boot.mod_raise_ms": ms("ckks.boot.mod_raise"),
        "ckks.boot.coeff_to_slot_ms": ms("ckks.boot.coeff_to_slot"),
        "ckks.boot.eval_mod_ms": ms("ckks.boot.eval_mod"),
        "ckks.boot.slot_to_coeff_ms": ms("ckks.boot.slot_to_coeff"),
        "ckks.keygen_s": (keygen_s / setups, "s"),
        "rns.ntt_forward_ms": ms("rns.ntt_forward"),
        "rns.ntt_inverse_ms": ms("rns.ntt_inverse"),
        "rns.divide_round_last_ms": ms("rns.divide_round_last"),
    }
    for kernel in KERNELS:
        name = f"kernels.{kernel}"
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.ms"] = ms(name)
    # Compiler figures are per compile of the network: a run may compile
    # one network several times.
    counts = recorder.counts
    for net in NETWORKS:
        compiles = counts.get(f"core.compiles.{net}", 0)
        for phase in ("ranges", "graphopt", "packing", "approx", "placement"):
            seconds = self_s.get(f"core.{phase}.{net}", 0.0)
            metrics[f"core.{phase}_s.{net}"] = (_per(seconds, compiles), "s")
        for name in ("core.graphopt_rewrites", "core.bootstraps", "core.rotations", "ckks.params_builds"):
            metrics[f"{name}.{net}"] = (_per(counts.get(f"{name}.{net}", 0), compiles), "count")
    return metrics
