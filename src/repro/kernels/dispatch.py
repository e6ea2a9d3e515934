"""The kernel registry: named hot-path kernels behind one lookup.

The hot-path inner loops — NTT butterfly stages, Galois gathers of the
key-switch digit tensor, and the stacked key-switch inner products —
are registered here as *named kernels* and looked up with :func:`get`.
Each kernel has exactly one implementation, the vectorized numpy one in
:mod:`repro.kernels.ops`; results are exact int64 modular arithmetic.

The name -> function table is kept as a seam rather than called
directly: per-kernel dispatch counting (the
``repro_kernel_dispatch_total`` metric) attaches here, and a profiler
can wrap a kernel by re-registering it under the same name.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

#: The one kernel backend, reported by telemetry as provenance.
BACKEND = "numpy"


class KernelDispatchError(RuntimeError):
    """Unknown kernel or backend name."""


class KernelRegistry:
    """Named kernels, one implementation each.

    One process-global instance (:data:`registry`) is shared by every
    context/backend; tests may instantiate private registries.
    """

    def __init__(self):
        self._impls: Dict[str, Callable] = {}
        # Per-kernel dispatch counts, opt-in (observability): counting
        # on every get() would put a dict update on the hottest call
        # site in the repo, so it stays off unless telemetry asks.
        self.count_dispatch = False
        self.dispatch_counts: Dict[str, int] = {}

    def register(self, kernel: str, backend: str, fn: Optional[Callable] = None):
        """Register ``fn`` as the implementation of ``kernel``.

        ``backend`` must be ``"numpy"``.  Re-registering a kernel
        replaces it.  Usable directly or as a decorator::

            @registry.register("ks_inner", "numpy")
            def ks_inner_numpy(...): ...
        """
        if backend != BACKEND:
            raise KernelDispatchError(
                f"unknown backend {backend!r}; the only kernel backend "
                f"is {BACKEND!r}"
            )

        def _add(impl: Callable) -> Callable:
            self._impls[kernel] = impl
            return impl

        return _add if fn is None else _add(fn)

    def kernels(self) -> Tuple[str, ...]:
        return tuple(sorted(self._impls))

    def get(self, kernel: str) -> Callable:
        """The implementation of ``kernel``."""
        fn = self._impls.get(kernel)
        if fn is None:
            raise KernelDispatchError(f"unknown kernel {kernel!r}")
        if self.count_dispatch:
            self.dispatch_counts[kernel] = (
                self.dispatch_counts.get(kernel, 0) + 1
            )
        return fn

    # -- dispatch counting (observability, opt-in) -------------------------
    def enable_dispatch_counts(self, enabled: bool = True) -> None:
        self.count_dispatch = enabled

    def drain_dispatch_counts(self) -> Dict[str, int]:
        """Return and clear the per-kernel dispatch counts."""
        counts = self.dispatch_counts
        self.dispatch_counts = {}
        return counts


#: The process-global registry every hot path dispatches through.
registry = KernelRegistry()


def get(kernel: str) -> Callable:
    """Shorthand for ``registry.get(kernel)`` (the hot-path entry)."""
    return registry.get(kernel)


def active_backend() -> str:
    """The kernel backend name (telemetry provenance): always ``"numpy"``."""
    return BACKEND


def enable_dispatch_counts(enabled: bool = True) -> None:
    """Toggle per-kernel dispatch counting on the global registry."""
    registry.enable_dispatch_counts(enabled)


def drain_dispatch_counts() -> Dict[str, int]:
    """Return and clear the global registry's dispatch counts."""
    return registry.drain_dispatch_counts()
