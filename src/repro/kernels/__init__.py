"""Hot-path kernels (stacked inner products, Galois gathers, NTT stages).

See :mod:`repro.kernels.dispatch` for the name -> kernel registry and
:mod:`repro.kernels.ops` for the kernel implementations.
"""

from repro.kernels.dispatch import (
    KernelDispatchError,
    KernelRegistry,
    active_backend,
    drain_dispatch_counts,
    enable_dispatch_counts,
    get,
    registry,
)
from repro.kernels.ops import lazy_reduction_chunk

__all__ = [
    "KernelDispatchError",
    "KernelRegistry",
    "active_backend",
    "drain_dispatch_counts",
    "enable_dispatch_counts",
    "get",
    "lazy_reduction_chunk",
    "registry",
]
