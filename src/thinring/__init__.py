"""Steady thin vortex rings with a vortex-sheet interface and surface tension.

Spectral boundary-integral solver for the two-phase axisymmetric Euler
equations in the thin-ring regime: given a density ratio rho and a surface
tension law sigma(eps), it computes the cross-section shape, the ring speed W,
the flux constant gamma and the Bernoulli constant nu, and compares them
against the thin-ring asymptotics (generalized Kelvin-Hicks law).
"""

import ctypes

__version__ = "0.1.0"

# glibc mallopt parameters and the values set by _keep_freed_heap
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 2**20
_TRIM_THRESHOLD = 64 * 2**20


def _keep_freed_heap() -> None:
    """Keep freed numpy temporaries on the heap for the next residual.

    A residual allocates and frees dozens of arrays of 0.25 to 2 MB.  glibc
    serves a block above its mmap threshold (128 KB until a larger mapped
    block is freed) by a fresh mmap, and gives a free heap top above its
    trim threshold back to the OS, so such arrays are faulted in page by
    page on every call: about 1000 minor faults per rho = 0 residual, a
    quarter of its time in the kernel.  Whether that happens depends on the
    allocation history of the process, so the same sweep ran at 2.1 or at
    1.5 states per second from one process to the next.  Fixed thresholds
    of 32 MB (mmap) and 64 MB (trim) keep those blocks on the heap.  A C
    library without mallopt is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_freed_heap()
