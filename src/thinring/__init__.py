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

    glibc serves a block above its mmap threshold (128 KB until a larger
    mapped block is freed) by a fresh mmap, and returns a free heap top
    above its trim threshold to the OS; such blocks are then faulted in
    page by page on every call.  At M = 8 (N = 64) a residual faults no
    page either way, but without this call one at N = 128 or 256, where
    states are checked and thicker ones solved, takes 195 or 568 minor
    faults at rho = 0 (1.40 against 0.89 ms, 4.26 against 2.23 ms) and 325
    or 1018 at rho = 0.25 (2.15 against 1.35 ms, 6.92 against 3.93 ms;
    2-core Xeon, one BLAS thread, means of 20 warm residuals), and
    sweep_tension ran 11 to 22 % fewer states per second (4 alternating
    6 s runs, measured with the earlier collocation core).  Fixed
    thresholds of 32 MB (mmap) and 64 MB (trim) keep those blocks on the
    heap.  A C library without mallopt is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_freed_heap()
