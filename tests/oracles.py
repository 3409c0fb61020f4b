"""Independent reference evaluations that only the tests call.

``f_direct`` evaluates the ring kernel profile by adaptive quadrature and
shares no code with ``thinring.special``; ``kernel_direct`` evaluates the
outer kernel pointwise on the elliptic path, without the log split;
``bordered_solve_dense`` solves the outer bordered system on all n nodes,
without the even-symmetry fold; ``dtn_disk`` is the Dirichlet-to-Neumann
map of the unit disk as a Fourier multiplier.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from thinring.shape import BoundaryGrid
from thinring.special import f_elliptic


def _direct_integrand(t: float, s: float) -> float:
    # 2(1 - cos t) written as 4 sin^2(t/2): identical, but immune to the
    # 1 - cos cancellation that would inject 1e-8 relative noise near t = 0.
    hs = np.sin(0.5 * t)
    return np.cos(t) / np.sqrt(4.0 * hs * hs + s)


def f_direct(s: float, rtol: float = 1e-12) -> float:
    """Ring kernel profile by adaptive quadrature; oracle path.

    Evaluates F(s) = int_0^pi cos t / sqrt(2(1 - cos t) + s) dt with
    adaptive Gauss-Kronrod, splitting at the t = 0 peak.  On the peak
    interval the substitution t = sqrt(s) sinh(u) flattens the
    1/sqrt(t^2 + s) profile so the rule converges cleanly.  Shares no
    code with ``f_elliptic``.  Absolute accuracy ~1e-11 on [1e-8, 1e4].
    """
    if s <= 0.0:
        raise ValueError(f"s must be positive, got {s}")
    rs = np.sqrt(s)
    cut = min(0.5, max(rs * 8.0, 1e-6))

    def peak(u: float) -> float:
        t = rs * np.sinh(u)
        return _direct_integrand(t, s) * rs * np.cosh(u)

    v1, _ = quad(peak, 0.0, np.arcsinh(cut / rs),
                 epsabs=1e-12, epsrel=rtol, limit=400)
    v2, _ = quad(_direct_integrand, cut, np.pi, args=(s,),
                 epsabs=1e-12, epsrel=rtol, limit=400)
    return v1 + v2


def kernel_direct(grid: BoundaryGrid) -> np.ndarray:
    """Pointwise kernel values m s2/(2 pi) F(eps^2 s1/s2^2), elliptic path.

    Off-diagonal only (the diagonal is logarithmically singular); used as
    the independent check of the assembled A log(4 sin^2) + B split.
    """
    n = grid.n
    d = grid.chi[:, None, :] - grid.chi[None, :, :]
    s1 = np.sum(d * d, axis=2)
    radial = 1.0 + grid.eps * grid.chi[:, 0]
    s2 = np.sqrt(np.outer(radial, radial))
    s = grid.eps**2 * s1 / s2**2
    out = np.empty((n, n))
    off = ~np.eye(n, dtype=bool)
    out[off] = (grid.m[None, :] * s2 / (2.0 * np.pi))[off] * f_elliptic(s[off])
    out[np.eye(n, dtype=bool)] = np.nan
    return out


def bordered_solve_dense(grid: BoundaryGrid, mat: np.ndarray,
                         rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Unfolded (n+1) system [mat, -1; m w, 0] (mu, c) = (rhs, 1)."""
    n = grid.n
    sys_mat = np.zeros((n + 1, n + 1))
    sys_mat[:n, :n] = mat
    sys_mat[:n, n] = -1.0
    sys_mat[n, :n] = grid.m * grid.weight
    sol = np.linalg.solve(sys_mat, np.append(rhs, 1.0))
    return sol[:n], float(sol[n])


def dtn_disk(values: np.ndarray) -> np.ndarray:
    """Dirichlet-to-Neumann map of the unit disk on uniform boundary samples.

    Acts as the Fourier multiplier |l|: the harmonic extension of
    cos(l alpha) is s^l cos(l alpha) with outward normal derivative
    l cos(l alpha).
    """
    values = np.asarray(values, dtype=float)
    spec = np.fft.rfft(values)
    spec *= np.arange(spec.size)
    return np.fft.irfft(spec, values.size)
