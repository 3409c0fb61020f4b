"""Interior (core) potential solve on the pulled-back unit disk.

The rescaled core problem is

    -div( (1/(1+eps x1)) grad phi ) = 4 (1 + eps x1)   in Omega_theta,
    phi = 0                                            on the boundary,

whose conormal trace feeds the pressure jump through

    lambda = (1/(1+eps x1)) d_n phi  composed with the boundary chart.

``particular_solution`` provides the exact polynomial particular part

    phi_p = -(x1^2/2) (2 + eps x1)^2,

so only a homogeneous remainder u with Dirichlet data -phi_p remains.  That
remainder is solved by collocation on the unit disk after pulling back along
the harmonic extension map

    X(s, alpha) = s (1 + sum_l a_l s^l cos(l alpha)) (cos alpha, sin alpha),

which carries the unit circle onto the boundary r = 1 + theta.  Since
s^l cos(l alpha) = Re z^l, X is a polynomial in Cartesian coordinates, so the
pulled-back operator is analytic and the collocation converges spectrally on
a Chebyshev grid in radius and a uniform Fourier grid in angle.  The radial
grid lives on [-1, 1] with an odd polynomial degree so no node sits at the
coordinate singularity; fields at negative radius are identified with their
antipodes, which keeps spectral accuracy across the center (Trefethen,
Spectral Methods in MATLAB, ch. 11).

The discrete operator is written once, as a function on fields (n_r,
n_alpha): the radial derivative is a Chebyshev matrix product plus its
antipodal partner, the angular derivative a Fourier matrix product.  No
collocation matrix is formed.  The Dirichlet data are lifted onto the ring
t = 1, and GMRES (Saad and Schultz 1986) solves for the interior rows with
the operator applied as a function.  Its right preconditioner is the
operator at theta = 0, eps = 0, s times the disk Laplacian, which is
diagonal in the Fourier modes: one small radial block per mode, inverted
once per grid and applied by one real FFT, one batched block product and
one inverse FFT.  Since the reflection alpha -> -alpha commutes with the
operator, u comes out even in alpha from the even data without a fold.  A
solve that misses its tolerance raises GeometryError.

At theta = 0, eps = 0 the solution is phi = 1 - |x|^2 and lambda = -2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .shape import FourierShape, GeometryError, area, moment_x1, resample_trig

# a core solve whose GMRES residual, relative to the lifted right-hand side,
# is not below _GMRES_TOL within _GMRES_MAX_ITER iterations raises
_GMRES_TOL = 1e-14
_GMRES_MAX_ITER = 60

__all__ = [
    "InnerSolution",
    "particular_solution",
    "solve_inner",
]


def particular_solution(points: np.ndarray, eps: float):
    """Exact particular solution of the core problem and its gradient.

    Parameters
    ----------
    points : ndarray, shape (..., 2)
        Evaluation points in the cross-section plane.
    eps : float
        Aspect ratio.

    Returns
    -------
    (phi_p, grad) : ndarray shape (...,) and (..., 2)
        phi_p = -(x1^2/2)(2 + eps x1)^2 satisfies
        -div((1/(1+eps x1)) grad phi_p) = 4 (1 + eps x1) identically.
    """
    pts = np.asarray(points, dtype=float)
    x1 = pts[..., 0]
    phi = -0.5 * x1 * x1 * (2.0 + eps * x1) ** 2
    g1 = -2.0 * x1 * (2.0 + eps * x1) * (1.0 + eps * x1)
    grad = np.stack([g1, np.zeros_like(g1)], axis=-1)
    return phi, grad


@lru_cache(maxsize=8)
def _cheb(n: int):
    """Chebyshev-Lobatto nodes (descending) and differentiation matrix."""
    k = np.arange(n + 1)
    t = np.cos(np.pi * k / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** k
    tt = np.tile(t, (n + 1, 1)).T
    dt = tt - tt.T + np.eye(n + 1)
    d = np.outer(c, 1.0 / c) / dt
    d -= np.diag(d.sum(axis=1))
    return t, d


@lru_cache(maxsize=8)
def _fourier_diff(n: int) -> np.ndarray:
    """Spectral differentiation matrix on n uniform nodes (n even)."""
    j = np.arange(1, n)
    col = np.zeros(n)
    col[1:] = 0.5 * (-1.0) ** j / np.tan(np.pi * j / n)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return col[idx]


@dataclass(frozen=True)
class InnerSolution:
    """Core potential trace data on a uniform boundary grid."""

    alpha: np.ndarray
    lam: np.ndarray        # (1/(1+eps x1)) d_n phi on the boundary
    diagnostics: dict

    def lam_on(self, n: int) -> np.ndarray:
        """Trigonometric resampling of lambda onto an n-point grid."""
        return resample_trig(self.lam, n)


@lru_cache(maxsize=8)
def _folded_cheb(n_r: int):
    """Positive Chebyshev nodes t_0 = 1 > ... > t_{n_r-1} > 0 and the folded
    radial derivative (d_pp, d_fold) on them.

    The grid has odd degree 2 n_r - 1, so no node sits at the center; the
    derivative's reach into t < 0 is d_fold, applied to the field at the
    antipodal angle alpha + pi (fields even across the center).
    """
    ns = 2 * n_r - 1
    t_all, d_all = _cheb(ns)
    return t_all[:n_r], d_all[:n_r, :n_r], d_all[:n_r, ns - np.arange(n_r)]


@lru_cache(maxsize=8)
def _mode_inverses(n_r: int, n_alpha: int) -> np.ndarray:
    """Inverse radial blocks of the disk operator, one per Fourier mode.

    At theta = 0, eps = 0 the pulled-back operator is d_s(s u_s) + u_aa / s.
    On Fourier mode k the antipodal shift is (-1)^k and d_aa is -k^2 (0 at
    the Nyquist mode, as _fourier_diff gives), which leaves
    L_k = D_k diag(s) D_k - k^2 diag(1/s) with D_k = d_pp + (-1)^k d_fold.
    Row and column 0 (the Dirichlet ring t = 1) are dropped; the result has
    shape (n_alpha/2 + 1, n_r - 1, n_r - 1), complex to act on rfft modes.
    """
    t, d_pp, d_fold = _folded_cheb(n_r)
    k = np.arange(n_alpha // 2 + 1)
    d_k = d_pp + ((-1.0) ** k)[:, None, None] * d_fold
    k2 = np.where(k < n_alpha // 2, k * k, 0)
    l_k = d_k @ (t[:, None] * d_k) - k2[:, None, None] * np.diag(1.0 / t)
    return np.linalg.inv(l_k[:, 1:, 1:]).astype(complex)


def _gmres(apply, rhs: np.ndarray, tol: float, max_iter: int):
    """Unrestarted GMRES for apply(x) = rhs from x = 0 (Saad and Schultz 1986).

    The Arnoldi basis is orthogonalized by classical Gram-Schmidt, applied
    twice; Givens rotations keep the least-squares residual |g_{j+1}| at
    hand, and the loop stops once it is at most tol |rhs|.  Returns
    (x, iterations, residual relative to |rhs|).
    """
    norm = float(np.linalg.norm(rhs))
    basis = np.zeros((max_iter + 1, rhs.size))
    hess = np.zeros((max_iter + 1, max_iter))
    rot = np.zeros((max_iter, 2))
    g = np.zeros(max_iter + 1)
    basis[0] = rhs / norm
    g[0] = norm
    for j in range(max_iter):
        w = apply(basis[j])
        for _ in range(2):
            proj = basis[:j + 1] @ w
            w -= proj @ basis[:j + 1]
            hess[:j + 1, j] += proj
        hess[j + 1, j] = np.linalg.norm(w)
        if hess[j + 1, j] > 0.0:
            basis[j + 1] = w / hess[j + 1, j]
        for i, (cs, sn) in enumerate(rot[:j]):
            hess[i, j], hess[i + 1, j] = (cs * hess[i, j] + sn * hess[i + 1, j],
                                          cs * hess[i + 1, j] - sn * hess[i, j])
        rr = np.hypot(hess[j, j], hess[j + 1, j])
        rot[j] = hess[j, j] / rr, hess[j + 1, j] / rr
        hess[j, j] = rr
        g[j + 1] = -rot[j, 1] * g[j]
        g[j] *= rot[j, 0]
        if abs(g[j + 1]) <= tol * norm:
            break
    y = np.linalg.solve(np.triu(hess[:j + 1, :j + 1]), g[:j + 1])
    return y @ basis[:j + 1], j + 1, abs(g[j + 1]) / norm


def _solve_core(shape: FourierShape, eps: float, n_r: int, n_alpha: int):
    """One core solve; returns (alpha, lam, phi_grid, m, gmres_iterations).

    u = u_b + v, with u_b = -phi_p on the ring t = 1 and 0 inside; GMRES
    solves oper(v) = -oper(u_b) on the interior rows for v, right
    preconditioned by the mode blocks of _mode_inverses.  A solve that
    misses _GMRES_TOL within _GMRES_MAX_ITER iterations raises
    GeometryError.
    """
    t, d_pp, d_fold = _folded_cheb(n_r)    # row 0 (t = 1) is the boundary
    alpha = 2.0 * np.pi * np.arange(n_alpha) / n_alpha

    # harmonic extension r = s (1 + sum_l a_l s^l cos(l alpha)): one table of
    # a_l t^l against cos/sin(l alpha)
    l = np.arange(shape.coeffs.size)
    cos_l = np.cos(np.multiply.outer(l, alpha))
    sin_l = np.sin(np.multiply.outer(l, alpha))
    pw = shape.coeffs * t[:, None] ** l
    s = t[:, None]
    r = s * (1.0 + pw @ cos_l)
    r_s = 1.0 + (pw * (l + 1)) @ cos_l
    r_a = -s * ((pw * l) @ sin_l)
    if np.min(r_s) <= 0.0:
        raise GeometryError("harmonic extension not invertible: r_s <= 0")
    cos_a, sin_a = np.cos(alpha), np.sin(alpha)
    one_plus = 1.0 + eps * r * cos_a[None, :]
    if np.min(one_plus) <= 0.0:
        raise GeometryError("eps too large: 1 + eps x1 <= 0 inside the section")
    beta = 1.0 / one_plus

    # metric-form coefficients of div((1/(1+eps x1)) grad .) in (s, alpha)
    a = beta * (r_a * r_a + r * r) / (r_s * r)
    b = -beta * r_a / r
    c = beta * r_s / r

    # the radial derivative on fields (n_r, n_alpha) takes its reach into
    # t < 0 from the antipodal angle; every field it is applied to (u, then
    # a u_s + b u_a) is even across the center
    d_ang_t = _fourier_diff(n_alpha).T
    antipode = (np.arange(n_alpha) + n_alpha // 2) % n_alpha

    def d_s(v):
        return d_pp @ v + d_fold @ v[:, antipode]

    def oper(v):
        u_s, u_a = d_s(v), v @ d_ang_t
        return d_s(a * u_s + b * u_a) + (b * u_s + c * u_a) @ d_ang_t

    inv = _mode_inverses(n_r, n_alpha)

    def precondition(y):
        spec = np.fft.rfft(y.reshape(n_r - 1, n_alpha), axis=1)
        spec = (inv @ spec.T[:, :, None])[:, :, 0].T
        return np.fft.irfft(spec, n_alpha, axis=1)

    v = np.zeros((n_r, n_alpha))

    def apply(y):
        v[1:] = precondition(y)
        return oper(v)[1:].ravel()

    # the reflection j -> n - j commutes with oper (a, c even, b odd), so u
    # comes out even in alpha from the even data
    phi_p, grad_p = particular_solution(
        np.stack([r * cos_a, r * sin_a], axis=2), eps)
    u = np.zeros((n_r, n_alpha))
    u[0] = -phi_p[0]
    y, iterations, res = _gmres(apply, -oper(u)[1:].ravel(), _GMRES_TOL,
                                _GMRES_MAX_ITER)
    if not res <= _GMRES_TOL:
        raise GeometryError(
            f"core GMRES reached relative residual {res:.3e} after "
            f"{iterations} iterations (tolerance {_GMRES_TOL:g})")
    u[1:] = precondition(y)

    # conormal trace at s = 1, where J^{-1} n = (m/(rb r_s), -theta'/(m rb));
    # phi_p has no x2-gradient
    u_s_b = d_s(u)[0]
    u_a_b = u[0] @ d_ang_t
    rb, dth = r[0], r_a[0]
    mb = np.hypot(dth, rb)
    nx = (rb * cos_a + dth * sin_a) / mb
    lam = beta[0] * (nx * grad_p[0, :, 0] + mb * u_s_b / (rb * r_s[0])
                     - dth * u_a_b / (mb * rb))

    phi_grid = u + phi_p
    return alpha, lam, phi_grid, mb, iterations


def solve_inner(shape: FourierShape, eps: float, n_r: int = 16,
                n_alpha: int = 32, check_resolution: bool = False) -> InnerSolution:
    """Solve the core problem and return boundary traces.

    Parameters
    ----------
    shape, eps : cross-section and aspect ratio.
    n_r : positive radial collocation nodes (Chebyshev, no center node),
        at least 2.
    n_alpha : angular nodes, even and at least 2.
    check_resolution : re-solve on a refined grid and record the trace
        difference in ``diagnostics['refinement_diff']``.

    The harmonic extension must be invertible on the closed disk,
    1 + sum_l (l+1) a_l s^l cos(l alpha) > 0 on the collocation grid, and
    1 + eps x1 must stay positive inside the section; otherwise, or when eps
    is negative or NaN, GeometryError is raised.  An unusable grid raises
    ValueError before any work.

    GeometryError is also raised when GMRES does not reach a residual of
    _GMRES_TOL relative to the lifted data within _GMRES_MAX_ITER
    iterations; the message names the residual reached.

    Diagnostics always include the mean-flux defect
    ``int lambda m dalpha + 4 (area + eps moment)`` (zero in exact
    arithmetic by the divergence theorem), the minimum of phi on the
    collocation grid (positive for the physical core flow) and
    ``gmres_iterations``, the Krylov iterations of the solve (1 at the
    disk with eps = 0, where the preconditioner is exact).
    """
    if n_r < 2:
        raise ValueError(f"n_r must be >= 2, got {n_r}")
    if n_alpha < 2 or n_alpha % 2:
        raise ValueError(f"n_alpha must be even and >= 2, got {n_alpha}")
    if not eps >= 0.0:
        raise GeometryError(f"eps must be nonnegative, got {eps}")
    alpha, lam, phi_grid, m, iterations = _solve_core(shape, eps, n_r,
                                                       n_alpha)
    flux_defect = float(np.sum(lam * m) * 2.0 * np.pi / n_alpha
                        + 4.0 * (area(shape) + eps * moment_x1(shape)))
    diagnostics = {
        "flux_defect": flux_defect,
        "min_phi": float(np.min(phi_grid[1:])),   # interior rows; phi = 0 + roundoff on the boundary ring
        "gmres_iterations": iterations,
    }
    if check_resolution:
        lam_f = _solve_core(shape, eps, n_r + 6, 2 * n_alpha)[1]
        diagnostics["refinement_diff"] = float(
            np.max(np.abs(resample_trig(lam, 2 * n_alpha) - lam_f)))
    return InnerSolution(alpha=alpha, lam=lam, diagnostics=diagnostics)