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

The discrete operator is written once, as a function on stacks of fields:
the radial derivative is a Chebyshev matrix product plus its antipodal
partner, the angular derivative a Fourier matrix product.  The section is
a cosine series, so u is even in alpha and the unknowns are its values on
the half grid alpha_0 .. alpha_{n/2}; the collocation matrix is the
operator applied to the unit fields of that half grid, unfolded by
reflection.

At theta = 0, eps = 0 the solution is phi = 1 - |x|^2 and lambda = -2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .shape import FourierShape, GeometryError, area, moment_x1, resample_trig

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


def _solve_core(shape: FourierShape, eps: float, n_r: int, n_alpha: int):
    """One collocation solve; returns (alpha, lam, phi_grid, m)."""
    ns = 2 * n_r - 1                     # odd polynomial degree, no node at 0
    t_all, d_all = _cheb(ns)
    h = n_r                              # positive nodes t_0=1 > ... > t_{h-1}
    t = t_all[:h]
    alpha = 2.0 * np.pi * np.arange(n_alpha) / n_alpha

    # harmonic extension r = s (1 + sum_l a_l s^l cos(l alpha)): one table of
    # a_l t^l against cos/sin(l alpha); row 0 (t = 1) is the boundary
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

    # metric-form coefficients of div((1/(1+eps x1)) grad .) in (s, alpha),
    # with a trailing axis for stacks of fields
    a = (beta * (r_a * r_a + r * r) / (r_s * r))[..., None]
    b = (-beta * r_a / r)[..., None]
    c = (beta * r_s / r)[..., None]

    # folded radial differentiation on stacks of fields (h, n_alpha, k): rows
    # on the positive nodes, with the reach into t < 0 rerouted to the
    # antipodal angle alpha + pi; fields even across the center pick up a +
    # sign there, and every field this is applied to (u, then a u_s + b u_a)
    # is even
    d_pp = d_all[:h, :h]
    d_fold = d_all[:h, ns - np.arange(h)]          # column for mirror node m
    d_ang = _fourier_diff(n_alpha)                 # broadcasts over rows

    def d_s(v):
        return (np.tensordot(d_pp, v, 1)
                + np.tensordot(d_fold, np.roll(v, -(n_alpha // 2), axis=1), 1))

    def oper(v):
        u_s, u_a = d_s(v), d_ang @ v
        return d_s(a * u_s + b * u_a) + d_ang @ (b * u_s + c * u_a)

    # u is even in alpha (a, c even, b odd, the Dirichlet data even, and the
    # reflection j -> n - j commutes with both derivatives and the antipodal
    # shift), so the unknowns are its values on alpha_0 .. alpha_{n/2}; the
    # matrix is the operator applied to the unfolded unit fields
    half = n_alpha // 2 + 1
    n_unk = h * half
    mirror = np.minimum(np.arange(n_alpha), np.arange(n_alpha, 0, -1))  # j, n-j
    units = np.eye(n_unk).reshape(h, half, n_unk)[:, mirror]
    mat = oper(units)[:, :half].reshape(n_unk, n_unk)

    # rows at t = 1 carry the Dirichlet data -phi_p, the others the PDE
    phi_p, grad_p = particular_solution(
        np.stack([r * cos_a, r * sin_a], axis=2), eps)
    mat[:half] = np.eye(half, n_unk)
    rhs = np.zeros(n_unk)
    rhs[:half] = -phi_p[0, :half]

    u = np.linalg.solve(mat, rhs).reshape(h, half)[:, mirror]

    # conormal trace at s = 1, where J^{-1} n = (m/(rb r_s), -theta'/(m rb));
    # phi_p has no x2-gradient
    u_s_b = d_s(u[..., None])[0, :, 0]
    u_a_b = d_ang @ u[0]
    rb, dth = r[0], r_a[0]
    mb = np.hypot(dth, rb)
    nx = (rb * cos_a + dth * sin_a) / mb
    lam = beta[0] * (nx * grad_p[0, :, 0] + mb * u_s_b / (rb * r_s[0])
                     - dth * u_a_b / (mb * rb))

    phi_grid = u + phi_p
    return alpha, lam, phi_grid, mb


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

    Diagnostics always include the mean-flux defect
    ``int lambda m dalpha + 4 (area + eps moment)`` (zero in exact
    arithmetic by the divergence theorem) and the minimum of phi on the
    collocation grid (positive for the physical core flow).
    """
    if n_r < 2:
        raise ValueError(f"n_r must be >= 2, got {n_r}")
    if n_alpha < 2 or n_alpha % 2:
        raise ValueError(f"n_alpha must be even and >= 2, got {n_alpha}")
    if not eps >= 0.0:
        raise GeometryError(f"eps must be nonnegative, got {eps}")
    alpha, lam, phi_grid, m = _solve_core(shape, eps, n_r, n_alpha)
    flux_defect = float(np.sum(lam * m) * 2.0 * np.pi / n_alpha
                        + 4.0 * (area(shape) + eps * moment_x1(shape)))
    diagnostics = {
        "flux_defect": flux_defect,
        "min_phi": float(np.min(phi_grid[1:])),   # interior rows; phi = 0 + roundoff on the boundary ring
    }
    if check_resolution:
        lam_f = _solve_core(shape, eps, n_r + 6, 2 * n_alpha)[1]
        diagnostics["refinement_diff"] = float(
            np.max(np.abs(resample_trig(lam, 2 * n_alpha) - lam_f)))
    return InnerSolution(alpha=alpha, lam=lam, diagnostics=diagnostics)