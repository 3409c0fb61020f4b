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
the radial extension map

    X(s, alpha) = s (1 + eta(s) theta(alpha)) (cos alpha, sin alpha),

eta a smooth cutoff vanishing for s <= 1/2 and flat at s = 1, using a
Chebyshev grid in radius and a uniform Fourier grid in angle.  The radial
grid lives on [-1, 1] with an odd polynomial degree so no node sits at the
coordinate singularity; fields at negative radius are identified with their
antipodes, which keeps spectral accuracy across the center.

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


def _eta(s: np.ndarray) -> np.ndarray:
    # Septic smoothstep on [1/2, 1]: identically 0 below s = 1/2, reaching 1
    # at s = 1 with three flat derivatives at both splice points, so the
    # boundary metric keeps r_s(1, alpha) = 1 + theta exactly.  A C^3
    # polynomial resolves far better under Chebyshev collocation than the
    # C^inf exponential bump, whose transition-edge derivatives dominate
    # the error at practical grid sizes; lambda itself is independent of
    # the choice of admissible cutoff.
    t = np.clip((np.asarray(s, float) - 0.5) * 2.0, 0.0, 1.0)
    return t**4 * (35.0 - 84.0 * t + 70.0 * t * t - 20.0 * t**3)


def _eta_ds(s: np.ndarray) -> np.ndarray:
    # d/ds of the septic smoothstep: 140 t^3 (1-t)^3 times dt/ds = 2
    t = np.clip((np.asarray(s, float) - 0.5) * 2.0, 0.0, 1.0)
    return 280.0 * t**3 * (1.0 - t) ** 3


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
    dnphi: np.ndarray      # plain conormal trace d_n phi on the boundary
    eps: float
    shape: FourierShape
    diagnostics: dict

    def lam_on(self, n: int) -> np.ndarray:
        """Trigonometric resampling of lambda onto an n-point grid."""
        return resample_trig(self.lam, n)


def _solve_core(shape: FourierShape, eps: float, n_r: int, n_alpha: int):
    """One collocation solve; returns (alpha, lam, dnphi, phi_grid, m)."""
    if n_alpha % 2:
        raise ValueError("n_alpha must be even")
    ns = 2 * n_r - 1                     # odd polynomial degree, no node at 0
    t_all, d_all = _cheb(ns)
    h = n_r                              # positive nodes t_0=1 > ... > t_{h-1}
    t = t_all[:h]
    alpha = 2.0 * np.pi * np.arange(n_alpha) / n_alpha

    th = shape.theta(alpha)
    dth = shape.dtheta(alpha)

    cos_a, sin_a = np.cos(alpha), np.sin(alpha)
    s = t[:, None]
    eta = _eta(t)[:, None]
    deta = _eta_ds(t)[:, None]
    r = s * (1.0 + eta * th[None, :])
    r_s = 1.0 + (eta + s * deta) * th[None, :]
    r_a = s * eta * dth[None, :]
    if np.min(r_s) <= 0.0:
        raise GeometryError("radial extension not invertible: r_s <= 0")
    one_plus = 1.0 + eps * r * cos_a[None, :]
    if np.min(one_plus) <= 0.0:
        raise GeometryError("eps too large: 1 + eps x1 <= 0 inside the section")
    beta = 1.0 / one_plus

    # metric-form coefficients of div((1/(1+eps x1)) grad .) in (s, alpha)
    coef_a = beta * (r_a * r_a + r * r) / (r_s * r)
    coef_b = -beta * r_a / r
    coef_c = beta * r_s / r

    # folded radial differentiation: rows/cols on positive nodes, with the
    # reach into t < 0 rerouted to the antipodal column (alpha + pi); fields
    # even across the center pick up a + sign there, and every field this
    # operator is applied to below (u, then a u_s + b u_alpha) is even
    d_pp = d_all[:h, :h]
    d_fold = d_all[:h, ns - np.arange(h)]          # column for mirror node m
    ident = np.eye(n_alpha)
    tshift = np.roll(ident, n_alpha // 2, axis=1)  # f(alpha) -> f(alpha + pi)
    d_even = np.kron(d_pp, ident) + np.kron(d_fold, tshift)
    d_ang = np.kron(np.eye(h), _fourier_diff(n_alpha))

    def diag(field):
        return field.reshape(-1)[:, None]

    oper = (d_even @ (diag(coef_a) * d_even + diag(coef_b) * d_ang)
            + d_ang @ (diag(coef_b) * d_even + diag(coef_c) * d_ang))

    nuk = h * n_alpha
    sys_mat = np.empty((nuk, nuk))
    rhs = np.zeros(nuk)
    bnd = np.arange(n_alpha)                       # k = 0 rows: t = 1
    interior = np.arange(n_alpha, nuk)             # k >= 1 rows: PDE
    sys_mat[interior] = oper[interior]
    sys_mat[bnd] = 0.0
    sys_mat[bnd, bnd] = 1.0
    phi_p_b, grad_p_b = particular_solution(
        np.stack([(1.0 + th) * cos_a, (1.0 + th) * sin_a], axis=1), eps)
    rhs[bnd] = -phi_p_b

    u = np.linalg.solve(sys_mat, rhs)

    # boundary gradient of u by the chain rule through the chart Jacobian
    u_s_b = (d_even @ u)[:n_alpha]
    u_a_b = (d_ang @ u)[:n_alpha]
    rb = 1.0 + th
    rsb = r_s[0]
    rab = dth                                     # s eta theta' at s = 1
    det = rsb * rb
    # J = [[r_s ca, r_a ca - r sa], [r_s sa, r_a sa + r ca]]; solve J^T g = (u_s, u_a)
    g1 = ((rab * sin_a + rb * cos_a) * u_s_b - sin_a * rsb * u_a_b) / det
    g2 = (-(rab * cos_a - rb * sin_a) * u_s_b + cos_a * rsb * u_a_b) / det
    mb = np.hypot(dth, rb)
    nx = (rb * cos_a + dth * sin_a) / mb
    ny = (rb * sin_a - dth * cos_a) / mb
    dnphi = nx * (grad_p_b[:, 0] + g1) + ny * (grad_p_b[:, 1] + g2)
    lam = dnphi / (1.0 + eps * rb * cos_a)

    phi_grid = u.reshape(h, n_alpha) + particular_solution(
        np.stack([r * cos_a[None, :], r * sin_a[None, :]], axis=2), eps)[0]
    return alpha, lam, dnphi, phi_grid, mb


def solve_inner(shape: FourierShape, eps: float, n_r: int = 16,
                n_alpha: int = 32, check_resolution: bool = False) -> InnerSolution:
    """Solve the core problem and return boundary traces.

    Parameters
    ----------
    shape, eps : cross-section and aspect ratio.
    n_r : positive radial collocation nodes (Chebyshev, no center node).
    n_alpha : angular nodes, even.
    check_resolution : re-solve on a refined grid and record the trace
        difference in ``diagnostics['refinement_diff']``.

    Diagnostics always include the mean-flux defect
    ``int lambda m dalpha + 4 (area + eps moment)`` (zero in exact
    arithmetic by the divergence theorem) and the minimum of phi on the
    collocation grid (positive for the physical core flow).
    """
    alpha, lam, dnphi, phi_grid, m = _solve_core(shape, eps, n_r, n_alpha)
    flux_defect = float(np.sum(lam * m) * 2.0 * np.pi / n_alpha
                        + 4.0 * (area(shape) + eps * moment_x1(shape)))
    diagnostics = {
        "flux_defect": flux_defect,
        "min_phi": float(np.min(phi_grid[1:])),   # interior rows; phi = 0 + roundoff on the boundary ring
        "n_r": n_r,
        "n_alpha": n_alpha,
    }
    if check_resolution:
        _, lam_f, _, _, _ = _solve_core(shape, eps, n_r + 6, 2 * n_alpha)
        diagnostics["refinement_diff"] = float(
            np.max(np.abs(resample_trig(lam, 2 * n_alpha) - lam_f)))
    return InnerSolution(alpha=alpha, lam=lam, dnphi=dnphi, eps=float(eps),
                         shape=shape, diagnostics=diagnostics)