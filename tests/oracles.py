"""Independent reference evaluations that only the tests call.

``f_direct`` evaluates the ring kernel profile by adaptive quadrature and
shares no code with ``thinring.special``; ``kernel_direct`` evaluates the
outer kernel pointwise on the elliptic path, without the log split;
``assemble_cartesian`` assembles the outer Nystrom matrix from Cartesian
point differences rather than the polar form of ``Q``;
``bordered_solve_dense`` solves the outer bordered system on all n nodes,
without the even-symmetry fold; ``core_solve_dense`` is the core
collocation solve on all angles, its operator assembled as dense ``np.kron``
products rather than applied to the folded unit fields; ``dtn_disk`` is the
Dirichlet-to-Neumann map of the unit disk as a Fourier multiplier.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from thinring.inner import _cheb, _fourier_diff, particular_solution
from thinring.outer import _half_tables, _nystrom
from thinring.shape import BoundaryGrid, FourierShape, GeometryError
from thinring.special import SPLIT_S_MAX, f_elliptic, f_split


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


def assemble_cartesian(grid: BoundaryGrid) -> np.ndarray:
    """Outer Nystrom matrix from Cartesian point differences; oracle path.

    ``assemble_full`` for eps > 0 and ``assemble_limit`` at eps = 0, with
    s1 = |chi_i - chi_j|^2 from the difference tensor, s2 = sqrt(rho_i
    rho_j), log Q = log(s1 / 4 sin^2) and the smooth log split as
    2 log eps + log Q - 2 log s2.  Shares ``f_split``, ``f_elliptic``, the
    log weights and the reflection fill with the library.
    """
    h = grid.n // 2
    chi = grid.chi
    d = chi[:h + 1, None, :] - chi[None, :, :]
    s1 = np.einsum("ijk,ijk->ij", d, d)
    radial = 1.0 + grid.eps * chi[:, 0]
    s2 = np.sqrt(np.outer(radial[:h + 1], radial))
    q = s1 / _half_tables(grid.n)[0]
    np.fill_diagonal(q, grid.m[:h + 1] ** 2)
    log_q = np.log(q)
    if grid.eps == 0.0:
        a = np.broadcast_to(-grid.m / (4.0 * np.pi), log_q.shape)
        return _nystrom(a, a * log_q)
    s = grid.eps**2 * s1 / s2**2
    pref = grid.m[None, :] * s2 / (2.0 * np.pi)
    log_eps_term = 2.0 * np.log(grid.eps) + log_q - 2.0 * np.log(s2)
    p, q = f_split(np.minimum(s, SPLIT_S_MAX))
    a = pref * q
    b = pref * (p + q * log_eps_term)
    far = s > SPLIT_S_MAX
    if np.any(far):
        if np.any(far & (_half_tables(grid.n)[0] < 0.5)):
            raise ValueError(
                "kernel argument left the log-split range near the diagonal; "
                "eps too large for this section")
        a[far] = 0.0
        b[far] = pref[far] * f_elliptic(s[far])
    return _nystrom(a, b)


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


def core_solve_dense(shape: FourierShape, eps: float, n_r: int, n_alpha: int):
    """Core collocation on all n_alpha angles, operator built by ``np.kron``.

    The unfolded dense assembly: returns (alpha, lam, dnphi, phi_grid, m)
    like ``thinring.inner._solve_core``, with no even-symmetry fold.
    """
    if n_alpha % 2:
        raise ValueError("n_alpha must be even")
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

    # rows at t = 1 carry the Dirichlet data -phi_p, the others the PDE
    phi_p, grad_p = particular_solution(
        np.stack([r * cos_a, r * sin_a], axis=2), eps)
    oper[:n_alpha] = np.eye(n_alpha, h * n_alpha)
    rhs = np.zeros(h * n_alpha)
    rhs[:n_alpha] = -phi_p[0]

    u = np.linalg.solve(oper, rhs)

    # conormal trace at s = 1, where J^{-1} n = (m/(rb r_s), -theta'/(m rb));
    # phi_p has no x2-gradient
    u_s_b = d_even[:n_alpha] @ u
    u_a_b = d_ang[:n_alpha] @ u
    rb, dth = r[0], r_a[0]
    mb = np.hypot(dth, rb)
    nx = (rb * cos_a + dth * sin_a) / mb
    dnphi = (nx * grad_p[0, :, 0] + mb * u_s_b / (rb * r_s[0])
             - dth * u_a_b / (mb * rb))
    lam = dnphi * beta[0]

    phi_grid = u.reshape(h, n_alpha) + phi_p
    return alpha, lam, dnphi, phi_grid, mb


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
