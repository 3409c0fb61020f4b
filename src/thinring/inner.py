"""Interior (core) potential solve on the pulled-back unit disk.

The rescaled core problem is

    -div( (1/(1+eps x1)) grad phi ) = 4 (1 + eps x1)   in Omega_theta,
    phi = 0                                            on the boundary,

whose conormal trace feeds the pressure jump through

    lambda = (1/(1+eps x1)) d_n phi  composed with the boundary chart.

The exact polynomial particular part

    phi_p = -(x1^2/2) (2 + eps x1)^2,
    (1/(1+eps x1)) d_1 phi_p = -2 x1 (2 + eps x1),

leaves only a homogeneous remainder u with Dirichlet data -phi_p.  That
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

The section is even in alpha, so u is too, and the operator is one function
on fields over the half-grid alpha_0 .. alpha_{n_alpha/2}, with no
collocation matrix: the radial derivative is a Chebyshev matrix product plus
its antipodal partner (on an even field the column reversal), the angular
one the Fourier matrix folded by alpha -> -alpha.  With the Dirichlet data
lifted onto the ring t = 1, GMRES (Saad and Schultz 1986) solves for the
interior rows in Liouville form (Courant and Hilbert 1953, vol. 1, ch. V):
with u = sqrt(1 + eps x1) w and each interior equation multiplied by
sqrt(1 + eps x1), the weight 1/(1 + eps x1) leaves the principal part, the
first-order terms cancel and an O(eps^2) zero-order term remains.  The
scaled system is right preconditioned by the operator at theta = 0,
eps = 0 (s times the disk Laplacian): a real cosine transform, one radial
block per Fourier mode and the inverse transform.  GMRES stops at a
residual of _GMRES_TOL relative to the scaled right-hand side; a miss
raises GeometryError.

At theta = 0, eps = 0 the solution is phi = 1 - |x|^2 and lambda = -2.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .shape import (FourierShape, GeometryError, _read_only, area, moment_x1,
                    resample_trig)

# a core solve whose GMRES residual, relative to the lifted right-hand side
# of the Liouville-scaled system, is not below _GMRES_TOL within
# _GMRES_MAX_ITER iterations raises; 3e-15 leaves lambda within about 1e-11
# of the same solve iterated to its roundoff floor
_GMRES_TOL = 3e-15
_GMRES_MAX_ITER = 60

__all__ = [
    "InnerSolution",
    "solve_inner",
]


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


def _fourier_diff(n: int) -> np.ndarray:
    """Spectral differentiation matrix on n uniform nodes (n even)."""
    j = np.arange(1, n)
    col = np.zeros(n)
    col[1:] = 0.5 * (-1.0) ** j / np.tan(np.pi * j / n)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return col[idx]


class _Diagnostics(Mapping):
    """Read-only mapping whose callable values are computed on first read.

    A repr, a comparison or dict() reads every entry; for a core solve's
    diagnostics that computes one refined solve.
    """

    def __init__(self, entries: dict):
        self._entries = entries

    def __getitem__(self, key):
        value = self._entries[key]
        if callable(value):
            value = self._entries[key] = value()
        return value

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        return repr(dict(self))


@dataclass(frozen=True)
class InnerSolution:
    """Core potential trace data on a uniform boundary grid."""

    alpha: np.ndarray
    lam: np.ndarray        # (1/(1+eps x1)) d_n phi on the boundary
    diagnostics: Mapping

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
    return _read_only(t_all[:n_r], d_all[:n_r, :n_r],
                      d_all[:n_r, ns - np.arange(n_r)])


@lru_cache(maxsize=8)
def _half_tables(n_r: int, n_alpha: int):
    """Operators on fields (n_r, h + 1) over alpha_j = pi j / h, h = n_alpha/2.

    Returns (d_eo, d_oe, cos_t, lift).  d_eo and d_oe are _fourier_diff
    folded by the mirror j -> n_alpha - j, even to odd fields and back,
    transposed to act from the right.  cos_t[j, k] = w_j cos(pi j k / h),
    w_j = 1 at the ends of the half-grid and 2 inside, takes an even field
    to its real Fourier modes and, over n_alpha, back.

    The preconditioner d_s(s u_s) + u_aa / s is the operator at theta = 0,
    eps = 0.  On mode k the antipodal shift is (-1)^k and d_aa is -k^2 (0 at
    the Nyquist mode, as _fourier_diff gives): L_k = D_k diag(s) D_k -
    k^2 diag(1/s), D_k = d_pp + (-1)^k d_fold, less row and column 0 (the
    ring t = 1).  lift[k] stacks a zero row over L_k^{-1} / n_alpha, so one
    product gives the preconditioned field with its ring row 0; _solve_core
    takes d_s of the Liouville-scaled field itself.
    """
    h = n_alpha // 2
    k, j = np.arange(h + 1), np.arange(n_alpha)
    unfold = (np.minimum(j, n_alpha - j)[:, None] == k).astype(float)
    # an odd field is 0 at j = 0 and h, and changes sign across them
    odd = unfold * (np.where(j > h, -1.0, 1.0) * (j % h != 0))[:, None]
    d = _fourier_diff(n_alpha)[:h + 1]
    cos_t = unfold.sum(axis=0)[:, None] * np.cos(np.pi * np.outer(k, k) / h)
    t, d_pp, d_fold = _folded_cheb(n_r)
    d_k = d_pp + ((-1.0) ** k)[:, None, None] * d_fold
    k2 = np.where(k < h, k * k, 0)
    l_k = d_k @ (t[:, None] * d_k) - k2[:, None, None] * np.diag(1.0 / t)
    lift = np.concatenate([np.zeros((h + 1, 1, n_r - 1)),
                           np.linalg.inv(l_k[:, 1:, 1:]) / n_alpha], axis=1)
    return _read_only((d @ unfold).T, (d @ odd).T, cos_t, lift)


@lru_cache(maxsize=8)
def _extension_tables(n_r: int, n_alpha: int, n_l: int):
    """t^l (l < n_l) on the radial nodes; cos, sin of l alpha and alpha."""
    l = np.arange(n_l)
    alpha = np.pi * np.arange(n_alpha // 2 + 1) / (n_alpha // 2)
    angle = np.multiply.outer(l, alpha)
    return _read_only(_folded_cheb(n_r)[0][:, None] ** l, np.cos(angle),
                      np.sin(angle), np.cos(alpha), np.sin(alpha))


def _gmres(apply, rhs: np.ndarray, tol: float, max_iter: int):
    """Unrestarted GMRES for apply(x) = rhs from x = 0 (Saad and Schultz 1986).

    The Arnoldi basis is orthogonalized by classical Gram-Schmidt, applied
    twice; Givens rotations on Python floats keep the least-squares residual
    |g_{j+1}| at hand, and the loop stops once it is at most tol |rhs|.  The
    rotated columns, kept as those floats, are the triangular factor R, and
    R y = g is solved by back substitution, column by column.
    Returns (x, iterations, residual relative to |rhs|).  The core solve
    passes the Liouville-scaled system, whose rows carry the factor
    sqrt(1 + eps x1), with tol = _GMRES_TOL.
    """
    norm = math.sqrt(rhs @ rhs)
    basis = np.zeros((max_iter + 1, rhs.size))
    basis[0] = rhs / norm
    rot, g, cols = [], [norm], []
    for j in range(max_iter):
        done, w = basis[:j + 1], apply(basis[j])
        proj = done @ w
        w -= proj @ done
        again = done @ w
        w -= again @ done
        col = (proj + again).tolist() + [math.sqrt(w @ w)]
        if col[j + 1] > 0.0:
            basis[j + 1] = w / col[j + 1]
        for i, (cs, sn) in enumerate(rot):
            col[i], col[i + 1] = (cs * col[i] + sn * col[i + 1],
                                  cs * col[i + 1] - sn * col[i])
        rr = math.hypot(col[j], col[j + 1]) or math.nan
        rot.append((col[j] / rr, col[j + 1] / rr))
        cols.append(col[:j] + [rr])
        g.append(-rot[j][1] * g[j])
        g[j] *= rot[j][0]
        if abs(g[j + 1]) <= tol * norm:
            break
    y = g[:j + 1]
    for k in range(j, -1, -1):
        y[k] /= cols[k][k]
        for i in range(k):
            y[i] -= cols[k][i] * y[k]
    return np.array(y) @ basis[:j + 1], j + 1, abs(g[j + 1]) / norm


def _solve_core(shape: FourierShape, eps: float, n_r: int, n_alpha: int):
    """One core solve; returns (lam, m, min_phi, gmres_iterations): lam on
    all n_alpha angles, m on the half-grid, and min_phi a function that gives
    the minimum of phi over the interior rows.

    u = u_b + q w, with u_b = -phi_p on the ring t = 1 and 0 inside and
    q = sqrt(1 + eps x1); GMRES solves q oper(q w) = -q oper(u_b) on the
    interior rows for w, right preconditioned through _half_tables' lift; a
    miss raises GeometryError.
    """
    t, d_pp, d_fold = _folded_cheb(n_r)    # row 0 (t = 1) is the boundary
    h = n_alpha // 2

    # harmonic extension r = s (1 + sum_l a_l s^l cos(l alpha)): one table of
    # a_l t^l against cos/sin(l alpha)
    l = np.arange(shape.coeffs.size)
    t_l, cos_l, sin_l, cos_a, sin_a = _extension_tables(n_r, n_alpha, l.size)
    pw = shape.coeffs * t_l
    s = t[:, None]
    r = s * (1.0 + pw @ cos_l)
    r_s = 1.0 + (pw * (l + 1)) @ cos_l
    r_a = -s * ((pw * l) @ sin_l)
    if np.min(r_s) <= 0.0:
        raise GeometryError("harmonic extension not invertible: r_s <= 0")
    one_plus = 1.0 + eps * r * cos_a[None, :]
    if np.min(one_plus) <= 0.0:
        raise GeometryError("eps too large: 1 + eps x1 <= 0 inside the section")
    beta = 1.0 / one_plus

    # metric-form coefficients of div((1/(1+eps x1)) grad .) in (s, alpha)
    a = beta * (r_a * r_a + r * r) / (r_s * r)
    b = -beta * r_a / r
    c = beta * r_s / r

    # the radial derivative reaches into t < 0 at alpha + pi, on an even
    # half-grid field the column reversal; the fields it is applied to (u,
    # a u_s + b u_a) are even in alpha and across the center
    d_eo, d_oe, cos_t, lift = _half_tables(n_r, n_alpha)
    d_in, fold_in, b_in, c_in = d_pp[1:], d_fold[1:], b[1:], c[1:]

    def d_s(v):
        return d_pp @ v + d_fold @ v[:, ::-1]

    def oper(u):            # interior rows
        u_s, u_a = d_s(u), u @ d_eo
        flux = a * u_s + b * u_a
        return (d_in @ flux + fold_in @ flux[:, ::-1]
                + (b_in * u_s[1:] + c_in * u_a[1:]) @ d_oe)

    def precondition(y):    # rows: P y, its ring row 0 zero
        spec = y.reshape(n_r - 1, h + 1) @ cos_t
        return (lift @ spec.T[:, :, None])[:, :, 0].T @ cos_t

    # Liouville scaling: with u = q w and the rows times q, q^2 beta = 1
    # takes beta out of the principal part, leaving the disk operator that
    # precondition inverts plus geometry and an O(eps^2) zero-order term
    q = np.sqrt(one_plus)
    q_in = q[1:]

    def apply(y):
        return (q_in * oper(q * precondition(y))).ravel()

    x1 = r[0] * cos_a
    u = np.zeros((n_r, h + 1))
    u[0] = 0.5 * x1 * x1 * (2.0 + eps * x1) ** 2       # -phi_p on the ring
    y, iterations, res = _gmres(apply, (-q_in * oper(u)).ravel(),
                                _GMRES_TOL, _GMRES_MAX_ITER)
    if not res <= _GMRES_TOL:
        raise GeometryError(
            f"core GMRES reached relative residual {res:.3e} after "
            f"{iterations} iterations (tolerance {_GMRES_TOL:g})")
    u[1:] = q_in * precondition(y)[1:]

    # conormal trace at s = 1, where J^{-1} n = (m/(rb r_s), -theta'/(m rb));
    # phi_p has no x2-gradient, and beta d_1 phi_p = -2 x1 (2 + eps x1)
    u_s_b = d_pp[0] @ u + d_fold[0] @ u[:, ::-1]
    u_a_b = u[0] @ d_eo
    rb, dth = r[0], r_a[0]
    mb = np.hypot(dth, rb)
    nx = (rb * cos_a + dth * sin_a) / mb
    lam = (beta[0] * (mb * u_s_b / (rb * r_s[0]) - dth * u_a_b / (mb * rb))
           - 2.0 * nx * x1 * (2.0 + eps * x1))

    def min_phi():          # interior rows; phi = 0 + roundoff on the ring
        x1_in = r[1:] * cos_a
        return float(np.min(u[1:] - 0.5 * x1_in * x1_in
                            * (2.0 + eps * x1_in) ** 2))

    # unfold the even trace onto alpha_{h+1} .. alpha_{n_alpha-1}
    return np.concatenate([lam, lam[-2:0:-1]]), mb, min_phi, iterations


def solve_inner(shape: FourierShape, eps: float, n_r: int = 16,
                n_alpha: int = 32) -> InnerSolution:
    """Solve the core problem and return boundary traces.

    Parameters
    ----------
    shape, eps : cross-section and aspect ratio.
    n_r : positive radial Chebyshev nodes (none at the center), at least 2.
    n_alpha : angular nodes, even and at least 2.

    The harmonic extension must be invertible on the closed disk,
    1 + sum_l (l+1) a_l s^l cos(l alpha) > 0 on the collocation grid, and
    1 + eps x1 must stay positive inside the section; otherwise, when eps
    is negative or NaN, or when GMRES does not reach a residual of
    _GMRES_TOL (3e-15) relative to the lifted data, both in the
    Liouville-scaled interior equations, within _GMRES_MAX_ITER iterations
    (the message names the residual reached), GeometryError is raised.  An
    unusable grid raises ValueError before any work.

    Diagnostics always include the mean-flux defect
    ``int lambda m dalpha + 4 (area + eps moment)`` (zero in exact
    arithmetic by the divergence theorem), the minimum of phi on the
    interior collocation rows (positive for the physical core flow),
    ``gmres_iterations``, the Krylov iterations of the solve (1 at the
    disk with eps = 0, where the preconditioner is exact), and
    ``refinement_diff``, the largest difference of lambda, resampled onto
    2 n_alpha angles, from a re-solve with n_r + 6 and 2 n_alpha nodes.
    All but the iteration count are computed when first read, so a solve
    whose diagnostics are not read pays only for lambda, and a repr of the
    diagnostics pays for one refined solve, which raises as a solve on
    that grid would.
    """
    if n_r < 2:
        raise ValueError(f"n_r must be >= 2, got {n_r}")
    if n_alpha < 2 or n_alpha % 2:
        raise ValueError(f"n_alpha must be even and >= 2, got {n_alpha}")
    if not eps >= 0.0:
        raise GeometryError(f"eps must be nonnegative, got {eps}")
    lam, m, min_phi, iterations = _solve_core(shape, eps, n_r, n_alpha)

    def flux_defect():
        m_all = np.concatenate([m, m[-2:0:-1]])
        return float(np.sum(lam * m_all) * 2.0 * np.pi / n_alpha
                     + 4.0 * (area(shape) + eps * moment_x1(shape)))

    def refinement_diff():
        lam_f = _solve_core(shape, eps, n_r + 6, 2 * n_alpha)[0]
        return float(np.max(np.abs(resample_trig(lam, 2 * n_alpha) - lam_f)))

    diagnostics = {"flux_defect": flux_defect, "min_phi": min_phi,
                   "gmres_iterations": iterations,
                   "refinement_diff": refinement_diff}
    alpha = 2.0 * np.pi * np.arange(n_alpha) / n_alpha
    return InnerSolution(alpha=alpha, lam=lam,
                         diagnostics=_Diagnostics(diagnostics))
