"""Independent reference evaluations that only the tests call.

``f_direct`` evaluates the ring kernel profile by adaptive quadrature and
shares no code with ``thinring.special``; ``kernel_direct`` evaluates the
outer kernel pointwise on the elliptic path, without the log split;
``assemble_cartesian`` assembles rows of the outer Nystrom matrix from
Cartesian point differences rather than the polar form of ``Q``, any rows,
not only the library's 0..n/2, and at eps = 0 the eps -> 0 limit
operator, which no solve needs; ``unfold_rows`` fills the other rows of
that block by the reflection j -> n - j; ``bordered_solve_dense`` solves
the outer bordered system on all n nodes, without the even-symmetry fold,
and on the limit operator with zero data gives the capacity density;
``boundary_points`` forms the chart chi from a grid's alpha and theta;
``dtheta_direct``, ``ddtheta_direct`` and ``h_direct`` give theta',
theta'' and the mean-curvature factor h from direct cosine sums rather than
one product with cached tables; ``project_constraints_sampled`` solves the
area and moment constraints by Newton on boundary samples of the shape,
where the library solves a cubic in closed form; ``core_solve_dense`` is
the core problem solved in the interior by Chebyshev-Fourier collocation
on all angles, its operator assembled as dense ``np.kron`` products and
solved by LU, where the library takes the trace from boundary integrals
and has none at eps = 0; ``dtn_disk`` is the
Dirichlet-to-Neumann map of the unit disk as a Fourier multiplier;
``particular_solution`` is the
polynomial particular part of the core problem with its gradient at
arbitrary points, which the library evaluates on the boundary ring only;
``resample_dense`` is trigonometric interpolation summed on dense cosine
and sine tables rather than by a zero-padded inverse FFT; ``elliptic_ke``
gives the complete elliptic integrals at one modulus from the library's
AGM.

The dimensional layer, ``PhysicalSetup`` with ``nondimensionalize``,
``redimensionalize`` and the dimensional speed law ``kelvin_hicks``, is the
independent check of ``thinring.physics.asymptotic_wgn``: the same
Kelvin-Hicks law written in R, eps_bar, b_bar, xi_bar and the two densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from thinring.outer import kress_log_weights
from thinring.physics import NondimParams, SigmaLaw
from thinring.shape import BoundaryGrid, FourierShape, GeometryError
from thinring.special import SPLIT_S_MAX, _agm_ke, f_elliptic, f_split


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


def boundary_points(grid: BoundaryGrid) -> np.ndarray:
    """Boundary chart chi = (1 + theta) (cos alpha, sin alpha), shape (n, 2)."""
    r = 1.0 + grid.theta
    return np.stack([r * np.cos(grid.alpha), r * np.sin(grid.alpha)], axis=1)


def dtheta_direct(shape: FourierShape, alpha: np.ndarray) -> np.ndarray:
    """theta' = -sum l a_l sin(l alpha), summed directly."""
    l = np.arange(shape.coeffs.size)
    return -np.sin(np.multiply.outer(np.asarray(alpha, float), l)) @ (l * shape.coeffs)


def ddtheta_direct(shape: FourierShape, alpha: np.ndarray) -> np.ndarray:
    """theta'' = -sum l^2 a_l cos(l alpha), summed directly."""
    l = np.arange(shape.coeffs.size)
    return -np.cos(np.multiply.outer(np.asarray(alpha, float), l)) @ (l * l * shape.coeffs)


def project_constraints_sampled(shape: FourierShape) -> FourierShape:
    """(a_0, a_1) slaved to area pi and zero first moment, Newton on samples.

    r = 1 + theta_high + a_0 + a_1 cos alpha is sampled on 4 (M + 2) angles,
    where the trapezoid is exact for the degree-(3M + 1) moment integrand,
    with the exact Jacobian [[2 pi (1 + a_0), pi a_1], [int r^2 cos,
    int r^2 cos^2]]; it iterates until the update stops shrinking.
    """
    c = np.zeros(max(shape.coeffs.size, 2))
    c[: shape.coeffs.size] = shape.coeffs
    a0, a1 = float(c[0]), float(c[1])
    c[:2] = 0.0
    n = 4 * (c.size + 1)
    alpha = 2.0 * np.pi * np.arange(n) / n
    cos_a, base = np.cos(alpha), 1.0 + FourierShape(c).theta(alpha)
    last = math.inf
    for _ in range(50):
        r = base + a0 + a1 * cos_a
        r2c = r * r * cos_a * (2.0 * np.pi / n)
        g1 = np.pi * (1.0 + a0) ** 2 + 0.5 * np.pi * (a1 * a1 + c @ c) - np.pi
        g2 = float(r2c @ r) / 3.0
        jac = [[2.0 * np.pi * (1.0 + a0), np.pi * a1],
               [float(np.sum(r2c)), float(r2c @ cos_a)]]
        d0, d1 = np.linalg.solve(jac, [g1, g2])
        a0, a1 = a0 - d0, a1 - d1
        if max(abs(d0), abs(d1)) >= last:
            break
        last = max(abs(d0), abs(d1))
    c[0], c[1] = a0, a1
    return FourierShape(c)


def h_direct(shape: FourierShape, eps: float, alpha: np.ndarray) -> np.ndarray:
    """Mean-curvature factor kappa + eps (n . e1) / (1 + eps x1), direct sums.

    The chart (x, y) = (1 + theta) (cos alpha, sin alpha) is differentiated
    in Cartesian form: kappa = (x' y'' - y' x'') / |chi'|^3 and the outward
    normal of the counterclockwise curve is (y', -x') / |chi'|.
    """
    alpha = np.asarray(alpha, float)
    r, dr, ddr = (shape.theta(alpha) + 1.0, dtheta_direct(shape, alpha),
                  ddtheta_direct(shape, alpha))
    c, s = np.cos(alpha), np.sin(alpha)
    dx, dy = dr * c - r * s, dr * s + r * c
    ddx = ddr * c - 2.0 * dr * s - r * c
    ddy = ddr * s + 2.0 * dr * c - r * s
    speed = np.hypot(dx, dy)
    kappa = (dx * ddy - dy * ddx) / speed**3
    return kappa + eps * (dy / speed) / (1.0 + eps * r * c)


def kernel_direct(grid: BoundaryGrid) -> np.ndarray:
    """Pointwise kernel values m s2/(2 pi) F(eps^2 s1/s2^2), elliptic path.

    Off-diagonal only (the diagonal is logarithmically singular); used as
    the independent check of the assembled A log(4 sin^2) + B split.
    """
    n = grid.n
    chi = boundary_points(grid)
    d = chi[:, None, :] - chi[None, :, :]
    s1 = np.sum(d * d, axis=2)
    radial = 1.0 + grid.eps * chi[:, 0]
    s2 = np.sqrt(np.outer(radial, radial))
    s = grid.eps**2 * s1 / s2**2
    out = np.empty((n, n))
    off = ~np.eye(n, dtype=bool)
    out[off] = (grid.m[None, :] * s2 / (2.0 * np.pi))[off] * f_elliptic(s[off])
    out[np.eye(n, dtype=bool)] = np.nan
    return out


def assemble_cartesian(grid: BoundaryGrid, rows=None) -> np.ndarray:
    """Outer Nystrom rows from Cartesian point differences; oracle path.

    ``assemble_full`` for eps > 0, and at eps = 0 the limit operator
    -(m(alpha~)/2 pi) log |chi - chi~| (A = -m/(4 pi) exactly), which has
    no library copy, on the given rows (default 0..n/2, the library's
    block), with chi formed from alpha and theta, s1 = |chi_i - chi_j|^2
    from the difference tensor, s2 = sqrt(rho_i rho_j), log Q = log(s1 / 4
    sin^2) and the smooth log of the split F = p + q log w as 2 log eps +
    log Q - 2 log s2 - log(4 + s).  The chord table and the log weights are formed here for
    the given rows; shares ``f_split``, ``f_elliptic`` and
    ``kress_log_weights`` with the library.
    """
    n = grid.n
    rows = np.arange(n // 2 + 1) if rows is None else np.asarray(rows)
    diag = (np.arange(rows.size), rows)
    chi = boundary_points(grid)
    d = chi[rows, None, :] - chi[None, :, :]
    s1 = np.einsum("ijk,ijk->ij", d, d)
    radial = 1.0 + grid.eps * chi[:, 0]
    s2 = np.sqrt(np.outer(radial[rows], radial))
    chord = 4.0 * np.sin(0.5 * (grid.alpha[rows, None] - grid.alpha[None, :])) ** 2
    chord[diag] = 1.0
    weights = kress_log_weights(n)[(rows[:, None] - np.arange(n)[None, :]) % n]
    q = s1 / chord
    q[diag] = grid.m[rows] ** 2
    log_q = np.log(q)
    if grid.eps == 0.0:
        a = np.broadcast_to(-grid.m / (4.0 * np.pi), log_q.shape)
        return a * weights + (2.0 * np.pi / n) * (a * log_q)
    s = grid.eps**2 * s1 / s2**2
    pref = grid.m[None, :] * s2 / (2.0 * np.pi)
    log_eps_term = (2.0 * np.log(grid.eps) + log_q - 2.0 * np.log(s2)
                    - np.log(4.0 + s))
    p, q = f_split(np.minimum(s, SPLIT_S_MAX))
    a = pref * q
    b = pref * (p + q * log_eps_term)
    far = s > SPLIT_S_MAX
    if np.any(far):
        if np.any(far & (chord < 0.5)):
            raise ValueError(
                "kernel argument left the log-split range near the diagonal; "
                "eps too large for this section")
        a[far] = 0.0
        b[far] = pref[far] * f_elliptic(s[far])
    return a * weights + (2.0 * np.pi / n) * b


def unfold_rows(block: np.ndarray) -> np.ndarray:
    """Full n x n matrix from its rows 0..n/2 by M[n-i, n-j] = M[i, j].

    Rows 0 and n/2 are their own mirror images and keep the values given.
    """
    h, n = block.shape[0] - 1, block.shape[1]
    rev = (-np.arange(n)) % n
    return np.concatenate([block, block[h - 1:0:-1][:, rev]])


def bordered_solve_dense(grid: BoundaryGrid, block: np.ndarray,
                         rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Unfolded (n+1) system [M, -1; m w, 0] (mu, c) = (rhs, 1).

    ``block`` holds rows 0..n/2 of M, as ``assemble_full`` returns them; the
    other rows are filled by ``unfold_rows``.
    """
    n = grid.n
    sys_mat = np.zeros((n + 1, n + 1))
    sys_mat[:n, :n] = unfold_rows(block)
    sys_mat[:n, n] = -1.0
    sys_mat[n, :n] = grid.m * grid.weight
    sol = np.linalg.solve(sys_mat, np.append(rhs, 1.0))
    return sol[:n], float(sol[n])


def particular_solution(points: np.ndarray, eps: float):
    """Exact particular solution of the core problem and its gradient.

    At points (..., 2) of the cross-section plane, returns phi_p of shape
    (...,) and its gradient (..., 2): phi_p = -(x1^2/2)(2 + eps x1)^2
    satisfies -div((1/(1+eps x1)) grad phi_p) = 4 (1 + eps x1) identically.
    """
    pts = np.asarray(points, dtype=float)
    x1 = pts[..., 0]
    phi = -0.5 * x1 * x1 * (2.0 + eps * x1) ** 2
    g1 = -2.0 * x1 * (2.0 + eps * x1) * (1.0 + eps * x1)
    grad = np.stack([g1, np.zeros_like(g1)], axis=-1)
    return phi, grad


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


def core_solve_dense(shape: FourierShape, eps: float, n_r: int, n_alpha: int):
    """Core collocation on all n_alpha angles, operator built by ``np.kron``.

    The core problem solved in the interior, independent of the library's
    boundary-integral trace: the harmonic extension
    s (1 + sum_l a_l s^l cos(l alpha)) pulls it back to the unit disk, a
    Chebyshev grid of n_r positive radii (odd degree, no node at the
    center; Trefethen, Spectral Methods in MATLAB, ch. 11) and a Fourier
    grid of n_alpha angles discretize it, and the dense operator is solved
    by LU.  It holds at eps = 0 too, where the library has no trace.
    Returns (alpha, lam, dnphi, phi_grid, m), with lam as
    ``thinring.inner.solve_inner`` gives it and phi_grid on all
    n_r x n_alpha nodes.
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


def resample_dense(values: np.ndarray, n_target: int) -> np.ndarray:
    """Trigonometric interpolation of uniform-grid samples onto n_target angles.

    Exact for functions band-limited below the source Nyquist mode; used to
    carry boundary traces between operator grids of different resolution.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n_target == n:
        return values.copy()
    spec = np.fft.rfft(values)
    a = 2.0 * spec.real / n
    b = -2.0 * spec.imag / n
    a[0] *= 0.5
    if n % 2 == 0:
        a[-1] *= 0.5   # Nyquist cosine appears once in the sum
        b[-1] = 0.0    # sin(n alpha/2) vanishes on the source grid
    alpha = 2.0 * np.pi * np.arange(n_target) / n_target
    l = np.arange(a.size)
    arg = np.multiply.outer(alpha, l)
    return np.cos(arg) @ a + np.sin(arg) @ b


def elliptic_ke(k: float) -> tuple[float, float]:
    """Complete elliptic integrals (K(k), E(k)) for a modulus 0 <= k < 1."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must satisfy 0 <= k < 1, got {k}")
    bigk, bige = _agm_ke(k * k, (1.0 - k) * (1.0 + k))
    return float(bigk), float(bige)


@dataclass(frozen=True)
class PhysicalSetup:
    """Dimensional vortex ring: core and ambient densities rho_in/rho_out,
    ring radius R, core radius eps_bar, circulation b_bar, potential-vorticity
    amplitude xi_bar, and the dimensional tension law of eps = eps_bar/R."""

    rho_in: float
    rho_out: float
    R: float
    eps_bar: float
    b_bar: float
    xi_bar: float
    sigma_bar_law: SigmaLaw = SigmaLaw()

    @property
    def eps(self) -> float:
        return self.eps_bar / self.R


@dataclass(frozen=True)
class DimensionalState:
    w_bar: float
    gamma_bar: float
    nu_bar: float


def nondimensionalize(setup: PhysicalSetup) -> NondimParams:
    """rho = (a/b)^2 (rho_in/rho_out)/(4 pi)^2 with a = pi R^2 eps_bar^2 xi_bar,
    b = R b_bar, and the named tension law scaled by 2 R^3/(rho_out b^2)."""
    a = math.pi * setup.R**2 * setup.eps_bar**2 * setup.xi_bar
    b = setup.R * setup.b_bar
    rho = (a / b) ** 2 * (setup.rho_in / setup.rho_out) / (4.0 * math.pi) ** 2
    bar = setup.sigma_bar_law
    law = SigmaLaw(kind=bar.kind, p=bar.p,
                   c=2.0 * setup.R**3 / (setup.rho_out * b**2) * bar.c)
    return NondimParams(rho=rho, sigma_law=law, omega=law.omega)


def redimensionalize(state, setup: PhysicalSetup) -> DimensionalState:
    """w_bar = (b/R^2) w, gamma_bar = b gamma, nu_bar = rho_out b^2 nu / eps^2
    with b = R b_bar; ``state`` needs attributes w, gamma, nu, eps."""
    b = setup.R * setup.b_bar
    return DimensionalState(w_bar=b / setup.R**2 * state.w,
                            gamma_bar=b * state.gamma,
                            nu_bar=setup.rho_out * b**2 * state.nu / state.eps**2)


def kelvin_hicks(setup: PhysicalSetup) -> float:
    """Dimensional thin-ring speed with a_bar = pi R eps_bar^2 xi_bar:

    w_bar = (b_bar / 4 pi R)(log(8R/eps_bar) - 1/2
            + (1/4)(a_bar/b_bar)^2 (rho_in/rho_out))
            + (pi / (R b_bar rho_out)) eps_bar sigma_bar(eps)
    """
    a_bar = math.pi * setup.R * setup.eps_bar**2 * setup.xi_bar
    core = 0.25 * (a_bar / setup.b_bar) ** 2 * setup.rho_in / setup.rho_out
    w = setup.b_bar / (4.0 * math.pi * setup.R) \
        * (math.log(8.0 * setup.R / setup.eps_bar) - 0.5 + core)
    sig = setup.sigma_bar_law(setup.eps)
    return w + math.pi * setup.eps_bar * sig / (setup.R * setup.b_bar
                                                 * setup.rho_out)
