"""Outer stream-function operator: Nystrom assembly and bordered solves.

The outer flow is a single layer on the section boundary for the
axisymmetric stream-function operator.  In blown-up coordinates the kernel
in the angle variables is

    K(alpha, alpha~) = m(alpha~) (sqrt(rho rho~) / 2 pi) F(s),
    s = eps^2 |chi(alpha) - chi(alpha~)|^2 / (rho rho~),
    rho = 1 + eps chi_1,

with F the elliptic ring profile (see ``special``).  Write F = p + q log s
and the chord in polar form,

    |chi - chi~|^2 = 4 sin^2((alpha-alpha~)/2) Q,
    Q = (r - r~)^2 / (4 sin^2((alpha-alpha~)/2)) + r r~,   r = 1 + theta,

so that log s = log(4 sin^2) + log(eps^2 Q / (rho rho~)).  This puts the
kernel in the product-quadrature form A log(4 sin^2) + B with A, B smooth
and periodic, so the trapezoid weights for B and the spectral log weights
for A integrate trigonometric densities of degree < n/2 exactly.  On the
diagonal Q -> m^2.

The eps -> 0 limit kernel is -(m(alpha~)/2 pi) log |chi - chi~|, assembled
by the same split with A = -m/(4 pi) exactly.

Both operators are used through bordered (n+1) systems that append the
unknown constant (capacity constant or flux constant gamma) and the
circulation row sum m mu = 1.

Every section is even (a cosine series) and the grid alpha_j = 2 pi j / n
has even n, so the reflection alpha -> -alpha maps node j to node n - j and
the matrices satisfy M[n-i, n-j] = M[i, j].  The kernel is therefore
evaluated on rows 0..n/2 only and the other rows are filled by the
reflection; the bordered systems, whose right sides are even, fold to
n/2 + 2 unknowns (mu_0..mu_{n/2} and the constant) and are unfolded after
the solve.  A matrix passed in through ``mat=`` must have the same
reflection symmetry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .shape import BoundaryGrid
from .special import SPLIT_S_MAX, f_elliptic, f_split

__all__ = [
    "kress_log_weights",
    "assemble_full",
    "assemble_limit",
    "CapacitySolution",
    "OuterSolution",
    "solve_capacity",
    "solve_outer",
    "eval_streamfunction",
]


@lru_cache(maxsize=8)
def kress_log_weights(n: int) -> np.ndarray:
    """Circulant quadrature weights for the log(4 sin^2((a-a~)/2)) factor.

    Returns R with int log(4 sin^2((alpha_i - a~)/2)) f(a~) da~
    ~ sum_j R[(i-j) mod n] f(alpha_j), exact for trigonometric polynomials
    of degree < n/2: the m-th harmonic integrates to -2 pi / m, so R is one
    inverse real FFT of the multiplier -2 pi / m, m = 1..n/2 (Kress,
    *Linear Integral Equations*, 3rd ed., 2014, sec. 12.3).
    """
    if n % 2:
        raise ValueError("n must be even")
    return np.fft.irfft(np.r_[0.0, -2.0 * np.pi / np.arange(1, n // 2 + 1)], n)


@lru_cache(maxsize=8)
def _half_tables(n: int):
    # The n-only tables on rows 0..n/2: 4 sin^2((alpha_i - alpha_j)/2) with
    # its zeros on the diagonal set to 1, and the log weights R[(i-j) mod n].
    r = kress_log_weights(n)
    h = n // 2
    alpha = 2.0 * np.pi * np.arange(n) / n
    chord = 4.0 * np.sin(0.5 * (alpha[:h + 1, None] - alpha[None, :])) ** 2
    np.fill_diagonal(chord, 1.0)
    weights = r[(np.arange(h + 1)[:, None] - np.arange(n)[None, :]) % n]
    chord.setflags(write=False)
    weights.setflags(write=False)
    return chord, weights


def _half_pairs(grid: BoundaryGrid) -> np.ndarray:
    # Q = |chi_i - chi_j|^2 / 4 sin^2 in polar form, (r_i - r_j)^2 / 4 sin^2
    # + r_i r_j with r = 1 + theta, on rows 0..n/2 against all n columns;
    # Q is continued to m^2 on the diagonal
    h = grid.n // 2
    r = 1.0 + grid.theta
    q = (r[:h + 1, None] - r) ** 2 / _half_tables(grid.n)[0] + np.outer(r[:h + 1], r)
    np.fill_diagonal(q, grid.m[:h + 1] ** 2)
    return q


def _nystrom(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # log part A on the spectral log weights, smooth part B on the
    # trapezoid, both given on rows 0..n/2; the other rows follow from
    # M[n-i, n-j] = M[i, j], and rows 0 and n/2 are their own mirror images
    n = a.shape[1]
    h = n // 2
    half = a * _half_tables(n)[1] + (2.0 * np.pi / n) * b
    mat = np.empty((n, n))
    mat[:h + 1] = half
    mat[[0, h], h + 1:] = half[[0, h], h - 1:0:-1]
    mat[h + 1:, 0] = half[h - 1:0:-1, 0]
    mat[h + 1:, 1:] = half[h - 1:0:-1, :0:-1]
    return mat


def assemble_full(grid: BoundaryGrid) -> np.ndarray:
    """Nystrom matrix of the eps > 0 stream-function operator.

    Entries combine the smooth part B on trapezoid weights with the log
    part A on the spectral log weights:

        M[i, j] = A[i, j] R[i-j] + (2 pi / n) B[i, j],
        A = m sqrt(rho rho~) / (2 pi) q(s),   s = eps^2 Q chord / (rho rho~),
        B = m sqrt(rho rho~) / (2 pi) (p(s) + q(s) log(eps^2 Q / (rho rho~))),

    with chord = 4 sin^2((alpha_i - alpha_j)/2) and s = 0 on the diagonal,
    which reproduces the kernel exactly since
    A log(chord) + B = m sqrt(rho rho~)/(2 pi) (p + q log s).  Pairs pushed
    beyond the series range of the split (possible only at eps of order
    one) are overwritten with plain trapezoid on the elliptic evaluation;
    if that happens inside the near-diagonal zone, where the log split is
    structurally required, a ValueError is raised.
    """
    if not grid.eps > 0.0:
        raise ValueError("assemble_full requires eps > 0; use assemble_limit")
    h = grid.n // 2
    chord = _half_tables(grid.n)[0]
    rho = 1.0 + grid.eps * grid.chi[:, 0]
    ratio = grid.eps**2 * _half_pairs(grid) / np.outer(rho[:h + 1], rho)
    s = ratio * chord
    np.fill_diagonal(s, 0.0)
    root = np.sqrt(rho)
    pref = np.outer(root[:h + 1], grid.m * root / (2.0 * np.pi))
    p, q = f_split(np.minimum(s, SPLIT_S_MAX))
    a = pref * q
    b = pref * (p + q * np.log(ratio))
    far = s > SPLIT_S_MAX
    if np.any(far):
        if np.any(far & (chord < 0.5)):
            raise ValueError(
                "kernel argument left the log-split range near the diagonal; "
                "eps too large for this section")
        a[far] = 0.0
        b[far] = pref[far] * f_elliptic(s[far])
    return _nystrom(a, b)


def assemble_limit(grid: BoundaryGrid) -> np.ndarray:
    """Nystrom matrix of the eps -> 0 limit operator -(m/2 pi) log |chi - chi~|.

    The log-weight factor is A = -m(alpha~)/(4 pi) exactly; the smooth part
    is -(m/4 pi) log Q with diagonal -(m/2 pi) log m.
    """
    log_q = np.log(_half_pairs(grid))
    a = np.broadcast_to(-grid.m / (4.0 * np.pi), log_q.shape)
    return _nystrom(a, a * log_q)


@dataclass(frozen=True)
class CapacitySolution:
    mu: np.ndarray
    const: float


@dataclass(frozen=True)
class OuterSolution:
    mu: np.ndarray
    gamma: float
    w: float


def _bordered_solve(grid: BoundaryGrid, mat: np.ndarray, rhs: np.ndarray):
    # The (n+1) system [mat, -1; m w, 0] (mu, c) = (rhs, 1) folded by the
    # reflection j -> n-j: with mat reflection-symmetric and rhs even, mu is
    # even, so rows 0..n/2 with the columns j and n-j added and the
    # circulation row on the weights 1, 2, ..., 2, 1 determine it.
    h = grid.n // 2
    sys_mat = np.empty((h + 2, h + 2))
    sys_mat[:h + 1, :h + 1] = mat[:h + 1, :h + 1]
    sys_mat[:h + 1, 1:h] += mat[:h + 1, :h:-1]
    sys_mat[:h + 1, h + 1] = -1.0
    sys_mat[h + 1, :h + 1] = 2.0 * grid.weight * grid.m[:h + 1]
    sys_mat[h + 1, [0, h]] *= 0.5
    sys_mat[h + 1, h + 1] = 0.0
    sol = np.linalg.solve(sys_mat, np.append(rhs[:h + 1], 1.0))
    mu = sol[:h + 1]
    return np.concatenate([mu, mu[h - 1:0:-1]]), float(sol[h + 1])


def solve_capacity(grid: BoundaryGrid, mat: np.ndarray | None = None) -> CapacitySolution:
    """Capacity density: K mu = const with unit weighted mass.

    Solves the bordered system [K, -1; m w, 0] (mu, const) = (0, 1) on the
    limit operator.  At theta = 0 the density is 1/(2 pi) and const = 0;
    for small shapes |const| = O(||theta||^2).
    """
    if mat is None:
        mat = assemble_limit(grid)
    mu, const = _bordered_solve(grid, mat, np.zeros(grid.n))
    return CapacitySolution(mu=mu, const=const)


def solve_outer(grid: BoundaryGrid, w: float, mat: np.ndarray | None = None) -> OuterSolution:
    """Outer layer density for ring speed w.

    Boundary data (w/2)(1 + eps chi_1)^2 together with unit circulation
    int m mu dalpha = 1; the unknown flux constant gamma rides along in the
    bordered column.  (mu, gamma) is affine in w since only the right side
    depends on it.
    """
    if mat is None:
        mat = assemble_full(grid)
    rhs = 0.5 * w * (1.0 + grid.eps * grid.chi[:, 0]) ** 2
    mu, gamma = _bordered_solve(grid, mat, rhs)
    return OuterSolution(mu=mu, gamma=gamma, w=float(w))


def eval_streamfunction(grid: BoundaryGrid, mu: np.ndarray,
                        points: np.ndarray) -> np.ndarray:
    """Single-layer stream function at off-boundary points, plain trapezoid.

    The quadrature is spectrally accurate away from the layer but loses all
    accuracy within a few grid spacings of it; a warning is emitted when
    any requested point sits closer than five spacings.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts[:, None, :] - grid.chi[None, :, :]
    dist_sq = np.einsum("ijk,ijk->ij", d, d)
    min_dist = np.sqrt(np.min(dist_sq))
    spacing = 2.0 * np.pi * np.max(grid.m) / grid.n
    if min_dist < 5.0 * spacing:
        warnings.warn(
            f"evaluation point within {min_dist:.3g} of the layer; trapezoid "
            "accuracy degrades inside ~5 grid spacings", stacklevel=2)
    radial_pt = 1.0 + grid.eps * pts[:, 0]
    radial_src = 1.0 + grid.eps * grid.chi[:, 0]
    s2 = np.sqrt(np.outer(radial_pt, radial_src))
    s = grid.eps**2 * dist_sq / s2**2
    vals = s2 / (2.0 * np.pi) * f_elliptic(s)
    out = vals @ (grid.m * mu) * grid.weight
    return out if np.asarray(points).ndim > 1 else float(out[0])