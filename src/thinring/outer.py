"""Outer stream-function operator: Nystrom assembly and bordered solves.

The outer flow is a single layer on the section boundary for the
axisymmetric stream-function operator.  In blown-up coordinates the kernel
in the angle variables is

    K(alpha, alpha~) = m(alpha~) (sqrt(rho rho~) / 2 pi) F(s),
    s = eps^2 |chi(alpha) - chi(alpha~)|^2 / (rho rho~),
    rho = 1 + eps x1,   x1 = (1 + theta) cos alpha,

with F the elliptic ring profile (see ``special``).  Write F = p + q log w
with w = s/(4+s), and the chord in polar form,

    |chi - chi~|^2 = 4 sin^2((alpha-alpha~)/2) Q,
    Q = (r - r~)^2 / (4 sin^2((alpha-alpha~)/2)) + r r~,   r = 1 + theta,

so that log w = log(4 sin^2) + log(eps^2 Q / (rho rho~ (4+s))).  This
puts the kernel in the product-quadrature form A log(4 sin^2) + B with A, B
smooth and periodic, so the trapezoid weights for B and the spectral log
weights for A integrate trigonometric densities of degree < n/2 exactly.
On the diagonal Q -> m^2.

The operator is used through a bordered (n+1) system that appends the
unknown flux constant gamma and the circulation row sum m mu = 1.

Every section is even (a cosine series) and the grid alpha_j = 2 pi j / n
has even n, so the reflection alpha -> -alpha maps node j to node n - j and
the matrix satisfies M[n-i, n-j] = M[i, j].  The assembly therefore
returns the (n/2 + 1, n) block of rows 0..n/2, which holds one
representative of every pair of nodes; the bordered system, whose right
side is even, folds to n/2 + 2 unknowns (mu_0..mu_{n/2} and gamma), reads
only that block, and is unfolded after the solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .shape import BoundaryGrid, GeometryError, _read_only
from .special import SPLIT_S_MAX, f_elliptic, f_split

__all__ = [
    "kress_log_weights",
    "assemble_full",
    "OuterSolution",
    "solve_outer",
]


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
    return _read_only(chord, weights)


def assemble_full(grid: BoundaryGrid) -> np.ndarray:
    """Nystrom rows 0..n/2 of the eps > 0 stream-function operator.

    Returns the (n/2 + 1, n) block; the other rows follow from
    M[n-i, n-j] = M[i, j].  Entries combine the smooth part B on trapezoid
    weights with the log part A on the spectral log weights:

        M[i, j] = A[i, j] R[i-j] + (2 pi / n) B[i, j],
        A = m sqrt(rho rho~) / (2 pi) q,   s = eps^2 Q chord / (rho rho~),
        B = m sqrt(rho rho~) / (2 pi) (p + q log(eps^2 Q / (rho rho~ (4+s)))),

    with (p, q) = f_split(s), chord = 4 sin^2((alpha_i - alpha_j)/2) and
    s = 0 on the diagonal, which reproduces the kernel exactly since
    A log(chord) + B = m sqrt(rho rho~)/(2 pi) (p + q log w).  Pairs pushed
    beyond the series range of the split (possible only at eps of order
    one) are overwritten with plain trapezoid on the elliptic evaluation;
    if that happens inside the near-diagonal zone, where the log split is
    structurally required, a GeometryError (a ValueError) is raised: the
    section is too fat for its eps.
    """
    if not grid.eps > 0.0:
        raise ValueError("assemble_full requires eps > 0")
    h = grid.n // 2
    chord, weights = _half_tables(grid.n)
    # Q = |chi_i - chi_j|^2 / 4 sin^2 in polar form, (r_i - r_j)^2 / 4 sin^2
    # + r_i r_j with r = 1 + theta, continued to m^2 on the diagonal; the
    # name is rebound to eps^2 Q / (rho rho~) so that Q is freed at once
    r = 1.0 + grid.theta
    ratio = (r[:h + 1, None] - r) ** 2 / chord + np.outer(r[:h + 1], r)
    np.fill_diagonal(ratio, grid.m[:h + 1] ** 2)
    rho = 1.0 + grid.eps * grid.x1
    ratio = grid.eps**2 * ratio / np.outer(rho[:h + 1], rho)
    s = ratio * chord
    np.fill_diagonal(s, 0.0)
    root = np.sqrt(rho)
    pref = np.outer(root[:h + 1], grid.m * root / (2.0 * np.pi))
    p, q = f_split(np.minimum(s, SPLIT_S_MAX))
    a = pref * q
    b = pref * (p + q * np.log(ratio / (4.0 + s)))
    far = s > SPLIT_S_MAX
    if np.any(far):
        if np.any(far & (chord < 0.5)):
            raise GeometryError(
                "kernel argument left the log-split range near the diagonal; "
                "eps too large for this section")
        a[far] = 0.0
        b[far] = pref[far] * f_elliptic(s[far])
    return a * weights + (2.0 * np.pi / grid.n) * b


@dataclass(frozen=True)
class OuterSolution:
    mu: np.ndarray
    gamma: float


def solve_outer(grid: BoundaryGrid, w: float) -> OuterSolution:
    """Outer layer density for ring speed w.

    Boundary data (w/2)(1 + eps x1)^2 together with unit circulation
    int m mu dalpha = 1; the unknown flux constant gamma rides along in the
    bordered column.  (mu, gamma) is affine in w since only the right side
    depends on it.
    """
    # The (n+1) system [M, -1; m w, 0] (mu, gamma) = (rhs, 1) folded by the
    # reflection j -> n-j: with M reflection-symmetric and rhs even, mu is
    # even, so rows 0..n/2 (the block ``rows``) with the columns j and n-j
    # added and the circulation row on the weights 1, 2, ..., 2, 1
    # determine it.
    rhs = 0.5 * w * (1.0 + grid.eps * grid.x1) ** 2
    rows = assemble_full(grid)
    h = grid.n // 2
    sys_mat = np.empty((h + 2, h + 2))
    sys_mat[:h + 1, :h + 1] = rows[:, :h + 1]
    sys_mat[:h + 1, 1:h] += rows[:, :h:-1]
    sys_mat[:h + 1, h + 1] = -1.0
    sys_mat[h + 1, :h + 1] = 2.0 * grid.weight * grid.m[:h + 1]
    sys_mat[h + 1, [0, h]] *= 0.5
    sys_mat[h + 1, h + 1] = 0.0
    sol = np.linalg.solve(sys_mat, np.append(rhs[:h + 1], 1.0))
    mu = sol[:h + 1]
    return OuterSolution(mu=np.concatenate([mu, mu[h - 1:0:-1]]),
                         gamma=float(sol[h + 1]))
