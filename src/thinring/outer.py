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

The same single layer S serves the core problem (see ``inner``): G is the
fundamental solution of div(rho^-1 grad), so the core trace solves
S lam_u = g/2 + D g with D the double layer, kernel
rho~^-1 d_n~ G ds~.  With n~ the normal at the source point,

    rho~^-1 d_n~ G = (sqrt(rho rho~) / (2 pi rho~)) (e F + F' d_n~ s),
    e = eps n1~ / (2 rho~),   d_n~ s = s t,
    t = 2 (chi~ - chi) . n~ / |chi - chi~|^2 - 2 e,

which splits like S: with F' = (p_w + q_w log w) w' + q w' / w and
w' d_n~ s = w (1 - w) t, the log part is e q + q_w w (1 - w) t and the
smooth part e (p + q lg) + (p_w + q_w lg) w (1 - w) t + (1 - w) q t, lg
the regular part of log w.  (chi~ - chi) . n~ takes the polar form
(r~ (r~ - r) + r theta~' sin(alpha - alpha~) + r r~ 4 sin^2 / 2) / m~, and
t -> kappa - 2 e = h - 4 e on the diagonal.

Every section is even (a cosine series) and the grid alpha_j = 2 pi j / n
has even n, so the reflection alpha -> -alpha maps node j to node n - j and
the matrix satisfies M[n-i, n-j] = M[i, j].  The assembly therefore
returns the (n/2 + 1, n) block of rows 0..n/2, which holds one
representative of every pair of nodes; the bordered system, whose right
side is even, folds to n/2 + 2 unknowns (mu_0..mu_{n/2} and gamma), reads
only that block, and is unfolded after the solve.  D is reflection
symmetric too, and g is even, so D g on rows 0..n/2 is all the folded core
solve reads; the assembly forms it without storing D.
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


# the assembly runs over row blocks of at most _BLOCK entries, which keeps
# its temporaries small: N <= 128 is one block, N = 256 four
_BLOCK = 8448


@lru_cache(maxsize=8)
def _half_tables(n: int):
    # The n-only tables on rows 0..n/2: 4 sin^2((alpha_i - alpha_j)/2) with
    # its zeros on the diagonal set to 1, sin(alpha_i - alpha_j), and the
    # log weights R[(i-j) mod n].
    r = kress_log_weights(n)
    h = n // 2
    alpha = 2.0 * np.pi * np.arange(n) / n
    diff = alpha[:h + 1, None] - alpha[None, :]
    chord = 4.0 * np.sin(0.5 * diff) ** 2
    np.fill_diagonal(chord, 1.0)
    weights = r[(np.arange(h + 1)[:, None] - np.arange(n)[None, :]) % n]
    return _read_only(chord, np.sin(diff), weights)


def assemble_full(grid: BoundaryGrid, f: np.ndarray | None = None):
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

    Given samples f of a density, returns (block, D f on rows 0..n/2): the
    double layer of the module docstring on the same quadrature, formed in
    the same pass from the same pair arrays, f folded into its column
    factor so that D itself is never stored.
    """
    if not grid.eps > 0.0:
        raise ValueError("assemble_full requires eps > 0")
    n, h, eps = grid.n, grid.n // 2, grid.eps
    chords, sines, log_weights = _half_tables(n)
    r = 1.0 + grid.theta
    rho = 1.0 + eps * grid.x1
    root = np.sqrt(rho)
    col = grid.m * root / (2.0 * np.pi)
    if f is not None:
        # per source point: e, and the polar dot product's factors over m~
        e = 0.5 * eps * grid.n1 / rho
        col_d = col * f / rho
        slope_m, r_m = 2.0 * grid.dtheta / grid.m, r / grid.m

    out, d_f = np.empty((h + 1, n)), np.empty(h + 1)

    def block(rows: slice):
        # rows of the operator, and of D f; the pair arrays live in this
        # call only, so the next block does not meet them
        chord, weights = chords[rows], log_weights[rows]
        diag = (np.arange(chord.shape[0]), np.arange(n)[rows])
        # Q = |chi_i - chi_j|^2 / 4 sin^2 in polar form, (r_i - r_j)^2 /
        # 4 sin^2 + r_i r_j with r = 1 + theta, continued to m^2 on the
        # diagonal; the name is rebound to eps^2 Q / (rho rho~)
        dr = r[rows, None] - r
        ratio = dr**2 / chord + np.outer(r[rows], r)
        ratio[diag] = grid.m[rows] ** 2
        if f is not None:
            # t = d_n~ s / s; the polar dot product is not formed on the
            # diagonal, whose value is set from the curvature
            t = ((r[rows, None] * (slope_m * sines[rows] + r_m * chord)
                  - 2.0 * r_m * dr) / (ratio * chord) - 2.0 * e)
            t[diag] = grid.h[rows] - 4.0 * e[rows]
        ratio = eps**2 * ratio / np.outer(rho[rows], rho)
        s = ratio * chord
        s[diag] = 0.0
        pref = np.outer(root[rows], col)
        split = f_split(np.minimum(s, SPLIT_S_MAX), derivative=f is not None)
        p, q = split[:2]
        lg = np.log(ratio / (4.0 + s))
        smooth = p + q * lg
        a = pref * q
        b = pref * smooth
        if f is not None:
            dp, dq = split[2:]
            u = 4.0 / (4.0 + s)                 # 1 - w
            ut = u * t
            c = 0.25 * s * u * ut               # w (1 - w) t
            da = e * q + dq * c
            db = e * smooth + (dp + dq * lg) * c + q * ut
        far = s > SPLIT_S_MAX
        if np.any(far):
            if np.any(far & (chord < 0.5)):
                raise GeometryError(
                    "kernel argument left the log-split range near the "
                    "diagonal; eps too large for this section")
            big_f, slope = f_elliptic(s[far], derivative=True)
            a[far] = 0.0
            b[far] = pref[far] * big_f
            if f is not None:
                da[far] = 0.0
                db[far] = (np.broadcast_to(e, s.shape)[far] * big_f
                           + slope * s[far] * t[far])
        out[rows] = a * weights + (2.0 * np.pi / n) * b
        if f is not None:
            d_f[rows] = root[rows] * (
                (da * weights) @ col_d + (2.0 * np.pi / n) * (db @ col_d))

    step = max(1, _BLOCK // n)
    for lo in range(0, h + 1, step):
        block(slice(lo, min(lo + step, h + 1)))
    return out if f is None else (out, d_f)


@dataclass(frozen=True)
class OuterSolution:
    """Outer density mu and flux constant gamma.

    A solve with core=True also carries what ``inner.solve_inner`` reads:
    single, the folded single layer on rows and columns 0..n/2, and
    core_rhs = g/2 + D g on rows 0..n/2.
    """

    mu: np.ndarray
    gamma: float
    single: np.ndarray | None = None
    core_rhs: np.ndarray | None = None


def solve_outer(grid: BoundaryGrid, w: float, core: bool = False
                ) -> OuterSolution:
    """Outer layer density for ring speed w.

    Boundary data (w/2)(1 + eps x1)^2 together with unit circulation
    int m mu dalpha = 1; the unknown flux constant gamma rides along in the
    bordered column.  (mu, gamma) is affine in w since only the right side
    depends on it.  With core=True the assembly also forms D g for the
    core's Dirichlet data g = x1^2 (2 + eps x1)^2 / 2, and the solution
    carries the folded single layer and g/2 + D g (see OuterSolution).
    """
    # The (n+1) system [M, -1; m w, 0] (mu, gamma) = (rhs, 1) folded by the
    # reflection j -> n-j: with M reflection-symmetric and rhs even, mu is
    # even, so rows 0..n/2 (the block ``rows``) with the columns j and n-j
    # added and the circulation row on the weights 1, 2, ..., 2, 1
    # determine it.
    rhs = 0.5 * w * (1.0 + grid.eps * grid.x1) ** 2
    h = grid.n // 2
    core_rhs = None
    if core:
        g = 0.5 * (grid.x1 * (2.0 + grid.eps * grid.x1)) ** 2
        rows, d_g = assemble_full(grid, g)
        core_rhs = 0.5 * g[:h + 1] + d_g
    else:
        rows = assemble_full(grid)
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
                         gamma=float(sol[h + 1]),
                         single=sys_mat[:h + 1, :h + 1] if core else None,
                         core_rhs=core_rhs)
