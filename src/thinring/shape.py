"""Cross-section geometry: cosine-series shapes and boundary grids.

The cross-section boundary is the polar graph r = 1 + theta(alpha) over the
unit circle, theta even in the symmetry axis, parametrized by a finite cosine
series

    theta(alpha) = sum_{l=0}^{M} a_l cos(l alpha).

``build_grid`` samples what the solves read on a uniform angular grid:
theta and theta', the first coordinate x1 = (1+theta) cos alpha of the
boundary chart chi(alpha) = (1+theta) (cos alpha, sin alpha), the metric
m = |chi'| = sqrt(theta'^2 + (1+theta)^2), the first component n1 = n . e1
of the outward normal and the full mean-curvature factor

    h = kappa + eps (n . e1) / (1 + eps x1),

with kappa the in-plane curvature and n the outward normal, which is what
multiplies the surface tension in the pressure jump; theta, theta' and
theta'' come from one product with a cached cosine table.  The admissible
set is pinned by area pi and vanishing first moment, a quadratic and a
cubic in (a_0, a_1) solved by ``project_constraints`` with an exact 2x2
Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "FourierShape",
    "BoundaryGrid",
    "GeometryError",
    "build_grid",
    "area",
    "moment_x1",
    "project_constraints",
    "sobolev_norm",
    "cosine_coeffs",
    "resample_trig",
]


class GeometryError(ValueError):
    """Raised when a shape/eps pair leaves the admissible chart."""


@dataclass(frozen=True)
class FourierShape:
    """Even cross-section profile theta = sum a_l cos(l alpha)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        if not np.isfinite(c).all():
            raise ValueError("coeffs must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def modes(self) -> int:
        return self.coeffs.size - 1

    def theta(self, alpha: np.ndarray) -> np.ndarray:
        l = np.arange(self.coeffs.size)
        return np.cos(np.multiply.outer(np.asarray(alpha, float), l)) @ self.coeffs

    def sup_norm(self) -> float:
        alpha = np.linspace(0.0, np.pi, 8 * self.coeffs.size + 16)
        return float(np.max(np.abs(self.theta(alpha))))


@dataclass(frozen=True)
class BoundaryGrid:
    """Uniform-in-alpha trace of the geometry at one (shape, eps)."""

    alpha: np.ndarray
    theta: np.ndarray
    dtheta: np.ndarray     # theta'
    m: np.ndarray          # metric factor |chi'|
    x1: np.ndarray         # first coordinate (1 + theta) cos alpha of chi
    n1: np.ndarray         # n . e1 of the outward normal
    h: np.ndarray          # kappa + eps n1/(1 + eps x1)
    eps: float

    @property
    def n(self) -> int:
        return self.alpha.size

    @property
    def weight(self) -> float:
        """Trapezoid weight of the uniform grid (exact for trig polynomials)."""
        return 2.0 * np.pi / self.n


def build_grid(shape: FourierShape, eps: float, n: int) -> BoundaryGrid:
    """Sample the boundary geometry on n uniform angles.

    Raises GeometryError if eps is negative or NaN, the polar graph
    degenerates (1 + theta <= 0), the torus embedding fails (eps (1 + sup
    theta) >= 1), or n < 4 (modes + 1) undersamples the quadratures.
    """
    if not eps >= 0.0:
        raise GeometryError(f"eps must be nonnegative, got {eps}")
    if n < 4 * (shape.modes + 1):
        raise GeometryError(
            f"n = {n} undersamples an M = {shape.modes} shape; need n >= {4 * (shape.modes + 1)}")
    alpha, (ca, _, _), sa, table = _tables(n, shape.coeffs.size)
    th, dth, ddth = (shape.coeffs @ table).reshape(3, n)
    r = 1.0 + th
    if np.min(r) <= 0.0:
        raise GeometryError("polar graph degenerate: 1 + theta <= 0")
    if eps * (1.0 + np.max(np.abs(th))) >= 1.0:
        raise GeometryError("eps (1 + sup|theta|) >= 1: section touches the axis")

    m = np.hypot(dth, r)
    # in-plane curvature, and n . e1 = (r cos + theta' sin)/m from the
    # outward normal ((1+theta) X - theta' X_perp)/m of the polar graph
    kappa = (r * r + 2.0 * dth * dth - r * ddth) / m**3
    normal = r * ca + dth * sa
    h = kappa + eps * normal / (m * (1.0 + eps * r * ca))
    return BoundaryGrid(alpha=alpha, theta=th, dtheta=dth, m=m, x1=r * ca,
                        n1=normal / m, h=h, eps=float(eps))


@lru_cache(maxsize=16)
def _tables(n: int, size: int):
    """(alpha, cos^k alpha for k = 1..3, sin alpha, table) on alpha_j =
    2 pi j / n, read-only; row l < size of table holds cos(l alpha_j),
    -l sin(l alpha_j), -l^2 cos(l alpha_j), so coeffs @ table is theta,
    theta', theta'' side by side."""
    j, l = np.arange(n), np.arange(size)[:, None]
    angle = 2.0 * np.pi * (l * j % n) / n
    c, s = np.cos(angle), np.sin(angle)
    alpha = 2.0 * np.pi * j / n
    ca = np.cos(alpha)
    return _read_only(alpha, np.array([ca, ca * ca, ca**3]), np.sin(alpha),
                      np.hstack([c, -l * s, -(l * l) * c]))


def _read_only(*arrays):
    # cached tables are shared by every later call
    for a in arrays:
        a.setflags(write=False)
    return arrays


def area(shape: FourierShape) -> float:
    """Cross-section area (1/2) int (1+theta)^2 = pi (1+a_0)^2 + (pi/2) sum_{l>=1} a_l^2."""
    a = shape.coeffs
    return float(np.pi * (1.0 + a[0]) ** 2 + 0.5 * np.pi * np.dot(a[1:], a[1:]))


def _high_moments(coeffs: np.ndarray, n: int = 0) -> list:
    """i[k-1][j-1] = int b^k cos^j alpha (j, k = 1..3) of b = sum_{l>=2}
    a_l cos(l alpha), exact from n >= 4 (M + 1) > 3M + 3 samples; the
    solver passes its boundary grid's n, so build_grid's table serves both."""
    n = max(n, 4 * coeffs.size)
    _, cos_pow, _, table = _tables(n, coeffs.size)
    b = coeffs[2:] @ table[2:, :n]
    bb = b * b
    return ((np.array([b, bb, bb * b]) @ cos_pow.T) * (2.0 * np.pi / n)).tolist()


def _moment(c: float, a1: float, i: list):
    # (1/3) int (c + a1 cos + b)^3 cos and its c, a1 derivatives, c = 1 + a_0
    (i11, i12, i13), (i21, i22, _), (i31, _, _) = i
    return (np.pi * c * c * a1 + 0.25 * np.pi * a1**3 + c * c * i11
            + 2.0 * c * a1 * i12 + a1 * a1 * i13 + c * i21 + a1 * i22
            + i31 / 3.0,
            2.0 * (np.pi * c * a1 + c * i11 + a1 * i12) + i21,
            np.pi * (c * c + 0.75 * a1 * a1) + 2.0 * (c * i12 + a1 * i13) + i22)


def moment_x1(shape: FourierShape) -> float:
    """First moment int_Omega y_1 dy = (1/3) int (1+theta)^3 cos alpha d alpha."""
    c = np.concatenate((shape.coeffs, [0.0] * (2 - shape.coeffs.size)))
    return float(_moment(1.0 + c[0], c[1], _high_moments(c))[0])


_PROJ_TOL = 1e-12
_PROJ_MAX_ITER = 20


def project_constraints(shape: FourierShape, n: int = 0) -> FourierShape:
    """Slave (a_0, a_1) to the geometric constraints area = pi, moment = 0.

    Higher modes are untouched (a one-coefficient shape is padded).  Newton
    on Python floats in c = 1 + a_0 and a_1: the area pi c^2 + (pi/2)
    sum_{l>=1} a_l^2 and the moment, a cubic on six moments of the fixed
    modes (_high_moments, on n samples), with their exact Jacobian.  Raises
    GeometryError when the Jacobian is singular or the iteration fails.
    """
    c = np.concatenate((shape.coeffs, [0.0] * (2 - shape.coeffs.size)))
    i, high_sq = _high_moments(c, n), float(c[2:] @ c[2:])
    c0, a1 = 1.0 + float(c[0]), float(c[1])
    for _ in range(_PROJ_MAX_ITER):
        g1 = np.pi * c0 * c0 + 0.5 * np.pi * (a1 * a1 + high_sq) - np.pi
        g2, j10, j11 = _moment(c0, a1, i)
        if abs(g1) <= _PROJ_TOL and abs(g2) <= _PROJ_TOL:
            c[0], c[1] = c0 - 1.0, a1
            return FourierShape(c)
        j00, j01 = 2.0 * np.pi * c0, np.pi * a1
        det = j00 * j11 - j01 * j10
        if det == 0.0:
            raise GeometryError("constraint Jacobian singular")
        c0, a1 = c0 - (g1 * j11 - j01 * g2) / det, a1 - (j00 * g2 - j10 * g1) / det
    raise GeometryError(
        f"no convergence in {_PROJ_MAX_ITER} iterations: area defect {g1:.3e}, moment {g2:.3e}")


def sobolev_norm(shape: FourierShape, k: int = 5) -> float:
    """H^k norm of theta on the circle from its cosine coefficients.

    norm^2 = 2 pi a_0^2 + pi sum_{l>=1} (1+l)^{2k} a_l^2, so a single mode
    theta = cos(2 alpha) has H^k norm sqrt(pi 3^{2k}).
    """
    a = shape.coeffs
    l = np.arange(a.size)
    w = np.where(l == 0, 2.0 * np.pi, np.pi)
    return float(np.sqrt(np.sum(w * (1.0 + l) ** (2 * k) * a * a)))


def cosine_coeffs(values: np.ndarray, m: int) -> np.ndarray:
    """Project uniform-grid samples onto cosine modes 0..m.

    Returns a_l with f ~ sum a_l cos(l alpha); the sine content is
    discarded (callers assert evenness separately when it matters).  Raises
    ValueError unless 0 <= m < n/2.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if m < 0:
        raise ValueError(f"m = {m} must be nonnegative")
    if m >= n // 2:
        raise ValueError(f"m = {m} unresolved by {n} samples")
    spec = np.fft.rfft(values)
    a = 2.0 * spec.real / n
    a[0] *= 0.5
    return a[: m + 1]


def resample_trig(values: np.ndarray, n_target: int) -> np.ndarray:
    """Trigonometric interpolation of uniform-grid samples onto n_target angles.

    Exact for functions band-limited below the source Nyquist mode; used to
    carry boundary traces between operator grids of different resolution.
    One rfft, the spectrum zero-padded (an even source's Nyquist bin halved,
    its sine dropped), one irfft.  A coarser target (n_target < n) is every
    m-th point of the interpolant on the m * n_target >= n grid, so it is
    still exact point evaluation.  Raises ValueError for n_target < 1.
    """
    if n_target < 1:
        raise ValueError(f"n_target = {n_target} must be at least 1")
    values = np.asarray(values, dtype=float)
    n = values.size
    if n_target < n:
        m = -(-n // n_target)
        return resample_trig(values, m * n_target)[::m]
    if n_target == n:
        return values.copy()
    spec = np.zeros(n_target // 2 + 1, dtype=complex)
    spec[: n // 2 + 1] = np.fft.rfft(values) * (n_target / n)
    if n % 2 == 0:
        # the Nyquist cosine appears once in the sum, sin(n alpha/2)
        # vanishes on the source grid
        spec[n // 2] = 0.5 * spec[n // 2].real
    return np.fft.irfft(spec, n_target)
