"""Cross-section geometry: cosine-series shapes and boundary grids.

The cross-section boundary is the polar graph r = 1 + theta(alpha) over the
unit circle, theta even in the symmetry axis, parametrized by a finite cosine
series

    theta(alpha) = sum_{l=0}^{M} a_l cos(l alpha).

``build_grid`` samples what the solves read on a uniform angular grid:
theta, the first coordinate x1 = (1+theta) cos alpha of the boundary chart
chi(alpha) = (1+theta) (cos alpha, sin alpha), the metric
m = |chi'| = sqrt(theta'^2 + (1+theta)^2) and the full mean-curvature factor

    h = kappa + eps (n . e1) / (1 + eps x1),

with kappa the in-plane curvature and n the outward normal, which is what
multiplies the surface tension in the pressure jump; theta, theta' and
theta'' come from one inverse real FFT of the coefficients.  The
admissible set is pinned by area pi and vanishing first moment, enforced on
the (a_0, a_1) pair by ``project_constraints`` with an exact 2x2 Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FourierShape",
    "BoundaryGrid",
    "GeometryError",
    "ProjectionError",
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


class ProjectionError(RuntimeError):
    """Raised when the (a_0, a_1) constraint projection fails to converge."""


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
    m: np.ndarray          # metric factor |chi'|
    x1: np.ndarray         # first coordinate (1 + theta) cos alpha of chi
    h: np.ndarray          # kappa + eps (n.e1)/(1 + eps x1)
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
    alpha = 2.0 * np.pi * np.arange(n) / n
    th, dth, ddth = _samples(shape.coeffs, n)
    r = 1.0 + th
    if np.min(r) <= 0.0:
        raise GeometryError("polar graph degenerate: 1 + theta <= 0")
    if eps * (1.0 + np.max(np.abs(th))) >= 1.0:
        raise GeometryError("eps (1 + sup|theta|) >= 1: section touches the axis")

    m = np.hypot(dth, r)
    ca, sa = np.cos(alpha), np.sin(alpha)
    # in-plane curvature, and n . e1 = (r cos + theta' sin)/m from the
    # outward normal ((1+theta) X - theta' X_perp)/m of the polar graph
    kappa = (r * r + 2.0 * dth * dth - r * ddth) / m**3
    h = kappa + eps * (r * ca + dth * sa) / (m * (1.0 + eps * r * ca))
    return BoundaryGrid(alpha=alpha, theta=th, m=m, x1=r * ca, h=h,
                        eps=float(eps))


def _samples(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Rows theta, theta', theta'' on n uniform angles; exact while n > 2M."""
    a = coeffs * (0.5 * n)
    a[0] *= 2.0   # irfft counts mode 0 once and every other mode twice
    l = np.arange(a.size)
    spec = np.zeros((3, n // 2 + 1), dtype=complex)
    spec[0, : a.size] = a
    spec[1, : a.size] = 1j * l * a
    spec[2, : a.size] = -(l * l) * a
    return np.fft.irfft(spec, n)


def area(shape: FourierShape) -> float:
    """Cross-section area (1/2) int (1+theta)^2 = pi (1+a_0)^2 + (pi/2) sum_{l>=1} a_l^2."""
    a = shape.coeffs
    return float(np.pi * (1.0 + a[0]) ** 2 + 0.5 * np.pi * np.dot(a[1:], a[1:]))


def moment_x1(shape: FourierShape) -> float:
    """First moment int_Omega y_1 dy = (1/3) int (1+theta)^3 cos alpha d alpha."""
    n = 4 * (shape.modes + 2)   # the trapezoid is exact for the degree-(3M+1) integrand
    r = 1.0 + _samples(shape.coeffs, n)[0]
    return float(np.sum(r**3 * np.cos(2.0 * np.pi * np.arange(n) / n)) / 3.0 * 2.0 * np.pi / n)


_PROJ_TOL = 1e-12
_PROJ_MAX_ITER = 20


def project_constraints(shape: FourierShape) -> FourierShape:
    """Slave (a_0, a_1) to the geometric constraints area = pi, moment = 0.

    Higher modes are untouched (a one-coefficient shape is padded).  Newton on
    r = 1 + theta_high + a_0 + a_1 cos alpha, theta_high sampled once, with the
    exact Jacobian [[2 pi (1+a_0), pi a_1], [int r^2 cos, int r^2 cos^2]].
    """
    c = np.zeros(max(shape.coeffs.size, 2))
    c[: shape.coeffs.size] = shape.coeffs
    a0, a1 = float(c[0]), float(c[1])
    c[:2] = 0.0
    high_sq = float(np.dot(c, c))
    n = 4 * (c.size + 1)
    cos_a = np.cos(2.0 * np.pi * np.arange(n) / n)
    base = 1.0 + _samples(c, n)[0]
    for _ in range(_PROJ_MAX_ITER):
        r = base + a0 + a1 * cos_a
        r2c = r * r * cos_a * (2.0 * np.pi / n)   # with the trapezoid weight
        g1 = np.pi * (1.0 + a0) ** 2 + 0.5 * np.pi * (a1 * a1 + high_sq) - np.pi
        g2 = float(np.dot(r2c, r)) / 3.0
        if abs(g1) <= _PROJ_TOL and abs(g2) <= _PROJ_TOL:
            c[0], c[1] = a0, a1
            return FourierShape(c)
        j00, j01 = 2.0 * np.pi * (1.0 + a0), np.pi * a1
        j10, j11 = float(np.sum(r2c)), float(np.dot(r2c, cos_a))
        det = j00 * j11 - j01 * j10
        if det == 0.0:
            raise ProjectionError("constraint Jacobian singular")
        a0, a1 = a0 - (g1 * j11 - j01 * g2) / det, a1 - (j00 * g2 - j10 * g1) / det
    raise ProjectionError(
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
