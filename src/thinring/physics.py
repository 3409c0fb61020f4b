"""Parameter maps, surface-tension laws, asymptotics, and degeneracy margins.

The solver works in blown-up variables: a section of unit area scale,
density ratio parameter rho, surface-tension coefficient sigma(eps), ring
speed W, flux constant gamma, and Bernoulli constant nu.  This module owns
the translation between those and dimensional quantities (ring radius R,
core radius eps_bar, circulation b_bar, potential vorticity xi_bar, mass
densities rho_in/rho_out, dimensional tension sigma_bar), the leading-order
asymptotic values of (W, gamma, nu), the affine speed coordinate S and its
map to W, the thin-ring speed law with its core constant, and the
mode-wise invertibility margin of the linearized jump condition.

Surface-tension laws are admissible when omega = lim 1/(eps sigma(eps))
exists in [0, inf) outside the excluded set (8 rho + 1/(2 pi^2))^{-1} N_{>=3},
eps^2 sigma(eps) -> 0, and eps |sigma'(eps)| stays comparable to sigma(eps).
The zero law (classical case, no surface tension) is admissible with
omega = inf as a sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "SigmaLaw",
    "PhysicalSetup",
    "NondimParams",
    "DimensionalState",
    "SigmaReport",
    "nondimensionalize",
    "redimensionalize",
    "dimensionless_state",
    "asymptotic_wgn",
    "nu_sigma_rescaled",
    "s_asymptotic",
    "w_from_s",
    "s_from_w",
    "kelvin_hicks",
    "degeneracy_k0",
    "degeneracy_margin",
    "check_sigma",
]

_KINDS = ("none", "c_over_eps", "c_log_over_eps", "c_power", "custom")
_EPS0 = 0.05      # top of check_sigma's geometric eps grid


@dataclass(frozen=True)
class SigmaLaw:
    """Surface-tension coefficient as a function of eps.

    Kinds: ``none`` (sigma = 0), ``c_over_eps`` (c/eps, omega = 1/c),
    ``c_log_over_eps`` (c log(1/eps)/eps, omega = 0), ``c_power``
    (c/eps^p with p in (1,2), omega = 0), and ``custom`` (black-box
    callable; omega estimated numerically by check_sigma).
    """

    kind: str = "none"
    c: float = 0.0
    p: float | None = None
    fn: Callable[[float], float] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown sigma kind {self.kind!r}")
        if (self.kind != "none" and self.kind != "custom"
                and not 0.0 <= self.c < math.inf):
            raise ValueError("sigma coefficient must be nonnegative and finite")
        if self.kind == "c_power":
            if self.p is None or not 1.0 < self.p < 2.0:
                raise ValueError("c_power law requires exponent p in (1, 2)")
        if self.kind == "custom" and self.fn is None:
            raise ValueError("custom law requires a callable")

    @property
    def is_zero(self) -> bool:
        return self.kind == "none" or (self.kind != "custom" and self.c == 0.0)

    def __call__(self, eps: float) -> float:
        if not eps > 0.0:
            raise ValueError(f"sigma law evaluated at eps = {eps}, need eps > 0")
        if self.kind == "none":
            return 0.0
        if self.kind == "c_over_eps":
            return self.c / eps
        if self.kind == "c_log_over_eps":
            return self.c * math.log(1.0 / eps) / eps
        if self.kind == "c_power":
            return self.c / eps**self.p
        return float(self.fn(eps))

    def eps_sigma(self, eps: float) -> float:
        return eps * self(eps)

    @property
    def omega(self) -> float | None:
        """Analytic lim 1/(eps sigma), inf for the zero law, None if unknown."""
        if self.is_zero:
            return math.inf
        if self.kind == "c_over_eps":
            return 1.0 / self.c
        if self.kind in ("c_log_over_eps", "c_power"):
            return 0.0
        return None

    def d_sigma(self, eps: float) -> float:
        """d sigma / d eps, analytic for the named kinds, central FD otherwise."""
        if self.kind == "none":
            return 0.0
        if self.kind == "c_over_eps":
            return -self.c / eps**2
        if self.kind == "c_log_over_eps":
            return -self.c * (math.log(1.0 / eps) + 1.0) / eps**2
        if self.kind == "c_power":
            return -self.p * self.c / eps ** (self.p + 1.0)
        h = 1e-6 * eps
        return (self(eps + h) - self(eps - h)) / (2.0 * h)

    def scaled(self, factor: float) -> SigmaLaw:
        """The law multiplied by a positive constant (same kind)."""
        if factor < 0.0:
            raise ValueError("scale factor must be nonnegative")
        if self.kind == "custom":
            f = self.fn
            return SigmaLaw(kind="custom", fn=lambda e: factor * f(e))
        return SigmaLaw(kind=self.kind, c=factor * self.c, p=self.p)


@dataclass(frozen=True)
class PhysicalSetup:
    """Dimensional description of a two-phase vortex ring.

    rho_in/rho_out are the core and ambient mass densities, R the ring
    radius, eps_bar the core radius, b_bar the circulation, xi_bar the
    potential-vorticity amplitude of the core, sigma_bar_law the
    dimensional surface tension as a function of eps = eps_bar/R.
    """

    rho_in: float
    rho_out: float
    R: float
    eps_bar: float
    b_bar: float
    xi_bar: float
    sigma_bar_law: SigmaLaw = SigmaLaw()

    def __post_init__(self):
        for name in ("rho_in", "rho_out", "R", "eps_bar", "b_bar", "xi_bar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.rho_in < 0.0 or self.rho_out <= 0.0:
            raise ValueError("densities require rho_in >= 0, rho_out > 0")
        if self.rho_out < self.rho_in:
            raise ValueError("heavy-core configurations (rho_in > rho_out) not supported")
        if self.R <= 0.0 or self.eps_bar <= 0.0:
            raise ValueError("R and eps_bar must be positive")
        if self.eps_bar >= self.R:
            raise ValueError("thin-ring regime requires eps_bar < R")
        if self.b_bar == 0.0:
            raise ValueError("degenerate circulation: b_bar = 0")

    @property
    def eps(self) -> float:
        return self.eps_bar / self.R


@dataclass(frozen=True)
class NondimParams:
    """Dimensionless solve parameters.

    rho = (1/(4 pi)^2)(a/b)^2 (rho_in/rho_out) with a = pi R^2 eps_bar^2
    xi_bar and b = R b_bar; sigma_law is the rescaled tension
    (2 R^3/(rho_out b^2)) sigma_bar; omega its 1/(eps sigma) limit.
    """

    rho: float
    sigma_law: SigmaLaw
    omega: float | None
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.rho < math.inf:
            raise ValueError(f"rho must be finite and >= 0, got {self.rho}")
        if self.omega is not None and not self.omega >= 0.0:
            raise ValueError(f"omega must be None or in [0, inf], got {self.omega}")


@dataclass(frozen=True)
class DimensionalState:
    w_bar: float
    gamma_bar: float
    nu_bar: float


def nondimensionalize(setup: PhysicalSetup) -> NondimParams:
    """Dimensionless (rho, sigma law) from a physical setup."""
    a = math.pi * setup.R**2 * setup.eps_bar**2 * setup.xi_bar
    b = setup.R * setup.b_bar
    rho = (a / b) ** 2 * (setup.rho_in / setup.rho_out) / (4.0 * math.pi) ** 2
    sigma_law = setup.sigma_bar_law.scaled(2.0 * setup.R**3 / (setup.rho_out * b**2))
    return NondimParams(rho=rho, sigma_law=sigma_law, omega=sigma_law.omega, a=a, b=b)


def redimensionalize(params: NondimParams, state, setup: PhysicalSetup) -> DimensionalState:
    """Dimensional (W, gamma, nu) from a solved dimensionless state.

    ``state`` needs attributes w, gamma, nu, eps.  The maps are
    w_bar = (b/R^2) w, gamma_bar = b gamma, nu_bar = rho_out b^2 nu / eps^2.
    """
    b = params.b if params.b else setup.R * setup.b_bar
    rsq = setup.R**2
    return DimensionalState(
        w_bar=b / rsq * state.w,
        gamma_bar=b * state.gamma,
        nu_bar=setup.rho_out * b**2 * state.nu / state.eps**2,
    )


def dimensionless_state(setup: PhysicalSetup, dim: DimensionalState,
                        eps: float) -> tuple[float, float, float]:
    """Inverse of redimensionalize: (w, gamma, nu) from dimensional values."""
    b = setup.R * setup.b_bar
    return (
        setup.R**2 / b * dim.w_bar,
        dim.gamma_bar / b,
        eps**2 * dim.nu_bar / (setup.rho_out * b**2),
    )


def _w_classical(eps: float) -> float:
    # (log(8/eps) - 1/2)/(4 pi), the leading ring speed at rho = 0 without
    # tension; W and the speed coordinate S both measure from it
    return (math.log(8.0 / eps) - 0.5) / (4.0 * math.pi)


def asymptotic_wgn(eps: float, rho: float,
                   sigma_law: SigmaLaw) -> tuple[float, float, float]:
    """Leading-order (W, gamma, nu) of the thin-ring solution.

    W     = (1/4 pi)(log 8 - 1/2 + log(1/eps)) + rho pi + eps sigma pi / 2
    gamma = (3/8 pi) log(8/eps) - 15/(16 pi) - rho pi / 2 - eps sigma pi / 4
    nu    = 4 rho - 1/(4 pi^2) + eps sigma

    gamma satisfies gamma = (1/2 pi)(log 8 + log(1/eps) - 2) - W/2 exactly
    at this order (the rho and sigma terms cancel in the combination).
    """
    es = sigma_law.eps_sigma(eps)
    log8e = math.log(8.0 / eps)
    w = _w_classical(eps) + rho * math.pi + es * math.pi / 2.0
    gamma = 3.0 * log8e / (8.0 * math.pi) - 15.0 / (16.0 * math.pi) \
        - rho * math.pi / 2.0 - es * math.pi / 4.0
    nu = 4.0 * rho - 1.0 / (4.0 * math.pi**2) + es
    return w, gamma, nu


def nu_sigma_rescaled(eps: float, rho: float, sigma_law: SigmaLaw) -> float:
    """Bernoulli constant in the tension-rescaled normalization.

    nu / (eps sigma) at leading order: (1/(eps sigma))(4 rho - 1/(4 pi^2)) + 1.
    Only meaningful for sigma > 0.
    """
    es = sigma_law.eps_sigma(eps)
    if es <= 0.0:
        raise ValueError("rescaled nu requires sigma > 0")
    return (4.0 * rho - 1.0 / (4.0 * math.pi**2)) / es + 1.0


def s_asymptotic(eps: float, rho: float, sigma_law: SigmaLaw) -> float:
    """Leading-order affine speed coordinate: S -> 2 rho pi + eps sigma pi."""
    return 2.0 * rho * math.pi + sigma_law.eps_sigma(eps) * math.pi


def w_from_s(eps: float, s: float) -> float:
    """Ring speed from the affine speed coordinate S."""
    return _w_classical(eps) + 0.5 * s


def s_from_w(eps: float, w: float) -> float:
    """Affine speed coordinate S from the ring speed (exact inverse of w_from_s)."""
    return 2.0 * (w - _w_classical(eps))


def kelvin_hicks(setup: PhysicalSetup) -> float:
    """Thin-ring translation speed, dimensional.

    w_bar = (b_bar / 4 pi R)(log(8R/eps_bar) - 1/2
            + (1/4)(a_bar/b_bar)^2 (rho_in/rho_out))
            + (pi / (R b_bar rho_out)) eps_bar sigma_bar(eps)

    with a_bar = pi R eps_bar^2 xi_bar.  The classical core constants are
    recovered at sigma_bar = 0: a_bar = b_bar with rho_in = rho_out gives
    c = 1/4 (uniformly rotating one-fluid core), rho_in = 0 gives c = 1/2
    (hollow core).
    """
    a_bar = math.pi * setup.R * setup.eps_bar**2 * setup.xi_bar
    core = 0.25 * (a_bar / setup.b_bar) ** 2 * setup.rho_in / setup.rho_out
    w = setup.b_bar / (4.0 * math.pi * setup.R) \
        * (math.log(8.0 * setup.R / setup.eps_bar) - 0.5 + core)
    sig = setup.sigma_bar_law(setup.eps)
    if sig:
        w += math.pi * setup.eps_bar * sig / (setup.R * setup.b_bar * setup.rho_out)
    return w


def degeneracy_k0(rho: float) -> float:
    """Symbol factor 8 rho + 1/(2 pi^2); K = omega times this factor."""
    return 8.0 * rho + 1.0 / (2.0 * np.pi**2)


def degeneracy_margin(rho: float, omega: float | None) -> tuple[float, int]:
    """Invertibility margin of the linearized jump condition.

    Returns min over modes l >= 2 of |omega (8 rho + 1/(2 pi^2))(1 - l)
    - 1 + l^2| / l together with the minimizing mode.  The symbol factors
    as (l - 1)(l + 1 - K) with K = omega (8 rho + 1/(2 pi^2)), so the
    margin vanishes exactly when K is an integer >= 3.  On l <= K - 1 the
    margin is K - l - (K - 1)/l, concave in l, and on l >= K - 1 it rises, so
    its minimum over the integers l >= 2 is at l = 2, floor(K) - 1 or
    ceil(K) - 1; only those candidates are evaluated.  omega = inf (zero
    tension) returns an infinite margin: the sigma-free symbol
    (8 rho + 1/(2 pi^2))(1 - l) never vanishes for l >= 2.
    """
    if omega is None:
        raise ValueError("omega unknown; run check_sigma first")
    if math.isinf(omega):
        return math.inf, 2
    if not omega >= 0.0:
        raise ValueError("omega must be nonnegative")
    k = omega * degeneracy_k0(rho)
    near = np.array([np.floor(k), np.ceil(k)]) - 1.0
    l = np.concatenate([[2.0], near[near > 2.0]])     # ascending: ties go low
    vals = np.abs(k * (1.0 - l) - 1.0 + l**2) / l
    i = int(np.argmin(vals))
    return float(vals[i]), int(l[i])


@dataclass(frozen=True)
class SigmaReport:
    """Admissibility report for a surface-tension law at density ratio rho."""

    omega: float
    omega_source: str
    omega_uncertainty: float
    margin: float
    worst_mode: int
    excluded: bool
    eps2_sigma_ok: bool
    derivative_ok: bool
    derivative_ratio_max: float
    admissible: bool
    messages: tuple[str, ...]


def _estimate_omega(law: SigmaLaw) -> tuple[float, float]:
    # Limit of g(eps) = 1/(eps sigma) by Neville extrapolation to u = 0 in
    # the variable u = 1/log(1/eps): admissible tails are polynomial in u
    # (log-type decay) or superpolynomially small (power-type decay).
    eps = _EPS0 * 0.5 ** np.arange(16, 24)
    u = 1.0 / np.log(1.0 / eps)
    g = np.array([1.0 / law.eps_sigma(e) for e in eps])
    tab = g.copy()
    penultimate = tab[0]
    for j in range(1, len(u)):
        penultimate = tab[0]
        tab = (u[:-j] * tab[1:] - u[j:] * tab[:-1]) / (u[:-j] - u[j:])
    est, unc = float(tab[0]), float(abs(tab[0] - penultimate))
    if est < 0.0 and est > -10.0 * max(unc, 1e-15):
        est = 0.0
    return est, unc


def check_sigma(sigma_law: SigmaLaw, rho: float) -> SigmaReport:
    """Admissibility of a tension law: omega, excluded set, decay, derivative.

    Checks lim 1/(eps sigma) in [0, inf) off the excluded set
    (8 rho + 1/(2 pi^2))^{-1} N_{>=3}, eps^2 sigma -> 0, and
    eps |sigma'| <~ sigma, each on a geometric grid below eps = 0.05.
    Laws with a declared omega use it; black-box laws get an Aitken
    estimate.
    Raises ValueError if sigma is negative anywhere on the grid.
    """
    msgs: list[str] = []
    grid = _EPS0 * 0.5 ** np.arange(20)
    if sigma_law.is_zero:
        return SigmaReport(
            omega=math.inf, omega_source="analytic", omega_uncertainty=0.0,
            margin=math.inf, worst_mode=2, excluded=False,
            eps2_sigma_ok=True, derivative_ok=True, derivative_ratio_max=0.0,
            admissible=True,
            messages=("zero law: classical case, no admissibility constraints",))

    sig = np.array([sigma_law(e) for e in grid])
    if np.any(sig < 0.0):
        raise ValueError("invalid law: sigma negative on the sample grid")

    if sigma_law.omega is not None:
        omega, unc, source = sigma_law.omega, 0.0, "analytic"
    else:
        omega, unc = _estimate_omega(sigma_law)
        source = "estimated"
        msgs.append(f"omega estimated numerically, uncertainty {unc:.2e}")
    if not math.isfinite(omega) or omega < 0.0:
        msgs.append("1/(eps sigma) has no finite nonnegative limit")
        return SigmaReport(
            omega=omega, omega_source=source, omega_uncertainty=unc,
            margin=0.0, worst_mode=0, excluded=True,
            eps2_sigma_ok=False, derivative_ok=False, derivative_ratio_max=math.inf,
            admissible=False, messages=tuple(msgs))

    margin, worst = degeneracy_margin(rho, omega)
    excluded = margin <= max(1e-9, 10.0 * unc)
    if excluded:
        k = omega * degeneracy_k0(rho)
        msgs.append(f"omega(8 rho + 1/(2 pi^2)) = {k:.12g} lies in the "
                    f"excluded integer set (mode {worst})")

    e2s = grid**2 * sig
    tail = e2s[-10:]
    eps2_ok = bool(np.all(np.diff(tail) < 0.0) and tail[-1] < 0.05 * e2s[0])
    if not eps2_ok:
        msgs.append("eps^2 sigma(eps) does not decay to 0 on the sample grid")

    ratios = np.array([grid[i] * abs(sigma_law.d_sigma(grid[i])) / sig[i]
                       for i in range(len(grid)) if sig[i] > 0.0])
    ratio_max = float(np.max(ratios)) if ratios.size else math.inf
    deriv_ok = ratio_max <= 10.0
    if not deriv_ok:
        msgs.append(f"eps |sigma'| / sigma reaches {ratio_max:.3g} (> 10)")

    return SigmaReport(
        omega=omega, omega_source=source, omega_uncertainty=unc,
        margin=margin, worst_mode=worst, excluded=excluded,
        eps2_sigma_ok=eps2_ok, derivative_ok=deriv_ok,
        derivative_ratio_max=ratio_max,
        admissible=not excluded and eps2_ok and deriv_ok,
        messages=tuple(msgs))