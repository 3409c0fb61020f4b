"""Solve parameters, surface-tension laws, asymptotics, and degeneracy margins.

The solver works in blown-up variables: a section of unit area scale,
density ratio parameter rho, surface-tension coefficient sigma(eps), ring
speed W, flux constant gamma, and Bernoulli constant nu.  This module owns
the dimensionless solve parameters, the leading-order asymptotic values of
(W, gamma, nu) (the generalized Kelvin-Hicks speed law), the affine speed
coordinate S of W, and the mode-wise invertibility margin of the
linearized jump condition.

Surface-tension laws are admissible when omega = lim 1/(eps sigma(eps))
exists in [0, inf) outside the excluded set (8 rho + 1/(2 pi^2))^{-1} N_{>=3},
eps^2 sigma(eps) -> 0, and eps |sigma'(eps)| stays comparable to sigma(eps).
A law whose values vanish is the zero law (classical case, no surface
tension), whatever its kind; it is admissible with omega = inf as a
sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "NAMED_KINDS",
    "SigmaLaw",
    "NondimParams",
    "SigmaReport",
    "asymptotic_wgn",
    "s_from_w",
    "degeneracy_k0",
    "degeneracy_margin",
    "check_sigma",
]

# named kinds: sigma = c log(1/eps)^k / eps^p, kind -> (p, k); None takes p
# from the law
_CLOSED_FORM = {"none": (0.0, 0), "c_over_eps": (1.0, 0),
                "c_log_over_eps": (1.0, 1), "c_power": (None, 0)}
NAMED_KINDS = tuple(_CLOSED_FORM)
_EPS0 = 0.05      # top of check_sigma's geometric eps grid


@dataclass(frozen=True)
class SigmaLaw:
    """Surface-tension coefficient as a function of eps.

    The named kinds are one closed form, sigma = c log(1/eps)^k / eps^p:
    ``none`` (sigma = 0, takes no c), ``c_over_eps`` (p = 1, k = 0,
    omega = 1/c), ``c_log_over_eps`` (p = 1, k = 1, omega = 0) and
    ``c_power`` (p in (1, 2) from the law, k = 0, omega = 0), each with
    c >= 0 finite.  ``custom`` wraps a black-box callable fn (no c, no p);
    its omega is the numerical estimate of lim 1/(eps sigma), in [0, inf].
    Only c_power takes p and only custom takes fn.  A law is the zero law
    by its values, not its kind: ``none``, c = 0 and a custom fn that
    returns 0 all have omega = inf and solve the classical problem.  A
    value of any kind must be >= 0: a negative or NaN sigma raises
    ValueError, as c_log_over_eps does past eps = 1, where log(1/eps) < 0.
    """

    kind: str = "none"
    c: float = 0.0
    p: float | None = None
    fn: Callable[[float], float] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in NAMED_KINDS and self.kind != "custom":
            raise ValueError(f"unknown sigma kind {self.kind!r}")
        if self.kind in ("none", "custom"):
            if self.c != 0.0:
                raise ValueError(f"{self.kind} law takes no coefficient c")
        elif not 0.0 <= self.c < math.inf:
            raise ValueError("sigma coefficient must be nonnegative and finite")
        if self.kind == "c_power":
            if self.p is None or not 1.0 < self.p < 2.0:
                raise ValueError("c_power law requires exponent p in (1, 2)")
        elif self.p is not None:
            raise ValueError(f"{self.kind} law takes no exponent p")
        if (self.fn is None) == (self.kind == "custom"):
            raise ValueError("custom law requires a callable" if self.fn is None
                             else f"{self.kind} law takes no callable fn")

    def _p_k(self) -> tuple[float, int]:
        p, k = _CLOSED_FORM[self.kind]
        return (self.p if p is None else p), k

    def __call__(self, eps: float) -> float:
        if not 0.0 < eps < math.inf:
            raise ValueError(
                f"sigma law evaluated at eps = {eps}, need 0 < eps < inf")
        if self.kind == "custom":
            sigma = float(self.fn(eps))
        else:
            p, k = self._p_k()
            sigma = self.c * math.log(1.0 / eps) ** k / eps**p
        if not sigma >= 0.0:
            raise ValueError(
                f"invalid law: sigma = {sigma} is negative or NaN "
                f"at eps = {eps}")
        return sigma

    def eps_sigma(self, eps: float) -> float:
        return eps * self(eps)

    @property
    def omega(self) -> float:
        """lim 1/(eps sigma) in [0, inf]: inf for a zero or divergent law,
        estimated for custom (inf if negative or NaN on the estimate's grid)."""
        if self.kind == "custom":
            return _estimate_omega(self)[0]
        if self.c == 0.0:
            return math.inf
        return 1.0 / self.c if self._p_k() == (1.0, 0) else 0.0

    def d_sigma(self, eps: float) -> float:
        """d sigma / d eps, analytic for the named kinds, central FD otherwise."""
        if self.kind == "custom":
            h = 1e-6 * eps
            return (self(eps + h) - self(eps - h)) / (2.0 * h)
        # k is 0 or 1, so d/deps log(1/eps)^k = -k / eps
        p, k = self._p_k()
        return -(p * self(eps) + k * self.c / eps**p) / eps


def _check_rho(rho: float) -> None:
    if not 0.0 <= rho < math.inf:
        raise ValueError(f"rho must be finite and >= 0, got {rho}")


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

    def __post_init__(self):
        _check_rho(self.rho)
        if self.omega is not None and not self.omega >= 0.0:
            raise ValueError(f"omega must be None or in [0, inf], got {self.omega}")


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


def s_from_w(eps: float, w: float) -> float:
    """Affine speed coordinate S = 2 (W - (log(8/eps) - 1/2)/(4 pi))."""
    return 2.0 * (w - _w_classical(eps))


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
    tension, or a divergent 1/(eps sigma)) returns an infinite margin: the
    sigma-free symbol (8 rho + 1/(2 pi^2))(1 - l) never vanishes for l >= 2.  Raises
    ValueError unless 0 <= rho < inf.
    """
    _check_rho(rho)
    if omega is None:
        raise ValueError("omega unknown; SigmaLaw.omega gives it")
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
    # Returns inf, the zero law's omega, when eps sigma vanishes or raises on
    # the grid (uncertainty 0), and when the estimate diverges or is negative
    # beyond roundoff: admissible laws settle far closer, and nonnegative.
    eps = _EPS0 * 0.5 ** np.arange(16, 24)
    try:
        es = np.array([law.eps_sigma(e) for e in eps])
    except ValueError:
        return math.inf, 0.0
    if not np.all(es > 0.0):
        return math.inf, 0.0
    u = 1.0 / np.log(1.0 / eps)
    tab = 1.0 / es
    penultimate = tab[0]
    for j in range(1, len(u)):
        penultimate = tab[0]
        tab = (u[:-j] * tab[1:] - u[j:] * tab[:-1]) / (u[:-j] - u[j:])
    est, unc = float(tab[0]), float(abs(tab[0] - penultimate))
    if unc > 0.05 * max(1.0, abs(est)) or est <= -10.0 * max(unc, 1e-15):
        return math.inf, unc
    return max(est, 0.0), unc


def check_sigma(sigma_law: SigmaLaw, rho: float) -> SigmaReport:
    """Admissibility of a tension law: omega, excluded set, decay, derivative.

    Checks lim 1/(eps sigma) in [0, inf) off the excluded set
    (8 rho + 1/(2 pi^2))^{-1} N_{>=3}, eps^2 sigma -> 0, and
    eps |sigma'| <~ sigma, each on a geometric grid below eps = 0.05, and
    runs every check on every law.  Named kinds use their analytic omega;
    custom laws get the Neville estimate, with its uncertainty.  A law
    whose values vanish on the grid is the zero law (the classical case):
    its omega = inf is admissible, any other law's is not.
    Raises ValueError unless 0 <= rho < inf, or if the law is negative or
    NaN anywhere on the grid.
    """
    _check_rho(rho)
    msgs: list[str] = []
    grid = _EPS0 * 0.5 ** np.arange(20)
    sig = np.array([sigma_law(e) for e in grid])
    if sigma_law.kind == "custom":
        omega, unc = _estimate_omega(sigma_law)
        source = "estimated"
        msgs.append(f"omega estimated numerically, uncertainty {unc:.2e}")
    else:
        omega, unc, source = sigma_law.omega, 0.0, "analytic"
    zero = not np.any(sig)
    if zero:
        msgs.append("zero law: classical case, no admissibility constraints")
    elif math.isinf(omega):
        msgs.append("1/(eps sigma) has no finite nonnegative limit")

    margin, worst = degeneracy_margin(rho, omega)
    excluded = margin <= max(1e-9, 10.0 * unc)
    if excluded:
        k = omega * degeneracy_k0(rho)
        msgs.append(f"omega(8 rho + 1/(2 pi^2)) = {k:.12g} lies in the "
                    f"excluded integer set (mode {worst})")

    e2s = grid**2 * sig
    tail = e2s[-10:]
    eps2_ok = bool(np.all(np.diff(tail) <= 0.0) and tail[-1] <= 0.05 * e2s[0])
    if not eps2_ok:
        msgs.append("eps^2 sigma(eps) does not decay to 0 on the sample grid")

    ratios = [grid[i] * abs(sigma_law.d_sigma(grid[i])) / sig[i]
              for i in range(len(grid)) if sig[i] > 0.0]
    ratio_max = float(np.max(ratios, initial=0.0))
    deriv_ok = ratio_max <= 10.0
    if not deriv_ok:
        msgs.append(f"eps |sigma'| / sigma reaches {ratio_max:.3g} (> 10)")

    return SigmaReport(
        omega=omega, omega_source=source, omega_uncertainty=unc,
        margin=margin, worst_mode=worst, excluded=excluded,
        eps2_sigma_ok=eps2_ok, derivative_ok=deriv_ok,
        derivative_ratio_max=ratio_max,
        admissible=(zero or math.isfinite(omega)) and not excluded
        and eps2_ok and deriv_ok,
        messages=tuple(msgs))
