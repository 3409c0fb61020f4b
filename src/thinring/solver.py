"""Newton iteration on the jump condition, with continuation in eps.

A steady ring section is a root of the pointwise jump residual

    rho lambda^2 - mu^2 + eps sigma(eps) h - nu    on the section boundary,

where lambda is the rescaled inner normal velocity, mu the outer sheet
strength at ring speed w, and h the rescaled curvature trace.  The residual
is projected onto cosine modes 0..M; the unknown vector is
(a_2, ..., a_M, w, nu) with (a_0, a_1) slaved to the area and moment
constraints inside every evaluation.  Mode 1 of the residual pairs with w
(the mode where the shape Jacobian degenerates) and mode 0 with nu.

For sigma > 0 the residual is rescaled by 1/(1 + eps sigma(eps)): the root
set is unchanged and the Jacobian diagonal stays O(1) uniformly in the
large-tension regime eps sigma >> 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .inner import solve_inner
from .outer import solve_outer
from .physics import (NondimParams, asymptotic_wgn, check_sigma,
                      degeneracy_margin, s_from_w)
from .shape import (FourierShape, GeometryError, ProjectionError, area,
                    build_grid, cosine_coeffs, moment_x1, project_constraints,
                    sobolev_norm)

__all__ = [
    "SolverError",
    "ContinuationError",
    "SolverOptions",
    "ResidualVector",
    "SolutionState",
    "residual",
    "jacobian_fd",
    "newton_solve",
    "continuation",
]

# uniqueness-window exponent for ||theta||_{H^5} / eps^ell, ell in (1/2, 1)
_WINDOW_ELL = 0.75

# Newton iteration cap and forward-difference Jacobian step
_MAX_ITER = 25
_FD_STEP = 1e-7


class SolverError(RuntimeError):
    """Newton failure; carries the last residual norm when available."""

    def __init__(self, message: str, residual_norm: float | None = None):
        super().__init__(message)
        self.residual_norm = residual_norm


class ContinuationError(RuntimeError):
    """Mid-grid failure; ``results`` holds the states solved so far."""

    def __init__(self, message: str, results: list):
        super().__init__(message)
        self.results = results


@dataclass(frozen=True)
class SolverOptions:
    """Discretization and iteration controls.

    n_grid is the boundary quadrature size, modes the cosine truncation M,
    inner_nr/inner_nalpha the core collocation resolution.  The Newton
    tolerance applies to the infinity norm of the projected residual; the
    attainable floor is set by grid resolution, about 1e-12 at the
    defaults for thin sections.
    """

    n_grid: int = 256
    modes: int = 32
    tol: float = 1e-10
    inner_nr: int = 16
    inner_nalpha: int = 32

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError("modes must be >= 1")
        if self.n_grid < 4 * (self.modes + 1):
            raise ValueError("n_grid must resolve the mode truncation (>= 4(M+1))")
        if self.n_grid % 2:
            raise ValueError("n_grid must be even")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.inner_nr < 2:
            raise ValueError("inner_nr must be >= 2")
        if self.inner_nalpha < 2 or self.inner_nalpha % 2:
            raise ValueError("inner_nalpha must be even and >= 2")


@dataclass(frozen=True)
class ResidualVector:
    """Cosine projections of the jump residual plus constraint defects.

    r[l] is the mode-l projection; newton_order() permutes to the row
    order (r_2..r_M, r_1, r_0) matching the unknowns (a_2..a_M, w, nu).
    The boundary samples used to form it ride along for diagnostics.
    """

    r: np.ndarray
    area_residual: float
    moment_residual: float
    gamma: float
    mu: np.ndarray
    lam: np.ndarray
    h: np.ndarray
    shape: FourierShape

    def newton_order(self) -> np.ndarray:
        return np.concatenate([self.r[2:], self.r[1:2], self.r[0:1]])


@dataclass(frozen=True)
class SolutionState:
    """Converged steady section with its scalar data and diagnostics.

    diagnostics keys: residual_norm, iterations, jacobian_cond, margin,
    worst_mode, theta_sup, theta_h5, window_theta (||theta||_{H^5}/eps^0.75),
    window_speed (|w| log(1/eps)(eps^2 + ||theta||_{H^5}^2)), area_residual,
    moment_residual, warnings (tuple of strings).
    """

    shape: FourierShape
    w: float
    gamma: float
    nu: float
    s: float
    mu: np.ndarray
    lam: np.ndarray
    eps: float
    diagnostics: dict


def _inner_lam(shape: FourierShape, eps: float,
               options: SolverOptions) -> np.ndarray:
    return solve_inner(shape, eps, n_r=options.inner_nr,
                       n_alpha=options.inner_nalpha).lam_on(options.n_grid)


def residual(shape: FourierShape, eps: float, w: float, nu: float,
             params: NondimParams, options: SolverOptions = SolverOptions()
             ) -> ResidualVector:
    """Projected jump residual at a trial (shape, w, nu).

    (a_0, a_1) of the shape are replaced by their constrained values before
    anything is evaluated, so the returned constraint defects are at the
    projection tolerance.  The inner solve is skipped when rho = 0 (lambda
    enters multiplied by rho); for sigma > 0 the pointwise residual is
    scaled by 1/(1 + eps sigma), which shifts r_0 under nu -> nu + c by
    -c/(1 + eps sigma) and leaves higher modes untouched.
    """
    shape = project_constraints(shape)
    grid = build_grid(shape, eps, options.n_grid)
    if params.rho > 0.0:
        lam = _inner_lam(shape, eps, options)
    else:
        lam = np.zeros(options.n_grid)
    out = solve_outer(grid, w)
    sig = params.sigma_law(eps)
    point = params.rho * lam**2 - out.mu**2 + eps * sig * grid.h - nu
    if sig > 0.0:
        point = point / (1.0 + eps * sig)
    if not np.all(np.isfinite(point)):
        raise SolverError("non-finite jump residual (inner/outer breakdown)")
    r = cosine_coeffs(point, options.modes)
    return ResidualVector(
        r=r, area_residual=area(shape) - math.pi,
        moment_residual=moment_x1(shape), gamma=out.gamma, mu=out.mu,
        lam=lam, h=grid.h, shape=shape)


def jacobian_fd(fun, x: np.ndarray, f0: np.ndarray,
                step: float = _FD_STEP) -> np.ndarray:
    """Forward-difference Jacobian, one residual evaluation per column.

    Column i uses increment step (1 + |x_i|).  Columns are independent
    evaluations; they are run sequentially so BLAS keeps its threads.
    """
    n = x.size
    jac = np.empty((f0.size, n))
    for i in range(n):
        h = step * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += h
        jac[:, i] = (fun(xp) - f0) / h
    return jac


def _shape_from(coeffs_high: np.ndarray, modes: int) -> FourierShape:
    c = np.zeros(modes + 1)
    c[2:] = coeffs_high
    return FourierShape(c)


def _resolve_omega(params: NondimParams) -> float:
    if params.omega is not None:
        return params.omega
    ana = params.sigma_law.omega
    if ana is not None:
        return ana
    return check_sigma(params.sigma_law, params.rho).omega


def newton_solve(eps: float, params: NondimParams,
                 init: SolutionState | None = None,
                 options: SolverOptions = SolverOptions()) -> SolutionState:
    """Solve the steady jump condition at fixed eps.

    Unknowns (a_2..a_M, w, nu); Jacobian by forward differences each step;
    convergence when the projected residual infinity norm drops below
    options.tol.  Without an initializer the asymptotic values (zero
    shape, leading-order w and nu) are used; they are inside the Newton
    basin throughout the thin regime eps <= 0.05.

    Raises SolverError on non-convergence or stagnation.  A degeneracy
    warning is attached when the mode margin at (rho, omega) is below
    0.05 or the Jacobian condition number exceeds 1e12.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    omega = _resolve_omega(params)
    margin, worst = degeneracy_margin(params.rho, omega)
    degen_note = (f" (degeneracy margin {margin:.3e} at mode {worst})"
                  if margin < 0.05 else "")

    m = options.modes
    if init is None:
        w0, _, nu0 = asymptotic_wgn(eps, params.rho, params.sigma_law)
        x = np.concatenate([np.zeros(m - 1), [w0, nu0]])
    else:
        c = np.zeros(m + 1)
        src = init.shape.coeffs
        take = min(src.size, m + 1)
        c[:take] = src[:take]
        x = np.concatenate([c[2:], [init.w, init.nu]])

    def evaluate(xv: np.ndarray) -> ResidualVector:
        try:
            return residual(_shape_from(xv[:-2], m), eps, xv[-2], xv[-1],
                            params, options)
        except (GeometryError, ProjectionError) as exc:
            raise SolverError(
                f"iterate left the admissible shape region: {exc}{degen_note}"
            ) from exc

    def fun(xv: np.ndarray) -> np.ndarray:
        return evaluate(xv).newton_order()

    rv = evaluate(x)
    rnorm = float(np.max(np.abs(rv.newton_order())))
    jac = None
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        if rnorm <= options.tol:
            iterations -= 1
            break
        jac = jacobian_fd(fun, x, rv.newton_order())
        try:
            dx = np.linalg.solve(jac, -rv.newton_order())
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular Newton Jacobian" + degen_note,
                              rnorm) from exc
        if not np.all(np.isfinite(dx)):
            raise SolverError("non-finite Newton step" + degen_note, rnorm)
        x = x + dx
        rv = evaluate(x)
        rnorm = float(np.max(np.abs(rv.newton_order())))
        if float(np.max(np.abs(dx))) <= 1e-14 * (1.0 + float(np.max(np.abs(x)))):
            if rnorm > options.tol:
                raise SolverError(
                    f"Newton stagnated at residual {rnorm:.3e}" + degen_note,
                    rnorm)
    else:
        raise SolverError(
            f"no convergence in {_MAX_ITER} iterations "
            f"(residual {rnorm:.3e})" + degen_note, rnorm)

    if jac is None:
        jac = jacobian_fd(fun, x, rv.newton_order())
    cond = float(np.linalg.cond(jac))

    warnings_list: list[str] = []
    if margin < 0.05:
        warnings_list.append(
            f"degeneracy margin {margin:.3e} at mode {worst}: linearized "
            "jump condition nearly non-invertible")
    if cond > 1e12:
        warnings_list.append(f"Jacobian condition {cond:.3e} exceeds 1e12")

    shape = rv.shape
    w, nu = float(x[-2]), float(x[-1])
    lam = rv.lam
    if params.rho == 0.0:
        # reported even when it does not enter the residual; a failure here
        # must not void the converged state
        try:
            lam = _inner_lam(shape, eps, options)
        except GeometryError as exc:
            warnings_list.append(f"inner velocity report unavailable: {exc}")
    th5 = sobolev_norm(shape, 5)
    diagnostics = {
        "residual_norm": rnorm,
        "iterations": iterations,
        "jacobian_cond": cond,
        "margin": margin,
        "worst_mode": worst,
        "theta_sup": shape.sup_norm(),
        "theta_h5": th5,
        "window_theta": th5 / eps**_WINDOW_ELL,
        "window_speed": abs(w) * math.log(1.0 / eps) * (eps**2 + th5**2),
        "area_residual": rv.area_residual,
        "moment_residual": rv.moment_residual,
        "warnings": tuple(warnings_list),
    }
    return SolutionState(shape=shape, w=w, gamma=rv.gamma, nu=nu,
                         s=s_from_w(eps, w), mu=rv.mu, lam=lam, eps=eps,
                         diagnostics=diagnostics)


def continuation(eps_grid, params: NondimParams,
                 options: SolverOptions = SolverOptions()) -> list[SolutionState]:
    """Warm-started solves over a descending eps grid.

    Each solve is initialized from the previous state with w and nu
    shifted by the change in their asymptotic values (the shape carries
    over unchanged).  The first failure aborts; the exception carries the
    states already solved.
    """
    eps_grid = [float(e) for e in eps_grid]
    if not all(0.0 < e < math.inf for e in eps_grid):
        raise ValueError("eps grid must be positive and finite")
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps grid must be strictly descending")
    results: list[SolutionState] = []
    prev: SolutionState | None = None
    for eps in eps_grid:
        init = None
        if prev is not None:
            w_new, _, nu_new = asymptotic_wgn(eps, params.rho, params.sigma_law)
            w_old, _, nu_old = asymptotic_wgn(prev.eps, params.rho, params.sigma_law)
            init = replace(prev, w=prev.w + w_new - w_old,
                           nu=prev.nu + nu_new - nu_old, eps=eps)
        try:
            prev = newton_solve(eps, params, init=init, options=options)
        except (SolverError, ValueError) as exc:
            raise ContinuationError(
                f"continuation failed at eps = {eps:.6g}: {exc}", results) from exc
        results.append(prev)
    return results