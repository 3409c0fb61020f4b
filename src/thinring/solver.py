"""Newton iteration on the jump condition, with continuation in eps.

A steady ring section is a root of the pointwise jump residual

    rho lambda^2 - mu^2 + eps sigma(eps) h - nu    on the section boundary,

where lambda is the rescaled inner normal velocity, mu the outer sheet
strength at ring speed w, and h the rescaled curvature trace.  The residual
is projected onto cosine modes 0..M.  Newton's unknowns are
x = (w, a_2, ..., a_M), the coefficient slots 1..M with slot 1 holding w,
against the residual rows r_1..r_M in mode order; (a_0, a_1) are slaved to
the area and moment constraints inside every evaluation.  Mode 1 pairs with
w because the shape Jacobian degenerates there.  nu enters only as an
additive constant, so it moves r_0 alone: it is not a Newton unknown but
the closed form (1 + eps sigma) r_0 of the residual evaluated at nu = 0.

The residual is rescaled by 1/(1 + eps sigma(eps)), exactly 1 at sigma = 0:
the root set is unchanged and the Jacobian diagonal stays O(1) uniformly in
the large-tension regime eps sigma >> 1.

The iteration is quasi-Newton.  Near a ring the linearized operator is
invertible and moves smoothly with eps, so one matrix, kept current by
good-Broyden rank-one updates, serves a whole continuation sweep.  Every
fresh matrix is the paper's linearized symbol, diagonal in (w, a_2..a_M)
with entries (eps sigma (l^2 - 1) - k0 (l - 1)) / (1 + eps sigma),
k0 = degeneracy_k0(rho), whose first cols columns are replaced by forward
differences, one residual each: cols = 1, the w column the symbol lacks,
at every margin, and cols = M after a step that fails to contract.  Each
iteration decides once, after it forms its step, an estimate of the
iterate's error (Deuflhard 2004, Newton Methods for Nonlinear Problems,
ch. 2): converged, out of iterations, stagnated, or step on.  A converged
state passes its matrix on, and its shape mode l scaled by
(eps / eps_prev)^l, the order of mode l in a thin ring (Fraenkel 1970).

The truncation M is chosen per solve by a two-grid check, truncation by
coefficient decay (Boyd 2001, Chebyshev and Fourier Spectral Methods,
ch. 2; Aurentz and Trefethen 2017, ACM TOMS 43).  Newton converges at
M = 8 on grids scaled to M; the zero-padded state then gets one residual
at 2M on grids twice as fine, and is accepted when that residual is below
the tolerance.  Otherwise M doubles, up to the cap SolverOptions.modes,
and the Newton matrix climbs with it, padded by the symbol diagonal.  Thin
sections are accepted at M = 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .inner import solve_inner
from .outer import solve_outer
from .physics import (NondimParams, asymptotic_wgn, degeneracy_k0,
                      degeneracy_margin, s_from_w)
from .shape import (FourierShape, GeometryError, build_grid, cosine_coeffs,
                    project_constraints, sobolev_norm)

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

# a step that leaves max |r| above this factor times the larger of its last
# two values (and above tol) rebuilds the Jacobian by forward differences;
# 0.5 rebuilt twice in some 8-state tension sweeps where 0.7 to 1.0 rebuilt
# once, and below 1 a useless carried matrix is caught after one step
_CONTRACTION = 0.7

# degeneracy margin below which a solve carries a warning and a matrix
# padded with symbol entries, some close to 0, is not carried up the ladder
_DEGEN_MARGIN = 0.05

# the first level of newton_solve's truncation ladder
_BASE_MODES = 8


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

    modes is the cap on the cosine truncation M that newton_solve climbs
    to and n_grid the boundary quadrature size at that cap, which the core
    trace shares.  Every level, the cap included, scales n_grid by
    M / modes (see _level).  residual evaluates at exactly the grid it is
    given.  The Newton tolerance applies to the infinity norm of the
    projected residual.  Its attainable floor on a converged thin section
    at the defaults is roundoff: 1.3e-14 at eps = 0.04 to 1.8e-16 at
    eps = 0.001 when rho = 0, and 1e-14 or below at rho = 0.25, where cold
    solves at tol = 1e-13 converge.  inner_nr and inner_nalpha are still
    validated but no longer affect any solve: the core lives on the
    boundary grid.  Integer fields and tol reject bool.
    """

    n_grid: int = 256
    modes: int = 32
    tol: float = 1e-10
    inner_nr: int = 16
    inner_nalpha: int = 32

    def __post_init__(self):
        for name in ("n_grid", "modes", "inner_nr", "inner_nalpha"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{name} must be an integer")
        if self.modes < 1:
            raise ValueError("modes must be >= 1")
        if self.n_grid < 4 * (self.modes + 1):
            raise ValueError("n_grid must resolve the mode truncation (>= 4(M+1))")
        if self.n_grid % 2:
            raise ValueError("n_grid must be even")
        if (isinstance(self.tol, (bool, np.bool_))
                or not 0.0 < self.tol < math.inf):
            raise ValueError("tol must be a positive finite number")
        if self.inner_nr < 2:
            raise ValueError("inner_nr must be >= 2")
        if self.inner_nalpha < 2 or self.inner_nalpha % 2:
            raise ValueError("inner_nalpha must be even and >= 2")


@dataclass(frozen=True)
class ResidualVector:
    """Cosine projections of the jump residual and what a solution reports.

    r[l] is the mode-l projection.  Newton pairs r_1..r_M with its unknowns
    (w, a_2..a_M); r_0 evaluated at nu = 0, times 1 + eps sigma, is the nu
    that zeroes r_0.  gamma, the boundary samples mu and lam, and the
    constrained shape they were formed on are carried into the converged
    state.
    """

    r: np.ndarray
    gamma: float
    mu: np.ndarray
    lam: np.ndarray
    shape: FourierShape


@dataclass(frozen=True)
class SolutionState:
    """Converged steady section with its scalar data and diagnostics.

    A state solved at M below the cap is reported from its check
    evaluation at min(2M, cap): shape is the constrained shape zero-padded
    to that size, and gamma, mu and lam are that evaluation's, on its grid
    (at rho = 0, where lam does not enter the residual, it is one core
    solve on the boundary grid of the level solved at, resampled onto that
    grid).  nu is its mode-0 projection at nu = 0, times 1 + eps sigma.  A
    state solved at the cap is reported from its last residual.  jacobian is
    the M x M Newton matrix in (w, a_2..a_M) at the solved M, the symbol
    with forward-difference columns, Broyden-updated, that a warm start
    from this state reuses; it is not reported.  diagnostics keys:
    residual_norm (max |r_1..r_2M| of the check, or max |r_1..r_M| at the
    cap), modes (the M it was solved at), newton_error (max |dx| of the
    step that ended the accepting level, the error estimate of the iterate
    it was formed at; never nan), iterations (Newton steps applied, a
    level's last step below the cap included), fd_columns (the residuals
    spent on forward differences, cols for each fresh matrix: 1 without a
    matrix, M after a step that fails to contract, 0 for a carried matrix
    that keeps contracting), jacobian_cond (of jacobian, to 3 significant
    digits; never nan), margin, worst_mode,
    theta_sup, theta_h5, window_theta (||theta||_{H^5}/eps^0.75),
    window_speed (|w| log(1/eps) (eps^2 + ||theta||_{H^5}^2)), warnings
    (tuple of strings).  The area and moment constraints hold to 1e-12 by
    construction (project_constraints raises otherwise).
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
    jacobian: np.ndarray | None = None


def residual(shape: FourierShape, eps: float, w: float, nu: float,
             params: NondimParams, options: SolverOptions = SolverOptions()
             ) -> ResidualVector:
    """Projected jump residual at a trial (shape, w, nu).

    (a_0, a_1) of the shape are replaced by their constrained values before
    anything is evaluated, and the returned shape is that constrained one;
    no constraint defects are returned (they are at the projection
    tolerance by construction).  The core trace shares the outer's grid
    and single layer; it is skipped when rho = 0 (lambda enters multiplied
    by rho), and the assembly then forms no double layer.  The pointwise
    residual is scaled by
    1/(1 + eps sigma), which shifts r_0 under nu -> nu + c by
    -c/(1 + eps sigma) and leaves higher modes untouched.
    """
    shape = project_constraints(shape)
    grid = build_grid(shape, eps, options.n_grid)
    core = params.rho > 0.0
    out = solve_outer(grid, w, core)
    lam = solve_inner(grid, out).lam if core else np.zeros(options.n_grid)
    sig = params.sigma_law(eps)
    point = ((params.rho * lam**2 - out.mu**2 + eps * sig * grid.h - nu)
             / (1.0 + eps * sig))
    if not np.all(np.isfinite(point)):
        raise SolverError("non-finite jump residual (inner/outer breakdown)")
    r = cosine_coeffs(point, options.modes)
    return ResidualVector(r=r, gamma=out.gamma, mu=out.mu, lam=lam,
                          shape=shape)


def jacobian_fd(fun, x: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian, one residual evaluation per column.

    Column i uses increment _FD_STEP (1 + |x_i|).  Columns are independent
    evaluations; they are run sequentially so BLAS keeps its threads.
    """
    n = x.size
    jac = np.empty((f0.size, n))
    for i in range(n):
        h = _FD_STEP * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += h
        jac[:, i] = (fun(xp) - f0) / h
    return jac


def _symbol(modes: int, eps: float, params: NondimParams) -> np.ndarray:
    """Diagonal of the linearized symbol in the rows r_1..r_M, M = modes.

    (eps sigma (l^2 - 1) - k0 (l - 1)) / (1 + eps sigma), l = 1..M; it is 0
    at l = 1, where the w column stands in for the shape mode.
    """
    l = np.arange(1.0, modes + 1.0)
    es = params.sigma_law.eps_sigma(eps)
    return ((es * (l**2 - 1.0) - degeneracy_k0(params.rho) * (l - 1.0))
            / (1.0 + es))


def _level(options: SolverOptions, modes: int) -> SolverOptions:
    """Grids of the ladder level that solves at M = modes.

    One rule for every level, the cap M = options.modes included: n_grid
    scaled by M / options.modes, rounded up to even and at least 4 (M + 1),
    which resolves M modes without aliasing.
    """
    n_grid = 2 * -(-options.n_grid * modes // (2 * options.modes))
    return replace(options, n_grid=max(n_grid, 4 * (modes + 1)), modes=modes)


def _resolve_omega(params: NondimParams) -> float:
    return (params.omega if params.omega is not None
            else params.sigma_law.omega)


def newton_solve(eps: float, params: NondimParams,
                 init: SolutionState | None = None,
                 options: SolverOptions = SolverOptions()) -> SolutionState:
    """Solve the steady jump condition at fixed eps.

    The truncation M climbs a ladder of levels within the call.  Newton
    converges at M = min(8, options.modes) on the grids of _level; the
    zero-padded state then gets one residual at the next level,
    min(2M, options.modes), on its grids, and is accepted and reported from
    it (gamma, nu, mu, lam, padded shape) when its max |r_1..r_2M| is at
    most options.tol.  Otherwise Newton carries on at the finer level, the
    check its first residual.  The cap level, options.modes, takes no
    check.

    At each level the unknowns are (w, a_2..a_M) against residual modes
    r_1..r_M.  The M x M matrix is init.jacobian, or the matrix of the
    level below, carried to M: its leading block when M is smaller, padded
    with the symbol diagonal for the added modes when M is larger (near
    degeneracy, margin below _DEGEN_MARGIN, a padded matrix is dropped).
    Every fresh matrix is one expression: the symbol diagonal, its first
    cols columns replaced by one jacobian_fd call on the level's residual,
    and fd_columns counts cols.  cols = 1 (the w column) without a matrix,
    at every margin (an all-difference start near degeneracy reached other
    roots), and cols = M whenever a step leaves max |r_1..r_M| above
    options.tol and above _CONTRACTION times the larger of its last two
    values at this level (its last value after the level's first step).
    Otherwise the matrix gets a good-Broyden update from each step.

    Each iteration forms its step dx, then decides, in this order.
    Converged: max |r_1..r_M| <= options.tol and max |dx| <= options.tol
    (1 + max |x|), which bounds the iterate's error (d r_1 / d w is only
    -0.003 to -0.025, so a residual under tol alone can leave w far off);
    the step's update is not kept (on a sweep it spoiled the w column a
    warm start carries), and the step is applied below the cap, before the
    check.  Out of iterations: _MAX_ITER steps at this level.  Stagnated:
    residual above tol, cols = M and max |dx| <= 1e-14 (1 + max |x|).
    Otherwise the step is applied, the matrix kept, the residual evaluated.
    nu is (1 + eps sigma) r_0 at nu = 0, which zeroes r_0.  Without an
    initializer the zero shape and the leading-order w are used, inside the
    Newton basin for eps <= 0.05.  A warm start reads init.w, init.shape,
    init.jacobian and init.eps, not init.nu: w starts at init.w shifted by
    the change of its asymptotic value W, formed as (init.w + W(eps)) -
    W(init.eps), and shape mode l = 2..M at q^l times init's (truncated or
    zero-padded), q = min(1, eps / init.eps).

    Raises SolverError when a level runs out of iterations (the message
    names the residual, the next step and its bound) or stagnates.  A
    degeneracy warning is attached when the mode margin at (rho, omega) is
    below 0.05 (_DEGEN_MARGIN) or the Jacobian condition number exceeds
    1e12.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    omega = _resolve_omega(params)
    margin, worst = degeneracy_margin(params.rho, omega)
    degen_note = (f" (degeneracy margin {margin:.3e} at mode {worst})"
                  if margin < _DEGEN_MARGIN else "")

    def carry(jac: np.ndarray | None, modes: int) -> np.ndarray | None:
        # near degeneracy a padded symbol entry may be close to 0
        if jac is None or (jac.shape[0] < modes and margin < _DEGEN_MARGIN):
            return None
        out = np.diag(_symbol(modes, eps, params))
        k = min(modes, jac.shape[0])
        out[:k, :k] = jac[:k, :k]
        return out

    level = _level(options, min(_BASE_MODES, options.modes))
    x = np.zeros(level.modes)
    x[0] = asymptotic_wgn(eps, params.rho, params.sigma_law)[0]
    jac = None
    if init is not None:
        w_old = asymptotic_wgn(init.eps, params.rho, params.sigma_law)[0]
        high = init.shape.coeffs[2:level.modes + 1]
        # mode l of a thin ring scales as eps^l; the factor never amplifies
        q = min(1.0, eps / init.eps)
        x[0] = init.w + x[0] - w_old
        x[1:1 + high.size] = high * q ** np.arange(2.0, 2.0 + high.size)
        jac = carry(init.jacobian, level.modes)

    def evaluate(xv: np.ndarray, grids: SolverOptions) -> ResidualVector:
        try:
            return residual(FourierShape(np.r_[0.0, 0.0, xv[1:]]), eps, xv[0],
                            0.0, params, grids)
        except GeometryError as exc:
            raise SolverError(
                f"iterate left the admissible shape region: {exc}{degen_note}"
            ) from exc

    fd_columns = 0
    iterations = 0
    dx = None
    norms: list[float] = []       # max |r| before each step at this level
    rv = evaluate(x, level)
    while True:
        f = rv.r[1:]
        rnorm = float(np.max(np.abs(f)))
        rebuild = dx is not None and rnorm > max(
            options.tol, _CONTRACTION * max(norms[-2:]))
        cols, mat = 0, jac
        if jac is None or rebuild:
            # w alone without a matrix, every column after a step that
            # failed to contract; a fresh matrix is kept at once
            cols = level.modes if rebuild else 1
            jac = mat = np.diag(_symbol(level.modes, eps, params))
            mat[:, :cols] = jacobian_fd(
                lambda v: evaluate(np.r_[v, x[cols:]], level).r[1:],
                x[:cols], f)
            fd_columns += cols
        elif dx is not None:
            # good Broyden: the secant condition mat dx = f - f_old
            mat = jac + np.outer(f - f_old - jac @ dx, dx / (dx @ dx))
        try:
            dx = np.linalg.solve(mat, -f)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular Newton Jacobian" + degen_note,
                              rnorm) from exc
        if not np.all(np.isfinite(dx)):
            raise SolverError("non-finite Newton step" + degen_note, rnorm)
        # the step this iterate would take estimates its error; the level
        # decides here: converged, out of iterations, stagnated, or step on
        step = float(np.max(np.abs(dx)))
        scale = 1.0 + float(np.max(np.abs(x)))
        if rnorm <= options.tol and step <= options.tol * scale:
            # the cap reports its last residual, a lower level checks the
            # stepped state on the next level's grids
            modes, newton_error = level.modes, step
            if modes == options.modes:
                break
            level = _level(options, min(2 * modes, options.modes))
            x = np.r_[x + dx, np.zeros(level.modes - modes)]
            iterations += 1
            rv = evaluate(x, level)
            check = float(np.max(np.abs(rv.r[1:])))
            if check <= options.tol:
                break
            jac = carry(jac, level.modes)
            dx, norms = None, []
            continue
        if len(norms) == _MAX_ITER:
            raise SolverError(
                f"no convergence in {_MAX_ITER} iterations at M = "
                f"{level.modes} (residual {rnorm:.3e}, next step {step:.3e}"
                f" above its bound {options.tol * scale:.3e})" + degen_note,
                rnorm)
        # only a tiny step from an all-FD matrix is stagnation; one from a
        # symbol or reused matrix fails to contract, rebuilds
        if (rnorm > options.tol and cols == level.modes
                and step <= 1e-14 * scale):
            raise SolverError(
                f"Newton stagnated at residual {rnorm:.3e}" + degen_note, rnorm)
        # an update at a residual under tol is roundoff over a tiny step:
        # only a step that does not converge keeps its matrix
        x, jac, f_old = x + dx, mat, f
        iterations += 1
        norms.append(rnorm)
        rv = evaluate(x, level)

    # every accepted level formed a step, which leaves a matrix in jac
    cond = float(f"{np.linalg.cond(jac):.3g}")

    warnings_list: list[str] = []
    if margin < _DEGEN_MARGIN:
        warnings_list.append(
            f"degeneracy margin {margin:.3e} at mode {worst}: linearized "
            "jump condition nearly non-invertible")
    if cond > 1e12:
        warnings_list.append(f"Jacobian condition {cond:.3e} exceeds 1e12")

    shape = rv.shape
    w = float(x[0])
    nu = (1.0 + params.sigma_law.eps_sigma(eps)) * float(rv.r[0])
    lam = rv.lam
    if params.rho == 0.0:
        # reported even when it does not enter the residual, on the grid of
        # the level solved at (the shape's modes above M are zero padding),
        # resampled onto the reported grid; a failure here must not void
        # the converged state
        try:
            grid = build_grid(FourierShape(shape.coeffs[:modes + 1]), eps,
                              _level(options, modes).n_grid)
            lam = solve_inner(grid, solve_outer(grid, w, core=True)).lam_on(
                level.n_grid)
        except GeometryError as exc:
            warnings_list.append(f"inner velocity report unavailable: {exc}")
    th5 = sobolev_norm(shape, 5)
    diagnostics = {
        "residual_norm": float(np.max(np.abs(rv.r[1:]))),
        "modes": modes,
        "newton_error": newton_error,
        "iterations": iterations,
        "fd_columns": fd_columns,
        "jacobian_cond": cond,
        "margin": margin,
        "worst_mode": worst,
        "theta_sup": shape.sup_norm(),
        "theta_h5": th5,
        "window_theta": th5 / eps**_WINDOW_ELL,
        "window_speed": abs(w) * math.log(1.0 / eps) * (eps**2 + th5**2),
        "warnings": tuple(warnings_list),
    }
    return SolutionState(shape=shape, w=w, gamma=rv.gamma, nu=nu,
                         s=s_from_w(eps, w), mu=rv.mu, lam=lam, eps=eps,
                         diagnostics=diagnostics, jacobian=jac)


def continuation(eps_grid, params: NondimParams,
                 options: SolverOptions = SolverOptions()) -> list[SolutionState]:
    """Warm-started solves over a descending eps grid.

    Each solve is newton_solve with init set to the previous state, which
    shifts w by the change of its asymptotic value, scales shape mode l by
    (eps / eps_prev)^l and carries the Newton matrix over.  The first
    failure aborts; the exception carries the states already solved.
    """
    eps_grid = [float(e) for e in eps_grid]
    if not all(0.0 < e < math.inf for e in eps_grid):
        raise ValueError("eps grid must be positive and finite")
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps grid must be strictly descending")
    results: list[SolutionState] = []
    prev: SolutionState | None = None
    for eps in eps_grid:
        try:
            prev = newton_solve(eps, params, init=prev, options=options)
        except (SolverError, ValueError) as exc:
            raise ContinuationError(
                f"continuation failed at eps = {eps:.6g}: {exc}", results) from exc
        results.append(prev)
    return results