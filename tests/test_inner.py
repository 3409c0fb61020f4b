"""Core potential problem: boundary-integral trace and its oracle."""

import math

import numpy as np
import pytest

from oracles import (assemble_cartesian, core_solve_dense, dtn_disk,
                     particular_solution)
from thinring.inner import solve_inner
from thinring.outer import assemble_full, solve_outer
from thinring.physics import NondimParams, SigmaLaw
from thinring.shape import FourierShape, GeometryError, build_grid
from thinring.solver import newton_solve

ZERO = FourierShape(np.zeros(3))
WAVY = FourierShape(np.array([0.0, 0.0, 0.05, -0.01, 0.003]))


def trace(shape, eps, n=64):
    # the core trace on an n-point boundary grid, as residual forms it
    grid = build_grid(shape, eps, n)
    return solve_inner(grid, solve_outer(grid, 0.5, core=True))


def test_base_lambda_is_minus_two():
    # the trace has no eps = 0 form; the interior oracle has
    lam = core_solve_dense(ZERO, 0.0, 16, 32)[1]
    assert np.max(np.abs(lam + 2.0)) < 1e-10


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("eps", [0.04, 0.1, 0.3])
@pytest.mark.parametrize("shape", [ZERO, WAVY], ids=["disk", "wavy"])
def test_double_layer_identities(shape, eps, n):
    # Green's representation of u = 1, x2 and rho^2, homogeneous solutions
    # of div(rho^-1 grad u) = 0 with conormal traces 0, n2 / rho and
    # 2 eps n1: S (trace) = u/2 + D u on rows 0..n/2
    grid = build_grid(shape, eps, n)
    h = n // 2
    block, d_one = assemble_full(grid, np.ones(n))
    assert np.max(np.abs(d_one + 0.5)) < 1e-14
    # the other rows by the reflection, M[n-i, n-j] = M[i, j]
    lower = n - np.arange(h + 1, n)
    single = np.vstack([block, block[lower][:, (n - np.arange(n)) % n]])
    r = 1.0 + grid.theta
    x2 = r * np.sin(grid.alpha)
    n2 = (x2 - grid.dtheta * np.cos(grid.alpha)) / grid.m
    rho = 1.0 + eps * grid.x1
    for u, conormal in ((x2, n2 / rho), (rho**2, 2.0 * eps * grid.n1)):
        d_u = assemble_full(grid, u)[1]
        lhs = (single @ conormal)[:h + 1]
        assert np.max(np.abs(lhs - 0.5 * u[:h + 1] - d_u)) < 1e-13


def test_double_layer_far_pairs_use_the_elliptic_slope():
    # at eps = 0.5 on the disk some pairs leave the split range; they take
    # F' from the AGM, and D 1 = -1/2 converges at the algebraic rate of
    # the plain trapezoid there, as S does: 2.2e-7 at n = 128, 2.8e-8 at 256
    misses = []
    for n in (128, 256):
        grid = build_grid(ZERO, 0.5, n)
        misses.append(np.max(np.abs(assemble_full(grid, np.ones(n))[1] + 0.5)))
    assert misses[1] < 5e-8 and misses[1] < misses[0] / 4


def test_flux_identity_on_circle():
    # int lam m dalpha balances the vorticity integral 4 int (1 + eps x1)
    sol = trace(ZERO, 0.05)
    assert abs(sol.diagnostics["flux_defect"]) < 1e-10
    # at eps = 0 on the interior oracle: int lam = -8 pi
    lam = core_solve_dense(ZERO, 0.0, 16, 32)[1]
    assert abs(np.sum(lam) * 2.0 * np.pi / 32 + 4.0 * np.pi) < 1e-10


def test_flux_identity_nontrivial_shape():
    shape = FourierShape(np.array([0.0, 0.0, 0.03, -0.01]))
    sol = trace(shape, 0.08, n=128)
    assert abs(sol.diagnostics["flux_defect"]) < 1e-10


def test_flux_identity_spectral_on_default_grid():
    # the M = 8 level's 64-point grid
    shape = FourierShape(np.array([0.0, 0.0, 0.03, -0.01]))
    sol = trace(shape, 0.08)
    assert abs(sol.diagnostics["flux_defect"]) < 1e-10


def test_lambda_grid_converged():
    shape = FourierShape(np.array([0.0, 0.0, 1e-3, -1e-5]))
    coarse = trace(shape, 0.04, n=32)
    default = trace(shape, 0.04)
    assert np.max(np.abs(coarse.lam_on(64) - default.lam)) < 1e-10


@pytest.mark.parametrize("eps", [float("nan"), -0.1])
def test_rejects_invalid_eps(eps):
    with pytest.raises(GeometryError):
        trace(ZERO, eps)


def test_rejects_eps_past_the_section():
    # 1 + eps x1 vanishes on the section once eps >= 1
    with pytest.raises(GeometryError, match="touches the axis"):
        trace(ZERO, 1.5)


def test_trace_needs_the_core_pass():
    grid = build_grid(ZERO, 0.04, 64)
    with pytest.raises(ValueError, match="core=True"):
        solve_inner(grid, solve_outer(grid, 0.5))
    with pytest.raises(ValueError, match="eps > 0"):
        trace(ZERO, 0.0)


def test_interior_positivity():
    # phi > 0 inside and phi = 0 on the boundary, so by Hopf's lemma its
    # conormal trace is negative everywhere
    sol = trace(ZERO, 0.05)
    assert np.max(sol.lam) < 0.0


def _case_grid(shape, eps, n_alpha):
    # the shape's smallest boundary grid 4 (M + 1), lengthened by n_alpha,
    # so that n / 2 has the parity of n_alpha / 2
    return build_grid(shape, eps, 4 * (shape.modes + 1) + n_alpha)


_SHAPES = {"zero": np.zeros(3),
           "wavy": np.array([0.0, 0.0, 0.03, -0.01, 0.004]),
           "decaying": np.r_[0.0, 0.0, 0.01 / np.arange(2, 33) ** 2]}
# the largest deformations tried
_HARD = [("a2", np.array([0.0, 0.0, 0.3]), 0.3),
         ("a8", np.r_[np.zeros(8), 0.08], 0.05),
         ("twenty", np.r_[0.0, 0.0, 0.02, np.full(20, 0.002)], 0.4)]


@pytest.mark.parametrize("n_r, n_alpha, coeffs, eps", [
    pytest.param(n_r, n_alpha, coeffs, eps, id=f"{eps}-{name}-{n_r}-{n_alpha}")
    for eps in (0.0, 0.04, 0.2) for name, coeffs in _SHAPES.items()
    for n_r, n_alpha in ((16, 32), (8, 64), (2, 4), (16, 34), (4, 6), (2, 2),
                         (16, 36), (16, 68))] + [
    pytest.param(16, 32, coeffs, eps, id=f"{eps}-{name}-16-32")
    for name, coeffs, eps in _HARD])
def test_folded_core_solve_matches_dense(n_r, n_alpha, coeffs, eps):
    # The reflection fold is exact, on grids with even and odd n_alpha / 2.
    # The interior collocation on all n_alpha angles, which the eps = 0
    # checks use, has a reflection-even trace on every grid; and for
    # eps > 0 the library's folded (n/2 + 1) core solve equals the unfolded
    # n x n solve of the same Green's representation, with S assembled from
    # Cartesian differences on all n rows.
    shape = FourierShape(coeffs)
    lam_dense = core_solve_dense(shape, eps, n_r, n_alpha)[1]
    assert np.max(np.abs(lam_dense - np.roll(lam_dense[::-1], 1))) < 1e-10
    if eps == 0.0:
        return
    grid = _case_grid(shape, eps, n_alpha)
    n, h = grid.n, grid.n // 2
    g = 0.5 * (grid.x1 * (2.0 + eps * grid.x1)) ** 2
    d_g = assemble_full(grid, g)[1]       # even, as g is
    rhs = 0.5 * g + np.concatenate([d_g, d_g[h - 1:0:-1]])
    lam_u = np.linalg.solve(assemble_cartesian(grid, np.arange(n)), rhs)
    lam_full = lam_u - 2.0 * grid.n1 * grid.x1 * (2.0 + eps * grid.x1)
    lam = solve_inner(grid, solve_outer(grid, 0.5, core=True)).lam
    assert np.max(np.abs(lam - lam_full)) < 1e-10


# one eps from each of the four cold_core benchmark strata
_POOL_EPS = (0.04, 0.02, 0.01, 0.005)


@pytest.fixture(scope="module")
def core_cases():
    # (coefficients, eps) by case id: converged rho = 0.25 states and _HARD
    params = NondimParams(rho=0.25, sigma_law=SigmaLaw(), omega=math.inf)
    cases = {f"pool-{eps}": (newton_solve(eps, params).shape.coeffs, eps)
             for eps in _POOL_EPS}
    cases.update((name, (coeffs, eps)) for name, coeffs, eps in _HARD)
    return cases


@pytest.mark.parametrize("n_alpha", [32, 36, 68])
@pytest.mark.parametrize("case", [f"pool-{eps}" for eps in _POOL_EPS]
                         + [name for name, _, _ in _HARD])
def test_core_stop_rule_reaches_the_roundoff_floor(core_cases, case, n_alpha):
    # the direct folded solve leaves lam within 2e-11 of the same solve
    # refined once on an extended-precision residual, on the benchmark's
    # converged states and the hardest deformations tried
    coeffs, eps = core_cases[case]
    grid = _case_grid(FourierShape(coeffs), eps, n_alpha)
    outer = solve_outer(grid, 0.5, core=True)
    single, rhs = outer.single, outer.core_rhs
    lam_u = np.linalg.solve(single, rhs)
    wide = np.longdouble
    defect = rhs.astype(wide) - single.astype(wide) @ lam_u.astype(wide)
    step = np.linalg.solve(single, defect.astype(float))
    assert np.max(np.abs(step)) < 2e-11
    h = grid.n // 2
    lam = solve_inner(grid, outer).lam[:h + 1]
    assert np.max(np.abs(lam - lam_u
                         + 2.0 * grid.n1[:h + 1] * grid.x1[:h + 1]
                         * (2.0 + eps * grid.x1[:h + 1]))) < 1e-13


@pytest.fixture(scope="module")
def converged_shape(core_cases):
    # the cold rho = 0.25 state at eps = 0.04, at the M = 8 it is solved at
    return FourierShape(core_cases["pool-0.04"][0][:9])


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("coeffs", [[0.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.05, -0.01, 0.003]],
                         ids=["disk", "wavy"])
def test_folded_single_layer_is_well_conditioned(coeffs, n):
    # S is a first-kind operator; over the eps range the solver accepts
    # its folded block stays at cond <= 12 n (at most 9.6 n measured)
    for eps in (1e-4, 1e-3, 0.01, 0.04, 0.1, 0.3, 0.5):
        grid = build_grid(FourierShape(np.array(coeffs)), eps, n)
        single = solve_outer(grid, 0.5, core=True).single
        assert np.linalg.cond(single) <= 12 * n, eps


def test_trace_is_stable_under_roundoff_perturbation(converged_shape):
    # 20 draws of a 1e-15 relative perturbation of the converged eps = 0.04
    # shape move the trace on the 64-point grid by at most 1e-13
    coeffs = converged_shape.coeffs
    base = trace(converged_shape, 0.04).lam
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        noise = 1.0 + 1e-15 * rng.standard_normal(coeffs.size)
        lam = trace(FourierShape(coeffs * noise), 0.04).lam
        worst = max(worst, float(np.max(np.abs(lam - base))))
    assert worst <= 1e-13


def test_lambda_eps_derivative():
    # D_eps lambda at the disk is -y1/2 = -cos(alpha)/2
    t = 1e-5
    p = core_solve_dense(ZERO, t, 16, 32)
    m = core_solve_dense(ZERO, 0.0, 16, 32)
    fd = (p[1] - m[1]) / t
    assert np.max(np.abs(fd + 0.5 * np.cos(p[0]))) < 1e-3


@pytest.mark.parametrize("l", [2, 3, 5])
def test_lambda_shape_derivative(l):
    # D_theta lambda = 2 L delta - 2 delta with L the |l| multiplier
    t = 1e-5
    c = np.zeros(l + 1)
    c[l] = t
    alpha, p = core_solve_dense(FourierShape(c), 0.0, 16, 32)[:2]
    m = core_solve_dense(FourierShape(-c), 0.0, 16, 32)[1]
    fd = (p - m) / (2.0 * t)
    expect = (2.0 * l - 2.0) * np.cos(l * alpha)
    assert np.max(np.abs(fd - expect)) < 1e-3


def test_diagnostics_repr_reads_and_caches_every_entry():
    d = trace(FourierShape(np.array([0.0, 0.0, 0.02])), 0.05).diagnostics
    assert callable(d._entries["flux_defect"])
    text = repr(d)
    assert "flux_defect" in text
    flux = d._entries["flux_defect"]
    assert isinstance(flux, float) and repr(flux) in text
    assert d["flux_defect"] is flux


def test_lam_resampling():
    sol = trace(ZERO, 0.04, n=32)
    lam64 = sol.lam_on(64)
    assert lam64.size == 64
    assert np.max(np.abs(lam64 - trace(ZERO, 0.04).lam)) < 1e-9


def test_dtn_multiplier():
    alpha = 2.0 * np.pi * np.arange(64) / 64
    for l in (0, 1, 4, 9):
        out = dtn_disk(np.cos(l * alpha))
        assert np.max(np.abs(out - l * np.cos(l * alpha))) < 1e-12


def test_particular_solution_closed_form():
    pts = np.array([[0.3, 0.1], [-0.5, 0.4], [0.0, 0.0]])
    eps = 0.07
    phi, grad = particular_solution(pts, eps)
    x1 = pts[:, 0]
    assert np.allclose(phi, -0.5 * x1**2 * (2.0 + eps * x1) ** 2, atol=1e-15)
    assert np.allclose(grad[:, 1], 0.0, atol=1e-15)
    # gradient chosen so (1/(1+eps x1)) d1 phi_p = -2 x1 (2 + eps x1) exactly
    assert np.allclose(grad[:, 0], -2.0 * x1 * (2.0 + eps * x1)
                       * (1.0 + eps * x1), atol=1e-13)
