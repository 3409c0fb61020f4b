"""Core potential problem: preconditioned GMRES solve and boundary traces."""

import math

import numpy as np
import pytest

from oracles import core_solve_dense, dtn_disk, particular_solution
from thinring import inner
from thinring.inner import solve_inner
from thinring.physics import NondimParams, SigmaLaw
from thinring.shape import FourierShape, GeometryError
from thinring.solver import newton_solve

ZERO = FourierShape(np.zeros(3))


def test_base_lambda_is_minus_two():
    # the mode-block preconditioner is the exact operator here
    sol = solve_inner(ZERO, 0.0)
    assert np.max(np.abs(sol.lam + 2.0)) < 1e-10
    assert sol.diagnostics["gmres_iterations"] == 1


def test_gmres_miss_raises_geometry_error(monkeypatch):
    monkeypatch.setattr(inner, "_GMRES_MAX_ITER", 2)
    shape = FourierShape(np.array([0.0, 0.0, 0.03, -0.01, 0.004]))
    with pytest.raises(GeometryError, match="relative residual .* after 2"):
        solve_inner(shape, 0.04)


@pytest.mark.parametrize("max_iter", [4, 12])
def test_gmres_reports_its_true_residual(max_iter):
    # a small nonsymmetric system: cut short, and run to its dimension
    rng = np.random.default_rng(7)
    a = np.eye(12) + 0.3 * rng.standard_normal((12, 12)) / np.sqrt(12)
    b = rng.standard_normal(12)
    x, iterations, res = inner._gmres(lambda v: a @ v, b, 1e-14, max_iter)
    assert iterations <= max_iter
    assert abs(res - np.linalg.norm(b - a @ x) / np.linalg.norm(b)) < 1e-13
    if max_iter == 12:
        assert res <= 1e-14
        assert np.max(np.abs(x - np.linalg.solve(a, b))) < 1e-12
    else:
        assert res > 1e-6 and iterations == 4


def test_flux_identity_on_circle():
    # int lam m dalpha balances the vorticity integral 4 int (1 + eps x1)
    for eps in (0.0, 0.05):
        sol = solve_inner(ZERO, eps)
        assert abs(sol.diagnostics["flux_defect"]) < 1e-10


def test_flux_identity_nontrivial_shape():
    # the defect stays spectral under refinement: 3.9e-13 on 28 x 64
    shape = FourierShape(np.array([0.0, 0.0, 0.03, -0.01]))
    sol = solve_inner(shape, 0.08, n_r=28, n_alpha=64)
    assert abs(sol.diagnostics["flux_defect"]) < 1e-10


def test_flux_identity_spectral_on_default_grid():
    # the polynomial extension map keeps the collocation spectrally
    # accurate: the defect is 2.1e-13 on the default 16 x 32 grid
    shape = FourierShape(np.array([0.0, 0.0, 0.03, -0.01]))
    sol = solve_inner(shape, 0.08)
    assert abs(sol.diagnostics["flux_defect"]) < 1e-10


def test_lambda_grid_converged():
    shape = FourierShape(np.array([0.0, 0.0, 1e-3, -1e-5]))
    coarse = solve_inner(shape, 0.04, n_r=8)
    default = solve_inner(shape, 0.04)
    assert np.max(np.abs(coarse.lam - default.lam)) < 1e-10


def test_extension_invertibility_rule():
    # invertible iff 1 + sum (l+1) a_l s^l cos(l alpha) > 0 on the disk
    c8 = np.zeros(9)
    c8[8] = 0.15                      # 1 - 9 a_8 < 0 at s = 1
    with pytest.raises(GeometryError, match="not invertible"):
        solve_inner(FourierShape(c8), 0.0)
    sol = solve_inner(FourierShape(np.array([0.0, 0.0, 0.3])), 0.0)
    assert np.all(np.isfinite(sol.lam))


@pytest.mark.parametrize("eps", [float("nan"), -0.1])
def test_rejects_invalid_eps(eps):
    with pytest.raises(GeometryError):
        solve_inner(ZERO, eps)


def test_rejects_eps_past_the_section():
    # 1 + eps x1 vanishes inside the unit disk once eps >= 1
    with pytest.raises(GeometryError, match="eps too large"):
        solve_inner(ZERO, 1.5)


@pytest.mark.parametrize("n_r, n_alpha, field", [
    (1, 32, "n_r"), (0, 32, "n_r"), (16, 0, "n_alpha"),
    (16, -2, "n_alpha"), (16, 3, "n_alpha")])
def test_rejects_unusable_grid(n_r, n_alpha, field):
    with pytest.raises(ValueError, match=field):
        solve_inner(ZERO, 0.0, n_r=n_r, n_alpha=n_alpha)


_SHAPES = {"zero": np.zeros(3),
           "wavy": np.array([0.0, 0.0, 0.03, -0.01, 0.004]),
           "decaying": np.r_[0.0, 0.0, 0.01 / np.arange(2, 33) ** 2]}
# the largest deformations tried: 19 to 37 GMRES iterations at 16 x 32
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
    # the half-grid GMRES solve against the full-circle kron assembly, on
    # half-grids with even and odd n_alpha / 2 and the ladder's core grids
    shape = FourierShape(coeffs)
    lam = solve_inner(shape, eps, n_r=n_r, n_alpha=n_alpha).lam
    lam_dense = core_solve_dense(shape, eps, n_r, n_alpha)[1]
    assert np.max(np.abs(lam - lam_dense)) < 1e-10


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


def _gmres_to_floor(apply, rhs, tol, max_iter, gmres=inner._gmres):
    # every one of max_iter iterations, whatever the residual
    x, iterations, _ = gmres(apply, rhs, 0.0, max_iter)
    return x, iterations, 0.0


@pytest.mark.parametrize("n_alpha", [32, 36, 68])
@pytest.mark.parametrize("case", [f"pool-{eps}" for eps in _POOL_EPS]
                         + [name for name, _, _ in _HARD])
def test_core_stop_rule_reaches_the_roundoff_floor(monkeypatch, core_cases,
                                                   case, n_alpha):
    # _GMRES_TOL leaves lam within 2e-11 of the same solve run for all
    # _GMRES_MAX_ITER iterations, on the benchmark's converged states and
    # the hardest deformations tried
    coeffs, eps = core_cases[case]
    shape = FourierShape(coeffs)
    lam = solve_inner(shape, eps, n_alpha=n_alpha).lam
    monkeypatch.setattr(inner, "_gmres", _gmres_to_floor)
    floor = solve_inner(shape, eps, n_alpha=n_alpha).lam
    assert np.max(np.abs(lam - floor)) < 2e-11


def test_interior_positivity():
    sol = solve_inner(ZERO, 0.05)
    assert sol.diagnostics["min_phi"] > 0.0


def test_lambda_eps_derivative():
    # D_eps lambda at the disk is -y1/2 = -cos(alpha)/2
    t = 1e-5
    p = solve_inner(ZERO, t)
    m = solve_inner(ZERO, 0.0)
    fd = (p.lam - m.lam) / t
    alpha = p.alpha
    assert np.max(np.abs(fd + 0.5 * np.cos(alpha))) < 1e-3


@pytest.mark.parametrize("l", [2, 3, 5])
def test_lambda_shape_derivative(l):
    # D_theta lambda = 2 L delta - 2 delta with L the |l| multiplier
    t = 1e-5
    c = np.zeros(l + 1)
    c[l] = t
    # refined grid: its discretization error over 2t stays far below 1e-3
    p = solve_inner(FourierShape(c), 0.0, n_r=32, n_alpha=64)
    m = solve_inner(FourierShape(-c), 0.0, n_r=32, n_alpha=64)
    fd = (p.lam - m.lam) / (2.0 * t)
    expect = (2.0 * l - 2.0) * np.cos(l * p.alpha)
    assert np.max(np.abs(fd - expect)) < 1e-3


def test_refinement_diagnostic_small():
    shape = FourierShape(np.array([0.0, 0.0, 0.02]))
    sol = solve_inner(shape, 0.05)
    assert sol.diagnostics["refinement_diff"] < 1e-10


def test_refinement_solve_runs_on_first_read_only(monkeypatch):
    # the refined re-solve is the one core solve past the solve itself,
    # made when refinement_diff is first read
    grids = []
    solve_core = inner._solve_core

    def counted(shape, eps, n_r, n_alpha):
        grids.append((n_r, n_alpha))
        return solve_core(shape, eps, n_r, n_alpha)

    monkeypatch.setattr(inner, "_solve_core", counted)
    d = solve_inner(FourierShape(np.array([0.0, 0.0, 0.02])), 0.05).diagnostics
    for key in ("flux_defect", "min_phi", "gmres_iterations"):
        d[key]
    assert grids == [(16, 32)]
    assert d["refinement_diff"] == d["refinement_diff"]
    assert grids == [(16, 32), (22, 64)]


def test_diagnostics_repr_reads_and_caches_every_entry(monkeypatch):
    d = solve_inner(FourierShape(np.array([0.0, 0.0, 0.02])), 0.05).diagnostics
    text = repr(d)
    assert "refinement_diff" in text

    def no_solve(*args):
        raise AssertionError("refined solve repeated after repr")

    monkeypatch.setattr(inner, "_solve_core", no_solve)
    diff = d["refinement_diff"]
    assert isinstance(diff, float) and repr(diff) in text


def test_lam_resampling():
    sol = solve_inner(ZERO, 0.0, n_alpha=32)
    lam64 = sol.lam_on(64)
    assert lam64.size == 64
    assert np.max(np.abs(lam64 + 2.0)) < 1e-9


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