"""Newton solver: residual bookkeeping, convergence, continuation."""

import ast
import importlib
import math
import pkgutil
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import core_solve_dense
import thinring
from thinring.inner import solve_inner
from thinring.outer import solve_outer
from thinring.physics import NondimParams, SigmaLaw, asymptotic_wgn, s_from_w
from thinring.shape import (FourierShape, GeometryError, area, build_grid,
                            moment_x1, resample_trig)
from thinring.solver import (ContinuationError, SolverError, SolverOptions,
                             continuation, jacobian_fd, newton_solve,
                             residual)

OPTS8 = SolverOptions(n_grid=128, modes=8)
P_CLASSICAL = NondimParams(rho=0.0, sigma_law=SigmaLaw(), omega=math.inf)
P_TENSION = NondimParams(rho=0.0, sigma_law=SigmaLaw(kind="c_over_eps", c=4.0),
                         omega=0.25)
P_CORE = NondimParams(rho=0.25, sigma_law=SigmaLaw(), omega=math.inf)
# K = omega / (2 pi^2) = 3.06 under sigma = 1/(omega eps): margin 0.03
_OMEGA_NEAR = 3.06 * 2.0 * math.pi**2
P_NEAR_DEGENERATE = NondimParams(
    rho=0.0, omega=_OMEGA_NEAR,
    sigma_law=SigmaLaw(kind="c_over_eps", c=1.0 / _OMEGA_NEAR))


def zero_shape(modes=8):
    return FourierShape(np.zeros(modes + 1))


@pytest.fixture(scope="module")
def solved_classical():
    return newton_solve(0.02, P_CLASSICAL, options=OPTS8)


@pytest.fixture(scope="module")
def solved_tension():
    return newton_solve(0.02, P_TENSION, options=OPTS8)


# ------------------------------------------------------- residual bookkeeping

def test_nu_shift_moves_only_mode_zero():
    w, _, nu = asymptotic_wgn(0.02, 0.0, SigmaLaw())
    base = residual(zero_shape(), 0.02, w, nu, P_CLASSICAL, OPTS8)
    shifted = residual(zero_shape(), 0.02, w, nu + 0.37, P_CLASSICAL, OPTS8)
    assert abs(shifted.r[0] - (base.r[0] - 0.37)) < 1e-13
    assert np.max(np.abs(shifted.r[1:] - base.r[1:])) < 1e-13


def test_nu_shift_is_rescaled_under_tension():
    eps = 0.02
    w, _, nu = asymptotic_wgn(eps, 0.0, P_TENSION.sigma_law)
    base = residual(zero_shape(), eps, w, nu, P_TENSION, OPTS8)
    shifted = residual(zero_shape(), eps, w, nu + 0.37, P_TENSION, OPTS8)
    scale = 1.0 + eps * P_TENSION.sigma_law(eps)
    assert abs(shifted.r[0] - (base.r[0] - 0.37 / scale)) < 1e-13
    assert np.max(np.abs(shifted.r[1:] - base.r[1:])) < 1e-13


def test_residual_slaves_low_modes_to_constraints():
    # junk (a_0, a_1) must be replaced before evaluation
    shape = FourierShape(np.r_[0.05, -0.03, 0.01, np.zeros(6)])
    rv = residual(shape, 0.02, 0.5, 0.0, P_CLASSICAL, OPTS8)
    assert rv.shape.coeffs[0] != 0.05
    assert abs(area(rv.shape) - math.pi) < 1e-10
    assert abs(moment_x1(rv.shape)) < 1e-10
    assert rv.shape.coeffs[2] == 0.01


def test_residual_rejects_nonfinite_speed():
    with pytest.raises(SolverError, match="non-finite"):
        residual(zero_shape(), 0.02, float("nan"), 0.0, P_CLASSICAL, OPTS8)


def test_options_require_resolved_modes():
    with pytest.raises(ValueError, match="4"):
        SolverOptions(n_grid=64, modes=32)


@pytest.mark.parametrize("inner_nr, inner_nalpha, field", [
    (1, 32, "inner_nr"), (0, 32, "inner_nr"), (16, 31, "inner_nalpha"),
    (16, 0, "inner_nalpha"), (16, 1, "inner_nalpha"), (16, -2, "inner_nalpha"),
    (16.0, 32, "inner_nr"), (16, 32.0, "inner_nalpha"),
    (True, 32, "inner_nr"), (16, True, "inner_nalpha"),
])
def test_options_reject_unusable_core_grid(inner_nr, inner_nalpha, field):
    with pytest.raises(ValueError, match=field):
        SolverOptions(inner_nr=inner_nr, inner_nalpha=inner_nalpha)


@pytest.mark.parametrize("field, value", [("n_grid", 128.0), ("modes", 8.0),
                                          ("modes", True), ("tol", True)])
def test_options_require_integer_sizes(field, value):
    # bool is an int subclass; modes=True must not make a one-mode option set
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{"n_grid": 128, "modes": 8, field: value})
    opts = SolverOptions(n_grid=np.int64(128), modes=np.int32(8),
                         inner_nr=np.int64(16), inner_nalpha=np.int16(32))
    assert opts.n_grid == 128 and opts.inner_nalpha == 32


def test_smallest_core_grid_solves():
    for nalpha in (2, 4):
        opts = SolverOptions(n_grid=128, modes=8, inner_nr=2, inner_nalpha=nalpha)
        state = newton_solve(0.02, P_CLASSICAL, options=opts)
        assert state.lam.size == 128 and np.all(np.isfinite(state.lam))


@pytest.mark.parametrize("params", [P_CLASSICAL, P_CORE],
                         ids=["classical", "core"])
def test_outer_grid_coarser_than_core_grid_solves(params):
    # the default 32-angle core trace is sampled down onto 20 outer angles
    opts = SolverOptions(n_grid=20, modes=4)
    st = newton_solve(0.04, params, options=opts)
    assert st.lam.size == 20 and np.all(np.isfinite(st.lam))
    assert st.diagnostics["residual_norm"] <= opts.tol


# ------------------------------------------------------------ jacobian pieces

def test_jacobian_fd_exact_on_affine_maps():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    x = rng.normal(size=4)

    def fun(v):
        return a @ v + b

    jac = jacobian_fd(fun, x, fun(x))
    assert np.max(np.abs(jac - a)) < 1e-7


def test_jacobian_diagonal_matches_symbol_without_tension():
    # at theta = 0 the mode-l diagonal is (8 rho + 1/(2 pi^2))(1 - l) + O(eps);
    # the full (a_2..a_M, w, nu) system against rows (r_2..r_M, r_1, r_0)
    eps, m = 0.01, 8
    params = NondimParams(rho=1.0, sigma_law=SigmaLaw(), omega=math.inf)
    w0, _, nu0 = asymptotic_wgn(eps, 1.0, SigmaLaw())
    x = np.concatenate([np.zeros(m - 1), [w0, nu0]])

    def fun(v):
        c = np.zeros(m + 1)
        c[2:] = v[:-2]
        return residual(FourierShape(c), eps, v[-2], v[-1], params,
                        OPTS8).r[[*range(2, m + 1), 1, 0]]

    jac = jacobian_fd(fun, x, fun(x))
    k0 = 8.0 + 1.0 / (2.0 * np.pi**2)
    for row, l in enumerate(range(2, 7)):
        expect = k0 * (1.0 - l)
        assert abs(jac[row, row] / expect - 1.0) < 0.2


# ------------------------------------------------------------- newton solves

def test_newton_converges_classical(solved_classical):
    st = solved_classical
    assert st.diagnostics["residual_norm"] <= OPTS8.tol
    assert st.diagnostics["iterations"] <= 5
    assert st.diagnostics["warnings"] == ()
    w_asym, _, _ = asymptotic_wgn(0.02, 0.0, SigmaLaw())
    assert abs(st.w - w_asym) < 0.02
    assert abs(st.s - s_from_w(st.eps, st.w)) < 1e-15
    assert math.isinf(st.diagnostics["margin"])


def test_newton_converges_under_large_tension(solved_tension):
    st = solved_tension
    assert st.diagnostics["residual_norm"] <= OPTS8.tol
    w_asym, _, nu_asym = asymptotic_wgn(0.02, 0.0, P_TENSION.sigma_law)
    assert abs(st.w - w_asym) < 0.05 * abs(w_asym)
    assert abs(st.nu - nu_asym) < 0.05 * abs(nu_asym)


@pytest.mark.parametrize("params", [P_CLASSICAL, P_TENSION, P_CORE],
                         ids=["classical", "tension", "core"])
def test_nu_zeroes_mode_zero(params):
    # nu is the mode-0 projection in closed form, not a Newton iterate;
    # inner_nalpha is validated but inert, the core shares the boundary grid
    st = newton_solve(0.02, params, options=OPTS8)
    rv = residual(st.shape, 0.02, st.w, st.nu, params,
                  replace(OPTS8, inner_nalpha=36))
    assert abs(rv.r[0]) < 1e-14


def test_warm_start_ignores_initial_nu(solved_classical):
    st = solved_classical
    again = newton_solve(0.02, P_CLASSICAL, options=OPTS8,
                         init=replace(st, nu=float("nan")))
    assert again.diagnostics["iterations"] == 0
    for name in ("w", "gamma", "nu"):
        assert abs(getattr(again, name) - getattr(st, name)) < 1e-14, name
    assert np.max(np.abs(again.shape.coeffs - st.shape.coeffs)) < 1e-14


def test_converged_warm_start_evaluates_one_residual(solved_classical,
                                                     monkeypatch):
    # the carried matrix forms the stopping step, which is not applied at
    # the cap, and is passed on with its condition
    calls = []
    real = residual
    monkeypatch.setattr("thinring.solver.residual",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    again = newton_solve(0.02, P_CLASSICAL, options=OPTS8,
                         init=solved_classical)
    assert again.diagnostics["iterations"] == 0
    assert len(calls) == 1
    assert (again.diagnostics["jacobian_cond"]
            == solved_classical.diagnostics["jacobian_cond"])


def test_newton_converges_on_the_last_allowed_step(monkeypatch):
    # the cold classical solve at eps = 0.02 takes exactly 3 steps, the
    # symbol start and two Broyden updates: its residual is then 3.6e-12,
    # and the step it would take, 1.3e-10, is below its bound tol (1 +
    # max |x|) = 1.4e-10, so the cap level stops without taking it
    monkeypatch.setattr("thinring.solver._MAX_ITER", 3)
    st = newton_solve(0.02, P_CLASSICAL, options=OPTS8)
    d = st.diagnostics
    assert d["iterations"] == 3
    assert d["residual_norm"] <= OPTS8.tol
    assert d["newton_error"] <= OPTS8.tol * (1.0 + abs(st.w))
    # at tol = 1e-9 the residual after 2 steps, 8.6e-10, is below tol, but
    # the step it would take is not below its bound; the message names it
    monkeypatch.setattr("thinring.solver._MAX_ITER", 2)
    loose = replace(OPTS8, tol=1e-9)
    with pytest.raises(SolverError, match=r"no convergence in 2 iterations "
                       r"at M = 8 \(residual .*, next step .* above its "
                       r"bound .*\)") as exc_info:
        newton_solve(0.02, P_CLASSICAL, options=loose)
    assert exc_info.value.residual_norm <= loose.tol


def test_newton_out_of_iterations_names_residual_and_step(monkeypatch):
    # one step from the symbol start leaves the residual at 7.2e-7, above
    # tol; the cap raises once, after the level forms its next step
    monkeypatch.setattr("thinring.solver._MAX_ITER", 1)
    with pytest.raises(SolverError, match=r"no convergence in 1 iterations "
                       r"at M = 8 \(residual .*, next step .* above its "
                       r"bound .*\)") as exc_info:
        newton_solve(0.02, P_CLASSICAL, options=OPTS8)
    assert exc_info.value.residual_norm > OPTS8.tol


def test_newton_stagnates_on_a_tiny_all_fd_step(monkeypatch):
    # with _CONTRACTION = 0 every step after the first rebuilds all M
    # columns by forward differences; tol = 1e-17 is below the residual's
    # roundoff floor, about 2e-16 here, so the solve ends on a step from an
    # all-FD matrix under 1e-14 (1 + max |x|)
    monkeypatch.setattr("thinring.solver._CONTRACTION", 0.0)
    with pytest.raises(SolverError, match="Newton stagnated") as exc_info:
        newton_solve(0.02, P_CLASSICAL, options=replace(OPTS8, tol=1e-17))
    assert exc_info.value.residual_norm > 1e-17


def test_newton_error_is_the_stopping_step():
    # the step the accepting level would take estimates the error of the
    # state it stops at; at the cap the state is reported without it
    st = newton_solve(0.02, P_CLASSICAL, options=OPTS8)
    tight = newton_solve(0.02, P_CLASSICAL,
                         options=replace(OPTS8, tol=1e-13))
    err = st.diagnostics["newton_error"]
    assert 0.0 < err <= OPTS8.tol * (1.0 + abs(st.w))
    assert 0.5 * err < abs(st.w - tight.w) < 2.0 * err
    # a level whose first residual is under tol with no matrix builds the
    # symbol start and forms its step like any other
    again = newton_solve(0.02, P_CLASSICAL, options=OPTS8,
                         init=replace(st, jacobian=None))
    d = again.diagnostics
    assert d["iterations"] == 0 and d["fd_columns"] == 1
    assert 0.0 < d["newton_error"] <= OPTS8.tol * (1.0 + abs(again.w))


def test_warm_start_scales_modes_by_the_thin_ring_law(monkeypatch):
    # going down in eps mode l starts at (eps / init.eps)^l times its value;
    # going up it starts unscaled
    prev = {e: newton_solve(e, P_TENSION, options=OPTS8) for e in (0.04, 0.02)}
    first = []
    real = residual
    monkeypatch.setattr("thinring.solver.residual",
                        lambda *a: first.append(a[0].coeffs) or real(*a))
    for eps, init, q in ((0.02, prev[0.04], 0.5), (0.04, prev[0.02], 1.0)):
        first.clear()
        newton_solve(eps, P_TENSION, init=init, options=OPTS8)
        l = np.arange(2, 9)
        assert np.array_equal(first[0][2:], init.shape.coeffs[2:9] * q**l)
    # against the unscaled start, its first residual is over 10x smaller
    w0 = (prev[0.04].w + asymptotic_wgn(0.02, 0.0, P_TENSION.sigma_law)[0]
          - asymptotic_wgn(0.04, 0.0, P_TENSION.sigma_law)[0])
    shapes = {q: FourierShape(np.r_[0.0, 0.0, prev[0.04].shape.coeffs[2:9]
                                    * q ** np.arange(2, 9)])
              for q in (1.0, 0.5)}
    r = {q: np.max(np.abs(real(sh, 0.02, w0, 0.0, P_TENSION, OPTS8).r[1:]))
         for q, sh in shapes.items()}
    assert r[0.5] < 0.1 * r[1.0]


@pytest.mark.parametrize("params", [P_CLASSICAL, P_TENSION],
                         ids=["classical", "tension"])
def test_warm_start_shifts_w_like_continuation(params):
    # a direct warm start from another eps is the continuation step
    prev = continuation([0.04], params, OPTS8)[0]
    direct = newton_solve(0.02, params, init=prev, options=OPTS8)
    swept = continuation([0.04, 0.02], params, OPTS8)[1]
    for name in ("w", "gamma", "nu"):
        assert getattr(direct, name) == getattr(swept, name), name
    assert (direct.diagnostics["iterations"]
            == swept.diagnostics["iterations"])


def test_jacobian_cond_keeps_three_digits(solved_classical, solved_tension):
    # the forward-difference Jacobian holds about 7 digits; report 3
    for st in (solved_classical, solved_tension):
        cond = st.diagnostics["jacobian_cond"]
        assert cond > 1.0 and cond == float(f"{cond:.3g}")


def test_solution_density_is_even(solved_classical):
    mu = solved_classical.mu
    n = mu.size
    j = np.arange(1, n)
    assert np.max(np.abs(mu[j] - mu[n - j])) < 1e-11


def test_reported_inner_velocity_without_core_vorticity(solved_classical):
    # rho = 0 removes lambda from the residual but not from the report
    lam = solved_classical.lam
    assert np.max(np.abs(lam + 2.0)) < 0.2


def test_failed_inner_report_keeps_the_state(monkeypatch):
    # at rho = 0 the core solve is a report only: its failure is a warning
    def failing(*args, **kwargs):
        raise GeometryError("harmonic extension not invertible: r_s <= 0")

    monkeypatch.setattr("thinring.solver.solve_inner", failing)
    st = newton_solve(0.02, P_CLASSICAL, options=OPTS8)
    assert st.diagnostics["residual_norm"] <= OPTS8.tol
    assert not np.any(st.lam) and st.lam.size == st.mu.size
    assert any(w.startswith("inner velocity report unavailable")
               for w in st.diagnostics["warnings"])


def test_residual_is_grid_converged(solved_classical):
    st = solved_classical
    fine = SolverOptions(n_grid=256, modes=8)
    rv = residual(st.shape, st.eps, st.w, st.nu, P_CLASSICAL, fine)
    assert float(np.max(np.abs(rv.r))) < 1e-9


def test_core_solve_is_grid_converged_at_positive_rho():
    # W, gamma and nu at rho > 0 carry the core trace, which shares the
    # boundary grid
    coarse, fine = (newton_solve(0.04, P_CORE, options=SolverOptions(
        n_grid=n, modes=8)) for n in (128, 192))
    for name in ("w", "gamma", "nu"):
        assert abs(getattr(coarse, name) - getattr(fine, name)) < 1e-9, name


@pytest.mark.parametrize("eps", [0.04, 0.02, 0.01, 0.005])
def test_core_solve_on_converged_states(eps):
    # the trace of the accepted state's M = 8 modes on 64 points, and the
    # reported one from its 68-point check grid, against the interior
    # collocation oracle on 16 x 32 nodes
    st = newton_solve(eps, P_CORE)
    assert st.diagnostics["modes"] == 8
    grid = build_grid(FourierShape(st.shape.coeffs[:9]), eps, 64)
    sol = solve_inner(grid, solve_outer(grid, st.w, core=True))
    lam_dense = core_solve_dense(st.shape, eps, 16, 32)[1]
    assert np.max(np.abs(sol.lam_on(32) - lam_dense)) < 1e-11
    assert np.max(np.abs(resample_trig(st.lam, 32) - lam_dense)) < 1e-11


def test_core_hot_path_computes_no_diagnostics(monkeypatch):
    # residual reads only lam: the flux defect is computed when the
    # diagnostics are first read
    calls = []
    real = solve_inner

    def recording(grid, outer):
        sol = real(grid, outer)
        calls.append(sol)
        return sol

    monkeypatch.setattr("thinring.solver.solve_inner", recording)
    st = newton_solve(0.04, P_CORE)
    assert calls and all(callable(sol.diagnostics._entries["flux_defect"])
                         for sol in calls)
    d = calls[-1].diagnostics
    assert list(d) == ["flux_defect"]
    n = st.lam.size
    m = build_grid(st.shape, 0.04, n).m
    flux = (np.sum(st.lam * m) * 2.0 * np.pi / n
            + 4.0 * (area(st.shape) + 0.04 * moment_x1(st.shape)))
    assert abs(d["flux_defect"] - flux) < 1e-13
    assert abs(d["flux_defect"]) < 1e-12


@pytest.mark.parametrize("eps", [0.04, 0.02, 0.01, 0.005743])
def test_core_solves_converge_below_the_old_floor(eps):
    # the core trace from boundary integrals has no 1e-13 residual floor:
    # cold solves at tol = 1e-13 take 10, 7, 7 and 5 iterations with one
    # forward-difference column, where the collocation core ran all 25
    st = newton_solve(eps, P_CORE, options=SolverOptions(tol=1e-13))
    d = st.diagnostics
    assert d["residual_norm"] <= 1e-13
    assert d["iterations"] <= 10 and d["fd_columns"] == 1


def test_core_continuation_reaches_eps_1e_4():
    # 21 geometric steps from 0.08 to 1e-4 at tol = 1e-12; the collocation
    # core failed at 0.00395
    states = continuation(np.geomspace(0.08, 1e-4, 21), P_CORE,
                          SolverOptions(tol=1e-12))
    assert len(states) == 21
    assert all(st.diagnostics["residual_norm"] <= 1e-12 for st in states)


def test_newton_converges_at_tight_tol_with_core():
    # a core solve at roundoff lets Newton reach 1e-12; the dense
    # collocation solve left the residual at 1e-12 to 3e-12 for 25 steps
    st = newton_solve(0.04, P_CORE, options=SolverOptions(tol=1e-12))
    assert st.diagnostics["residual_norm"] <= 1e-12


def test_newton_rejects_nonpositive_eps():
    for eps in (-0.01, float("nan")):
        with pytest.raises(ValueError):
            newton_solve(eps, P_CLASSICAL, options=OPTS8)
    with pytest.raises(ValueError, match="positive and finite"):
        newton_solve(math.inf, P_CLASSICAL, options=OPTS8)


def test_newton_rejects_negative_custom_tension():
    params = NondimParams(rho=0.0, omega=math.inf, sigma_law=SigmaLaw(
        kind="custom", fn=lambda e: -1.0))
    with pytest.raises(ValueError, match="negative or NaN at eps = 0.02"):
        newton_solve(0.02, params, options=OPTS8)


def test_custom_law_is_judged_at_the_solve_eps():
    # omega = None takes the law's omega, inf for a law that fails on the
    # estimate's grid far below eps; the solve reads the law at eps alone
    def cut(e):
        return 4.0 / e if e >= 0.015 else math.nan

    custom = NondimParams(rho=0.0, omega=None,
                          sigma_law=SigmaLaw(kind="custom", fn=cut))
    a = newton_solve(0.02, custom, options=OPTS8)
    b = newton_solve(0.02, P_TENSION, options=OPTS8)
    assert [v.hex() for v in (a.w, a.gamma, a.nu)] \
        == [v.hex() for v in (b.w, b.gamma, b.nu)]
    negative = NondimParams(rho=0.0, omega=None, sigma_law=SigmaLaw(
        kind="custom", fn=lambda e: -1.0))
    with pytest.raises(ValueError, match="negative or NaN at eps = 0.02"):
        newton_solve(0.02, negative, options=OPTS8)


def test_custom_zero_law_solves_as_classical():
    # omega = None takes the law's own omega: inf for a fn returning 0
    zero = NondimParams(rho=0.0, omega=None,
                        sigma_law=SigmaLaw(kind="custom", fn=lambda e: 0.0))
    classical = NondimParams(rho=0.0, omega=None, sigma_law=SigmaLaw())
    a = newton_solve(0.04, zero, options=OPTS8)
    b = newton_solve(0.04, classical, options=OPTS8)
    assert (a.w, a.gamma, a.nu) == (b.w, b.gamma, b.nu)


def test_newton_reports_too_fat_section_as_solver_error():
    # at eps = 0.7 the kernel leaves the log-split range near the diagonal
    with pytest.raises(SolverError, match="admissible shape region"):
        newton_solve(0.7, P_CLASSICAL, options=OPTS8)


def test_newton_warns_near_degenerate_tension(monkeypatch):
    # K = omega / (2 pi^2) just off the integer 3: narrow margin, still
    # solves; the symbol start's first step fails to contract, and two full
    # forward-difference Jacobians follow
    calls = count_fd_jacobians(monkeypatch)
    st = newton_solve(0.02, P_NEAR_DEGENERATE, options=OPTS8)
    assert st.diagnostics["residual_norm"] <= OPTS8.tol
    assert abs(st.diagnostics["margin"] - 0.03) < 1e-12
    assert st.diagnostics["worst_mode"] == 2
    assert any("degeneracy margin" in w for w in st.diagnostics["warnings"])
    assert calls == [1, 8, 8]
    assert st.diagnostics["fd_columns"] == sum(calls)


def test_near_degenerate_cold_solve_is_on_the_branch():
    # the branch continued from eps -> 0: a warm start from eps = 0.01
    # reaches it, and so must the cold symbol start
    cold = newton_solve(0.02, P_NEAR_DEGENERATE, options=OPTS8)
    warm = newton_solve(0.02, P_NEAR_DEGENERATE, options=OPTS8,
                        init=newton_solve(0.01, P_NEAR_DEGENERATE,
                                          options=OPTS8))
    for name in ("w", "gamma", "nu"):
        assert abs(getattr(cold, name) - getattr(warm, name)) < 1e-9, name


def test_near_degenerate_climb_drops_the_padded_matrix(monkeypatch):
    # a 6 x 6 matrix carried into M = 8 would be padded with symbol entries
    # near 0; near degeneracy it is dropped for the symbol start, and the
    # state lands on the cold solve's root
    warm = newton_solve(0.04, P_NEAR_DEGENERATE,
                        options=SolverOptions(n_grid=128, modes=6))
    assert warm.jacobian.shape == (6, 6)
    calls = count_fd_jacobians(monkeypatch)
    st = newton_solve(0.02, P_NEAR_DEGENERATE, init=warm, options=OPTS8)
    assert calls == [1, 8]
    assert st.diagnostics["residual_norm"] <= OPTS8.tol
    assert st.diagnostics["fd_columns"] == sum(calls)
    cold = newton_solve(0.02, P_NEAR_DEGENERATE, options=OPTS8)
    assert abs(st.w - cold.w) < 1e-9


# -------------------------------------------------------------- continuation

def test_continuation_matches_cold_start():
    states = continuation([0.04, 0.02], P_CLASSICAL, options=OPTS8)
    cold = newton_solve(0.02, P_CLASSICAL, options=OPTS8)
    assert len(states) == 2
    assert abs(states[1].w - cold.w) < 1e-8
    assert abs(states[1].nu - cold.nu) < 1e-8
    assert np.max(np.abs(states[1].shape.coeffs - cold.shape.coeffs)) < 1e-8


def test_continuation_requires_descending_positive_grid():
    with pytest.raises(ValueError, match="descending"):
        continuation([0.01, 0.02], P_CLASSICAL, options=OPTS8)
    for bad in (-0.01, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            continuation([0.02, bad], P_CLASSICAL, options=OPTS8)
    with pytest.raises(ValueError, match="positive and finite"):
        continuation([math.inf, 0.02], P_CLASSICAL, options=OPTS8)


def test_continuation_failure_carries_partial_results():
    def law(e):
        return 4.0 / e if e >= 0.015 else float("nan")

    params = NondimParams(rho=0.0, omega=0.25,
                          sigma_law=SigmaLaw(kind="custom", fn=law))
    with pytest.raises(ContinuationError, match="eps = 0.01") as exc_info:
        continuation([0.02, 0.01], params, options=OPTS8)
    partial = exc_info.value.results
    assert len(partial) == 1
    assert partial[0].eps == 0.02
    assert partial[0].diagnostics["residual_norm"] <= OPTS8.tol


def count_fd_jacobians(monkeypatch):
    # the column count of each forward-difference Jacobian
    calls = []
    monkeypatch.setattr("thinring.solver.jacobian_fd",
                        lambda *a: calls.append(a[1].size) or jacobian_fd(*a))
    return calls


def test_continuation_builds_one_fd_jacobian(monkeypatch):
    # the first state's symbol start, whose w column is the only forward
    # difference, Broyden-updated, serves the whole sweep
    calls = count_fd_jacobians(monkeypatch)
    states = continuation([0.04, 0.03, 0.02, 0.015], P_TENSION, OPTS8)
    assert calls == [1]
    assert states[0].diagnostics["fd_columns"] == 1
    assert all(st.diagnostics["fd_columns"] == 0 for st in states[1:])
    assert all(st.diagnostics["residual_norm"] <= OPTS8.tol for st in states)
    assert all(st.jacobian.shape == (8, 8) for st in states)


@pytest.mark.parametrize("scale", [1e3, 1e20])
def test_wrong_carried_jacobian_falls_back_to_fd(monkeypatch, scale):
    # a step with scale * I barely moves, so the residual does not
    # contract; at 1e20 the step is below the stagnation test's size
    prev = continuation([0.04], P_CLASSICAL, OPTS8)[0]
    good = newton_solve(0.02, P_CLASSICAL, init=prev, options=OPTS8)
    calls = count_fd_jacobians(monkeypatch)
    bad = newton_solve(0.02, P_CLASSICAL, options=OPTS8,
                       init=replace(prev, jacobian=scale * np.eye(8)))
    assert calls == [8]
    assert bad.diagnostics["fd_columns"] == 8
    assert bad.diagnostics["residual_norm"] <= OPTS8.tol
    assert abs(bad.w - good.w) < 1e-10


def test_carried_jacobian_of_another_size_is_resized(monkeypatch):
    # the leading block when M shrinks, the symbol diagonal padding the
    # added modes when it grows; neither needs a forward difference
    opts6 = SolverOptions(n_grid=128, modes=6)
    prev8 = newton_solve(0.04, P_CLASSICAL, options=OPTS8)
    prev6 = newton_solve(0.04, P_CLASSICAL, options=opts6)
    calls = count_fd_jacobians(monkeypatch)
    shrunk = newton_solve(0.02, P_CLASSICAL, init=prev8, options=opts6)
    grown = newton_solve(0.02, P_CLASSICAL, init=prev6, options=OPTS8)
    assert calls == []
    assert shrunk.jacobian.shape == (6, 6) and grown.jacobian.shape == (8, 8)
    for st, opts in ((shrunk, opts6), (grown, OPTS8)):
        assert st.diagnostics["fd_columns"] == 0
        assert st.diagnostics["residual_norm"] <= opts.tol


def test_cold_core_solve_starts_from_symbol():
    # the first Broyden step after the symbol start overshoots (max |r|
    # 1.8e-3, 3.5e-5, 1.4e-4, 2.3e-8); a contraction test against the last
    # value alone rebuilds the full Jacobian there
    st = newton_solve(0.04, P_CORE)
    assert st.diagnostics["fd_columns"] == 1
    assert st.diagnostics["iterations"] <= 11


@pytest.mark.parametrize("eps", [0.04, 0.005])
@pytest.mark.parametrize("params", [P_CLASSICAL, P_TENSION, P_CORE],
                         ids=["classical", "tension", "core"])
def test_symbol_start_matches_fd_start(monkeypatch, params, eps):
    symbol = newton_solve(eps, params)
    # a zero contraction factor rebuilds a full forward-difference Jacobian
    # after every step that leaves the residual above tol
    monkeypatch.setattr("thinring.solver._CONTRACTION", 0.0)
    fd = newton_solve(eps, params)
    assert symbol.diagnostics["fd_columns"] == 1
    assert fd.diagnostics["fd_columns"] >= 8
    assert fd.diagnostics["modes"] == symbol.diagnostics["modes"]
    for name in ("w", "gamma", "nu"):
        assert abs(getattr(symbol, name) - getattr(fd, name)) < 1e-9, name


def test_swept_tension_states_match_cold_solves():
    # d r_1 / d w is small, so a Broyden state stopped on its residual
    # alone sits up to ~1e-8 off in w; the step test keeps it within 1e-9
    swept = continuation([0.03482, 0.02639, 0.02297], P_TENSION)
    for st in swept[1:]:
        assert abs(st.w - newton_solve(st.eps, P_TENSION).w) < 1e-9, st.eps


# ---------------------------------------------------------- resolution ladder

def record_levels(monkeypatch):
    # (M, N) of every residual newton_solve evaluates
    seen = []
    real = residual

    def recording(*args):
        opts = args[-1]
        seen.append((opts.modes, opts.n_grid))
        return real(*args)

    monkeypatch.setattr("thinring.solver.residual", recording)
    return seen


def test_accepted_state_is_reported_from_the_check(monkeypatch):
    # solved at M = 8 on 36 points, checked and reported at M = 16 on 68
    seen = record_levels(monkeypatch)
    st = newton_solve(0.02, P_CLASSICAL)
    d = st.diagnostics
    assert set(seen) == {(8, 36), (16, 68)}
    assert seen[-1] == (16, 68) and seen.count(seen[-1]) == 1
    assert d["modes"] == 8
    assert d["residual_norm"] <= SolverOptions().tol
    assert st.shape.coeffs.size == 17 and not np.any(st.shape.coeffs[9:])
    assert st.mu.size == st.lam.size == 68
    assert st.jacobian.shape == (8, 8)
    check = SolverOptions(n_grid=68, modes=16)
    rv = residual(st.shape, st.eps, st.w, st.nu, P_CLASSICAL, check)
    assert abs(rv.r[0]) < 1e-14
    # the check is evaluated at nu = 0, and nu moves r_1.. by roundoff
    rv = residual(st.shape, st.eps, st.w, 0.0, P_CLASSICAL, check)
    assert float(np.max(np.abs(rv.r[1:]))) == d["residual_norm"]


def test_classical_solve_climbs_to_the_cap(monkeypatch):
    # far from the disk, M = 8 and M = 16 miss tol on their check grids;
    # the Newton matrix climbs with the state, and each failed check is the
    # next level's first residual
    seen = record_levels(monkeypatch)
    st = newton_solve(0.3, P_CLASSICAL)
    d = st.diagnostics
    assert d["modes"] == 32
    assert d["residual_norm"] <= SolverOptions().tol
    assert d["fd_columns"] == 1
    assert sorted(set(seen)) == [(8, 36), (16, 68), (32, 256)]
    # the first residual, the w column and one per step: the step that
    # ends each level below the cap is followed by that level's check
    assert len(seen) == 1 + d["fd_columns"] + d["iterations"]
    assert st.mu.size == 256 and st.shape.coeffs.size == 33
    assert st.jacobian.shape == (32, 32)


def test_classical_report_resolves_its_modes():
    # at rho = 0 lam is one report solve on the boundary grid of the level
    # solved at, here the cap's 256 points
    st = newton_solve(0.3, P_CLASSICAL)
    grid = build_grid(st.shape, 0.3, 512)
    fine = solve_inner(grid, solve_outer(grid, st.w, core=True))
    assert st.diagnostics["modes"] == 32
    assert np.max(np.abs(st.lam - fine.lam_on(st.lam.size))) < 1e-10


def test_core_cap_level_resolves_its_modes():
    # the cap level's core shares its 256-point grid; against a solve whose
    # every level is twice as fine
    st = newton_solve(0.3, P_CORE)
    fine = newton_solve(0.3, P_CORE, options=SolverOptions(n_grid=512))
    assert st.diagnostics["modes"] == 32
    assert abs(st.w - fine.w) < 1e-10


@pytest.mark.parametrize("modes, levels", [(8, {(8, 128)}),
                                           (12, {(8, 48), (12, 128)})])
def test_ladder_never_evaluates_above_its_cap(monkeypatch, modes, levels):
    # a level below the cap takes half the cap's points per mode, at least
    # 4 (M + 1): 128 (8 + 1) / (2 * 12) = 48 at M = 8, above its floor 36
    seen = record_levels(monkeypatch)
    st = newton_solve(0.3, P_CLASSICAL,
                      options=SolverOptions(n_grid=128, modes=modes))
    assert set(seen) == levels
    assert st.diagnostics["modes"] == modes
    assert st.mu.size == 128


def assert_matches_pinned(monkeypatch, states, bound, options):
    # against solves pinned at M = 32, whose cap level resolves them
    monkeypatch.setattr("thinring.solver._BASE_MODES", 32)
    for st in states:
        ref = newton_solve(st.eps, P_CORE, options=options)
        assert ref.diagnostics["modes"] == 32
        for name in ("w", "gamma", "nu"):
            assert abs(getattr(st, name) - getattr(ref, name)) < bound, (
                name, st.eps)


def test_core_sweep_stays_coarse_and_builds_one_fd_column(monkeypatch):
    # the first state builds the one w column and every later one carries
    # its matrix; the level grids resolve every mode of their M, so Broyden
    # never stalls on aliased entries into forward-difference rebuilds
    states = continuation(np.linspace(0.04, 0.005, 8), P_CORE)
    assert sum(st.diagnostics["fd_columns"] for st in states) == 1
    assert_matches_pinned(monkeypatch, states, 1e-9, SolverOptions())


@pytest.mark.parametrize("eps_list, tol, accepted", [
    # 16 log-spaced eps, the benchmark's pool up to rounding (1.9e-13
    # apart), and thicker sections accepted on the 68 points of M = 16
    (tuple(np.geomspace(0.04, 0.005, 16)) + (0.06, 0.08, 0.1), 1e-13,
     {8, 16}),
    # thicker sections accepted on the 36 points of M = 8 (2.0e-14 apart)
    ((0.05, 0.055, 0.06), 1e-10, {8}),
])
def test_floor_grids_match_a_pinned_solve(monkeypatch, eps_list, tol,
                                          accepted):
    states = [newton_solve(eps, P_CORE, options=SolverOptions(tol=tol))
              for eps in eps_list]
    assert {st.diagnostics["modes"] for st in states} == accepted
    assert_matches_pinned(monkeypatch, states, 1e-12,
                          SolverOptions(tol=1e-13))


def test_thick_classical_solve_is_accurate_at_the_cap():
    # eps = 0.5 climbs to the cap M = 32; a solve at modes = 128,
    # n_grid = 2048 gives W = 0.1670017918167829, gamma =
    # 0.0563588625125355 and nu = -0.0226012503403166
    st = newton_solve(0.5, P_CLASSICAL)
    assert st.diagnostics["modes"] == 32
    assert abs(st.w - 0.1670017918167829) < 1e-9
    assert abs(st.gamma - 0.0563588625125355) < 4e-9
    assert abs(st.nu + 0.0226012503403166) < 1e-9


# ------------------------------------------------------------- heap reuse

_FAULT_PROBE = """
import resource
import numpy as np
from thinring.inner import solve_inner
from thinring.physics import NondimParams, SigmaLaw, asymptotic_wgn
from thinring.shape import FourierShape
from thinring.solver import SolverOptions, residual
options = SolverOptions()
params = NondimParams(rho=0.0, omega=0.25,
                      sigma_law=SigmaLaw(kind="c_over_eps", c=4.0))
w, _, nu = asymptotic_wgn(0.01, 0.0, params.sigma_law)
shape = FourierShape(np.zeros(options.modes + 1))
for _ in range(3):
    residual(shape, 0.01, w, nu, params, options)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    residual(shape, 0.01, w, nu, params, options)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="heap thresholds are set through glibc mallopt")
def test_residual_reuses_freed_heap():
    # a fresh process at default options: once warm, residuals take their
    # temporaries from the heap instead of faulting in new pages (about
    # 1000 minor faults per residual when glibc returns them to the OS)
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE],
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 100


@pytest.mark.parametrize("params", [P_CORE, P_CLASSICAL],
                         ids=["core", "classical"])
def test_residual_peak_memory(params):
    # the traced peak of one warm residual at the default options (N = 256),
    # the benchmark's warm-up: the assembly runs over row blocks, so the
    # double layer's temporaries add little (1.73 MB at rho = 0.25, 1.38 MB
    # at rho = 0, against 2.67 MB for both before the blocks)
    w, _, nu = asymptotic_wgn(0.04, params.rho, params.sigma_law)
    shape = zero_shape(SolverOptions().modes)
    residual(shape, 0.04, w, nu, params)
    tracemalloc.start()
    try:
        residual(shape, 0.04, w, nu, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.7e6


def _trace_sites():
    # perfbench/tracer.py's SITES, (module, attribute, span, required), read
    # from the source, which is neither imported nor written
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
    tree = ast.parse(source.read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "SITES")


def test_trace_sites_name_the_library_functions():
    # perfbench/tracer.py wraps each (module, attribute) of its SITES and
    # names the span after the function's home module; a site that no
    # longer resolves to that function drops its layer from the trace.
    sites = _trace_sites()
    assert sites
    for module, attr, span, _ in sites:
        home, name = span.split(".")
        assert name == attr, span
        assert getattr(importlib.import_module(module), attr) \
            is getattr(importlib.import_module(f"thinring.{home}"), name), span


def test_required_trace_sites_are_called_in_both_regimes(monkeypatch):
    # the tracer fails a traced benchmark run (MissingLayerError) when a
    # required layer records no calls; at rho = 0 the report core solve is
    # the only caller of solve_inner.  Regimes of the two workloads: a
    # sweep_tension continuation over two pool eps, a cold_core cold solve.
    required = [(m, a) for m, a, _, needed in _trace_sites() if needed]
    counts = {}

    def counted(site, fn):
        def wrapper(*args, **kwargs):
            counts[site] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, attr in required:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, counted((module, attr),
                                               getattr(mod, attr)))
    solver = importlib.import_module("thinring.solver")
    runs = {"sweep_tension": lambda: solver.continuation([0.04, 0.03482],
                                                         P_TENSION),
            "cold_core": lambda: solver.newton_solve(0.04, P_CORE)}
    for regime, run in runs.items():
        counts.update(dict.fromkeys(required, 0))
        run()
        missing = [f"{m}.{a}" for (m, a), n in counts.items() if n == 0]
        assert not missing, f"{regime}: no calls to {missing}"


# every lru_cache'd table builder of the library, with arguments to call it
_TABLE_CALLS = {
    "thinring.outer._half_tables": (64,),
    "thinring.shape._tables": (64, 9),
}


def test_cached_tables_are_read_only():
    # a cached array is shared by every later call: a write into it would
    # change every later solve
    modules = [importlib.import_module(f"thinring.{m.name}")
               for m in pkgutil.iter_modules(thinring.__path__)]
    cached = {f"{m.__name__}.{name}" for m in modules
              for name, obj in vars(m).items()
              if hasattr(obj, "cache_info") and obj.__module__ == m.__name__}
    assert cached == set(_TABLE_CALLS)
    for qualname, args in _TABLE_CALLS.items():
        module, name = qualname.rsplit(".", 1)
        out = getattr(importlib.import_module(module), name)(*args)
        assert all(isinstance(a, np.ndarray) for a in out), qualname
        assert not any(a.flags.writeable for a in out), qualname
