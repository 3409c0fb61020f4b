"""Acceptance gate: every contract criterion at its stated tolerance.

Each test is one criterion; `pytest -v` prints one pass/fail line per
criterion.  The eps sweeps behind criteria 6-9 are shared through a
module fixture and run the production continuation path at N = 256.
"""

import math
import time

import numpy as np
import pytest

from oracles import (assemble_cartesian, bordered_solve_dense,
                     boundary_points, core_solve_dense, f_direct,
                     kernel_direct)
from thinring.outer import assemble_full, kress_log_weights
from thinring.physics import (NondimParams, SigmaLaw, asymptotic_wgn,
                              degeneracy_margin, s_from_w)
from thinring.shape import FourierShape, build_grid, sobolev_norm
from thinring.solver import SolverOptions, continuation, newton_solve, residual
from thinring.special import f_elliptic, f_split

EPS_GRID = [0.04, 0.02, 0.01, 0.005]
SWEEP_OPTS = SolverOptions(n_grid=256, modes=16)
K0_RHO0 = 1.0 / (2.0 * math.pi**2)

SWEEP_SETS = {
    "rho0_sigma0": NondimParams(rho=0.0, sigma_law=SigmaLaw(), omega=math.inf),
    "rho1_sigma0": NondimParams(rho=1.0, sigma_law=SigmaLaw(), omega=math.inf),
    "rho0_tension": NondimParams(
        rho=0.0, sigma_law=SigmaLaw(kind="c_over_eps", c=4.0), omega=0.25),
    "rho_loglaw": NondimParams(
        rho=1.0 / (4.0 * math.pi**2),
        sigma_law=SigmaLaw(kind="c_log_over_eps", c=1.0), omega=0.0),
}

# the speed-law fit set: uniform-core density ratio, no tension
KELVIN_PARAMS = NondimParams(rho=1.0 / (16.0 * math.pi**2),
                             sigma_law=SigmaLaw(), omega=math.inf)


def zero_shape(modes=2):
    return FourierShape(np.zeros(modes + 1))


@pytest.fixture(scope="module")
def sweeps():
    """Continuation sweeps for every parameter set, with wall times."""
    states, seconds = {}, {}
    for name, params in {**SWEEP_SETS, "kelvin_quarter": KELVIN_PARAMS}.items():
        t0 = time.perf_counter()
        states[name] = continuation(EPS_GRID, params, options=SWEEP_OPTS)
        seconds[name] = time.perf_counter() - t0
    return states, seconds


def capacity_density(grid):
    """mu of K mu = const, m w mu = 1, on the eps -> 0 limit operator.

    The limit operator has no library copy, since every solve has eps > 0:
    the oracle assembles it on the library's kress_log_weights and solves
    the bordered system unfolded.
    """
    return bordered_solve_dense(grid, assemble_cartesian(grid),
                                np.zeros(grid.n))[0]


def sweep_errors(states, params):
    rows = []
    for st in states:
        wa, ga, nua = asymptotic_wgn(st.eps, params.rho, params.sigma_law)
        rows.append((abs(st.w - wa), abs(st.gamma - ga), abs(st.nu - nua)))
    return np.array(rows)


def test_criterion_01_limit_operator_multiplier():
    t0 = time.perf_counter()
    grid = build_grid(zero_shape(), 0.0, 128)
    mat = assemble_cartesian(grid)   # rows 0..n/2 of the image of even data
    rows = grid.alpha[:grid.n // 2 + 1]
    worst = float(np.max(np.abs(mat @ np.ones(grid.n))))
    for l in range(1, 17):
        img = mat @ np.cos(l * grid.alpha)
        worst = max(worst, float(np.max(np.abs(
            img - np.cos(l * rows) / (2.0 * l)))))
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: multiplier defect {worst:.3e}, {elapsed:.3f} s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_capacity_density_and_derivative():
    grid = build_grid(zero_shape(), 0.0, 128)
    base = capacity_density(grid)
    value_err = float(np.max(np.abs(base - 1.0 / (2.0 * math.pi))))
    assert value_err <= 1e-10
    step = 1e-5
    worst = 0.0
    for l in range(2, 7):
        c = np.zeros(l + 1)
        c[l] = step
        pert = capacity_density(build_grid(FourierShape(c), 0.0, 128))
        fd = (pert - base) / step
        expect = -(1.0 - l) / (2.0 * math.pi) * np.cos(l * grid.alpha)
        worst = max(worst, float(np.max(np.abs(fd - expect))))
    print(f"criterion 2: value defect {value_err:.3e}, "
          f"derivative defect {worst:.3e}")
    assert worst <= 1e-3


def test_criterion_03_inner_velocity_and_derivatives():
    # at eps = 0, which the boundary-integral trace does not take, on the
    # interior collocation oracle
    t0 = time.perf_counter()
    alpha, base = core_solve_dense(zero_shape(), 0.0, 16, 32)[:2]
    lam_err = float(np.max(np.abs(base + 2.0)))
    assert lam_err <= 1e-8
    step = 1e-5
    pert = core_solve_dense(zero_shape(), step, 16, 32)[1]
    fd = (pert - base) / step
    eps_err = float(np.max(np.abs(fd + 0.5 * np.cos(alpha))))
    assert eps_err <= 1e-3
    shape_err = 0.0
    for l in (2, 3, 5):
        c = np.zeros(l + 1)
        c[l] = step
        plus = core_solve_dense(FourierShape(c), 0.0, 16, 32)[1]
        minus = core_solve_dense(FourierShape(-c), 0.0, 16, 32)[1]
        fd = (plus - minus) / (2.0 * step)
        expect = (2.0 * l - 2.0) * np.cos(l * alpha)
        shape_err = max(shape_err, float(np.max(np.abs(fd - expect))))
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: lam {lam_err:.3e}, d_eps {eps_err:.3e}, "
          f"d_theta {shape_err:.3e}, {elapsed:.2f} s")
    assert shape_err <= 1e-3
    assert elapsed < 10.0


def test_criterion_04_ring_kernel_consistency():
    s = np.geomspace(1e-8, 10.0, 40)
    fe = f_elliptic(s)
    kernel_err = max(abs(fe[i] - f_direct(float(v))) for i, v in enumerate(s))
    assert kernel_err <= 1e-10

    # the split on rows 0..n/2, which hold one of every pair of nodes
    # under the reflection j -> n - j
    g = build_grid(FourierShape(np.array([0.0, 0.0, 0.05, -0.02])), 0.1, 128)
    n, rows = g.n, slice(0, g.n // 2 + 1)
    mat = assemble_full(g)
    chi = boundary_points(g)
    d = chi[rows, None, :] - chi[None, :, :]
    s1 = np.einsum("ijk,ijk->ij", d, d)
    radial = 1.0 + g.eps * chi[:, 0]
    s2 = np.sqrt(np.outer(radial[rows], radial))
    sq = g.eps**2 * s1 / s2**2
    _, q = f_split(sq)
    a = (g.m[None, :] * s2 / (2.0 * math.pi)) * q
    r = kress_log_weights(n)
    idx = (np.arange(n)[rows, None] - np.arange(n)[None, :]) % n
    b = (mat - a * r[idx]) * n / (2.0 * math.pi)
    half = 0.5 * (g.alpha[rows, None] - g.alpha[None, :])
    chord = 4.0 * np.sin(half) ** 2
    off = ~np.eye(n, dtype=bool)
    direct = kernel_direct(g)
    split_err = float(np.max(np.abs(
        a[off[rows]] * np.log(chord[off[rows]]) + b[off[rows]]
        - direct[rows][off[rows]])))
    assert split_err <= 1e-10

    sym = direct / g.m[None, :]
    sym_err = float(np.max(np.abs((sym - sym.T)[off])))
    print(f"criterion 4: elliptic-direct {kernel_err:.3e}, "
          f"split {split_err:.3e}, symmetry {sym_err:.3e}")
    assert sym_err <= 1e-10


def test_criterion_05_linearization_symbol_under_tension():
    eps, m = 0.01, 16
    params = SWEEP_SETS["rho0_tension"]
    opts = SolverOptions(n_grid=128, modes=m)
    w0, _, nu0 = asymptotic_wgn(eps, params.rho, params.sigma_law)
    x0 = np.concatenate([np.zeros(m - 1), [w0, nu0]])

    def fun(v):
        c = np.zeros(m + 1)
        c[2:] = v[:-2]
        return residual(FourierShape(c), eps, v[-2], v[-1], params,
                        opts).r[[*range(2, m + 1), 1, 0]]

    f0 = fun(x0)
    eps_sig = eps * params.sigma_law(eps)
    unscale = (1.0 + eps_sig) / eps_sig
    worst = 0.0
    for row, l in enumerate(range(2, 9)):
        h = 1e-7 * (1.0 + abs(x0[row]))
        xp = x0.copy()
        xp[row] += h
        diag = (fun(xp)[row] - f0[row]) / h * unscale
        symbol = 0.25 * K0_RHO0 * (1.0 - l) - 1.0 + l * l
        worst = max(worst, abs(diag / symbol - 1.0))
    print(f"criterion 5: worst relative symbol defect {worst:.3e}")
    assert worst <= 0.2


def test_criterion_06_convergence_to_asymptotics(sweeps):
    states, seconds = sweeps
    total = sum(seconds[name] for name in SWEEP_SETS)
    for name, params in SWEEP_SETS.items():
        err = sweep_errors(states[name], params)
        for col, label in enumerate(("w", "gamma", "nu")):
            assert np.all(np.diff(err[:, col]) < 0.0), \
                f"{name}: |{label} - asym| not decreasing: {err[:, col]}"
            assert err[-1, col] < 0.05, \
                f"{name}: |{label} - asym| = {err[-1, col]:.3g} at eps 0.005"
        print(f"criterion 6 [{name}]: final errors {err[-1]} "
              f"({seconds[name]:.1f} s)")
    assert total < 300.0


def test_criterion_07_speed_law_core_constants(sweeps):
    states, _ = sweeps
    for name, expected in (("kelvin_quarter", 0.25), ("rho0_sigma0", 0.5)):
        eps = np.array([st.eps for st in states[name]])
        w = np.array([st.w for st in states[name]])
        c_eps = np.log(8.0 / eps) - 4.0 * math.pi * w
        basis = np.stack([np.ones_like(eps), eps * np.log(1.0 / eps)], axis=1)
        coef, *_ = np.linalg.lstsq(basis, c_eps, rcond=None)
        defect = abs(coef[0] - expected)
        print(f"criterion 7 [{name}]: c_fit = {coef[0]:.5f} "
              f"(expected {expected}), defect {defect:.3e}")
        assert defect <= 0.02


def test_criterion_08_speed_coordinate_limit(sweeps):
    states, _ = sweeps
    for name, params in SWEEP_SETS.items():
        defect = np.array([
            abs(st.s - s_from_w(st.eps, asymptotic_wgn(
                st.eps, params.rho, params.sigma_law)[0]))
            for st in states[name]])
        assert np.all(np.diff(defect) < 0.0), f"{name}: S defect {defect}"
        assert defect[-1] < 0.05, f"{name}: S defect {defect[-1]:.3g}"
        print(f"criterion 8 [{name}]: S defects {defect}")


def test_criterion_09_shape_vanishes_faster_than_eps(sweeps):
    states, _ = sweeps
    for name in SWEEP_SETS:
        ratio = np.array([st.diagnostics["theta_sup"] / st.eps
                          for st in states[name]])
        assert np.all(np.diff(ratio) < 0.0), \
            f"{name}: theta_sup/eps not decreasing: {ratio}"
        print(f"criterion 9 [{name}]: theta_sup/eps {ratio}")
        # the uniqueness windows ||theta||_{H^5} / eps^0.75 and
        # |w| log(1/eps) (eps^2 + ||theta||_{H^5}^2) close as eps halves
        windows = []
        for st in states[name]:
            d = st.diagnostics
            th5 = sobolev_norm(st.shape, 5)
            assert d["theta_h5"] == th5
            assert d["window_theta"] == pytest.approx(th5 / st.eps**0.75,
                                                      rel=1e-14)
            assert d["window_speed"] == pytest.approx(
                abs(st.w) * math.log(1.0 / st.eps) * (st.eps**2 + th5**2),
                rel=1e-14)
            windows.append((d["window_theta"], d["window_speed"]))
        windows = np.array(windows)
        assert np.all(np.diff(windows, axis=0) < 0.0), \
            f"{name}: uniqueness windows not closing: {windows}"
        print(f"criterion 9 [{name}]: window_theta {windows[:, 0]}, "
              f"window_speed {windows[:, 1]}")


def test_criterion_10_degeneracy_detection():
    for k in (3, 4, 5):
        margin, mode = degeneracy_margin(0.0, k / K0_RHO0)
        assert margin <= 1e-9, f"K = {k}: margin {margin:.3e}"
        assert mode == k - 1
    omega = 3.06 / K0_RHO0
    params = NondimParams(rho=0.0, omega=omega,
                          sigma_law=SigmaLaw(kind="c_over_eps", c=1.0 / omega))
    st = newton_solve(0.02, params,
                      options=SolverOptions(n_grid=128, modes=8))
    margin = st.diagnostics["margin"]
    print(f"criterion 10: near-degenerate margin {margin:.3e}, "
          f"warnings {st.diagnostics['warnings']}")
    assert margin < 0.05
    assert any("degeneracy margin" in w for w in st.diagnostics["warnings"])
    # at most 2 full forward-difference Jacobians after the symbol start
    assert st.diagnostics["fd_columns"] <= 17


# Beyond the paper: the next order of the speed law, measured, not proved.
@pytest.mark.parametrize("rho,law,eps_hi,eps_lo", [
    (0.0, SigmaLaw(), 0.04, 0.001),
    (0.0, SigmaLaw(kind="c_over_eps", c=1.0), 0.01, 1e-4),
    (0.0, SigmaLaw(kind="c_over_eps", c=4.0), 0.01, 1e-4),
    (0.25, SigmaLaw(), 0.04, 0.001),
], ids=["classical", "c1", "c4", "rho025"])
def test_speed_law_next_order(rho, law, eps_hi, eps_lo):
    # deviations from asymptotic_wgn, fitted on 16 eps; the eps^2
    # log(1/eps) term of W is -(1/(16 pi) + rho pi/2 + eps sigma pi/4)
    # (eps sigma = c here) and gamma's is -3/2 times it
    params = NondimParams(rho=rho, sigma_law=law, omega=law.omega)
    grid = [float(e) for e in np.geomspace(eps_hi, eps_lo, 16)]
    states = continuation(grid, params, options=SolverOptions(tol=1e-12))
    eps = np.array([st.eps for st in states])
    L = np.log(1.0 / eps)
    dev = np.array([(st.w, st.gamma, st.nu) for st in states]) \
        - np.array([asymptotic_wgn(e, rho, law) for e in eps])
    basis = np.stack([eps**2 * L, eps**2, eps**3 * L, eps**3,
                      eps**4 * L**2, eps**4 * L, eps**4], axis=1)
    coef, *_ = np.linalg.lstsq(basis, dev, rcond=None)
    fit_residual = np.max(np.abs(basis @ coef - dev))
    w2 = -(1.0 / (16.0 * math.pi) + rho * math.pi / 2.0
           + law.eps_sigma(eps[0]) * math.pi / 4.0)
    print(f"speed law next order: eps^2 L of W {coef[0, 0]:.7f} "
          f"(closed form {w2:.7f}), gamma {coef[0, 1]:.7f}, "
          f"fit residual {fit_residual:.2e}")
    assert abs(coef[0, 0] - w2) <= 1e-4 * abs(w2)
    assert abs(coef[0, 1] + 1.5 * w2) <= 1e-4 * abs(1.5 * w2)
    assert fit_residual <= 1e-11
