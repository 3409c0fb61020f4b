"""Outer operator: log quadrature, Nystrom assembly, bordered solves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assemble_cartesian, bordered_solve_dense, kernel_direct
from thinring.outer import (assemble_full, assemble_limit, eval_streamfunction,
                            kress_log_weights, solve_capacity, solve_outer)
from thinring.physics import s_from_w, w_from_s
from thinring.shape import FourierShape, build_grid
from thinring.special import f_split

LOG8 = 3.0 * np.log(2.0)


def circle_grid(eps, n):
    return build_grid(FourierShape(np.zeros(3)), eps, n)


def wavy_shape(*pairs):
    m = max(l for l, _ in pairs)
    c = np.zeros(m + 1)
    for l, a in pairs:
        c[l] = a
    return FourierShape(c)


def circulant_apply(r, f):
    n = r.size
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return r[idx] @ f


# ---------------------------------------------------------------- log weights

@pytest.mark.parametrize("l", [1, 2, 5, 15, 31])
def test_kress_weights_integrate_harmonics_exactly(l):
    # int log(4 sin^2((a - a~)/2)) cos(l a~) da~ = -(2 pi / l) cos(l a)
    n = 64
    alpha = 2.0 * np.pi * np.arange(n) / n
    img = circulant_apply(kress_log_weights(n), np.cos(l * alpha))
    assert np.max(np.abs(img + (2.0 * np.pi / l) * np.cos(l * alpha))) < 1e-11


def test_kress_weights_annihilate_constants():
    assert abs(np.sum(kress_log_weights(64))) < 1e-12
    assert abs(np.sum(kress_log_weights(256))) < 1e-12


def test_kress_weights_require_even_n():
    with pytest.raises(ValueError):
        kress_log_weights(65)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1,
                max_size=12))
def test_kress_weights_exact_on_trig_polynomials(coeffs):
    n = 64
    alpha = 2.0 * np.pi * np.arange(n) / n
    f = np.zeros(n)
    expect = np.zeros(n)
    for l, c in enumerate(coeffs, start=1):
        f += c * np.cos(l * alpha)
        expect += -c * (2.0 * np.pi / l) * np.cos(l * alpha)
    img = circulant_apply(kress_log_weights(n), f)
    assert np.max(np.abs(img - expect)) < 1e-10


# -------------------------------------------------------------- limit kernel

def test_limit_operator_is_fourier_multiplier_on_circle():
    # cos(l alpha) -> cos(l alpha) / (2 l), constants -> 0 at theta = 0
    g = circle_grid(0.0, 128)
    mat = assemble_limit(g)
    assert np.max(np.abs(mat @ np.ones(g.n))) < 1e-10
    for l in range(1, 17):
        img = mat @ np.cos(l * g.alpha)
        assert np.max(np.abs(img - np.cos(l * g.alpha) / (2.0 * l))) < 1e-10


def test_capacity_density_of_circle():
    sol = solve_capacity(circle_grid(0.0, 128))
    assert np.max(np.abs(sol.mu - 1.0 / (2.0 * np.pi))) < 1e-10
    assert abs(sol.const) < 1e-12


def test_capacity_constant_is_second_order_in_shape():
    n = 128
    const = {}
    for t in (0.1, 0.05):
        g = build_grid(wavy_shape((2, t)), 0.0, n)
        const[t] = solve_capacity(g).const
    ratio = const[0.1] / const[0.05]
    assert 3.0 < ratio < 5.0


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_capacity_density_derivative_multiplier(l):
    # d mu / d a_l at theta = 0 is -(1 / 2 pi)(1 - l) cos(l alpha)
    n, t = 128, 1e-5
    mu = {}
    for sign in (+1.0, -1.0):
        g = build_grid(wavy_shape((l, sign * t)), 0.0, n)
        mu[sign] = solve_capacity(g).mu
    fd = (mu[1.0] - mu[-1.0]) / (2.0 * t)
    g0 = circle_grid(0.0, n)
    expect = -(1.0 - l) / (2.0 * np.pi) * np.cos(l * g0.alpha)
    assert np.max(np.abs(fd - expect)) < 1e-6


def test_limit_image_of_constant_shape_derivative():
    # d/dt [L(theta = t cos 2a) 1] at t = 0 is -cos(2 alpha) / 4
    n, t = 128, 1e-5
    img = {}
    for sign in (+1.0, -1.0):
        g = build_grid(wavy_shape((2, sign * t)), 0.0, n)
        img[sign] = assemble_limit(g) @ np.ones(n)
    fd = (img[1.0] - img[-1.0]) / (2.0 * t)
    alpha = 2.0 * np.pi * np.arange(n) / n
    assert np.max(np.abs(fd + np.cos(2.0 * alpha) / 4.0)) < 1e-8


# --------------------------------------------------------------- full kernel

def pair_data(g):
    d = g.chi[:, None, :] - g.chi[None, :, :]
    s1 = np.einsum("ijk,ijk->ij", d, d)
    radial = 1.0 + g.eps * g.chi[:, 0]
    s2 = np.sqrt(np.outer(radial, radial))
    return s1, s2


def test_full_assembly_reconstructs_pointwise_kernel():
    # undo the quadrature split: A log(4 sin^2) + B must equal the direct
    # elliptic evaluation off the diagonal
    g = build_grid(wavy_shape((2, 0.05), (3, -0.02)), 0.1, 128)
    n = g.n
    mat = assemble_full(g)
    s1, s2 = pair_data(g)
    s = g.eps**2 * s1 / s2**2
    p, q = f_split(s.ravel())
    a = (g.m[None, :] * s2 / (2.0 * np.pi)) * q.reshape(n, n)
    r = kress_log_weights(n)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    b = (mat - a * r[idx]) * n / (2.0 * np.pi)
    half = 0.5 * (g.alpha[:, None] - g.alpha[None, :])
    chord = 4.0 * np.sin(half) ** 2
    off = ~np.eye(n, dtype=bool)
    rec = a[off] * np.log(chord[off]) + b[off]
    assert np.max(np.abs(rec - kernel_direct(g)[off])) < 1e-10


@pytest.mark.parametrize("eps", [0.05, 0.3])
def test_weighted_kernel_symmetry(eps):
    # K(a, a~) / m(a~) is symmetric; holds for the assembled matrix too
    g = build_grid(wavy_shape((2, 0.08), (4, 0.03)), eps, 96)
    off = ~np.eye(g.n, dtype=bool)
    k = kernel_direct(g) / g.m[None, :]
    assert np.max(np.abs((k - k.T)[off])) < 1e-10
    m = assemble_full(g) / g.m[None, :]
    assert np.max(np.abs(m - m.T)) < 1e-10


def test_full_assembly_rejects_eps_zero():
    with pytest.raises(ValueError, match="assemble_limit"):
        assemble_full(circle_grid(0.0, 64))


def test_full_assembly_rejects_section_too_fat_for_split():
    # at eps near 1 the kernel argument leaves the series range next to the
    # diagonal, where the log split is structurally required
    for grid in (circle_grid(0.99, 64),
                 build_grid(wavy_shape((2, 0.05), (3, -0.02), (4, 0.01)), 0.6, 96)):
        with pytest.raises(ValueError, match="eps too large"):
            assemble_full(grid)


def test_far_pair_fallback_keeps_assembly_usable():
    # eps = 0.6 pushes antipodal pairs beyond the split range but not the
    # near-diagonal zone; assembly must fall back, stay finite, keep symmetry
    g = circle_grid(0.6, 96)
    mat = assemble_full(g)
    assert np.all(np.isfinite(mat))
    m = mat / g.m[None, :]
    assert np.max(np.abs(m - m.T)) < 1e-10


ORACLE_SHAPES = {
    "circle": np.zeros(3),
    "wavy": np.array([0.0, 0.0, 0.05, -0.02, 0.01]),
    "decay": np.r_[0.0, 0.02 / (1.0 + np.arange(1, 33)) ** 2],
}
ORACLE_CASES = [
    (eps, shape, n)
    for eps in (0.0, 0.005, 0.02, 0.3)
    for shape, coeffs in ORACLE_SHAPES.items()
    for n in (96, 256) if n >= 4 * coeffs.size
] + [(0.6, "circle", 96), (0.6, "circle", 256)]


@pytest.mark.parametrize("eps, shape, n", ORACLE_CASES)
def test_polar_assembly_matches_cartesian(eps, shape, n):
    # Q in polar form and one smooth log against the Cartesian difference
    # tensor on every entry, diagonal included; eps = 0 is the limit
    # operator and eps = 0.6 takes the far-pair fallback
    grid = build_grid(FourierShape(ORACLE_SHAPES[shape].copy()), eps, n)
    mat = assemble_full(grid) if eps > 0.0 else assemble_limit(grid)
    ref = assemble_cartesian(grid)
    assert np.max(np.abs(mat - ref)) < 1e-13 * np.max(np.abs(ref))


# ------------------------------------------------------- diagonal of B part

def smooth_part(shape, eps, alpha, alpha_src):
    # standalone recomputation of the smooth factor B(alpha, alpha~)
    def chi(t):
        return (1.0 + shape.theta(t)) * np.array([np.cos(t), np.sin(t)])

    def metric(t):
        return np.hypot(shape.dtheta(t), 1.0 + shape.theta(t))

    d = chi(alpha) - chi(alpha_src)
    s1 = float(d @ d)
    s2 = np.sqrt((1.0 + eps * chi(alpha)[0]) * (1.0 + eps * chi(alpha_src)[0]))
    p, q = f_split(np.array([eps**2 * s1 / s2**2]))
    log_q = np.log(s1 / (4.0 * np.sin(0.5 * (alpha - alpha_src)) ** 2))
    return (metric(alpha_src) * s2 / (2.0 * np.pi)
            * (p[0] + q[0] * (2.0 * np.log(eps) + log_q - 2.0 * np.log(s2))))


def test_smooth_part_diagonal_matches_extrapolation():
    # Richardson extrapolation of B toward the diagonal against the closed
    # form B(a, a) = m s2 / (2 pi) (log 8 - 2 + log(s2 / (eps m)))
    shape = wavy_shape((2, 0.1), (3, 0.05))
    eps, n = 0.2, 64
    g = build_grid(shape, eps, n)
    mat = assemble_full(g)
    r0 = kress_log_weights(n)[0]
    s2_diag = 1.0 + eps * g.chi[:, 0]
    a_diag = -g.m * s2_diag / (4.0 * np.pi)
    b_from_matrix = (np.diag(mat) - a_diag * r0) * n / (2.0 * np.pi)
    closed = (g.m * s2_diag / (2.0 * np.pi)
              * (LOG8 - 2.0 + np.log(s2_diag / (eps * g.m))))
    assert np.max(np.abs(b_from_matrix - closed)) < 1e-12
    for i in (0, 13, 27):
        alpha = g.alpha[i]
        rich = []
        for h in (0.01, 0.005):
            rich.append(0.5 * (smooth_part(shape, eps, alpha, alpha + h)
                               + smooth_part(shape, eps, alpha, alpha - h)))
        extrap = (4.0 * rich[1] - rich[0]) / 3.0
        assert abs(extrap - closed[i]) < 1e-8


# ------------------------------------------------------------ bordered solve

def test_outer_solution_affine_in_speed():
    g = circle_grid(0.02, 128)
    mat = assemble_full(g)
    lo = solve_outer(g, 0.3, mat=mat)
    hi = solve_outer(g, 0.7, mat=mat)
    mid = solve_outer(g, 0.5, mat=mat)
    assert np.max(np.abs(lo.mu + hi.mu - 2.0 * mid.mu)) < 1e-12
    assert abs(lo.gamma + hi.gamma - 2.0 * mid.gamma) < 1e-12


def test_outer_solution_has_unit_circulation():
    g = build_grid(wavy_shape((2, 0.05)), 0.05, 128)
    sol = solve_outer(g, 0.4)
    assert abs(np.sum(g.m * sol.mu) * g.weight - 1.0) < 1e-12
    cap = solve_capacity(build_grid(wavy_shape((2, 0.05)), 0.0, 128))
    assert abs(np.sum(g.m * cap.mu) * g.weight - 1.0) < 1e-12


@pytest.mark.parametrize("grid", [
    build_grid(wavy_shape((2, 0.05), (3, -0.02), (5, 0.01)), 0.02, 128),
    circle_grid(0.6, 96),
], ids=["wavy", "far_field"])
def test_folded_outer_solve_matches_dense(grid):
    # the even-symmetry fold against the unfolded (n+1) bordered system;
    # eps = 0.6 also takes the far-pair fallback of the assembly
    mat = assemble_full(grid)
    sol = solve_outer(grid, 0.4, mat=mat)
    rhs = 0.2 * (1.0 + grid.eps * grid.chi[:, 0]) ** 2
    mu, gamma = bordered_solve_dense(grid, mat, rhs)
    assert np.max(np.abs(sol.mu - mu)) < 1e-12
    assert abs(sol.gamma - gamma) < 1e-12


def test_folded_capacity_solve_matches_dense():
    grid = build_grid(wavy_shape((2, 0.05), (3, -0.02), (5, 0.01)), 0.0, 128)
    mat = assemble_limit(grid)
    sol = solve_capacity(grid, mat=mat)
    mu, const = bordered_solve_dense(grid, mat, np.zeros(grid.n))
    assert np.max(np.abs(sol.mu - mu)) < 1e-12
    assert abs(sol.const - const) < 1e-12


@pytest.mark.parametrize("grid", [
    build_grid(wavy_shape((2, 0.05), (3, -0.02)), 0.0, 96),
    build_grid(wavy_shape((2, 0.05), (3, -0.02)), 0.02, 96),
    circle_grid(0.6, 96),
], ids=["limit", "wavy", "far_field"])
def test_assembly_is_reflection_symmetric(grid):
    # alpha -> -alpha maps node j to n - j; M[n-i, n-j] = M[i, j] exactly
    mat = assemble_full(grid) if grid.eps > 0.0 else assemble_limit(grid)
    rev = (-np.arange(grid.n)) % grid.n
    assert np.array_equal(mat[rev][:, rev], mat)


def test_precomputed_matrix_is_equivalent():
    g = circle_grid(0.05, 64)
    mat = assemble_full(g)
    a = solve_outer(g, 0.5)
    b = solve_outer(g, 0.5, mat=mat)
    assert np.array_equal(a.mu, b.mu) and a.gamma == b.gamma


def test_flux_constant_leading_order():
    # gamma + w/2 - (log 8 + log(1/eps) - 2) / (2 pi) = O(eps^2 log eps)
    defect = []
    for eps in (0.04, 0.02, 0.01):
        g = circle_grid(eps, 256)
        w = w_from_s(eps, 0.0)
        sol = solve_outer(g, w)
        lead = (LOG8 + np.log(1.0 / eps) - 2.0) / (2.0 * np.pi)
        defect.append(abs(sol.gamma + 0.5 * w - lead))
    assert defect[0] > defect[1] > defect[2]
    assert defect[2] < 1e-3
    assert defect[0] / defect[2] > 6.0


def test_speed_coordinate_round_trip():
    for eps in (0.04, 0.005):
        for s in (-0.3, 0.0, 1.7):
            assert abs(s_from_w(eps, w_from_s(eps, s)) - s) < 1e-14
        for w in (0.2, 0.9):
            assert abs(w_from_s(eps, s_from_w(eps, w)) - w) < 1e-14


# -------------------------------------------------------------- field values

def test_streamfunction_grid_convergence_away_from_layer():
    pts = np.array([[3.0, 0.0], [0.0, -2.5], [1.8, 1.1]])
    vals = {}
    for n in (64, 128):
        g = circle_grid(0.1, n)
        mu = (1.0 + 0.3 * np.cos(g.alpha)) / (2.0 * np.pi)
        vals[n] = eval_streamfunction(g, mu, pts)
    assert np.max(np.abs(vals[64] - vals[128])) < 1e-9


def test_streamfunction_warns_near_layer():
    g = circle_grid(0.1, 64)
    mu = np.full(g.n, 1.0 / (2.0 * np.pi))
    with pytest.warns(UserWarning, match="grid spacings"):
        out = eval_streamfunction(g, mu, np.array([[1.15, 0.0]]))
    assert np.all(np.isfinite(out))


def test_streamfunction_scalar_point_returns_float():
    g = circle_grid(0.1, 64)
    mu = np.full(g.n, 1.0 / (2.0 * np.pi))
    out = eval_streamfunction(g, mu, np.array([3.0, 0.0]))
    assert isinstance(out, float)
