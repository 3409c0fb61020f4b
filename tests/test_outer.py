"""Outer operator: log quadrature, Nystrom assembly, bordered solves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (assemble_cartesian, bordered_solve_dense, boundary_points,
                     dtheta_direct, kernel_direct, unfold_rows)
from thinring.outer import assemble_full, kress_log_weights, solve_outer
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


def capacity(grid):
    # (mu, const) of K mu = const, m w mu = 1 on the eps -> 0 limit operator,
    # which only the oracle assembles
    return bordered_solve_dense(grid, assemble_cartesian(grid), np.zeros(grid.n))


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
# The eps -> 0 operator is the oracle's assemble_cartesian at eps = 0, on the
# library's kress_log_weights.

def test_limit_operator_is_fourier_multiplier_on_circle():
    # cos(l alpha) -> cos(l alpha) / (2 l), constants -> 0 at theta = 0; on
    # even vectors the row block gives rows 0..n/2 of the image
    g = circle_grid(0.0, 128)
    mat = assemble_cartesian(g)
    rows = g.alpha[:g.n // 2 + 1]
    assert np.max(np.abs(mat @ np.ones(g.n))) < 1e-10
    for l in range(1, 17):
        img = mat @ np.cos(l * g.alpha)
        assert np.max(np.abs(img - np.cos(l * rows) / (2.0 * l))) < 1e-10


def test_capacity_density_of_circle():
    mu, const = capacity(circle_grid(0.0, 128))
    assert np.max(np.abs(mu - 1.0 / (2.0 * np.pi))) < 1e-10
    assert abs(const) < 1e-12


def test_capacity_constant_is_second_order_in_shape():
    n = 128
    const = {}
    for t in (0.1, 0.05):
        g = build_grid(wavy_shape((2, t)), 0.0, n)
        const[t] = capacity(g)[1]
    ratio = const[0.1] / const[0.05]
    assert 3.0 < ratio < 5.0


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_capacity_density_derivative_multiplier(l):
    # d mu / d a_l at theta = 0 is -(1 / 2 pi)(1 - l) cos(l alpha)
    n, t = 128, 1e-5
    mu = {}
    for sign in (+1.0, -1.0):
        g = build_grid(wavy_shape((l, sign * t)), 0.0, n)
        mu[sign] = capacity(g)[0]
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
        img[sign] = assemble_cartesian(g) @ np.ones(n)
    fd = (img[1.0] - img[-1.0]) / (2.0 * t)
    alpha = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    assert np.max(np.abs(fd + np.cos(2.0 * alpha) / 4.0)) < 1e-8


# --------------------------------------------------------------- full kernel

def pair_data(g):
    chi = boundary_points(g)
    d = chi[:, None, :] - chi[None, :, :]
    s1 = np.einsum("ijk,ijk->ij", d, d)
    radial = 1.0 + g.eps * chi[:, 0]
    s2 = np.sqrt(np.outer(radial, radial))
    return s1, s2


def test_full_assembly_reconstructs_pointwise_kernel():
    # undo the quadrature split: A log(4 sin^2) + B must equal the direct
    # elliptic evaluation off the diagonal, on rows 0..n/2, which hold one
    # of every pair of nodes under the reflection j -> n - j
    g = build_grid(wavy_shape((2, 0.05), (3, -0.02)), 0.1, 128)
    n, rows = g.n, slice(0, g.n // 2 + 1)
    mat = assemble_full(g)
    s1, s2 = (x[rows] for x in pair_data(g))
    s = g.eps**2 * s1 / s2**2
    p, q = f_split(s)
    a = (g.m[None, :] * s2 / (2.0 * np.pi)) * q
    r = kress_log_weights(n)
    idx = (np.arange(n)[rows, None] - np.arange(n)[None, :]) % n
    b = (mat - a * r[idx]) * n / (2.0 * np.pi)
    half = 0.5 * (g.alpha[rows, None] - g.alpha[None, :])
    chord = 4.0 * np.sin(half) ** 2
    off = ~np.eye(n, dtype=bool)[rows]
    rec = a[off] * np.log(chord[off]) + b[off]
    assert np.max(np.abs(rec - kernel_direct(g)[rows][off])) < 1e-10


@pytest.mark.parametrize("eps", [0.05, 0.3])
def test_weighted_kernel_symmetry(eps):
    # K(a, a~) / m(a~) is symmetric; holds for the assembled matrix too
    g = build_grid(wavy_shape((2, 0.08), (4, 0.03)), eps, 96)
    off = ~np.eye(g.n, dtype=bool)
    k = kernel_direct(g) / g.m[None, :]
    assert np.max(np.abs((k - k.T)[off])) < 1e-10
    m = unfold_rows(assemble_full(g)) / g.m[None, :]
    assert np.max(np.abs(m - m.T)) < 1e-10


def test_assemblies_return_the_row_block():
    # rows 0..n/2 against all n columns: no n x n matrix is assembled
    for n in (64, 96):
        grid = build_grid(wavy_shape((2, 0.05), (3, -0.02)), 0.02, n)
        assert assemble_full(grid).shape == (n // 2 + 1, n)


def test_full_assembly_rejects_eps_zero():
    with pytest.raises(ValueError, match="eps > 0"):
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
    m = unfold_rows(mat) / g.m[None, :]
    assert np.max(np.abs(m - m.T)) < 1e-10


ORACLE_SHAPES = {
    "circle": np.zeros(3),
    "wavy": np.array([0.0, 0.0, 0.05, -0.02, 0.01]),
    "decay": np.r_[0.0, 0.02 / (1.0 + np.arange(1, 33)) ** 2],
}
ORACLE_CASES = [
    (eps, shape, n)
    for eps in (0.005, 0.02, 0.3)
    for shape, coeffs in ORACLE_SHAPES.items()
    for n in (96, 256) if n >= 4 * coeffs.size
] + [(0.6, "circle", 96), (0.6, "circle", 256)]


@pytest.mark.parametrize("eps, shape, n", ORACLE_CASES)
def test_polar_assembly_matches_cartesian(eps, shape, n):
    # Q in polar form and one smooth log against the Cartesian difference
    # tensor on every entry, diagonal included; eps = 0.6 takes the far-pair
    # fallback
    grid = build_grid(FourierShape(ORACLE_SHAPES[shape].copy()), eps, n)
    mat = assemble_full(grid)
    ref = assemble_cartesian(grid)
    assert np.max(np.abs(mat - ref)) < 1e-13 * np.max(np.abs(ref))


# ------------------------------------------------------- diagonal of B part

def smooth_part(shape, eps, alpha, alpha_src):
    # standalone recomputation of the smooth factor B(alpha, alpha~)
    def chi(t):
        return (1.0 + shape.theta(t)) * np.array([np.cos(t), np.sin(t)])

    def metric(t):
        return np.hypot(dtheta_direct(shape, t), 1.0 + shape.theta(t))

    d = chi(alpha) - chi(alpha_src)
    s1 = float(d @ d)
    s2 = np.sqrt((1.0 + eps * chi(alpha)[0]) * (1.0 + eps * chi(alpha_src)[0]))
    s = eps**2 * s1 / s2**2
    p, q = f_split(np.array([s]))
    log_q = np.log(s1 / (4.0 * np.sin(0.5 * (alpha - alpha_src)) ** 2))
    # F = p + q log w with log w = log(4 sin^2) + log(eps^2 Q / (s2^2 (4 + s)))
    return (metric(alpha_src) * s2 / (2.0 * np.pi)
            * (p[0] + q[0] * (2.0 * np.log(eps) + log_q - 2.0 * np.log(s2)
                              - np.log(4.0 + s))))


def test_smooth_part_diagonal_matches_extrapolation():
    # Richardson extrapolation of B toward the diagonal against the closed
    # form B(a, a) = m s2 / (2 pi) (log 8 - 2 + log(s2 / (eps m)))
    shape = wavy_shape((2, 0.1), (3, 0.05))
    eps, n = 0.2, 64
    g = build_grid(shape, eps, n)
    mat = assemble_full(g)     # its diagonal is M[i, i] for i = 0..n/2
    r0 = kress_log_weights(n)[0]
    m = g.m[:n // 2 + 1]
    s2_diag = 1.0 + eps * g.x1[:n // 2 + 1]
    a_diag = -m * s2_diag / (4.0 * np.pi)
    b_from_matrix = (np.diag(mat) - a_diag * r0) * n / (2.0 * np.pi)
    closed = (m * s2_diag / (2.0 * np.pi)
              * (LOG8 - 2.0 + np.log(s2_diag / (eps * m))))
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
    lo = solve_outer(g, 0.3)
    hi = solve_outer(g, 0.7)
    mid = solve_outer(g, 0.5)
    assert np.max(np.abs(lo.mu + hi.mu - 2.0 * mid.mu)) < 1e-12
    assert abs(lo.gamma + hi.gamma - 2.0 * mid.gamma) < 1e-12


def test_outer_solution_has_unit_circulation():
    g = build_grid(wavy_shape((2, 0.05)), 0.05, 128)
    sol = solve_outer(g, 0.4)
    assert abs(np.sum(g.m * sol.mu) * g.weight - 1.0) < 1e-12


@pytest.mark.parametrize("grid", [
    build_grid(wavy_shape((2, 0.05), (3, -0.02), (5, 0.01)), 0.02, 128),
    circle_grid(0.6, 96),
], ids=["wavy", "far_field"])
def test_folded_outer_solve_matches_dense(grid):
    # the even-symmetry fold against the unfolded (n+1) bordered system;
    # eps = 0.6 also takes the far-pair fallback of the assembly
    sol = solve_outer(grid, 0.4)
    rhs = 0.2 * (1.0 + grid.eps * grid.x1) ** 2
    mu, gamma = bordered_solve_dense(grid, assemble_full(grid), rhs)
    assert np.max(np.abs(sol.mu - mu)) < 1e-12
    assert abs(sol.gamma - gamma) < 1e-12


@pytest.mark.parametrize("grid", [
    build_grid(wavy_shape((2, 0.05), (3, -0.02)), 0.02, 96),
    circle_grid(0.6, 96),
], ids=["wavy", "far_field"])
def test_block_mirror_matches_rows_evaluated_directly(grid):
    # alpha -> -alpha maps node j to n - j, so M[n-i, n-j] = M[i, j]: the
    # mirror of the block's rows 1..n/2-1 against rows n/2+1..n-1 assembled
    # directly by the oracle, and rows 0 and n/2 against their own mirror
    n, h = grid.n, grid.n // 2
    block = assemble_full(grid)
    direct = assemble_cartesian(grid, np.arange(h + 1, n))
    scale = np.max(np.abs(block))
    assert np.max(np.abs(unfold_rows(block)[h + 1:] - direct)) < 1e-13 * scale
    rev = (-np.arange(n)) % n
    ends = block[[0, h]]
    assert np.max(np.abs(ends[:, rev] - ends)) < 1e-13 * scale


def test_flux_constant_leading_order():
    # gamma + w/2 - (log 8 + log(1/eps) - 2) / (2 pi) = O(eps^2 log eps)
    defect = []
    for eps in (0.04, 0.02, 0.01):
        g = circle_grid(eps, 256)
        w = (np.log(8.0 / eps) - 0.5) / (4.0 * np.pi)     # S = 0
        sol = solve_outer(g, w)
        lead = (LOG8 + np.log(1.0 / eps) - 2.0) / (2.0 * np.pi)
        defect.append(abs(sol.gamma + 0.5 * w - lead))
    assert defect[0] > defect[1] > defect[2]
    assert defect[2] < 1e-3
    assert defect[0] / defect[2] > 6.0
