"""Section geometry: Fourier shapes, boundary grids, constraints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (dtheta_direct, h_direct, project_constraints_sampled,
                     resample_dense)
from thinring.inner import InnerSolution
from thinring.shape import (FourierShape, GeometryError, area, build_grid,
                            cosine_coeffs, moment_x1, project_constraints,
                            resample_trig, sobolev_norm)


def small_shape(coeffs):
    c = np.zeros(len(coeffs))
    c[:] = coeffs
    return FourierShape(c)


def test_unit_circle_grid():
    g = build_grid(FourierShape(np.zeros(3)), 0.0, 64)
    assert np.allclose(g.m, 1.0, atol=1e-15)
    assert np.allclose(g.h, 1.0, atol=1e-13)     # h = kappa at eps = 0
    assert np.allclose(g.x1, np.cos(g.alpha), atol=1e-15)


def test_h_at_positive_eps_on_circle():
    # h = kappa + eps (n . e1) / (1 + eps x1); on the circle n = chi
    eps = 0.1
    g = build_grid(FourierShape(np.zeros(3)), eps, 64)
    expect = 1.0 + eps * np.cos(g.alpha) / (1.0 + eps * np.cos(g.alpha))
    assert np.max(np.abs(g.h - expect)) < 1e-13


@pytest.mark.parametrize("eps", [0.03, 0.3])
def test_h_on_non_circular_section(eps):
    # kappa and n . e1 from Cartesian derivatives of direct cosine sums
    shape = small_shape([0.0, 0.0, 0.05, -0.02, 0.01])
    g = build_grid(shape, eps, 128)
    assert np.max(np.abs(g.h - h_direct(shape, eps, g.alpha))) < 1e-13


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-0.02, max_value=0.02), min_size=3,
                max_size=8))
def test_gauss_bonnet(coeffs):
    shape = small_shape([0.0] + coeffs)
    g = build_grid(shape, 0.0, 256)
    total = np.sum(g.h * g.m) * g.weight     # h = kappa exactly at eps = 0
    assert abs(total - 2.0 * np.pi) < 1e-10


def test_area_and_moment_against_dense_trapezoid():
    shape = small_shape([0.01, -0.004, 0.05, -0.02, 0.013])
    alpha = np.linspace(0.0, 2.0 * np.pi, 1 << 15, endpoint=False)
    r = 1.0 + shape.theta(alpha)
    da = 2.0 * np.pi / alpha.size
    assert abs(area(shape) - 0.5 * np.sum(r**2) * da) < 1e-13
    assert abs(moment_x1(shape) - np.sum(r**3 * np.cos(alpha)) * da / 3.0) < 1e-13


def test_projection_restores_constraints_and_keeps_high_modes():
    shape = small_shape([0.0, 0.0, 0.04, -0.015, 0.006])
    proj = project_constraints(shape)
    assert abs(area(proj) - np.pi) < 1e-12
    assert abs(moment_x1(proj)) < 1e-12
    assert np.array_equal(proj.coeffs[2:], shape.coeffs[2:])
    # a_0 absorbs the quadratic area excess of the high modes
    assert proj.coeffs[0] < 0.0


def test_grid_samples_at_smallest_allowed_n():
    # n = 4 (M + 1) is the coarsest grid build_grid accepts; theta, theta'
    # (through m) and theta'' (through h = kappa) against direct sums
    rng = np.random.default_rng(11)
    a = rng.normal(size=9) * 0.02
    shape = FourierShape(a)
    g = build_grid(shape, 0.0, 36)
    theta = shape.theta(g.alpha)
    m = np.hypot(dtheta_direct(shape, g.alpha), 1.0 + theta)
    assert np.max(np.abs(g.theta - theta)) < 1e-13
    assert np.max(np.abs(g.m - m)) < 1e-13
    assert np.max(np.abs(g.h - h_direct(shape, 0.0, g.alpha))) < 1e-13


@pytest.mark.parametrize("coeffs", [[0.1], [0.0, 0.2, 0.05]])
def test_projection_pads_and_handles_large_a1(coeffs):
    shape = small_shape(coeffs)
    proj = project_constraints(shape)
    assert proj.coeffs.size == max(len(coeffs), 2)
    assert abs(area(proj) - np.pi) < 1e-12
    assert abs(moment_x1(proj)) < 1e-12
    assert np.array_equal(proj.coeffs[2:], shape.coeffs[2:])


_RNG = np.random.default_rng(5)


@pytest.mark.parametrize("coeffs", [
    *(_RNG.normal(size=size) * 0.03 / np.arange(1, size + 1)
      for size in (2, 3, 9, 17, 33)),
    # the largest deformations of the core tests
    [0.0, 0.0, 0.3], np.r_[np.zeros(8), 0.08],
    np.r_[0.0, 0.0, 0.02, np.full(20, 0.002)]])
def test_projection_matches_sampled_oracle(coeffs):
    # the closed-form cubic against Newton on boundary samples
    shape = FourierShape(coeffs)
    got = project_constraints(shape).coeffs
    want = project_constraints_sampled(shape).coeffs
    assert np.max(np.abs(got - want)) < 1e-13
    assert abs(moment_x1(FourierShape(want))) < 1e-13


def test_projection_failure_is_reported():
    with pytest.raises(GeometryError):
        project_constraints(small_shape([0.0, 0.0, 5.0]))


def test_sobolev_norm_single_mode_pin():
    # theta = cos(2 alpha): ||theta||_{H^k} = sqrt(pi 3^{2k})
    shape = small_shape([0.0, 0.0, 1.0])
    for k in (0, 1, 5):
        assert np.isclose(sobolev_norm(shape, k), np.sqrt(np.pi * 3.0 ** (2 * k)),
                          rtol=1e-14)


def test_curvature_trace_linearization_in_theta():
    # D_theta h at theta = 0, eps = 0 is -(delta + delta'') for delta = cos(l a)
    n, t = 128, 1e-6
    for l in (2, 3, 5):
        c = np.zeros(l + 1)
        c[l] = t
        gp = build_grid(FourierShape(c), 0.0, n)
        gm = build_grid(FourierShape(-c), 0.0, n)
        fd = (gp.h - gm.h) / (2.0 * t)
        expect = (l * l - 1.0) * np.cos(l * gp.alpha)
        assert np.max(np.abs(fd - expect)) < 1e-6


def test_curvature_trace_linearization_in_eps():
    # D_eps h at theta = 0 is y_1 = cos(alpha)
    n, t = 128, 1e-7
    gp = build_grid(FourierShape(np.zeros(3)), t, n)
    gm = build_grid(FourierShape(np.zeros(3)), 0.0, n)
    fd = (gp.h - gm.h) / t
    assert np.max(np.abs(fd - np.cos(gp.alpha))) < 1e-6


def test_geometry_validation():
    with pytest.raises(GeometryError):
        build_grid(small_shape([0.0, 0.0, 1.2]), 0.0, 64)  # 1 + theta <= 0
    with pytest.raises(GeometryError):
        build_grid(FourierShape(np.zeros(3)), 1.0, 64)  # eps (1+theta) >= 1
    with pytest.raises(GeometryError):
        build_grid(small_shape([0.0] * 17), 0.0, 32)  # n < 4 (M+1)
    with pytest.raises(ValueError):
        build_grid(FourierShape(np.zeros(3)), -0.1, 64)
    with pytest.raises(ValueError):
        build_grid(FourierShape(np.zeros(3)), float("nan"), 64)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            FourierShape([0.0, 0.0, bad])
    for bad in ([], np.zeros((2, 2))):
        with pytest.raises(ValueError, match="nonempty 1-d"):
            FourierShape(bad)


def test_cosine_projection_round_trip():
    rng = np.random.default_rng(7)
    a = rng.normal(size=9) * 0.1
    shape = FourierShape(a)
    alpha = 2.0 * np.pi * np.arange(64) / 64
    got = cosine_coeffs(shape.theta(alpha), 8)
    assert np.max(np.abs(got - a)) < 1e-14


def test_cosine_projection_rejects_unresolved_modes():
    with pytest.raises(ValueError):
        cosine_coeffs(np.zeros(16), 8)


@pytest.mark.parametrize("call", [
    lambda v: resample_trig(v, -4),
    lambda v: resample_trig(v, 0),
    lambda v: cosine_coeffs(v, -3),
    lambda v: InnerSolution(np.zeros(8), v, {}).lam_on(0),
], ids=["resample-negative", "resample-zero", "cosine-negative", "lam_on-zero"])
def test_resampling_rejects_unusable_sizes(call):
    # a negative or zero size must not return values or fail elsewhere
    with pytest.raises(ValueError, match="must be"):
        call(np.arange(8.0))


def test_resample_preserves_band_limited_data():
    alpha32 = 2.0 * np.pi * np.arange(32) / 32
    alpha48 = 2.0 * np.pi * np.arange(48) / 48
    vals = 0.3 + np.cos(3 * alpha32) - 0.2 * np.sin(7 * alpha32)
    up = resample_trig(vals, 48)
    expect = 0.3 + np.cos(3 * alpha48) - 0.2 * np.sin(7 * alpha48)
    assert np.max(np.abs(up - expect)) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 7, 16, 31, 32, 64])
def test_resample_matches_dense_sum(n):
    rng = np.random.default_rng(n)
    coarser = {max(1, n - 1), max(1, n // 2), max(1, n // 3), 1}
    for n_target in (n, n + 1, 2 * n, 256, 257, *sorted(coarser)):
        vals = rng.standard_normal(n)
        up = resample_trig(vals, n_target)
        assert up.shape == (n_target,)
        assert np.max(np.abs(up - resample_dense(vals, n_target))) < 1e-13


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-0.01, max_value=0.01), min_size=2,
                max_size=6))
def test_projection_idempotent(coeffs):
    shape = project_constraints(small_shape([0.0, 0.0] + coeffs))
    again = project_constraints(shape)
    assert np.max(np.abs(again.coeffs - shape.coeffs)) < 1e-10