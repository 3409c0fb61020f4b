"""Ring-kernel profile F and elliptic-integral backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import elliptic_ke, f_direct
from thinring.special import SPLIT_S_MAX, f_elliptic, f_split

# F(s) to 21 digits, computed from the defining integral
# int_0^pi cos t / sqrt(4 sin^2(t/2) + s) dt with 40-digit quadrature
F_REFERENCE = {
    1e-8: 9.289781934199359737405,
    1e-6: 6.98719844326126034277,
    1e-4: 4.684730813310008853432,
    1e-2: 2.389613036138060592939,
    1e-1: 1.284742782966080751588,
    0.5: 0.6174121116668531479636,
    1.0: 0.3931751483720047310407,
    2.0: 0.2240142928364156370448,
    4.0: 0.1128885424104676977925,
    10.0: 0.03828867028511514259989,
    100.0: 0.001525098522254295770358,
    1e4: 1.570325235110924379801e-6,
}

LOG8 = 3.0 * np.log(2.0)
LOG4 = 2.0 * np.log(2.0)


def log_w(s):
    # the split's variable w = s/(4+s) = k'^2
    return np.log(s / (4.0 + s))


def test_f_elliptic_against_frozen_values():
    s = np.array(sorted(F_REFERENCE))
    ref = np.array([F_REFERENCE[v] for v in sorted(F_REFERENCE)])
    err = np.abs(f_elliptic(s) - ref) / np.maximum(np.abs(ref), 1.0)
    assert np.max(err) < 1e-12


def test_f_direct_against_frozen_values():
    for s, ref in F_REFERENCE.items():
        assert abs(f_direct(s) - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_elliptic_vs_direct_on_wide_grid():
    # acceptance budget is 1e-10; measured agreement ~3e-13
    s = np.geomspace(1e-8, 10.0, 120)
    quad = np.array([f_direct(v) for v in s])
    assert np.max(np.abs(f_elliptic(s) - quad)) <= 1e-10


def test_split_reconstructs_f():
    s = np.geomspace(1e-12, 1.0, 200)
    p, q = f_split(s)
    assert np.max(np.abs(p + q * log_w(s) - f_elliptic(s))) < 1e-11


def test_derivatives_of_split_and_elliptic_agree():
    # F' from the split's w-derivatives, F' = (p_w + q_w log w + q / w) w',
    # against F' through the AGM, and that against central differences of
    # F; the split's values do not change when the derivatives are asked for
    s = np.geomspace(1e-10, 1.0, 60)
    p, q, dp, dq = f_split(s, derivative=True)
    w = s / (4.0 + s)
    split_slope = (dp + dq * np.log(w) + q / w) * 4.0 / (4.0 + s) ** 2
    big_f, slope = f_elliptic(s, derivative=True)
    assert np.max(np.abs(split_slope / slope - 1.0)) < 1e-12
    assert np.array_equal(big_f, f_elliptic(s))
    assert all(np.array_equal(a, b) for a, b in zip((p, q), f_split(s)))
    # beyond the split range, up to the s = 4 of a section at eps = 1/2
    far = np.geomspace(1e-3, 10.0, 9)
    step = 1e-5 * far
    central = (f_elliptic(far + step) - f_elliptic(far - step)) / (2.0 * step)
    slope = f_elliptic(far, derivative=True)[1]
    assert np.max(np.abs(central / slope - 1.0)) < 1e-7
    assert f_split(0.5, derivative=True)[2:] == tuple(
        v[0] for v in f_split(np.array([0.5]), derivative=True)[2:])


def test_split_against_frozen_values():
    s = np.array([v for v in sorted(F_REFERENCE) if v <= 1.0])
    ref = np.array([F_REFERENCE[v] for v in s])
    p, q = f_split(s)
    assert np.max(np.abs(p + q * log_w(s) - ref)) < 1e-14


def test_split_endpoint_values():
    # F = p + q log w with p(0) = log 4 - 2 and q(0) = -1/2
    p, q = f_split(np.array([0.0]))
    assert abs(p[0] - (LOG4 - 2.0)) < 1e-14
    assert abs(q[0] + 0.5) < 1e-14


def test_split_value_independent_of_batch():
    # the series is truncated from the largest w of a call; a point
    # evaluated alone and beside s = SPLIT_S_MAX must agree to roundoff
    s = np.geomspace(1e-12, 1e-3, 50)
    p_all, q_all = f_split(np.append(s, SPLIT_S_MAX))
    for i, v in enumerate(s):
        p, q = f_split(v)
        assert abs(p - p_all[i]) <= 2e-16
        assert abs(q - q_all[i]) <= 2e-16


def test_split_empty_and_zero_inputs():
    p, q = f_split(np.array([]))
    assert p.shape == (0,) and q.shape == (0,)
    # every zero takes the one-term sum: q is exactly -1/2 and p is the
    # table's p(0) = log 4 - 2
    p, q = f_split(np.zeros(4))
    p0, q0 = f_split(0.0)
    assert np.all(p == p0) and np.all(q == q0) and q0 == -0.5
    assert abs(p0 - (LOG4 - 2.0)) <= 2e-16


def test_split_range_guard():
    for s in (1.5, -1e-3, np.nan, np.inf, [0.1, np.nan]):
        with pytest.raises(ValueError):
            f_split(np.array(s))
    with pytest.raises(ValueError):
        f_split(np.nan)


def test_elliptic_domain_guard():
    for s in (0.0, -1.0, np.nan, np.inf, [1.0, np.nan]):
        with pytest.raises(ValueError):
            f_elliptic(np.array(s))
    with pytest.raises(ValueError):
        f_elliptic(np.nan)


def test_f_monotone_decreasing_and_positive():
    s = np.geomspace(1e-9, 1e5, 400)
    f = f_elliptic(s)
    assert np.all(f > 0.0)
    assert np.all(np.diff(f) < 0.0)


def test_elliptic_ke_legendre_relation():
    # E K' + E' K - K K' = pi/2 for complementary moduli
    for k2 in np.linspace(0.02, 0.98, 25):
        k, kc = np.sqrt(k2), np.sqrt(1.0 - k2)
        bk, be = elliptic_ke(k)
        ck, ce = elliptic_ke(kc)
        assert abs(be * ck + ce * bk - bk * ck - np.pi / 2.0) < 5e-12


def test_elliptic_ke_degenerate_endpoint():
    k0, e0 = elliptic_ke(0.0)
    assert abs(k0 - np.pi / 2.0) < 1e-15
    assert abs(e0 - np.pi / 2.0) < 1e-15


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-7.5, max_value=0.0))
def test_split_consistent_with_elliptic(log10_s):
    s = 10.0**log10_s
    p, q = f_split(np.array([s]))
    assert abs(p[0] + q[0] * log_w(s) - f_elliptic(np.array([s]))[0]) < 1e-11


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-6, max_value=9.9))
def test_direct_quadrature_matches_elliptic(s):
    assert abs(f_direct(s) - f_elliptic(np.array([s]))[0]) < 1e-10


def test_small_s_log_asymptote():
    # F(s) = -(1/2) log s + log 8 - 2 + O(s log s)
    for s in (1e-10, 1e-8, 1e-6):
        lead = -0.5 * np.log(s) + LOG8 - 2.0
        assert abs(f_elliptic(np.array([s]))[0] - lead) < 40.0 * s * abs(np.log(s))