"""Parameter maps, tension laws, asymptotics, speed law, degeneracy margins."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinring.physics import (DimensionalState, NondimParams, PhysicalSetup,
                              SigmaLaw, asymptotic_wgn, check_sigma,
                              degeneracy_margin, dimensionless_state,
                              kelvin_hicks, nondimensionalize,
                              nu_sigma_rescaled, redimensionalize,
                              s_asymptotic)

K0_RHO0 = 1.0 / (2.0 * math.pi**2)


def k0(rho):
    return 8.0 * rho + K0_RHO0


def water_air_setup(**overrides):
    kw = dict(rho_in=1.2, rho_out=998.0, R=2.0, eps_bar=0.04, b_bar=3.0,
              xi_bar=1.5)
    kw.update(overrides)
    return PhysicalSetup(**kw)


# -------------------------------------------------------------- tension laws

def test_sigma_law_shapes():
    assert SigmaLaw()(0.01) == 0.0
    assert SigmaLaw(kind="c_over_eps", c=4.0)(0.01) == 400.0
    law = SigmaLaw(kind="c_log_over_eps", c=2.0)
    assert abs(law(0.01) - 200.0 * math.log(100.0)) < 1e-12
    law = SigmaLaw(kind="c_power", c=3.0, p=1.5)
    assert abs(law(0.04) - 3.0 / 0.04**1.5) < 1e-12
    law = SigmaLaw(kind="custom", fn=lambda e: 7.0)
    assert law(0.02) == 7.0


def test_sigma_law_validation():
    with pytest.raises(ValueError, match="kind"):
        SigmaLaw(kind="quadratic")
    with pytest.raises(ValueError, match="nonnegative"):
        SigmaLaw(kind="c_over_eps", c=-1.0)
    with pytest.raises(ValueError, match="exponent"):
        SigmaLaw(kind="c_power", c=1.0)
    with pytest.raises(ValueError, match="exponent"):
        SigmaLaw(kind="c_power", c=1.0, p=2.5)
    with pytest.raises(ValueError, match="callable"):
        SigmaLaw(kind="custom")
    with pytest.raises(ValueError, match="eps"):
        SigmaLaw(kind="c_over_eps", c=1.0)(0.0)
    with pytest.raises(ValueError, match="eps"):
        SigmaLaw(kind="c_over_eps", c=1.0)(math.nan)
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SigmaLaw(kind="c_over_eps", c=c)
        with pytest.raises(ValueError, match="finite"):
            SigmaLaw(kind="c_power", c=c, p=1.5)
    with pytest.raises(ValueError, match="finite"):
        NondimParams(rho=math.inf, sigma_law=SigmaLaw(), omega=math.inf)
    for omega in (math.nan, -1.0):
        with pytest.raises(ValueError, match="omega"):
            NondimParams(rho=0.0, sigma_law=SigmaLaw(), omega=omega)


def test_sigma_law_omega_and_zero_flag():
    assert math.isinf(SigmaLaw().omega)
    assert SigmaLaw(kind="c_over_eps", c=0.0).is_zero
    assert SigmaLaw(kind="c_over_eps", c=4.0).omega == 0.25
    assert SigmaLaw(kind="c_log_over_eps", c=1.0).omega == 0.0
    assert SigmaLaw(kind="c_power", c=1.0, p=1.5).omega == 0.0
    assert SigmaLaw(kind="custom", fn=lambda e: 1.0 / e).omega is None


@pytest.mark.parametrize("law", [
    SigmaLaw(kind="c_over_eps", c=4.0),
    SigmaLaw(kind="c_log_over_eps", c=2.0),
    SigmaLaw(kind="c_power", c=3.0, p=1.5),
    SigmaLaw(kind="custom", fn=lambda e: 4.0 / e + 2.0),
])
def test_sigma_derivative_matches_finite_difference(law):
    eps, h = 0.02, 1e-7
    fd = (law(eps + h) - law(eps - h)) / (2.0 * h)
    assert abs(law.d_sigma(eps) - fd) < 1e-4 * abs(fd)


def test_sigma_law_scaling():
    law = SigmaLaw(kind="c_over_eps", c=4.0)
    assert law.scaled(0.5)(0.01) == 0.5 * law(0.01)
    custom = SigmaLaw(kind="custom", fn=lambda e: 3.0 / e)
    assert custom.scaled(2.0)(0.01) == 600.0
    with pytest.raises(ValueError):
        law.scaled(-1.0)


# ----------------------------------------------------------- parameter maps

def test_nondimensionalization_formulas():
    setup = water_air_setup()
    params = nondimensionalize(setup)
    a = math.pi * setup.R**2 * setup.eps_bar**2 * setup.xi_bar
    b = setup.R * setup.b_bar
    rho = (a / b) ** 2 * setup.rho_in / setup.rho_out / (4.0 * math.pi) ** 2
    assert abs(params.a - a) < 1e-15 * abs(a)
    assert abs(params.b - b) < 1e-15 * abs(b)
    assert abs(params.rho - rho) < 1e-15 * abs(rho)
    assert params.sigma_law.is_zero


def test_tension_rescaling_in_nondimensionalization():
    bar_law = SigmaLaw(kind="c_over_eps", c=0.07)
    setup = water_air_setup(sigma_bar_law=bar_law)
    params = nondimensionalize(setup)
    factor = 2.0 * setup.R**3 / (setup.rho_out * (setup.R * setup.b_bar) ** 2)
    assert abs(params.sigma_law(0.01) - factor * bar_law(0.01)) < 1e-15
    assert abs(params.omega - 1.0 / (factor * 0.07)) < 1e-12


def test_dimensional_round_trip():
    setup = water_air_setup()
    params = nondimensionalize(setup)
    state = SimpleNamespace(w=0.83, gamma=0.41, nu=-0.025, eps=setup.eps)
    dim = redimensionalize(params, state, setup)
    w, gamma, nu = dimensionless_state(setup, dim, setup.eps)
    assert abs(w - state.w) < 1e-14 * abs(state.w)
    assert abs(gamma - state.gamma) < 1e-14 * abs(state.gamma)
    assert abs(nu - state.nu) < 1e-14 * abs(state.nu)


def test_physical_setup_validation():
    with pytest.raises(ValueError, match="heavy-core"):
        water_air_setup(rho_in=2000.0)
    with pytest.raises(ValueError, match="eps_bar < R"):
        water_air_setup(eps_bar=2.5)
    with pytest.raises(ValueError, match="b_bar"):
        water_air_setup(b_bar=0.0)
    with pytest.raises(ValueError, match="positive"):
        water_air_setup(R=-1.0)
    for field in ("rho_in", "rho_out", "R", "eps_bar", "b_bar", "xi_bar"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                water_air_setup(**{field: bad})
    assert water_air_setup().eps == 0.02


# ---------------------------------------------------------------- asymptotics

def test_asymptotic_values_at_classical_point():
    w, gamma, nu = asymptotic_wgn(0.01, 0.0, SigmaLaw())
    log800 = math.log(800.0)
    assert abs(w - (log800 - 0.5) / (4.0 * math.pi)) < 1e-15
    assert abs(gamma - (3.0 * log800 / (8.0 * math.pi)
                        - 15.0 / (16.0 * math.pi))) < 1e-15
    assert abs(nu + 1.0 / (4.0 * math.pi**2)) < 1e-17


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=0.001, max_value=0.05))
def test_flux_constant_identity_cancels_parameters(rho, c, eps):
    # gamma = (log 8 + log(1/eps) - 2)/(2 pi) - w/2 independent of rho, sigma
    w, gamma, _ = asymptotic_wgn(eps, rho, SigmaLaw(kind="c_over_eps", c=c))
    lead = (math.log(8.0 / eps) - 2.0) / (2.0 * math.pi)
    assert abs(gamma - (lead - 0.5 * w)) < 1e-12


def test_rescaled_bernoulli_constant():
    law = SigmaLaw(kind="c_over_eps", c=4.0)
    rho, eps = 0.03, 0.01
    expect = (4.0 * rho - 1.0 / (4.0 * math.pi**2)) / 4.0 + 1.0
    assert abs(nu_sigma_rescaled(eps, rho, law) - expect) < 1e-14
    with pytest.raises(ValueError):
        nu_sigma_rescaled(eps, rho, SigmaLaw())


def test_speed_coordinate_asymptote():
    law = SigmaLaw(kind="c_over_eps", c=4.0)
    assert abs(s_asymptotic(0.01, 0.25, law)
               - (0.5 * math.pi + 4.0 * math.pi)) < 1e-14
    assert abs(s_asymptotic(0.01, 0.0, SigmaLaw())) == 0.0


# ------------------------------------------------------------------ speed law

def test_speed_law_hollow_core():
    setup = water_air_setup(rho_in=0.0)
    expect = setup.b_bar / (4.0 * math.pi * setup.R) \
        * (math.log(8.0 * setup.R / setup.eps_bar) - 0.5)
    assert abs(kelvin_hicks(setup) - expect) < 1e-15


def test_speed_law_uniform_one_fluid_core():
    # a_bar = b_bar with equal densities: core constant 1/4
    R, eps_bar, b_bar = 2.0, 0.04, 3.0
    xi_bar = b_bar / (math.pi * R * eps_bar**2)
    setup = water_air_setup(rho_in=998.0, xi_bar=xi_bar)
    expect = b_bar / (4.0 * math.pi * R) \
        * (math.log(8.0 * R / eps_bar) - 0.25)
    assert abs(kelvin_hicks(setup) - expect) < 1e-14


def test_speed_law_tension_increment():
    bar_law = SigmaLaw(kind="c_over_eps", c=0.07)
    base = water_air_setup()
    lifted = water_air_setup(sigma_bar_law=bar_law)
    sig = bar_law(base.eps)
    expect = math.pi * base.eps_bar * sig / (base.R * base.b_bar * base.rho_out)
    assert abs(kelvin_hicks(lifted) - kelvin_hicks(base) - expect) < 1e-15


@pytest.mark.parametrize("sigma_c", [0.0, 0.07])
def test_speed_law_agrees_with_redimensionalized_asymptotics(sigma_c):
    law = SigmaLaw(kind="c_over_eps", c=sigma_c) if sigma_c else SigmaLaw()
    setup = water_air_setup(sigma_bar_law=law)
    params = nondimensionalize(setup)
    w, gamma, nu = asymptotic_wgn(setup.eps, params.rho, params.sigma_law)
    state = SimpleNamespace(w=w, gamma=gamma, nu=nu, eps=setup.eps)
    dim = redimensionalize(params, state, setup)
    assert abs(dim.w_bar - kelvin_hicks(setup)) < 1e-13 * abs(dim.w_bar)


# ---------------------------------------------------------- degeneracy margin

def test_margin_pins():
    assert degeneracy_margin(0.0, math.inf) == (math.inf, 2)
    margin, mode = degeneracy_margin(0.0, 0.0)
    assert abs(margin - 1.5) < 1e-15 and mode == 2
    margin, mode = degeneracy_margin(0.0, 3.0 / K0_RHO0)
    assert margin < 1e-12 and mode == 2
    margin, mode = degeneracy_margin(0.0, 3.5 / K0_RHO0)
    assert abs(margin - 0.25) < 1e-12 and mode == 2


def test_margin_beyond_scan_cap():
    margin, mode = degeneracy_margin(0.0, 20000.3 / K0_RHO0)
    assert mode == 19999
    assert abs(margin - 0.3 * 19998.0 / 19999.0) < 1e-8


@pytest.mark.parametrize("k", [100.5, 999.999, 9999.5, 10000.5, 10001.2,
                               1e6 + 0.3])
def test_margin_matches_brute_force_scan(k):
    # the three closed-form candidates against every mode up to past K
    omega = k / K0_RHO0
    k_used = omega * K0_RHO0
    l = np.arange(2, math.ceil(k_used) + 3, dtype=float)
    vals = np.abs(k_used * (1.0 - l) - 1.0 + l**2) / l
    assert degeneracy_margin(0.0, omega) == (float(np.min(vals)),
                                             int(l[np.argmin(vals)]))


def test_margin_validation():
    with pytest.raises(ValueError, match="omega"):
        degeneracy_margin(0.0, None)
    for omega in (-1.0, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            degeneracy_margin(0.0, omega)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=60.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_margin_matches_factored_symbol(k, rho):
    omega = k / k0(rho)
    margin, mode = degeneracy_margin(rho, omega)
    l = np.arange(2, 201, dtype=float)
    vals = (l - 1.0) * np.abs(l + 1.0 - k) / l
    assert abs(margin - np.min(vals)) < 1e-12
    assert mode == int(l[np.argmin(vals)])


# ------------------------------------------------------------- admissibility

def test_check_sigma_zero_law_is_classical():
    report = check_sigma(SigmaLaw(), 0.7)
    assert report.admissible
    assert math.isinf(report.omega) and math.isinf(report.margin)
    assert any("classical" in m for m in report.messages)


def test_check_sigma_reciprocal_law():
    report = check_sigma(SigmaLaw(kind="c_over_eps", c=4.0), 0.0)
    assert report.admissible
    assert report.omega == 0.25 and report.omega_source == "analytic"
    assert report.eps2_sigma_ok and report.derivative_ok


def test_check_sigma_flags_excluded_integer():
    omega = 3.0 / K0_RHO0
    report = check_sigma(SigmaLaw(kind="c_over_eps", c=1.0 / omega), 0.0)
    assert report.excluded and not report.admissible
    assert any("excluded integer set" in m for m in report.messages)
    assert report.worst_mode == 2


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_check_sigma_log_law_always_admissible(rho):
    report = check_sigma(SigmaLaw(kind="c_log_over_eps", c=1.0), rho)
    assert report.admissible and report.omega == 0.0
    assert abs(report.margin - 1.5) < 1e-15


def test_check_sigma_power_law_admissible():
    report = check_sigma(SigmaLaw(kind="c_power", c=1.0, p=1.5), 0.0)
    assert report.admissible and report.omega == 0.0


def test_check_sigma_estimates_black_box_reciprocal():
    report = check_sigma(SigmaLaw(kind="custom", fn=lambda e: 4.0 / e), 0.0)
    assert report.omega_source == "estimated"
    assert abs(report.omega - 0.25) < 1e-9
    assert report.admissible


def test_check_sigma_estimates_black_box_log_decay():
    fn = lambda e: math.log(1.0 / e) / e
    report = check_sigma(SigmaLaw(kind="custom", fn=fn), 0.0)
    assert abs(report.omega) < 1e-6
    assert report.admissible


def test_check_sigma_rejects_negative_law():
    with pytest.raises(ValueError, match="negative"):
        check_sigma(SigmaLaw(kind="custom", fn=lambda e: -1.0), 0.0)


def test_check_sigma_rejects_slow_decay():
    # sigma = 1/eps^3 keeps omega = 0 but eps^2 sigma diverges
    report = check_sigma(SigmaLaw(kind="custom", fn=lambda e: e**-3), 0.0)
    assert not report.eps2_sigma_ok
    assert not report.admissible


def test_check_sigma_rejects_oscillatory_law():
    fn = lambda e: (2.0 + math.sin(1.0 / e)) / e
    report = check_sigma(SigmaLaw(kind="custom", fn=fn), 0.0)
    assert not report.admissible
