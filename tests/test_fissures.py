"""Tests for fissure geometry, enumeration, charts, and measure quadrature."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisshom.fissures import (
    CurvilinearChart,
    Fissure,
    GeometryParams,
    HalfPaths,
    aperture,
    certified_offsets,
    distinct_lines,
    enumerate_fissures,
    fissure_census,
    fissure_volume_integral,
    solve_psi,
    surface_integral,
)
from fisshom.stochastic import PhaseSequence, ProcessParams, build_path

Q_PARAMS = ProcessParams(kind="aperture_q", mean=0.5, amplitudes=(0.08, 0.05),
                         frequencies=(1.0, math.sqrt(2.0)), seed=7,
                         lower_bound=0.3, upper_bound=0.7, deriv_bound=0.25)
R_PARAMS = ProcessParams(kind="centerline_r", mean=0.0, amplitudes=(0.05,),
                         frequencies=(0.618,))


def make_field(eps=0.25, theta=0.5, seed=21, height=1.0):
    geo = GeometryParams(epsilon=eps, theta=theta, height=height)
    q = build_path(Q_PARAMS)
    r = build_path(R_PARAMS)
    ph = PhaseSequence(bound=0.3, seed=seed)
    return geo, q, r, ph


def constant_fissure(eps=0.0625, theta=0.5, q0=0.5, r0=0.0, height=1.0):
    geo = GeometryParams(epsilon=eps, theta=theta, height=height)
    q = build_path(ProcessParams(kind="constant", mean=q0))
    r = build_path(ProcessParams(kind="constant", mean=r0))
    hp = HalfPaths(q, r, 0.0, 0.0)
    return Fissure(i=1, j=2, geometry=geo, line_x1=hp, line_x2=hp)


def test_geometry_validation():
    with pytest.raises(ValueError, match="theta"):
        GeometryParams(epsilon=0.1, theta=0.7, height=1.0)
    with pytest.raises(ValueError, match="theta"):
        GeometryParams(epsilon=0.1, theta=0.0, height=1.0)
    with pytest.raises(ValueError, match="epsilon"):
        GeometryParams(epsilon=1.5, theta=0.5, height=1.0)
    GeometryParams(epsilon=0.1, theta=0.65, height=1.0)


def test_enumeration_matches_brute_force():
    geo, q, r, ph = make_field(eps=0.25)
    fissures = enumerate_fissures(geo, q, r, ph)
    a_lo, a_hi = certified_offsets(q, r)
    expected = []
    for i in range(-8, 16):
        for j in range(-8, 16):
            ok = (i * 0.25 + 0.25 * a_lo >= 0.0 - 1e-12
                  and i * 0.25 + 0.25 * a_hi <= 1.0 + 1e-12
                  and j * 0.25 + 0.25 * a_lo >= 0.0 - 1e-12
                  and j * 0.25 + 0.25 * a_hi <= 1.0 + 1e-12)
            if ok:
                expected.append((i, j))
    got = [(f.i, f.j) for f in fissures]
    assert got == expected
    assert len(got) == 9


def test_enumeration_rejects_overlapping_regime():
    geo = GeometryParams(epsilon=0.25, theta=0.5, height=1.0)
    wide_q = build_path(ProcessParams(kind="aperture_q", mean=0.9,
                                      amplitudes=(), frequencies=(),
                                      lower_bound=0.85, upper_bound=0.95))
    r = build_path(R_PARAMS)
    with pytest.raises(ValueError, match="overlap"):
        enumerate_fissures(geo, wide_q, r, PhaseSequence(bound=0.3, seed=1))


@settings(max_examples=20, deadline=None)
@given(eps_inv=st.integers(min_value=3, max_value=40),
       seed=st.integers(min_value=0, max_value=10**6))
def test_enumerated_fissures_always_contained(eps_inv, seed):
    geo, q, r, ph = make_field(eps=1.0 / eps_inv, seed=seed)
    fissures = enumerate_fissures(geo, q, r, ph)
    assert fissures, "unit extent should always hold at least one fissure"
    for f in fissures[:: max(1, len(fissures) // 5)]:
        for x3 in (-1.0 + 1e-9, -0.61803, -0.1, -1e-9):
            (x1l, x1h), (x2l, x2h) = f.cross_rect(x3)
            assert 0.0 - 1e-10 <= x1l < x1h <= 1.0 + 1e-10
            assert 0.0 - 1e-10 <= x2l < x2h <= 1.0 + 1e-10


def test_aperture_width_within_process_bounds():
    geo, q, r, ph = make_field(eps=0.125)
    f = enumerate_fissures(geo, q, r, ph)[0]
    s = np.linspace(0.0, 8.0, 500)
    lo, hi = aperture(f, s, axis=0)
    width = hi - lo
    assert np.all(width >= 0.3 - 1e-12)
    assert np.all(width <= 0.7 + 1e-12)


def test_distinct_lines_keys_lines_by_value():
    _, q, r, ph = make_field()
    geo = GeometryParams(epsilon=0.125, theta=0.5, height=1.0,
                         x1_extent=(0.0, 1.5), x2_extent=(0.25, 1.0))
    fissures = enumerate_fissures(geo, q, r, ph)
    lines, pairs, centers = distinct_lines(fissures)
    # enumeration builds fresh HalfPaths per tube; line i of either axis
    # carries the shifts of index i, so the distinct lines are the union
    # of the two index ranges
    indices = {f.i for f in fissures} | {f.j for f in fissures}
    assert len(lines) == len(indices)
    assert pairs.shape == centers.shape == (len(fissures), 2)
    for k, f in enumerate(fissures):
        for axis in (0, 1):
            hp, ref = lines[pairs[k, axis]], f.line(axis)
            assert (hp.alpha, hp.beta) == (ref.alpha, ref.beta)
            assert hp.q.base is ref.q.base and hp.r.base is ref.r.base
        assert tuple(centers[k]) == f.center
    # same shifts on another base path are another line
    other = build_path(Q_PARAMS)
    hp = fissures[0].line_x1
    twin = Fissure(i=0, j=0, geometry=geo, line_x1=hp,
                   line_x2=HalfPaths(other, r, hp.alpha, hp.beta))
    lines, pairs, _ = distinct_lines([twin])
    assert len(lines) == 2 and tuple(pairs[0]) == (0, 1)


def test_census_is_deterministic():
    geo, q, r, ph = make_field(eps=0.2)
    a = fissure_census(enumerate_fissures(geo, q, r, ph))
    b = fissure_census(enumerate_fissures(geo, q, r, ph))
    assert np.array_equal(a, b)
    assert a.dtype.names == ("i", "j", "alpha_i", "alpha_j", "beta_i",
                             "beta_j", "q_i_mid", "q_j_mid")


def test_shear_is_identity_for_constant_paths():
    f = constant_fissure()
    val = solve_psi(f, 0.3, -0.2, 1.7)
    assert val.psi == pytest.approx(1.7, abs=1e-14)
    assert val.d_zeta1 == 0.0 and val.d_zeta2 == 0.0
    assert val.d_tau == pytest.approx(1.0, abs=1e-12)
    assert val.cross_residual == 0.0


def test_shear_integrator_step_refinement():
    from fisshom.fissures import _integrate_shear
    geo, q, r, ph = make_field(eps=0.0625)
    f = enumerate_fissures(geo, q, r, ph)[0]
    scale = geo.shear_scale
    coarse = _integrate_shear(f.line_x1, 0.4, 2.0, scale, scale / 10.0)
    fine = _integrate_shear(f.line_x1, 0.4, 2.0, scale, scale / 80.0)
    assert coarse == pytest.approx(fine, abs=1e-12)
    assert abs(coarse) > 0.0


def test_chart_round_trip():
    geo, q, r, ph = make_field(eps=0.0625)
    f = enumerate_fissures(geo, q, r, ph)[3]
    chart = CurvilinearChart(f)
    rng = np.random.default_rng(5)
    for _ in range(6):
        y = np.array([rng.uniform(-0.45, 0.45) * geo.epsilon,
                      rng.uniform(-0.45, 0.45) * geo.epsilon,
                      rng.uniform(-0.95, -0.05)])
        x = chart.forward(y)
        y_back = chart.inverse(x)
        assert np.max(np.abs(y_back - y)) < 1e-9 * max(1.0, geo.epsilon)
        x_again = chart.forward(y_back)
        assert np.max(np.abs(x_again - x)) < 1e-11


def test_chart_maps_walls_to_walls():
    geo, q, r, ph = make_field(eps=0.0625)
    f = enumerate_fissures(geo, q, r, ph)[0]
    chart = CurvilinearChart(f)
    t = -0.4
    x = chart.forward(np.array([0.5 * geo.epsilon, 0.0, t]))
    (x1l, x1h), _ = f.cross_rect(x[2])
    assert x[0] == pytest.approx(x1h, abs=1e-12)
    x = chart.forward(np.array([-0.5 * geo.epsilon, 0.0, t]))
    (x1l, x1h), _ = f.cross_rect(x[2])
    assert x[0] == pytest.approx(x1l, abs=1e-12)


def test_metric_constant_paths_exact():
    f = constant_fissure(q0=0.45)
    chart = CurvilinearChart(f)
    y = np.array([0.01, -0.02, -0.5])
    g = chart.metric(y)
    expected = np.diag([0.45**2, 0.45**2, 1.0])
    assert np.max(np.abs(g - expected)) < 1e-12
    assert chart.jacobian_factor(y) == pytest.approx(1.0, abs=1e-14)


def test_metric_structure_random_paths():
    geo, q, r, ph = make_field(eps=0.05)
    f = enumerate_fissures(geo, q, r, ph)[0]
    chart = CurvilinearChart(f)
    y = np.array([0.3 * geo.epsilon, -0.25 * geo.epsilon, -0.37])
    g = chart.metric(y)
    assert np.allclose(g, g.T, atol=0.0)
    w = np.linalg.eigvalsh(g)
    assert w.min() > 0.0
    # horizontal block close to the squared apertures
    s = geo.stretched_depth(chart.forward(y)[2])
    assert g[0, 0] == pytest.approx(float(f.line_x1.width(s))**2, rel=1e-2)
    assert abs(g[0, 1]) < 1e-3
    assert chart.jacobian_factor(y) > 0.9


def test_metric_off_diagonal_decays_at_the_design_rate():
    sups = []
    epss = [0.1, 0.05, 0.025]
    theta = 0.5
    for eps in epss:
        geo = GeometryParams(epsilon=eps, theta=theta, height=1.0)
        q = build_path(Q_PARAMS)
        r = build_path(R_PARAMS)
        f = enumerate_fissures(geo, q, r, PhaseSequence(bound=0.3, seed=3))[0]
        chart = CurvilinearChart(f)
        worst = 0.0
        for (yy1, yy2, tt) in [(0.3, -0.4, -0.21), (-0.45, 0.1, -0.63),
                               (0.05, 0.45, -0.88)]:
            g = chart.metric(np.array([yy1 * eps, yy2 * eps, tt]))
            worst = max(worst, abs(g[0, 2]), abs(g[1, 2]))
        sups.append(worst)
    rate = np.polyfit(np.log(epss), np.log(sups), 1)[0]
    # design rate eps^{2(1-theta)} = eps at theta = 1/2
    assert rate >= 0.8 * 2.0 * (1.0 - theta)
    assert sups[-1] < sups[0]
    # absolute size consistent with the shear scale
    assert sups[-1] < 10.0 * epss[-1] ** (2.0 * (1.0 - theta))


def test_volume_integral_single_fissure_cross_check():
    geo, q, r, ph = make_field(eps=0.125, theta=0.5)
    f = enumerate_fissures(geo, q, r, ph)[0]

    val = fissure_volume_integral([f], lambda x1, x2, x3: np.ones_like(x1))
    x3 = np.linspace(-1.0, 0.0, 40001)
    s = geo.stretched_depth(x3)
    dense = np.trapezoid(f.line_x1.width(s) * f.line_x2.width(s), x3)
    assert val == pytest.approx(geo.epsilon**2 * dense, rel=1e-9)

    val_x1 = fissure_volume_integral([f], lambda x1, x2, x3: x1)
    mid = f.i * geo.epsilon + geo.epsilon * 0.5 * (f.line_x1.plus(s)
                                                   + f.line_x1.minus(s))
    dense_x1 = np.trapezoid(
        mid * f.line_x1.width(s) * f.line_x2.width(s), x3)
    assert val_x1 == pytest.approx(geo.epsilon**2 * dense_x1, rel=1e-9)


def test_volume_integral_scales_with_epsilon_squared():
    vals = {}
    for eps in (0.25, 0.125):
        geo, q, r, ph = make_field(eps=eps, seed=9)
        fs = enumerate_fissures(geo, q, r, ph)
        vals[eps] = fissure_volume_integral(
            fs, lambda x1, x2, x3: np.ones_like(x1)) / len(fs)
    assert vals[0.25] / vals[0.125] == pytest.approx(4.0, rel=0.2)


def test_wall_vanishing_field_poincare_ratio():
    geo, q, r, ph = make_field(eps=0.0625)
    fs = enumerate_fissures(geo, q, r, ph)[:3]

    def u_and_du(x1, x2, x3, f):
        s = geo.stretched_depth(x3)
        lo = f.i * geo.epsilon + geo.epsilon * f.line_x1.minus(s)
        w = geo.epsilon * f.line_x1.width(s)
        u = np.sin(math.pi * (x1 - lo) / w)
        du = (math.pi / w) * np.cos(math.pi * (x1 - lo) / w)
        return u, du

    for f in fs:
        num = fissure_volume_integral(
            [f], lambda x1, x2, x3: u_and_du(x1, x2, x3, f)[0] ** 2)
        den = fissure_volume_integral(
            [f], lambda x1, x2, x3: u_and_du(x1, x2, x3, f)[1] ** 2)
        ratio = num / den
        bound = geo.epsilon**2 * 0.7**2 / math.pi**2
        assert ratio <= bound * 1.01


def test_volume_integral_of_x2_dependent_functions():
    # constant tubes have square cross-sections of side 2a = eps q0 around
    # their lattice nodes, where the 2x2 Gauss rule is exact for these
    # polynomials
    eps, q0, height = 0.0625, 0.5, 1.0
    a = 0.5 * eps * q0
    tubes = [constant_fissure(), replace(constant_fissure(), i=3, j=5)]
    cases = [(lambda x1, x2, x3: x2 ** 2,
              lambda c1, c2: 2 * a * (2 * a * c2 ** 2 + 2 * a ** 3 / 3)),
             (lambda x1, x2, x3: x1 * x2,
              lambda c1, c2: (2 * a * c1) * (2 * a * c2))]
    for phi, exact in cases:
        ref = sum(height * exact(f.i * eps, f.j * eps) for f in tubes)
        assert fissure_volume_integral(tubes, phi) \
            == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_surface_integral_reference_values():
    geo = GeometryParams(epsilon=0.1, theta=0.5, height=1.0,
                         x1_extent=(0.0, 2.0), x2_extent=(0.0, 1.0))
    assert surface_integral(geo, lambda x1, x2, x3: np.ones_like(x1)) \
        == pytest.approx(2.0, rel=1e-13)
    assert surface_integral(geo, lambda x1, x2, x3: x1 * x2) \
        == pytest.approx(1.0, rel=1e-12)
