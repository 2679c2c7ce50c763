"""Vertical fissure ODE routes, limit profiles, and exchange coefficients."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson

from fisshom import fissure_transport
from fisshom.fissures import Fissure, GeometryParams, HalfPaths
from fisshom.fissure_transport import (
    FissureODEConfig,
    build_profile,
    dual_route_gap,
    fine_interface_fluxes,
    limit_comparison,
    pair_brackets,
    PairBrackets,
    solve_w,
    solve_z,
    transmission_coeffs,
    tube_weight,
    vertical_velocity,
    z_bottom_floor,
)
from fisshom.stochastic import PhaseSequence, ProcessParams, build_path

Q_PARAMS = ProcessParams(kind="aperture_q", mean=0.5, amplitudes=(0.08, 0.05),
                         frequencies=(1.0, math.sqrt(2.0)), seed=7,
                         lower_bound=0.3, upper_bound=0.7, deriv_bound=0.25)
R_PARAMS = ProcessParams(kind="centerline_r", mean=0.0, amplitudes=(0.05,),
                         frequencies=(0.618,))

COTH_ONE = 1.3130352854993312


def constant_fissure(q0=0.5, eps=0.01, theta=0.5, height=1.0):
    geo = GeometryParams(epsilon=eps, theta=theta, height=height)
    q = build_path(ProcessParams(kind="constant", mean=q0))
    r = build_path(ProcessParams(kind="constant", mean=0.0))
    hp = HalfPaths(q, r, 0.0, 0.0)
    return Fissure(i=1, j=1, geometry=geo, line_x1=hp, line_x2=hp)


def random_fissure(seed, eps=0.02, theta=0.5, height=1.0, q_seed=7):
    """Single fissure with independently shifted line paths; avoids building
    the whole lattice when only the tube ODE matters."""
    geo = GeometryParams(epsilon=eps, theta=theta, height=height)
    q = build_path(replace(Q_PARAMS, seed=q_seed))
    r = build_path(R_PARAMS)
    ph = PhaseSequence(bound=0.3, seed=seed)
    i, j = 3, 5
    l1 = HalfPaths(q, r, float(ph.alpha(i)), float(ph.beta(i)))
    l2 = HalfPaths(q, r, float(ph.alpha(j)), float(ph.beta(j)))
    return Fissure(i=i, j=j, geometry=geo, line_x1=l1, line_x2=l2)


def test_config_validation():
    fis = constant_fissure()
    for diffusion in (0.0, math.nan):
        with pytest.raises(ValueError, match="diffusion"):
            FissureODEConfig(fissure=fis, diffusion=diffusion)
    for reaction in (-1.0, math.nan):
        with pytest.raises(ValueError, match="reaction"):
            FissureODEConfig(fissure=fis, diffusion=1.0, reaction=reaction)
    for D, v3 in ((0.01, 2.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="Peclet"):
            FissureODEConfig(fissure=fis, diffusion=D, v3=v3)
    cfg = FissureODEConfig(fissure=fis, diffusion=1.0, reaction=0.5)
    with pytest.raises(ValueError, match="zero reaction"):
        build_profile(cfg, 1.0, 0.0, kind="advective")
    with pytest.raises(ValueError, match="kind"):
        build_profile(cfg, 1.0, 0.0, kind="nope")
    with pytest.raises(ValueError, match="method"):
        solve_w(cfg, method="euler")


def test_constant_reaction_matches_cosh():
    q0 = 0.5
    D, R = 0.9, 1.3
    fis = constant_fissure(q0=q0)
    cfg = FissureODEConfig(fissure=fis, diffusion=D, reaction=R)
    r_hat = math.sqrt(R / D)
    for method in ("volterra", "rk4"):
        w = solve_w(cfg, method=method)
        z = solve_z(cfg, method=method)
        x = w.x3
        assert np.max(np.abs(w.values - np.cosh(r_hat * x))) < 1e-10
        z_exact = np.sinh(r_hat * x) / (q0 * q0 * r_hat)
        assert np.max(np.abs(z.values - z_exact)) < 1e-10
        # weighted fluxes against their closed forms
        wf = D * q0 * q0 * r_hat * np.sinh(r_hat * x)
        zf = D * np.cosh(r_hat * x)
        assert np.max(np.abs(w.flux_exp - wf)) < 1e-9
        assert np.max(np.abs(z.flux_exp - zf)) < 1e-9


def test_constant_drift_closed_form():
    # Dw'' + v w' = R w with constant aperture: exponential-pair solution.
    q0, D, R, v = 0.6, 0.8, 1.1, 0.9
    fis = constant_fissure(q0=q0)
    cfg = FissureODEConfig(fissure=fis, diffusion=D, reaction=R, v3=v)
    disc = math.sqrt(v * v + 4.0 * D * R)
    lp = (-v + disc) / (2.0 * D)
    lm = (-v - disc) / (2.0 * D)
    for method in ("volterra", "rk4"):
        w = solve_w(cfg, method=method)
        z = solve_z(cfg, method=method)
        x = w.x3
        w_exact = (lp * np.exp(lm * x) - lm * np.exp(lp * x)) / (lp - lm)
        z_exact = (np.exp(lp * x) - np.exp(lm * x)) / (q0 * q0 * (lp - lm))
        assert np.max(np.abs(w.values - w_exact)) < 1e-9
        assert np.max(np.abs(z.values - z_exact)) < 1e-9


def test_dual_route_agreement_random():
    rng = np.random.default_rng(4102)
    for trial in range(6):
        eps = float(rng.uniform(0.008, 0.1))
        theta = float(rng.uniform(0.3, 0.6))
        fis = random_fissure(seed=trial + 1, eps=eps, theta=theta)
        cfg = FissureODEConfig(
            fissure=fis,
            diffusion=float(rng.uniform(0.7, 1.5)),
            reaction=float(rng.uniform(0.0, 2.5)),
            v3=float(rng.uniform(-1.2, 1.2)),
        )
        assert dual_route_gap(cfg) < 1e-8


def test_volterra_flux_consistent_with_values():
    fis = random_fissure(seed=11, eps=0.03)
    cfg = FissureODEConfig(fissure=fis, diffusion=1.1, reaction=1.7, v3=0.8)
    w = solve_w(cfg)
    x = w.x3
    qq = tube_weight(cfg, x)
    dw = np.gradient(w.values, x, edge_order=2)
    recon = cfg.diffusion * qq * dw * np.exp(x * cfg.v3 / cfg.diffusion)
    scale = np.max(np.abs(w.flux_exp)) + 1.0
    assert np.max(np.abs(recon - w.flux_exp)[5:-5]) < 1e-4 * scale


def test_z_bottom_floor_certified():
    for seed, v3 in [(2, 0.0), (3, 1.0), (4, -1.3)]:
        fis = random_fissure(seed=seed, eps=0.02)
        cfg = FissureODEConfig(fissure=fis, diffusion=1.0, reaction=2.0,
                               v3=v3)
        z = solve_z(cfg)
        floor = z_bottom_floor(cfg)
        assert z.at_bottom <= -floor * (1.0 - 1e-9)


def test_limit_comparison_shrinks_with_epsilon():
    errs = {}
    for eps in (1e-1, 1e-2):
        per_seed = []
        for seed in range(1, 6):
            fis = random_fissure(seed=seed, eps=eps)
            cfg = FissureODEConfig(fissure=fis, diffusion=1.0, reaction=1.0)
            br = pair_brackets(cfg, T=2.0e3)
            per_seed.append(limit_comparison(cfg, br).as_array())
        errs[eps] = np.median(np.stack(per_seed), axis=0)
    assert np.all(errs[1e-2] < errs[1e-1])
    with pytest.raises(ValueError, match="drift"):
        fis = random_fissure(seed=1, eps=1e-2)
        cfg = FissureODEConfig(fissure=fis, diffusion=1.0, reaction=1.0,
                               v3=0.5)
        limit_comparison(cfg, PairBrackets(0.25, 4.1))


def test_constant_aperture_limit_is_exact():
    fis = constant_fissure(q0=0.45)
    cfg = FissureODEConfig(fissure=fis, diffusion=1.2, reaction=0.9)
    br = PairBrackets(mean_qq=0.45 ** 2, mean_inv_qq=0.45 ** -2)
    comp = limit_comparison(cfg, br)
    assert np.max(comp.as_array()) < 1e-10


def test_advective_profile_linear_without_drift():
    q0, D = 0.5, 1.3
    fis = constant_fissure(q0=q0)
    cfg = FissureODEConfig(fissure=fis, diffusion=D)
    up, um = 2.0, -1.0
    prof = build_profile(cfg, up, um, kind="advective")
    x = prof.x3
    h = fis.geometry.height
    linear = up + (um - up) * (-x / h)
    assert np.max(np.abs(prof.values - linear)) < 1e-10
    flux = D * q0 * q0 * (up - um) / h
    assert abs(prof.flux_top - flux) < 1e-10
    assert abs(prof.flux_bottom - flux) < 1e-10


def test_profile_endpoints_match_traces():
    fis = random_fissure(seed=9, eps=0.02)
    for kind, R, v in (("advective", 0.0, 0.7), ("reactive", 1.4, 0.3)):
        cfg = FissureODEConfig(fissure=fis, diffusion=1.0, reaction=R, v3=v)
        prof = build_profile(cfg, 1.5, -0.25, kind=kind)
        assert abs(prof.values[-1] - 1.5) < 1e-11
        assert abs(prof.values[0] + 0.25) < 1e-11


def test_reactive_flux_matches_closed_form_constant():
    q0, D, R, h = 0.5, 1.1, 1.8, 1.0
    fis = constant_fissure(q0=q0)
    cfg = FissureODEConfig(fissure=fis, diffusion=D, reaction=R)
    up, um = 1.2, 0.4
    top, bottom = fine_interface_fluxes(cfg, up, um)
    coeffs = transmission_coeffs(D, R, 0.0, h, q0 * q0, q0 ** -2)
    assert abs(top - coeffs.flux_top(up, um)) < 1e-9
    assert abs(bottom - coeffs.flux_bottom(up, um)) < 1e-9


def test_reactive_reduces_to_advective_without_reaction():
    fis = random_fissure(seed=6, eps=0.03)
    cfg = FissureODEConfig(fissure=fis, diffusion=0.9, v3=0.6)
    up, um = 0.8, 0.1
    adv = build_profile(cfg, up, um, kind="advective")
    rea = build_profile(cfg, up, um, kind="reactive")
    assert np.max(np.abs(adv.values - rea.values)) < 1e-10
    assert abs(adv.flux_top - rea.flux_top) < 1e-10
    assert abs(adv.flux_bottom - rea.flux_bottom) < 1e-10


def test_drift_flux_ratio():
    # diffusive fluxes at the two ends differ by the drift exponential
    D, v = 1.0, 0.9
    fis = random_fissure(seed=12, eps=0.05)
    cfg = FissureODEConfig(fissure=fis, diffusion=D, v3=v)
    prof = build_profile(cfg, 1.0, 0.0, kind="advective")
    h = fis.geometry.height
    assert abs(prof.flux_bottom / prof.flux_top
               - math.exp(h * v / D)) < 1e-10


def test_transmission_zero_reaction_continuity():
    base = dict(v3=0.3, height=1.0, mean_qq=0.25, mean_inv_qq=4.2)
    at_zero = transmission_coeffs(1.0, 0.0, **base)
    near_zero = transmission_coeffs(1.0, 1e-9, **base)
    assert at_zero.cosh_factor == 1.0
    assert abs(at_zero.exchange_scale - 1.0 / (1.0 * 4.2)) < 1e-12
    assert abs(near_zero.exchange_scale * near_zero.cosh_factor
               - at_zero.exchange_scale) < 1e-6
    assert abs(near_zero.flux_top(1.0, 0.5)
               - at_zero.flux_top(1.0, 0.5)) < 1e-6


def test_transmission_coth_spot_value():
    coeffs = transmission_coeffs(1.0, 1.0, 0.0, 1.0, 1.0, 1.0)
    assert coeffs.r_hat == 1.0
    ratio = coeffs.exchange_scale * coeffs.cosh_factor
    assert abs(ratio - COTH_ONE) < 1e-12
    assert abs(ratio - 1.3130) < 1e-4
    for diffusion, height in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="positive"):
            transmission_coeffs(diffusion, 1.0, 0.0, height, 1.0, 1.0)
    good = dict(diffusion=1.0, reaction=1.0, v3=0.0, height=1.0,
                mean_qq=1.0, mean_inv_qq=1.0)
    for name, value in (("reaction", math.nan), ("reaction", -1.0),
                        ("v3", math.nan), ("mean_qq", math.nan),
                        ("mean_inv_qq", math.nan)):
        with pytest.raises(ValueError, match=name):
            transmission_coeffs(**{**good, name: value})


@settings(max_examples=60, deadline=None)
@given(
    reaction=st.floats(0.0, 4.0),
    v3=st.floats(-1.5, 1.5),
    up=st.floats(-2.0, 2.0),
    um=st.floats(-2.0, 2.0),
)
def test_exchange_flux_identity(reaction, v3, up, um):
    c = transmission_coeffs(1.0, reaction, v3, 1.0, 0.25, 4.2)
    assert c.exchange_scale > 0.0
    assert c.cosh_factor >= 1.0
    gap = c.flux_top(up, um) - c.flux_bottom(up, um)
    expected = c.exchange_scale * (c.cosh_factor - 1.0) \
        * (up + c.advective_factor * um)
    assert abs(gap - expected) < 1e-10 * (1.0 + abs(expected))


def test_pair_brackets_random_fissure():
    fis = random_fissure(seed=5, eps=0.02)
    cfg = FissureODEConfig(fissure=fis, diffusion=1.0)
    br = pair_brackets(cfg, T=2.0e3)
    assert 0.3 ** 2 < br.mean_qq < 0.7 ** 2
    assert br.mean_qq * br.mean_inv_qq >= 1.0
    again = pair_brackets(cfg, T=2.0e3)
    assert again.mean_qq == br.mean_qq
    with pytest.raises(ValueError, match="Cauchy-Schwarz"):
        PairBrackets(mean_qq=0.25, mean_inv_qq=3.9)
    for bad in (dict(mean_qq=math.nan, mean_inv_qq=4.1),
                dict(mean_qq=0.25, mean_inv_qq=math.nan)):
        with pytest.raises(ValueError, match="Cauchy-Schwarz.*nan"):
            PairBrackets(**bad)


def test_vertical_velocity_formula():
    got = vertical_velocity(2.0, -1.0, 0.035, 1.5, 1.0, 0.25, 4.2)
    assert got == (2.0 - (-1.0)) * 0.035 / (1.5 * 1.0 * 0.25 * 4.2)
    arr = vertical_velocity(np.array([2.5, 1.0]), np.array([1.0, 1.0]),
                            0.035144, 1.2, 0.9, 0.25445, 4.22788)
    assert arr.shape == (2,)
    assert arr[0] == (2.5 - 1.0) * 0.035144 / (1.2 * 0.9 * 0.25445 * 4.22788)
    assert arr[1] == 0.0


@pytest.mark.parametrize("reaction, v3, diffusion", [
    (1.3, 0.0, 0.9), (0.8, 0.6, 0.9), (3.0, -0.5, 0.7), (0.0, 0.4, 0.9)],
    ids=["no_drift", "drift", "drift_unequal_counts", "no_reaction"])
def test_pair_solve_matches_single_row_solves(reaction, v3, diffusion):
    # the rows of a stacked solve share one grid, and each stops at its
    # own convergence test, so each equals its single-row solve bit for bit
    cfg = FissureODEConfig(fissure=random_fissure(seed=2), diffusion=diffusion,
                           reaction=reaction, v3=v3)
    pair = fissure_transport._solve(cfg, (True, False))
    for got, ref in zip(pair, (solve_w(cfg), solve_z(cfg))):
        assert got.x3.tobytes() == ref.x3.tobytes()
        assert got.values.tobytes() == ref.values.tobytes()
        assert got.flux_exp.tobytes() == ref.flux_exp.tobytes()
        assert got.iterations == ref.iterations
    counts = [sol.iterations for sol in pair]
    if reaction == 0.0:
        assert counts == [0, 0]
    elif v3 == -0.5:
        assert counts[0] != counts[1]
    prof = build_profile(cfg, 1.2, 0.3, kind="reactive")
    c = (0.3 - 1.2 * pair[0].at_bottom) / pair[1].at_bottom
    assert prof.values.tobytes() \
        == (1.2 * pair[0].values + c * pair[1].values).tobytes()


@pytest.mark.parametrize("eps", [0.1, 0.02, 1e-3])
def test_simpson_weights_reproduce_scipy(eps):
    # the tube solves integrate on one fixed grid with weights formed once;
    # every result must equal scipy's cumulative_simpson exactly
    cfg = FissureODEConfig(fissure=random_fissure(seed=3, eps=eps),
                           diffusion=0.9, reaction=1.3, v3=0.4)
    x, integrate = fissure_transport._grid(cfg)
    qq = tube_weight(cfg, x)
    rng = np.random.default_rng(11)
    for y in (qq, np.exp(-x * cfg.v3 / cfg.diffusion) / qq, np.zeros_like(x),
              rng.standard_normal(x.size)):
        ref = cumulative_simpson(y, x=x, initial=0.0)
        assert np.array_equal(integrate(y), ref)
        assert np.array_equal(integrate.from_zero(y), ref - ref[-1])
    with pytest.raises(ValueError, match="even number"):
        fissure_transport._CumulativeSimpson(x[1:])


def test_grid_and_its_simpson_weights_are_built_once():
    # every tube of one (height, intervals) grid shares them, so the grid
    # is read-only
    cfg = FissureODEConfig(fissure=random_fissure(seed=3, eps=0.02),
                           diffusion=0.9, reaction=1.3, v3=0.4)
    x, integrate = fissure_transport._grid(cfg)
    again = fissure_transport._grid(cfg)
    assert again[0] is x and again[1] is integrate
    with pytest.raises(ValueError):
        x[0] = 0.0
