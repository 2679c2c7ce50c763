"""Coupled two-bed Darcy solver."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fisshom import limit_flow
from fisshom._numerics import (_mode_matrix, fit_loglog_slope, pin_rows,
                               separable_factors)
from fisshom.limit_flow import (
    FlowBC,
    FlowConfig,
    series_gap,
    solve_limit_flow,
)
from fisshom.stochastic import constant_stats

from _oracles import (kronecker_sum, limit_flow_coo, limit_flow_splu,
                      mode_matrix_kron)

STATS = constant_stats(0.5)


def base_config(**kw):
    defaults = dict(
        k_plus=(1.3, 1.3, 0.9),
        k_minus=(0.8, 0.8, 1.1),
        mu_plus=1.0,
        mu_minus=1.0,
        mu_fissure=0.02,
        k0=0.0351,
        stats=STATS,
        height=0.8,
        depth_plus=1.0,
        depth_minus=1.0,
        shape=(8, 8, 8, 8),
    )
    defaults.update(kw)
    return FlowConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError, match="mu_fissure"):
        base_config(mu_fissure=0.0)
    with pytest.raises(ValueError, match="vertical"):
        base_config(shape=(8, 8, 2, 8))
    with pytest.raises(ValueError, match="diagonal"):
        base_config(k_plus=np.array([[1.0, 0.3, 0.0],
                                     [0.3, 1.0, 0.0],
                                     [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        base_config(k_minus=(1.0, -0.5, 1.0))
    # NaN compares False with every bound, so both checks must fail closed
    with pytest.raises(ValueError, match="positive definite"):
        base_config(k_minus=float("nan"))
    with pytest.raises(ValueError, match="diagonal"):
        base_config(k_plus=np.array([[1.0, np.nan, 0.0],
                                     [0.0, 1.0, 0.0],
                                     [0.0, 0.0, 1.0]]))
    for name in ("mu_plus", "mu_minus", "mu_fissure", "k0", "height",
                 "depth_plus", "depth_minus"):
        with pytest.raises(ValueError, match=name):
            base_config(**{name: float("nan")})
    with pytest.raises(ValueError, match="kind"):
        FlowBC(kind="weird")
    with pytest.raises(ValueError, match="callables"):
        FlowBC(kind="dirichlet")
    cfg = base_config()
    lam = cfg.k0 / (cfg.mu_fissure * cfg.height * STATS.mean_inv_q2)
    assert abs(cfg.coupling - lam) < 1e-15


def series_flux(cfg, p_top, p_bottom, gravity=0.0):
    """Exact downward flux for column data: layered resistances in series."""
    kp = cfg.k_plus[2] / cfg.mu_plus
    km = cfg.k_minus[2] / cfg.mu_minus
    drive = p_top - p_bottom - gravity * (cfg.depth_plus + cfg.depth_minus)
    return drive / (1.0 / cfg.coupling + cfg.depth_plus / kp
                    + cfg.depth_minus / km)


def test_series_resistance_exact():
    cfg = base_config(shape=(2, 2, 6, 5))
    p_top, p_bottom = 2.0, -1.0
    sol = solve_limit_flow(cfg, FlowBC(kind="pressure_ends", p_top=p_top,
                                       p_bottom=p_bottom))
    V = series_flux(cfg, p_top, p_bottom)
    assert np.max(np.abs(sol.interface_flux - V)) < 1e-10
    assert sol.flux_continuity_gap() < 1e-10
    # piecewise-linear pressure reproduced exactly
    kp = cfg.k_plus[2] / cfg.mu_plus
    a_plus = p_top - V / kp * cfg.depth_plus
    z = cfg.vertical_centers("plus")
    exact = a_plus + V / kp * z
    assert np.max(np.abs(sol.p_plus[0, 0, :] - exact)) < 1e-10
    assert np.max(np.abs(sol.trace_plus - a_plus)) < 1e-10
    # per-tube velocity consistent with the superficial flux
    assert np.max(np.abs(sol.tube_velocity * STATS.mean_q2
                         - sol.interface_flux)) < 1e-12


def test_series_resistance_with_gravity():
    g = -0.7
    cfg = base_config(shape=(2, 2, 5, 6), gravity_plus=g, gravity_minus=g)
    p_top, p_bottom = 1.0, 0.3
    sol = solve_limit_flow(cfg, FlowBC(kind="pressure_ends", p_top=p_top,
                                       p_bottom=p_bottom))
    V = series_flux(cfg, p_top, p_bottom, gravity=g)
    assert np.max(np.abs(sol.interface_flux - V)) < 1e-10
    assert sol.flux_continuity_gap() < 1e-10
    km = cfg.k_minus[2] / cfg.mu_minus
    z = cfg.vertical_centers("minus")
    a_minus = p_bottom + (g + V / km) * cfg.depth_minus
    exact = a_minus + (g + V / km) * (z + cfg.height)
    assert np.max(np.abs(sol.p_minus[0, 0, :] - exact)) < 1e-10


def test_series_gap_is_roundoff_and_catches_a_wrong_coupling():
    cfg = base_config(gravity_plus=0.7, gravity_minus=-0.3)
    bc = FlowBC(kind="pressure_ends", p_top=2.5, p_bottom=-0.5)
    sol = solve_limit_flow(cfg, bc)
    assert series_gap(sol, bc) <= 1e-14
    # a coupling off by 1e-6 relative, between solve and closed form
    wrong = replace(sol, config=replace(cfg, k0=cfg.k0 * (1.0 + 1e-6)))
    assert series_gap(wrong, bc) > 1e-10
    # zero data: a zero solution and a scale that is still 1
    still = FlowBC(kind="pressure_ends", p_top=0.0, p_bottom=0.0)
    assert series_gap(solve_limit_flow(base_config(), still), still) == 0.0
    with pytest.raises(ValueError, match="pressure_ends"):
        series_gap(sol, FlowBC(kind="closed"))


def test_closed_gauge_and_conservation():
    cfg = base_config(shape=(6, 6, 6, 6))
    sol = solve_limit_flow(
        cfg, FlowBC(kind="closed"),
        source_plus=lambda x1, x2, x3: np.ones_like(x1),
        source_minus=lambda x1, x2, x3: -np.ones_like(x1)
        * (cfg.depth_plus / cfg.depth_minus))
    assert abs(float(sol.p_plus.mean())) < 1e-12
    # everything injected above must cross the fissure layer
    area = 1.0 / 36.0
    total_cross = float(np.sum(sol.interface_flux) * area)
    assert abs(total_cross - cfg.depth_plus) < 1e-8
    assert sol.mean_p_minus != 0.0
    with pytest.raises(ValueError, match="net source"):
        solve_limit_flow(cfg, FlowBC(kind="closed"),
                         source_plus=lambda x1, x2, x3: np.ones_like(x1))
    with pytest.raises(ValueError, match="net source"):
        solve_limit_flow(cfg, FlowBC(kind="closed"),
                         source_plus=lambda x1, x2, x3: np.full_like(x1,
                                                                     np.nan))


def test_closed_hydrostatic_equilibrium():
    g = -1.3
    cfg = base_config(shape=(4, 4, 6, 6), gravity_plus=g, gravity_minus=g)
    sol = solve_limit_flow(cfg, FlowBC(kind="closed"))
    assert np.max(np.abs(sol.interface_flux)) < 1e-10
    assert np.max(np.abs(sol.trace_plus - sol.trace_minus)) < 1e-10
    z = cfg.vertical_centers("plus")
    col = sol.p_plus[1, 2, :]
    assert np.max(np.abs((col - g * z) - (col[0] - g * z[0]))) < 1e-10


def mms_fields(cfg):
    """Manufactured pair built to satisfy the transmission condition."""
    lam = cfg.coupling
    kp3 = cfg.k_plus[2] / cfg.mu_plus
    km3 = cfg.k_minus[2] / cfg.mu_minus
    h = cfg.height
    al_m, be_m, c_m = 0.3, 0.5, -0.4
    c_p = 0.7
    v0 = km3 * be_m
    be_p = v0 / kp3
    al_p = al_m + v0 / lam

    def phi(x1, x2):
        return np.cos(math.pi * x1) * np.cos(math.pi * x2)

    def psi_p(x3):
        return al_p + be_p * x3 + c_p * x3 ** 2

    def psi_m(x3):
        return al_m + be_m * (x3 + h) + c_m * (x3 + h) ** 2

    p_plus = lambda x1, x2, x3: phi(x1, x2) * psi_p(x3)
    p_minus = lambda x1, x2, x3: phi(x1, x2) * psi_m(x3)
    kp = cfg.k_plus / cfg.mu_plus
    km = cfg.k_minus / cfg.mu_minus

    def src_plus(x1, x2, x3):
        return phi(x1, x2) * ((kp[0] + kp[1]) * math.pi ** 2 * psi_p(x3)
                              - kp[2] * 2.0 * c_p)

    def src_minus(x1, x2, x3):
        return phi(x1, x2) * ((km[0] + km[1]) * math.pi ** 2 * psi_m(x3)
                              - km[2] * 2.0 * c_m)

    v_exact = lambda x1, x2: v0 * phi(x1, x2)
    return p_plus, p_minus, src_plus, src_minus, v_exact


def test_mms_convergence_order():
    errs_p = []
    errs_v = []
    sizes = [6, 12, 24]
    for n in sizes:
        cfg = base_config(shape=(n, n, n, n))
        p_plus, p_minus, src_p, src_m, v_exact = mms_fields(cfg)
        bc = FlowBC(kind="dirichlet", p_plus=p_plus, p_minus=p_minus)
        sol = solve_limit_flow(cfg, bc, source_plus=src_p,
                               source_minus=src_m)
        x1, x2 = cfg.horizontal_centers()
        zp = cfg.vertical_centers("plus")
        zm = cfg.vertical_centers("minus")
        Xp = np.meshgrid(x1, x2, zp, indexing="ij")
        Xm = np.meshgrid(x1, x2, zm, indexing="ij")
        e_p = max(float(np.max(np.abs(sol.p_plus - p_plus(*Xp)))),
                  float(np.max(np.abs(sol.p_minus - p_minus(*Xm)))))
        G1, G2 = np.meshgrid(x1, x2, indexing="ij")
        e_v = float(np.max(np.abs(sol.interface_flux - v_exact(G1, G2))))
        errs_p.append(e_p)
        errs_v.append(e_v)
        assert sol.flux_continuity_gap() < 1e-8
    hs = [1.0 / n for n in sizes]
    assert fit_loglog_slope(hs, errs_p) >= 1.8
    assert errs_v[-1] < errs_v[0]
    assert errs_v[-1] < 2e-3


def _separable_cases():
    """One case per boundary kind, each with n1 != n2, nz+ != nz- and
    unequal depths on an off-origin cross-section."""
    cfg = base_config(k_plus=(1.3, 0.7, 0.9), mu_minus=1.4, depth_minus=0.6,
                      shape=(9, 6, 7, 5), x1_extent=(0.2, 1.5),
                      x2_extent=(-0.4, 0.5), gravity_plus=-0.6,
                      gravity_minus=0.4)
    x1, x2 = cfg.horizontal_centers()
    Xp = np.meshgrid(x1, x2, cfg.vertical_centers("plus"), indexing="ij")
    cell_p = 1.3 / 9 * 0.9 / 6 * cfg.depth_plus / 7

    def src_p(a, b, c):
        return np.cos(3.0 * a) * np.sin(2.0 * b) + a * c

    # the lower bed takes out what the upper one injects
    net = float(np.sum(src_p(*Xp)) * cell_p)
    volume_m = 1.3 * 0.9 * cfg.depth_minus
    closed = (cfg, FlowBC(kind="closed"), src_p,
              lambda a, b, c: np.full_like(a, -net / volume_m))
    ends = (cfg, FlowBC(kind="pressure_ends",
                        p_top=lambda a, b: np.sin(2.0 * a) + b * b,
                        p_bottom=-0.3), None, None)
    mms = base_config(k_plus=(1.3, 0.7, 0.9), depth_minus=0.7,
                      shape=(8, 11, 6, 9))
    p_plus, p_minus, mms_p, mms_m, _ = mms_fields(mms)
    dirichlet = (mms, FlowBC(kind="dirichlet", p_plus=p_plus,
                             p_minus=p_minus), mms_p, mms_m)
    return {"closed": closed, "pressure_ends": ends, "dirichlet": dirichlet}


@pytest.mark.parametrize("kind", ["closed", "pressure_ends", "dirichlet"])
def test_separable_route_matches_splu_oracle(kind):
    cfg, bc, src_p, src_m = _separable_cases()[kind]
    sol = solve_limit_flow(cfg, bc, source_plus=src_p, source_minus=src_m)
    ref = limit_flow_splu(cfg, bc, source_plus=src_p, source_minus=src_m)
    assert sol.route == "separable" and ref.route == "splu"
    for got, want in ((sol.p_plus, ref.p_plus), (sol.p_minus, ref.p_minus),
                      (sol.interface_flux, ref.interface_flux)):
        assert np.max(np.abs(got - want)) <= 1e-12 * (
            1.0 + np.max(np.abs(want)))
    assert sol.residual <= 1e-14
    assert sol.flux_continuity_gap() < 1e-10
    if kind == "closed":
        assert abs(float(sol.p_plus.mean())) < 1e-12
        assert np.ptp(sol.interface_flux) > 0.0


@pytest.mark.parametrize("kind", ["closed", "pressure_ends", "dirichlet"])
def test_kronecker_sum_matches_face_assembly(kind):
    cfg, bc, src_p, src_m = _separable_cases()[kind]
    op = limit_flow._assemble_system(cfg, bc, src_p, src_m)[0]
    got = kronecker_sum(op)
    want = limit_flow_coo(cfg, bc)
    assert got.nnz == want.nnz
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.max(np.abs(got.data - want.data)) <= 1e-15 * np.max(
        np.abs(want.data))


@pytest.mark.parametrize("kind", ["closed", "pressure_ends", "dirichlet"])
def test_tensor_apply_matches_kronecker_sum(kind):
    cfg, bc, src_p, src_m = _separable_cases()[kind]
    op = limit_flow._assemble_system(cfg, bc, src_p, src_m)[0]
    A = kronecker_sum(op)
    x = np.random.default_rng(5).standard_normal(A.shape[0])
    assert np.max(np.abs(op @ x - A @ x)) <= 1e-15 * np.max(
        np.abs(A.data)) * np.max(np.abs(x))
    # the closed-flow compatibility scale, bit for bit
    assert op.max_abs() == np.max(np.abs(A.data))


@pytest.mark.parametrize("kind", ["closed", "pressure_ends", "dirichlet"])
def test_mode_matrix_is_the_kronecker_form(kind):
    cfg, bc, src_p, src_m = _separable_cases()[kind]
    op = limit_flow._assemble_system(cfg, bc, src_p, src_m)[0]
    grid = (*op.shape[:2], "dst2" if kind == "dirichlet" else "dct2")
    got = _mode_matrix(*separable_factors(op), *grid)
    want = mode_matrix_kron(*separable_factors(op), *grid)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
    if kind == "closed":
        # the gauge row written in place, as pin_rows writes it
        fixed = np.zeros(want.shape[0], dtype=bool)
        fixed[0] = True
        pinned, _ = pin_rows(want, np.zeros(want.shape[0]), fixed, 0.0)
        got = _mode_matrix(*separable_factors(op), *grid, pin=0)
        assert np.array_equal(got.toarray(), pinned.toarray())
