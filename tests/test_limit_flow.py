"""Coupled two-bed Darcy solver and the tangential flow sheet."""

import math

import numpy as np
import pytest

from fisshom._numerics import fit_loglog_slope
from fisshom.limit_flow import (
    FlowBC,
    FlowConfig,
    TangentialConfig,
    solve_limit_flow,
    solve_tangential_darcy,
)
from fisshom.stochastic import constant_stats

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


# ----------------------------------------------------------------------
# tangential sheet


def tangential_config(n=24, **kw):
    defaults = dict(
        k_f=0.035,
        kstar_plus=0.09 * np.eye(3),
        kstar_minus=0.16 * np.eye(3),
        mu_fissure=1.0,
        slip_gamma=0.4,
        height=0.8,
        mean_q=0.5,
        shape=(n, n),
    )
    defaults.update(kw)
    return TangentialConfig(**defaults)


def test_resistance_formula_and_validation():
    cfg = tangential_config()
    r = cfg.resistance()
    want = 1.0 / (0.5 ** 2 * 0.035) + (0.4 / 0.8) * (1.0 / 0.3 + 1.0 / 0.4)
    assert abs(r[0] - want) < 1e-12
    assert abs(r[1] - want) < 1e-12
    skew = np.array([[1.0, 0.4], [0.4, 1.0]])
    with pytest.raises(ValueError, match="diagonal"):
        tangential_config(k_f=skew).resistance()
    with pytest.raises(ValueError, match="diagonal"):
        tangential_config(kstar_plus=0.09 * skew).resistance()


def test_tangential_divergence_free_rim():
    cfg = tangential_config(n=20)

    def forcing(x1, x2):
        return (np.sin(2 * math.pi * x2) + 0.3,
                np.cos(2 * math.pi * x1) - 0.1)

    sol = solve_tangential_darcy(cfg, forcing)
    assert sol.div_sup < 1e-10
    assert np.max(np.abs(sol.u[0, :])) == 0.0
    assert np.max(np.abs(sol.u[-1, :])) == 0.0
    assert np.max(np.abs(sol.v[:, 0])) == 0.0
    assert np.max(np.abs(sol.v[:, -1])) == 0.0
    assert abs(float(sol.pressure.mean())) < 1e-12
    assert sol.energy() > 0.0


def tangential_exact(cfg):
    # stream function with a non-trigonometric envelope so the staggered
    # scheme cannot reproduce it exactly on the grid
    r1, r2 = cfg.resistance()

    def u_e(x, y):
        return np.exp(0.5 * x) * np.sin(math.pi * x) ** 2 \
            * math.pi * np.sin(2 * math.pi * y)

    def v_e(x, y):
        return -np.exp(0.5 * x) * (0.5 * np.sin(math.pi * x) ** 2
                                   + math.pi * np.sin(2 * math.pi * x)) \
            * np.sin(math.pi * y) ** 2

    def forcing(x, y):
        dpi_1 = -0.5 * math.pi * np.sin(2 * math.pi * x) \
            * np.cos(2 * math.pi * y) + 0.2 * x
        dpi_2 = -0.5 * math.pi * np.cos(2 * math.pi * x) \
            * np.sin(2 * math.pi * y)
        return r1 * u_e(x, y) + dpi_1, r2 * v_e(x, y) + dpi_2

    return u_e, v_e, None, forcing


def test_tangential_mms_order():
    errs = []
    sizes = [8, 16, 32]
    for n in sizes:
        cfg = tangential_config(n=n)
        u_e, v_e, _, forcing = tangential_exact(cfg)
        sol = solve_tangential_darcy(cfg, forcing)
        x1e = np.linspace(0.0, 1.0, n + 1)
        x2e = np.linspace(0.0, 1.0, n + 1)
        x1c = 0.5 * (x1e[1:] + x1e[:-1])
        x2c = 0.5 * (x2e[1:] + x2e[:-1])
        XU = np.meshgrid(x1e[1:-1], x2c, indexing="ij")
        XV = np.meshgrid(x1c, x2e[1:-1], indexing="ij")
        err = max(float(np.max(np.abs(sol.u[1:-1, :] - u_e(*XU)))),
                  float(np.max(np.abs(sol.v[:, 1:-1] - v_e(*XV)))))
        errs.append(err)
    hs = [1.0 / n for n in sizes]
    assert fit_loglog_slope(hs, errs) >= 1.8


def test_tangential_energy_minimization():
    cfg = tangential_config(n=12)
    _, _, _, forcing = tangential_exact(cfg)
    sol = solve_tangential_darcy(cfg, forcing)
    r1, r2 = cfg.resistance()
    n1, n2 = cfg.shape
    d1, d2 = 1.0 / n1, 1.0 / n2
    x1e = np.linspace(0.0, 1.0, n1 + 1)
    x2e = np.linspace(0.0, 1.0, n2 + 1)
    x1c = 0.5 * (x1e[1:] + x1e[:-1])
    x2c = 0.5 * (x2e[1:] + x2e[:-1])
    XU = np.meshgrid(x1e[1:-1], x2c, indexing="ij")
    XV = np.meshgrid(x1c, x2e[1:-1], indexing="ij")
    f_u = np.asarray(forcing(*XU)[0])
    f_v = np.asarray(forcing(*XV)[1])

    def functional(u, v):
        return d1 * d2 * (0.5 * r1 * float(np.sum(u ** 2))
                          + 0.5 * r2 * float(np.sum(v ** 2))
                          - float(np.sum(f_u * u[1:-1, :]))
                          - float(np.sum(f_v * v[:, 1:-1])))

    base = functional(sol.u, sol.v)
    rng = np.random.default_rng(77)
    for _ in range(5):
        psi = np.zeros((n1 + 1, n2 + 1))
        psi[1:-1, 1:-1] = rng.standard_normal((n1 - 1, n2 - 1))
        du = np.diff(psi, axis=1) / d2
        dv = -np.diff(psi, axis=0) / d1
        pert_u = sol.u + du
        pert_v = sol.v + dv
        div = np.diff(pert_u, axis=0) / d1 + np.diff(pert_v, axis=1) / d2
        assert np.max(np.abs(div)) < 1e-9
        assert functional(pert_u, pert_v) >= base - 1e-12 * abs(base)
