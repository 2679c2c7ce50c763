"""Coupled transport solver: exact columns, manufactured fields, and the
interface exchange behavior."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fisshom import limit_transport
from fisshom._numerics import (_mode_matrix, fit_loglog_slope,
                               separable_factors, separable_inverse,
                               solve_separable)
from fisshom.fissure_transport import transmission_coeffs
from fisshom.limit_flow import FlowConfig
from fisshom.limit_transport import (
    TransportConfig,
    mass_balance_gap,
    solve_limit_transport,
)
from fisshom.stochastic import constant_stats

from _oracles import (kronecker_sum, limit_transport_coo, limit_transport_splu,
                      limit_transport_upwind, mode_matrix_kron)

STATS = constant_stats(0.5)
LAYER = dict(height=0.8, mean_qq=0.25, mean_inv_qq=4.2)


def exchange(reaction=0.0, v3=0.0, diffusion=1.0):
    return transmission_coeffs(diffusion, reaction, v3, **LAYER)


def base_config(**kw):
    defaults = dict(
        diff_plus=(1.0, 1.0, 1.0),
        diff_minus=(0.8, 0.8, 1.2),
        exchange=exchange(),
        stats=STATS,
        height=0.8,
        depth_plus=1.0,
        depth_minus=1.0,
        shape=(6, 6, 6, 6),
    )
    defaults.update(kw)
    return TransportConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError, match="reactions"):
        base_config(reaction_plus=-1.0)
    with pytest.raises(ValueError, match="porosity"):
        base_config(cell_porosity=1.5)
    with pytest.raises(ValueError, match="diagonal"):
        base_config(diff_plus=np.array([[1.0, 0.2, 0.0],
                                        [0.2, 1.0, 0.0],
                                        [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="2 cells"):
        base_config(shape=(1, 6, 6, 6))
    # NaN compares False with every bound, so each check must fail closed
    nan = float("nan")
    for bad, match in (({"reaction_plus": nan}, "reactions"),
                       ({"reaction_minus": nan}, "reactions"),
                       ({"cell_porosity": nan}, "porosity"),
                       ({"height": nan}, "positive"),
                       ({"depth_plus": nan}, "positive"),
                       ({"depth_minus": nan}, "positive")):
        with pytest.raises(ValueError, match=match):
            base_config(**bad)


def _flow_config(**kw):
    return FlowConfig(k_plus=1.0, k_minus=1.0, mu_plus=1.0, mu_minus=1.0,
                      mu_fissure=0.02, k0=0.035, stats=STATS, **kw)


@pytest.mark.parametrize("make", [base_config, _flow_config],
                         ids=["transport", "flow"])
@pytest.mark.parametrize("axis", ["x1_extent", "x2_extent"])
@pytest.mark.parametrize("extent", [(1.0, 0.0), (0.5, 0.5), (0.0, math.nan),
                                    (math.nan, 1.0), (0.0, math.inf),
                                    (-math.inf, 1.0)],
                         ids=["reversed", "equal", "nan_hi", "nan_lo",
                              "inf_hi", "inf_lo"])
def test_bad_horizontal_extent_is_rejected(make, axis, extent):
    with pytest.raises(ValueError, match=axis):
        make(**{axis: extent})


def test_uniform_state_is_exact():
    cfg = base_config(bc_plus=1.0, bc_minus=1.0)
    sol = solve_limit_transport(cfg)
    assert np.max(np.abs(sol.u_plus - 1.0)) < 1e-12
    assert np.max(np.abs(sol.u_minus - 1.0)) < 1e-12
    top, bottom = sol.exchange_fluxes()
    assert np.max(np.abs(top)) < 1e-12
    assert np.max(np.abs(bottom)) < 1e-12
    assert mass_balance_gap(sol) < 1e-12


def column_exact(cfg, u_top, u_bot):
    """Piecewise-linear series-resistance column (no reaction, no drift)."""
    dp = cfg.diff_plus[2]
    dm = cfg.diff_minus[2]
    c = cfg.exchange.exchange_scale
    J = (u_top - u_bot) / (cfg.depth_plus / dp + 1.0 / c
                           + cfg.depth_minus / dm)
    a_plus = u_top - J / dp * 0.0 - J / dp * (-cfg.depth_plus) * 0.0
    # u_plus(z) = trace + (J/dp) z with u_plus(H+) = u_top
    trace_p = u_top - (J / dp) * cfg.depth_plus
    trace_m = trace_p - J / c
    u_plus = lambda z: trace_p + (J / dp) * z
    u_minus = lambda z: trace_m + (J / dm) * (z + cfg.height)
    del a_plus
    return J, u_plus, u_minus


def test_series_resistance_column_exact():
    cfg = base_config(shape=(4, 4, 7, 5))
    u_top, u_bot = 1.0, 0.2
    J, up_e, um_e = column_exact(cfg, u_top, u_bot)
    bc_p = lambda x1, x2, x3: up_e(x3)
    bc_m = lambda x1, x2, x3: um_e(x3)
    sol = solve_limit_transport(base_config(shape=(4, 4, 7, 5),
                                            bc_plus=bc_p, bc_minus=bc_m))
    zp = cfg.vertex_axes("plus")[2]
    zm = cfg.vertex_axes("minus")[2]
    assert np.max(np.abs(sol.u_plus - up_e(zp)[None, None, :])) < 1e-10
    assert np.max(np.abs(sol.u_minus - um_e(zm)[None, None, :])) < 1e-10
    top, bottom = sol.exchange_fluxes()
    assert np.max(np.abs(top - J)) < 1e-10
    assert np.max(np.abs(bottom - J)) < 1e-10
    assert mass_balance_gap(sol) < 1e-12


def mms_setup(cfg):
    """Manufactured trig-by-polynomial pair with surface sources closing the
    interface balances; no advection so the scheme stays second order."""
    h = cfg.height
    dp = cfg.diff_plus
    dm = cfg.diff_minus
    rp, rm = cfg.reaction_plus, cfg.reaction_minus
    ex = cfg.exchange
    ds = cfg.surface_diffusion
    sscale = cfg.surface_scale
    pi = math.pi

    phi = lambda x1, x2: np.cos(pi * x1) * np.cos(pi * x2)
    psi_p = lambda z: 0.4 + 0.3 * z + 0.6 * z ** 2
    dpsi_p = lambda z: 0.3 + 1.2 * z
    psi_m = lambda z: 0.7 - 0.2 * (z + h) + 0.5 * (z + h) ** 2
    dpsi_m = lambda z: -0.2 + 1.0 * (z + h)

    u_p = lambda x1, x2, x3: phi(x1, x2) * psi_p(x3)
    u_m = lambda x1, x2, x3: phi(x1, x2) * psi_m(x3)

    def f_p(x1, x2, x3):
        lap = -(dp[0] + dp[1]) * pi ** 2 * psi_p(x3) + dp[2] * 1.2
        return (phi(x1, x2) * (-lap + rp * psi_p(x3))) / cfg.cell_porosity

    def f_m(x1, x2, x3):
        lap = -(dm[0] + dm[1]) * pi ** 2 * psi_m(x3) + dm[2] * 1.0
        return phi(x1, x2) * (-lap + rm * psi_m(x3))

    tr_p, tr_m = psi_p(0.0), psi_m(-h)
    j_top = ex.exchange_scale * (ex.cosh_factor * tr_p
                                 - ex.advective_factor * tr_m)
    j_bot = ex.exchange_scale * (tr_p - ex.advective_factor
                                 * ex.cosh_factor * tr_m)

    def s_plus(x1, x2):
        surf = sscale * (ds[0] + ds[1]) * pi ** 2 * tr_p
        return phi(x1, x2) * (-dp[2] * dpsi_p(0.0) + surf + j_top)

    def s_minus(x1, x2):
        return phi(x1, x2) * (dm[2] * dpsi_m(-h) - j_bot)

    return u_p, u_m, f_p, f_m, s_plus, s_minus


def test_mms_convergence_order():
    errs = []
    sizes = [6, 12, 24]
    for n in sizes:
        cfg = base_config(
            shape=(n, n, n, n),
            reaction_plus=0.7,
            reaction_minus=0.4,
            surface_diffusion=(0.3, 0.5),
            exchange=exchange(reaction=1.1, v3=0.4),
            cell_porosity=0.9,
        )
        u_p, u_m, f_p, f_m, s_p, s_m = mms_setup(cfg)
        cfg = base_config(
            shape=(n, n, n, n),
            reaction_plus=0.7,
            reaction_minus=0.4,
            surface_diffusion=(0.3, 0.5),
            exchange=exchange(reaction=1.1, v3=0.4),
            cell_porosity=0.9,
            source_plus=f_p,
            source_minus=f_m,
            bc_plus=u_p,
            bc_minus=u_m,
        )
        sol = solve_limit_transport(cfg, surface_source=s_p,
                                    surface_source_minus=s_m)
        x1, x2, zp = cfg.vertex_axes("plus")
        zm = cfg.vertex_axes("minus")[2]
        Xp = np.meshgrid(x1, x2, zp, indexing="ij")
        Xm = np.meshgrid(x1, x2, zm, indexing="ij")
        err = max(float(np.max(np.abs(sol.u_plus - u_p(*Xp)))),
                  float(np.max(np.abs(sol.u_minus - u_m(*Xm)))))
        errs.append(err)
        assert mass_balance_gap(sol, surface_source=s_p,
                                surface_source_minus=s_m) < 1e-10
    hs = [1.0 / n for n in sizes]
    assert fit_loglog_slope(hs, errs) >= 1.8


def test_nonnegativity_with_full_physics():
    cfg = base_config(
        shape=(7, 7, 6, 6),
        reaction_plus=0.5,
        reaction_minus=0.3,
        exchange=exchange(reaction=0.8, v3=0.6),
        surface_diffusion=(0.4, 0.4),
        surface_velocity=lambda x1, x2: (0.5 * np.ones_like(x1),
                                         -0.3 * np.ones_like(x1)),
        vel_plus=lambda x1, x2, x3: (0.3 * np.ones_like(x1),
                                     -0.2 * np.ones_like(x1),
                                     0.4 * np.ones_like(x1)),
        vel_minus=lambda x1, x2, x3: (0.1 * np.ones_like(x1),
                                      0.2 * np.ones_like(x1),
                                      -0.3 * np.ones_like(x1)),
        source_plus=lambda x1, x2, x3: 1.0 + np.sin(math.pi * x1) ** 2,
        cell_porosity=0.8,
    )
    sol = solve_limit_transport(cfg)
    lo, hi = sol.extrema()
    assert lo >= -1e-12
    assert hi > 0.0
    assert mass_balance_gap(sol) < 1e-8


def test_max_principle_without_sources():
    cfg = base_config(
        shape=(6, 6, 5, 5),
        exchange=exchange(v3=0.5),
        vel_plus=lambda x1, x2, x3: (0.4 * np.ones_like(x1),
                                     np.zeros_like(x1),
                                     -0.6 * np.ones_like(x1)),
        bc_plus=lambda x1, x2, x3: 0.5 + 0.5 * np.sin(math.pi * x1) ** 2,
        bc_minus=0.25,
    )
    sol = solve_limit_transport(cfg)
    lo, hi = sol.extrema()
    assert lo >= 0.25 - 1e-12
    assert hi <= 1.0 + 1e-12


def test_layer_reaction_continuity_limit():
    kw = dict(shape=(6, 6, 6, 6), bc_plus=1.0, bc_minus=0.0,
              surface_diffusion=(0.2, 0.2))
    sol0 = solve_limit_transport(base_config(exchange=exchange(0.0), **kw))
    solr = solve_limit_transport(base_config(exchange=exchange(1e-10), **kw))
    gap = max(float(np.max(np.abs(sol0.u_plus - solr.u_plus))),
              float(np.max(np.abs(sol0.u_minus - solr.u_minus))))
    assert gap < 1e-6
    top, bottom = sol0.exchange_fluxes()
    assert np.max(np.abs(top - bottom)) < 1e-12


def test_exchange_moves_mass_downward():
    cfg = base_config(shape=(6, 6, 6, 6), bc_plus=1.0, bc_minus=0.0)
    sol = solve_limit_transport(cfg)
    top, _ = sol.exchange_fluxes()
    assert np.min(top) > 0.0
    assert float(sol.u_minus[3, 3, 2]) > 0.0
    assert float(sol.u_minus.max()) < 1.0


def test_mean_exchange_fluxes_weight_by_control_volume():
    cfg = base_config(shape=(6, 4, 6, 6), bc_plus=1.0, bc_minus=0.0)
    sol = solve_limit_transport(cfg)
    w = np.outer(np.r_[0.5, np.ones(5), 0.5], np.r_[0.5, np.ones(3), 0.5])
    w /= w.sum()
    for flux, mean in zip(sol.exchange_fluxes(), sol.mean_exchange_fluxes()):
        assert mean == pytest.approx(float(np.sum(w * flux)), rel=1e-14)
        # the edge vertices carry the lateral boundary data, so the plain
        # vertex mean is a different number
        assert abs(mean - float(np.mean(flux))) > 1e-6


def test_surface_diffusion_flattens_trace():
    src = lambda x1, x2, x3: np.exp(-40.0 * ((x1 - 0.5) ** 2
                                             + (x2 - 0.5) ** 2))
    kw = dict(shape=(10, 10, 5, 5), source_plus=src)
    plain = solve_limit_transport(base_config(**kw))
    smoothed = solve_limit_transport(
        base_config(surface_diffusion=(50.0, 50.0), **kw))
    spread_plain = float(np.max(plain.trace_plus) - np.min(plain.trace_plus))
    spread_smooth = float(np.max(smoothed.trace_plus)
                          - np.min(smoothed.trace_plus))
    assert spread_smooth < 0.2 * spread_plain


def _uniform_case(**kw):
    """Reactions, surface diffusion, callable boundary data, volume sources,
    n1 != n2, nz+ != nz- and unequal depths on an off-origin cross-section."""
    args = dict(
        diff_plus=(1.0, 0.7, 0.6), diff_minus=(0.5, 0.9, 1.2),
        exchange=exchange(reaction=0.4, v3=-0.3, diffusion=0.8),
        reaction_plus=0.4, reaction_minus=0.15,
        surface_diffusion=(0.3, 0.5), cell_porosity=0.6,
        source_plus=lambda a, b, c: np.cos(2.0 * a) + c,
        source_minus=lambda a, b, c: b * b,
        bc_plus=lambda a, b, c: 1.0 + a * b + 0.2 * c,
        bc_minus=lambda a, b, c: np.sin(c) + 2.0,
        depth_plus=1.1, depth_minus=0.7, x1_extent=(0.2, 1.5),
        x2_extent=(-0.4, 0.5), shape=(9, 6, 7, 5))
    args.update(kw)
    return base_config(**args)


def _surface_sources():
    return (lambda a, b: 0.5 + a * b), (lambda a, b: np.cos(b))


def test_separable_route_matches_splu_oracle():
    cfg = _uniform_case()
    top, bottom = _surface_sources()
    sol = solve_limit_transport(cfg, top, bottom)
    ref = limit_transport_splu(cfg, top, bottom)
    assert sol.route == "separable" and ref.route == "splu"
    for got, want in ((sol.u_plus, ref.u_plus), (sol.u_minus, ref.u_minus)):
        assert np.max(np.abs(got - want)) <= 1e-12 * (
            1.0 + np.max(np.abs(want)))
    assert sol.residual <= 1e-14
    assert mass_balance_gap(sol, top, bottom) < 1e-12


def _varying_fields(scale=1.0):
    """Velocities that vary in x1 and x2 in both beds, with a downward
    mean, and a surface velocity: the non-separable input of the advective
    benchmark."""
    return dict(
        vel_plus=lambda a, b, c: (scale * np.sin(np.pi * b),
                                  scale * 0.8 * np.cos(np.pi * a),
                                  -0.5 * scale * (1.0 + 0.5 * np.cos(a * b))),
        vel_minus=lambda a, b, c: (scale * 0.6 * np.cos(np.pi * (a + b)),
                                   -scale * np.sin(np.pi * a),
                                   -0.4 * scale * np.ones_like(a)),
        surface_velocity=lambda a, b: (scale * 0.3 * np.sin(2 * np.pi * b),
                                       -scale * 0.2 * np.sin(2 * np.pi * a)))


_CONSTANT_FIELDS = {
    "vel_plus": lambda a, b, c: (0.3 * np.ones_like(a), 0.0 * a,
                                 -0.2 * np.ones_like(a)),
    "vel_minus": lambda a, b, c: (0.0 * a, -0.4 * np.ones_like(a),
                                  -0.1 * np.ones_like(a)),
    "surface_velocity": lambda a, b: (0.2 * np.ones_like(a), 0.1 * b),
}


@pytest.mark.parametrize("velocity", ["vel_plus", "vel_minus",
                                      "surface_velocity", "varying"])
def test_any_velocity_takes_the_general_route(velocity):
    if velocity == "varying":
        cfg = _uniform_case(**_varying_fields())
    else:
        cfg = _uniform_case(**{velocity: _CONSTANT_FIELDS[velocity]})
    top, bottom = _surface_sources()
    sol = solve_limit_transport(cfg, top, bottom)
    ref = limit_transport_splu(cfg, top, bottom)
    assert sol.route == "krylov" and 0 < sol.iterations
    for got, want in ((sol.u_plus, ref.u_plus), (sol.u_minus, ref.u_minus)):
        assert np.max(np.abs(got - want)) <= 1e-12 * (
            1.0 + np.max(np.abs(want)))
    assert sol.residual <= 1e-12
    assert mass_balance_gap(sol, top, bottom) < 1e-12


def test_krylov_route_repeats_exactly():
    cfg = _uniform_case(**_varying_fields())
    first = solve_limit_transport(cfg)
    again = solve_limit_transport(cfg)
    assert first.route == again.route == "krylov"
    assert np.array_equal(first.u_plus, again.u_plus)
    assert np.array_equal(first.u_minus, again.u_minus)


@pytest.mark.parametrize("scale", [1.0, 1e4], ids=["krylov", "splu"])
def test_each_field_is_called_once_per_face_grid(scale):
    """A solve samples each bed field on its three face grids and the
    surface field on its two edge grids, once each; the balance check
    reads those samples and calls no field."""
    calls = dict.fromkeys(("vel_plus", "vel_minus", "surface_velocity"), 0)

    def counting(name, field):
        def wrapper(*coords):
            calls[name] += 1
            return field(*coords)
        return wrapper

    fields = {name: counting(name, field)
              for name, field in _varying_fields(scale).items()}
    sources = _surface_sources()
    sol = solve_limit_transport(_uniform_case(**fields), *sources)
    assert sol.route == ("krylov" if scale == 1.0 else "splu")
    want = {"vel_plus": 3, "vel_minus": 3, "surface_velocity": 2}
    assert calls == want
    assert mass_balance_gap(sol, *sources) < 1e-12
    assert calls == want
    assert solve_limit_transport(_uniform_case()).face_velocities == {}


@pytest.mark.parametrize("name,axis", [("vel_plus", 0), ("vel_plus", 2),
                                       ("vel_minus", 1),
                                       ("surface_velocity", 0)])
def test_balance_check_sees_a_changed_face_velocity(name, axis):
    """The balance check re-walks the divergence with the velocities the
    solve used: one changed face value must break it."""
    sources = _surface_sources()
    sol = solve_limit_transport(_uniform_case(**_varying_fields()),
                                *sources)
    assert mass_balance_gap(sol, *sources) < 1e-12
    normal = list(sol.face_velocities[name])
    normal[axis] = normal[axis].copy()
    normal[axis][tuple(m // 2 for m in normal[axis].shape)] += 0.5
    changed = replace(sol, face_velocities=dict(sol.face_velocities,
                                                **{name: tuple(normal)}))
    assert mass_balance_gap(changed, *sources) > 1e-8


def test_every_route_assembles_the_system_once(monkeypatch):
    """One set of factors per solve; only the non-separable routes write
    the diagonal form of A, once."""
    calls = {"_operator": 0, "_diagonal_form": 0}

    def counting(name):
        original = getattr(limit_transport, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(limit_transport, name, counting(name))
    counts = {}
    for fields in ({}, _varying_fields(), _varying_fields(scale=1e4)):
        for name in calls:
            calls[name] = 0
        sol = solve_limit_transport(_uniform_case(**fields),
                                    *_surface_sources())
        counts[sol.route] = dict(calls)
    assert counts == {
        "separable": {"_operator": 1, "_diagonal_form": 0},
        "krylov": {"_operator": 1, "_diagonal_form": 1},
        "splu": {"_operator": 1, "_diagonal_form": 1}}


def test_velocity_free_part_ignores_the_velocities():
    sources = _surface_sources()
    op = limit_transport._assemble_system(
        _uniform_case(**_varying_fields()), *sources)[0]
    op0 = limit_transport._assemble_system(_uniform_case(), *sources)[0]
    for factor, factor0 in zip(op, op0):
        assert np.array_equal(factor, factor0)


_FIELDS = {"still": {}, "varying": _varying_fields(),
           "high_peclet": _varying_fields(scale=1e4)}


@pytest.mark.parametrize("fields", list(_FIELDS.values()), ids=list(_FIELDS))
def test_kronecker_sum_matches_face_assembly(fields):
    """The Kronecker sum of the factors is the face-by-face S; with
    velocities, the diagonal form of A is S plus the face-by-face U, entry
    by entry."""
    cfg = _uniform_case(**fields)
    op, _, _, _, meshp, meshm = limit_transport._assemble_system(
        cfg, *_surface_sources())
    velocities = limit_transport._face_velocities(cfg, meshp, meshm)
    got = kronecker_sum(op)
    want = limit_transport_coo(cfg)
    assert got.nnz == want.nnz
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.max(np.abs(got.data - want.data)) <= 1e-15 * np.max(
        np.abs(want.data))
    if fields:
        got = limit_transport._diagonal_form(cfg, op, meshp, meshm,
                                             velocities)
        assert got.format == "dia" and got.offsets.size == 7
        want = (want + limit_transport_upwind(cfg)).toarray()
        assert np.max(np.abs(got.toarray() - want)) <= 1e-15 * np.max(
            np.abs(want))


@pytest.mark.parametrize("fields", [{}, _varying_fields()],
                         ids=["still", "varying"])
def test_tensor_apply_matches_kronecker_sum(fields):
    op = limit_transport._assemble_system(_uniform_case(**fields),
                                          *_surface_sources())[0]
    A = kronecker_sum(op)
    x = np.random.default_rng(5).standard_normal(A.shape[0])
    assert np.max(np.abs(op @ x - A @ x)) <= 1e-15 * np.max(
        np.abs(A.data)) * np.max(np.abs(x))
    assert op.max_abs() == np.max(np.abs(A.data))


def test_mode_matrix_is_the_kronecker_form():
    op = limit_transport._assemble_system(_uniform_case(),
                                          *_surface_sources())[0]
    modes = separable_factors(op, slice(1, -1))
    grid = (op.shape[0] - 2, op.shape[1] - 2, "dst1")
    got = _mode_matrix(*modes, *grid)
    want = mode_matrix_kron(*modes, *grid)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))


@pytest.mark.parametrize("v3", [-1.5, 0.0, 1.5])
@pytest.mark.parametrize("n", [8, 16, 24])
def test_batched_tridiagonal_factor_matches_splu(n, v3):
    """The preconditioner's banded factor of the transport modes against
    the SuperLU solve of the mode matrix."""
    cfg = _uniform_case(exchange=exchange(reaction=0.4, v3=v3,
                                          diffusion=0.8), shape=(n,) * 4)
    op = limit_transport._assemble_system(cfg, None, None)[0]
    modes = separable_factors(op, slice(1, -1))
    shape = tuple(m - 2 for m in op.shape)
    r = np.random.default_rng(n).standard_normal(shape)
    got = separable_inverse(*modes, shape, "dst1")(r.ravel())
    want, _ = solve_separable(*modes, r, "dst1")
    assert np.max(np.abs(got - want.ravel())) <= 1e-12 * (
        1.0 + np.max(np.abs(want)))


def test_batched_tridiagonal_factor_rejects_bad_blocks():
    h = np.ones(3)
    C = 2.0 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1)
    separable_inverse(C, h, h, (4, 4, 3), "dst1")
    wide = C.copy()
    wide[0, 2] = -0.1
    with pytest.raises(ValueError, match="tridiagonal"):
        separable_inverse(wide, h, h, (4, 4, 3), "dst1")
    # the second pivot of the first mode is 2.5 + s - 9 / (2.5 + s) < 0
    strong = 2.5 * np.eye(3) - 3.0 * np.eye(3, k=1) - 3.0 * np.eye(3, k=-1)
    with pytest.raises(ValueError, match="pivot 1"):
        separable_inverse(strong, 0.1 * h, 0.1 * h, (4, 4, 3), "dst1")
    with pytest.raises(ValueError, match="pivot 2"):
        separable_inverse(C, h, np.r_[1.0, 1.0, np.nan], (4, 4, 3), "dst1")


def test_high_peclet_falls_back_to_splu():
    cfg = _uniform_case(**_varying_fields(scale=1e4))
    top, bottom = _surface_sources()
    sol = solve_limit_transport(cfg, top, bottom)
    ref = limit_transport_splu(cfg, top, bottom)
    assert sol.route == "splu" and sol.iterations > 0
    assert np.array_equal(sol.u_plus, ref.u_plus)
    assert np.array_equal(sol.u_minus, ref.u_minus)
    assert sol.residual == ref.residual


@pytest.mark.parametrize("name", ["vel_plus", "vel_minus",
                                  "surface_velocity"])
def test_non_finite_velocity_is_rejected(name):
    field = _CONSTANT_FIELDS[name]
    if name == "surface_velocity":
        bad = lambda a, b: (field(a, b)[0], np.where(a > 0.5, np.nan, b))
    else:
        bad = lambda a, b, c: field(a, b, c)[:2] + (np.full_like(a, np.inf),)
    with pytest.raises(ValueError, match=name):
        solve_limit_transport(_uniform_case(**{name: bad}))
