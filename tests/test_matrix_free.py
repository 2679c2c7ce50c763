"""The separable bed routes and the torsion cell form no Kronecker matrix,
the factor of the mode matrix adds no fill, and the advective route forms
no compressed or COO matrix and factors nothing."""

import numpy as np
import scipy.sparse
import scipy.sparse.linalg as spla
from scipy.sparse._compressed import _cs_matrix
from scipy.sparse._coo import _coo_base

from fisshom import _numerics, cli, limit_flow, limit_transport
from fisshom.cell import solve_poisson_cell
from fisshom.config import parse_config
from fisshom.fissure_transport import transmission_coeffs
from fisshom.limit_flow import FlowBC, FlowConfig, solve_limit_flow
from fisshom.limit_transport import TransportConfig, solve_limit_transport

from test_limit_flow import _separable_cases
from test_limit_transport import (_surface_sources, _uniform_case,
                                  _varying_fields)
from _oracles import limit_transport_splu


def test_separable_routes_form_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Kronecker matrix was formed")

    # every namespace that could hold the function
    for owner in (_numerics, limit_flow, limit_transport):
        monkeypatch.setattr(owner, "kronecker_sum", refuse, raising=False)
    monkeypatch.setattr(scipy.sparse, "kron", refuse)
    for cfg, bc, src_p, src_m in _separable_cases().values():
        sol = solve_limit_flow(cfg, bc, source_plus=src_p,
                               source_minus=src_m)
        assert sol.route == "separable" and sol.residual <= 1e-14
    sol = solve_limit_transport(_uniform_case(), *_surface_sources())
    assert sol.route == "separable" and sol.residual <= 1e-14
    assert solve_poisson_cell(64).residual <= 1e-9


def _beds_solves(n: int):
    """The separable solves of the bed benchmark on the default experiment
    at n cells per bed: flow for each boundary kind, and transport without
    and with surface diffusion."""
    cfg = parse_config()
    ctx = cli._Context(cfg)
    f, t = cfg.flow, cfg.transport
    flow = FlowConfig(f["k_plus"], f["k_minus"], f["mu_plus_viscosity"],
                      f["mu_minus_viscosity"], f["mu_fissure_viscosity"],
                      ctx.torsion.k0, ctx.stats, height=cfg.h_length,
                      shape=(n,) * 4)

    def zero(*x):
        return 0.0 * x[0]

    for bc in (FlowBC(kind="pressure_ends", p_top=f["p_top"]),
               FlowBC(kind="closed"),
               FlowBC(kind="dirichlet", p_plus=zero, p_minus=zero)):
        yield lambda bc=bc: solve_limit_flow(flow, bc)
    exchange = transmission_coeffs(t["tube_diffusion"], t["R_rate"],
                                   t["drift_v3"], cfg.h_length,
                                   ctx.stats.mean_q2, ctx.stats.mean_inv_q2)
    for surface in (None, (0.3, 0.5)):
        transport = TransportConfig(
            t["diff_plus"], t["diff_minus"], exchange, ctx.stats,
            cell_porosity=t["porosity"], bc_plus=t["bc_plus"],
            bc_minus=t["bc_minus"], surface_diffusion=surface,
            height=cfg.h_length, shape=(n,) * 4)
        yield lambda cfg=transport: solve_limit_transport(cfg)


def test_mode_factor_adds_no_fill(monkeypatch):
    factors = []
    original = spla.splu

    def recording(A, **kwargs):
        lu = original(A, **kwargs)
        factors.append((A.nnz, A.shape[0], lu.L.nnz + lu.U.nnz))
        return lu

    monkeypatch.setattr(spla, "splu", recording)
    for solve in _beds_solves(16):
        assert solve().route == "separable"
    assert len(factors) == 5
    for nnz, n, fill in factors:
        # L carries a unit diagonal: no entry outside the pattern of M
        assert fill <= nnz + n


def test_advective_route_forms_no_grid_matrix(monkeypatch):
    cfg = _uniform_case(**_varying_fields())
    sources = _surface_sources()
    ref = limit_transport_splu(cfg, *sources)
    formed = []
    for cls in (_cs_matrix, _coo_base):
        original = cls.__init__

        def recording(self, *args, original=original, **kwargs):
            original(self, *args, **kwargs)
            formed.append((type(self).__name__, self.shape))

        monkeypatch.setattr(cls, "__init__", recording)

    def refuse(*args, **kwargs):
        raise AssertionError("SuperLU was called")

    monkeypatch.setattr(spla, "splu", refuse)
    sol = solve_limit_transport(cfg, *sources)
    assert formed == []
    assert sol.route == "krylov" and sol.residual <= 1e-9
    for got, want in ((sol.u_plus, ref.u_plus), (sol.u_minus, ref.u_minus)):
        assert np.max(np.abs(got - want)) <= 1e-12 * (
            1.0 + np.max(np.abs(want)))
