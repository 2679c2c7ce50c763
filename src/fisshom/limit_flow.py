"""Homogenized filtration through two porous beds linked by a fissure layer.

Both beds carry Darcy flow for an effective diagonal permeability; the fissure
layer of thickness `height` between them has collapsed to a transmission
condition on the shared horizontal cross-section: the vertical flux through
the layer is

    V = lam * (p_plus_trace - p_minus_trace),
    lam = k0 / (mu_fissure * height * <1/q^2>),

positive downward, where k0 is the unit-cell torsion constant and <1/q^2> the
reciprocal aperture-product average.  The per-tube mean velocity
(`fissure_transport.vertical_velocity`) is V / <q^2>.

Discretization: cell-centered finite volumes with two-point fluxes on a
tensor grid per bed.  The interface condition is eliminated column by column:
face traces are reconstructed one-sidedly to second order from the two cells
nearest the interface, the 2x2 trace system is solved in closed form, and the
resulting flux expression couples the two beds four cells at a time.

Solve: the beds share one tensor grid whose column axis is stacked [minus
bottom->top, plus bottom->top], interface cells adjacent.  Every bed has a
constant diagonal permeability on a uniform horizontal grid, so the operator
is a Kronecker sum of 1-D factors (`_numerics.TensorOperator`) whose column
operator carries the vertical fluxes, the Dirichlet ends and the interface
stencil.  The same factors give one banded column system per horizontal
mode of an orthonormal cosine (no-flow side walls) or sine (Dirichlet side
walls) transform, all factored at once in their natural order, where the
banded blocks make no fill (`_numerics.solve_separable`).  The 3-D matrix is
never formed: the residual applies the operator in tensor form, each 1-D
factor by its diagonals, and the closed-flow compatibility scale max|A|
comes from the factors.  The tests keep the face-by-face assembly of the matrix
as the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._numerics import (TensorOperator, check_interval, checked_residual,
                        max_or_nan, on_grid, positive_diagonal,
                        separable_factors, solve_separable, stiffness)
from .fissure_transport import vertical_velocity
from .stochastic import ErgodicStats


@dataclass(frozen=True)
class FlowConfig:
    """Geometry, material data, and resolution for the coupled flow solve."""

    k_plus: object
    k_minus: object
    mu_plus: float
    mu_minus: float
    mu_fissure: float
    k0: float
    stats: ErgodicStats
    height: float = 1.0
    depth_plus: float = 1.0
    depth_minus: float = 1.0
    x1_extent: tuple[float, float] = (0.0, 1.0)
    x2_extent: tuple[float, float] = (0.0, 1.0)
    shape: tuple[int, int, int, int] = (8, 8, 8, 8)
    gravity_plus: float = 0.0
    gravity_minus: float = 0.0

    def __post_init__(self):
        for name in ("mu_plus", "mu_minus", "mu_fissure", "k0", "height",
                     "depth_plus", "depth_minus"):
            # written so that NaN fails: it compares False with any bound
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        check_interval(self.x1_extent, "x1_extent")
        check_interval(self.x2_extent, "x2_extent")
        n1, n2, nzp, nzm = self.shape
        if min(n1, n2) < 2 or min(nzp, nzm) < 3:
            raise ValueError("need at least 2 horizontal and 3 vertical "
                             "cells per bed")
        object.__setattr__(self, "k_plus",
                           positive_diagonal(self.k_plus, 3, "k_plus"))
        object.__setattr__(self, "k_minus",
                           positive_diagonal(self.k_minus, 3, "k_minus"))

    @property
    def coupling(self) -> float:
        """Interface conductance lam relating V to the trace jump."""
        return self.k0 / (self.mu_fissure * self.height
                          * self.stats.mean_inv_q2)

    def horizontal_centers(self):
        n1, n2 = self.shape[:2]
        x1 = np.linspace(*self.x1_extent, n1 + 1)
        x2 = np.linspace(*self.x2_extent, n2 + 1)
        return 0.5 * (x1[1:] + x1[:-1]), 0.5 * (x2[1:] + x2[:-1])

    def vertical_centers(self, side: str) -> np.ndarray:
        if side == "plus":
            n = self.shape[2]
            edges = np.linspace(0.0, self.depth_plus, n + 1)
        else:
            n = self.shape[3]
            edges = np.linspace(-self.height - self.depth_minus,
                                -self.height, n + 1)
        return 0.5 * (edges[1:] + edges[:-1])


@dataclass(frozen=True)
class FlowBC:
    """Outer boundary data; the interface is always the transmission law.

    kind "closed": no-flow everywhere outside, solution fixed by the gauge
    mean(p_plus) = 0.  kind "pressure_ends": pressure data on the top of the
    upper bed and the bottom of the lower bed (floats or callables of
    (x1, x2)), no-flow side walls.  kind "dirichlet": callables of
    (x1, x2, x3) giving pressure data on every outer face of each bed.
    """

    kind: str = "pressure_ends"
    p_top: object = 0.0
    p_bottom: object = 0.0
    p_plus: object = None
    p_minus: object = None

    def __post_init__(self):
        if self.kind not in ("closed", "pressure_ends", "dirichlet"):
            raise ValueError("bc kind must be 'closed', 'pressure_ends', "
                             "or 'dirichlet'")
        if self.kind == "dirichlet" and (self.p_plus is None
                                         or self.p_minus is None):
            raise ValueError("dirichlet bc needs p_plus and p_minus callables")


class _Bed:
    """Bookkeeping for one bed: its (n1, n2, nz) cells, k increasing upward,
    are the `layers` of the column stacked [minus bottom->top, plus
    bottom->top] on the common tensor grid."""

    def __init__(self, cfg: FlowConfig, side: str):
        self.side = side
        n1, n2, nzp, nzm = cfg.shape
        self.layers = (slice(nzm, nzm + nzp) if side == "plus"
                       else slice(0, nzm))
        self.shape = (n1, n2, nzp if side == "plus" else nzm)
        self.kappa = (cfg.k_plus / cfg.mu_plus if side == "plus"
                      else cfg.k_minus / cfg.mu_minus)
        self.d1 = (cfg.x1_extent[1] - cfg.x1_extent[0]) / n1
        self.d2 = (cfg.x2_extent[1] - cfg.x2_extent[0]) / n2
        depth = cfg.depth_plus if side == "plus" else cfg.depth_minus
        self.d3 = depth / self.shape[2]
        self.deltas = (self.d1, self.d2, self.d3)
        self.vol = self.d1 * self.d2 * self.d3
        self.x1c, self.x2c = cfg.horizontal_centers()
        self.x3c = cfg.vertical_centers(side)
        self.gravity = (cfg.gravity_plus if side == "plus"
                        else cfg.gravity_minus)

    def face_area(self, axis: int) -> float:
        return self.vol / self.deltas[axis]


def _bed_rhs(bed: _Bed, bc: FlowBC, b: np.ndarray):
    """Add gravity and the outer boundary data of one bed to its cells `b`
    of the right-hand side."""
    kap = bed.kappa
    fg = kap[2] * bed.gravity * bed.face_area(2)
    # gravity on interior vertical faces telescopes to the column ends
    if bed.gravity != 0.0:
        b[:, :, :-1] -= fg
        b[:, :, 1:] += fg
    if bc.kind == "closed":
        return
    x1c, x2c, x3c = bed.x1c, bed.x2c, bed.x3c
    plus = bed.side == "plus"
    end = -1 if plus else 0
    if bc.kind == "pressure_ends":
        ends = on_grid(bc.p_top if plus else bc.p_bottom, x1c, x2c)
    else:
        p_bc = bc.p_plus if plus else bc.p_minus
        x3 = x3c[end] + (0.5 if plus else -0.5) * bed.d3
        ends = on_grid(p_bc, x1c, x2c, [x3])[:, :, 0]
    faces = [(np.s_[:, :, end], 2, ends)]
    if bc.kind == "dirichlet":
        lo1, hi1 = x1c[0] - 0.5 * bed.d1, x1c[-1] + 0.5 * bed.d1
        lo2, hi2 = x2c[0] - 0.5 * bed.d2, x2c[-1] + 0.5 * bed.d2
        faces += [(np.s_[0], 0, on_grid(p_bc, [lo1], x2c, x3c)[0]),
                  (np.s_[-1], 0, on_grid(p_bc, [hi1], x2c, x3c)[0]),
                  (np.s_[:, 0], 1, on_grid(p_bc, x1c, [lo2], x3c)[:, 0]),
                  (np.s_[:, -1], 1, on_grid(p_bc, x1c, [hi2], x3c)[:, 0])]
    for cells, axis, data in faces:
        tau_b = 2.0 * kap[axis] * bed.face_area(axis) / bed.deltas[axis]
        b[cells] += tau_b * data
        if axis == 2 and bed.gravity != 0.0:
            b[cells] -= fg * (1.0 if plus else -1.0)


@dataclass
class LimitFlowSolution:
    config: FlowConfig
    p_plus: np.ndarray
    p_minus: np.ndarray
    trace_plus: np.ndarray
    trace_minus: np.ndarray
    interface_flux: np.ndarray      # superficial vertical flux V, downward
    tube_velocity: np.ndarray       # per-tube mean velocity V / <q^2>
    mean_p_minus: float
    residual: float
    route: str                      # "separable" (mode by mode) or "splu"

    def flux_continuity_gap(self) -> float:
        """Reassemble the one-sided fluxes on both faces of the layer from
        the solved pressures and compare them with the transmission flux."""
        ts = _trace_system(self.config)
        grad_p = (9.0 * self.p_plus[:, :, 0] - self.p_plus[:, :, 1]
                  - 8.0 * self.trace_plus) / (3.0 * ts.dzp)
        grad_m = -(9.0 * self.p_minus[:, :, -1] - self.p_minus[:, :, -2]
                   - 8.0 * self.trace_minus) / (3.0 * ts.dzm)
        down_out_plus = ts.kp * grad_p - ts.g_p
        down_in_minus = ts.km * grad_m - ts.g_m
        v = self.interface_flux
        return max_or_nan((np.max(np.abs(down_out_plus - v)),
                           np.max(np.abs(down_in_minus - v))))


class _TraceSystem(NamedTuple):
    """Closed-form elimination data for the per-column 2x2 trace solve."""

    kp: float       # vertical conductances k3 / mu at the layer
    km: float
    g_p: float      # gravity fluxes kp * gravity_plus, km * gravity_minus
    g_m: float
    dzp: float      # cell heights
    dzm: float
    gam_p: float    # kp / (3 dzp), km / (3 dzm)
    gam_m: float
    lam: float      # interface conductance
    Minv: np.ndarray


def _trace_system(cfg: FlowConfig) -> _TraceSystem:
    _, _, nzp, nzm = cfg.shape
    kp = cfg.k_plus[2] / cfg.mu_plus
    km = cfg.k_minus[2] / cfg.mu_minus
    dzp = cfg.depth_plus / nzp
    dzm = cfg.depth_minus / nzm
    gam_p = kp / (3.0 * dzp)
    gam_m = km / (3.0 * dzm)
    lam = cfg.coupling
    M = np.array([[-(8.0 * gam_p + lam), lam],
                  [-lam, 8.0 * gam_m + lam]])
    return _TraceSystem(kp, km, kp * cfg.gravity_plus, km * cfg.gravity_minus,
                        dzp, dzm, gam_p, gam_m, lam, np.linalg.inv(M))


def _assemble_system(cfg: FlowConfig, bc: FlowBC, source_plus,
                     source_minus):
    """The 1-D factors of the operator of both beds on the stacked grid,
    before any gauge, its right-hand side b on that grid, and the two beds'
    bookkeeping.  Faces carry two-point fluxes; outer faces are no-flow, or
    carry the 2 tau boundary face of a ghost Dirichlet value."""
    bedp = _Bed(cfg, "plus")
    bedm = _Bed(cfg, "minus")
    n1, n2, nzp, nzm = cfg.shape
    b = np.zeros((n1, n2, nzp + nzm))
    cz = np.zeros((nzp + nzm,) * 2)
    g = []
    for bed, src in ((bedm, source_minus), (bedp, source_plus)):
        _bed_rhs(bed, bc, b[:, :, bed.layers])
        if src is not None:
            b[:, :, bed.layers] += (on_grid(src, bed.x1c, bed.x2c, bed.x3c)
                                    * bed.vol)
        nz = bed.shape[2]
        kz = bed.kappa[2] / bed.d3
        outer = 0.0 if bc.kind == "closed" else 2.0 * kz
        cz[bed.layers, bed.layers] = stiffness(
            np.full(nz - 1, kz),
            (outer, 0.0) if bed.side == "minus" else (0.0, outer))
        g.append(np.multiply.outer(bed.kappa[:2] * bed.d3, np.ones(nz)))
    # interface transmission V = c1 r1 + c2 r2 per unit area, with
    # r1 = g_p - 9 gam_p p0+ + gam_p p1+ ; r2 = g_m + 9 gam_m p0- - gam_m p1-
    ts = _trace_system(cfg)
    c1 = ts.lam * (ts.Minv[0, 0] - ts.Minv[1, 0])
    c2 = ts.lam * (ts.Minv[0, 1] - ts.Minv[1, 1])
    p0, m0 = nzm, nzm - 1
    stencil = ((p0, c1 * -9.0 * ts.gam_p), (p0 + 1, c1 * ts.gam_p),
               (m0, c2 * 9.0 * ts.gam_m), (m0 - 1, c2 * -ts.gam_m))
    vg = bedp.face_area(2) * (c1 * ts.g_p + c2 * ts.g_m)  # gravity part
    for target, sign in ((p0, +1.0), (m0, -1.0)):
        for col, coef in stencil:
            cz[target, col] += sign * coef
        b[:, :, target] -= sign * vg
    d1, d2 = bedp.d1, bedp.d2
    end = 2.0 if bc.kind == "dirichlet" else 0.0
    op = TensorOperator(np.full(n1, d1), np.full(n2, d2),
                        stiffness(np.full(n1 - 1, 1.0 / d1), (end / d1,) * 2),
                        stiffness(np.full(n2 - 1, 1.0 / d2), (end / d2,) * 2),
                        cz, *np.concatenate(g, axis=1))
    return op, b, bedp, bedm


def solve_limit_flow(cfg: FlowConfig, bc: FlowBC | None = None,
                     source_plus=None, source_minus=None) -> LimitFlowSolution:
    """Solve the coupled two-bed Darcy problem with the fissure transmission
    condition.  Optional volumetric sources (callables of cell centers) act
    as wells; they also carry manufactured solutions in tests.

    The beds are horizontally uniform, so the solve runs mode by mode
    (`solve_separable`): a cosine basis for no-flow side walls, a sine basis
    for Dirichlet ones.  The residual applies the operator in tensor form
    (`TensorOperator`), with the normalization and the 1e-9 gate of
    `checked_residual`; no 3-D matrix is formed."""
    if bc is None:
        bc = FlowBC()
    op, b, bedp, bedm = _assemble_system(cfg, bc, source_plus, source_minus)
    if bc.kind == "closed":
        scale = float(np.max(np.abs(b)) + op.max_abs())
        if not abs(b.sum()) <= 1e-10 * (scale + 1.0):
            raise ValueError("net source must vanish for closed boundaries")
    # for closed boundaries the constant null space lives in mode (0, 0)
    # alone: one of its rows takes the gauge, every other row the unpinned,
    # compatible right-hand side
    basis = "dst2" if bc.kind == "dirichlet" else "dct2"
    p, _ = solve_separable(*separable_factors(op), b, basis,
                           pin=0 if bc.kind == "closed" else None)
    gauge = None
    if bc.kind == "closed":
        # the gauge of the matrix, p = 0 in the first cell
        p -= p[0, 0, 0]
        gauge = np.zeros(b.size, dtype=bool)
        gauge[0] = True
    residual = checked_residual(op @ p.ravel(), p.ravel(), b.ravel(),
                                gauge)
    if bc.kind == "closed":
        p -= p[:, :, bedp.layers].mean()  # then mean(p_plus) = 0
    return _solution(cfg, p[:, :, bedp.layers], p[:, :, bedm.layers],
                     residual, "separable")


def _solution(cfg: FlowConfig, p_plus, p_minus, residual: float,
              route: str) -> LimitFlowSolution:
    """Interface traces, fluxes and tube velocities of solved pressures."""
    ts = _trace_system(cfg)
    r1 = ts.g_p - ts.gam_p * (9.0 * p_plus[:, :, 0] - p_plus[:, :, 1])
    r2 = ts.g_m + ts.gam_m * (9.0 * p_minus[:, :, -1] - p_minus[:, :, -2])
    Minv = ts.Minv
    trace_plus = Minv[0, 0] * r1 + Minv[0, 1] * r2
    trace_minus = Minv[1, 0] * r1 + Minv[1, 1] * r2
    V = ts.lam * (trace_plus - trace_minus)
    tube = vertical_velocity(trace_plus, trace_minus, cfg.k0,
                             cfg.mu_fissure, cfg.height,
                             cfg.stats.mean_q2, cfg.stats.mean_inv_q2)
    return LimitFlowSolution(
        config=cfg, p_plus=p_plus, p_minus=p_minus,
        trace_plus=trace_plus, trace_minus=trace_minus,
        interface_flux=V, tube_velocity=tube,
        mean_p_minus=float(p_minus.mean()), residual=residual, route=route)


def series_gap(sol: LimitFlowSolution, bc: FlowBC) -> float:
    """Gap from the 1-D series problem, which every column solves exactly
    under "pressure_ends" with constant end pressures: with resistance
    R = d+ mu+/k+3 + 1/lam + d- mu-/k-3, the flux is
    q = (p_top - p_bottom - g+ d+ - g- d-) / R and the traces are
    p_top - q d+ mu+/k+3 - g+ d+ and p_bottom + q d- mu-/k-3 + g- d-.
    The worst of R |V - q| and the trace gaps, over the pressure scale
    1 + |p_top| + |p_bottom| + |g+ d+| + |g- d-|, which cannot be 0."""
    if bc.kind != "pressure_ends":
        raise ValueError("the series solution needs pressure_ends data")
    cfg = sol.config
    p_top, p_bottom = float(bc.p_top), float(bc.p_bottom)
    res_p = cfg.depth_plus * cfg.mu_plus / cfg.k_plus[2]
    res_m = cfg.depth_minus * cfg.mu_minus / cfg.k_minus[2]
    drop_p = cfg.gravity_plus * cfg.depth_plus
    drop_m = cfg.gravity_minus * cfg.depth_minus
    resistance = res_p + 1.0 / cfg.coupling + res_m
    q = (p_top - p_bottom - drop_p - drop_m) / resistance
    gap = max_or_nan((
        resistance * np.max(np.abs(sol.interface_flux - q)),
        np.max(np.abs(sol.trace_plus - (p_top - q * res_p - drop_p))),
        np.max(np.abs(sol.trace_minus - (p_bottom + q * res_m + drop_m)))))
    scale = 1.0 + abs(p_top) + abs(p_bottom) + abs(drop_p) + abs(drop_m)
    return gap / scale
