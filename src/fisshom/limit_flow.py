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

Solve: every bed has a constant diagonal permeability on a uniform
horizontal grid, so the assembled 3-D system is a tensor product of one
vertical column operator (both beds stacked, interface cells adjacent) with
horizontal second differences.  An orthonormal cosine transform (no-flow side
walls) or sine transform (Dirichlet side walls) of the right-hand side
decouples it into one banded column system per horizontal mode, and all of
them go to one sparse factorization with fill linear in the unknowns
(`_numerics.solve_separable`).  The residual is measured on the assembled
3-D system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._numerics import (axis_neighbours, check_interval, checked_residual,
                        column_operator, coo_square, on_grid,
                        positive_diagonal, solve_separable, two_point)
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
    """Assembly bookkeeping for one bed on a (n1, n2, nz) tensor grid with
    k increasing upward."""

    def __init__(self, cfg: FlowConfig, side: str, offset: int):
        self.side = side
        self.offset = offset
        n1, n2, nzp, nzm = cfg.shape
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
        self.n_cells = n1 * n2 * self.shape[2]
        self.index = offset + np.arange(self.n_cells).reshape(self.shape)

    def face_area(self, axis: int) -> float:
        return self.vol / self.deltas[axis]


def _assemble_bed(bed: _Bed, bc: FlowBC, rows, cols, vals, b):
    """Interior two-point fluxes, outer boundary terms, and gravity."""
    kap = bed.kappa
    n1, n2, nz = bed.shape
    idx = bed.index
    for axis in range(3):
        tau = kap[axis] * bed.face_area(axis) / bed.deltas[axis]
        two_point(rows, cols, vals, *axis_neighbours(idx, axis), tau)
    # gravity on interior vertical faces telescopes to the column ends
    if bed.gravity != 0.0:
        fg = kap[2] * bed.gravity * bed.face_area(2)
        lower = bed.index[:, :, :-1].ravel()
        upper = bed.index[:, :, 1:].ravel()
        np.add.at(b, lower, -fg)
        np.add.at(b, upper, +fg)

    def dirichlet_face(cells, axis, outward, data):
        tau_b = 2.0 * kap[axis] * bed.face_area(axis) / bed.deltas[axis]
        rows.append(cells)
        cols.append(cells)
        vals.append(np.full(cells.size, tau_b))
        np.add.at(b, cells, tau_b * data.ravel())
        if axis == 2 and bed.gravity != 0.0:
            fg = kap[2] * bed.gravity * bed.face_area(2) * outward
            np.add.at(b, cells, -fg)

    top_face_x3 = bed.x3c[-1] + 0.5 * bed.d3
    bottom_face_x3 = bed.x3c[0] - 0.5 * bed.d3
    if bc.kind == "pressure_ends":
        if bed.side == "plus":
            data = on_grid(bc.p_top, bed.x1c, bed.x2c)
            dirichlet_face(idx[:, :, -1].ravel(), 2, +1.0, data)
        else:
            data = on_grid(bc.p_bottom, bed.x1c, bed.x2c)
            dirichlet_face(idx[:, :, 0].ravel(), 2, -1.0, data)
    elif bc.kind == "dirichlet":
        p_bc = bc.p_plus if bed.side == "plus" else bc.p_minus
        if bed.side == "plus":
            dirichlet_face(idx[:, :, -1].ravel(), 2, +1.0,
                           on_grid(p_bc, bed.x1c, bed.x2c,
                                   np.array([top_face_x3]))[:, :, 0])
        else:
            dirichlet_face(idx[:, :, 0].ravel(), 2, -1.0,
                           on_grid(p_bc, bed.x1c, bed.x2c,
                                   np.array([bottom_face_x3]))[:, :, 0])
        lo1, hi1 = bed.x1c[0] - 0.5 * bed.d1, bed.x1c[-1] + 0.5 * bed.d1
        lo2, hi2 = bed.x2c[0] - 0.5 * bed.d2, bed.x2c[-1] + 0.5 * bed.d2
        dirichlet_face(idx[0, :, :].ravel(), 0, -1.0,
                       on_grid(p_bc, np.array([lo1]), bed.x2c,
                               bed.x3c)[0])
        dirichlet_face(idx[-1, :, :].ravel(), 0, +1.0,
                       on_grid(p_bc, np.array([hi1]), bed.x2c,
                               bed.x3c)[0])
        dirichlet_face(idx[:, 0, :].ravel(), 1, -1.0,
                       on_grid(p_bc, bed.x1c, np.array([lo2]),
                               bed.x3c)[:, 0, :])
        dirichlet_face(idx[:, -1, :].ravel(), 1, +1.0,
                       on_grid(p_bc, bed.x1c, np.array([hi2]),
                               bed.x3c)[:, 0, :])


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
        return float(max(np.max(np.abs(down_out_plus - v)),
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
    """The 3-D cell-centred system (A, b) of both beds, before any gauge,
    with the two beds' bookkeeping."""
    bedp = _Bed(cfg, "plus", 0)
    bedm = _Bed(cfg, "minus", bedp.n_cells)
    n_tot = bedp.n_cells + bedm.n_cells
    rows: list = []
    cols: list = []
    vals: list = []
    b = np.zeros(n_tot)
    for bed, src in ((bedp, source_plus), (bedm, source_minus)):
        _assemble_bed(bed, bc, rows, cols, vals, b)
        if src is not None:
            b[bed.index.ravel()] += (on_grid(src, bed.x1c, bed.x2c, bed.x3c)
                                     .ravel() * bed.vol)

    # interface transmission: V = c1 r1 + c2 r2 per horizontal column
    ts = _trace_system(cfg)
    c1 = ts.lam * (ts.Minv[0, 0] - ts.Minv[1, 0])
    c2 = ts.lam * (ts.Minv[0, 1] - ts.Minv[1, 1])
    area = bedp.face_area(2)
    cp0 = bedp.index[:, :, 0].ravel()
    cp1 = bedp.index[:, :, 1].ravel()
    cm0 = bedm.index[:, :, -1].ravel()
    cm1 = bedm.index[:, :, -2].ravel()
    # r1 = g_p - 9 gam_p p0+ + gam_p p1+ ; r2 = g_m + 9 gam_m p0- - gam_m p1-
    stencil = ((cp0, area * c1 * -9.0 * ts.gam_p),
               (cp1, area * c1 * ts.gam_p),
               (cm0, area * c2 * 9.0 * ts.gam_m),
               (cm1, area * c2 * -ts.gam_m))
    for target, sign in ((cp0, +1.0), (cm0, -1.0)):
        for src_cells, coef in stencil:
            rows.append(target)
            cols.append(src_cells)
            vals.append(np.full(target.size, sign * coef))
        np.add.at(b, target, -sign * area * (c1 * ts.g_p + c2 * ts.g_m))
    return coo_square(rows, cols, vals, n_tot), b, bedp, bedm


def solve_limit_flow(cfg: FlowConfig, bc: FlowBC | None = None,
                     source_plus=None, source_minus=None) -> LimitFlowSolution:
    """Solve the coupled two-bed Darcy problem with the fissure transmission
    condition.  Optional volumetric sources (callables of cell centers) act
    as wells; they also carry manufactured solutions in tests.

    The beds are horizontally uniform, so the solve runs mode by mode
    (`solve_separable`): a cosine basis for no-flow side walls, a sine basis
    for Dirichlet ones.  The residual is measured on the assembled 3-D
    system."""
    if bc is None:
        bc = FlowBC()
    coo, b, bedp, bedm = _assemble_system(cfg, bc, source_plus, source_minus)
    A = coo.tocsr()
    # columns ordered [minus bottom->top, plus bottom->top], so the coupled
    # interface cells are neighbours and the column operator is banded
    index = np.concatenate((bedm.index, bedp.index), axis=2)
    basis = "dst2" if bc.kind == "dirichlet" else "dct2"
    C, h1, h2 = column_operator(A, index, basis)
    if bc.kind == "closed":
        scale = float(np.max(np.abs(b)) + np.max(np.abs(coo.data)))
        if not abs(b.sum()) <= 1e-10 * (scale + 1.0):
            raise ValueError("net source must vanish for closed boundaries")
    # for closed boundaries the constant null space lives in mode (0, 0)
    # alone: one of its rows takes the gauge, every other row the unpinned,
    # compatible right-hand side
    p = np.empty(b.size)
    p[index], _ = solve_separable(C, h1, h2, b[index], basis,
                                  pin=0 if bc.kind == "closed" else None)
    gauge = None
    if bc.kind == "closed":
        # the gauge of the assembled system, p = 0 in the first cell
        p -= p[0]
        gauge = np.zeros(b.size, dtype=bool)
        gauge[0] = True
    residual = checked_residual(A, p, b, gauge)
    p_plus = p[:bedp.n_cells].reshape(bedp.shape)
    p_minus = p[bedp.n_cells:].reshape(bedm.shape)
    if bc.kind == "closed":
        shift = float(p_plus.mean())
        p_plus = p_plus - shift
        p_minus = p_minus - shift
    return _solution(cfg, p_plus, p_minus, residual, "separable")


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
