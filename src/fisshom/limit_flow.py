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

A separate staggered-grid solver handles the tangential flow sheet on the
cross-section: in-plane Darcy flow with a drag that combines the fissure
resistance with slip against both beds, incompressible, impermeable rim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numerics import (axis_neighbours, coo_square, on_grid, pin_rows,
                        positive_diagonal, solve_sparse, sym_inv_sqrt,
                        two_point)
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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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
    bc: FlowBC
    p_plus: np.ndarray
    p_minus: np.ndarray
    trace_plus: np.ndarray
    trace_minus: np.ndarray
    interface_flux: np.ndarray      # superficial vertical flux V, downward
    tube_velocity: np.ndarray       # per-tube mean velocity V / <q^2>
    mean_p_minus: float
    residual: float

    def flux_continuity_gap(self) -> float:
        """Reassemble the one-sided fluxes on both faces of the layer from
        the solved pressures and compare them with the transmission flux."""
        cfg = self.config
        bedp = _Bed(cfg, "plus", 0)
        bedm = _Bed(cfg, "minus", 0)
        gp = cfg.k_plus[2] / cfg.mu_plus * cfg.gravity_plus
        gm = cfg.k_minus[2] / cfg.mu_minus * cfg.gravity_minus
        kp = cfg.k_plus[2] / cfg.mu_plus
        km = cfg.k_minus[2] / cfg.mu_minus
        dzp, dzm = bedp.d3, bedm.d3
        grad_p = (9.0 * self.p_plus[:, :, 0] - self.p_plus[:, :, 1]
                  - 8.0 * self.trace_plus) / (3.0 * dzp)
        grad_m = -(9.0 * self.p_minus[:, :, -1] - self.p_minus[:, :, -2]
                   - 8.0 * self.trace_minus) / (3.0 * dzm)
        down_out_plus = kp * grad_p - gp
        down_in_minus = km * grad_m - gm
        v = self.interface_flux
        return float(max(np.max(np.abs(down_out_plus - v)),
                         np.max(np.abs(down_in_minus - v))))

    def velocity(self, side: str) -> np.ndarray:
        """Cell-centered Darcy velocity (averaged two-point face fluxes)."""
        cfg = self.config
        bed = _Bed(cfg, side, 0)
        p = self.p_plus if side == "plus" else self.p_minus
        out = np.zeros(p.shape + (3,))
        for axis in range(3):
            d = bed.deltas[axis]
            grad = np.diff(p, axis=axis) / d
            inner = -bed.kappa[axis] * grad
            pad = [(0, 0)] * 3
            pad[axis] = (1, 1)
            inner = np.pad(inner, pad, mode="edge")
            sl_lo = [slice(None)] * 4
            sl_hi = [slice(None)] * 4
            sl_lo[axis] = slice(0, -1)
            sl_hi[axis] = slice(1, None)
            out[..., axis] = 0.5 * (inner[tuple(sl_lo[:3])]
                                    + inner[tuple(sl_hi[:3])])
        if bed.gravity != 0.0:
            out[..., 2] += bed.kappa[2] * bed.gravity
        return out


def _trace_system(cfg: FlowConfig):
    """Closed-form elimination data for the per-column 2x2 trace solve."""
    n1, n2, nzp, nzm = cfg.shape
    kp = cfg.k_plus[2] / cfg.mu_plus
    km = cfg.k_minus[2] / cfg.mu_minus
    dzp = cfg.depth_plus / nzp
    dzm = cfg.depth_minus / nzm
    gam_p = kp / (3.0 * dzp)
    gam_m = km / (3.0 * dzm)
    lam = cfg.coupling
    M = np.array([[-(8.0 * gam_p + lam), lam],
                  [-lam, 8.0 * gam_m + lam]])
    Minv = np.linalg.inv(M)
    return gam_p, gam_m, lam, Minv


def solve_limit_flow(cfg: FlowConfig, bc: FlowBC | None = None,
                     source_plus=None, source_minus=None) -> LimitFlowSolution:
    """Solve the coupled two-bed Darcy problem with the fissure transmission
    condition.  Optional volumetric sources (callables of cell centers) act
    as wells; they also carry manufactured solutions in tests."""
    if bc is None:
        bc = FlowBC()
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
    gam_p, gam_m, lam, Minv = _trace_system(cfg)
    g_p = cfg.k_plus[2] / cfg.mu_plus * cfg.gravity_plus
    g_m = cfg.k_minus[2] / cfg.mu_minus * cfg.gravity_minus
    c1 = lam * (Minv[0, 0] - Minv[1, 0])
    c2 = lam * (Minv[0, 1] - Minv[1, 1])
    area = bedp.face_area(2)
    cp0 = bedp.index[:, :, 0].ravel()
    cp1 = bedp.index[:, :, 1].ravel()
    cm0 = bedm.index[:, :, -1].ravel()
    cm1 = bedm.index[:, :, -2].ravel()
    # r1 = g_p - 9 gam_p p0+ + gam_p p1+ ; r2 = g_m + 9 gam_m p0- - gam_m p1-
    stencil = ((cp0, area * c1 * -9.0 * gam_p),
               (cp1, area * c1 * gam_p),
               (cm0, area * c2 * 9.0 * gam_m),
               (cm1, area * c2 * -gam_m))
    for target, sign in ((cp0, +1.0), (cm0, -1.0)):
        for src_cells, coef in stencil:
            rows.append(target)
            cols.append(src_cells)
            vals.append(np.full(target.size, sign * coef))
        np.add.at(b, target, -sign * area * (c1 * g_p + c2 * g_m))

    coo = coo_square(rows, cols, vals, n_tot)
    A = coo.tocsc()

    if bc.kind == "closed":
        scale = float(np.max(np.abs(b)) + np.max(np.abs(coo.data)))
        if abs(b.sum()) > 1e-10 * (scale + 1.0):
            raise ValueError("net source must vanish for closed boundaries")
        gauge = np.zeros(n_tot, dtype=bool)
        gauge[0] = True
        A, b = pin_rows(A, b, gauge, 0.0)
    p, residual = solve_sparse(A, b)
    p_plus = p[:bedp.n_cells].reshape(bedp.shape)
    p_minus = p[bedp.n_cells:].reshape(bedm.shape)
    if bc.kind == "closed":
        shift = float(p_plus.mean())
        p_plus = p_plus - shift
        p_minus = p_minus - shift

    r1 = g_p - gam_p * (9.0 * p_plus[:, :, 0] - p_plus[:, :, 1])
    r2 = g_m + gam_m * (9.0 * p_minus[:, :, -1] - p_minus[:, :, -2])
    trace_plus = Minv[0, 0] * r1 + Minv[0, 1] * r2
    trace_minus = Minv[1, 0] * r1 + Minv[1, 1] * r2
    V = lam * (trace_plus - trace_minus)
    tube = vertical_velocity(trace_plus, trace_minus, cfg.k0,
                             cfg.mu_fissure, cfg.height,
                             cfg.stats.mean_q2, cfg.stats.mean_inv_q2)
    return LimitFlowSolution(
        config=cfg, bc=bc, p_plus=p_plus, p_minus=p_minus,
        trace_plus=trace_plus, trace_minus=trace_minus,
        interface_flux=V, tube_velocity=tube,
        mean_p_minus=float(p_minus.mean()), residual=residual)


# ----------------------------------------------------------------------
# tangential flow sheet


@dataclass(frozen=True)
class TangentialConfig:
    """In-plane flow on the fissure cross-section.

    The drag per unit velocity combines the tube resistance
    (mu_fissure / <q>^2) inv(K_f) with the slip resistance
    (gamma / height) * (inv sqrt(K*+) + inv sqrt(K*-)) restricted to the
    in-plane block; both must be diagonal for the staggered scheme.
    """

    k_f: object
    kstar_plus: object
    kstar_minus: object
    mu_fissure: float
    slip_gamma: float
    height: float
    mean_q: float
    x1_extent: tuple[float, float] = (0.0, 1.0)
    x2_extent: tuple[float, float] = (0.0, 1.0)
    shape: tuple[int, int] = (32, 32)

    def resistance(self) -> np.ndarray:
        k_f = np.asarray(self.k_f, dtype=float)
        if k_f.ndim == 0:
            k_f = np.diag([float(k_f)] * 2)
        if k_f.shape != (2, 2):
            raise ValueError("k_f must be a scalar or 2x2")
        slip = np.zeros((2, 2))
        for ks in (self.kstar_plus, self.kstar_minus):
            ks = np.asarray(ks, dtype=float)
            if ks.shape == (3, 3):
                ks = ks[:2, :2]
            elif ks.ndim == 0:
                ks = np.diag([float(ks)] * 2)
            if ks.shape != (2, 2):
                raise ValueError("kstar blocks must be scalar, 2x2, or 3x3")
            slip += sym_inv_sqrt(ks)
        r = (self.mu_fissure / self.mean_q ** 2) * np.linalg.inv(k_f) \
            + (self.slip_gamma / self.height) * slip
        off = abs(r[0, 1]) + abs(r[1, 0])
        if off > 1e-12 * (np.max(np.abs(r)) + 1e-300):
            raise ValueError("tangential resistance must be diagonal")
        if r[0, 0] <= 0 or r[1, 1] <= 0:
            raise ValueError("tangential resistance must be positive")
        return np.array([r[0, 0], r[1, 1]])


@dataclass
class TangentialFlowSolution:
    config: TangentialConfig
    u: np.ndarray        # x1-velocity on vertical faces, (n1+1, n2)
    v: np.ndarray        # x2-velocity on horizontal faces, (n1, n2+1)
    pressure: np.ndarray  # cell-centered, mean zero
    div_sup: float

    def energy(self) -> float:
        cfg = self.config
        r1, r2 = cfg.resistance()
        d1 = (cfg.x1_extent[1] - cfg.x1_extent[0]) / cfg.shape[0]
        d2 = (cfg.x2_extent[1] - cfg.x2_extent[0]) / cfg.shape[1]
        cell = d1 * d2
        return 0.5 * cell * (r1 * float(np.sum(self.u ** 2))
                             + r2 * float(np.sum(self.v ** 2)))


def solve_tangential_darcy(cfg: TangentialConfig, forcing
                           ) -> TangentialFlowSolution:
    """Incompressible in-plane Darcy flow with an impermeable rim.

    forcing(x1, x2) returns the two in-plane force components; it is
    evaluated at face centers.  The pressure Poisson problem eliminates the
    velocities, which are recovered face by face afterwards.
    """
    r1, r2 = cfg.resistance()
    n1, n2 = cfg.shape
    d1 = (cfg.x1_extent[1] - cfg.x1_extent[0]) / n1
    d2 = (cfg.x2_extent[1] - cfg.x2_extent[0]) / n2
    x1e = np.linspace(*cfg.x1_extent, n1 + 1)
    x2e = np.linspace(*cfg.x2_extent, n2 + 1)
    x1c = 0.5 * (x1e[1:] + x1e[:-1])
    x2c = 0.5 * (x2e[1:] + x2e[:-1])

    def force(axis, X1, X2):
        out = forcing(X1, X2)
        return np.asarray(out[axis], dtype=float)

    # interior face forcings
    Xu1, Xu2 = np.meshgrid(x1e[1:-1], x2c, indexing="ij")
    f_u = force(0, Xu1, Xu2)                      # (n1-1, n2)
    Xv1, Xv2 = np.meshgrid(x1c, x2e[1:-1], indexing="ij")
    f_v = force(1, Xv1, Xv2)                      # (n1, n2-1)

    idx = np.arange(n1 * n2).reshape(n1, n2)
    rows: list = []
    cols: list = []
    vals: list = []
    b = np.zeros(n1 * n2)
    for axis, (tau, f, width, r) in enumerate(
            ((d2 / (r1 * d1), f_u, d2, r1), (d1 / (r2 * d2), f_v, d1, r2))):
        lo, hi = axis_neighbours(idx, axis)
        two_point(rows, cols, vals, lo, hi, tau)
        np.add.at(b, lo, -width * f.ravel() / r)
        np.add.at(b, hi, +width * f.ravel() / r)

    gauge = np.zeros(n1 * n2, dtype=bool)
    gauge[0] = True
    A, b = pin_rows(coo_square(rows, cols, vals, n1 * n2).tocsr(), b, gauge,
                    0.0)
    pi, _ = solve_sparse(A, b)
    pi = pi.reshape(n1, n2)
    pi = pi - pi.mean()

    u = np.zeros((n1 + 1, n2))
    v = np.zeros((n1, n2 + 1))
    u[1:-1, :] = (f_u - np.diff(pi, axis=0) / d1) / r1
    v[:, 1:-1] = (f_v - np.diff(pi, axis=1) / d2) / r2
    div = np.diff(u, axis=0) / d1 + np.diff(v, axis=1) / d2
    return TangentialFlowSolution(config=cfg, u=u, v=v, pressure=pi,
                                  div_sup=float(np.max(np.abs(div))))
