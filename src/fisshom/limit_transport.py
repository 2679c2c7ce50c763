"""Homogenized contaminant transport in two beds linked by a fissure layer.

Each bed carries a steady advection-diffusion-reaction balance for the
concentration; the collapsed fissure layer contributes three interface
mechanisms on the shared cross-section:

* surface spreading along the layer, scale * (Ds grad_tau u_plus, grad_tau
  phi) with scale = height * <q^2>, attached to the upper trace,
* in-plane advection along the layer, upwinded, same scale,
* exchange between the traces with the closed-form transmission block

      J_top    = c * (cosh_factor * u_plus - A * u_minus)
      J_bottom = c * (u_plus - A * cosh_factor * u_minus)

  from `transmission_coeffs`: J_top leaves the upper bed, J_bottom enters
  the lower bed, both positive downward.  Without layer reaction the two
  coincide and the layer is a simple resistance.

Discretization: vertex-centered finite volumes on tensor grids, two-point
diffusive fluxes, first-order upwind advection, Dirichlet outer boundaries.
The interface rows carry half control volumes plus the surface and exchange
terms, so the assembled matrix keeps the M-matrix sign pattern and the
discrete solution inherits the max principle.

Volumetric and surface sources are solver features (wells, tracers); tests
also use them to carry manufactured solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numerics import (axis_neighbours, coo_square, on_grid, pin_rows,
                        positive_diagonal, solve_sparse, two_point, upwind)
from .fissure_transport import TransmissionCoeffs
from .stochastic import ErgodicStats


@dataclass(frozen=True)
class TransportConfig:
    """Coefficients, geometry, and resolution for the coupled transport
    solve.  Velocities are callables returning component tuples; sources are
    callables of the vertex coordinates; bc_* give Dirichlet data on the
    outer boundaries (constants allowed everywhere)."""

    diff_plus: object
    diff_minus: object
    exchange: TransmissionCoeffs
    stats: ErgodicStats
    reaction_plus: float = 0.0
    reaction_minus: float = 0.0
    vel_plus: object = None
    vel_minus: object = None
    surface_diffusion: object = None
    surface_velocity: object = None
    source_plus: object = None
    source_minus: object = None
    cell_porosity: float = 1.0
    bc_plus: object = 0.0
    bc_minus: object = 0.0
    height: float = 1.0
    depth_plus: float = 1.0
    depth_minus: float = 1.0
    x1_extent: tuple[float, float] = (0.0, 1.0)
    x2_extent: tuple[float, float] = (0.0, 1.0)
    shape: tuple[int, int, int, int] = (8, 8, 8, 8)

    def __post_init__(self):
        if self.reaction_plus < 0 or self.reaction_minus < 0:
            raise ValueError("reactions must be nonnegative")
        if self.cell_porosity <= 0 or self.cell_porosity > 1.0:
            raise ValueError("cell_porosity must lie in (0, 1]")
        if self.height <= 0 or self.depth_plus <= 0 or self.depth_minus <= 0:
            raise ValueError("layer height and bed depths must be positive")
        n1, n2, nzp, nzm = self.shape
        if min(n1, n2) < 2 or min(nzp, nzm) < 2:
            raise ValueError("need at least 2 cells per direction")
        object.__setattr__(self, "diff_plus",
                           positive_diagonal(self.diff_plus, 3, "diff_plus"))
        object.__setattr__(self, "diff_minus",
                           positive_diagonal(self.diff_minus, 3,
                                             "diff_minus"))
        if self.surface_diffusion is not None:
            object.__setattr__(
                self, "surface_diffusion",
                positive_diagonal(self.surface_diffusion, 2,
                                  "surface_diffusion"))

    @property
    def surface_scale(self) -> float:
        """Layer thickness times the aperture-product average; multiplies
        every surface term."""
        return self.height * self.stats.mean_q2

    def vertex_axes(self, side: str):
        n1, n2, nzp, nzm = self.shape
        x1 = np.linspace(*self.x1_extent, n1 + 1)
        x2 = np.linspace(*self.x2_extent, n2 + 1)
        if side == "plus":
            x3 = np.linspace(0.0, self.depth_plus, nzp + 1)
        else:
            x3 = np.linspace(-self.height - self.depth_minus, -self.height,
                             nzm + 1)
        return x1, x2, x3


def _cv_weights(axis_coords: np.ndarray) -> np.ndarray:
    d = np.diff(axis_coords)
    w = np.empty(axis_coords.size)
    w[0] = 0.5 * d[0]
    w[-1] = 0.5 * d[-1]
    w[1:-1] = 0.5 * (d[:-1] + d[1:])
    return w


class _BedMesh:
    def __init__(self, cfg: TransportConfig, side: str, offset: int):
        self.side = side
        self.offset = offset
        self.x1, self.x2, self.x3 = cfg.vertex_axes(side)
        self.shape = (self.x1.size, self.x2.size, self.x3.size)
        self.w1 = _cv_weights(self.x1)
        self.w2 = _cv_weights(self.x2)
        self.w3 = _cv_weights(self.x3)
        self.index = offset + np.arange(np.prod(self.shape)).reshape(
            self.shape)
        self.diff = cfg.diff_plus if side == "plus" else cfg.diff_minus
        self.reaction = (cfg.reaction_plus if side == "plus"
                         else cfg.reaction_minus)
        self.velocity = cfg.vel_plus if side == "plus" else cfg.vel_minus
        self.n = int(np.prod(self.shape))
        self.interface_k = 0 if side == "plus" else self.shape[2] - 1

    def boundary_mask(self) -> np.ndarray:
        """True on Dirichlet vertices: every outer face, so all boundary
        planes except the interface plane interior."""
        m = np.zeros(self.shape, dtype=bool)
        m[0, :, :] = m[-1, :, :] = True
        m[:, 0, :] = m[:, -1, :] = True
        if self.side == "plus":
            m[:, :, -1] = True
        else:
            m[:, :, 0] = True
        return m

    def volumes(self) -> np.ndarray:
        return (self.w1[:, None, None] * self.w2[None, :, None]
                * self.w3[None, None, :])


def _face_grids(mesh: _BedMesh, axis: int):
    axes = [mesh.x1, mesh.x2, mesh.x3]
    mids = 0.5 * (axes[axis][1:] + axes[axis][:-1])
    grids = list(axes)
    grids[axis] = mids
    return grids


def _assemble_bed(cfg: TransportConfig, mesh: _BedMesh, rows, cols, vals, b):
    idx = mesh.index
    weights = [mesh.w1, mesh.w2, mesh.w3]
    for axis in range(3):
        coords = [mesh.x1, mesh.x2, mesh.x3][axis]
        d = np.diff(coords)
        oth = [a for a in range(3) if a != axis]
        area = np.ones([s - (1 if a == axis else 0)
                        for a, s in enumerate(mesh.shape)])
        for a in oth:
            area = area * weights[a].reshape(
                [mesh.shape[a] if q == a else 1 for q in range(3)])
        d_face = d.reshape([d.size if q == axis else 1 for q in range(3)])
        L, R = axis_neighbours(idx, axis)
        two_point(rows, cols, vals, L, R,
                  (mesh.diff[axis] * area / d_face).ravel())
        if mesh.velocity is not None:
            G = np.meshgrid(*_face_grids(mesh, axis), indexing="ij")
            vcomp = np.asarray(mesh.velocity(*G)[axis], dtype=float)
            upwind(rows, cols, vals, L, R, (vcomp * area).ravel())
    vol = mesh.volumes().ravel()
    if mesh.reaction != 0.0:
        cells = idx.ravel()
        rows.append(cells)
        cols.append(cells)
        vals.append(mesh.reaction * vol)
    src = cfg.source_plus if mesh.side == "plus" else cfg.source_minus
    if src is not None:
        s = on_grid(src, mesh.x1, mesh.x2, mesh.x3)
        factor = cfg.cell_porosity if mesh.side == "plus" else 1.0
        np.add.at(b, idx.ravel(), factor * s.ravel() * vol)


def _assemble_surface(cfg: TransportConfig, meshp: _BedMesh,
                      meshm: _BedMesh, rows, cols, vals, b,
                      surface_source=None, surface_source_minus=None):
    """Interface-plane operators: exchange block, surface diffusion, and
    surface advection; all scaled by the per-vertex horizontal area."""
    plane_p = meshp.index[:, :, meshp.interface_k]
    plane_m = meshm.index[:, :, meshm.interface_k]
    w1, w2 = meshp.w1, meshp.w2
    area = w1[:, None] * w2[None, :]
    ex = cfg.exchange
    c = ex.exchange_scale
    ch = ex.cosh_factor
    A = ex.advective_factor
    P = plane_p.ravel()
    M = plane_m.ravel()
    av = area.ravel()
    # top flux leaves the upper bed, bottom flux enters the lower bed
    rows.extend((P, P, M, M))
    cols.extend((P, M, P, M))
    vals.extend((av * c * ch, av * (-c * A), av * (-c), av * (c * A * ch)))

    scale = cfg.surface_scale
    x1, x2 = meshp.x1, meshp.x2
    if cfg.surface_diffusion is not None:
        ds = cfg.surface_diffusion
        for axis, (coords, wgt) in enumerate(((x1, w2), (x2, w1))):
            d = np.diff(coords)
            if axis == 0:
                length = wgt[None, :] * np.ones((d.size, 1))
                d_face = d[:, None]
            else:
                length = wgt[:, None] * np.ones((1, d.size))
                d_face = d[None, :]
            two_point(rows, cols, vals, *axis_neighbours(plane_p, axis),
                      (scale * ds[axis] * length / d_face).ravel())
    if cfg.surface_velocity is not None:
        for axis in range(2):
            if axis == 0:
                mids = 0.5 * (x1[1:] + x1[:-1])
                G1, G2 = np.meshgrid(mids, x2, indexing="ij")
                length = w2[None, :] * np.ones((mids.size, 1))
            else:
                mids = 0.5 * (x2[1:] + x2[:-1])
                G1, G2 = np.meshgrid(x1, mids, indexing="ij")
                length = w1[:, None] * np.ones((1, mids.size))
            vcomp = np.asarray(cfg.surface_velocity(G1, G2)[axis],
                               dtype=float)
            upwind(rows, cols, vals, *axis_neighbours(plane_p, axis),
                   (scale * vcomp * length).ravel())
    if surface_source is not None:
        s = on_grid(surface_source, x1, x2)
        np.add.at(b, P, s.ravel() * av)
    if surface_source_minus is not None:
        s = on_grid(surface_source_minus, x1, x2)
        np.add.at(b, M, s.ravel() * av)


@dataclass
class TransportSolution:
    config: TransportConfig
    u_plus: np.ndarray
    u_minus: np.ndarray
    residual: float

    @property
    def trace_plus(self) -> np.ndarray:
        return self.u_plus[:, :, 0]

    @property
    def trace_minus(self) -> np.ndarray:
        return self.u_minus[:, :, -1]

    def exchange_fluxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Downward fluxes through the top and bottom of the layer."""
        ex = self.config.exchange
        return (ex.flux_top(self.trace_plus, self.trace_minus),
                ex.flux_bottom(self.trace_plus, self.trace_minus))

    def extrema(self) -> tuple[float, float]:
        lo = min(float(self.u_plus.min()), float(self.u_minus.min()))
        hi = max(float(self.u_plus.max()), float(self.u_minus.max()))
        return lo, hi


def solve_limit_transport(cfg: TransportConfig, surface_source=None,
                          surface_source_minus=None) -> TransportSolution:
    meshp = _BedMesh(cfg, "plus", 0)
    meshm = _BedMesh(cfg, "minus", meshp.n)
    n_tot = meshp.n + meshm.n
    rows: list = []
    cols: list = []
    vals: list = []
    b = np.zeros(n_tot)
    _assemble_bed(cfg, meshp, rows, cols, vals, b)
    _assemble_bed(cfg, meshm, rows, cols, vals, b)
    _assemble_surface(cfg, meshp, meshm, rows, cols, vals, b, surface_source,
                      surface_source_minus)

    # Dirichlet rows: identity with the boundary data
    fixed = np.zeros(n_tot, dtype=bool)
    data = np.zeros(n_tot)
    for mesh, bc in ((meshp, cfg.bc_plus), (meshm, cfg.bc_minus)):
        mask = mesh.boundary_mask()
        g = on_grid(bc, mesh.x1, mesh.x2, mesh.x3)
        fixed[mesh.index[mask]] = True
        data[mesh.index[mask]] = g[mask]
    A, b = pin_rows(coo_square(rows, cols, vals, n_tot).tocsr(), b, fixed,
                    data)
    u, residual = solve_sparse(A, b)
    return TransportSolution(
        config=cfg,
        u_plus=u[:meshp.n].reshape(meshp.shape),
        u_minus=u[meshp.n:].reshape(meshm.shape),
        residual=residual)


def mass_balance_gap(sol: TransportSolution, surface_source=None,
                     surface_source_minus=None) -> float:
    """Re-walk the solved fields with array shifts (independently of the
    sparse assembly) and report the worst normalized vertex defect."""
    cfg = sol.config
    meshp = _BedMesh(cfg, "plus", 0)
    meshm = _BedMesh(cfg, "minus", meshp.n)
    # normalize by coefficient magnitudes at the solution scale, not by the
    # realized terms: near-uniform states would otherwise divide roundoff
    # by roundoff
    umax = 1.0 + max(float(np.max(np.abs(sol.u_plus))),
                     float(np.max(np.abs(sol.u_minus))))
    scale = 0.0
    worst = 0.0
    fields = {"plus": sol.u_plus, "minus": sol.u_minus}
    resid = {}
    for mesh in (meshp, meshm):
        u = fields[mesh.side]
        weights = [mesh.w1, mesh.w2, mesh.w3]
        r = np.zeros(mesh.shape)
        for axis in range(3):
            coords = [mesh.x1, mesh.x2, mesh.x3][axis]
            d = np.diff(coords)
            oth = [a for a in range(3) if a != axis]
            area = np.ones([s - (1 if a == axis else 0)
                            for a, s in enumerate(mesh.shape)])
            for a in oth:
                area = area * weights[a].reshape(
                    [mesh.shape[a] if q == a else 1 for q in range(3)])
            d_face = d.reshape([d.size if q == axis else 1
                                for q in range(3)])
            du = np.diff(u, axis=axis)
            flux = -mesh.diff[axis] * du / d_face * area
            sl_lo = [slice(None)] * 3
            sl_hi = [slice(None)] * 3
            sl_lo[axis] = slice(0, -1)
            sl_hi[axis] = slice(1, None)
            r[tuple(sl_lo)] += flux
            r[tuple(sl_hi)] -= flux
            scale = max(scale,
                        float(np.max(mesh.diff[axis] * area / d_face))
                        * umax)
            if mesh.velocity is not None:
                G = np.meshgrid(*_face_grids(mesh, axis), indexing="ij")
                vcomp = np.asarray(mesh.velocity(*G)[axis], dtype=float)
                lo = u[tuple(sl_lo)]
                hi = u[tuple(sl_hi)]
                up = np.where(vcomp > 0.0, lo, hi)
                aflux = vcomp * area * up
                r[tuple(sl_lo)] += aflux
                r[tuple(sl_hi)] -= aflux
                scale = max(scale,
                            float(np.max(np.abs(vcomp) * area)) * umax)
        vol = mesh.volumes()
        if mesh.reaction != 0.0:
            r += mesh.reaction * vol * u
            scale = max(scale, mesh.reaction * float(np.max(vol)) * umax)
        src = cfg.source_plus if mesh.side == "plus" else cfg.source_minus
        if src is not None:
            s = on_grid(src, mesh.x1, mesh.x2, mesh.x3)
            factor = cfg.cell_porosity if mesh.side == "plus" else 1.0
            r -= factor * s * vol
            scale = max(scale, float(np.max(np.abs(s * vol))))
        resid[mesh.side] = r

    area = meshp.w1[:, None] * meshp.w2[None, :]
    top, bottom = sol.exchange_fluxes()
    resid["plus"][:, :, 0] += area * top
    resid["minus"][:, :, -1] -= area * bottom
    ex = cfg.exchange
    scale = max(scale, ex.exchange_scale * ex.cosh_factor
                * (1.0 + ex.advective_factor) * float(np.max(area)) * umax)
    tr = sol.trace_plus
    sscale = cfg.surface_scale
    x1, x2 = meshp.x1, meshp.x2
    if cfg.surface_diffusion is not None:
        ds = cfg.surface_diffusion
        d1 = np.diff(x1)[:, None]
        d2 = np.diff(x2)[None, :]
        f1 = -sscale * ds[0] * np.diff(tr, axis=0) / d1 \
            * meshp.w2[None, :]
        f2 = -sscale * ds[1] * np.diff(tr, axis=1) / d2 \
            * meshp.w1[:, None]
        rp = resid["plus"][:, :, 0]
        rp[:-1, :] += f1
        rp[1:, :] -= f1
        rp[:, :-1] += f2
        rp[:, 1:] -= f2
        scale = max(scale,
                    float(np.max(sscale * ds[0] * meshp.w2[None, :] / d1))
                    * umax,
                    float(np.max(sscale * ds[1] * meshp.w1[:, None] / d2))
                    * umax)
    if cfg.surface_velocity is not None:
        rp = resid["plus"][:, :, 0]
        for axis in range(2):
            if axis == 0:
                mids = 0.5 * (x1[1:] + x1[:-1])
                G1, G2 = np.meshgrid(mids, x2, indexing="ij")
                length = meshp.w2[None, :]
                lo, hi = tr[:-1, :], tr[1:, :]
            else:
                mids = 0.5 * (x2[1:] + x2[:-1])
                G1, G2 = np.meshgrid(x1, mids, indexing="ij")
                length = meshp.w1[:, None]
                lo, hi = tr[:, :-1], tr[:, 1:]
            vcomp = np.asarray(cfg.surface_velocity(G1, G2)[axis],
                               dtype=float)
            up = np.where(vcomp > 0.0, lo, hi)
            af = sscale * vcomp * length * up
            if axis == 0:
                rp[:-1, :] += af
                rp[1:, :] -= af
            else:
                rp[:, :-1] += af
                rp[:, 1:] -= af
            scale = max(scale,
                        float(np.max(sscale * np.abs(vcomp) * length))
                        * umax)
    if surface_source is not None:
        s = on_grid(surface_source, x1, x2)
        resid["plus"][:, :, 0] -= s * area
        scale = max(scale, float(np.max(np.abs(s * area))))
    if surface_source_minus is not None:
        s = on_grid(surface_source_minus, x1, x2)
        resid["minus"][:, :, -1] -= s * area
        scale = max(scale, float(np.max(np.abs(s * area))))

    for mesh in (meshp, meshm):
        r = resid[mesh.side]
        r[mesh.boundary_mask()] = 0.0
        worst = max(worst, float(np.max(np.abs(r))))
    return worst / scale
