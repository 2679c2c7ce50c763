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

Solve: the matrix is assembled in two parts, each once per solve: the
velocity-free system S (diffusion, reaction, exchange, surface spreading)
and the upwind part U of the bed and surface velocities; A = S + U.  The
Dirichlet data move to the right-hand side through A, and the interior
vertices are solved.  Without velocities there is no U, every coefficient
of S is constant on the uniform horizontal grid, and an orthonormal sine
transform of the interior decouples the system into one banded column
system per horizontal mode (`_numerics.solve_separable`).  Any velocity
makes A non-separable.  Restarted GMRES then solves the interior system of
A, preconditioned by the separable inverse of S
(`_numerics.separable_inverse`): the fast direct solver of the separable
part as the preconditioner of the whole (Concus & Golub 1973).  Where GMRES
does not converge within its fixed iteration cap, as at very high Peclet
numbers, the whole Dirichlet-pinned A goes to SuperLU.  Every route
measures the residual on that pinned system, and the solution records
which route ran and how many GMRES iterations it took.

Volumetric and surface sources are solver features (wells, tracers); tests
also use them to carry manufactured solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from ._numerics import (axis_halves, axis_neighbours, check_interval,
                        checked_residual, column_operator, coo_square,
                        on_grid, pin_rows, positive_diagonal,
                        separable_inverse, solve_separable, solve_sparse,
                        two_point, upwind)
from .fissure_transport import TransmissionCoeffs
from .stochastic import ErgodicStats

# GMRES on the advective route: relative residual target, restart length
# and restart cycles before the direct fallback
_GMRES_RTOL = 1e-13
_GMRES_RESTART = 40
_GMRES_CYCLES = 2


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
        # written so that NaN fails: it compares False with any bound
        if not (self.reaction_plus >= 0 and self.reaction_minus >= 0):
            raise ValueError("reactions must be nonnegative")
        if not 0 < self.cell_porosity <= 1.0:
            raise ValueError("cell_porosity must lie in (0, 1]")
        if not (self.height > 0 and self.depth_plus > 0
                and self.depth_minus > 0):
            raise ValueError("layer height and bed depths must be positive")
        check_interval(self.x1_extent, "x1_extent")
        check_interval(self.x2_extent, "x2_extent")
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
        self.axes = cfg.vertex_axes(side)
        self.widths = tuple(_cv_weights(x) for x in self.axes)
        self.shape = tuple(x.size for x in self.axes)
        self.n = int(np.prod(self.shape))
        self.index = offset + np.arange(self.n).reshape(self.shape)
        self.diff = cfg.diff_plus if side == "plus" else cfg.diff_minus
        self.reaction = (cfg.reaction_plus if side == "plus"
                         else cfg.reaction_minus)
        self.velocity = cfg.vel_plus if side == "plus" else cfg.vel_minus

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

    def plane_area(self) -> np.ndarray:
        """Horizontal control-volume area of each vertex column."""
        return self.widths[0][:, None] * self.widths[1][None, :]

    def volumes(self) -> np.ndarray:
        return self.plane_area()[:, :, None] * self.widths[2][None, None, :]

    def faces(self, axis: int, dims: int = 3):
        """The faces between neighbouring vertices along `axis` of the bed
        (dims 3), or the edges of its horizontal plane (dims 2): the axes
        of their midpoint grid, their size (the product of the
        control-volume widths across them) and the vertex spacing along
        `axis`.  Size and spacing are shaped to broadcast over the faces."""
        axes = self.axes[:dims]

        def along(values, a):
            return values.reshape([-1 if q == a else 1 for q in range(dims)])

        mids = list(axes)
        mids[axis] = 0.5 * (axes[axis][1:] + axes[axis][:-1])
        size = 1.0
        for a in range(dims):
            if a != axis:
                size = size * along(self.widths[a], a)
        return mids, size, along(np.diff(axes[axis]), axis)


def _velocity(field, name: str, axis: int, mids) -> np.ndarray:
    """Component `axis` of the velocity callable `field` on the grid of the
    axes `mids`; raises ValueError naming the field where it is not
    finite."""
    v = np.asarray(field(*np.meshgrid(*mids, indexing="ij"))[axis],
                   dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _assemble_bed(cfg: TransportConfig, mesh: _BedMesh, rows, cols, vals, b):
    """Diffusion, reaction and volume sources of one bed."""
    for axis in range(3):
        _, area, spacing = mesh.faces(axis)
        two_point(rows, cols, vals, *axis_neighbours(mesh.index, axis),
                  (mesh.diff[axis] * area / spacing).ravel())
    vol = mesh.volumes().ravel()
    cells = mesh.index.ravel()
    if mesh.reaction != 0.0:
        rows.append(cells)
        cols.append(cells)
        vals.append(mesh.reaction * vol)
    src = cfg.source_plus if mesh.side == "plus" else cfg.source_minus
    if src is not None:
        s = on_grid(src, *mesh.axes)
        factor = cfg.cell_porosity if mesh.side == "plus" else 1.0
        np.add.at(b, cells, factor * s.ravel() * vol)


def _assemble_surface(cfg: TransportConfig, meshp: _BedMesh,
                      meshm: _BedMesh, rows, cols, vals, b,
                      surface_source=None, surface_source_minus=None):
    """Interface-plane terms without velocities: the exchange block and
    surface diffusion, scaled by the per-vertex horizontal area, and the
    surface sources."""
    P = meshp.index[:, :, 0].ravel()
    M = meshm.index[:, :, -1].ravel()
    av = meshp.plane_area().ravel()
    ex = cfg.exchange
    c = ex.exchange_scale
    ch = ex.cosh_factor
    A = ex.advective_factor
    # top flux leaves the upper bed, bottom flux enters the lower bed
    rows.extend((P, P, M, M))
    cols.extend((P, M, P, M))
    vals.extend((av * c * ch, av * (-c * A), av * (-c), av * (c * A * ch)))
    if cfg.surface_diffusion is not None:
        for axis in range(2):
            _, length, spacing = meshp.faces(axis, dims=2)
            two_point(rows, cols, vals,
                      *axis_neighbours(meshp.index[:, :, 0], axis),
                      (cfg.surface_scale * cfg.surface_diffusion[axis]
                       * length / spacing).ravel())
    for src, plane in ((surface_source, P), (surface_source_minus, M)):
        if src is not None:
            np.add.at(b, plane, on_grid(src, *meshp.axes[:2]).ravel() * av)


def _assemble_upwind(cfg: TransportConfig, meshp: _BedMesh,
                     meshm: _BedMesh):
    """U: the upwind advection of the bed and surface velocities; None
    without velocities."""
    rows: list = []
    cols: list = []
    vals: list = []
    for mesh in (meshp, meshm):
        if mesh.velocity is not None:
            for axis in range(3):
                mids, area, _ = mesh.faces(axis)
                v = _velocity(mesh.velocity, f"vel_{mesh.side}", axis, mids)
                upwind(rows, cols, vals, *axis_neighbours(mesh.index, axis),
                       (v * area).ravel())
    if cfg.surface_velocity is not None:
        for axis in range(2):
            mids, length, _ = meshp.faces(axis, dims=2)
            v = _velocity(cfg.surface_velocity, "surface_velocity", axis,
                          mids)
            upwind(rows, cols, vals,
                   *axis_neighbours(meshp.index[:, :, 0], axis),
                   (cfg.surface_scale * v * length).ravel())
    if not rows:
        return None
    return coo_square(rows, cols, vals, meshp.n + meshm.n).tocsr()


@dataclass
class TransportSolution:
    config: TransportConfig
    u_plus: np.ndarray
    u_minus: np.ndarray
    residual: float
    route: str          # "separable" (mode by mode), "krylov" or "splu"
    iterations: int     # GMRES iterations run, also before an splu fallback

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


def _assemble_system(cfg: TransportConfig, surface_source,
                     surface_source_minus):
    """The 3-D vertex system of both beds before the Dirichlet rows: the
    velocity-free matrix S, the upwind matrix U (None without velocities)
    and b, so that A = S + U; then the Dirichlet vertices `fixed` with
    their `data` (zero elsewhere), and the two bed meshes."""
    meshp = _BedMesh(cfg, "plus", 0)
    meshm = _BedMesh(cfg, "minus", meshp.n)
    n_tot = meshp.n + meshm.n
    # U first: its COO lists are freed before those of S are built
    U = _assemble_upwind(cfg, meshp, meshm)
    rows: list = []
    cols: list = []
    vals: list = []
    b = np.zeros(n_tot)
    _assemble_bed(cfg, meshp, rows, cols, vals, b)
    _assemble_bed(cfg, meshm, rows, cols, vals, b)
    _assemble_surface(cfg, meshp, meshm, rows, cols, vals, b, surface_source,
                      surface_source_minus)
    fixed = np.zeros(n_tot, dtype=bool)
    data = np.zeros(n_tot)
    for mesh, bc in ((meshp, cfg.bc_plus), (meshm, cfg.bc_minus)):
        mask = mesh.boundary_mask()
        g = on_grid(bc, *mesh.axes)
        fixed[mesh.index[mask]] = True
        data[mesh.index[mask]] = g[mask]
    return (coo_square(rows, cols, vals, n_tot).tocsr(), U, b, fixed, data,
            meshp, meshm)


def _interior_modes(S, meshp: _BedMesh, meshm: _BedMesh):
    """The interior vertices as an (n1 - 1, n2 - 1, nz) index in the column
    order of the separable solve, and the column operator (C, h1, h2) of
    the velocity-free S on them."""
    # vertex columns without the outer Dirichlet planes, ordered
    # [minus bottom->top, plus bottom->top] so the column operator is
    # banded; the side Dirichlet ring stays in the index
    index = np.concatenate((meshm.index[:, :, 1:], meshp.index[:, :, :-1]),
                           axis=2)
    return (index[1:-1, 1:-1],) + column_operator(S, index, "dst1")


def _solve_krylov(A, rhs, inner, modes):
    """GMRES on the interior rows and columns of A, preconditioned by the
    separable inverse of `modes`; (x, iterations), x None without
    convergence."""
    flat = inner.ravel()
    precondition = separable_inverse(*modes, inner.shape, "dst1")
    steps = []
    x, info = spla.gmres(
        A[flat][:, flat], rhs[flat], rtol=_GMRES_RTOL, atol=0.0,
        restart=_GMRES_RESTART, maxiter=_GMRES_CYCLES,
        M=spla.LinearOperator((flat.size,) * 2, matvec=precondition),
        callback=steps.append, callback_type="pr_norm")
    return (x if info == 0 else None), len(steps)


def solve_limit_transport(cfg: TransportConfig, surface_source=None,
                          surface_source_minus=None) -> TransportSolution:
    """Solve the coupled transport problem on its interior vertices, with
    the Dirichlet data moved to the right-hand side through the assembled
    matrix A = S + U.

    Without velocities there is no U; the beds are horizontally uniform and
    the interior is solved mode by mode in a sine basis
    (`solve_separable`).  With any velocity, restarted GMRES solves it,
    preconditioned by the separable inverse of S; if GMRES does not
    converge, the Dirichlet-pinned A goes to SuperLU.  Every route measures
    the residual on that pinned system."""
    S, U, b, fixed, data, meshp, meshm = _assemble_system(
        cfg, surface_source, surface_source_minus)
    inner, *modes = _interior_modes(S, meshp, meshm)
    separable = U is None
    A = S if separable else S + U
    del S, U  # only A is used below: free the parts before GMRES runs
    rhs = b - A @ data
    u = data.copy()
    iterations = 0
    if separable:
        route = "separable"
        u[inner], _ = solve_separable(*modes, rhs[inner], "dst1")
    else:
        x, iterations = _solve_krylov(A, rhs, inner, modes)
        route = "krylov" if x is not None else "splu"
        if x is not None:
            u[inner.ravel()] = x
    if route == "splu":
        u, residual = solve_sparse(*pin_rows(A, b, fixed, data))
    else:
        residual = checked_residual(A, u, b, fixed, data)
    return TransportSolution(
        config=cfg,
        u_plus=u[:meshp.n].reshape(meshp.shape),
        u_minus=u[meshp.n:].reshape(meshm.shape),
        residual=residual, route=route, iterations=iterations)


def _divergence(r: np.ndarray, flux: np.ndarray, axis: int):
    """Add to r the net outflow of the face fluxes `flux` between
    neighbours along `axis`, positive towards the upper neighbour."""
    lo, hi = axis_halves(axis, r.ndim)
    r[lo] += flux
    r[hi] -= flux


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
    resid = {}
    for mesh, u in ((meshp, sol.u_plus), (meshm, sol.u_minus)):
        r = np.zeros(mesh.shape)
        for axis in range(3):
            mids, area, spacing = mesh.faces(axis)
            _divergence(r, -mesh.diff[axis] * np.diff(u, axis=axis)
                        / spacing * area, axis)
            scale = max(scale,
                        float(np.max(mesh.diff[axis] * area / spacing))
                        * umax)
            if mesh.velocity is not None:
                v = _velocity(mesh.velocity, f"vel_{mesh.side}", axis, mids)
                lo, hi = axis_halves(axis, 3)
                _divergence(r, v * area * np.where(v > 0.0, u[lo], u[hi]),
                            axis)
                scale = max(scale, float(np.max(np.abs(v) * area)) * umax)
        vol = mesh.volumes()
        if mesh.reaction != 0.0:
            r += mesh.reaction * vol * u
            scale = max(scale, mesh.reaction * float(np.max(vol)) * umax)
        src = cfg.source_plus if mesh.side == "plus" else cfg.source_minus
        if src is not None:
            s = on_grid(src, *mesh.axes)
            factor = cfg.cell_porosity if mesh.side == "plus" else 1.0
            r -= factor * s * vol
            scale = max(scale, float(np.max(np.abs(s * vol))))
        resid[mesh.side] = r

    area = meshp.plane_area()
    top, bottom = sol.exchange_fluxes()
    resid["plus"][:, :, 0] += area * top
    resid["minus"][:, :, -1] -= area * bottom
    ex = cfg.exchange
    scale = max(scale, ex.exchange_scale * ex.cosh_factor
                * (1.0 + ex.advective_factor) * float(np.max(area)) * umax)
    tr = sol.trace_plus
    sscale = cfg.surface_scale
    rp = resid["plus"][:, :, 0]
    if cfg.surface_diffusion is not None:
        for axis in range(2):
            _, length, spacing = meshp.faces(axis, dims=2)
            ds = cfg.surface_diffusion[axis]
            _divergence(rp, -sscale * ds * np.diff(tr, axis=axis) / spacing
                        * length, axis)
            scale = max(scale,
                        float(np.max(sscale * ds * length / spacing)) * umax)
    if cfg.surface_velocity is not None:
        for axis in range(2):
            mids, length, _ = meshp.faces(axis, dims=2)
            v = _velocity(cfg.surface_velocity, "surface_velocity", axis,
                          mids)
            lo, hi = axis_halves(axis, 2)
            _divergence(rp, sscale * v * length
                        * np.where(v > 0.0, tr[lo], tr[hi]), axis)
            scale = max(scale,
                        float(np.max(sscale * np.abs(v) * length)) * umax)
    for src, r in ((surface_source, rp),
                   (surface_source_minus, resid["minus"][:, :, -1])):
        if src is not None:
            s = on_grid(src, *meshp.axes[:2])
            r -= s * area
            scale = max(scale, float(np.max(np.abs(s * area))))

    worst = 0.0
    for mesh in (meshp, meshm):
        r = resid[mesh.side]
        r[mesh.boundary_mask()] = 0.0
        worst = max(worst, float(np.max(np.abs(r))))
    return worst / scale
