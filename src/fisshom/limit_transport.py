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

Solve: the beds share one tensor grid whose column axis is stacked [minus
bottom->top, plus bottom->top], interface vertices adjacent.  The matrix
is A = S + U: the velocity-free S (diffusion, reaction, exchange, surface
spreading), the Kronecker sum of 1-D factors (`_numerics.TensorOperator`),
and the upwind part U of the bed and surface velocities.  The Dirichlet
data move to the right-hand side through A, and the interior vertices are
solved.  Without velocities S acts in tensor form, and its interior
factors give one tridiagonal column system per horizontal mode of an
orthonormal sine transform (`_numerics.solve_separable`).  Any velocity
makes A non-separable.  Each velocity field is then called once on each of
its face grids; A is written once, straight into the data of its seven
diagonals at the grid offsets 0, +-1, +-nz and +-(n2 + 1) nz, and the
restarted GMRES of `_numerics.gmres` solves the interior with its product,
right-preconditioned by the separable inverse of S
(`_numerics.separable_inverse`; Concus & Golub 1973).  Where GMRES does
not converge within its fixed iteration cap, as at very high Peclet
numbers, the Dirichlet-pinned A goes to SuperLU.  Every route measures the
residual of that pinned system, and the solution records the route, its
GMRES iterations and the face velocities, which the balance check reads
instead of calling the fields again.  The tests keep the face-by-face
assemblies of S and U as their independent references.

Volumetric and surface sources are solver features (wells, tracers); tests
also use them to carry manufactured solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._numerics import (TensorOperator, axis_halves, bands, check_interval,
                        checked_residual, fsum, gmres, max_or_nan,
                        min_or_nan, on_grid, pin_rows, positive_diagonal,
                        separable_factors, separable_inverse,
                        solve_separable, solve_sparse, stiffness)
from .fissure_transport import TransmissionCoeffs
from .stochastic import ErgodicStats

# GMRES on the advective route: relative residual target, restart length
# and restart cycles before the direct fallback
_GMRES_RTOL = 1e-13
_GMRES_RESTART = 40
_GMRES_CYCLES = 2

# the unknowns of the stacked grid: all but the Dirichlet boundary vertices
_INTERIOR = (slice(1, -1),) * 3


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
    """Vertex control-volume widths: half of each neighbouring interval."""
    d = np.diff(axis_coords)
    return 0.5 * (np.r_[0.0, d] + np.r_[d, 0.0])


class _BedMesh:
    """The vertices of one bed, k increasing upward: the `layers` of the
    column stacked [minus bottom->top, plus bottom->top] on the common
    tensor grid, numbered by `index`."""

    def __init__(self, cfg: TransportConfig, side: str):
        self.side = side
        self.axes = cfg.vertex_axes(side)
        self.widths = tuple(_cv_weights(x) for x in self.axes)
        self.shape = tuple(x.size for x in self.axes)
        n1, n2, nzp, nzm = cfg.shape
        self.layers = (slice(nzm + 1, nzm + nzp + 2) if side == "plus"
                       else slice(0, nzm + 1))
        grid = (n1 + 1, n2 + 1, nzp + nzm + 2)
        self.index = np.arange(np.prod(grid)).reshape(grid)[:, :, self.layers]
        self.diff = cfg.diff_plus if side == "plus" else cfg.diff_minus
        self.reaction = (cfg.reaction_plus if side == "plus"
                         else cfg.reaction_minus)

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


def _face_velocities(cfg: TransportConfig, meshp: _BedMesh,
                     meshm: _BedMesh) -> dict:
    """Each given velocity field called once on each of its face grids: the
    bed fields on the faces of their bed, the surface field on the edges of
    the interface plane.  Maps the field's name to its face-normal
    component on the faces of each axis; raises ValueError naming a field
    where it is not finite."""
    samples = {}
    for name, mesh, dims in (("vel_plus", meshp, 3), ("vel_minus", meshm, 3),
                             ("surface_velocity", meshp, 2)):
        field = getattr(cfg, name)
        if field is None:
            continue
        normal = []
        for axis in range(dims):
            mids, _, _ = mesh.faces(axis, dims)
            v = np.asarray(field(*np.meshgrid(*mids, indexing="ij"))[axis],
                           dtype=float)
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            normal.append(v)
        samples[name] = tuple(normal)
    return samples


def _operator(cfg: TransportConfig, meshp: _BedMesh,
              meshm: _BedMesh) -> TensorOperator:
    """The 1-D factors of the velocity-free matrix S on the stacked column:
    two-point diffusion and reaction in each bed, the exchange block
    between the two interface vertices, and surface spreading in the
    horizontal conductances of the upper one."""
    cz = np.zeros((meshp.layers.stop,) * 2)
    g = []
    for mesh in (meshm, meshp):
        x3, w3 = mesh.axes[2], mesh.widths[2]
        cz[mesh.layers, mesh.layers] = (stiffness(mesh.diff[2] / np.diff(x3))
                                        + np.diag(mesh.reaction * w3))
        g.append(np.multiply.outer(mesh.diff[:2], w3))
    g = np.concatenate(g, axis=1)
    # top flux leaves the upper bed, bottom flux enters the lower bed
    P = meshp.layers.start
    M = P - 1
    ex = cfg.exchange
    c = ex.exchange_scale
    ch = ex.cosh_factor
    A = ex.advective_factor
    cz[[P, P, M, M], [P, M, P, M]] += (c * ch, -c * A, -c, c * A * ch)
    if cfg.surface_diffusion is not None:
        g[:, P] += cfg.surface_scale * cfg.surface_diffusion
    x1, x2 = meshp.axes[:2]
    return TensorOperator(*meshp.widths[:2], stiffness(1.0 / np.diff(x1)),
                          stiffness(1.0 / np.diff(x2)), cz, *g)


def _diagonal_form(cfg: TransportConfig, op: TensorOperator,
                   meshp: _BedMesh, meshm: _BedMesh,
                   velocities: dict) -> sp.dia_matrix:
    """A = S + U as its diagonals at the grid's neighbour offsets, ascending,
    so that its product sums each row in column order.  DIA keeps the entry
    (i, i + o) in column i + o, so each entry is written straight to the
    grid index of its column.  S sums its factors' diagonals in the order of
    `op.terms()`; U, summed apart and added last, sums the upwind face
    fluxes of the `velocities` (`_face_velocities`) of the upper bed, lower
    bed and surface, axis by axis."""
    stride = (op.shape[1] * op.shape[2], op.shape[2], 1)
    offsets = sorted({0, *stride, *(-t for t in stride)})
    row = {o: k for k, o in enumerate(offsets)}
    data = np.zeros((len(offsets),) + op.shape)
    for axis, M, across in op.terms():
        for s, _, cols, m in bands(M, axis):
            data[row[s * stride[axis]]][cols] += (
                m * np.expand_dims(across, axis))
    upwind = np.zeros_like(data)
    for mesh, name, plane, scale in (
            (meshp, "vel_plus", meshp.layers, 1.0),
            (meshm, "vel_minus", meshm.layers, 1.0),
            (meshp, "surface_velocity", meshp.layers.start,
             cfg.surface_scale)):
        normal = velocities.get(name, ())
        for axis, v in enumerate(normal):
            _, size, _ = mesh.faces(axis, len(normal))
            # face-normal velocity times face size, positive from lo to hi
            flux = scale * v * size
            lo, hi = axis_halves(axis, len(normal))
            pos, neg = np.maximum(flux, 0.0), np.minimum(flux, 0.0)
            # the rows lo and hi of a face couple the columns hi and lo
            for offset, cols, value in ((0, lo, pos), (stride[axis], hi, neg),
                                        (-stride[axis], lo, -pos),
                                        (0, hi, -neg)):
                upwind[row[offset]][:, :, plane][cols] += value
    data += upwind
    return sp.dia_matrix((data.reshape(len(offsets), -1), offsets),
                         shape=(data[0].size,) * 2)


@dataclass
class TransportSolution:
    """The concentrations of both beds, the residual of the pinned system
    and the route that solved it, with the face velocities that built A
    (`_face_velocities`): the balance check re-walks the divergence with
    these samples, so no field is called twice."""

    config: TransportConfig
    u_plus: np.ndarray
    u_minus: np.ndarray
    residual: float
    route: str          # "separable" (mode by mode), "krylov" or "splu"
    iterations: int     # GMRES iterations run, also before an splu fallback
    face_velocities: dict  # by field name, per axis; empty when separable

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

    def mean_exchange_fluxes(self) -> tuple[float, float]:
        """Means of the two exchange fluxes over the interface plane,
        weighted by the vertex control-volume areas."""
        area = _BedMesh(self.config, "plus").plane_area()
        return tuple(fsum(area * flux) / fsum(area)
                     for flux in self.exchange_fluxes())

    def extrema(self) -> tuple[float, float]:
        lo = min_or_nan((self.u_plus.min(), self.u_minus.min()))
        hi = max_or_nan((self.u_plus.max(), self.u_minus.max()))
        return lo, hi


def _assemble_system(cfg: TransportConfig, surface_source,
                     surface_source_minus):
    """The vertex system of both beds on the stacked grid before the
    Dirichlet rows: the 1-D factors of the velocity-free matrix S and b;
    then the Dirichlet vertices `fixed` with their `data` (zero elsewhere),
    and the two bed meshes."""
    meshp = _BedMesh(cfg, "plus")
    meshm = _BedMesh(cfg, "minus")
    n_tot = meshp.index.size + meshm.index.size
    b = np.zeros(n_tot)
    fixed = np.zeros(n_tot, dtype=bool)
    data = np.zeros(n_tot)
    for mesh, src, bc in ((meshp, cfg.source_plus, cfg.bc_plus),
                          (meshm, cfg.source_minus, cfg.bc_minus)):
        if src is not None:
            factor = cfg.cell_porosity if mesh.side == "plus" else 1.0
            b[mesh.index] = factor * on_grid(src, *mesh.axes) * mesh.volumes()
        mask = mesh.boundary_mask()
        fixed[mesh.index[mask]] = True
        data[mesh.index[mask]] = on_grid(bc, *mesh.axes)[mask]
    area = meshp.plane_area()
    for src, plane in ((surface_source, meshp.index[:, :, 0]),
                       (surface_source_minus, meshm.index[:, :, -1])):
        if src is not None:
            b[plane] += on_grid(src, *meshp.axes[:2]) * area
    return _operator(cfg, meshp, meshm), b, fixed, data, meshp, meshm


def _solve_krylov(A: sp.dia_matrix, rhs: np.ndarray, modes):
    """GMRES for the interior right-hand side `rhs`, with the product of A
    embedded in the grid and the separable inverse of `modes`;
    (x, iterations), x None without convergence."""
    full = np.zeros(tuple(m + 2 for m in rhs.shape))

    def product(x):
        full[_INTERIOR] = x.reshape(rhs.shape)
        return (A @ full.ravel()).reshape(full.shape)[_INTERIOR].ravel()

    return gmres(product, rhs.ravel(),
                 separable_inverse(*modes, rhs.shape, "dst1"),
                 _GMRES_RTOL, _GMRES_RESTART, _GMRES_CYCLES)


def solve_limit_transport(cfg: TransportConfig, surface_source=None,
                          surface_source_minus=None) -> TransportSolution:
    """Solve the coupled transport problem on its interior vertices, with
    the Dirichlet data moved to the right-hand side through A = S + U.

    Without velocities the interior is solved mode by mode in a sine basis
    (`solve_separable`), and S applies itself in tensor form.  With any
    velocity, each field is sampled once per face grid, and the restarted
    GMRES of `_numerics.gmres` solves the interior with the product of the
    diagonal form of A, right-preconditioned by the separable inverse of S;
    SuperLU solves the Dirichlet-pinned A if GMRES does not converge.  Every
    route measures the residual of the pinned system (`checked_residual`),
    and the solution keeps the face velocities for `mass_balance_gap`."""
    op, b, fixed, data, meshp, meshm = _assemble_system(
        cfg, surface_source, surface_source_minus)
    modes = separable_factors(op, slice(1, -1))
    velocities = _face_velocities(cfg, meshp, meshm)
    A = (_diagonal_form(cfg, op, meshp, meshm, velocities) if velocities
         else op)
    rhs = (b - A @ data).reshape(op.shape)[_INTERIOR]
    u = data.copy()
    inside = u.reshape(op.shape)[_INTERIOR]  # a view of u
    iterations = 0
    if not velocities:
        route = "separable"
        inside[...], _ = solve_separable(*modes, rhs, "dst1")
    else:
        x, iterations = _solve_krylov(A, rhs, modes)
        route = "krylov" if x is not None else "splu"
        if x is not None:
            inside[...] = x.reshape(rhs.shape)
    if route == "splu":
        u, residual = solve_sparse(*pin_rows(A, b, fixed, data))
    else:
        residual = checked_residual(A @ u, u, b, fixed, data)
    return TransportSolution(config=cfg, u_plus=u[meshp.index],
                             u_minus=u[meshm.index], residual=residual,
                             route=route, iterations=iterations,
                             face_velocities=velocities)


def _divergence(r: np.ndarray, flux: np.ndarray, axis: int):
    """Add to r the net outflow of the face fluxes `flux` between
    neighbours along `axis`, positive towards the upper neighbour."""
    lo, hi = axis_halves(axis, r.ndim)
    r[lo] += flux
    r[hi] -= flux


def mass_balance_gap(sol: TransportSolution, surface_source=None,
                     surface_source_minus=None) -> float:
    """Re-walk the solved fields with array shifts (independently of the
    sparse assembly) and report the worst normalized vertex defect.  The
    advective fluxes take the face velocities that the solve sampled and
    stored in `sol`."""
    cfg = sol.config
    meshp = _BedMesh(cfg, "plus")
    meshm = _BedMesh(cfg, "minus")
    # normalize by coefficient magnitudes at the solution scale, not by the
    # realized terms: near-uniform states would otherwise divide roundoff
    # by roundoff
    umax = 1.0 + max_or_nan((np.max(np.abs(sol.u_plus)),
                             np.max(np.abs(sol.u_minus))))
    scales = [0.0]
    resid = {}
    for mesh, u in ((meshp, sol.u_plus), (meshm, sol.u_minus)):
        r = np.zeros(mesh.shape)
        normal = sol.face_velocities.get(f"vel_{mesh.side}")
        for axis in range(3):
            _, area, spacing = mesh.faces(axis)
            _divergence(r, -mesh.diff[axis] * np.diff(u, axis=axis)
                        / spacing * area, axis)
            scales.append(float(np.max(mesh.diff[axis] * area / spacing))
                          * umax)
            if normal is not None:
                v = normal[axis]
                lo, hi = axis_halves(axis, 3)
                _divergence(r, v * area * np.where(v > 0.0, u[lo], u[hi]),
                            axis)
                scales.append(float(np.max(np.abs(v) * area)) * umax)
        vol = mesh.volumes()
        if mesh.reaction != 0.0:
            r += mesh.reaction * vol * u
            scales.append(mesh.reaction * float(np.max(vol)) * umax)
        src = cfg.source_plus if mesh.side == "plus" else cfg.source_minus
        if src is not None:
            s = on_grid(src, *mesh.axes)
            factor = cfg.cell_porosity if mesh.side == "plus" else 1.0
            r -= factor * s * vol
            scales.append(float(np.max(np.abs(s * vol))))
        resid[mesh.side] = r

    area = meshp.plane_area()
    top, bottom = sol.exchange_fluxes()
    resid["plus"][:, :, 0] += area * top
    resid["minus"][:, :, -1] -= area * bottom
    ex = cfg.exchange
    scales.append(ex.exchange_scale * ex.cosh_factor
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
            scales.append(float(np.max(sscale * ds * length / spacing))
                          * umax)
    for axis, v in enumerate(sol.face_velocities.get("surface_velocity",
                                                     ())):
        _, length, _ = meshp.faces(axis, dims=2)
        lo, hi = axis_halves(axis, 2)
        _divergence(rp, sscale * v * length
                    * np.where(v > 0.0, tr[lo], tr[hi]), axis)
        scales.append(float(np.max(sscale * np.abs(v) * length)) * umax)
    for src, r in ((surface_source, rp),
                   (surface_source_minus, resid["minus"][:, :, -1])):
        if src is not None:
            s = on_grid(src, *meshp.axes[:2])
            r -= s * area
            scales.append(float(np.max(np.abs(s * area))))

    for mesh in (meshp, meshm):
        resid[mesh.side][mesh.boundary_mask()] = 0.0
    worst = max_or_nan(np.max(np.abs(r)) for r in resid.values())
    return worst / max_or_nan(scales)
