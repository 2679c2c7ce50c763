"""Cell problems and effective tensors.

Four solvers feed the limit models:

* solve_poisson_cell: the axial drag profile on the unit-square fissure
  cross-section (Dirichlet Poisson with unit load).  Its integral k0 is the
  fissure conductivity constant appearing in the vertical transmission law.
* solve_stokes_cell: the tangential drag correctors on the cross-section.
  On a closed square cross-section a two-dimensional divergence-free field
  with full no-slip must vanish, so the in-plane constraint is dropped and
  the correctors solve the componentwise no-slip drag problem; the along-axis
  flow of the full channel absorbs the divergence.  The drag tensor is then
  k0 times the identity, and the corrector energy identity is exact.
* solve_darcy_cell / solve_scalar_cell_3d: periodic torus problems with an
  optional interior obstacle, giving the effective permeability K_hat and
  effective diffusivity D_hat of the porous matrix.
* solve_scalar_cell_2d: the periodic surface diffusion cell on the fissure
  mid-plane.

Discretization: cell-centered finite volumes with two-point fluxes and
harmonic face coefficients on the torus problems; vertex-centered five-point
Laplacian for the cross-section problems.  Effective tensors are returned in
the energy form (exactly symmetric, positive semidefinite by construction)
and cross-checked against the flux-average form internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._numerics import (coo_square, fsum, gauss_legendre, solve_sparse,
                        solve_spd, two_point)
from .stochastic import ErgodicStats


@dataclass(frozen=True)
class ObstacleSpec:
    """Strictly interior obstacle on the periodic cell (-1/2, 1/2)^d.

    kind "box": half-widths per axis; kind "ball": radius.  Cells whose
    center falls inside the obstacle get zero conductivity.
    """

    kind: str
    size: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("box", "ball"):
            raise ValueError("obstacle kind must be 'box' or 'ball'")
        if any(s <= 0 for s in self.size):
            raise ValueError("obstacle size entries must be positive")

    def contains(self, centers: np.ndarray) -> np.ndarray:
        # centers shape (..., d)
        if self.kind == "box":
            half = np.asarray(self.size)
            return np.all(np.abs(centers) <= half, axis=-1)
        return np.sum(centers**2, axis=-1) <= self.size[0] ** 2


class CellMesh:
    """Uniform cell-centered mesh on the periodic cell (-1/2, 1/2)^d."""

    def __init__(self, n: int, dim: int = 3,
                 obstacle: ObstacleSpec | None = None):
        if n < 2:
            raise ValueError("mesh needs at least 2 cells per side")
        if dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        self.n = n
        self.dim = dim
        self.h = 1.0 / n
        self.obstacle = obstacle
        axes = [(-0.5 + (np.arange(n) + 0.5) * self.h) for _ in range(dim)]
        self.centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        if obstacle is None:
            self.fluid = np.ones((n,) * dim, dtype=bool)
        else:
            self.fluid = ~obstacle.contains(self.centers)
            edge = np.zeros_like(self.fluid)
            for d in range(dim):
                edge |= ~np.moveaxis(self.fluid, d, 0)[0]
                edge |= ~np.moveaxis(self.fluid, d, 0)[-1]
            if edge.any():
                raise ValueError("obstacle must stay strictly interior to the cell")
            self._check_connected()

    @property
    def porosity(self) -> float:
        return float(np.count_nonzero(self.fluid)) / self.fluid.size

    def _check_connected(self):
        """Raise unless the fluid cells form one component of the periodic
        face graph."""
        # imported here: only meshes with an obstacle need it, and the
        # pipeline's meshes have none
        from scipy.sparse.csgraph import connected_components
        fluid = self.fluid
        idx = np.arange(fluid.size).reshape(fluid.shape)
        lo, hi = [], []
        for d in range(self.dim):
            both = fluid & np.roll(fluid, -1, axis=d)
            lo.append(idx[both])
            hi.append(np.roll(idx, -1, axis=d)[both])
        lo, hi = np.concatenate(lo), np.concatenate(hi)
        graph = sp.coo_matrix((np.ones(lo.size), (lo, hi)),
                              shape=(fluid.size, fluid.size))
        _, labels = connected_components(graph, directed=False)
        if np.unique(labels[fluid.ravel()]).size > 1:
            raise ValueError("fluid region is disconnected")


def _conductivity_field(mesh: CellMesh, cond) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-cell diagonal conductivity (shape grid + (d,)) and, when cond is a
    constant full matrix, the constant off-diagonal part."""
    d = mesh.dim
    grid = mesh.fluid.shape
    off = None
    if np.isscalar(cond):
        k = np.full(grid + (d,), float(cond))
    elif callable(cond):
        vals = np.asarray(cond(mesh.centers), dtype=float)
        if vals.shape == grid:
            k = np.repeat(vals[..., None], d, axis=-1)
        elif vals.shape == grid + (d,):
            k = vals.copy()
        else:
            raise ValueError("conductivity callable must return a scalar or "
                             "per-axis field on cell centers")
    else:
        arr = np.asarray(cond, dtype=float)
        if arr.shape == (d, d):
            if not np.allclose(arr, arr.T):
                raise ValueError("constant conductivity matrix must be symmetric")
            if np.min(np.linalg.eigvalsh(arr)) <= 0:
                raise ValueError("constant conductivity matrix must be positive "
                                 "definite")
            offpart = arr - np.diag(np.diag(arr))
            if np.any(offpart != 0.0):
                if mesh.obstacle is not None:
                    raise ValueError("full-matrix conductivity is supported "
                                     "only without obstacles")
                off = arr
            k = np.broadcast_to(np.diag(arr), grid + (d,)).copy()
        elif arr.shape == grid:
            k = np.repeat(arr[..., None], d, axis=-1)
        elif arr.shape == grid + (d,):
            k = arr.copy()
        else:
            raise ValueError(f"conductivity shape {arr.shape} does not match mesh")
    if np.any(k[mesh.fluid] <= 0):
        raise ValueError("conductivity must be positive on fluid cells")
    k[~mesh.fluid] = 0.0
    return k, off


@dataclass
class PeriodicCellSolution:
    """Corrector fields and effective tensor of a periodic torus cell problem."""

    tensor: np.ndarray            # energy form, symmetric
    tensor_flux: np.ndarray       # flux-average form, equals tensor at solve tol
    correctors: list[np.ndarray]  # one per driven direction
    div_residual: float           # max cell imbalance relative to flux scale
    porosity: float
    mesh: CellMesh = field(repr=False)


def _solve_periodic_cell(mesh: CellMesh, cond) -> PeriodicCellSolution:
    """Drive the torus cell problem in each direction and average fluxes.

    Unknowns are cell pressures; face flux between neighbors is
    tau * (delta_{axis,k} h + (p_nb - p_c)) with tau the harmonic face
    coefficient, zero across obstacle faces.
    """
    d = mesh.dim
    n = mesh.n
    h = mesh.h
    N = n**d
    k_diag, off = _conductivity_field(mesh, cond)

    taus = []
    rows, cols, vals = [], [], []
    idx = np.arange(N).reshape((n,) * d)
    for ax in range(d):
        kA = k_diag[..., ax]
        kB = np.roll(kA, -1, axis=ax)
        with np.errstate(divide="ignore", invalid="ignore"):
            harm = np.where((kA > 0) & (kB > 0),
                            2.0 * kA * kB / (kA + kB + 1e-300), 0.0)
        tau = harm * h ** (d - 2)
        taus.append(tau)
        two_point(rows, cols, vals, idx.ravel(),
                  np.roll(idx, -1, axis=ax).ravel(), tau.ravel())
    A = coo_square(rows, cols, vals, N).tocsr()

    fluid_flat = mesh.fluid.ravel()
    free = np.flatnonzero(fluid_flat)
    pin = free[0]
    keep = free[free != pin]
    A_red = A[keep][:, keep]

    correctors = []
    face_u = []       # per direction: list over axes of u_f arrays
    max_imbalance = 0.0
    flux_scale = 0.0
    for kdir in range(d):
        # conservation reads (A pi)_c = s_{f+} - s_{f-} with s = tau * h on
        # faces along kdir, since A is the positive graph Laplacian
        s = taus[kdir] * h
        b = (s - np.roll(s, 1, axis=kdir)).ravel()
        x = np.zeros(N)
        if len(keep):
            x[keep] = solve_spd(A_red.tocsr(), b[keep])
        pi = x.reshape((n,) * d)
        pi[~mesh.fluid] = 0.0
        mean = pi[mesh.fluid].mean() if mesh.fluid.any() else 0.0
        pi = np.where(mesh.fluid, pi - mean, 0.0)
        correctors.append(pi)
        us = []
        for ax in range(d):
            dpi = np.roll(pi, -1, axis=ax) - pi
            u = dpi + (h if ax == kdir else 0.0)
            us.append(u)
        face_u.append(us)
        # conservation residual: net flux per cell
        imb = np.zeros((n,) * d)
        for ax in range(d):
            F = taus[ax] * us[ax]
            imb += F - np.roll(F, 1, axis=ax)
            flux_scale = max(flux_scale, float(np.max(np.abs(F))))
        max_imbalance = max(max_imbalance, float(np.max(np.abs(imb))))

    tensor_e = np.zeros((d, d))
    tensor_f = np.zeros((d, d))
    for kdir in range(d):
        for ldir in range(kdir, d):
            acc = 0.0
            for ax in range(d):
                acc += fsum(taus[ax] * face_u[kdir][ax] * face_u[ldir][ax])
            tensor_e[kdir, ldir] = tensor_e[ldir, kdir] = acc
        for ax in range(d):
            tensor_f[ax, kdir] = h * fsum(taus[ax] * face_u[kdir][ax])
    if off is not None:
        # constant full matrix: the off-diagonal constant flux is exact
        for kdir in range(d):
            for ax in range(d):
                if ax != kdir:
                    tensor_f[ax, kdir] += off[ax, kdir]
        tensor_e = 0.5 * (tensor_f + tensor_f.T)
    div_rel = max_imbalance / (flux_scale + 1e-300)
    return PeriodicCellSolution(tensor=tensor_e, tensor_flux=tensor_f,
                                correctors=correctors, div_residual=div_rel,
                                porosity=mesh.porosity, mesh=mesh)


def solve_darcy_cell(mesh: CellMesh, permeability=1.0) -> PeriodicCellSolution:
    """Effective permeability K_hat of the periodic matrix with obstacle.

    permeability: scalar, constant symmetric matrix (obstacle-free only),
    per-cell scalar/diagonal field, or callable on cell centers.  The
    returned tensor is the volume-averaged flux response, exactly the
    effective Darcy tensor of the torus problem.
    """
    sol = _solve_periodic_cell(mesh, permeability)
    if sol.div_residual > 1e-10:
        raise RuntimeError(
            f"Darcy cell conservation residual {sol.div_residual:.2e} > 1e-10")
    return sol


def solve_scalar_cell_3d(mesh: CellMesh, diffusivity: float = 1.0
                         ) -> PeriodicCellSolution:
    """Effective diffusivity D_hat of the periodic matrix with obstacle.

    The corrector satisfies a no-flux condition on the obstacle; the tensor
    equals diffusivity * (porosity * I + corrector part) and reduces to
    diffusivity * I exactly without an obstacle.
    """
    if mesh.dim != 3:
        raise ValueError("volume diffusion cell is three-dimensional")
    indicator = np.where(mesh.fluid, float(diffusivity), 0.0)
    sol = _solve_periodic_cell(mesh, indicator)
    if sol.div_residual > 1e-10:
        raise RuntimeError(
            f"diffusion cell conservation residual {sol.div_residual:.2e}")
    return sol


def solve_scalar_cell_2d(mesh: CellMesh, diffusivity=1.0
                         ) -> PeriodicCellSolution:
    """Surface diffusion cell on the fissure mid-plane, posed on the torus.

    Constant diffusivity gives exactly diffusivity * I; a variable field
    gives the usual homogenized surface tensor.
    """
    if mesh.dim != 2:
        raise ValueError("surface diffusion cell is two-dimensional")
    return _solve_periodic_cell(mesh, diffusivity)


@dataclass
class TorsionCell:
    """Axial drag profile on the unit-square cross-section."""

    profile: np.ndarray        # (n+1, n+1) vertex values, zero on the wall
    k0_integral: float         # integral of the profile
    k0_energy: float           # Dirichlet energy of the profile
    center_value: float
    n: int

    @property
    def k0(self) -> float:
        return self.k0_integral

    @property
    def identity_gap(self) -> float:
        scale = abs(self.k0_integral) + abs(self.k0_energy)
        return abs(self.k0_integral - self.k0_energy) / scale


def solve_poisson_cell(n: int = 256) -> TorsionCell:
    """Dirichlet Poisson problem with unit load on (-1/2, 1/2)^2.

    Five-point vertex scheme; the discrete energy identity makes the profile
    integral equal the Dirichlet energy up to the linear-solver residual,
    which is the internal consistency check for k0.
    """
    if n < 4:
        raise ValueError("need at least 4 intervals per side")
    h = 1.0 / n
    m = n - 1
    N = m * m
    main = 4.0 * np.ones(N)
    ex = np.ones(N - 1)
    ex[np.arange(1, N) % m == 0] = 0.0
    ey = np.ones(N - m)
    A = sp.diags([main, -ex, -ex, -ey, -ey], [0, 1, -1, m, -m],
                 format="csc") / h**2
    b = np.ones(N)
    u, _ = solve_sparse(A, b)
    profile = np.zeros((n + 1, n + 1))
    profile[1:-1, 1:-1] = u.reshape(m, m)
    k0_int = h * h * fsum(u)
    du_x = np.diff(profile, axis=0)
    du_y = np.diff(profile, axis=1)
    k0_energy = fsum(du_x * du_x) + fsum(du_y * du_y)
    center = float(profile[n // 2, n // 2]) if n % 2 == 0 else float(
        0.25 * (profile[n // 2, n // 2] + profile[n // 2 + 1, n // 2]
                + profile[n // 2, n // 2 + 1]
                + profile[n // 2 + 1, n // 2 + 1]))
    return TorsionCell(profile=profile, k0_integral=k0_int,
                       k0_energy=k0_energy, center_value=center, n=n)


@dataclass
class DragCell:
    """Tangential drag correctors on the cross-section.

    With the in-plane constraint dropped (see module docstring) the
    corrector eta_k is profile * e_k, the drag tensor is
    k0 * I, and div_proxy records the size of the in-plane divergence those
    correctors would have, reported as a diagnostic of the reduction.
    """

    K_f: np.ndarray
    gram: np.ndarray           # energy form int grad eta_k : grad eta_l
    torsion: TorsionCell
    div_proxy: float

    @property
    def k0(self) -> float:
        return self.torsion.k0


def solve_stokes_cell(n: int = 256, torsion: TorsionCell | None = None
                      ) -> DragCell:
    cell = torsion if torsion is not None else solve_poisson_cell(n)
    k0 = cell.k0_integral
    K_f = np.array([[k0, 0.0], [0.0, k0]])
    gram = np.array([[cell.k0_energy, 0.0], [0.0, cell.k0_energy]])
    h = 1.0 / cell.n
    dmax = float(np.max(np.abs(np.diff(cell.profile, axis=0)))) / h
    return DragCell(K_f=K_f, gram=gram, torsion=cell, div_proxy=dmax)


def compute_kstar(stats: ErgodicStats, permeability=1.0, order: int = 12
                  ) -> np.ndarray:
    """Mid-plane permeability integrated over the mean fissure footprint.

    The footprint is the square (mean_r - mean_q/2, mean_r + mean_q/2)^2 from
    the path averages; for unit permeability the result is mean_q^2 * I.
    permeability may be a constant (d,d) matrix/scalar or a callable
    (z1, z2) -> (3,3) evaluated by tensor Gauss quadrature.
    """
    lo = stats.mean_r - 0.5 * stats.mean_q
    hi = stats.mean_r + 0.5 * stats.mean_q
    side = hi - lo
    if side <= 0:
        raise ValueError("degenerate fissure footprint")
    if np.isscalar(permeability):
        return float(permeability) * side**2 * np.eye(3)
    if callable(permeability):
        xs, ws = gauss_legendre(order)
        z = lo + side * xs
        w = side * ws
        out = np.zeros((3, 3))
        for i in range(order):
            for j in range(order):
                out += w[i] * w[j] * np.asarray(permeability(z[i], z[j]),
                                                dtype=float)
        return out
    K = np.asarray(permeability, dtype=float)
    if K.shape == (3, 3):
        return K * side**2
    raise ValueError("permeability must be scalar, (3,3), or callable")
