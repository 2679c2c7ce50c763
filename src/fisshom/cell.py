"""Cell problems and effective tensors of the fissure layer.

Three solvers feed the limit models:

* solve_poisson_cell: the axial drag profile on the unit-square fissure
  cross-section (Dirichlet Poisson with unit load).  Its integral k0 is the
  fissure conductivity constant appearing in the vertical transmission law.
* solve_stokes_cell: the tangential drag correctors on the cross-section.
  On a closed square cross-section a two-dimensional divergence-free field
  with full no-slip must vanish, so the in-plane constraint is dropped and
  the correctors solve the componentwise no-slip drag problem; the along-axis
  flow of the full channel absorbs the divergence.  The drag tensor is then
  k0 times the identity, and the corrector energy identity is exact.
* compute_kstar: the bed permeability integrated over the mean fissure
  footprint on the mid-plane.

The beds' own permeability and diffusion tensors are inputs, as in the
paper: the beds are homogeneous, and the periodic cell of a constant
coefficient returns that coefficient, so they come from the config.

Discretization: vertex-centered five-point Laplacian on the cross-section,
solved exactly by a sine transform in each axis and gated by its residual,
with the stencil applied by shifted slices instead of an assembled matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numerics import (_BASES, checked_residual, fsum, gauss_legendre,
                        mode_eigenvalues)
from .stochastic import ErgodicStats


@dataclass
class TorsionCell:
    """Axial drag profile on the unit-square cross-section."""

    profile: np.ndarray        # (n+1, n+1) vertex values, zero on the wall
    k0_integral: float         # integral of the profile
    k0_energy: float           # Dirichlet energy of the profile
    center_value: float
    n: int
    residual: float            # normalized residual of the five-point stencil
    route: str                 # linear-solver route

    @property
    def k0(self) -> float:
        return self.k0_integral

    @property
    def identity_gap(self) -> float:
        scale = abs(self.k0_integral) + abs(self.k0_energy)
        return abs(self.k0_integral - self.k0_energy) / scale


def solve_poisson_cell(n: int = 256) -> TorsionCell:
    """Dirichlet Poisson problem with unit load on (-1/2, 1/2)^2.

    Five-point vertex scheme, solved exactly by the orthonormal DST-I in each
    axis, whose eigenvalues are (mu_j + mu_k) / h^2; its residual, with the
    stencil applied by shifted slices, is gated at 1e-9.  The discrete
    energy identity makes the profile integral equal the Dirichlet energy up
    to that residual, which is the internal consistency check for k0.
    """
    if n < 4:
        raise ValueError("need at least 4 intervals per side")
    h = 1.0 / n
    m = n - 1
    forward, inverse, kind, _ = _BASES["dst1"]
    mu = mode_eigenvalues(m, "dst1")
    b = np.ones((m, m))
    lam = (mu[:, None] + mu[None, :]) / h**2
    u = inverse(forward(b, type=kind, norm="ortho") / lam, type=kind,
                norm="ortho")
    # the five-point stencil by shifted slices, zero on the wall
    Au = 4.0 * u
    Au[1:] -= u[:-1]
    Au[:-1] -= u[1:]
    Au[:, 1:] -= u[:, :-1]
    Au[:, :-1] -= u[:, 1:]
    residual = checked_residual(Au / h**2, u, b)
    profile = np.zeros((n + 1, n + 1))
    profile[1:-1, 1:-1] = u
    k0_int = h * h * fsum(u)
    du_x = np.diff(profile, axis=0)
    du_y = np.diff(profile, axis=1)
    k0_energy = fsum(du_x * du_x) + fsum(du_y * du_y)
    center = float(profile[n // 2, n // 2]) if n % 2 == 0 else float(
        0.25 * (profile[n // 2, n // 2] + profile[n // 2 + 1, n // 2]
                + profile[n // 2, n // 2 + 1]
                + profile[n // 2 + 1, n // 2 + 1]))
    return TorsionCell(profile=profile, k0_integral=k0_int,
                       k0_energy=k0_energy, center_value=center, n=n,
                       residual=residual, route="dst1")


@dataclass
class DragCell:
    """Tangential drag correctors on the cross-section.

    With the in-plane constraint dropped (see module docstring) the
    corrector eta_k is profile * e_k and the drag tensor is k0 * I.
    """

    K_f: np.ndarray
    gram: np.ndarray           # energy form int grad eta_k : grad eta_l
    torsion: TorsionCell

    @property
    def k0(self) -> float:
        return self.torsion.k0


def solve_stokes_cell(n: int = 256, torsion: TorsionCell | None = None
                      ) -> DragCell:
    cell = torsion if torsion is not None else solve_poisson_cell(n)
    k0 = cell.k0_integral
    K_f = np.array([[k0, 0.0], [0.0, k0]])
    gram = np.array([[cell.k0_energy, 0.0], [0.0, cell.k0_energy]])
    return DragCell(K_f=K_f, gram=gram, torsion=cell)


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
