"""Cell problem and effective tensors of the fissure layer.

One solve feeds the limit models: solve_poisson_cell, the axial drag profile
on the unit-square fissure cross-section (Dirichlet Poisson with unit load).
Its integral k0 is the fissure conductivity constant of the vertical
transmission law.  The rest are closed forms:

* the tangential drag tensor is k0 I.  On a closed square cross-section a
  two-dimensional divergence-free field with full no-slip must vanish, so
  the in-plane constraint is dropped; each corrector is the profile times a
  unit vector, the along-axis flow absorbing the divergence, and its energy
  form k0_energy I equals k0 I by the integral identity.
* compute_kstar: a constant bed permeability K over the mean fissure
  footprint on the mid-plane is K <q>^2.

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

from ._numerics import _BASES, checked_residual, fsum, mode_eigenvalues
from .stochastic import ErgodicStats


@dataclass
class TorsionCell:
    """Axial drag profile on the unit-square cross-section."""

    profile: np.ndarray        # (n+1, n+1) vertex values, zero on the wall
    k0: float                  # integral of the profile
    k0_energy: float           # Dirichlet energy of the profile
    center_value: float
    n: int
    residual: float            # normalized residual of the five-point stencil
    route: str                 # linear-solver route

    @property
    def identity_gap(self) -> float:
        scale = abs(self.k0) + abs(self.k0_energy)
        return abs(self.k0 - self.k0_energy) / scale


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
    k0 = h * h * fsum(u)
    k0_energy = sum(fsum(np.diff(profile, axis=a) ** 2) for a in (0, 1))
    mid = slice(n // 2, (n + 1) // 2 + 1)   # centre vertex, or 4 for odd n
    center = float(profile[mid, mid].mean())
    return TorsionCell(profile=profile, k0=k0,
                       k0_energy=k0_energy, center_value=center, n=n,
                       residual=residual, route="dst1")


def compute_kstar(stats: ErgodicStats, permeability) -> np.ndarray:
    """A constant (3, 3) bed permeability K integrated over the mean fissure
    footprint, the square (mean_r - mean_q/2, mean_r + mean_q/2)^2 of the
    path averages: K side^2, with side the footprint's width (about mean_q)."""
    K = np.asarray(permeability, dtype=float)
    if K.shape != (3, 3):
        raise ValueError("permeability must be a (3, 3) tensor")
    side = (stats.mean_r + 0.5 * stats.mean_q) \
        - (stats.mean_r - 0.5 * stats.mean_q)
    if side <= 0:
        raise ValueError("degenerate fissure footprint")
    return K * side**2
