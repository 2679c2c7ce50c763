"""Random fissure geometry: lattice enumeration, apertures, line sampling.

A fissure field places one thin vertical tube near each node of an
eps-periodic lattice on the mid-plane rectangle Sigma.  Tube (i, j) occupies

    i*eps + eps*a_i^-(s) < x1 < i*eps + eps*a_i^+(s),   same for j and x2,
    -height < x3 < 0,      s = -x3 * eps^(-theta),

where a^{+-}(s) = r(s + beta) +- q(s + alpha)/2 are half-opening paths built
from one aperture path q and one centerline path r, sampled at iid stationary
phase shifts per lattice line.  theta in (0, 2/3) compresses the depth
variation so the wall slope vanishes with eps.

An n1 x n2 field therefore has only n1 + n2 distinct lines.  It is stored
by line (FissureField): the phases of each line are drawn once, and
`FissureField.sample_lines` samples all lines of an axis in one path call
on the depth grid, so the sweeps' sums over the tube union are products of
sums over the lines.  The paths sum their series in a fixed order, point
by point, so a line's samples are the same whether it is evaluated alone
or with the others.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ._numerics import check_interval, gauss_legendre, panel_quadrature
from .stochastic import PhaseSequence, StationaryPath


@dataclass(frozen=True)
class GeometryParams:
    epsilon: float
    theta: float
    height: float
    x1_extent: tuple[float, float] = (0.0, 1.0)
    x2_extent: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.theta < 2.0 / 3.0:
            raise ValueError(
                f"theta must be in (0, 2/3), got {self.theta}")
        if not self.height > 0.0:
            raise ValueError("height must be positive")
        check_interval(self.x1_extent, "x1_extent")
        check_interval(self.x2_extent, "x2_extent")

    def stretched_depth(self, x3):
        """Path argument s = -x3 * eps^(-theta) for x3 in (-height, 0)."""
        return -np.asarray(x3) * self.epsilon ** (-self.theta)


class HalfPaths:
    """Half-opening pair a^{+-}(s) = r(s + beta) +- q(s + alpha)/2 for one
    lattice line."""

    def __init__(self, q_path: StationaryPath, r_path: StationaryPath,
                 alpha: float, beta: float):
        self.q = q_path.shifted(alpha)
        self.r = r_path.shifted(beta)
        self.alpha = alpha
        self.beta = beta

    def width(self, s):
        return self.q(s)

    def plus(self, s):
        return self.r(s) + 0.5 * self.q(s)

    def minus(self, s):
        return self.r(s) - 0.5 * self.q(s)


@dataclass(frozen=True)
class Fissure:
    i: int
    j: int
    geometry: GeometryParams
    line_x1: HalfPaths = field(repr=False)
    line_x2: HalfPaths = field(repr=False)

    @property
    def center(self) -> tuple[float, float]:
        eps = self.geometry.epsilon
        return (self.i * eps, self.j * eps)

    def line(self, axis: int) -> HalfPaths:
        return self.line_x1 if axis == 0 else self.line_x2


def certified_offsets(q_path: StationaryPath, r_path: StationaryPath
                      ) -> tuple[float, float]:
    """Realization-independent enclosure [a_lo, a_hi] of every half-opening
    path, from the certified path ranges (shift-invariant)."""
    q_lo, q_hi = q_path.range_bounds()
    r_lo, r_hi = r_path.range_bounds()
    return (r_lo - 0.5 * q_hi, r_hi + 0.5 * q_hi)


class FissureField(Sequence):
    """The tubes of one lattice, stored by line.

    Tube (i, j) is bounded by line i in x1 and line j in x2.  The field
    keeps the aperture and centerline paths and, per axis, the phase shifts
    (alpha, beta) of its lines; a shift depends only on the line's index.
    Length, indexing, slicing and iteration follow the row-major (i, j)
    tube order and yield Fissure views, whose HalfPaths are built on first
    use, one per index.
    """

    def __init__(self, geometry: GeometryParams, q_path: StationaryPath,
                 r_path: StationaryPath, rows: range, cols: range,
                 shifts: tuple[tuple[np.ndarray, np.ndarray], ...]):
        self.geometry = geometry
        self.q_path = q_path
        self.r_path = r_path
        self.rows = rows
        self.cols = cols
        self.shifts = shifts

    @functools.cached_property
    def lines(self) -> dict[int, HalfPaths]:
        # an index on both axes has the same shifts on both
        return {n: HalfPaths(self.q_path, self.r_path, a, b)
                for ix, (alpha, beta) in zip((self.rows, self.cols),
                                             self.shifts)
                for n, a, b in zip(ix, alpha.tolist(), beta.tolist())}

    def _tube(self, i: int, j: int) -> Fissure:
        return Fissure(i=i, j=j, geometry=self.geometry,
                       line_x1=self.lines[i], line_x2=self.lines[j])

    def __len__(self) -> int:
        return len(self.rows) * len(self.cols)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[k] for k in range(len(self))[key]]
        k = range(len(self))[key]
        n2 = len(self.cols)
        return self._tube(self.rows[k // n2], self.cols[k % n2])

    def __iter__(self):
        for i in self.rows:
            for j in self.cols:
                yield self._tube(i, j)

    def sample_lines(self, panels_per_period: float):
        """Every line sampled once on a composite 6-point Gauss rule on
        (-height, 0), panels_per_period panels per stretched period of the
        aperture path.

        Returns the depth weights (H,) and, for the rows and then for the
        columns, the (n, H) openings q(s) and centres n*eps + eps*r(s) of
        the lines: at depth node k, tube (i, j) has the rectangular
        cross-section of sides eps*q_i[k] by eps*q_j[k] centred at
        (centre_i[k], centre_j[k]).  Each axis takes one call per path, on
        the (n, H) arguments s + alpha_n and s + beta_n.
        """
        geo = self.geometry
        eps = geo.epsilon
        rate = self.q_path.max_frequency * eps ** (-geo.theta)
        n_panels = max(4, int(math.ceil(panels_per_period * geo.height
                                        * rate / (2.0 * math.pi))))
        x3, w = panel_quadrature(-geo.height, 0.0, n_panels, order=6)
        s = geo.stretched_depth(x3)

        def axis(indices: range, alpha: np.ndarray, beta: np.ndarray):
            q = self.q_path(s + alpha[:, None])
            r = self.r_path(s + beta[:, None])
            return q, eps * np.array(indices)[:, None] + eps * r

        return w, axis(self.rows, *self.shifts[0]), \
            axis(self.cols, *self.shifts[1])


def enumerate_fissures(geometry: GeometryParams, q_path: StationaryPath,
                       r_path: StationaryPath, phases: PhaseSequence
                       ) -> FissureField:
    """All fissures whose certified slab is contained in the extents.

    Membership uses the shift-invariant enclosure, so it is deterministic and
    conservative: a kept fissure is contained for every realization of the
    phases.  Raises when the enclosure allows neighboring tubes to overlap
    (the model hypotheses exclude that regime).  The phases are drawn once
    per line, one window per axis.
    """
    a_lo, a_hi = certified_offsets(q_path, r_path)
    if a_hi >= 0.5 or a_lo <= -0.5:
        raise ValueError(
            f"certified half-opening range [{a_lo:.3f}, {a_hi:.3f}] leaves "
            "the lattice cell: neighboring fissures could overlap")
    eps = geometry.epsilon

    def index_range(extent):
        lo = math.ceil(extent[0] / eps - a_lo - 1e-12)
        hi = math.floor(extent[1] / eps - a_hi + 1e-12)
        return range(lo, hi + 1)

    rows = index_range(geometry.x1_extent)
    cols = index_range(geometry.x2_extent)
    shifts = tuple(phases.window(ix.start, ix.stop) for ix in (rows, cols))
    return FissureField(geometry, q_path, r_path, rows, cols, shifts)


def fissure_census(fissures: Sequence[Fissure]) -> np.ndarray:
    """Structured array with one row per fissure (for reports and CSV)."""
    dt = np.dtype([("i", np.int64), ("j", np.int64),
                   ("alpha_i", float), ("alpha_j", float),
                   ("beta_i", float), ("beta_j", float),
                   ("q_i_mid", float), ("q_j_mid", float)])
    rows = np.empty(len(fissures), dtype=dt)
    for k, f in enumerate(fissures):
        rows[k] = (f.i, f.j, f.line_x1.alpha, f.line_x2.alpha,
                   f.line_x1.beta, f.line_x2.beta,
                   float(f.line_x1.width(0.0)), float(f.line_x2.width(0.0)))
    return rows


def surface_integral(geometry: GeometryParams, phi) -> float:
    """24 x 24-point Gauss tensor quadrature of phi(x1, x2, 0) over Sigma."""
    xs, ws = gauss_legendre(24)
    (a1, b1), (a2, b2) = geometry.x1_extent, geometry.x2_extent
    x1 = a1 + (b1 - a1) * xs
    w1 = (b1 - a1) * ws
    x2 = a2 + (b2 - a2) * xs
    w2 = (b2 - a2) * ws
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    vals = np.asarray(phi(X1, X2, np.zeros_like(X1)), dtype=float)
    vals = np.broadcast_to(vals, X1.shape)
    return float(np.einsum("i,j,ij->", w1, w2, vals))
