"""Random fissure geometry: lattice enumeration, apertures, measure quadrature.

A fissure field places one thin vertical tube near each node of an
eps-periodic lattice on the mid-plane rectangle Sigma.  Tube (i, j) occupies

    i*eps + eps*a_i^-(s) < x1 < i*eps + eps*a_i^+(s),   same for j and x2,
    -height < x3 < 0,      s = -x3 * eps^(-theta),

where a^{+-}(s) = r(s + beta) +- q(s + alpha)/2 are half-opening paths built
from one aperture path q and one centerline path r, sampled at iid stationary
phase shifts per lattice line.  theta in (0, 2/3) compresses the depth
variation so the wall slope vanishes with eps.

An n1 x n2 field therefore has only n1 + n2 distinct lines.  It is stored
by line (FissureField): the phases of each line are drawn once, and the
tube-union quadratures sample each line once on the depth grid.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ._numerics import fsum, gauss_legendre, panel_quadrature
from .stochastic import PhaseSequence, StationaryPath

# tubes per block of `fissure_volume_integral`
_VOLUME_BLOCK = 1024


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
        for ext in (self.x1_extent, self.x2_extent):
            if not ext[1] > ext[0]:
                raise ValueError("extents must be increasing intervals")

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

    Tube (i, j) is bounded by line i in x1 and line j in x2; a line's
    shifts depend only on its index, so both axes share one HalfPaths per
    index.  Length, indexing, slicing and iteration follow the row-major
    (i, j) tube order and yield Fissure views.
    """

    def __init__(self, geometry: GeometryParams, rows: range, cols: range,
                 lines: dict[int, HalfPaths]):
        self.geometry = geometry
        self.rows = rows
        self.cols = cols
        self.lines = lines

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

    def line_table(self) -> tuple[list[HalfPaths], np.ndarray, np.ndarray]:
        """The table distinct_lines returns, read off the index ranges."""
        position = {n: k for k, n in enumerate(self.lines)}
        p1 = np.array([position[i] for i in self.rows], dtype=np.intp)
        p2 = np.array([position[j] for j in self.cols], dtype=np.intp)
        n1, n2 = len(p1), len(p2)
        pairs = np.column_stack((np.repeat(p1, n2), np.tile(p2, n1)))
        eps = self.geometry.epsilon
        centers = np.column_stack(
            (np.repeat(np.array(self.rows, dtype=np.int64) * eps, n2),
             np.tile(np.array(self.cols, dtype=np.int64) * eps, n1)))
        return list(self.lines.values()), pairs, centers


def enumerate_fissures(geometry: GeometryParams, q_path: StationaryPath,
                       r_path: StationaryPath, phases: PhaseSequence
                       ) -> FissureField:
    """All fissures whose certified slab is contained in the extents.

    Membership uses the shift-invariant enclosure, so it is deterministic and
    conservative: a kept fissure is contained for every realization of the
    phases.  Raises when the enclosure allows neighboring tubes to overlap
    (the model hypotheses exclude that regime).  The phases are drawn once
    per line, one window per axis, and each lattice index gets one
    HalfPaths.
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
    lines: dict[int, HalfPaths] = {}
    for indices in (rows, cols):
        alpha, beta = phases.window(indices.start, indices.stop)
        for n, a, b in zip(indices, alpha.tolist(), beta.tolist()):
            if n not in lines:
                lines[n] = HalfPaths(q_path, r_path, a, b)
    return FissureField(geometry, rows, cols, lines)


def distinct_lines(fissures: Sequence[Fissure]
                   ) -> tuple[list[HalfPaths], np.ndarray, np.ndarray]:
    """Distinct half-opening lines of a tube collection.

    Returns the lines, an (F, 2) array of each tube's x1 and x2 line index
    into them, and the (F, 2) tube centres.  A FissureField hands over its
    own table.  In any other tube list a line is keyed by its value, (q
    base path, q shift, r base path, r shift), so tubes built with separate
    but equal HalfPaths share one entry: an n x n field needs at most 2n
    line evaluations, not 2n^2.
    """
    if isinstance(fissures, FissureField):
        return fissures.line_table()
    lines: list[HalfPaths] = []
    index: dict = {}
    pairs = np.empty((len(fissures), 2), dtype=np.intp)
    centers = np.empty((len(fissures), 2))
    for k, f in enumerate(fissures):
        for axis in (0, 1):
            hp = f.line(axis)
            key = (hp.q.base, hp.q.offset, hp.r.base, hp.r.offset)
            n = index.setdefault(key, len(lines))
            if n == len(lines):
                lines.append(hp)
            pairs[k, axis] = n
        centers[k] = f.center
    return lines, pairs, centers


def depth_quadrature(geometry: GeometryParams, lines: list[HalfPaths],
                     panels_per_period: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Composite 6-point Gauss rule on (-height, 0) with panels_per_period
    panels per stretched period of the fastest aperture path among lines,
    whichever axis they belong to."""
    max_freq = max(hp.q.max_frequency for hp in lines)
    rate = max_freq * geometry.epsilon ** (-geometry.theta)
    n_panels = max(4, int(math.ceil(panels_per_period * geometry.height
                                    * rate / (2.0 * math.pi))))
    return panel_quadrature(-geometry.height, 0.0, n_panels, order=6)


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


# ---------------------------------------------------------------------------
# fissure-measure quadrature


def fissure_volume_integral(fissures: Sequence[Fissure], phi,
                            panels_per_period: float = 4.0) -> float:
    """Integral of phi over the union of fissure tubes.

    Exact-in-x' slicing: at each height the cross-section is a rectangle, so
    the inner integral is its area times a 2x2 Gauss average; the height
    integral uses composite Gauss panels dense enough for the stretched
    oscillation of the aperture paths.  phi must be vectorized over (x1, x2,
    x3) arrays.  Each distinct lattice line is sampled once on the depth
    grid and the per-tube samples are gathered from those.
    """
    if not fissures:
        return 0.0
    geo = fissures[0].geometry
    eps = geo.epsilon
    lines, pairs, centers = distinct_lines(fissures)
    x3_nodes, x3_w = depth_quadrature(geo, lines, panels_per_period)
    s_nodes = geo.stretched_depth(x3_nodes)
    g2, _ = gauss_legendre(2)
    gauss_off = g2 - 0.5  # offsets in (-1/2, 1/2)

    minus = np.array([hp.minus(s_nodes) for hp in lines])
    plus = np.array([hp.plus(s_nodes) for hp in lines])
    # per line: opening, centre offset, Gauss offsets across the opening and
    # the area factor, each rounded as if it were formed per tube
    q = plus - minus
    mid = eps * 0.5 * (plus + minus)
    spread = (eps * q)[..., None] * gauss_off
    area_q = eps * eps * q
    # tubes in blocks: each tube's row is computed alone, so the blocks only
    # bound the (F, H, 2, 2) samples held at once
    per_fissure = []
    for start in range(0, len(pairs), _VOLUME_BLOCK):
        rows = slice(start, start + _VOLUME_BLOCK)
        i1, i2 = pairs[rows].T
        base1, base2 = centers[rows].T
        # sample points: (F, H, 2, 2)
        x1 = (base1[:, None] + mid[i1])[..., None, None] \
            + spread[i1][..., :, None]
        x2 = (base2[:, None] + mid[i2])[..., None, None] \
            + spread[i2][..., None, :]
        shape = (len(i1), len(x3_nodes), 2, 2)
        x3 = np.broadcast_to(x3_nodes[None, :, None, None], shape)
        vals = np.broadcast_to(np.asarray(phi(x1, x2, x3), dtype=float),
                               shape)
        # x2 first: a value constant in x2 then averages to itself exactly;
        # each pair mean is (a + b) / 2, as numpy's mean of two rounds it
        cell_mean = ((vals[..., 0, 0] + vals[..., 0, 1]) / 2
                     + (vals[..., 1, 0] + vals[..., 1, 1]) / 2) / 2
        area = area_q[i1] * q[i2]
        per_fissure.append((cell_mean * area * x3_w[None, :]).sum(axis=1))
    return fsum(np.concatenate(per_fissure))


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
