"""Random fissure geometry: lattice enumeration, apertures, curvilinear charts.

A fissure field places one thin vertical tube near each node of an
eps-periodic lattice on the mid-plane rectangle Sigma.  Tube (i, j) occupies

    i*eps + eps*a_i^-(s) < x1 < i*eps + eps*a_i^+(s),   same for j and x2,
    -height < x3 < 0,      s = -x3 * eps^(-theta),

where a^{+-}(s) = r(s + beta) +- q(s + alpha)/2 are half-opening paths built
from one aperture path q and one centerline path r, sampled at iid stationary
phase shifts per lattice line.  theta in (0, 2/3) compresses the depth
variation so the wall slope vanishes with eps.

The curvilinear chart straightens one tube: reference coordinates
(y1, y2, t) in (-eps/2, eps/2)^2 x (-height, 0) map to physical coordinates
through the half-opening paths evaluated at a sheared depth.  The vertical
shear solves two one-dimensional characteristic equations whose right sides
are the wall slopes; by construction the leading off-diagonal metric entries
cancel, leaving a residual of order eps^{2(1-theta)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._numerics import fsum, gauss_legendre, panel_quadrature
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
        if self.height <= 0.0:
            raise ValueError("height must be positive")
        for ext in (self.x1_extent, self.x2_extent):
            if ext[1] <= ext[0]:
                raise ValueError("extents must be increasing intervals")

    @property
    def shear_scale(self) -> float:
        """Magnitude eps^{2(1-theta)} of the chart shear."""
        return self.epsilon ** (2.0 * (1.0 - self.theta))

    def stretched_depth(self, x3):
        """Path argument s = -x3 * eps^(-theta) for x3 in (-height, 0)."""
        return -np.asarray(x3) * self.epsilon ** (-self.theta)


class HalfPaths:
    """Half-opening pair a^{+-}(s) = r(s + beta) +- q(s + alpha)/2 for one
    lattice line, with derivatives to third order."""

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

    def plus_d(self, s):
        return self.r.derivative(s) + 0.5 * self.q.derivative(s)

    def minus_d(self, s):
        return self.r.derivative(s) - 0.5 * self.q.derivative(s)


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

    def cross_rect(self, x3: float):
        """Physical bounds ((x1_lo, x1_hi), (x2_lo, x2_hi)) at height x3."""
        s = self.geometry.stretched_depth(x3)
        eps = self.geometry.epsilon
        out = []
        for axis, base in ((0, self.i * eps), (1, self.j * eps)):
            hp = self.line(axis)
            out.append((base + eps * hp.minus(s), base + eps * hp.plus(s)))
        return tuple(out)


def aperture(fissure: Fissure, s, axis: int = 0):
    """Half-opening pair (a_minus, a_plus) in lattice units at stretched
    depth s; the physical opening is eps times this."""
    hp = fissure.line(axis)
    return hp.minus(s), hp.plus(s)


def certified_offsets(q_path: StationaryPath, r_path: StationaryPath
                      ) -> tuple[float, float]:
    """Realization-independent enclosure [a_lo, a_hi] of every half-opening
    path, from the certified path ranges (shift-invariant)."""
    q_lo, q_hi = q_path.range_bounds()
    r_lo, r_hi = r_path.range_bounds()
    return (r_lo - 0.5 * q_hi, r_hi + 0.5 * q_hi)


def enumerate_fissures(geometry: GeometryParams, q_path: StationaryPath,
                       r_path: StationaryPath, phases: PhaseSequence
                       ) -> list[Fissure]:
    """All fissures whose certified slab is contained in the extents.

    Membership uses the shift-invariant enclosure, so it is deterministic and
    conservative: a kept fissure is contained for every realization of the
    phases.  Raises when the enclosure allows neighboring tubes to overlap
    (the model hypotheses exclude that regime).
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

    out = []
    for i in index_range(geometry.x1_extent):
        hp_i = HalfPaths(q_path, r_path, float(phases.alpha(i)),
                         float(phases.beta(i)))
        for j in index_range(geometry.x2_extent):
            hp_j = HalfPaths(q_path, r_path, float(phases.alpha(j)),
                             float(phases.beta(j)))
            out.append(Fissure(i=i, j=j, geometry=geometry,
                               line_x1=hp_i, line_x2=hp_j))
    return out


def distinct_lines(fissures: list[Fissure]
                   ) -> tuple[list[HalfPaths], np.ndarray, np.ndarray]:
    """Distinct half-opening lines of a tube list.

    Returns the lines, an (F, 2) array of each tube's x1 and x2 line index
    into them, and the (F, 2) tube centres.  A line is keyed by its value,
    (q base path, q shift, r base path, r shift), so tubes built with
    separate but equal HalfPaths share one entry: an n x n field needs at
    most 2n line evaluations, not 2n^2.
    """
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


def fissure_census(fissures: list[Fissure]) -> np.ndarray:
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
# curvilinear chart


def _wall_slope(hp: HalfPaths, zeta: float, w: float) -> float:
    """Characteristic right side: the combination of wall slopes whose
    cancellation keeps the chart near-orthogonal.

    Equals -[a_plus'(w) (1/2 + yhat) + a_minus'(w) (1/2 - yhat)] when zeta is
    the image of the reference offset yhat, but is defined for any zeta.
    """
    q = hp.width(w)
    return (hp.minus_d(w) * (zeta - hp.plus(w))
            - hp.plus_d(w) * (zeta - hp.minus(w))) / q


@dataclass
class PsiValue:
    """Vertical shear value and first derivatives at one chart point."""

    psi: float
    d_zeta1: float
    d_zeta2: float
    d_tau: float
    cross_residual: float


def _integrate_shear(hp: HalfPaths, zeta: float, tau: float, scale: float,
                     step_hint: float) -> float:
    """psi^1(zeta; tau): RK4 on d psi / d z = scale * slope(z, tau + psi)."""
    if zeta == 0.0:
        return 0.0
    n_steps = max(4, int(math.ceil(abs(zeta) / step_hint)))
    hstep = zeta / n_steps
    psi = 0.0
    z = 0.0
    for _ in range(n_steps):
        k1 = scale * _wall_slope(hp, z, tau + psi)
        k2 = scale * _wall_slope(hp, z + 0.5 * hstep, tau + psi + 0.5 * hstep * k1)
        k3 = scale * _wall_slope(hp, z + 0.5 * hstep, tau + psi + 0.5 * hstep * k2)
        k4 = scale * _wall_slope(hp, z + hstep, tau + psi + hstep * k3)
        psi += hstep * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        z += hstep
    return psi


def solve_psi(fissure: Fissure, zeta1: float, zeta2: float, tau: float
              ) -> PsiValue:
    """Vertical shear psi = tau + psi1(zeta1; tau) + psi2(zeta2; tau).

    The additive split turns the shear equation into two independent
    characteristic equations, one per horizontal direction; the coupling they
    ignore is of order shear_scale^2 and is reported as cross_residual.
    """
    geo = fissure.geometry
    scale = geo.shear_scale
    step = scale / 10.0
    p1 = _integrate_shear(fissure.line_x1, zeta1, tau, scale, step)
    p2 = _integrate_shear(fissure.line_x2, zeta2, tau, scale, step)
    psi = tau + p1 + p2
    d1 = scale * _wall_slope(fissure.line_x1, zeta1, tau + p1)
    d2 = scale * _wall_slope(fissure.line_x2, zeta2, tau + p2)
    cross = scale * (abs(_wall_slope(fissure.line_x1, zeta1, psi)
                         - _wall_slope(fissure.line_x1, zeta1, tau + p1))
                     + abs(_wall_slope(fissure.line_x2, zeta2, psi)
                           - _wall_slope(fissure.line_x2, zeta2, tau + p2)))
    # d psi / d tau by central differences on the two shear equations
    dt = 1e-5 * (1.0 + abs(tau))
    pp = (_integrate_shear(fissure.line_x1, zeta1, tau + dt, scale, step)
          + _integrate_shear(fissure.line_x2, zeta2, tau + dt, scale, step))
    pm = (_integrate_shear(fissure.line_x1, zeta1, tau - dt, scale, step)
          + _integrate_shear(fissure.line_x2, zeta2, tau - dt, scale, step))
    d_tau = 1.0 + (pp - pm) / (2.0 * dt)
    return PsiValue(psi=psi, d_zeta1=d1, d_zeta2=d2, d_tau=d_tau,
                    cross_residual=cross)


class CurvilinearChart:
    """Straightening chart of one fissure.

    forward maps reference (y1, y2, t) with |y| < eps/2, t in (-height, 0) to
    physical (x1, x2, x3); inverse undoes it.  metric returns the pulled-back
    metric tensor J^T J at a reference point, jacobian_factor the volume
    factor of the associated straightened integral, positive for admissible
    geometry.
    """

    def __init__(self, fissure: Fissure):
        self.fissure = fissure
        self.geo = fissure.geometry

    def _horizontal(self, sigma: float, y1: float, y2: float):
        eps = self.geo.epsilon
        f = self.fissure
        out = []
        for axis, y, base in ((0, y1, f.i * eps), (1, y2, f.j * eps)):
            hp = f.line(axis)
            out.append(base + hp.plus(sigma) * (0.5 * eps + y)
                       + hp.minus(sigma) * (0.5 * eps - y))
        return out

    def forward(self, y: np.ndarray) -> np.ndarray:
        y1, y2, t = map(float, y)
        eps = self.geo.epsilon
        tau = -t * eps ** (-self.geo.theta)
        f = self.fissure
        sigma = tau
        for _ in range(60):
            x1, x2 = self._horizontal(sigma, y1, y2)
            zeta1 = x1 / eps - f.i
            zeta2 = x2 / eps - f.j
            new_sigma = solve_psi(f, zeta1, zeta2, tau).psi
            if abs(new_sigma - sigma) <= 1e-12 * (1.0 + abs(sigma)):
                sigma = new_sigma
                break
            sigma = new_sigma
        else:
            raise RuntimeError("chart forward fixed point did not converge")
        x1, x2 = self._horizontal(sigma, y1, y2)
        x3 = -sigma * eps ** self.geo.theta
        return np.array([x1, x2, x3])

    def inverse(self, x: np.ndarray) -> np.ndarray:
        x1, x2, x3 = map(float, x)
        eps = self.geo.epsilon
        f = self.fissure
        zeta1 = x1 / eps - f.i
        zeta2 = x2 / eps - f.j
        sigma = -x3 * eps ** (-self.geo.theta)
        tau = sigma
        for _ in range(60):
            val = solve_psi(f, zeta1, zeta2, tau)
            resid = val.psi - sigma
            if abs(resid) <= 1e-13 * (1.0 + abs(sigma)):
                break
            tau -= resid / val.d_tau
        else:
            raise RuntimeError("chart inverse Newton did not converge")
        t = -tau * eps ** self.geo.theta
        ys = []
        for axis, xval, idx in ((0, x1, f.i), (1, x2, f.j)):
            hp = f.line(axis)
            mid = 0.5 * (hp.plus(sigma) + hp.minus(sigma))
            ys.append((xval - idx * eps - eps * mid) / hp.width(sigma))
        return np.array([ys[0], ys[1], t])

    def metric(self, y: np.ndarray) -> np.ndarray:
        """Pulled-back metric J^T J by implicit differentiation of the chart
        equations; exactly diag(q1^2, q2^2, 1) for constant paths."""
        y1, y2, t = map(float, y)
        x = self.forward(y)
        eps = self.geo.epsilon
        theta = self.geo.theta
        f = self.fissure
        sigma = -x[2] * eps ** (-theta)
        tau = -t * eps ** (-theta)
        zeta1 = x[0] / eps - f.i
        zeta2 = x[1] / eps - f.j
        val = solve_psi(f, zeta1, zeta2, tau)

        hp1, hp2 = f.line_x1, f.line_x2
        # dF_horizontal / d x3 through the stretched depth
        b1 = eps ** (-theta) * (hp1.plus_d(sigma) * (0.5 * eps + y1)
                                + hp1.minus_d(sigma) * (0.5 * eps - y1))
        b2 = eps ** (-theta) * (hp2.plus_d(sigma) * (0.5 * eps + y2)
                                + hp2.minus_d(sigma) * (0.5 * eps - y2))
        c1 = eps ** (theta - 1.0) * val.d_zeta1
        c2 = eps ** (theta - 1.0) * val.d_zeta2
        M = np.array([[1.0, 0.0, b1],
                      [0.0, 1.0, b2],
                      [c1, c2, 1.0]])
        D = np.diag([hp1.width(sigma), hp2.width(sigma), val.d_tau])
        J = np.linalg.solve(M, D)
        g = J.T @ J
        return 0.5 * (g + g.T)

    def jacobian_factor(self, y: np.ndarray) -> float:
        """Volume factor 1 + psi_zeta1 * slope1 + psi_zeta2 * slope2 of the
        straightened integral; must stay positive."""
        y1, y2, t = map(float, y)
        x = self.forward(y)
        eps = self.geo.epsilon
        f = self.fissure
        tau = -t * eps ** (-self.geo.theta)
        zeta1 = x[0] / eps - f.i
        zeta2 = x[1] / eps - f.j
        val = solve_psi(f, zeta1, zeta2, tau)
        return (1.0 + val.d_zeta1 * _wall_slope(f.line_x1, zeta1, val.psi)
                + val.d_zeta2 * _wall_slope(f.line_x2, zeta2, val.psi))


# ---------------------------------------------------------------------------
# fissure-measure quadrature


def fissure_volume_integral(fissures: list[Fissure], phi,
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
    i1, i2 = pairs.T
    a1m, a1p = minus[i1], plus[i1]
    a2m, a2p = minus[i2], plus[i2]
    base1, base2 = centers.T
    q1 = a1p - a1m
    q2 = a2p - a2m
    mid1 = base1[:, None] + eps * 0.5 * (a1p + a1m)
    mid2 = base2[:, None] + eps * 0.5 * (a2p + a2m)
    # sample points: (F, H, 2, 2)
    x1 = mid1[..., None, None] + (eps * q1)[..., None, None] \
        * gauss_off[None, None, :, None]
    x2 = mid2[..., None, None] + (eps * q2)[..., None, None] \
        * gauss_off[None, None, None, :]
    shape = (len(fissures), len(x3_nodes), 2, 2)
    x3 = np.broadcast_to(x3_nodes[None, :, None, None], shape)
    vals = np.broadcast_to(np.asarray(phi(x1, x2, x3), dtype=float), shape)
    # x2 first: a value constant in x2 then averages to itself exactly
    cell_mean = vals.mean(axis=3).mean(axis=2)
    area = eps * eps * q1 * q2
    per_fissure = (cell_mean * area * x3_w[None, :]).sum(axis=1)
    return fsum(per_fissure)


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
