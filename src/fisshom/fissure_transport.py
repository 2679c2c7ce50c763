"""Vertical transport inside one fissure tube.

The depth profile of concentration in a thin tube with aperture-weighted
cross-section qq(x3) = q_i * q_j obeys

    -D (qq w')' - qq v3 w' + R qq w = 0       on (-height, 0),

with D molecular diffusion, v3 the mean vertical velocity in the tube and R
the reaction rate.  Two independent solution routes are implemented:

* a fixed-node Runge-Kutta integration of the first-order system in the flux
  variable phi = qq w', and
* successive approximation of the exact integral reformulation
      w(x) = 1 + (R/D) * int_0^x F(s) w(s) (G(x) - G(s)) ds,
      F(s) = qq(s) exp(s v3 / D),   G(y) = int_0^y exp(-z v3 / D)/qq(z) dz,
  whose separable kernel reduces every iteration to two cumulative
  integrals.

Both routes produce the fundamental pair (w, z) with w(0) = 1, w'(0) = 0 and
z(0) = 0, z'(0) = 1/qq(0); all transmission formulas across the fissure layer
are rational expressions in that pair.  As the lattice step vanishes the pair
approaches cosh/sinh profiles in the averaged aperture brackets; that limit
(and the closed-form exchange coefficients built from it) is exact only for
v3 = 0, so limit comparisons are run without vertical drift while the dual
route, which is exact for every v3, covers the drifted case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._numerics import fsum, max_or_nan
from .fissures import Fissure
from .stochastic import WINDOW_LEN, window_means


@dataclass(frozen=True)
class FissureODEConfig:
    fissure: Fissure
    diffusion: float
    reaction: float = 0.0
    v3: float = 0.0

    def __post_init__(self):
        if not self.diffusion > 0:
            raise ValueError("diffusion must be positive")
        if not self.reaction >= 0:
            raise ValueError("reaction must be nonnegative")
        h = self.fissure.geometry.height
        if not abs(h * self.v3 / self.diffusion) <= 50.0:
            raise ValueError("drift Peclet number too large for the fissure "
                             "layer model")


def tube_weight(cfg: FissureODEConfig, x3):
    """Aperture product qq at depth x3 (paths at the stretched argument)."""
    s = cfg.fissure.geometry.stretched_depth(x3)
    return cfg.fissure.line_x1.width(s) * cfg.fissure.line_x2.width(s)


@dataclass(frozen=True)
class PairBrackets:
    """Long-time averages of the aperture product and its reciprocal for one
    tube; these drive the limit cosh/sinh profiles."""

    mean_qq: float
    mean_inv_qq: float

    def __post_init__(self):
        # written so that NaN fails: it compares False with any bound
        if not self.mean_qq * self.mean_inv_qq >= 1.0 - 1e-12:
            raise ValueError(
                f"pair brackets violate Cauchy-Schwarz: mean_qq="
                f"{self.mean_qq}, mean_inv_qq={self.mean_inv_qq}")


def pair_brackets(cfg: FissureODEConfig, T: float = 2.0e3) -> PairBrackets:
    """<qq> and <1/qq> along the tube, from one sample of the product."""
    a, b = cfg.fissure.line_x1.q, cfg.fissure.line_x2.q

    def weighted(nodes, weights):
        qq = a(nodes) * b(nodes)
        return weights * qq, weights * (1.0 / qq)

    m, mi = window_means(T, WINDOW_LEN,
                         max(a.max_frequency, b.max_frequency), weighted)
    return PairBrackets(mean_qq=fsum(m) / len(m),
                        mean_inv_qq=fsum(mi) / len(mi))


def _grid(cfg: FissureODEConfig) -> tuple[np.ndarray, _CumulativeSimpson]:
    """Uniform depth grid (400 nodes per stretched period of the faster
    aperture, at least 800 intervals, an even count) and its Simpson rule."""
    geo = cfg.fissure.geometry
    rate = max(cfg.fissure.line_x1.q.max_frequency,
               cfg.fissure.line_x2.q.max_frequency) \
        * geo.epsilon ** (-geo.theta)
    n = max(800, int(math.ceil(400.0 * geo.height * rate / (2.0 * math.pi))))
    return _grid_rule(geo.height, n + n % 2)


@functools.lru_cache(maxsize=16)
def _grid_rule(height: float, n: int) -> tuple[np.ndarray, _CumulativeSimpson]:
    """n intervals on [-height, 0] and their Simpson weights, formed once."""
    x = np.linspace(-height, 0.0, n + 1)
    x.flags.writeable = False  # shared between callers
    return x, _CumulativeSimpson(x)


@dataclass
class FissureODESolution:
    """Fundamental solution on an ascending depth grid ending at 0.

    flux_exp is the exponentially weighted flux D qq u' exp(x v3 / D), the
    quantity that the integral identity controls; it is exact to quadrature
    accuracy in the integral route and reconstructed from phi in the
    Runge-Kutta route.
    """

    x3: np.ndarray
    values: np.ndarray
    flux_exp: np.ndarray
    iterations: int

    @property
    def at_bottom(self) -> float:
        return float(self.values[0])


def _simpson_coeffs(dx: np.ndarray) -> tuple[np.ndarray, ...]:
    """Weights of the integral over each interval [x_k, x_k+1] from the
    parabola through nodes k, k+1 and k+2, in the order SciPy forms them."""
    x21 = dx[:-1]
    x32 = dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    return (x21 / 6, 3 - x21_x31, 3 + x21x21_x31x32 + x21_x31,
            -x21x21_x31x32)


class _CumulativeSimpson:
    """Cumulative composite Simpson integral on one fixed ascending grid.

    Repeats the unequal-interval route of SciPy 1.17's
    `cumulative_simpson(y, x=x, initial=0.0)` operation for operation, so
    the results are equal bit for bit: an interval of even index is
    integrated from the parabola through it and the next node, one of odd
    index from the parabola through it and the previous node, and the
    pieces are summed in order.  The weights depend on the grid alone and
    are formed once.  The grid must have an even number of intervals, as
    `_grid` makes it.
    """

    def __init__(self, x: np.ndarray):
        dx = np.diff(x)
        if len(dx) < 2 or len(dx) % 2:
            raise ValueError("Simpson grid needs an even number of intervals")
        self.n = len(dx)
        self.even = [c[0::2] for c in _simpson_coeffs(dx)]
        self.odd = [c[::-1][0::2] for c in _simpson_coeffs(dx[::-1])]

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """int_{x_0}^{x_k} y ds at every node, along the last axis."""
        y_a, y_b, y_c = y[..., :-2:2], y[..., 1::2], y[..., 2::2]
        a, a1, a2, a3 = self.even
        b, b1, b2, b3 = self.odd
        pieces = np.empty(y.shape[:-1] + (self.n,))
        pieces[..., 0::2] = a * (a1 * y_a + a2 * y_b + a3 * y_c)
        pieces[..., 1::2] = b * (b1 * y_c + b2 * y_b + b3 * y_a)
        F = np.empty(y.shape)
        F[..., 0] = 0.0
        np.cumsum(pieces, axis=-1, out=F[..., 1:])
        # SciPy adds `initial` to every entry, which turns -0.0 into 0.0
        F[..., 1:] += 0.0
        return F

    def from_zero(self, y: np.ndarray) -> np.ndarray:
        """int_0^x y ds, on a grid whose last node is 0."""
        F = self(y)
        return F - F[..., -1:]


def _solve_volterra(cfg: FissureODEConfig, x: np.ndarray,
                    simpson: _CumulativeSimpson, qq: np.ndarray,
                    homogeneous: tuple[bool, ...]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows w (homogeneous true) or z on one grid, F and G.  A row is left
    alone once its own test holds: its iterates are a lone solve's."""
    D, R, v = cfg.diffusion, cfg.reaction, cfg.v3
    integral = simpson.from_zero
    F = qq * np.exp(x * v / D)
    G = integral(np.exp(-x * v / D) / qq)
    hom = np.array(homogeneous)[:, None]
    base = np.where(hom, 1.0, G)
    u = base.copy()
    iterations = np.zeros(len(homogeneous), dtype=int)
    active = np.arange(len(homogeneous) if R > 0.0 else 0)
    for it in range(1, 201):
        if not active.size:
            break
        rows = slice(None) if active.size == len(u) else active  # no copies
        Fu = F * (u_old := u[rows])
        u_new = base[rows] + (R / D) * (G * integral(Fu) - integral(Fu * G))
        delta = np.max(np.abs(u_new - u_old), axis=-1)
        u[rows] = u_new
        iterations[rows] = it
        # a NaN delta keeps its row active, so it cannot pass as converged
        active = active[~(delta <= 1e-13 * (np.max(np.abs(u_new), axis=-1)
                                            + 1.0))]
    if active.size:
        raise RuntimeError("successive approximation did not converge")
    flux_exp = R * integral(F * u) + np.where(hom, 0.0, D)
    return u, flux_exp, iterations


def _solve_rk4(cfg: FissureODEConfig, x: np.ndarray, qq: np.ndarray,
               qq_mid: np.ndarray, homogeneous: bool
               ) -> tuple[np.ndarray, np.ndarray]:
    """March the system (u, phi), phi = qq u', from the top down."""
    D, R, v = cfg.diffusion, cfg.reaction, cfg.v3
    n = len(x) - 1
    u = np.empty(n + 1)
    phi = np.empty(n + 1)
    u[n] = 1.0 if homogeneous else 0.0
    phi[n] = 0.0 if homogeneous else 1.0
    dh = x[0] - x[1]  # negative: marching toward the bottom

    def rhs(qq_val, uu, pp):
        du = pp / qq_val
        dp = (R * qq_val * uu - v * pp) / D
        return du, dp

    for k in range(n, 0, -1):
        qa = qq[k]
        qm = qq_mid[k - 1]
        qb = qq[k - 1]
        uu, pp = u[k], phi[k]
        k1u, k1p = rhs(qa, uu, pp)
        k2u, k2p = rhs(qm, uu + 0.5 * dh * k1u, pp + 0.5 * dh * k1p)
        k3u, k3p = rhs(qm, uu + 0.5 * dh * k2u, pp + 0.5 * dh * k2p)
        k4u, k4p = rhs(qb, uu + dh * k3u, pp + dh * k3p)
        u[k - 1] = uu + dh * (k1u + 2 * k2u + 2 * k3u + k4u) / 6.0
        phi[k - 1] = pp + dh * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
    flux_exp = D * phi * np.exp(x * v / D)
    return u, flux_exp


def _solve(cfg: FissureODEConfig, homogeneous: tuple[bool, ...],
           method: str = "volterra") -> list[FissureODESolution]:
    """w where homogeneous is true, z where not, on the tube's grid."""
    x, simpson = _grid(cfg)
    qq = np.asarray(tube_weight(cfg, x), dtype=float)
    if method == "volterra":
        u, flux, iters = _solve_volterra(cfg, x, simpson, qq, homogeneous)
    elif method == "rk4":
        x_mid = 0.5 * (x[1:] + x[:-1])
        qq_mid = np.asarray(tube_weight(cfg, x_mid), dtype=float)
        u, flux = zip(*(_solve_rk4(cfg, x, qq, qq_mid, h)
                        for h in homogeneous))
        iters = [len(x) - 1] * len(homogeneous)
    else:
        raise ValueError("method must be 'volterra' or 'rk4'")
    return [FissureODESolution(x, values, f, int(it))
            for values, f, it in zip(u, flux, iters)]


def solve_w(cfg: FissureODEConfig, method: str = "volterra"
            ) -> FissureODESolution:
    """Fundamental solution with w(0) = 1, w'(0) = 0."""
    return _solve(cfg, (True,), method)[0]


def solve_z(cfg: FissureODEConfig, method: str = "volterra"
            ) -> FissureODESolution:
    """Fundamental solution with z(0) = 0, z'(0) = 1/qq(0)."""
    return _solve(cfg, (False,), method)[0]


def dual_route_gap(cfg: FissureODEConfig) -> float:
    """Sup-norm disagreement of the two solution routes over (w, z)."""
    return max_or_nan(
        np.max(np.abs(solver(cfg, method="volterra").values
                      - solver(cfg, method="rk4").values))
        for solver in (solve_w, solve_z))


def z_bottom_floor(cfg: FissureODEConfig) -> float:
    """Certified lower bound on |z(-height)|: the second fundamental solution
    stays strictly negative at the bottom of the layer."""
    geo = cfg.fissure.geometry
    c2 = max(cfg.fissure.line_x1.q.range_bounds()[1],
             cfg.fissure.line_x2.q.range_bounds()[1])
    h = geo.height
    return h * math.exp(-h * abs(cfg.v3) / cfg.diffusion) / (c2 * c2)


@dataclass(frozen=True)
class TransmissionCoeffs:
    """Closed-form exchange law across the fissure layer.

    Interface fluxes (positive downward, per unit mid-plane area):
        top    = exchange_scale * (cosh_factor * u_plus - advective * u_minus)
        bottom = exchange_scale * (u_plus - advective * cosh_factor * u_minus)
    r_hat is the reaction-screening rate; for zero reaction cosh_factor = 1
    and both fluxes agree (continuity limit).
    """

    exchange_scale: float
    cosh_factor: float
    advective_factor: float
    r_hat: float

    def flux_top(self, u_plus, u_minus):
        return self.exchange_scale * (self.cosh_factor * u_plus
                                      - self.advective_factor * u_minus)

    def flux_bottom(self, u_plus, u_minus):
        return self.exchange_scale * (u_plus - self.advective_factor
                                      * self.cosh_factor * u_minus)


def transmission_coeffs(diffusion: float, reaction: float, v3: float,
                        height: float, mean_qq: float, mean_inv_qq: float
                        ) -> TransmissionCoeffs:
    """Exchange coefficients from the layer averages.

    r_hat = sqrt(reaction * mean_qq * mean_inv_qq / diffusion), scale =
    diffusion * r_hat / (mean_inv_qq * sinh(r_hat * height)), reducing to
    diffusion / (height * mean_inv_qq) without reaction.
    """
    if not (height > 0 and diffusion > 0):
        raise ValueError("height and diffusion must be positive")
    for name, value, lo in (("reaction", reaction, 0.0),
                            ("v3", v3, -math.inf), ("mean_qq", mean_qq, 0.0),
                            ("mean_inv_qq", mean_inv_qq, 0.0)):
        if not (lo <= value and math.isfinite(value)):
            raise ValueError(f"{name} must be finite and at least {lo}, "
                             f"got {value}")
    inv_resistance = mean_inv_qq / diffusion
    r_hat = math.sqrt(reaction * mean_qq * inv_resistance)
    if r_hat * height < 1e-8:
        scale = 1.0 / (height * inv_resistance)
    else:
        scale = r_hat / (inv_resistance * math.sinh(r_hat * height))
    cosh_f = math.cosh(r_hat * height)
    advective = math.exp(height * v3 / diffusion)
    return TransmissionCoeffs(exchange_scale=scale, cosh_factor=cosh_f,
                              advective_factor=advective, r_hat=r_hat)


def vertical_velocity(p_top: float, p_bottom: float, k0: float, mu: float,
                      height: float, mean_q2: float, mean_inv_q2: float
                      ) -> float:
    """Mean vertical velocity in a fissure driven by the pressure drop
    between the mid-plane traces of the two media."""
    return (p_top - p_bottom) * k0 / (mu * height * mean_q2 * mean_inv_q2)


@dataclass
class FissureProfile:
    x3: np.ndarray
    values: np.ndarray
    flux_top: float      # diffusive flux leaving the upper medium, downward
    flux_bottom: float   # diffusive flux entering the lower medium, downward
    kind: str


def build_profile(cfg: FissureODEConfig, u_plus: float, u_minus: float,
                  kind: str = "reactive") -> FissureProfile:
    """Depth profile matching the two interface traces.

    kind "advective": zero-reaction quotient-of-integrals profile (exact for
    R = 0, any drift).  kind "reactive": fundamental-pair profile
    u_plus * w + c * z.  Fluxes are the diffusive fluxes D qq u' at the two
    ends, positive downward.
    """
    D, v = cfg.diffusion, cfg.v3
    if kind == "reactive":
        w_sol, z_sol = _solve(cfg, (True, False))
        zb = z_sol.at_bottom
        floor = z_bottom_floor(cfg)
        if not zb <= -floor * (1.0 - 1e-9):
            raise RuntimeError(
                f"fundamental solution z(-h) = {zb:.6g} above the certified "
                f"floor -{floor:.6g}")
        c = (u_minus - u_plus * w_sol.at_bottom) / zb
        values = u_plus * w_sol.values + c * z_sol.values
        flux_top = u_plus * float(w_sol.flux_exp[-1]) + c * float(
            z_sol.flux_exp[-1])
        h = cfg.fissure.geometry.height
        flux_bottom = math.exp(h * v / D) * (
            u_plus * float(w_sol.flux_exp[0]) + c * float(z_sol.flux_exp[0]))
        return FissureProfile(x3=w_sol.x3, values=values, flux_top=flux_top,
                              flux_bottom=flux_bottom, kind=kind)
    if kind != "advective":
        raise ValueError("kind must be 'advective' or 'reactive'")
    if cfg.reaction != 0.0:
        raise ValueError("profile kind 'advective' requires zero reaction")
    x, simpson = _grid(cfg)
    qq = np.asarray(tube_weight(cfg, x), dtype=float)
    weight = np.exp(-x * v / D) / qq
    # N(x) = int_x^0 weight = -int_0^x weight
    N = -simpson.from_zero(weight)
    Nb = float(N[0])
    values = u_plus + (u_minus - u_plus) * N / Nb
    # u' = -(u_minus - u_plus) * weight / Nb; diffusive flux D qq u'
    flux_top = D * (u_plus - u_minus) * float(qq[-1] * weight[-1]) / Nb
    flux_bottom = D * (u_plus - u_minus) * float(qq[0] * weight[0]) / Nb
    return FissureProfile(x3=x, values=values, flux_top=flux_top,
                          flux_bottom=flux_bottom, kind=kind)


def fine_interface_fluxes(cfg: FissureODEConfig, u_plus: float,
                          u_minus: float) -> tuple[float, float]:
    """Resolved-layer diffusive fluxes at the two interfaces (downward)."""
    prof = build_profile(cfg, u_plus, u_minus, kind="reactive")
    return prof.flux_top, prof.flux_bottom


@dataclass
class LimitComparison:
    """Relative sup-norm distances of the resolved pair from its averaged
    limit; each distance is scaled by the sup of the limit profile."""

    err_w: float
    err_z: float
    err_w_flux: float
    err_z_flux: float

    def as_array(self) -> np.ndarray:
        return np.array([self.err_w, self.err_z, self.err_w_flux,
                         self.err_z_flux])


def _sup_gap(values: np.ndarray, limit: np.ndarray) -> float:
    scale = float(np.max(np.abs(limit)))
    gap = float(np.max(np.abs(values - limit)))
    return gap / scale if scale > 0.0 else gap


def limit_comparison(cfg: FissureODEConfig, brackets: PairBrackets
                     ) -> LimitComparison:
    """Distance of (w, z) and their weighted fluxes from the cosh/sinh
    profiles in the layer averages.  Meaningful for v3 = 0 (the averaged
    limit drops the drift weight); callers enforce that."""
    if cfg.v3 != 0.0:
        raise ValueError("limit profiles are defined for zero drift")
    D, R = cfg.diffusion, cfg.reaction
    r_hat = math.sqrt(R * brackets.mean_qq * brackets.mean_inv_qq / D)
    w_sol, z_sol = _solve(cfg, (True, False))
    x = w_sol.x3
    w_lim = np.cosh(r_hat * x)
    z_lim = brackets.mean_inv_qq * np.sinh(r_hat * x) / r_hat if r_hat > 0 \
        else brackets.mean_inv_qq * x
    wf_lim = D * r_hat * np.sinh(r_hat * x) / brackets.mean_inv_qq if r_hat > 0 \
        else np.zeros_like(x)
    zf_lim = D * np.cosh(r_hat * x)
    return LimitComparison(
        err_w=_sup_gap(w_sol.values, w_lim),
        err_z=_sup_gap(z_sol.values, z_lim),
        err_w_flux=_sup_gap(w_sol.flux_exp, wf_lim),
        err_z_flux=_sup_gap(z_sol.flux_exp, zf_lim),
    )
