"""Stationary random coefficient paths and ergodic averaging.

Fissure geometry and transport coefficients are driven by stationary, bounded,
smooth random paths: an aperture path q (fissure width), a centerline path r
(lateral drift of the fissure axis), and optionally a dispersion path
modulating diffusivity with depth.  Bounds are certified analytically at
construction time from the path parameters; nothing is clipped after sampling,
so every sample of a validated path lies inside its declared range.

Effective coefficients downstream depend on the paths only through long-time
averages of q, q^2, 1/q^2 (and r).  Those averages are always computed here by
windowed quadrature along the path; closed-form values exist for some path
families but are reserved for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._numerics import fsum, panel_quadrature, uniform_from_hash

_KINDS = ("aperture_q", "centerline_r", "dispersion_D", "constant", "shot_noise")

_TAG_PHASE = 101
_TAG_ALPHA = 11
_TAG_BETA = 13
_TAG_JITTER = 17


@dataclass(frozen=True)
class ProcessParams:
    """Parameters of one stationary coefficient path.

    kind selects the validation rules:
      aperture_q   requires 0 < lower_bound <= mean - sum|amps| and
                   mean + sum|amps| <= upper_bound < 1
      centerline_r requires |mean| + sum|amps| <= 1
      dispersion_D requires mean - sum|amps| >= lower_bound > 0
      constant     requires no amplitudes
      shot_noise   Gaussian-bump lattice path, see ShotNoisePath

    deriv_bound, when given, must dominate the certified bounds on the first
    three derivatives of the path.
    """

    kind: str
    mean: float
    amplitudes: tuple[float, ...] = ()
    frequencies: tuple[float, ...] = ()
    seed: int = 0
    lower_bound: float | None = None
    upper_bound: float | None = None
    deriv_bound: float | None = None
    bump_spacing: float = 1.0
    bump_width: float = 0.35

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"process kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind != "shot_noise" and len(self.amplitudes) != len(self.frequencies):
            raise ValueError("amplitudes and frequencies must have equal length")
        if any(f <= 0 for f in self.frequencies):
            raise ValueError("frequencies must be positive")
        if any(a < 0 for a in self.amplitudes):
            raise ValueError("amplitudes must be nonnegative")


class StationaryPath:
    """Common interface: vectorized call, derivatives to order 3, certified
    range and derivative bounds, and cheap shifted views."""

    params: ProcessParams

    def __call__(self, t):  # pragma: no cover - interface
        raise NotImplementedError

    def derivative(self, t, order: int = 1):  # pragma: no cover - interface
        raise NotImplementedError

    def range_bounds(self) -> tuple[float, float]:  # pragma: no cover
        raise NotImplementedError

    def derivative_bound(self, order: int) -> float:  # pragma: no cover
        raise NotImplementedError

    def shifted(self, offset: float) -> "ShiftedPath":
        return ShiftedPath(self, float(offset))

    @property
    def max_frequency(self) -> float:
        freqs = self.params.frequencies
        return max(freqs) if freqs else 1.0


class ShiftedPath(StationaryPath):
    """View of a base path evaluated at t + offset.

    Used for per-fissure paths: the same realization of the underlying path is
    sampled at independently drawn stationary phase shifts.
    """

    def __init__(self, base: StationaryPath, offset: float):
        self.base = base
        self.offset = offset
        self.params = base.params

    def __call__(self, t):
        return self.base(np.asarray(t) + self.offset)

    def derivative(self, t, order: int = 1):
        return self.base.derivative(np.asarray(t) + self.offset, order)

    def range_bounds(self):
        return self.base.range_bounds()

    def derivative_bound(self, order: int) -> float:
        return self.base.derivative_bound(order)

    @property
    def max_frequency(self) -> float:
        return self.base.max_frequency


class ConstantPath(StationaryPath):
    def __init__(self, params: ProcessParams):
        self.params = params
        self._value = float(params.mean)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, self._value) if t.ndim else self._value

    def derivative(self, t, order: int = 1):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t) if t.ndim else 0.0

    def range_bounds(self):
        return (self._value, self._value)

    def derivative_bound(self, order: int) -> float:
        return 0.0


class FourierPath(StationaryPath):
    """Random-phase cosine series mean + sum_k A_k cos(nu_k t + phi_k).

    Phases are iid uniform on [0, 2pi), drawn deterministically from the seed,
    which makes the path stationary; with pairwise incommensurate frequencies
    time averages of powers of the path converge to torus averages.
    """

    def __init__(self, params: ProcessParams):
        self.params = params
        n = len(params.amplitudes)
        u = np.atleast_1d(uniform_from_hash(params.seed, _TAG_PHASE, np.arange(n)))
        self.phases = 2.0 * math.pi * u
        self.amps = np.asarray(params.amplitudes, dtype=float)
        self.freqs = np.asarray(params.frequencies, dtype=float)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        arg = np.multiply.outer(t, self.freqs) + self.phases
        out = self.params.mean + np.cos(arg) @ self.amps
        return out if t.ndim else float(out)

    def derivative(self, t, order: int = 1):
        if not 1 <= order <= 3:
            raise ValueError("derivative order must be 1, 2, or 3")
        t = np.asarray(t, dtype=float)
        arg = (np.multiply.outer(t, self.freqs) + self.phases
               + order * 0.5 * math.pi)
        out = np.cos(arg) @ (self.amps * self.freqs**order)
        return out if t.ndim else float(out)

    def range_bounds(self):
        spread = float(np.sum(self.amps))
        return (self.params.mean - spread, self.params.mean + spread)

    def derivative_bound(self, order: int) -> float:
        return float(np.sum(self.amps * self.freqs**order))


class ShotNoisePath(StationaryPath):
    """Smoothed shot noise: Gaussian bumps on a jittered lattice.

    value(t) = mean + a * sum_j exp(-(t - t_j)^2 / (2 w^2)) with
    t_j = (j + u) * spacing + jitter_j, u a single uniform global phase
    (stationarity) and jitter_j iid uniform on [-spacing/4, spacing/4].
    Consecutive bump centers are therefore at least spacing/2 apart, which
    gives the certified envelope sums used for range/derivative bounds.

    amplitudes must hold exactly one entry (the bump amplitude a);
    frequencies is unused.  Robustness alternative to FourierPath; the
    ergodic-average machinery treats it identically.
    """

    def __init__(self, params: ProcessParams):
        if len(params.amplitudes) != 1:
            raise ValueError("shot_noise takes exactly one amplitude")
        self.params = params
        self.amp = float(params.amplitudes[0])
        self.spacing = float(params.bump_spacing)
        self.width = float(params.bump_width)
        if self.spacing <= 0 or self.width <= 0:
            raise ValueError("bump_spacing and bump_width must be positive")
        self.global_phase = float(uniform_from_hash(params.seed, _TAG_PHASE, 0))
        # bumps further than reach*width contribute < 1e-12 relative
        self.reach = 8.0 * self.width
        self._window = int(math.ceil(self.reach / self.spacing)) + 2

    def _centers(self, j: np.ndarray) -> np.ndarray:
        jit = (uniform_from_hash(self.params.seed, _TAG_JITTER, j) - 0.5) \
            * (self.spacing / 2.0)
        return (j + self.global_phase) * self.spacing + jit

    def _bump_deriv(self, x: np.ndarray, order: int) -> np.ndarray:
        s = x / self.width
        g = np.exp(-0.5 * s * s)
        if order == 0:
            return g
        w = self.width
        if order == 1:
            return -s * g / w
        if order == 2:
            return (s * s - 1.0) * g / w**2
        if order == 3:
            return (3.0 * s - s**3) * g / w**3
        raise ValueError("derivative order must be <= 3")

    def _sum(self, t, order: int):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        j0 = np.floor(t / self.spacing - self.global_phase).astype(np.int64)
        offs = np.arange(-self._window, self._window + 1)
        jj = j0[:, None] + offs[None, :]
        centers = self._centers(jj)
        vals = self._bump_deriv(t[:, None] - centers, order)
        return vals.sum(axis=1)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = self.params.mean + self.amp * self._sum(t_arr, 0)
        return out.reshape(t_arr.shape) if t_arr.ndim else float(out[0])

    def derivative(self, t, order: int = 1):
        t_arr = np.asarray(t, dtype=float)
        out = self.amp * self._sum(t_arr, order)
        return out.reshape(t_arr.shape) if t_arr.ndim else float(out[0])

    def _envelope_sum(self, order: int) -> float:
        # certified: k-th nearest center on each side is >= (k-1)*spacing/2 away
        xs = np.linspace(0.0, self.reach + self.spacing, 4001)
        env_vals = np.abs(self._bump_deriv(xs, order))
        total = 0.0
        k = 0
        while True:
            d = k * self.spacing / 2.0
            if d > self.reach:
                break
            total += float(np.max(env_vals[xs >= d])) if d > 0 else float(
                np.max(env_vals))
            k += 1
        return 2.0 * total

    def range_bounds(self):
        s = self.amp * self._envelope_sum(0)
        return (self.params.mean, self.params.mean + s)

    def derivative_bound(self, order: int) -> float:
        return self.amp * self._envelope_sum(order)

    @property
    def max_frequency(self) -> float:
        return 2.0 * math.pi / min(self.spacing, 4.0 * self.width)


def build_path(params: ProcessParams) -> StationaryPath:
    """Construct and validate a path against its declared hypothesis bounds.

    Raises ValueError naming the violated constraint; a returned path is
    guaranteed to respect its range everywhere.
    """
    if params.kind == "constant":
        path: StationaryPath = ConstantPath(params)
    elif params.kind == "shot_noise":
        path = ShotNoisePath(params)
    else:
        path = FourierPath(params)
    lo, hi = path.range_bounds()

    if params.kind == "aperture_q" or (
            params.kind == "shot_noise" and params.lower_bound is not None):
        c1 = params.lower_bound
        c2 = params.upper_bound
        if c1 is None or c2 is None:
            raise ValueError("aperture path requires lower_bound and upper_bound")
        if not (0.0 < c1 <= lo):
            raise ValueError(
                f"aperture lower bound violated: need 0 < lower_bound <= "
                f"{lo:.6g}, got lower_bound={c1}")
        if not (hi <= c2 < 1.0):
            raise ValueError(
                f"aperture upper bound violated: need {hi:.6g} <= upper_bound < 1, "
                f"got upper_bound={c2}")
    elif params.kind == "centerline_r":
        if abs(params.mean) + (hi - lo) / 2.0 > 1.0 + 1e-15:
            raise ValueError("centerline path must stay within [-1, 1]")
    elif params.kind == "dispersion_D":
        if params.lower_bound is None:
            raise ValueError("dispersion path requires a positive lower_bound")
        if not (0.0 < params.lower_bound <= lo):
            raise ValueError(
                f"dispersion lower bound violated: range min {lo:.6g} below "
                f"lower_bound={params.lower_bound}")
    if params.deriv_bound is not None and params.kind != "constant":
        for order in (1, 2, 3):
            b = path.derivative_bound(order)
            if b > params.deriv_bound + 1e-12:
                raise ValueError(
                    f"derivative bound violated at order {order}: certified "
                    f"{b:.6g} exceeds deriv_bound={params.deriv_bound}")
    return path


@dataclass(frozen=True)
class PhaseSequence:
    """Deterministic iid stationary phase shifts per lattice index.

    alpha(i) shifts the aperture path of lattice line i, beta(i) the
    centerline path.  Draws are uniform on [-bound, bound], keyed by
    (seed, axis tag, index): the same index always gets the same shift,
    independent of enumeration order or window.
    """

    bound: float
    seed: int

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("phase bound must be nonnegative")

    def _draw(self, tag: int, i):
        u = uniform_from_hash(self.seed, tag, np.asarray(i, dtype=np.int64))
        return self.bound * (2.0 * u - 1.0)

    def alpha(self, i):
        return self._draw(_TAG_ALPHA, i)

    def beta(self, i):
        return self._draw(_TAG_BETA, i)

    def window(self, lo: int, hi: int):
        idx = np.arange(lo, hi, dtype=np.int64)
        return self._draw(_TAG_ALPHA, idx), self._draw(_TAG_BETA, idx)


@dataclass(frozen=True)
class BracketEstimate:
    value: float
    stderr: float
    window_T: float
    n_windows: int


@dataclass(frozen=True)
class ErgodicStats:
    """Long-time averages the effective models consume.

    mean_q, mean_q2, mean_inv_q2 are averages of q, q^2, 1/q^2 over the
    symmetric window [-T, T]; mean_r is the centerline average (zero when no
    centerline path is supplied).  stderr is the largest windowed standard
    error among the four estimates.
    """

    mean_q: float
    mean_q2: float
    mean_inv_q2: float
    mean_r: float
    window_T: float
    stderr: float

    def __post_init__(self):
        if self.mean_q2 + 1e-12 < self.mean_q**2:
            raise ValueError("mean square below squared mean: averaging bug")
        if self.mean_q2 * self.mean_inv_q2 < 1.0 - 1e-12:
            raise ValueError("Cauchy-Schwarz violated: averaging bug")


def _quad_nodes(T: float, window_len: float, max_freq: float, order: int = 6):
    W = max(4, int(math.ceil(2.0 * T / window_len)))
    edges = np.linspace(-T, T, W + 1)
    L = edges[1] - edges[0]
    # at least two Gauss panels per oscillation period inside each window
    panels = max(4, int(math.ceil(L * max_freq / math.pi)))
    return edges, panels, order


def ergodic_average(path: StationaryPath, T: float,
                    transform: Callable[[np.ndarray], np.ndarray] | None = None,
                    window_len: float = 25.0) -> BracketEstimate:
    """Windowed time average of transform(path) over [-T, T].

    The window mean is computed per window by composite Gauss quadrature dense
    enough for the path's highest frequency; the estimate is the mean of the
    window means and stderr their standard error.  For a quasi-periodic path
    the bias decays like 1/T while stderr decays like T^{-1/2} by construction.
    """
    edges, panels, order = _quad_nodes(T, window_len, path.max_frequency)
    W = len(edges) - 1
    means = np.empty(W)
    for k in range(W):
        nodes, weights = panel_quadrature(edges[k], edges[k + 1], panels, order)
        vals = np.asarray(path(nodes), dtype=float)
        if transform is not None:
            vals = transform(vals)
        means[k] = fsum(weights * vals) / (edges[k + 1] - edges[k])
    value = fsum(means) / W
    stderr = float(np.std(means, ddof=1) / math.sqrt(W)) if W > 1 else 0.0
    return BracketEstimate(value=value, stderr=stderr, window_T=T, n_windows=W)


def estimate_brackets(q_path: StationaryPath, T: float,
                      r_path: StationaryPath | None = None,
                      window_len: float = 25.0) -> ErgodicStats:
    """All path averages needed downstream, from one shared sample set.

    Sharing quadrature nodes between the q, q^2 and 1/q^2 estimates makes the
    discrete Jensen and Cauchy-Schwarz inequalities hold exactly, so the
    ErgodicStats invariants cannot trip on quadrature noise.
    """
    edges, panels, order = _quad_nodes(T, window_len, q_path.max_frequency)
    W = len(edges) - 1
    m_q = np.empty(W)
    m_q2 = np.empty(W)
    m_iq2 = np.empty(W)
    m_r = np.zeros(W)
    for k in range(W):
        nodes, weights = panel_quadrature(edges[k], edges[k + 1], panels, order)
        L = edges[k + 1] - edges[k]
        q = np.asarray(q_path(nodes), dtype=float)
        m_q[k] = fsum(weights * q) / L
        m_q2[k] = fsum(weights * q * q) / L
        m_iq2[k] = fsum(weights / (q * q)) / L
        if r_path is not None:
            r = np.asarray(r_path(nodes), dtype=float)
            m_r[k] = fsum(weights * r) / L
    sq = math.sqrt(W)
    stderr = max(float(np.std(a, ddof=1)) / sq for a in (m_q, m_q2, m_iq2))
    return ErgodicStats(
        mean_q=fsum(m_q) / W,
        mean_q2=fsum(m_q2) / W,
        mean_inv_q2=fsum(m_iq2) / W,
        mean_r=fsum(m_r) / W,
        window_T=T,
        stderr=stderr,
    )


def constant_stats(q0: float, r0: float = 0.0) -> ErgodicStats:
    """Exact stats for constant paths (no quadrature)."""
    return ErgodicStats(mean_q=q0, mean_q2=q0 * q0, mean_inv_q2=1.0 / (q0 * q0),
                        mean_r=r0, window_T=math.inf, stderr=0.0)
