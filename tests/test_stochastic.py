"""Tests for random coefficient paths and ergodic averaging.

Closed-form references used here (and only here):
  two-mode cosine path, mean m, amplitudes A_k:  <q>   = m
                                                 <q^2> = m^2 + sum A_k^2 / 2
  single-mode path, mean m, amplitude A:         <1/q>   = 1/sqrt(m^2 - A^2)
                                                 <1/q^2> = m/(m^2 - A^2)^{3/2}
  two-mode (0.5, [0.08, 0.05]) torus-quadrature values, frozen:
    <1/q^2> = 4.2278806107223845, <1/q> = 2.0370003042744957
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import fourier_series_gemv, window_means_per_window
from fisshom.stochastic import (
    WINDOW_LEN,
    ConstantPath,
    ErgodicStats,
    PhaseSequence,
    ProcessParams,
    build_path,
    constant_stats,
    estimate_brackets,
    window_means,
)

TWO_MODE = ProcessParams(
    kind="aperture_q", mean=0.5, amplitudes=(0.08, 0.05),
    frequencies=(1.0, math.sqrt(2.0)), seed=7,
    lower_bound=0.3, upper_bound=0.7, deriv_bound=0.25)

SINGLE_MODE = ProcessParams(
    kind="aperture_q", mean=0.5, amplitudes=(0.1,), frequencies=(1.3,),
    seed=3, lower_bound=0.35, upper_bound=0.65, deriv_bound=0.3)

SHOT_NOISE = ProcessParams(
    kind="shot_noise", mean=0.45, amplitudes=(0.05,), seed=5,
    lower_bound=0.3, upper_bound=0.7)

TWO_MODE_INV_Q2 = 4.2278806107223845
TWO_MODE_INV_Q = 2.0370003042744957


def test_params_validation_rejects_bad_aperture_bounds():
    with pytest.raises(ValueError, match="lower bound"):
        build_path(ProcessParams(kind="aperture_q", mean=0.5, amplitudes=(0.3,),
                                 frequencies=(1.0,), lower_bound=0.3,
                                 upper_bound=0.9))
    with pytest.raises(ValueError, match="upper bound"):
        build_path(ProcessParams(kind="aperture_q", mean=0.8, amplitudes=(0.1,),
                                 frequencies=(1.0,), lower_bound=0.3,
                                 upper_bound=1.0))


def test_params_validation_rejects_bad_derivative_bound():
    with pytest.raises(ValueError, match="derivative bound"):
        build_path(ProcessParams(kind="aperture_q", mean=0.5, amplitudes=(0.1,),
                                 frequencies=(3.0,), lower_bound=0.3,
                                 upper_bound=0.7, deriv_bound=0.2))
    # a NaN bound must not skip the check
    with pytest.raises(ValueError, match="derivative bound"):
        build_path(ProcessParams(kind="aperture_q", mean=0.5, amplitudes=(0.1,),
                                 frequencies=(3.0,), lower_bound=0.3,
                                 upper_bound=0.7, deriv_bound=math.nan))


def test_params_validation_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="equal length"):
        ProcessParams(kind="aperture_q", mean=0.5, amplitudes=(0.1, 0.2),
                      frequencies=(1.0,))
    # a NaN frequency is rejected for every kind
    for kind in ("aperture_q", "centerline_r", "constant", "shot_noise"):
        with pytest.raises(ValueError, match="frequencies"):
            build_path(ProcessParams(kind=kind, mean=0.5, amplitudes=(0.1,),
                                     frequencies=(math.nan,), lower_bound=0.3,
                                     upper_bound=0.7))


def test_centerline_range_check():
    with pytest.raises(ValueError, match="within"):
        build_path(ProcessParams(kind="centerline_r", mean=0.9,
                                 amplitudes=(0.2,), frequencies=(1.0,)))
    with pytest.raises(ValueError, match="mean"):
        build_path(ProcessParams(kind="centerline_r", mean=math.nan,
                                 amplitudes=(0.05,), frequencies=(0.618,)))
    with pytest.raises(ValueError, match="amplitudes"):
        build_path(ProcessParams(kind="centerline_r", mean=0.0,
                                 amplitudes=(math.nan,), frequencies=(0.618,)))
    # fine at the boundary
    build_path(ProcessParams(kind="centerline_r", mean=0.0, amplitudes=(0.05,),
                             frequencies=(0.618,)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**48),
       offset=st.floats(min_value=-100.0, max_value=100.0,
                        allow_nan=False, allow_infinity=False))
def test_path_respects_certified_bounds(seed, offset):
    params = ProcessParams(kind="aperture_q", mean=0.5, amplitudes=(0.08, 0.05),
                           frequencies=(1.0, math.sqrt(2.0)), seed=seed,
                           lower_bound=0.3, upper_bound=0.7, deriv_bound=0.25)
    path = build_path(params).shifted(offset)
    t = np.linspace(-40.0, 40.0, 2000)
    vals = path(t)
    lo, hi = path.range_bounds()
    assert vals.min() >= lo - 1e-12
    assert vals.max() <= hi + 1e-12
    assert lo >= params.lower_bound
    assert hi <= params.upper_bound
    for order in (1, 2, 3):
        d = path.derivative(t, order)
        assert np.max(np.abs(d)) <= path.derivative_bound(order) + 1e-9
        assert path.derivative_bound(order) <= params.deriv_bound + 1e-12


def test_derivatives_match_finite_differences():
    path = build_path(TWO_MODE)
    t = np.linspace(-3.0, 3.0, 11)
    eps = 1e-6
    fd1 = (path(t + eps) - path(t - eps)) / (2 * eps)
    assert np.allclose(path.derivative(t, 1), fd1, atol=1e-7)
    fd2 = (path(t + eps) - 2 * path(t) + path(t - eps)) / eps**2
    assert np.allclose(path.derivative(t, 2), fd2, atol=1e-3)


def test_constant_path_brackets_are_exact():
    with pytest.raises(ValueError, match="mean"):
        build_path(ProcessParams(kind="constant", mean=math.nan))
    est = estimate_brackets(
        ConstantPath(ProcessParams(kind="constant", mean=0.37)), T=200.0)
    assert est.mean_q == pytest.approx(0.37, rel=1e-14)
    assert est.mean_q2 == pytest.approx(0.37 ** 2, rel=1e-14)
    stats = constant_stats(0.4)
    assert stats.mean_q2 == pytest.approx(0.16, rel=1e-15)
    assert stats.mean_inv_q2 == pytest.approx(6.25, rel=1e-15)
    assert stats.stderr == 0.0


def test_two_mode_brackets_match_closed_forms():
    q = build_path(TWO_MODE)
    stats = estimate_brackets(q, T=1.0e4)
    assert stats.mean_q == pytest.approx(0.5, abs=3e-4)
    assert stats.mean_q2 == pytest.approx(0.25445, abs=3e-4)
    assert stats.mean_inv_q2 == pytest.approx(TWO_MODE_INV_Q2, abs=5e-3)
    inv_q, = window_means(1.0e4, WINDOW_LEN, q.max_frequency,
                          lambda nodes, weights: (weights / q(nodes),))
    assert np.mean(inv_q) == pytest.approx(TWO_MODE_INV_Q, abs=2e-3)


def test_single_mode_brackets_match_closed_forms():
    q = build_path(SINGLE_MODE)
    m, A = 0.5, 0.1
    stats = estimate_brackets(q, T=1.0e4)
    assert stats.mean_q2 == pytest.approx(m * m + A * A / 2, abs=3e-4)
    assert stats.mean_inv_q2 == pytest.approx(m / (m * m - A * A)**1.5, abs=5e-3)


def test_time_average_error_decays_like_one_over_T():
    q = build_path(TWO_MODE)
    exact = 0.25445
    errs_T = []
    for T in (1.0e2, 1.0e3, 1.0e4):
        est = estimate_brackets(q, T=T)
        errs_T.append(abs(est.mean_q2 - exact) * T)
    # err * T stays bounded; allow slack for oscillation of the remainder
    assert max(errs_T) < 50.0 * (min(errs_T) + 1e-3)
    assert abs(errs_T[-1]) / 1.0e4 < 1e-4


def test_stderr_scales_like_inverse_sqrt_T():
    q = build_path(TWO_MODE)
    Ts = np.array([1.0e2, 1.0e3, 1.0e4])
    errs = []
    for T in Ts:
        means, = window_means(
            T, WINDOW_LEN, q.max_frequency,
            lambda nodes, weights: (weights * q(nodes) ** 2,))
        errs.append(np.std(means, ddof=1) / math.sqrt(len(means)))
    slope = np.polyfit(np.log(Ts), np.log(errs), 1)[0]
    assert -0.65 <= slope <= -0.35


def test_shift_invariance_of_brackets():
    q = build_path(TWO_MODE)
    base = estimate_brackets(q, T=4000.0)
    moved = estimate_brackets(q.shifted(17.3), T=4000.0)
    assert moved.mean_q2 == pytest.approx(base.mean_q2, abs=2e-3)
    assert moved.mean_inv_q2 == pytest.approx(base.mean_inv_q2, abs=2e-2)


def test_ergodic_stats_invariants_guard_against_bugs():
    with pytest.raises(ValueError, match="mean square"):
        ErgodicStats(mean_q=0.5, mean_q2=0.2, mean_inv_q2=5.0, mean_r=0.0,
                     window_T=1.0, stderr=0.0)
    with pytest.raises(ValueError, match="Cauchy"):
        ErgodicStats(mean_q=0.5, mean_q2=0.26, mean_inv_q2=1.0, mean_r=0.0,
                     window_T=1.0, stderr=0.0)
    # NaN compares False with every bound, so each check must fail closed
    for field, message in (("mean_q", "mean_q=nan"),
                           ("mean_q2", "mean_q2=nan"),
                           ("mean_inv_q2", "mean_inv_q2=nan")):
        good = dict(mean_q=0.5, mean_q2=0.26, mean_inv_q2=4.0)
        with pytest.raises(ValueError, match=message):
            ErgodicStats(**{**good, field: math.nan}, mean_r=0.0,
                         window_T=1.0, stderr=0.0)


def test_phase_sequence_deterministic_and_bounded():
    ph = PhaseSequence(bound=0.3, seed=42)
    a_repeat = [ph.alpha(i) for i in range(-5, 5)]
    assert a_repeat == [ph.alpha(i) for i in range(-5, 5)]
    al, be = ph.window(-5, 5)
    assert np.allclose(al, a_repeat, atol=0.0)
    assert np.max(np.abs(al)) <= 0.3
    assert np.max(np.abs(be)) <= 0.3
    # alpha and beta streams differ, different seeds differ
    assert not np.allclose(al, be)
    other = PhaseSequence(bound=0.3, seed=43).window(-5, 5)[0]
    assert not np.allclose(al, other)
    for bound in (-0.1, math.nan):
        with pytest.raises(ValueError, match="phase bound"):
            PhaseSequence(bound=bound, seed=42)


def test_phase_bound_must_be_finite():
    with pytest.raises(ValueError, match="phase bound must be finite"):
        PhaseSequence(bound=math.inf, seed=42)


def test_phase_sequence_statistics_roughly_uniform():
    ph = PhaseSequence(bound=0.5, seed=11)
    al, _ = ph.window(0, 4000)
    assert abs(np.mean(al)) < 0.02
    assert np.var(al) == pytest.approx(0.25 / 3.0, rel=0.1)


def test_shot_noise_path_certified_bounds_and_smoothness():
    params = ProcessParams(kind="shot_noise", mean=0.45, amplitudes=(0.05,),
                           seed=5, lower_bound=0.3, upper_bound=0.7,
                           bump_spacing=1.0, bump_width=0.35)
    path = build_path(params)
    t = np.linspace(-60.0, 60.0, 12000)
    vals = path(t)
    lo, hi = path.range_bounds()
    assert vals.min() >= lo - 1e-12 and vals.max() <= hi + 1e-12
    assert hi <= 0.7
    d1 = path.derivative(t, 1)
    assert np.max(np.abs(d1)) <= path.derivative_bound(1) + 1e-9
    fd = (path(t[1:]) - path(t[:-1])) / (t[1] - t[0])
    assert np.max(np.abs(fd - 0.5 * (d1[1:] + d1[:-1]))) < 1e-3


def test_shot_noise_path_takes_arrays_of_any_shape():
    path = build_path(SHOT_NOISE)
    t = np.linspace(-7.0, 9.0, 12).reshape(3, 4)
    for order in (0, 1, 2, 3):
        f = path if order == 0 else lambda x: path.derivative(x, order)
        got = f(t)
        assert got.shape == (3, 4)
        assert got.tobytes() == f(t.ravel()).tobytes()
    assert isinstance(path(1.5), float)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_fourier_path_is_batch_invariant(order):
    # the modes are summed point by point in a fixed order, so a point's
    # value does not depend on the batch it is evaluated in
    path = build_path(TWO_MODE)
    t = np.random.default_rng(5).uniform(-60.0, 60.0, (7, 41))
    f = path if order == 0 else lambda x: path.derivative(x, order)
    flat = f(t.ravel())
    assert f(t).tobytes() == flat.reshape(t.shape).tobytes()
    scalars = [f(x) for x in t.ravel().tolist()]
    assert all(type(v) is float for v in scalars)
    assert np.array(scalars).tobytes() == flat.tobytes()
    # and it is the matrix-vector form up to rounding
    assert np.max(np.abs(f(t) - fourier_series_gemv(path, t, order))) \
        <= 1e-15


def test_shot_noise_time_average_stabilizes():
    params = ProcessParams(kind="shot_noise", mean=0.45, amplitudes=(0.05,),
                           seed=5, lower_bound=0.3, upper_bound=0.7)
    path = build_path(params)
    a = estimate_brackets(path, T=500.0)
    b = estimate_brackets(path, T=4000.0)
    assert abs(a.mean_q - b.mean_q) < 5e-3
    assert b.stderr < a.stderr


def test_bracket_estimate_fields():
    q = build_path(TWO_MODE)
    est = estimate_brackets(q, T=100.0)
    assert est.window_T == 100.0
    assert est.stderr > 0.0
    means, = window_means(100.0, WINDOW_LEN, q.max_frequency,
                          lambda nodes, weights: (weights * q(nodes),))
    assert len(means) >= 4


@pytest.mark.parametrize("params", [TWO_MODE, SHOT_NOISE,
                                    ProcessParams(kind="constant", mean=0.37)],
                         ids=["fourier", "shot_noise", "constant"])
@pytest.mark.parametrize("T", [100.0, 2.0e3, 2.0e4])
def test_window_means_match_the_per_window_loop(params, T):
    # all windows are sampled in one callback call (in several blocks at
    # T = 2e4), and the means must not change by a bit
    q = build_path(params)
    r = q.shifted(17.3)

    def weighted(nodes, weights):
        qq = q(nodes) * r(nodes)
        return weights * qq, weights / qq, weights * q(nodes)

    fast = window_means(T, WINDOW_LEN, q.max_frequency, weighted)
    slow = window_means_per_window(T, WINDOW_LEN, q.max_frequency, weighted)
    assert len(fast) == len(slow) == 3
    for got, ref in zip(fast, slow):
        assert np.array_equal(got, ref)
