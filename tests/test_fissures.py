"""Tests for fissure geometry, enumeration, and measure quadrature.

The tube-union integrals here are taken by the per-tube reference
`volume_integral_per_tube`; the sweeps' line sums are checked against it
in test_verify.py."""

import math
import os
import platform
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (depth_quadrature, enumerate_per_tube,
                      volume_integral_per_tube)
from fisshom.fissures import (
    Fissure,
    GeometryParams,
    HalfPaths,
    certified_offsets,
    enumerate_fissures,
    fissure_census,
    surface_integral,
)
from fisshom import verify
from fisshom.stochastic import PhaseSequence, ProcessParams, build_path

Q_PARAMS = ProcessParams(kind="aperture_q", mean=0.5, amplitudes=(0.08, 0.05),
                         frequencies=(1.0, math.sqrt(2.0)), seed=7,
                         lower_bound=0.3, upper_bound=0.7, deriv_bound=0.25)
R_PARAMS = ProcessParams(kind="centerline_r", mean=0.0, amplitudes=(0.05,),
                         frequencies=(0.618,))


def make_field(eps=0.25, theta=0.5, seed=21, height=1.0):
    geo = GeometryParams(epsilon=eps, theta=theta, height=height)
    q = build_path(Q_PARAMS)
    r = build_path(R_PARAMS)
    ph = PhaseSequence(bound=0.3, seed=seed)
    return geo, q, r, ph


def constant_fissure(eps=0.0625, theta=0.5, q0=0.5, r0=0.0, height=1.0):
    geo = GeometryParams(epsilon=eps, theta=theta, height=height)
    q = build_path(ProcessParams(kind="constant", mean=q0))
    r = build_path(ProcessParams(kind="constant", mean=r0))
    hp = HalfPaths(q, r, 0.0, 0.0)
    return Fissure(i=1, j=2, geometry=geo, line_x1=hp, line_x2=hp)


def test_geometry_validation():
    with pytest.raises(ValueError, match="theta"):
        GeometryParams(epsilon=0.1, theta=0.7, height=1.0)
    with pytest.raises(ValueError, match="theta"):
        GeometryParams(epsilon=0.1, theta=0.0, height=1.0)
    with pytest.raises(ValueError, match="epsilon"):
        GeometryParams(epsilon=1.5, theta=0.5, height=1.0)
    with pytest.raises(ValueError, match="height"):
        GeometryParams(epsilon=0.1, theta=0.5, height=math.nan)
    with pytest.raises(ValueError, match="x1_extent"):
        GeometryParams(epsilon=0.1, theta=0.5, height=1.0,
                       x1_extent=(0.0, math.nan))
    GeometryParams(epsilon=0.1, theta=0.65, height=1.0)


@pytest.mark.parametrize("axis", ["x1_extent", "x2_extent"])
@pytest.mark.parametrize("extent", [(0.0, math.inf), (-math.inf, 1.0),
                                    (1.0, 0.0), (0.5, 0.5)],
                         ids=["inf", "minus_inf", "reversed", "equal"])
def test_bad_extent_is_rejected_by_name(axis, extent):
    with pytest.raises(ValueError, match=axis):
        GeometryParams(epsilon=0.1, theta=0.5, height=1.0,
                       **{axis: extent})


def test_enumeration_matches_brute_force():
    geo, q, r, ph = make_field(eps=0.25)
    fissures = enumerate_fissures(geo, q, r, ph)
    a_lo, a_hi = certified_offsets(q, r)
    expected = []
    for i in range(-8, 16):
        for j in range(-8, 16):
            ok = (i * 0.25 + 0.25 * a_lo >= 0.0 - 1e-12
                  and i * 0.25 + 0.25 * a_hi <= 1.0 + 1e-12
                  and j * 0.25 + 0.25 * a_lo >= 0.0 - 1e-12
                  and j * 0.25 + 0.25 * a_hi <= 1.0 + 1e-12)
            if ok:
                expected.append((i, j))
    got = [(f.i, f.j) for f in fissures]
    assert got == expected
    assert len(got) == 9


def test_enumeration_rejects_overlapping_regime():
    geo = GeometryParams(epsilon=0.25, theta=0.5, height=1.0)
    wide_q = build_path(ProcessParams(kind="aperture_q", mean=0.9,
                                      amplitudes=(), frequencies=(),
                                      lower_bound=0.85, upper_bound=0.95))
    r = build_path(R_PARAMS)
    with pytest.raises(ValueError, match="overlap"):
        enumerate_fissures(geo, wide_q, r, PhaseSequence(bound=0.3, seed=1))


@settings(max_examples=20, deadline=None)
@given(eps_inv=st.integers(min_value=3, max_value=40),
       seed=st.integers(min_value=0, max_value=10**6))
def test_enumerated_fissures_always_contained(eps_inv, seed):
    geo, q, r, ph = make_field(eps=1.0 / eps_inv, seed=seed)
    fissures = enumerate_fissures(geo, q, r, ph)
    assert fissures, "unit extent should always hold at least one fissure"
    for f in fissures[:: max(1, len(fissures) // 5)]:
        for x3 in (-1.0 + 1e-9, -0.61803, -0.1, -1e-9):
            s = geo.stretched_depth(x3)
            for axis, base in ((0, f.i * geo.epsilon), (1, f.j * geo.epsilon)):
                hp = f.line(axis)
                lo = base + geo.epsilon * hp.minus(s)
                hi = base + geo.epsilon * hp.plus(s)
                assert 0.0 - 1e-10 <= lo < hi <= 1.0 + 1e-10


def test_aperture_width_within_process_bounds():
    geo, q, r, ph = make_field(eps=0.125)
    f = enumerate_fissures(geo, q, r, ph)[0]
    s = np.linspace(0.0, 8.0, 500)
    hp = f.line(0)
    lo, hi = hp.minus(s), hp.plus(s)
    width = hi - lo
    assert np.all(width >= 0.3 - 1e-12)
    assert np.all(width <= 0.7 + 1e-12)


def _field_cases():
    """Unequal x1/x2 extents, disjoint ones, and the unit square that the
    pipeline's sweeps and fissure stage enumerate."""
    _, q, r, ph = make_field()
    unequal = GeometryParams(epsilon=0.125, theta=0.5, height=1.0,
                             x1_extent=(0.0, 1.5), x2_extent=(0.25, 1.0))
    disjoint = GeometryParams(epsilon=0.1, theta=0.5, height=1.0,
                              x1_extent=(-2.0, -1.0), x2_extent=(0.5, 1.7))
    q_fast = build_path(verify.APERTURE_FAST)
    r_fast = build_path(verify.CENTERLINE_DEFAULT)
    unit = GeometryParams(epsilon=1 / 16, theta=0.5, height=1.0)
    return [(unequal, q, r, ph), (disjoint, q, r, ph),
            (unit, q_fast, r_fast, PhaseSequence(bound=0.3, seed=13))]


FIELD_CASES = _field_cases()
FIELD_IDS = ["unequal", "disjoint", "pipeline"]


@pytest.mark.parametrize("case", FIELD_CASES, ids=FIELD_IDS)
def test_field_matches_per_tube_enumeration(case):
    field = enumerate_fissures(*case)
    reference = enumerate_per_tube(*case)
    assert len(field) == len(reference) > 0
    for got, ref in zip(field, reference):
        assert (got.i, got.j) == (ref.i, ref.j)
        assert got.geometry is ref.geometry
        for axis in (0, 1):
            hp, hp_ref = got.line(axis), ref.line(axis)
            assert (hp.alpha, hp.beta) == (hp_ref.alpha, hp_ref.beta)
            assert hp.q.base is hp_ref.q.base and hp.r.base is hp_ref.r.base
    assert fissure_census(field).tobytes() \
        == fissure_census(reference).tobytes()
    # a list's indexing and slicing, by view
    for k in (0, 7, -1, -len(field)):
        assert (field[k].i, field[k].j) == (reference[k].i, reference[k].j)
    for key in (slice(3, 11), slice(None, None, 4), slice(-5, None)):
        assert [(f.i, f.j) for f in field[key]] \
            == [(f.i, f.j) for f in reference[key]]
    with pytest.raises(IndexError):
        field[len(field)]


@pytest.mark.parametrize("case", FIELD_CASES, ids=FIELD_IDS)
def test_enumeration_draws_each_line_once(case, monkeypatch):
    drawn = []
    draw = PhaseSequence._draw

    def counting(self, tag, i):
        drawn.append(np.size(i))
        return draw(self, tag, i)

    monkeypatch.setattr(PhaseSequence, "_draw", counting)
    field = enumerate_fissures(*case)
    n1 = len({f.i for f in field})
    n2 = len({f.j for f in field})
    # alpha and beta once per index of each axis, however many tubes
    assert sum(drawn) == 2 * (n1 + n2)
    lines = {id(f.line(axis)) for f in field for axis in (0, 1)}
    assert len(lines) == len({f.i for f in field} | {f.j for f in field})


@pytest.mark.parametrize("case", FIELD_CASES, ids=FIELD_IDS)
def test_sample_lines_match_per_line_evaluation(case):
    # one path call per axis gives each line the samples of its own call
    geometry, q, r, phases = case
    field = enumerate_fissures(*case)
    eps = geometry.epsilon
    x3, w_ref = depth_quadrature(enumerate_per_tube(*case), 4.0)
    s = geometry.stretched_depth(x3)
    w, *axes = field.sample_lines(4.0)
    assert w.tobytes() == w_ref.tobytes()
    for (q_got, c_got), indices in zip(axes, (field.rows, field.cols)):
        lines = [HalfPaths(q, r, float(phases.alpha(n)), float(phases.beta(n)))
                 for n in indices]
        q_ref = np.array([hp.width(s) for hp in lines])
        c_ref = np.array([eps * n + eps * hp.r(s)
                          for n, hp in zip(indices, lines)])
        assert q_got.tobytes() == q_ref.tobytes()
        assert c_got.tobytes() == c_ref.tobytes()


_KERNEL_PROBE = """
import hashlib, sys
import numpy as np
sys.path[:0] = sys.argv[1:]
import test_fissures as tf
from fisshom.fissures import enumerate_fissures
h = hashlib.sha256()
geometry, q, r, phases = tf.FIELD_CASES[2]
t = np.linspace(-40.0, 40.0, 3000).reshape(3, 1000)
for order in (1, 2, 3):
    h.update(q.derivative(t, order).tobytes())
h.update(q(t).tobytes() + r(t).tobytes())
w, (q1, c1), (q2, c2) = enumerate_fissures(
    geometry, q, r, phases).sample_lines(6.0)
for a in (w, q1, c1, q2, c2):
    h.update(a.tobytes())
print(h.hexdigest())
"""


# CPU flags each forced OpenBLAS core type needs: forcing a kernel the host
# cannot run kills the child with SIGILL at numpy's import
_CORE_FLAGS = {"Haswell": {"avx2", "fma"}, "Nehalem": {"ssse3", "sse4_2"},
               "Prescott": {"pni"}}


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core types are x86-64 names")
def test_path_values_do_not_depend_on_the_blas_kernel():
    # OPENBLAS_CORETYPE picks OpenBLAS's kernels for the child alone; the
    # path values must come out the same, byte for byte, under each
    flags = _cpu_flags()
    cores = [c for c, need in _CORE_FLAGS.items() if need <= flags]
    if not cores:
        pytest.skip("the host CPU runs none of the forced core types")
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    digests = {}
    for core in [None, *cores]:
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_CORETYPE"}
        env["OPENBLAS_NUM_THREADS"] = "1"
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        proc = subprocess.run(
            [sys.executable, "-c", _KERNEL_PROBE, here, src], env=env,
            capture_output=True, text=True, timeout=120, check=True)
        digests[core] = proc.stdout.strip()
    assert len(set(digests.values())) == 1, digests


def test_census_is_deterministic():
    geo, q, r, ph = make_field(eps=0.2)
    a = fissure_census(enumerate_fissures(geo, q, r, ph))
    b = fissure_census(enumerate_fissures(geo, q, r, ph))
    assert np.array_equal(a, b)
    assert a.dtype.names == ("i", "j", "alpha_i", "alpha_j", "beta_i",
                             "beta_j", "q_i_mid", "q_j_mid")


def test_volume_integral_single_fissure_cross_check():
    geo, q, r, ph = make_field(eps=0.125, theta=0.5)
    f = enumerate_fissures(geo, q, r, ph)[0]

    val = volume_integral_per_tube([f], lambda x1, x2, x3: np.ones_like(x1))
    x3 = np.linspace(-1.0, 0.0, 40001)
    s = geo.stretched_depth(x3)
    dense = np.trapezoid(f.line_x1.width(s) * f.line_x2.width(s), x3)
    assert val == pytest.approx(geo.epsilon**2 * dense, rel=1e-9)

    val_x1 = volume_integral_per_tube([f], lambda x1, x2, x3: x1)
    mid = f.i * geo.epsilon + geo.epsilon * 0.5 * (f.line_x1.plus(s)
                                                   + f.line_x1.minus(s))
    dense_x1 = np.trapezoid(
        mid * f.line_x1.width(s) * f.line_x2.width(s), x3)
    assert val_x1 == pytest.approx(geo.epsilon**2 * dense_x1, rel=1e-9)


def test_volume_integral_scales_with_epsilon_squared():
    vals = {}
    for eps in (0.25, 0.125):
        geo, q, r, ph = make_field(eps=eps, seed=9)
        fs = enumerate_fissures(geo, q, r, ph)
        vals[eps] = volume_integral_per_tube(
            fs, lambda x1, x2, x3: np.ones_like(x1)) / len(fs)
    assert vals[0.25] / vals[0.125] == pytest.approx(4.0, rel=0.2)


def test_wall_vanishing_field_poincare_ratio():
    geo, q, r, ph = make_field(eps=0.0625)
    fs = enumerate_fissures(geo, q, r, ph)[:3]

    def u_and_du(x1, x2, x3, f):
        s = geo.stretched_depth(x3)
        lo = f.i * geo.epsilon + geo.epsilon * f.line_x1.minus(s)
        w = geo.epsilon * f.line_x1.width(s)
        u = np.sin(math.pi * (x1 - lo) / w)
        du = (math.pi / w) * np.cos(math.pi * (x1 - lo) / w)
        return u, du

    for f in fs:
        num = volume_integral_per_tube(
            [f], lambda x1, x2, x3: u_and_du(x1, x2, x3, f)[0] ** 2)
        den = volume_integral_per_tube(
            [f], lambda x1, x2, x3: u_and_du(x1, x2, x3, f)[1] ** 2)
        ratio = num / den
        bound = geo.epsilon**2 * 0.7**2 / math.pi**2
        assert ratio <= bound * 1.01


def test_volume_integral_of_x2_dependent_functions():
    # constant tubes have square cross-sections of side 2a = eps q0 around
    # their lattice nodes, where the 2x2 Gauss rule is exact for these
    # polynomials
    eps, q0, height = 0.0625, 0.5, 1.0
    a = 0.5 * eps * q0
    tubes = [constant_fissure(), replace(constant_fissure(), i=3, j=5)]
    cases = [(lambda x1, x2, x3: x2 ** 2,
              lambda c1, c2: 2 * a * (2 * a * c2 ** 2 + 2 * a ** 3 / 3)),
             (lambda x1, x2, x3: x1 * x2,
              lambda c1, c2: (2 * a * c1) * (2 * a * c2))]
    for phi, exact in cases:
        ref = sum(height * exact(f.i * eps, f.j * eps) for f in tubes)
        assert volume_integral_per_tube(tubes, phi) \
            == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_surface_integral_reference_values():
    geo = GeometryParams(epsilon=0.1, theta=0.5, height=1.0,
                         x1_extent=(0.0, 2.0), x2_extent=(0.0, 1.0))
    assert surface_integral(geo, lambda x1, x2, x3: np.ones_like(x1)) \
        == pytest.approx(2.0, rel=1e-13)
    assert surface_integral(geo, lambda x1, x2, x3: x1 * x2) \
        == pytest.approx(1.0, rel=1e-12)
