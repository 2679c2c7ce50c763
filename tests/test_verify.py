"""Convergence-sweep harness checks.

The expensive acceptance ladders run elsewhere; these tests exercise the
sweep machinery on short ladders and pin the cases with exact answers (the
constant-aperture geometry, where the only finite-scale error is the
uncovered boundary ring)."""

import math
from dataclasses import replace

import numpy as np
import pytest

from _oracles import pair_averages_per_tube, volume_integral_per_tube
from fisshom.fissures import (Fissure, GeometryParams, HalfPaths,
                              enumerate_fissures)
from fisshom.stochastic import PhaseSequence, ProcessParams, build_path
from fisshom import verify
from test_fissures import FIELD_CASES, FIELD_IDS


CONST_Q = ProcessParams(kind="constant", mean=0.5)
CONST_R = ProcessParams(kind="constant", mean=0.0)


def ring_deficit(eps: float) -> float:
    """Relative mass of the uncovered boundary ring of the tube lattice."""
    return 1.0 - (1.0 - eps) ** 2


def test_run_sweep_dispatches_and_rejects_unknown():
    direct = verify.measure_limit_sweep(eps_values=(1 / 8,), n_realizations=2)
    via = verify.run_sweep("measure", eps_values=(1 / 8,), n_realizations=2)
    assert via.medians == direct.medians
    with pytest.raises(ValueError, match="unknown sweep"):
        verify.run_sweep("nonsense")


def test_measure_sweep_decreasing_with_expected_counts():
    s = verify.measure_limit_sweep(eps_values=(1 / 8, 1 / 16),
                                   n_realizations=4)
    for key in ("rel_err_const", "rel_err_linear"):
        assert s.strictly_decreasing(key)
        assert s.final_median(key) < 0.25
    counts = {row["eps"]: row["n_fissures"] for row in s.rows}
    assert counts[1 / 8] == 7 * 7
    assert counts[1 / 16] == 15 * 15


def test_measure_constant_geometry_is_pure_ring_deficit():
    s = verify.measure_limit_sweep(eps_values=(1 / 8, 1 / 16, 1 / 32,
                                               1 / 64, 1 / 128, 1 / 256),
                                   n_realizations=1,
                                   params_q=CONST_Q, params_r=CONST_R)
    for k, eps in enumerate(s.eps_values):
        for key in ("rel_err_const", "rel_err_linear"):
            assert s.medians[key][k] == pytest.approx(ring_deficit(eps),
                                                      abs=1e-12)


def test_energy_sweep_total_decreasing():
    s = verify.energy_density_sweep(eps_values=(1 / 8, 1 / 16, 1 / 32),
                                    n_realizations=6)
    assert s.strictly_decreasing("rel_err_total")
    assert s.final_median("rel_err_total") < 0.12
    for row in s.rows:
        assert row["energy_tangential"] > 0.0
        assert row["energy_vertical"] > 0.0
        assert row["energy_slip"] > 0.0


def test_energy_constant_vertical_collapses_to_ring():
    # Constant aperture and a purely vertical field: the bracket factors
    # cancel and the limit is mu h V^2 |Sigma| / k0, so the whole error is
    # the uncovered ring.
    s = verify.energy_density_sweep(eps_values=(1 / 8, 1 / 16, 1 / 32,
                                                1 / 64, 1 / 128, 1 / 256),
                                    n_realizations=1,
                                    test_field=(0.0, 0.0, 0.9),
                                    params_q=CONST_Q, params_r=CONST_R)
    for k, eps in enumerate(s.eps_values):
        assert s.medians["rel_err_total"][k] == pytest.approx(
            ring_deficit(eps), abs=1e-12)
    for row in s.rows:
        assert row["energy_tangential"] == 0.0
        assert row["energy_slip"] == 0.0


def test_profile_sweep_all_four_decreasing():
    s = verify.limit_profile_sweep(eps_values=(1e-1, 1e-2),
                                   n_realizations=5)
    for key in s.metric_names:
        assert s.strictly_decreasing(key)
        assert s.final_median(key) < 0.06
    assert set(s.metric_names) == {"err_w", "err_z", "err_w_flux",
                                   "err_z_flux"}


def test_profile_constant_gap_machine_small():
    assert verify.limit_profile_constant_gap() < 1e-10


def test_exchange_sweep_decreasing():
    s = verify.flux_exchange_sweep(eps_values=(1e-1, 1e-2),
                                   n_realizations=5)
    for key in ("rel_err_top", "rel_err_bottom"):
        assert s.strictly_decreasing(key)
        assert s.final_median(key) < 0.06


def test_exchange_constant_gap_machine_small():
    assert verify.flux_exchange_constant_gap() < 1e-10


def test_sweeps_are_deterministic_in_seed():
    a = verify.flux_exchange_sweep(eps_values=(1e-1,), n_realizations=3,
                                   seed=5)
    b = verify.flux_exchange_sweep(eps_values=(1e-1,), n_realizations=3,
                                   seed=5)
    c = verify.flux_exchange_sweep(eps_values=(1e-1,), n_realizations=3,
                                   seed=6)
    assert a.medians == b.medians
    assert a.medians != c.medians


def test_summary_slope_and_helpers():
    s = verify.measure_limit_sweep(eps_values=(1 / 8, 1 / 16),
                                   n_realizations=3)
    # The ring deficit scales like 2 eps, so the fitted rate is near one.
    assert 0.4 < s.slope("rel_err_const") < 1.8
    assert s.final_median("rel_err_const") == s.medians["rel_err_const"][-1]
    assert s.n_realizations == 3
    vals = [r["rel_err_const"] for r in s.rows if r["eps"] == 1 / 16]
    assert s.medians["rel_err_const"][1] == pytest.approx(np.median(vals))


# ---------------------------------------------------------------------------
# line sums of the measure and energy sweeps against their per-tube
# references

TEST_FUNCTIONS = (
    lambda x1, x2, x3: np.ones_like(x1),
    lambda x1, x2, x3: x1,
)


def _enumerated(eps, x1_extent=(0.0, 1.5), x2_extent=(0.25, 1.0)):
    geo = GeometryParams(epsilon=eps, theta=0.5, height=1.0,
                         x1_extent=x1_extent, x2_extent=x2_extent)
    q = build_path(verify.APERTURE_FAST)
    r = build_path(verify.CENTERLINE_DEFAULT)
    return enumerate_fissures(geo, q, r, PhaseSequence(bound=0.3, seed=4))


def _lines():
    """Half-opening lines on the default aperture, `shared`, and on one
    with frequencies 12 and 12 sqrt 2, `fast`."""
    q = build_path(verify.APERTURE_DEFAULT)
    q_fast = build_path(replace(verify.APERTURE_DEFAULT, seed=3,
                                frequencies=(12.0, 12.0 * math.sqrt(2.0)),
                                deriv_bound=None))
    r = build_path(verify.CENTERLINE_DEFAULT)
    return {"shared": HalfPaths(q, r, 0.1, -0.2),
            "fast": HalfPaths(q_fast, r, 0.1, -0.2)}


def _tubes(line_pairs):
    geo = GeometryParams(epsilon=1 / 16, theta=0.5, height=1.0)
    return [Fissure(i=k + 3, j=2 * k + 5, geometry=geo, line_x1=a,
                    line_x2=b) for k, (a, b) in enumerate(line_pairs)]


def _single():
    """The field of tube (3, 5) alone, from extents that hold one line
    per axis."""
    field = _enumerated(1 / 8, (0.32, 0.43), (0.57, 0.68))
    assert (len(field), field[0].i, field[0].j) == (1, 3, 5)
    return field


@pytest.mark.parametrize(
    "build",
    [lambda: _enumerated(1 / 8), lambda: _enumerated(1 / 16),
     lambda: _enumerated(1 / 32), lambda: _enumerated(1 / 64), _single]
    + [lambda case=case: enumerate_fissures(*case) for case in FIELD_CASES],
    ids=["field_eps8", "field_eps16", "field_eps32", "field_eps64",
         "single_tube"] + FIELD_IDS)
def test_line_factored_quadratures_match_per_tube_loops(build):
    # the line sums reorder the per-tube sums, so they agree to rounding
    fissures = build()
    for got, phi in zip(verify._union_volumes(fissures), TEST_FUNCTIONS):
        assert got == pytest.approx(volume_integral_per_tube(fissures, phi),
                                    rel=1e-14, abs=0.0)
    qbar, rbar, q0 = pair_averages_per_tube(fissures)
    for got, ref in zip(verify._energy_sums(fissures),
                        (np.sum(qbar), np.sum(qbar * rbar), np.sum(q0))):
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("x1_extent", [(0.32, 0.36), (0.0, 1.0)],
                         ids=["no_lines", "no_columns"])
def test_empty_field_has_zero_volume(x1_extent):
    fissures = _enumerated(1 / 8, x1_extent, (0.32, 0.36))
    assert len(fissures) == 0
    assert verify._union_volumes(fissures) == (0.0, 0.0)
    assert volume_integral_per_tube(fissures, TEST_FUNCTIONS[0]) == 0.0


def test_volume_integral_of_coupled_integrands_matches_per_tube_loop():
    # the tubes are disjoint, so the union integral is the sum of the tube
    # integrals, also for integrands that couple x1 and x2
    fissures = _enumerated(1 / 8)

    def phi(x1, x2, x3):
        return np.sin(3.0 * x1) * np.cos(5.0 * x2) + x1 * x2 * x3

    assert volume_integral_per_tube(fissures, phi) \
        == math.fsum(volume_integral_per_tube([tube], phi)
                     for tube in fissures)


@pytest.mark.parametrize("fast_axis", [0, 1])
def test_depth_panels_resolve_the_faster_axis(fast_axis):
    # the depth grid follows the fastest aperture of either axis, so a
    # tube is resolved equally well in both axis orders
    L = _lines()
    pair = (L["fast"], L["shared"])
    tube = _tubes([pair if fast_axis == 0 else pair[::-1]])
    phi = TEST_FUNCTIONS[0]
    vol = volume_integral_per_tube(tube, phi)
    ref = volume_integral_per_tube(tube, phi, panels_per_period=64)
    assert vol == pytest.approx(ref, rel=1e-10, abs=0.0)
    for got, ref in zip(pair_averages_per_tube(tube),
                        pair_averages_per_tube(tube, panels_per_period=64)):
        assert got == pytest.approx(ref, rel=1e-10, abs=0.0)
