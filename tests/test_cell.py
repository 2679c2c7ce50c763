"""Tests for the cell problems of the fissure layer."""

import numpy as np
import pytest

from fisshom.cell import compute_kstar, solve_poisson_cell, solve_stokes_cell
from fisshom.stochastic import constant_stats, ErgodicStats

from _oracles import (
    ETA0_CENTER,
    K0_SQUARE,
    eta0_series,
    k0_double_series,
    k0_single_series,
    poisson_cell_splu,
)


def test_series_oracles_agree_with_each_other():
    assert k0_double_series(800) == pytest.approx(K0_SQUARE, abs=2e-9)
    assert k0_single_series() == pytest.approx(K0_SQUARE, abs=1e-11)
    assert eta0_series(0.0, 0.0, terms=400) == pytest.approx(ETA0_CENTER, abs=1e-7)
    assert float(eta0_series(0.5, 0.0, terms=400)) == pytest.approx(0.0, abs=1e-3)


def test_torsion_cell_value_and_identity():
    cell = solve_poisson_cell(256)
    assert cell.k0_integral == pytest.approx(K0_SQUARE, abs=1e-4)
    assert cell.k0_integral == pytest.approx(K0_SQUARE, abs=5e-6)
    assert cell.identity_gap < 1e-10
    assert cell.route == "dst1" and cell.residual <= 1e-9
    assert cell.center_value == pytest.approx(ETA0_CENTER, abs=1e-5)
    # profile positive inside, zero on the wall
    assert cell.profile[1:-1, 1:-1].min() > 0.0
    assert np.all(cell.profile[0] == 0.0) and np.all(cell.profile[-1] == 0.0)


def test_torsion_cell_matches_series_pointwise():
    cell = solve_poisson_cell(128)
    idx = np.array([26, 51, 64, 90, 115])
    xs = -0.5 + idx / cell.n
    approx = cell.profile[np.ix_(idx, idx)]
    exact = eta0_series(xs[:, None], xs[None, :], terms=300)
    assert np.max(np.abs(approx - exact)) < 5e-5


def test_torsion_cell_second_order_convergence():
    errs = []
    ns = [32, 64, 128, 256, 512]
    for n in ns:
        errs.append(abs(solve_poisson_cell(n).k0_integral - K0_SQUARE))
    order = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert order <= -1.8


@pytest.mark.parametrize("n", [16, 17, 64, 255, 256])
def test_torsion_cell_matches_splu_reference(n):
    cell = solve_poisson_cell(n)
    profile, k0 = poisson_cell_splu(n)
    scale = 1.0 + np.max(np.abs(profile))
    assert np.max(np.abs(cell.profile - profile)) <= 1e-12 * scale
    assert cell.k0_integral == pytest.approx(k0, rel=1e-12, abs=0.0)


def test_torsion_cell_makes_no_superlu_call(monkeypatch):
    import scipy.sparse.linalg as spla

    def refuse(*args, **kwargs):
        raise AssertionError("torsion cell called splu")

    monkeypatch.setattr(spla, "splu", refuse)
    cell = solve_poisson_cell(256)
    assert cell.k0_integral == pytest.approx(K0_SQUARE, abs=5e-6)


def test_drag_cell_is_isotropic_and_positive():
    drag = solve_stokes_cell(128)
    K_f = drag.K_f
    assert np.allclose(K_f, K_f.T, atol=0.0)
    w = np.linalg.eigvalsh(K_f)
    assert w.min() > 0.0
    assert K_f[0, 0] == pytest.approx(K0_SQUARE, abs=2e-5)
    assert K_f[0, 1] == 0.0
    # corrector energy identity: gram equals the drag tensor up to solver tol
    assert np.allclose(drag.gram, K_f, rtol=1e-9, atol=1e-12)


def test_kstar_scalar_and_callable():
    stats = constant_stats(0.5)
    K = compute_kstar(stats, 1.0)
    assert np.allclose(K, 0.25 * np.eye(3), atol=1e-14)

    stats2 = ErgodicStats(mean_q=0.4, mean_q2=0.17, mean_inv_q2=6.3,
                          mean_r=0.1, window_T=1.0, stderr=0.0)
    K2 = compute_kstar(stats2, 2.0)
    assert np.allclose(K2, 2.0 * 0.16 * np.eye(3), atol=1e-14)

    def perm(z1, z2):
        return (1.0 + z1**2 + 0.5 * z2**2) * np.eye(3)

    K3 = compute_kstar(stats, perm, order=16)
    from scipy.integrate import dblquad
    val, _ = dblquad(lambda a, b: 1.0 + b**2 + 0.5 * a**2,
                     -0.25, 0.25, -0.25, 0.25)
    assert K3[0, 0] == pytest.approx(val, abs=1e-10)
    assert K3[0, 1] == 0.0
