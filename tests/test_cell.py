"""Tests for the cell problems of the fissure layer."""

import numpy as np
import pytest

from fisshom.cell import compute_kstar, solve_poisson_cell
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
    assert cell.k0 == pytest.approx(K0_SQUARE, abs=1e-4)
    assert cell.k0 == pytest.approx(K0_SQUARE, abs=5e-6)
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
        errs.append(abs(solve_poisson_cell(n).k0 - K0_SQUARE))
    order = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert order <= -1.8


@pytest.mark.parametrize("n", [16, 17, 64, 255, 256])
def test_torsion_cell_matches_splu_reference(n):
    cell = solve_poisson_cell(n)
    profile, k0 = poisson_cell_splu(n)
    scale = 1.0 + np.max(np.abs(profile))
    assert np.max(np.abs(cell.profile - profile)) <= 1e-12 * scale
    assert cell.k0 == pytest.approx(k0, rel=1e-12, abs=0.0)


def test_torsion_cell_makes_no_superlu_call(monkeypatch):
    import scipy.sparse.linalg as spla

    def refuse(*args, **kwargs):
        raise AssertionError("torsion cell called splu")

    monkeypatch.setattr(spla, "splu", refuse)
    cell = solve_poisson_cell(256)
    assert cell.k0 == pytest.approx(K0_SQUARE, abs=5e-6)


def test_drag_cell_is_isotropic_and_positive():
    # the tangential drag tensor is the torsion constant times the identity
    cell = solve_poisson_cell(128)
    K_f = cell.k0 * np.eye(2)
    assert np.linalg.eigvalsh(K_f).min() > 0.0
    assert K_f[0, 0] == pytest.approx(K0_SQUARE, abs=2e-5)
    # corrector energy identity: the energy form k0_energy I equals the drag
    # tensor up to solver tol
    assert np.allclose(cell.k0_energy * np.eye(2), K_f, rtol=1e-9,
                       atol=1e-12)


def test_kstar_constant_tensor():
    stats = constant_stats(0.5)
    K = compute_kstar(stats, np.eye(3))
    assert np.allclose(K, 0.25 * np.eye(3), atol=1e-14)

    stats2 = ErgodicStats(mean_q=0.4, mean_q2=0.17, mean_inv_q2=6.3,
                          mean_r=0.1, window_T=1.0, stderr=0.0)
    K2 = compute_kstar(stats2, 2.0 * np.eye(3))
    assert np.allclose(K2, 2.0 * 0.16 * np.eye(3), atol=1e-14)
    # an anisotropic tensor scales entry by entry
    A = np.diag([1.3, 1.3, 0.9])
    assert np.allclose(compute_kstar(stats2, A), 0.16 * A, atol=1e-14)

    with pytest.raises(ValueError, match="tensor"):
        compute_kstar(stats, 1.0)
    flat = ErgodicStats(mean_q=-0.1, mean_q2=0.01, mean_inv_q2=100.0,
                        mean_r=0.0, window_T=1.0, stderr=0.0)
    with pytest.raises(ValueError, match="degenerate"):
        compute_kstar(flat, np.eye(3))
