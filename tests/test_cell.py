"""Tests for the cell problems and effective tensors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisshom.cell import (
    CellMesh,
    ObstacleSpec,
    compute_kstar,
    solve_darcy_cell,
    solve_poisson_cell,
    solve_scalar_cell_2d,
    solve_scalar_cell_3d,
    solve_stokes_cell,
)
from fisshom.stochastic import constant_stats, ErgodicStats

from _oracles import (
    ETA0_CENTER,
    K0_SQUARE,
    eta0_series,
    k0_double_series,
    k0_single_series,
    laminate_tensor_1d,
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
    ns = [32, 64, 128]
    for n in ns:
        errs.append(abs(solve_poisson_cell(n).k0_integral - K0_SQUARE))
    order = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert order <= -1.8


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


def test_darcy_cell_scalar_identity():
    mesh = CellMesh(8, dim=3)
    sol = solve_darcy_cell(mesh, 2.7)
    assert np.allclose(sol.tensor, 2.7 * np.eye(3), atol=1e-10)
    assert np.allclose(sol.tensor_flux, 2.7 * np.eye(3), atol=1e-10)
    assert sol.div_residual < 1e-10


def test_darcy_cell_full_matrix_identity():
    K = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
    mesh = CellMesh(6, dim=3)
    sol = solve_darcy_cell(mesh, K)
    assert np.allclose(sol.tensor, K, atol=1e-10)


def test_darcy_cell_full_matrix_rejected_with_obstacle():
    K = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.0], [0.0, 0.0, 1.0]])
    mesh = CellMesh(8, dim=3, obstacle=ObstacleSpec("box", (0.2, 0.2, 0.2)))
    with pytest.raises(ValueError, match="without obstacles"):
        solve_darcy_cell(mesh, K)


def test_darcy_cell_laminate_convergence():
    def k_func(z):
        return np.array([1.5 + np.sin(2 * math.pi * z),
                         2.0 + np.cos(2 * math.pi * z),
                         1.0])

    exact = laminate_tensor_1d(k_func, axis=0, dim=3)

    def cond(centers):
        z0 = centers[..., 0]
        out = np.empty(z0.shape + (3,))
        out[..., 0] = 1.5 + np.sin(2 * math.pi * z0)
        out[..., 1] = 2.0 + np.cos(2 * math.pi * z0)
        out[..., 2] = 1.0
        return out

    errs = []
    ns = [8, 16, 32]
    for n in ns:
        sol = solve_darcy_cell(CellMesh(n, dim=3), cond)
        errs.append(np.max(np.abs(sol.tensor - exact)))
    assert errs[-1] < 2e-3
    order = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert order <= -1.8


def test_darcy_cell_with_obstacle_properties():
    mesh = CellMesh(16, dim=3, obstacle=ObstacleSpec("box", (0.25, 0.25, 0.25)))
    sol = solve_darcy_cell(mesh, 1.0)
    K = sol.tensor
    assert np.allclose(K, K.T, atol=1e-14)
    w = np.linalg.eigvalsh(K)
    assert w.min() > 0.0
    # blocked cells can only reduce conductivity
    assert w.max() < 1.0
    # cubic symmetry of the obstacle
    assert K[0, 0] == pytest.approx(K[1, 1], rel=1e-10)
    assert K[0, 0] == pytest.approx(K[2, 2], rel=1e-10)
    assert abs(K[0, 1]) < 1e-12
    # energy and flux forms agree at the solver tolerance
    assert np.allclose(sol.tensor, sol.tensor_flux, atol=1e-9)


def test_obstacle_validation():
    with pytest.raises(ValueError, match="strictly interior"):
        CellMesh(8, dim=3, obstacle=ObstacleSpec("box", (0.49, 0.2, 0.2)))
    with pytest.raises(ValueError, match="kind"):
        ObstacleSpec("wedge", (0.1,))


def test_diffusion_cell_3d_identity_and_obstacle():
    mesh = CellMesh(6, dim=3)
    sol = solve_scalar_cell_3d(mesh, diffusivity=0.7)
    assert np.allclose(sol.tensor, 0.7 * np.eye(3), atol=1e-10)
    assert sol.porosity == 1.0

    meshb = CellMesh(12, dim=3, obstacle=ObstacleSpec("ball", (0.3,)))
    solb = solve_scalar_cell_3d(meshb, diffusivity=1.0)
    D = solb.tensor
    w = np.linalg.eigvalsh(D)
    assert w.min() > 0.0
    # insulated inclusions: porosity bound from above
    assert w.max() <= solb.porosity + 1e-12
    assert np.allclose(D, D.T, atol=1e-14)


def test_surface_cell_periodic_identity_and_laminate():
    mesh = CellMesh(8, dim=2)
    sol = solve_scalar_cell_2d(mesh, diffusivity=1.3)
    assert np.allclose(sol.tensor, 1.3 * np.eye(2), atol=1e-10)

    def k_func(z):
        return np.array([2.0 + np.sin(2 * math.pi * z), 1.0])

    exact = laminate_tensor_1d(k_func, axis=0, dim=2)

    def cond(centers):
        z0 = centers[..., 0]
        out = np.empty(z0.shape + (2,))
        out[..., 0] = 2.0 + np.sin(2 * math.pi * z0)
        out[..., 1] = 1.0
        return out

    sol2 = solve_scalar_cell_2d(CellMesh(64, dim=2), cond)
    assert np.max(np.abs(sol2.tensor - exact)) < 5e-4


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


@settings(max_examples=10, deadline=None)
@given(kx=st.floats(0.2, 5.0), ky=st.floats(0.2, 5.0), kz=st.floats(0.2, 5.0))
def test_obstacle_free_darcy_recovers_any_diagonal_tensor(kx, ky, kz):
    mesh = CellMesh(4, dim=3)
    sol = solve_darcy_cell(mesh, np.diag([kx, ky, kz]))
    assert np.allclose(sol.tensor, np.diag([kx, ky, kz]), rtol=1e-10, atol=1e-12)


def test_disconnected_fluid_rejected():
    # slab obstacle spanning two axes fully would disconnect, but full span
    # violates the interior rule first; use a cross shape via callable-free API:
    # a box with half-width 0.49 in two axes is rejected as non-interior.
    with pytest.raises(ValueError):
        CellMesh(10, dim=3, obstacle=ObstacleSpec("box", (0.49, 0.49, 0.1)))


def test_enclosed_fluid_pocket_rejected():
    # no box or ball obstacle encloses fluid, so hand-make the mask: a
    # hollow solid shell around the cell center traps a one-cell pocket
    mesh = CellMesh(8, dim=3)
    shell = np.zeros((8, 8, 8), dtype=bool)
    shell[2:7, 2:7, 2:7] = True
    shell[4, 4, 4] = False
    mesh.fluid = ~shell
    with pytest.raises(ValueError, match="disconnected"):
        mesh._check_connected()
    # a channel drilled through the shell reconnects the pocket
    shell[4, 4, 5] = shell[4, 4, 6] = False
    mesh.fluid = ~shell
    mesh._check_connected()
