"""Tests for the shared numerics helpers."""

import inspect
import math

import numpy as np
import pytest
import scipy.sparse as sp

from fisshom._numerics import (_FSUM_CHUNK, fsum, gauss_legendre, gmres,
                               positive_diagonal, solve_sparse)


@pytest.mark.parametrize("order", [2, 6, 24])
def test_gauss_legendre_is_cached_read_only_and_exact(order):
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = gauss_legendre(order)
    assert np.array_equal(nodes, 0.5 * (x + 1.0))
    assert np.array_equal(weights, 0.5 * w)
    again = gauss_legendre(order)
    assert again[0] is nodes and again[1] is weights
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # a plain function, so per-layer tracing can still wrap and count it
    assert inspect.isfunction(gauss_legendre)


@pytest.mark.parametrize("solve", [lambda A, b: solve_sparse(A, b)[0]],
                         ids=["sparse"])
def test_residual_gate_rejects_nan(solve):
    # a NaN residual compares False with any bound, so the gate must
    # fail closed
    with pytest.raises(RuntimeError, match="residual nan"):
        solve(sp.identity(2, format="csr"), np.array([1.0, np.nan]))


@pytest.mark.parametrize("value, message", [
    (np.nan, "positive definite"),
    ([1.0, np.nan, 2.0], "positive definite"),
    ([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "diagonal"),
    ([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "diagonal"),
], ids=["scalar", "vector", "off_diagonal", "on_diagonal"])
def test_positive_diagonal_rejects_nan(value, message):
    # both checks compare with a bound, so NaN must fail them, not pass
    with pytest.raises(ValueError, match=message):
        positive_diagonal(value, 3, "k")


def test_fsum_is_exact_across_chunks():
    """Terms that cancel only across chunk boundaries: a sum of per-chunk
    sums would lose the small terms under the two large ones."""
    rng = np.random.default_rng(11)
    values = rng.uniform(-1e-3, 1e-3, (3, _FSUM_CHUNK + 7))
    values[0, 5] = 1e100
    values[2, 9] = -1e100
    values[1, -1] = 1e16
    values[2, 0] = -1e16
    want = math.fsum(values.ravel().tolist())
    assert fsum(values) == want
    assert fsum(values.T) == math.fsum(values.T.ravel().tolist())
    assert fsum([]) == 0.0


def _nonsymmetric(n: int = 60, dominance: float = 1.0, seed: int = 3):
    """A nonsymmetric system whose diagonal exceeds each row's off-diagonal
    sum by about `dominance` times, with its Jacobi preconditioner."""
    rng = np.random.default_rng(seed)
    d = n * (1.0 + rng.uniform(0.0, 1.0, n))
    A = rng.uniform(-1.0, 1.0, (n, n)) * d[:, None] / (0.5 * n * dominance)
    A[np.diag_indices(n)] = d
    b = rng.standard_normal(n)
    return A, b, (lambda r: r / d)


def test_gmres_agrees_with_dense_solve():
    A, b, jacobi = _nonsymmetric()
    x, iterations = gmres(lambda v: A @ v, b, jacobi, 1e-14, 20, 3)
    want = np.linalg.solve(A, b)
    assert x is not None and 0 < iterations <= 60
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))
    assert gmres(lambda v: A @ v, np.zeros(b.size), jacobi, 1e-14, 20, 3
                 )[1] == 0


def test_gmres_gives_up_after_its_steps():
    A, b, jacobi = _nonsymmetric(dominance=0.5)
    x, iterations = gmres(lambda v: A @ v, b, jacobi, 1e-14, 3, 2)
    assert x is None and iterations == 6


@pytest.mark.parametrize("restart,cycles", [(2, 1), (4, 3), (8, 2), (30, 2)])
@pytest.mark.parametrize("rtol", [1e-4, 1e-10, 1e-14])
def test_gmres_accepts_only_a_true_residual_within_rtol(rtol, restart,
                                                        cycles):
    A, b, jacobi = _nonsymmetric(dominance=0.5)
    x, iterations = gmres(lambda v: A @ v, b, jacobi, rtol, restart, cycles)
    assert 0 < iterations <= restart * cycles
    if x is not None:
        assert np.linalg.norm(b - A @ x) <= rtol * np.linalg.norm(b)


def test_gmres_repeats_exactly():
    A, b, jacobi = _nonsymmetric()
    first = gmres(lambda v: A @ v, b, jacobi, 1e-13, 5, 4)
    again = gmres(lambda v: A @ v, b, jacobi, 1e-13, 5, 4)
    assert first[1] == again[1]
    assert np.array_equal(first[0], again[0])
