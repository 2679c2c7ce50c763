"""Tests for the shared numerics helpers."""

import inspect

import numpy as np
import pytest
import scipy.sparse as sp

from fisshom._numerics import (gauss_legendre, positive_diagonal, solve_sparse,
                               solve_spd)


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


@pytest.mark.parametrize("solve", [lambda A, b: solve_sparse(A, b)[0],
                                   solve_spd], ids=["sparse", "spd"])
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
