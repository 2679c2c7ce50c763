"""Shared low-level numerics: seeding, quadrature, finite-volume assembly,
sparse solver wrappers.

Everything here is deliberately boring.  Deterministic seeding uses
splitmix64 so that per-index draws are stateless and identical across
platforms and vectorization widths.  The assembly helpers append COO blocks
to caller-owned `rows`, `cols`, `vals` lists; the order in which they emit
entries fixes how duplicates are summed, so it is part of their contract.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(state: np.ndarray) -> np.ndarray:
    z = (state + _SPLITMIX_GAMMA).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def hash_u64(*keys: int | np.ndarray) -> np.ndarray | np.uint64:
    """Stateless hash of an integer key tuple to uint64.

    Arrays broadcast; negative integers are zigzag-encoded first so that
    indices from a doubly infinite lattice hash distinctly.
    """
    with np.errstate(over="ignore"):
        acc = np.uint64(0x8000000000000000)
        for k in keys:
            a = np.asarray(k)
            if a.dtype.kind in "iu":
                signed = a.astype(np.int64)
            else:
                raise TypeError("hash keys must be integers")
            zig = np.where(signed >= 0, 2 * signed, -2 * signed - 1).astype(np.uint64)
            acc = _splitmix64(acc ^ zig)
        return acc


def uniform_from_hash(*keys: int | np.ndarray) -> np.ndarray | float:
    """Deterministic U[0,1) draw keyed by integers, vectorized."""
    h = hash_u64(*keys)
    return np.asarray(h).astype(np.float64) / 2.0**64


def derive_seed(seed: int, *key: int) -> int:
    """Child integer seed for a (seed, key...) stream, stable across runs."""
    return int(np.asarray(hash_u64(seed, *key)).item() & _U64_MASK)


def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def panel_quadrature(a: float, b: float, n_panels: int, order: int = 6):
    """Composite Gauss nodes/weights on [a, b] split into equal panels."""
    xs, ws = gauss_legendre(order)
    edges = np.linspace(a, b, n_panels + 1)
    left = edges[:-1]
    width = (b - a) / n_panels
    nodes = (left[:, None] + width * xs[None, :]).ravel()
    weights = np.broadcast_to(width * ws[None, :], (n_panels, order)).ravel().copy()
    return nodes, weights


def fsum(values) -> float:
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


def positive_diagonal(value, n: int, label: str) -> np.ndarray:
    """Coerce a scalar, length-n vector or diagonal (n, n) matrix to a
    positive length-n diagonal, as two-point fluxes need."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        diag = np.full(n, float(arr))
    elif arr.shape == (n,):
        diag = arr.copy()
    elif arr.shape == (n, n):
        off = arr - np.diag(np.diag(arr))
        if np.max(np.abs(off)) > 1e-10 * (np.max(np.abs(arr)) + 1e-300):
            raise ValueError(f"{label} must be diagonal for two-point fluxes")
        diag = np.diag(arr).copy()
    else:
        raise ValueError(f"{label} must be a scalar, length-{n}, or {n}x{n}")
    if np.any(diag <= 0):
        raise ValueError(f"{label} must be positive definite")
    return diag


def on_grid(fn, *axes) -> np.ndarray:
    """A callable of the coordinates, or a constant, on the tensor grid of
    the given axes."""
    if callable(fn):
        return np.asarray(fn(*np.meshgrid(*axes, indexing="ij")), dtype=float)
    return np.full(tuple(len(a) for a in axes), float(fn))


def axis_neighbours(index: np.ndarray, axis: int):
    """Flat (lower, upper) entries of `index` for each pair of neighbours
    along `axis`, without wrap-around."""
    lo = [slice(None)] * index.ndim
    hi = [slice(None)] * index.ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return index[tuple(lo)].ravel(), index[tuple(hi)].ravel()


def two_point(rows, cols, vals, lo, hi, tau):
    """Append the symmetric two-point flux tau * (u_lo - u_hi) between the
    unknowns lo and hi: +tau on both diagonals, -tau off them."""
    t = np.broadcast_to(np.asarray(tau, dtype=float), lo.shape)
    rows.extend((lo, hi, lo, hi))
    cols.extend((lo, hi, hi, lo))
    vals.extend((t, t, -t, -t))


def upwind(rows, cols, vals, lo, hi, flux):
    """Append first-order upwind advection across the faces between lo and
    hi; flux is the face-normal velocity times the face size, positive from
    lo towards hi."""
    pos = np.maximum(flux, 0.0)
    neg = np.minimum(flux, 0.0)
    rows.extend((lo, lo, hi, hi))
    cols.extend((lo, hi, lo, hi))
    vals.extend((pos, neg, -pos, -neg))


def coo_square(rows, cols, vals, n: int) -> sp.coo_matrix:
    """The n x n matrix of the appended COO blocks (duplicates not yet
    summed)."""
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def pin_rows(A: sp.spmatrix, b: np.ndarray, fixed: np.ndarray, values):
    """Replace the rows where `fixed` holds by identity rows whose right-hand
    side is `values` (Dirichlet data, or a gauge).  Returns the new (A, b),
    with A in its input format."""
    coo = A.tocoo()
    keep = ~fixed[coo.row]
    kept = sp.coo_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])),
                         shape=A.shape).tocsr()
    pinned = kept + sp.diags(fixed.astype(float))
    return pinned.asformat(A.format), np.where(fixed, values, b)


def solve_sparse(A: sp.spmatrix, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Direct sparse solve with a residual check.

    Returns (x, residual), residual = max|Ax - b| / (max|b| + max|x| + 1)
    with A as passed; raises RuntimeError when it exceeds 1e-9.
    """
    x = spla.splu(A.tocsc()).solve(b)
    residual = float(np.max(np.abs(A @ x - b))
                     / (np.max(np.abs(b)) + np.max(np.abs(x)) + 1.0))
    if residual > 1e-9:
        raise RuntimeError(f"sparse solve residual {residual:.2e} too large")
    return x, residual


def solve_spd(A: sp.spmatrix, b: np.ndarray, tol: float = 1e-13,
              maxiter: int | None = None) -> np.ndarray:
    """CG with Jacobi preconditioner for SPD systems; falls back to direct.

    Raises RuntimeError only if both routes fail to reach the residual target.
    """
    A = A.tocsr()
    n = A.shape[0]
    diag = A.diagonal()
    if np.any(diag <= 0):
        return solve_sparse(A, b)[0]
    M = sp.diags(1.0 / diag)
    x, info = spla.cg(A, b, rtol=tol, atol=0.0, M=M,
                      maxiter=maxiter or 40 * int(math.isqrt(n) + 10))
    if info != 0:
        x, _ = solve_sparse(A, b)
    res = np.linalg.norm(A @ x - b)
    scale = np.linalg.norm(b) + 1e-300
    if res / scale > 1e-9:
        raise RuntimeError(f"sparse solve residual {res/scale:.2e} too large")
    return x


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    slope, _ = np.linalg.lstsq(A, ly, rcond=None)[0]
    return float(slope)


def sym_inv_sqrt(M: np.ndarray) -> np.ndarray:
    """Inverse square root of a symmetric positive definite matrix."""
    M = np.asarray(M, dtype=float)
    Ms = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(Ms)
    if np.min(w) <= 0:
        raise ValueError("matrix is not positive definite")
    return (V * (1.0 / np.sqrt(w))) @ V.T
