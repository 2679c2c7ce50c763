"""Shared low-level numerics: seeding, quadrature, finite-volume assembly,
sparse solver wrappers, and the separable bed operators.

Everything here is deliberately boring.  Deterministic seeding uses
splitmix64 so that per-index draws are stateless and identical across
platforms and vectorization widths.  The assembly helpers append COO blocks
to caller-owned `rows`, `cols`, `vals` lists; the order in which they emit
entries fixes how duplicates are summed, so it is part of their contract.

A bed operator on a horizontally uniform tensor grid, whose column axis
stacks both beds, is described once by its 1-D factors (`TensorOperator`).
The separable routes never form its 3-D matrix: the operator applies itself
in tensor form, one sparse 1-D product per axis, for residuals and
right-hand sides, and its largest entry comes from the factors too.  The
same factors give the column systems of the mode-by-mode solve
(`solve_separable`: the fast diagonalization method of Lynch, Rice & Thomas
1964), whose block-diagonal mode matrix is built directly and factored in
its natural order, where the banded blocks make no fill.  The matrix itself,
their Kronecker sum, serves the non-separable routes.  The tests keep the
face-by-face COO assemblies of both bed matrices as the independent
reference of the factors.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import fft

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
    """Nodes/weights on [0, 1], computed once per order; the arrays are
    shared between callers and therefore read-only."""
    return _gauss_legendre_rule(order)


@functools.lru_cache(maxsize=64)
def _gauss_legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def panel_quadrature(a, b, n_panels: int, order: int = 6):
    """Composite Gauss nodes/weights on [a, b] split into equal panels.

    a and b may be equal-shape arrays of endpoints: the rule of each
    interval then runs along the last axis, with the same nodes and weights,
    bit for bit, as a call on that interval alone.
    """
    xs, ws = gauss_legendre(order)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    edges = np.linspace(a, b, n_panels + 1, axis=-1)
    left = edges[..., :-1, None]
    width = ((b - a) / n_panels)[..., None, None]
    shape = a.shape + (n_panels * order,)
    nodes = (left + width * xs).reshape(shape)
    weights = np.tile(width * ws, (n_panels, 1)).reshape(shape)
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
        off = arr[~np.eye(n, dtype=bool)]
        # written so that NaN fails: it compares False with any bound
        if not np.max(np.abs(off)) <= 1e-10 * (np.max(np.abs(arr)) + 1e-300):
            raise ValueError(f"{label} must be diagonal for two-point fluxes")
        diag = np.diag(arr).copy()
    else:
        raise ValueError(f"{label} must be a scalar, length-{n}, or {n}x{n}")
    if not np.all(diag > 0):
        raise ValueError(f"{label} must be positive definite")
    return diag


def check_interval(extent, label: str):
    """Raise ValueError naming `label` unless `extent` is a finite
    increasing pair (lo, hi)."""
    lo, hi = extent
    # written so that NaN fails: it compares False with any bound
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"{label} must be a finite increasing interval, "
                         f"got {tuple(extent)}")


def on_grid(fn, *axes) -> np.ndarray:
    """A callable of the coordinates, or a constant, on the tensor grid of
    the given axes."""
    if callable(fn):
        return np.asarray(fn(*np.meshgrid(*axes, indexing="ij")), dtype=float)
    return np.full(tuple(len(a) for a in axes), float(fn))


def axis_halves(axis: int, ndim: int):
    """Index tuples of the lower and upper member of each pair of
    neighbours along `axis` of an `ndim`-dimensional array, without
    wrap-around."""
    lo = [slice(None)] * ndim
    hi = [slice(None)] * ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


def axis_neighbours(index: np.ndarray, axis: int):
    """Flat (lower, upper) entries of `index` for each pair of neighbours
    along `axis`, without wrap-around."""
    lo, hi = axis_halves(axis, index.ndim)
    return index[lo].ravel(), index[hi].ravel()


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


def checked_residual(Ax: np.ndarray, x: np.ndarray, b: np.ndarray,
                     fixed: np.ndarray | None = None, values=0.0) -> float:
    """max|Ax - b| / (max|b| + max|x| + 1) for the product Ax of the
    operator with x; raises RuntimeError when it exceeds 1e-9.

    With `fixed`, the residual is that of the system that `pin_rows` makes
    of A, b, fixed and values, without building it: x - values on the fixed
    rows, and values in place of b there.
    """
    r = Ax - b
    if fixed is not None:
        r = np.where(fixed, x - values, r)
        b = np.where(fixed, values, b)
    residual = float(np.max(np.abs(r))
                     / (np.max(np.abs(b)) + np.max(np.abs(x)) + 1.0))
    if not residual <= 1e-9:
        raise RuntimeError(f"sparse solve residual {residual:.2e} too large")
    return residual


def solve_sparse(A: sp.spmatrix, b: np.ndarray,
                 **lu_options) -> tuple[np.ndarray, float]:
    """Direct sparse solve with a residual check; `lu_options` go to
    SuperLU (`scipy.sparse.linalg.splu`), whose defaults order the columns
    by COLAMD.

    Returns (x, residual), residual = max|Ax - b| / (max|b| + max|x| + 1)
    with A as passed; raises RuntimeError when it exceeds 1e-9.
    """
    x = spla.splu(A.tocsc(), **lu_options).solve(b)
    return x, checked_residual(A @ x, x, b)


# SuperLU options for the block-diagonal mode matrix of the separable
# solve.  Its blocks are banded, so in their natural column order the
# factors fill nothing outside the bands, and one column per panel halves
# the factor time at the same fill (measured on the bed benchmark's modes).
_BANDED_LU = {"permc_spec": "NATURAL", "panel_size": 1}

# Horizontal bases of the separable solve: transform pair, transform type,
# and frequency of the first mode.
#   dct2  cell centres, no-flow walls
#   dst2  cell centres, Dirichlet walls (2 tau boundary faces)
#   dst1  interior vertices, Dirichlet walls
_BASES = {"dct2": (fft.dctn, fft.idctn, 2, 0),
          "dst2": (fft.dstn, fft.idstn, 2, 1),
          "dst1": (fft.dstn, fft.idstn, 1, 1)}


def stiffness(conductance, ends=(0.0, 0.0)) -> np.ndarray:
    """The dense 1-D two-point operator with face conductances
    `conductance` between neighbours, plus the boundary conductances `ends`
    on the first and last diagonal entry."""
    t = np.asarray(conductance, dtype=float)
    D = np.diff(np.eye(t.size + 1), axis=0)  # the face differences
    K = D.T @ (t[:, None] * D)
    K[[0, -1], [0, -1]] += ends
    return K


class TensorOperator(NamedTuple):
    """The 1-D factors of an operator on an (n1, n2, nz) tensor grid,

        S = W1 (x) W2 (x) Cz + K1 (x) W2 (x) G1 + W1 (x) K2 (x) G2,

    W the horizontal control-volume widths, K the 1-D horizontal stiffness
    matrices, Cz the dense column operator per unit horizontal area, and G
    the per-layer horizontal conductances.  `op @ x` applies S to a flat x
    numbered (i1, i2, k) in C order, as `kronecker_sum` numbers it."""

    w1: np.ndarray
    w2: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    cz: np.ndarray
    g1: np.ndarray
    g2: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.w1.size, self.w2.size, self.cz.shape[0])

    def terms(self):
        """(axis, M, across) of each Kronecker term, in the order
        `kronecker_sum` adds them: the 1-D factor M along `axis`, and the
        product of the two diagonals across that axis, shaped as the other
        two axes."""
        return ((2, self.cz, np.multiply.outer(self.w1, self.w2)),
                (0, self.k1, np.multiply.outer(self.w2, self.g1)),
                (1, self.k2, np.multiply.outer(self.w1, self.g2)))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """S x in tensor form: each 1-D factor acts along its axis as a
        sparse product, so neither the 3-D matrix nor a BLAS kernel
        enters."""
        x = x.reshape(self.shape)
        y = np.zeros(self.shape)
        for axis, M, across in self.terms():
            moved = np.moveaxis(x, axis, 0)
            Mx = sp.csr_matrix(M) @ moved.reshape(moved.shape[0], -1)
            y += (np.moveaxis(Mx.reshape(moved.shape), 0, axis)
                  * np.expand_dims(across, axis))
        return y.ravel()

    def max_abs(self) -> float:
        """max|S| from the factors, equal bit for bit to the largest entry
        of `kronecker_sum`: an off-diagonal entry comes from one term, and
        a diagonal one sums the three terms in the order it adds them."""
        diag = np.zeros(self.shape)
        off = 0.0
        for axis, M, across in self.terms():
            d = np.diag(M)
            diag = diag + (np.expand_dims(across, axis)
                           * d.reshape([-1 if a == axis else 1
                                        for a in range(3)]))
            off = max(off, float(np.max(np.abs(M - np.diag(d))))
                      * float(np.max(np.abs(across))))
        return max(off, float(np.max(np.abs(diag))))


def kronecker_sum(op: TensorOperator) -> sp.csr_matrix:
    """The sparse matrix S of `op`, unknowns numbered (i1, i2, k) in C
    order.  Each term couples the unknowns along the axis of its one
    non-diagonal factor, scaled by the two diagonals across that axis."""
    index = np.arange(np.prod(op.shape), dtype=np.int32).reshape(op.shape)
    S = sp.csr_matrix((index.size,) * 2)
    for axis, M, across in op.terms():
        r, c = np.nonzero(M)
        along = np.moveaxis(index, axis, 0)
        S = S + sp.csr_matrix((np.multiply.outer(M[r, c], across).ravel(),
                               (along[r].ravel(), along[c].ravel())),
                              shape=S.shape)
    return S


def separable_factors(op: TensorOperator, layers=slice(None)):
    """The (C, h1, h2) of `solve_separable` for the column `layers` of `op`
    on a uniform horizontal grid, whose interior has W = d I and K = L / d
    with d = w[1]: C = d1 d2 Cz, h1 = (d2 / d1) G1, h2 = (d1 / d2) G2."""
    d1, d2 = op.w1[1], op.w2[1]
    return (d1 * d2 * op.cz[layers, layers], d2 / d1 * op.g1[layers],
            d1 / d2 * op.g2[layers])


def mode_eigenvalues(m: int, basis: str) -> np.ndarray:
    """mu_k = 2 - 2 cos(pi k / n) of the 1-D second difference on m
    unknowns that `basis` diagonalizes, in transform order."""
    _, _, kind, first = _BASES[basis]
    k = np.arange(m) + first
    return 2.0 - 2.0 * np.cos(np.pi * k / (m + (kind == 1)))


def _mode_matrix(C: np.ndarray, h1: np.ndarray, h2: np.ndarray,
                 m1: int, m2: int, basis: str,
                 pin: int | None = None) -> sp.csc_matrix:
    """The mode-major block matrix kron(I, C) + diags(mu1 h1 + mu2 h2) of an
    (m1, m2) horizontal grid in `basis`, one column block per mode, written
    directly in CSC (SuperLU's format) with the entries and pattern of that
    sum: C off the diagonal, C + shift on it, exact zeros dropped.  `pin`
    names a row of mode (0, 0) that becomes the gauge row x = 0."""
    nz = C.shape[0]
    shift = (mode_eigenvalues(m1, basis)[:, None, None] * h1
             + mode_eigenvalues(m2, basis)[None, :, None] * h2
             ).reshape(-1, nz)
    # the pattern of one block in CSC order, with its whole diagonal
    c, r = np.nonzero(((C != 0) | np.eye(nz, dtype=bool)).T)
    vals = np.tile(C[r, c], (len(shift), 1))
    vals[:, r == c] += shift
    if pin is not None:
        vals[0, r == pin] = 0.0
        vals[0, (r == pin) & (c == pin)] = 1.0
    counts = np.tile(np.bincount(c, minlength=nz), len(shift))
    M = sp.csc_matrix((vals.ravel(),
                       (nz * np.arange(len(shift))[:, None] + r).ravel(),
                       np.concatenate(([0], np.cumsum(counts)))),
                      shape=(shift.size,) * 2)
    M.eliminate_zeros()
    return M


def solve_separable(C: np.ndarray, h1: np.ndarray, h2: np.ndarray,
                    rhs: np.ndarray, basis: str, pin: int | None = None):
    """Solve (I (x) C + L1 (x) I (x) diag(h1) + I (x) L2 (x) diag(h2)) x = rhs
    mode by mode, for rhs of shape (m1, m2, nz).

    L1 and L2 are the 1-D second differences that `basis` diagonalizes, with
    eigenvalues mu_k = 2 - 2 cos(pi k / n).  The orthonormal transform of
    axes 0 and 1 turns the system into one column block
    C + diag(mu1_k1 h1 + mu2_k2 h2) per mode (k1, k2).  All blocks go to one
    sparse solve in SuperLU's natural column order: each block is banded
    like C, so the factors add no fill outside the bands.  `pin` names a
    row of mode (0, 0) that is replaced by the gauge x = 0, for a singular
    column with a compatible right-hand side.

    Returns (x, residual of the mode system).
    """
    forward, inverse, kind, _ = _BASES[basis]
    m1, m2, _ = rhs.shape
    M = _mode_matrix(C, h1, h2, m1, m2, basis, pin)
    rhs_hat = forward(rhs, type=kind, axes=(0, 1), norm="ortho").ravel()
    if pin is not None:
        rhs_hat[pin] = 0.0
    x_hat, residual = solve_sparse(M, rhs_hat, **_BANDED_LU)
    x = inverse(x_hat.reshape(rhs.shape), type=kind, axes=(0, 1),
                norm="ortho")
    return x, residual


def separable_inverse(C: np.ndarray, h1: np.ndarray, h2: np.ndarray,
                      shape: tuple[int, int, int], basis: str):
    """The inverse of the separable operator of `solve_separable` on
    unknowns of `shape`, as a function of a flat right-hand side.  The mode
    matrix is factored once, in its natural column order; each call
    transforms, back-substitutes and transforms back, so it serves as an
    iterative solver's preconditioner.
    """
    forward, inverse, kind, _ = _BASES[basis]
    M = _mode_matrix(C, h1, h2, shape[0], shape[1], basis)
    lu = spla.splu(M, **_BANDED_LU)

    def apply(r: np.ndarray) -> np.ndarray:
        r_hat = forward(r.reshape(shape), type=kind, axes=(0, 1),
                        norm="ortho")
        x_hat = lu.solve(r_hat.ravel()).reshape(shape)
        return inverse(x_hat, type=kind, axes=(0, 1), norm="ortho").ravel()

    return apply


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
