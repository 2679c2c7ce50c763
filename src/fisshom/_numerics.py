"""Shared low-level numerics: seeding, quadrature, exact sums,
finite-volume assembly, sparse and Krylov solvers, and the separable bed
operators.

Everything here is deliberately boring.  Deterministic seeding uses
splitmix64 so that per-index draws are stateless and identical across
platforms and vectorization widths; scalar keys mix in Python integers.

A bed operator on a horizontally uniform tensor grid, whose column axis
stacks both beds, is described once by its 1-D factors (`TensorOperator`).
They apply it in tensor form, each by its nonzero diagonals (`bands`), and
give its largest entry.  They also give the tridiagonal column systems of
the mode-by-mode solve (the fast diagonalization method of Lynch, Rice &
Thomas 1964): SuperLU factors them in natural order, without fill
(`solve_separable`), or one batched LU factors them all together and
dense orthonormal transform matrices replace the FFTs
(`separable_inverse`).  The tests keep the Kronecker sum of the factors
and the face-by-face COO assemblies of both bed matrices as their
references.

Non-separable systems go to a small restarted GMRES (`gmres`,
right-preconditioned, CGS2 Arnoldi with Givens rotations), which accepts a
solution only on its true residual; SuperLU (`solve_sparse`) remains the
direct fallback.  `fsum` sums exactly with bounded memory; `row_fsums`
gives `math.fsum` of each row of an array to the bit, by a certified
double-double sum, and calls `math.fsum` only for rows it cannot settle.
"""

from __future__ import annotations

import functools
import itertools
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


def _splitmix64_int(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _U64_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MASK
    return z ^ (z >> 31)


def hash_u64(*keys: int | np.ndarray) -> np.ndarray | np.uint64:
    """Stateless hash of an integer key tuple to uint64 (splitmix64).

    Arrays broadcast; negative integers are zigzag-encoded first so that
    indices from a doubly infinite lattice hash distinctly.  Scalar keys up
    to the first array are mixed in Python integers, the rest in numpy, to
    the same bits; all-scalar keys (0-d arrays too) give an `np.uint64`.
    """
    acc = 0x8000000000000000
    for i, k in enumerate(keys):
        if not (type(k) is int and -(1 << 63) <= k < 1 << 64 or isinstance(
                k, np.integer) or isinstance(k, np.ndarray) and k.ndim == 0
                and k.dtype.kind in "iu"):
            break
        s = (int(k) + (1 << 63)) % (1 << 64) - (1 << 63)  # as int64 wraps
        acc = _splitmix64_int(acc ^ (s << 1) ^ (s >> 63))
    else:
        return np.uint64(acc)
    with np.errstate(over="ignore"):
        for k in keys[i:]:
            a = np.asarray(k)
            if a.dtype.kind not in "iu":
                raise TypeError("hash keys must be integers")
            s = a.astype(np.int64)
            acc = _splitmix64(acc ^ ((s << 1) ^ (s >> 63)).astype(np.uint64))
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


# elements that `fsum` converts to Python floats at a time
_FSUM_CHUNK = 4096


def fsum(values) -> float:
    """The exactly rounded sum of `values` (`math.fsum`), fed chunk by
    chunk so that only `_FSUM_CHUNK` of them exist as Python floats at
    once; exact rounding makes it independent of the chunking."""
    flat = np.asarray(values, dtype=float).ravel()
    return math.fsum(itertools.chain.from_iterable(
        flat[i:i + _FSUM_CHUNK].tolist()
        for i in range(0, flat.size, _FSUM_CHUNK)))


def _two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def row_fsums(x) -> np.ndarray:
    """`math.fsum` of each row of a 2-D array, bit for bit, vectorized.

    n columns are summed pairwise in double-double, TwoSum at every merge
    (`+` and `-` only); an odd column waits for the end.  A term passes
    fewer than d = 2 bit_length(n) merges, each erring by at most about
    3 2^-106 times its inputs' magnitude, so hi + lo is within
    8 (d + 1) 2^-106 sum|x| of the row's sum.  hi is its rounding if |lo|
    plus that bound is below half the gap to the next float (a quarter at a
    power of two); other rows (near-ties; zero, tiny, huge or non-finite
    sums) go to `math.fsum`, which keeps its signed zeros and its errors.
    """
    x = np.asarray(x, dtype=float)
    if not (n := x.shape[1]):
        return np.zeros(len(x))
    # columns as contiguous rows, so that each merge adds contiguous halves
    hi, lo, spare = np.ascontiguousarray(x.T), None, []
    with np.errstate(over="ignore", invalid="ignore"):
        while len(hi) > 1:
            h = len(hi) // 2
            if len(hi) % 2:
                spare.append((hi[-1], 0.0 if lo is None else lo[-1]))
            s, e = _two_sum(hi[:h], hi[h:2 * h])
            # double-double: add the low parts to the error, renormalize
            hi, lo = (s, e) if lo is None else _two_sum(
                s, e + (lo[:h] + lo[h:2 * h]))
        hi, lo = hi[0], 0.0 if lo is None else lo[0]
        for spare_hi, spare_lo in spare:
            s, e = _two_sum(hi, spare_hi)
            hi, lo = _two_sum(s, e + (lo + spare_lo))
        bound = (16 * n.bit_length() + 8) * 2.0**-106 * np.abs(x).sum(1)
        mag = np.abs(hi)
        gap = np.spacing(mag) * np.where(np.frexp(mag)[0] == 0.5, 0.25, 0.5)
        ok = (abs(lo) + bound < gap) & (mag >= 2.0**-900) & (mag <= 2.0**1000)
    out = np.where(ok, hi, 0.0)
    for i in np.flatnonzero(~ok):
        out[i] = math.fsum(x[i].tolist())
    return out


def max_or_nan(values, default: float = -math.inf) -> float:
    """The largest of `values` (`default` if none), or NaN if any is NaN:
    the builtin `max` keeps a NaN only in first place (max(0.0, nan) is 0)."""
    values = [float(v) for v in values]
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values, default=default)


def min_or_nan(values) -> float:
    """The smallest of `values`, or NaN when any of them is NaN."""
    return -max_or_nan(-float(v) for v in values)


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


def bands(M: np.ndarray, axis: int, ndim: int = 3):
    """Each nonzero diagonal of the square 1-D factor M acting along `axis`
    of an `ndim`-dimensional array, in column order: its offset s, the index
    tuples of the rows i and of the columns i + s that it couples, and its
    entries M[i, i + s] shaped to broadcast along `axis`."""
    r, c = np.nonzero(M)
    for s in np.unique(c - r).tolist():
        rows, cols = [slice(None)] * ndim, [slice(None)] * ndim
        rows[axis] = slice(max(0, -s), len(M) - max(0, s))
        cols[axis] = slice(max(0, s), len(M) - max(0, -s))
        yield s, tuple(rows), tuple(cols), np.diagonal(M, s).reshape(
            [-1 if a == axis else 1 for a in range(ndim)])


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
    numbered (i1, i2, k) in C order."""

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
        """(axis, M, across) of each Kronecker term, in the order the
        matrix of S sums them: the 1-D factor M along `axis`, and the
        product of the two diagonals across that axis, shaped as the other
        two axes."""
        return ((2, self.cz, np.multiply.outer(self.w1, self.w2)),
                (0, self.k1, np.multiply.outer(self.w2, self.g1)),
                (1, self.k2, np.multiply.outer(self.w1, self.g2)))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """S x in tensor form: each 1-D factor acts along its axis by its
        nonzero diagonals (`bands`), summed in column order as a sparse row
        product sums them, so neither the 3-D matrix nor a BLAS kernel
        enters."""
        x = x.reshape(self.shape)
        y = np.zeros(self.shape)
        for axis, M, across in self.terms():
            Mx = np.zeros(self.shape)
            for _, rows, cols, m in bands(M, axis):
                Mx[rows] += m * x[cols]
            y += Mx * np.expand_dims(across, axis)
        return y.ravel()

    def max_abs(self) -> float:
        """max|S| from the factors, equal bit for bit to the largest entry
        of its matrix: an off-diagonal entry comes from one term, and a
        diagonal one sums the three terms in the order of `terms`."""
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


def _mode_shift(h1, h2, m1: int, m2: int, basis: str) -> np.ndarray:
    """mu1 h1 + mu2 h2 of each mode of an (m1, m2) horizontal grid in
    `basis`: one row per mode, in transform order."""
    return (mode_eigenvalues(m1, basis)[:, None, None] * h1
            + mode_eigenvalues(m2, basis)[None, :, None] * h2
            ).reshape(m1 * m2, -1)


def _mode_matrix(C: np.ndarray, h1: np.ndarray, h2: np.ndarray,
                 m1: int, m2: int, basis: str,
                 pin: int | None = None) -> sp.csc_matrix:
    """The mode-major block matrix kron(I, C) + diags(mu1 h1 + mu2 h2) of an
    (m1, m2) horizontal grid in `basis`, one column block per mode, written
    directly in CSC (SuperLU's format) with the entries and pattern of that
    sum: C off the diagonal, C + shift on it, exact zeros dropped.  `pin`
    names a row of mode (0, 0) that becomes the gauge row x = 0."""
    nz = C.shape[0]
    shift = _mode_shift(h1, h2, m1, m2, basis)
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


def transform_matrix(m: int, basis: str) -> np.ndarray:
    """The orthonormal 1-D transform of `basis` on m points as a dense
    matrix T: T @ x transforms x along axis 0, and T.T inverts it."""
    forward, _, kind, _ = _BASES[basis]
    return forward(np.eye(m), type=kind, axes=(0,), norm="ortho")


def separable_inverse(C: np.ndarray, h1: np.ndarray, h2: np.ndarray,
                      shape: tuple[int, int, int], basis: str):
    """The inverse of the separable operator of `solve_separable` on
    unknowns of `shape`, as a function of a flat right-hand side: an
    iterative solver's preconditioner.  Set-up factors all mode blocks
    C + diag(mu1 h1 + mu2 h2) by one batched LU without pivoting, vectorized
    over the modes, and writes both horizontal transforms as dense matrices
    (`transform_matrix`).  Each call transforms by matrix products, sweeps
    in place with reciprocal pivots and transforms back; no FFT runs.
    Raises ValueError unless C is tridiagonal and every pivot is positive
    and finite, as the M-matrix sign pattern of the bed operators ensures."""
    m1, m2, nz = shape
    if np.any(np.triu(C, 2)) or np.any(np.tril(C, -2)):
        raise ValueError("column operator is not tridiagonal")
    lower, upper = np.diagonal(C, -1), np.diagonal(C, 1)
    pivots = np.diagonal(C)[:, None] + _mode_shift(h1, h2, m1, m2, basis).T
    mults = np.zeros_like(pivots)
    with np.errstate(all="ignore"):
        for k in range(1, nz):
            mults[k] = lower[k - 1] / pivots[k - 1]
            pivots[k] -= mults[k] * upper[k - 1]
    # NaN compares False with any bound; no row depends on a later pivot
    bad = ~np.all((pivots > 0.0) & (pivots < np.inf), axis=1)
    if np.any(bad):
        raise ValueError(f"mode pivot {np.argmax(bad)} is not positive "
                         "and finite")
    inv = 1.0 / pivots
    T1, T2 = transform_matrix(m1, basis), transform_matrix(m2, basis)

    def apply(r: np.ndarray) -> np.ndarray:
        t = (T1 @ r.reshape(m1, m2 * nz)).reshape(m1, m2, nz)
        z = np.matmul(T2, t).reshape(m1 * m2, nz).T.copy()
        for k in range(1, nz):
            z[k] -= mults[k] * z[k - 1]
        z[-1] *= inv[-1]
        for k in range(nz - 2, -1, -1):
            z[k] -= upper[k] * z[k + 1]
            z[k] *= inv[k]
        t = np.matmul(T2.T, z.T.reshape(m1, m2, nz))
        return (T1.T @ t.reshape(m1, m2 * nz)).ravel()

    return apply


def gmres(matvec, b: np.ndarray, precondition, rtol: float, restart: int,
          cycles: int):
    """Restarted GMRES (Saad & Schultz 1986) for A x = b, with A given by
    its product `matvec`, right-preconditioned by M = `precondition`.

    Each cycle orthonormalizes the Krylov basis V of A M by classical
    Gram-Schmidt with one reorthogonalization (CGS2), makes its Hessenberg
    matrix triangular by Givens rotations, stops after `restart` steps or
    once the rotated residual reaches rtol ||b||, and adds M (V y) to x.  x
    is accepted only on its true residual, ||b - A x|| <= rtol ||b||,
    measured once per cycle.  Returns (x, iterations): x None when no cycle
    was accepted, iterations the Arnoldi steps of all cycles."""
    x = np.zeros_like(b)
    target = rtol * np.linalg.norm(b)
    r = b.copy()
    V = np.empty((restart + 1, b.size))
    iterations = 0
    for _ in range(cycles):
        beta = np.linalg.norm(r)
        if beta <= target:
            return x, iterations
        V[0] = r / beta
        R = np.zeros((restart, restart))
        g = [beta]
        rotations = []
        for j in range(restart):
            w = matvec(precondition(V[j]))
            iterations += 1
            h = V[:j + 1] @ w
            w -= h @ V[:j + 1]
            again = V[:j + 1] @ w
            w -= again @ V[:j + 1]
            column = (h + again).tolist()
            below = float(np.linalg.norm(w))
            for i, (c, s) in enumerate(rotations):
                column[i], column[i + 1] = (c * column[i] + s * column[i + 1],
                                            c * column[i + 1] - s * column[i])
            diagonal = math.hypot(column[j], below)
            c, s = column[j] / diagonal, below / diagonal
            rotations.append((c, s))
            column[j] = diagonal
            R[:j + 1, j] = column
            g[j:] = [c * g[j], -s * g[j]]
            # below == 0: the Krylov space holds the solution
            if abs(g[j + 1]) <= target or below == 0.0:
                break
            V[j + 1] = w / below
        k = len(rotations)
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - R[i, i + 1:k] @ y[i + 1:]) / R[i, i]
        x += precondition(y @ V[:k])
        r = b - matvec(x)
    return (x if np.linalg.norm(r) <= target else None), iterations


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
