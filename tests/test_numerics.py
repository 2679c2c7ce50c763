"""Tests for the shared numerics helpers."""

import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import hash_u64_numpy
from fisshom._numerics import (_FSUM_CHUNK, fsum, gauss_legendre, gmres,
                               hash_u64, panel_quadrature, positive_diagonal,
                               row_fsums, solve_sparse)
from fisshom.stochastic import ProcessParams, build_path


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


_HASH_KEYS = [
    (), (0,), (-1,), (7, 1, -3), (2**63 - 1,), (2**63,), (2**64 - 1,),
    (-2**63,), (np.asarray(5),), (np.asarray(-5, dtype=np.int32), 3),
    (np.int32(-7), np.uint64(2**64 - 1)), (3, np.uint64(2**63)),
    (11, np.arange(-3, 4)), (np.arange(3)[:, None], np.arange(4), -2),
    (np.uint8(200), np.array([2**63, 2**64 - 1], dtype=np.uint64), 9),
    (np.arange(0), 4),
]


def _assert_same_hash(got, want):
    assert type(got) is type(want)
    assert got.dtype == want.dtype
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("keys", _HASH_KEYS, ids=range(len(_HASH_KEYS)))
def test_hash_matches_the_numpy_route(keys):
    # scalar keys are mixed in Python integers; value, dtype and type must
    # be those of the all-numpy splitmix64
    _assert_same_hash(hash_u64(*keys), hash_u64_numpy(*keys))


_KEY = st.one_of(
    st.integers(-2**63, 2**64 - 1),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-2**31, 2**31 - 1).map(lambda k: np.asarray(k, np.int32)),
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=3,
             max_size=3).map(np.array))


@settings(max_examples=300, deadline=None)
@given(st.lists(_KEY, max_size=5))
def test_hash_matches_the_numpy_route_on_drawn_keys(keys):
    _assert_same_hash(hash_u64(*keys), hash_u64_numpy(*keys))


def test_hash_golden_values():
    # captured before the scalar route existed, so that a fault shared by
    # the kernel and its oracle still shows
    assert hash_u64(0) == 0x481EC0A212A9F3DB
    assert hash_u64(7, 1, -3) == 0x4E24E23F8C88CFB8
    assert hash_u64(2**63, -2**63, np.array([0, 1, -1])).tolist() == [
        0x143CCAEB8B23887C, 0xD4224F3869CBA32F, 0x4314E6DB506677CD]


@pytest.mark.parametrize("lead", [(), (3,), (np.arange(2),)],
                         ids=["alone", "after_scalar", "after_array"])
@pytest.mark.parametrize("key", [True, 1.5, 2**64, -2**63 - 1])
def test_hash_rejects_non_integer_and_wide_keys(lead, key):
    with pytest.raises(TypeError):
        hash_u64(*lead, key)


def _fsum_rows(x):
    return np.array([math.fsum(r) for r in x.tolist()], dtype=float)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


_TERMS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -1.0,
                     2.0**-53, 1e300, -1e300, 1e-300, -1e-300]),
    st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300),
    st.floats(-1e8, 1e8))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 200).flatmap(lambda n: st.lists(
    _TERMS, min_size=2 * n, max_size=2 * n).map(
        lambda v: np.array(v, dtype=float).reshape(2, n))))
def test_row_fsums_match_math_fsum_on_drawn_rows(x):
    _assert_same_bits(row_fsums(x), _fsum_rows(x))


_ULP = 2.0**-52
# rows no error bound settles: each exact sum lies on, or within 2^-110
# of, a tie between two neighbouring floats, or is zero, subnormal or far
# below the size of its terms
_NEAR_TIES = [
    [1.0, _ULP / 2], [1.0, 3 * _ULP / 2], [1.0, -_ULP / 4],
    [1.0, _ULP / 2, 2.0**-110], [1.0, _ULP / 2, -2.0**-110],
    [2.0, -_ULP / 2], [2.0, -_ULP / 2, 2.0**-110],
    [2.0, -_ULP / 2, -2.0**-110],
    [1e16, 1.0, 2.0**-60], [1e16, 1.0, -2.0**-60], [-0.0, -0.0], [-0.0],
    [0.0, -0.0], [1.0, -1.0], [1e100, 1.0, -1e100], [5e-324, 5e-324, -5e-324],
]


def _padded(rows):
    """Rows of different lengths as one array, padded with +0.0 (which
    leaves every sum but that of all -0.0 unchanged)."""
    width = max(len(r) for r in rows) + 3
    return np.array([r + [0.0] * (width - len(r)) for r in rows])


def test_row_fsums_match_math_fsum_on_adversarial_rows():
    rng = np.random.default_rng(40)
    smooth = 1.0 + 0.1 * np.cos(np.linspace(0.0, 9.0, 7 * 73)).reshape(7, 73)
    cancel = (rng.standard_normal((6, 199))
              * 10.0 ** rng.integers(-8, 9, (6, 199)))
    cancel[:, 0], cancel[:, 1] = 1e16, -1e16
    for x in (_padded(_NEAR_TIES), np.array([r for r in _NEAR_TIES if
                                             len(r) == 2]),
              smooth, 1e8 * smooth, 1e-8 * smooth, -smooth, cancel,
              np.ldexp(1.0, rng.integers(-30, 30, (5, 64))),
              np.ones((3, 1)), np.full((2, 5), -0.0), np.zeros((3, 0)),
              np.zeros((0, 4))):
        _assert_same_bits(row_fsums(x), _fsum_rows(x))


@pytest.mark.parametrize("row", [
    [np.nan, 1.0], [1.0, np.inf, 2.0], [-np.inf, 3.0],
    [1e308, -1e308, np.nan]])
def test_row_fsums_keep_nan_and_inf(row):
    x = _padded([row, [1.0, 2.0, 3.0]])
    got = row_fsums(x)
    _assert_same_bits(got, _fsum_rows(x))
    assert np.isnan(got[0]) == np.isnan(row).any()
    assert got[1] == 6.0


@pytest.mark.parametrize("row, error", [
    ([1e308, 1e308, -1e308], OverflowError), ([np.inf, -np.inf], ValueError)])
def test_row_fsums_raise_as_math_fsum_raises(row, error):
    with pytest.raises(error) as want:
        math.fsum(row)
    with pytest.raises(error) as got:
        row_fsums(_padded([[1.0, 2.0, 3.0], row]))
    assert str(got.value) == str(want.value)


def _counting_fsum(monkeypatch):
    calls = []
    real = math.fsum

    def counting(values):
        calls.append(1)
        return real(values)

    monkeypatch.setattr(math, "fsum", counting)
    return calls


def test_row_fsums_fall_back_on_near_ties(monkeypatch):
    x = _padded(_NEAR_TIES)
    want = _fsum_rows(x)
    calls = _counting_fsum(monkeypatch)
    _assert_same_bits(row_fsums(x), want)
    assert len(calls) == len(x)


def _is_tie(row, rounded) -> bool:
    """Whether the exact sum of `row` is halfway between `rounded` and a
    neighbouring float."""
    off = sum(map(Fraction, row), Fraction(0)) - Fraction(rounded)
    return any(off == (Fraction(float(np.nextafter(rounded, side)))
                       - Fraction(rounded)) / 2
               for side in (-math.inf, math.inf))


def test_row_fsums_settle_smooth_window_rows(monkeypatch):
    # the weighted samples of a Fourier path on 64 windows: the certificate
    # settles every row whose exact sum is not a tie, so math.fsum runs
    # only for the ties
    q = build_path(ProcessParams(kind="aperture_q", mean=0.5,
                                 amplitudes=(0.08, 0.05),
                                 frequencies=(1.0, math.sqrt(2.0)), seed=7,
                                 lower_bound=0.3, upper_bound=0.7))
    edges = np.linspace(-800.0, 800.0, 65)
    nodes, weights = panel_quadrature(edges[:-1], edges[1:], 12, 6)
    x = np.concatenate([weights * q(nodes), weights / q(nodes) ** 2])
    want = _fsum_rows(x)
    ties = sum(_is_tie(row, h) for row, h in zip(x.tolist(), want))
    assert ties < len(x) // 10
    calls = _counting_fsum(monkeypatch)
    _assert_same_bits(row_fsums(x), want)
    assert len(calls) == ties


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
