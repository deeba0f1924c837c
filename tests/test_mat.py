"""The matrix helpers of gplab._mat, CSR and dense, against dense oracles.

Entries are drawn from a few dyadic values, so every sum and product the
helpers form is exact and results can be compared entry for entry.  Random
coordinate lists repeat coordinates, hold explicit zeros and cancel.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gplab import _mat
from util import (
    naive_components,
    naive_from_coo,
    naive_gram_blocks,
    naive_hermitian_min_eig,
    naive_mul,
    naive_norm2,
)

VALUES = (0.0, 1.0, -1.0, 2.5, 1j, -0.5j, 0.25 + 2j, -3.0)
MAX_DIM = 6


@st.composite
def coo(draw, nr=None, nc=None):
    """(rows, cols, data, shape) with nr x nc drawn unless given."""
    nr = draw(st.integers(0, MAX_DIM)) if nr is None else nr
    nc = draw(st.integers(0, MAX_DIM)) if nc is None else nc
    n = draw(st.integers(0, 3 * nr * nc)) if nr and nc else 0
    rows = draw(st.lists(st.integers(0, max(nr - 1, 0)), min_size=n, max_size=n))
    cols = draw(st.lists(st.integers(0, max(nc - 1, 0)), min_size=n, max_size=n))
    data = draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n))
    return rows, cols, data, (nr, nc)


def _kinds(rows, cols, data, shape):
    """The same matrix as a dense array and as a CSR value."""
    return naive_from_coo(rows, cols, data, shape), _mat._csr(rows, cols, data, shape)


def _assert_canonical(m):
    """Row pointers, sorted distinct columns per row, no stored zeros."""
    assert isinstance(m, _mat.CSR)
    nr, nc = m.shape
    assert len(m.indptr) == nr + 1 and m.indptr[0] == 0 and m.indptr[-1] == len(m.indices) == len(m.data)
    assert np.all(np.diff(m.indptr) >= 0)
    assert np.all((m.indices >= 0) & (m.indices < max(nc, 1)))
    for i in range(nr):
        assert np.all(np.diff(m.indices[m.indptr[i]: m.indptr[i + 1]]) > 0)
    assert np.all(m.data != 0)


def _dense(m) -> np.ndarray:
    if isinstance(m, _mat.CSR):
        _assert_canonical(m)
    return _mat.to_dense(m)


@settings(deadline=None)
@given(coo())
def test_csr_from_coo_sums_duplicates_and_drops_zeros(t):
    want, got = _kinds(*t)
    assert np.array_equal(_dense(got), want)
    rows, cols, data = _mat.coo_parts(got)
    assert np.array_equal(naive_from_coo(rows, cols, data, t[3]), want)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_from_coo_picks_kind_by_dimension(data):
    dim = data.draw(st.sampled_from([_mat.DENSE_CUTOFF - 1, _mat.DENSE_CUTOFF]))
    rows, cols, vals, _ = data.draw(coo(MAX_DIM, MAX_DIM))
    rows = [r * (dim // MAX_DIM) for r in rows]  # spread over the whole dimension
    got = _mat.from_coo(rows, cols, vals, dim)
    assert isinstance(got, _mat.CSR) == (dim >= _mat.DENSE_CUTOFF)
    assert np.array_equal(_dense(got), naive_from_coo(rows, cols, vals, (dim, dim)))


@pytest.mark.parametrize("dim", [0, 3, _mat.DENSE_CUTOFF - 1, _mat.DENSE_CUTOFF, _mat.DENSE_CUTOFF + 5])
def test_zeros_eye_diag(dim):
    rng = np.random.default_rng(dim)
    vec = rng.choice(np.array(VALUES), dim)
    for got, want in ((_mat.zeros(dim), np.zeros((dim, dim))), (_mat.eye(dim), np.eye(dim)), (_mat.diag(vec), np.diag(vec))):
        assert isinstance(got, _mat.CSR) == (dim >= _mat.DENSE_CUTOFF)
        assert (got.data if isinstance(got, _mat.CSR) else got).dtype == complex
        assert np.array_equal(_dense(got), want)


def test_diag_copies_its_vector():
    vec = np.ones(_mat.DENSE_CUTOFF, dtype=complex)
    m = _mat.diag(vec)
    m.data[:] = 5.0
    assert np.all(vec == 1.0)


@settings(deadline=None)
@given(st.data())
def test_mul(data):
    nr, k, nc = (data.draw(st.integers(0, MAX_DIM)) for _ in range(3))
    da, sa = _kinds(*data.draw(coo(nr, k)))
    db, sb = _kinds(*data.draw(coo(k, nc)))
    want = naive_mul(da, db)
    assert np.array_equal(_dense(_mat.mul(sa, sb)), want)
    assert np.array_equal(_mat.mul(da, db), want)


@settings(deadline=None)
@given(st.data())
def test_add_sub_scale(data):
    a = data.draw(coo())
    b = data.draw(coo(*a[3]))
    s = data.draw(st.sampled_from(VALUES))
    da, sa = _kinds(*a)
    db, sb = _kinds(*b)
    for got, dense_got, want in (
        (_mat.add(sa, sb), _mat.add(da, db), da + db),
        (_mat.sub(sa, sb), _mat.sub(da, db), da - db),
        (_mat.sub(sa, sa), _mat.sub(da, da), np.zeros(a[3])),
    ):
        assert np.array_equal(_dense(got), want)
        assert np.array_equal(dense_got, want)
    scaled = _mat.scale(sa, s)
    assert np.array_equal(_mat.to_dense(scaled), da * s)
    assert np.array_equal(_mat.scale(da, s), da * s)


@settings(deadline=None)
@given(coo())
def test_adjoint_to_dense_entry_coo_parts(t):
    da, sa = _kinds(*t)
    assert np.array_equal(_dense(_mat.adjoint(sa)), da.conj().T)
    assert np.array_equal(_mat.adjoint(da), da.conj().T)
    assert np.array_equal(_mat.to_dense(da), da)
    for m in (da, sa):
        for i in range(t[3][0]):
            for j in range(t[3][1]):
                assert _mat.entry(m, i, j) == da[i, j]
        rows, cols, vals = _mat.coo_parts(m)
        assert np.array_equal(naive_from_coo(rows, cols, vals, t[3]), da)


@settings(deadline=None)
@given(st.data())
def test_diagonal_and_principal_parts(data):
    n = data.draw(st.integers(0, MAX_DIM))
    t = data.draw(coo(n, n))
    idx = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
    da, sa = _kinds(*t)
    for m in (da, sa):
        d = _mat.diagonal(m)
        assert np.array_equal(d, np.diagonal(da))
        d[:] = 7.0  # a new vector, not a view
        assert np.array_equal(_mat.to_dense(m), da)
        rows, cols, vals = _mat.principal_parts(m, np.array(idx, dtype=int))
        assert np.array_equal(naive_from_coo(rows, cols, vals, (len(idx), len(idx))), da[np.ix_(idx, idx)])


@settings(deadline=None)
@given(st.data())
def test_matvec_vecmat(data):
    t = data.draw(coo())
    nr, nc = t[3]
    u = np.array(data.draw(st.lists(st.sampled_from(VALUES), min_size=nr, max_size=nr)), dtype=complex)
    v = np.array(data.draw(st.lists(st.sampled_from(VALUES), min_size=nc, max_size=nc)), dtype=complex)
    da, sa = _kinds(*t)
    for m in (da, sa):
        assert np.array_equal(_mat.matvec(m, v), naive_mul(da, v[:, None])[:, 0])
        assert np.array_equal(_mat.vecmat(u, m), naive_mul(u[None, :], da)[0])


@settings(deadline=None)
@given(st.data())
def test_gram_blocks(data):
    t = data.draw(coo(nc=data.draw(st.integers(1, MAX_DIM))))
    nc = t[3][1]
    labels = np.array(data.draw(st.lists(st.integers(0, 2), min_size=nc, max_size=nc)))
    da, sa = _kinds(*t)
    want = naive_gram_blocks(da, labels)
    assert np.array_equal(_dense(_mat.gram_blocks(sa, labels)), want)
    assert np.array_equal(_mat.gram_blocks(da, labels), want)


@settings(deadline=None)
@given(coo())
def test_norm2(t):
    da, sa = _kinds(*t)
    want = naive_norm2(da)
    for m in (da, sa):
        assert abs(_mat.norm2(m) - want) <= 1e-12 * max(want, 1.0)


@settings(deadline=None)
@given(st.data())
def test_hermitian_min_eig(data):
    """Against eigvalsh of the whole dense Hermitian part: indices that carry
    no entry add 0, and a matrix stored in full adds none."""
    n = data.draw(st.integers(0, MAX_DIM))
    rows, cols, vals, _ = data.draw(coo(n, n))
    shift = data.draw(st.sampled_from([0.0, 0.5, -0.5]))
    if data.draw(st.booleans()):  # every index carries an entry
        rows, cols, vals = rows + list(range(n)), cols + list(range(n)), vals + [shift] * n
    a = naive_from_coo(rows, cols, vals, (n, n))
    want = naive_hermitian_min_eig(a) if n else 0.0
    for m in (a, _mat._csr(rows, cols, vals, (n, n))):
        r, c, d = _mat.coo_parts(m)
        assert abs(_mat.hermitian_min_eig(r, c, d, n) - want) <= 1e-12 * max(1.0, abs(want))


def test_hermitian_min_eig_examples():
    eye = np.arange(4)
    assert _mat.hermitian_min_eig(eye, eye, np.ones(4, dtype=complex), 4) == 1.0
    assert _mat.hermitian_min_eig(eye, eye, np.ones(4, dtype=complex), 5) == 0.0
    assert _mat.hermitian_min_eig(eye[:0], eye[:0], np.zeros(0, dtype=complex), 3) == 0.0
    # a 2x2 component whose Hermitian part is [[1, 2], [2, 1]], eigenvalues -1 and 3
    got = _mat.hermitian_min_eig(np.array([0, 0, 1]), np.array([0, 1, 1]), np.array([1, 4, 1], dtype=complex), 2)
    assert abs(got + 1.0) < 1e-14


@settings(deadline=None)
@given(coo())
def test_block_norms(t):
    """One norm per component of the row/column graph, with a row of it,
    against SVDs of the dense blocks the union-find oracle picks out."""
    da, sa = _kinds(*t)
    rows, cols, vals = _mat.coo_parts(sa)
    norms, first = _mat.block_norms(rows, cols, vals)
    comps = naive_components(da, square=False)
    assert len(norms) == len(first) == len(comps)
    want = {
        frozenset(r): float(np.linalg.svd(da[np.ix_(r, c)], compute_uv=False).max()) for r, c in comps
    }
    for nm, row in zip(norms, first):
        block = next(r for r in want if row in r)
        assert abs(nm - want[block]) <= 1e-12 * max(1.0, want[block])
    assert {next(r for r in want if row in r) for row in first} == set(want)


# -- trivial structures read without LAPACK -------------------------------------------


def _cplx(rng, *shape) -> np.ndarray:
    """Random complex entries with magnitudes spread over four decades."""
    return 10.0 ** rng.uniform(-3, 1, shape) * np.exp(2j * np.pi * rng.random(shape))


def _monomial(dim: int, rng, zeros: bool) -> _mat.CSR:
    """A dim x dim permutation matrix times phases and magnitudes, with some
    rows left empty and, if `zeros`, some entries stored as 0."""
    has = rng.random(dim) < 0.8
    data = _cplx(rng, int(has.sum()))
    if zeros:
        data[rng.random(len(data)) < 0.2] = 0.0
    indptr = np.zeros(dim + 1, dtype=np.intp)
    np.cumsum(has, out=indptr[1:])
    return _mat.CSR(indptr, rng.permutation(dim)[has], data, (dim, dim))


def _direct_sum(shapes, dim: int, rng) -> _mat.CSR:
    """Random blocks of the given shapes down the diagonal of a dim x dim
    zero matrix, rows and columns then shuffled."""
    out = np.zeros((dim, dim), dtype=complex)
    r = c = 0
    for h, w in shapes:
        out[r: r + h, c: c + w] = _cplx(rng, h, w)
        r, c = r + h, c + w
    out = out[rng.permutation(dim)][:, rng.permutation(dim)]
    rows, cols = np.nonzero(out)
    return _mat._csr(rows, cols, out[rows, cols], out.shape)


def _check_block_norms(m: _mat.CSR):
    """block_norms of m's stored entries against SVDs of the dense blocks
    that the union-find oracle picks out; a row that stores only zeros is a
    component of norm 0."""
    dense = _mat.to_dense(m)
    want = {frozenset(r): naive_norm2(dense[np.ix_(r, c)]) for r, c in naive_components(dense, square=False)}
    norms, first = _mat.block_norms(*_mat.coo_parts(m))
    found = set()
    for nm, row in zip(norms, first):
        block = next((r for r in want if row in r), None)
        if block is None:
            assert nm == 0.0 and not dense[row].any()
            continue
        found.add(block)
        assert abs(nm - want[block]) <= 1e-12 * want[block]
    assert found == set(want)


def _svd_calls(lapack_calls, fn, *args):
    lapack_calls.clear()
    out = fn(*args)
    return out, [shape for name, shape in lapack_calls if name == "svd"]


@pytest.mark.parametrize("dim", [1, 5, _mat.DENSE_CUTOFF, 700])
def test_monomial_norms_skip_lapack(dim, lapack_calls):
    """A matrix with at most one entry per row and per column, stored zeros
    included, has the norm of its largest entry and one 1x1 component per
    entry, read with no SVD."""
    rng = np.random.default_rng(dim)
    for trial in range(6):
        m = _monomial(dim, rng, zeros=trial % 2 == 1)
        want = naive_norm2(m)
        got, svd = _svd_calls(lapack_calls, _mat.norm2, m)
        assert svd == []
        assert abs(got - want) <= 1e-12 * want
        _, svd = _svd_calls(lapack_calls, _mat.block_norms, *_mat.coo_parts(m))
        assert svd == []
        _check_block_norms(m)


@pytest.mark.parametrize("square_sides", [(), (2,), (2, 3, 5), (4, 4)])
def test_direct_sum_norms_take_one_svd_per_square_shape(square_sides, lapack_calls):
    """Direct sums of 1x1, kx1 and 1xk blocks, and of kxk blocks for the
    given sides, inside a 300 x 300 matrix: norm2 and block_norms agree with
    the dense oracle to 1e-12, read the 1x1 and vector blocks with no SVD,
    and make one batched SVD per distinct square shape."""
    rng = np.random.default_rng(sum(square_sides) + 17)
    shapes = [s for k in (2, 3, 5) for s in [(1, 1), (k, 1), (1, k)] for _ in range(2)]
    shapes += [(k, k) for k in square_sides]
    for _ in range(4):
        m = _direct_sum([shapes[i] for i in rng.permutation(len(shapes))], 300, rng)
        want = naive_norm2(m)
        got, svd = _svd_calls(lapack_calls, _mat.norm2, m)
        assert abs(got - want) <= 1e-12 * want
        assert sorted(svd) == sorted((square_sides.count(k), k, k) for k in set(square_sides))
        _, svd = _svd_calls(lapack_calls, _mat.block_norms, *_mat.coo_parts(m))
        assert len(svd) == len(set(square_sides))
        _check_block_norms(m)


@pytest.mark.parametrize("n", [4, 300])
def test_diagonal_min_eig_skips_lapack(n, lapack_calls):
    """Entries all on the diagonal, repeated ones summed: the least real
    part, 0 joining it where an index carries no entry, with no LAPACK
    call."""
    rng = np.random.default_rng(n)
    for every in (True, False):
        idx = np.arange(n) if every else rng.choice(n, n // 2, replace=False)
        idx = np.concatenate((idx, idx[: len(idx) // 3]))
        vals = _cplx(rng, len(idx)) + 0.5
        want = naive_hermitian_min_eig(naive_from_coo(idx, idx, vals, (n, n)))
        lapack_calls.clear()
        got = _mat.hermitian_min_eig(idx, idx, vals, n)
        assert lapack_calls == []
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
