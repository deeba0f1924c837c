"""The matrix helpers of gplab._mat against dense oracles, and the lean
CSR kernels bit for bit against the builder and product they replace.

Entries are drawn from a few dyadic values, so every sum and product the
helpers form is exact and results can be compared entry for entry.  Random
coordinate lists repeat coordinates, hold explicit zeros and cancel; some
are drawn already in CSR order, and some have whole coordinates cancel to
an exact 0.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gplab import _mat
from util import (
    assert_canonical,
    naive_components,
    naive_csr,
    naive_csr_mul,
    naive_from_coo,
    naive_gram_blocks,
    naive_hermitian_min_eig,
    naive_hermitian_part,
    naive_mul,
    naive_norm2,
)

VALUES = (0.0, 1.0, -1.0, 2.5, 1j, -0.5j, 0.25 + 2j, -3.0)
MAX_DIM = 6


@st.composite
def coo(draw, nr=None, nc=None, form=None):
    """(rows, cols, data, shape) with nr x nc drawn unless given.  The form,
    drawn unless given: "any" coordinates in any order, "sorted" distinct
    coordinates in CSR order, "cancel" with every entry at some coordinates
    repeated negated, so that those sum to an exact 0, "row_monomial" at
    most one entry per row, or "empty" none."""
    nr = draw(st.integers(0, MAX_DIM)) if nr is None else nr
    nc = draw(st.integers(0, MAX_DIM)) if nc is None else nc
    form = draw(st.sampled_from(["any", "sorted", "cancel", "row_monomial", "empty"])) if form is None else form
    n = draw(st.integers(0, 3 * nr * nc)) if nr and nc and form != "empty" else 0
    rows = draw(st.lists(st.integers(0, max(nr - 1, 0)), min_size=n, max_size=n))
    cols = draw(st.lists(st.integers(0, max(nc - 1, 0)), min_size=n, max_size=n))
    data = draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n))
    if form in ("sorted", "row_monomial"):
        # the first entry drawn at each coordinate (each row), in CSR order
        first = {}
        for r, c, d in zip(rows, cols, data):
            first.setdefault((r, c) if form == "sorted" else r, (r, c, d))
        rows, cols, data = (list(x) for x in zip(*sorted(first.values()))) if first else ([], [], [])
    elif form == "cancel" and n:
        gone = set(draw(st.lists(st.sampled_from(sorted(set(zip(rows, cols)))), max_size=n)))
        back = [(r, c, -d) for r, c, d in zip(rows, cols, data) if (r, c) in gone]
        back = [back[i] for i in draw(st.permutations(range(len(back))))]
        rows, cols, data = rows + [b[0] for b in back], cols + [b[1] for b in back], data + [b[2] for b in back]
    return rows, cols, data, (nr, nc)


def _kinds(rows, cols, data, shape):
    """The same matrix as a dense oracle array and as a CSR value."""
    return naive_from_coo(rows, cols, data, shape), _mat._csr(rows, cols, data, shape)


def _dense(m) -> np.ndarray:
    assert_canonical(m)
    return _mat.to_dense(m)


def _bits(m: _mat.CSR) -> tuple:
    """A CSR value's three arrays as bytes with their dtypes, and its shape."""
    return tuple((a.dtype.str, a.tobytes()) for a in m[:3]) + (m.shape,)


@settings(deadline=None)
@given(coo())
def test_csr_from_coo_sums_duplicates_and_drops_zeros(t):
    """_csr equals the dense oracle, and is bit-equal to the builder that
    sorts and sums whatever its input."""
    want, got = _kinds(*t)
    assert np.array_equal(_dense(got), want)
    assert _bits(got) == _bits(naive_csr(*t))
    rows, cols, data = _mat.coo_parts(got)
    assert np.array_equal(naive_from_coo(rows, cols, data, t[3]), want)


@pytest.mark.parametrize("dim", [0, 1, 3, 300])
def test_builders_return_canonical_csr(dim):
    """Every helper that returns a matrix returns a CSR value in canonical
    form, equal to its dense oracle, at every dimension.  The dyadic entries
    make numpy's dense products exact, so they serve as the oracle here."""
    rng = np.random.default_rng(dim)
    vec = rng.choice(np.array(VALUES), dim)
    n = 3 * dim
    rows, cols, vals = rng.integers(0, max(dim, 1), n), rng.integers(0, max(dim, 1), n), rng.choice(np.array(VALUES), n)
    a = _mat.from_coo(rows, cols, vals, dim)
    da = naive_from_coo(rows, cols, vals, (dim, dim))
    b = _mat.diag(vec)
    db = np.diag(vec).astype(complex)
    for got, want in (
        (a, da),
        (_mat.zeros(dim), np.zeros((dim, dim))),
        (_mat.eye(dim), np.eye(dim)),
        (b, db),
        (_mat.mul(a, b), da @ db),
        (_mat.mul(a, a), da @ da),
        (_mat.add(a, b), da + db),
        (_mat.sub(a, b), da - db),
        (_mat.sub(a, a), np.zeros((dim, dim))),
        (_mat.scale(a, -0.5j), da * -0.5j),
        (_mat.scale(a, 0), np.zeros((dim, dim))),
        (_mat.adjoint(a), da.conj().T),
        (_mat.cut(a, dim // 2), np.where(np.arange(dim) < dim // 2, da, 0)),
    ):
        assert_canonical(got)
        assert np.array_equal(_mat.to_dense(got), want)


@pytest.mark.parametrize("dim", [0, 3, 255, 256, 261])
def test_zeros_eye_diag(dim):
    rng = np.random.default_rng(dim)
    vec = rng.choice(np.array(VALUES), dim)
    for got, want in ((_mat.zeros(dim), np.zeros((dim, dim))), (_mat.eye(dim), np.eye(dim)), (_mat.diag(vec), np.diag(vec))):
        assert np.array_equal(_dense(got), want)


def test_diag_copies_its_vector():
    vec = np.ones(256, dtype=complex)
    m = _mat.diag(vec)
    m.data[:] = 5.0
    assert np.all(vec == 1.0)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_mul(data):
    """The product equals the dense triple sum, and is bit-equal to the
    plain row merge, on empty operands, on a B with at most one entry per
    row, on products whose terms cancel to an exact 0, and on 0 x n and
    n x 0 shapes."""
    nr, k, nc = (data.draw(st.integers(0, MAX_DIM)) for _ in range(3))
    da, sa = _kinds(*data.draw(coo(nr, k)))
    db, sb = _kinds(*data.draw(coo(k, nc)))
    got = _mat.mul(sa, sb)
    assert np.array_equal(_dense(got), naive_mul(da, db))
    assert _bits(got) == _bits(naive_csr_mul(sa, sb))


@pytest.mark.parametrize("nr, k, nc", [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (2, 3, 4)])
def test_mul_edge_shapes(nr, k, nc):
    """Products of all-ones and empty operands, 0 x n and n x 0 shapes
    among them: the right shape, canonical, bit-equal to the plain row
    merge; a product whose two terms cancel stores no 0."""

    def ones(h, w):
        return _mat._csr(np.repeat(np.arange(h), w), np.tile(np.arange(w), h), np.ones(h * w), (h, w))

    def empty(h, w):
        return _mat._csr([], [], [], (h, w))

    for x, y in ((ones(nr, k), ones(k, nc)), (ones(nr, k), empty(k, nc)), (empty(nr, k), ones(k, nc))):
        got = _mat.mul(x, y)
        assert got.shape == (nr, nc)
        assert_canonical(got)
        assert np.array_equal(_mat.to_dense(got), naive_mul(_mat.to_dense(x), _mat.to_dense(y)))
        assert _bits(got) == _bits(naive_csr_mul(x, y))
    # [1, 1] @ [[1], [-1]] = 0 exactly
    row = _mat._csr([0, 0], [0, 1], [1.0, 1.0], (1, 2))
    col = _mat._csr([0, 1], [0, 0], [1.0, -1.0], (2, 1))
    got = _mat.mul(row, col)
    assert len(got.data) == 0 and got.shape == (1, 1)
    assert _bits(got) == _bits(naive_csr_mul(row, col))


@settings(deadline=None)
@given(st.data())
def test_add_sub_scale(data):
    a = data.draw(coo())
    b = data.draw(coo(*a[3]))
    s = data.draw(st.sampled_from(VALUES))
    da, sa = _kinds(*a)
    db, sb = _kinds(*b)
    for got, want in ((_mat.add(sa, sb), da + db), (_mat.sub(sa, sb), da - db), (_mat.sub(sa, sa), np.zeros(a[3]))):
        assert np.array_equal(_dense(got), want)
    scaled = _mat.scale(sa, s)
    assert np.array_equal(_mat.to_dense(scaled), da * s)


@settings(deadline=None)
@given(coo())
def test_adjoint_to_dense_entry_coo_parts(t):
    """The adjoint, and every entry of to_dense and of coo_parts, against
    the oracle."""
    da, sa = _kinds(*t)
    assert np.array_equal(_dense(_mat.adjoint(sa)), da.conj().T)
    dense = _mat.to_dense(sa)
    for i in range(t[3][0]):
        for j in range(t[3][1]):
            assert dense[i, j] == da[i, j]
    rows, cols, vals = _mat.coo_parts(sa)
    assert np.array_equal(naive_from_coo(rows, cols, vals, t[3]), da)


@settings(deadline=None)
@given(st.data())
def test_diagonal_and_principal_parts(data):
    """principal_parts reads the diagonal block a[idx][:, idx] of a square
    matrix, for any distinct idx."""
    n = data.draw(st.integers(0, MAX_DIM))
    t = data.draw(coo(n, n))
    idx = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
    da, sa = _kinds(*t)
    # a leading block arange(m) too, which is read off the first rows
    for sel in (idx, sorted(idx), list(range(len(idx)))):
        rows, cols, vals = _mat.principal_parts(sa, np.array(sel, dtype=int))
        assert np.array_equal(naive_from_coo(rows, cols, vals, (len(sel), len(sel))), da[np.ix_(sel, sel)])


def _check_gram(a: _mat.CSR, labels, gram: np.ndarray) -> None:
    """gram_eigs of a with the given column labels against eigvalsh of the
    dense blocks of gram, its dense oracle.  The blocks join the columns
    that meet in a row of a with equal labels, by union-find per label; a
    column with no entry is a block of its own, with 0 as its only
    eigenvalue.  An entry of a* a that cancels to exactly 0 leaves two
    components of the Gram matrix's index graph in one such block, whose
    spectrum is the union of theirs."""
    da = _mat.to_dense(a)
    labels = np.asarray(labels)
    n = a.shape[1]
    blocks = [c for lab in set(labels.tolist())
              for _, c in naive_components(np.where(labels == lab, da, 0), square=False)]
    blocks += [[i] for i in range(n) if not any(i in b for b in blocks)]
    low, high, first = _mat.gram_eigs(a, labels)
    assert len(low) == len(high) == len(blocks)
    assert first.tolist() == sorted(b[0] for b in blocks)
    for lo, hi, i in zip(low, high, first):
        b = next(b for b in blocks if b[0] == i)
        want = np.linalg.eigvalsh(gram[np.ix_(b, b)])
        scale = max(1.0, float(np.abs(want).max()))
        assert abs(lo - want[0]) <= 1e-12 * scale and abs(hi - want[-1]) <= 1e-12 * scale


@settings(deadline=None)
@given(st.data())
def test_gram_eigs(data):
    """Each block's least and largest eigenvalue of a* a, restricted to
    equally labelled columns, and its smallest index, against the dense
    oracle: mixed labels, empty, row-monomial and cancelling matrices."""
    t = data.draw(coo(nc=data.draw(st.integers(1, MAX_DIM))))
    nc = t[3][1]
    labels = data.draw(st.lists(st.integers(0, 2), min_size=nc, max_size=nc))
    da, sa = _kinds(*t)
    _check_gram(sa, labels, naive_gram_blocks(da, labels))


def test_gram_eigs_examples():
    """An empty matrix, wide 1xk rows, and an entry of a* a that cancels to
    exactly 0, which leaves one block where the Gram matrix's index graph
    has two components."""
    low, high, first = _mat.gram_eigs(_mat._csr([], [], [], (3, 4)), np.zeros(4, dtype=np.intp))
    assert low.tolist() == high.tolist() == [0.0] * 4 and first.tolist() == [0, 1, 2, 3]
    assert [len(e) for e in _mat.gram_eigs(_mat._csr([], [], [], (0, 0)), np.zeros(0, dtype=np.intp))] == [0] * 3
    # two rows of one entry in each of columns 0-2: the rank-one 3x3 block
    # [1, 2, -1]* [1, 2, -1], then columns 3 and 4 split by their labels
    rows, cols, vals = [0, 0, 0, 1, 1], [0, 1, 2, 3, 4], [1.0, 2.0, -1.0, 1j, 2.0]
    wide = _mat._csr(rows, cols, vals, (2, 5))
    low, high, first = _mat.gram_eigs(wide, np.array([0, 0, 0, 1, 2]))
    assert np.allclose(low, [0.0, 1.0, 4.0], rtol=0, atol=1e-14)
    assert np.allclose(high, [6.0, 1.0, 4.0], rtol=0, atol=1e-14)
    assert first.tolist() == [0, 3, 4]
    _check_gram(wide, [0, 0, 0, 1, 2], naive_gram_blocks(_mat.to_dense(wide), [0, 0, 0, 1, 2]))
    _check_gram(wide, [0, 1, 0, 1, 1], naive_gram_blocks(_mat.to_dense(wide), [0, 1, 0, 1, 1]))
    # [[1, 1], [1, -1]]: a* a = 2 I, its off-diagonal entries cancel
    cancel = _mat._csr([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 1.0, 1.0, -1.0], (2, 2))
    gram = naive_gram_blocks(_mat.to_dense(cancel), [0, 0])
    assert sorted(naive_components(gram, square=True)) == [([0], [0]), ([1], [1])]
    low, high, first = _mat.gram_eigs(cancel, np.zeros(2, dtype=np.intp))
    assert low.tolist() == high.tolist() == [2.0] and first.tolist() == [0]
    _check_gram(cancel, [0, 0], gram)


@settings(deadline=None)
@given(coo())
def test_norm2(t):
    da, sa = _kinds(*t)
    want = naive_norm2(sa)
    assert abs(_mat.norm2(sa) - want) <= 1e-12 * max(want, 1.0)


def _eigs(rows, cols, vals, n):
    """hermitian_eigs of the n x n matrix with the given entries, read off
    its canonical CSR value."""
    return _mat.hermitian_eigs(*_mat.coo_parts(_mat._csr(rows, cols, vals, (n, n))), n)


@settings(deadline=None)
@given(st.data())
def test_hermitian_eigs(data):
    """The least of the least and the largest of the largest eigenvalues
    against eigvalsh of the whole dense Hermitian part: indices that carry
    no entry add 0, and a matrix stored in full adds none."""
    n = data.draw(st.integers(1, MAX_DIM))
    rows, cols, vals, _ = data.draw(coo(n, n))
    shift = data.draw(st.sampled_from([0.0, 0.5, -0.5]))
    if data.draw(st.booleans()):  # every index carries an entry
        rows, cols, vals = rows + list(range(n)), cols + list(range(n)), vals + [shift] * n
    want = np.linalg.eigvalsh(naive_hermitian_part(naive_from_coo(rows, cols, vals, (n, n))))
    low, high, _ = _eigs(rows, cols, vals, n)
    assert abs(low.min() - want[0]) <= 1e-12 * max(1.0, abs(want[0]))
    assert abs(high.max() - want[-1]) <= 1e-12 * max(1.0, abs(want[-1]))


def test_hermitian_min_eig_examples():
    """The zero matrix, diagonal matrices with and without an index that
    carries no entry, and a non-Hermitian 2x2 block beside an empty index."""
    eye = np.arange(4)
    low, high, first = _eigs(eye[:0], eye[:0], [], 3)
    assert low.tolist() == high.tolist() == [0.0] * 3 and first.tolist() == [0, 1, 2]
    low, high, first = _eigs(eye, eye, [1.0, 2.5, -0.5j, 2.5], 5)
    assert low.tolist() == high.tolist() == [1.0, 2.5, 0.0, 2.5, 0.0] and first.tolist() == [0, 1, 2, 3, 4]
    # a 2x2 block whose Hermitian part is [[1, 2], [2, 1]], eigenvalues -1
    # and 3, then index 2 with no entry
    low, high, first = _eigs([0, 0, 1], [0, 1, 1], [1.0, 4.0, 1.0], 3)
    assert np.allclose(low, [-1.0, 0.0], rtol=0, atol=1e-14)
    assert np.allclose(high, [3.0, 0.0], rtol=0, atol=1e-14)
    assert first.tolist() == [0, 2]


def _check_components(dense: np.ndarray):
    """hermitian_eigs of a square matrix's stored entries against eigvalsh
    of the dense Hermitian part of each block that the union-find oracle
    picks out over the index graph; an index with no entry is a block of
    its own, with 0 as its only eigenvalue.  A block's norm is the larger of
    its largest eigenvalue and minus its least."""
    n = len(dense)
    herm = naive_hermitian_part(dense)
    blocks = [sorted(r | c) for r, c in ((set(r), set(c)) for r, c in naive_components(dense, square=True))]
    blocks += [[i] for i in range(n) if not any(i in b for b in blocks)]
    rows, cols = np.nonzero(dense)
    low, high, first = _mat.hermitian_eigs(rows, cols, dense[rows, cols], n)
    assert len(low) == len(high) == len(first) == len(blocks)
    assert sorted(first.tolist()) == sorted(b[0] for b in blocks)
    for lo, hi, i in zip(low, high, first):
        b = next(b for b in blocks if b[0] == i)
        want = np.linalg.eigvalsh(herm[np.ix_(b, b)])
        scale = max(1.0, float(np.abs(want).max()))
        assert abs(lo - want[0]) <= 1e-12 * scale and abs(hi - want[-1]) <= 1e-12 * scale
        assert abs(max(hi, -lo) - naive_norm2(herm[np.ix_(b, b)])) <= 1e-12 * scale


@settings(deadline=None)
@given(st.integers(0, MAX_DIM).flatmap(lambda n: coo(n, n)))
def test_block_norms(t):
    """One least and one largest eigenvalue per component of the index
    graph, with its smallest index, against the dense blocks the union-find
    oracle picks out: the spectra the positivity checks read."""
    _check_components(_kinds(*t)[0])


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


def _lapack(lapack_calls, fn, *args):
    lapack_calls.clear()
    out = fn(*args)
    return out, list(lapack_calls)


def _gram(m: _mat.CSR):
    return _mat.gram_eigs(m, np.zeros(m.shape[1], dtype=np.intp))


def _dense_gram(m: _mat.CSR) -> np.ndarray:
    """a* a by one dense product: the Gram oracle at sizes where the triple
    sum of naive_gram_blocks takes too long."""
    d = _mat.to_dense(m)
    return d.conj().T @ d


@pytest.mark.parametrize("dim", [1, 5, 256, 700])
def test_monomial_norms_skip_lapack(dim, lapack_calls):
    """A matrix with at most one entry per row and per column, stored zeros
    included, has the norm of its largest entry, read with no LAPACK call;
    its Gram matrix is diagonal and its spectra are read with none either."""
    rng = np.random.default_rng(dim)
    for trial in range(6):
        m = _monomial(dim, rng, zeros=trial % 2 == 1)
        want = naive_norm2(m)
        got, calls = _lapack(lapack_calls, _mat.norm2, m)
        assert calls == []
        assert abs(got - want) <= 1e-12 * want
        _, calls = _lapack(lapack_calls, _gram, m)
        assert calls == []
        _check_gram(m, np.zeros(dim, dtype=np.intp), _dense_gram(m))


@pytest.mark.parametrize("square_sides", [(), (2,), (2, 3, 5), (4, 4)])
def test_direct_sum_norms_take_one_eigvalsh_per_block_size(square_sides, lapack_calls):
    """Direct sums of 1x1, kx1 and 1xk blocks, and of kxk blocks for the
    given sides, inside a 300 x 300 matrix: norm2 agrees with the dense
    oracle to 1e-12 and makes one batched eigvalsh per Gram block size of
    two or more, the kxk Gram blocks of the 1xk and kxk blocks, and no SVD;
    the 1x1 and kx1 blocks give 1x1 Gram blocks, read without LAPACK."""
    rng = np.random.default_rng(sum(square_sides) + 17)
    shapes = [s for k in (2, 3, 5) for s in [(1, 1), (k, 1), (1, k)] for _ in range(2)]
    shapes += [(k, k) for k in square_sides]
    sides = [2, 2, 3, 3, 5, 5, *square_sides]
    want_calls = sorted(("eigvalsh", (sides.count(k), k, k)) for k in set(sides))
    for _ in range(4):
        m = _direct_sum([shapes[i] for i in rng.permutation(len(shapes))], 300, rng)
        want = naive_norm2(m)
        got, calls = _lapack(lapack_calls, _mat.norm2, m)
        assert abs(got - want) <= 1e-12 * want
        assert sorted(calls) == want_calls
        _check_gram(m, np.zeros(300, dtype=np.intp), _dense_gram(m))


@pytest.mark.parametrize("n", [4, 300])
def test_diagonal_min_eig_skips_lapack(n, lapack_calls):
    """Entries all on the diagonal, repeated ones summed: each index its own
    block, with its real diagonal entry as least and largest eigenvalue, 0
    where it carries no entry, with no LAPACK call."""
    rng = np.random.default_rng(n)
    for every in (True, False):
        idx = np.arange(n) if every else rng.choice(n, n // 2, replace=False)
        idx = np.concatenate((idx, idx[: len(idx) // 3]))
        vals = _cplx(rng, len(idx)) + 0.5
        want = np.bincount(idx, vals.real, n)
        lapack_calls.clear()
        low, high, first = _mat.hermitian_eigs(idx, idx, vals, n)
        assert lapack_calls == []
        assert np.allclose(low, want, rtol=1e-12, atol=0) and np.array_equal(low, high)
        assert np.array_equal(first, np.arange(n))
        assert abs(low.min() - naive_hermitian_min_eig(naive_from_coo(idx, idx, vals, (n, n)))) <= 1e-12
