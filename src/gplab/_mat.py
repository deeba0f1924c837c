"""Complex matrix helpers for the operator layer, in numpy alone.

Every matrix is a `CSR` value: numpy (indptr, indices, data) arrays plus its
shape, with sorted, distinct columns per row and no stored zeros.  Each
generator of the ambient algebra moves a basis word to at most d_v
neighbouring words, so every truncated operator is sparse whatever the
truncation depth, and one matrix kind serves every space.  Small spaces
once kept dense arrays instead, but small dense BLAS products stall at
random under several threads, and a product here costs a fixed number of
numpy calls whatever its size.

The product is Gustavson's row merge (ACM TOMS 4, 1978) written in numpy:
every entry of A is expanded over the matching row of B, and the (row,
column) keys are sorted and summed.  The kernels pick their work from
their input, never from a size: an empty operand gives the empty product
at once, a B whose reached rows hold at most one entry each is read
without the expansion, keys already in order are not sorted, keys that do
not repeat are not summed, and two operands with one pattern are added
entry for entry.

Spectra and norms come from one component split (`_split`): the entries
are scattered into one dense block per connected component of their
nonzero pattern, and each distinct block shape takes one batched LAPACK
call.  `block_norms` splits along the row/column graph (row i joined to
column j when a[i, j] != 0), and `norm2` is the largest of its block
norms; `hermitian_min_eig` splits along the index graph, with rows and
columns on the same nodes.  Trivial structure takes no LAPACK call and,
where the whole matrix is trivial, no split: a matrix with at most one
entry per row and per column is read as its moduli, a diagonal one as its
real diagonal, a 1x1 block as its modulus or real part, and a one-row or
one-column block as its Frobenius norm.  All three are exact, with no
iteration and no size threshold; the cost grows with the largest
component.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


class CSR(NamedTuple):
    """Compressed sparse rows: row i holds the columns indices[indptr[i]:
    indptr[i+1]], sorted and distinct, with the values in data.  Every
    helper here builds CSR values in this form and without stored zeros."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


def _rows(a: CSR) -> np.ndarray:
    """Row index of each stored entry."""
    return np.arange(a.shape[0]).repeat(a.indptr[1:] - a.indptr[:-1])


def _sum_by(labels: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Complex sums of vals grouped by labels in range(n)."""
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(labels, vals.real, n)
    out.imag = np.bincount(labels, vals.imag, n)
    return out


def _csr(rows, cols, data, shape) -> CSR:
    """CSR from coordinate triples: duplicates summed in input order, exact
    zeros dropped.  Keys already strictly increasing are taken as they are,
    and only keys that repeat are summed."""
    nr, nc = shape
    wide = max(nc, 1)
    key = np.asarray(rows, dtype=np.intp) * wide + np.asarray(cols, dtype=np.intp)
    data = np.asarray(data, dtype=complex)
    n = len(key)
    if n > 1 and np.count_nonzero(key[1:] <= key[:-1]):
        order = key.argsort(kind="stable")
        key, data = key[order], data[order]
        new = key[1:] != key[:-1]
        if np.count_nonzero(new) < n - 1:
            head = np.flatnonzero(np.concatenate(([True], new)))
            key, data = key[head], np.add.reduceat(data, head)
    if np.count_nonzero(data) < len(data):
        keep = data != 0
        key, data = key[keep], data[keep]
    # the keys are sorted: row i starts at the first key >= i * wide
    return CSR(key.searchsorted(np.arange(0, (nr + 1) * wide, wide)), key % wide, data, (nr, nc))


def _empty(shape) -> CSR:
    none = np.zeros(0, dtype=np.intp)
    return CSR(np.zeros(shape[0] + 1, dtype=np.intp), none, none.astype(complex), shape)


def from_coo(rows, cols, data, dim: int) -> CSR:
    return _csr(rows, cols, data, (dim, dim))


def zeros(dim: int) -> CSR:
    return _empty((dim, dim))


def eye(dim: int) -> CSR:
    return CSR(np.arange(dim + 1), np.arange(dim), np.ones(dim, dtype=complex), (dim, dim))


def diag(vec: np.ndarray) -> CSR:
    vec = np.asarray(vec, dtype=complex)
    dim = len(vec)
    nz = np.flatnonzero(vec)
    indptr = np.zeros(dim + 1, dtype=np.intp)
    np.cumsum(vec != 0, out=indptr[1:])
    return CSR(indptr, nz, vec[nz], (dim, dim))


def mul(a: CSR, b: CSR) -> CSR:
    """a @ b by the row merge: each entry of A is expanded over the matching
    row of B, and the (row, column) keys are sorted and summed (_csr).  An
    empty operand gives the empty product at once; where no row of B that A
    reaches holds two entries, each entry of A meets at most one of B and
    nothing is expanded."""
    shape = (a.shape[0], b.shape[1])
    if not len(a.data) or not len(b.data):
        return _empty(shape)
    counts = (b.indptr[1:] - b.indptr[:-1])[a.indices]
    rows = _rows(a)
    if not np.count_nonzero(counts > 1):
        # each entry of A meets at most one of B: no expansion
        cols, data = a.indices, a.data
        if np.count_nonzero(counts) < len(counts):
            hit = counts != 0
            rows, cols, data = rows[hit], cols[hit], data[hit]
        pos = b.indptr[cols]
        return _csr(rows, b.indices[pos], data * b.data[pos], shape)
    # entry e of A meets B's row a.indices[e]; pos walks that row
    ends = counts.cumsum()
    pos = np.arange(ends[-1]) + (b.indptr[a.indices] - (ends - counts)).repeat(counts)
    return _csr(rows.repeat(counts), b.indices[pos], a.data.repeat(counts) * b.data[pos], shape)


def _merge(a: CSR, b: CSR, bdata: np.ndarray) -> CSR:
    """a + B, B the pattern of b with the values bdata."""
    if not len(bdata):
        return a
    if not len(a.data):
        return CSR(b.indptr, b.indices, bdata, b.shape)
    if np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices):
        # entry for entry, the sums the merge below would form
        data = a.data + bdata
        return subset(CSR(a.indptr, a.indices, data, a.shape), data != 0)
    return _csr(
        np.concatenate((_rows(a), _rows(b))),
        np.concatenate((a.indices, b.indices)),
        np.concatenate((a.data, bdata)),
        a.shape,
    )


def add(a: CSR, b: CSR) -> CSR:
    return _merge(a, b, b.data)


def sub(a: CSR, b: CSR) -> CSR:
    return _merge(a, b, -b.data)


def scale(a: CSR, scalar: complex) -> CSR:
    data = a.data * scalar
    return subset(CSR(a.indptr, a.indices, data, a.shape), data != 0)


def adjoint(a: CSR) -> CSR:
    # a stable sort by column keeps the rows of each column in order
    order = np.argsort(a.indices, kind="stable")
    indptr = np.zeros(a.shape[1] + 1, dtype=np.intp)
    np.cumsum(np.bincount(a.indices, minlength=a.shape[1]), out=indptr[1:])
    return CSR(indptr, _rows(a)[order], a.data[order].conj(), (a.shape[1], a.shape[0]))


def to_dense(a: CSR) -> np.ndarray:
    out = np.zeros(a.shape, dtype=complex)
    out[_rows(a), a.indices] = a.data
    return out


def diagonal(a: CSR) -> np.ndarray:
    """A new vector holding the main diagonal."""
    rows = _rows(a)
    on = rows == a.indices
    out = np.zeros(min(a.shape), dtype=complex)
    out[rows[on]] = a.data[on]
    return out


def same(a: CSR, b: CSR) -> bool:
    """Whether a and b are stored alike: the same shape and the same three
    arrays.  Matrices stored alike are equal; equal matrices are stored
    alike when both are in the canonical form every helper here builds."""
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def subset(a: CSR, keep: np.ndarray) -> CSR:
    """The stored entries where the boolean mask keep (one flag per entry)
    holds, the others dropped.  A subset of a CSR value is still in CSR
    order, so nothing is sorted."""
    if np.count_nonzero(keep) == len(keep):
        return a
    ptr = np.zeros(len(keep) + 1, dtype=np.intp)
    np.cumsum(keep, out=ptr[1:])
    return CSR(ptr[a.indptr], a.indices[keep], a.data[keep], a.shape)


def cut(a: CSR, m: int) -> CSR:
    """The first m columns, the others emptied."""
    return subset(a, a.indices < m)


def coo_parts(a: CSR):
    return _rows(a), a.indices, a.data


def principal_parts(a: CSR, idx):
    """coo_parts of the square submatrix a[idx][:, idx] (idx distinct), in
    the coordinates of positions in idx."""
    idx = np.asarray(idx, dtype=np.intp)
    m = len(idx)
    if np.array_equal(idx, np.arange(m)):
        # the leading block: its entries come first, in rows below m
        end = a.indptr[m]
        rows = np.arange(m).repeat(a.indptr[1: m + 1] - a.indptr[:m])
        cols, data = a.indices[:end], a.data[:end]
        keep = cols < m
        return rows[keep], cols[keep], data[keep]
    pos = np.full(a.shape[0], -1, dtype=np.intp)
    pos[idx] = np.arange(m)
    r, c = pos[_rows(a)], pos[a.indices]
    keep = (r >= 0) & (c >= 0)
    return r[keep], c[keep], a.data[keep]


def matvec(a: CSR, v: np.ndarray) -> np.ndarray:
    """a @ v for a vector v."""
    return _sum_by(_rows(a), a.data * v[a.indices], a.shape[0])


def vecmat(v: np.ndarray, a: CSR) -> np.ndarray:
    """v @ a for a vector v."""
    return _sum_by(a.indices, v.repeat(a.indptr[1:] - a.indptr[:-1]) * a.data, a.shape[1])


def gram_blocks(a: CSR, labels: np.ndarray) -> CSR:
    """a* a with only the entries (r, c) where labels[r] == labels[c].

    Entry (r, c) of a* a sums conj(a[k, r]) a[k, c] over the rows k, so only
    pairs of entries in one row of a with equally labelled columns are
    multiplied, and the entries between differently labelled columns are
    never formed.
    """
    n = a.shape[1]
    if not len(a.data):
        return _empty((n, n))
    rows, cols, data = coo_parts(a)
    group = rows * (int(labels.max()) + 1) + labels[cols]
    # CSR order is by row, then column: a stable sort keeps rows in order
    order = np.argsort(group, kind="stable")
    group, cols, data = group[order], cols[order], data[order]
    head = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
    size = np.diff(np.append(head, len(group)))
    # entry e pairs with every entry of its group, which starts at head
    counts = np.repeat(size, size)
    first = np.repeat(head, size) - (np.cumsum(counts) - counts)
    left = np.repeat(np.arange(len(group)), counts)
    right = np.arange(int(counts.sum())) + np.repeat(first, counts)
    return _csr(cols[left], cols[right], data[left].conj() * data[right], (n, n))


def _rank_within(labels: np.ndarray, n: int):
    """Each item's position among the items that share its label (labels in
    range(n)), and the number of items per label."""
    counts = np.bincount(labels, minlength=n)
    order = np.argsort(labels, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(labels)) - np.repeat(np.cumsum(counts) - counts, counts)
    return rank, counts


def _components(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Connected-component label, in range(k), of each of n nodes joined by
    the edges (u[e], v[e]).  Each round hooks every root onto the smallest
    root it shares an edge with, then jumps pointers until every node points
    at its root.  Every hook lowers a root's label, so the rounds end."""
    parent = np.arange(n)
    while True:
        pu, pv = parent[u], parent[v]
        cut = pu != pv
        if not cut.any():
            # every node points at its root, the smallest node of its
            # component: number the roots in increasing order
            return (np.cumsum(parent == np.arange(n)) - 1)[parent]
        np.minimum.at(parent, np.maximum(pu[cut], pv[cut]), np.minimum(pu[cut], pv[cut]))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def _compress(labels: np.ndarray):
    """The distinct labels in increasing order, and each item's position
    among them: np.unique(labels, return_inverse=True) by counting, not by
    sorting."""
    seen = np.zeros(int(labels.max()) + 1, dtype=bool)
    seen[labels] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[labels]


def _split(ri, ci, data, rcomp, ccomp):
    """Scatter the entries (ri[e], ci[e]) -> data[e] into one dense block per
    connected component, and yield, for each distinct block shape (h, w),
    the components of that shape in increasing order and their blocks as
    one (count, h, w) stack.

    rcomp[i] is the component of row node i and ccomp[j] that of column node
    j, in range(k); an entry's row and column lie in one component.  A
    block's rows are its component's row nodes in increasing order, and its
    columns likewise."""
    k = int(max(rcomp.max(), ccomp.max())) + 1
    rloc, nrows = _rank_within(rcomp, k)
    cloc, ncols = (rloc, nrows) if ccomp is rcomp else _rank_within(ccomp, k)
    wide = int(ncols.max()) + 1
    shapes, shape_of = _compress(nrows * wide + ncols)
    slot, per_shape = _rank_within(shape_of, len(shapes))
    ec = rcomp[ri]
    eshape = shape_of[ec]
    for g, shape in enumerate(shapes):
        sel = eshape == g
        h, w = divmod(int(shape), wide)
        size = int(per_shape[g]) * h * w
        flat = (slot[ec[sel]] * h + rloc[ri[sel]]) * w + cloc[ci[sel]]
        blocks = np.empty(size, dtype=complex)
        blocks.real = np.bincount(flat, data[sel].real, size)
        blocks.imag = np.bincount(flat, data[sel].imag, size)
        yield np.flatnonzero(shape_of == g), blocks.reshape(-1, h, w)


def _bipartite_split(rows, cols, data):
    """The distinct rows, the component of each, and `_split` along the
    row/column graph of the (nonempty) entries."""
    urows, ri = _compress(rows)
    ucols, ci = _compress(cols)
    nr = len(urows)
    comp = _components(ri, ci + nr, nr + len(ucols))
    return urows, comp[:nr], _split(ri, ci, data, comp[:nr], comp[nr:])


def norm2(a: CSR) -> float:
    """Exact operator 2-norm, the largest singular value.

    The matrix is a direct sum of the blocks that the connected components
    of its row/column graph pick out, so its norm is the largest of its
    `block_norms`."""
    if not len(a.data):
        return 0.0
    return float(block_norms(*coo_parts(a))[0].max())


def _distinct(labels: np.ndarray) -> bool:
    return int(np.bincount(labels).max()) <= 1


def block_norms(rows, cols, data) -> tuple[np.ndarray, np.ndarray]:
    """The operator norm of each connected component of the row/column graph
    of the entries (rows[e], cols[e]) -> data[e], and one row of each
    component.

    Only a component with two rows and two columns or more takes LAPACK,
    its share of one batched SVD per block shape.  A matrix with at most
    one entry per row and per column has 1x1 components only and is read
    without a split: each entry is a component, its norm the modulus.  A
    1x1 block is its modulus, and a one-row or one-column block its
    Frobenius norm."""
    if not len(data):
        return np.zeros(0), np.zeros(0, dtype=np.intp)
    if _distinct(rows) and _distinct(cols):
        return np.abs(data), np.asarray(rows, dtype=np.intp)
    urows, rcomp, stacks = _bipartite_split(rows, cols, data)
    norms = np.zeros(int(rcomp.max()) + 1)
    for comps, blocks in stacks:
        if blocks.shape[1:] == (1, 1):
            norms[comps] = np.abs(blocks[:, 0, 0])
        elif 1 in blocks.shape[1:]:
            norms[comps] = np.sqrt((blocks.real**2 + blocks.imag**2).sum(axis=(1, 2)))
        else:
            norms[comps] = np.linalg.svd(blocks, compute_uv=False)[:, 0]
    first = np.empty(len(norms), dtype=np.intp)
    first[rcomp] = urows
    return norms, first


def hermitian_min_eig(rows, cols, data, n: int) -> float:
    """Smallest eigenvalue of the Hermitian part of the n x n matrix with the
    entries (rows[e], cols[e]) -> data[e].

    The matrix is a direct sum over the connected components of its index
    graph (i joined to j when entry (i, j) is stored), with rows and columns
    on the same n nodes, so its spectrum is the union of the block spectra,
    and 0 joins it exactly when some index carries no entry: the zero matrix
    gives 0.0, and a positive definite matrix with an entry in every row
    its positive minimum.  A matrix whose entries all lie on the diagonal is
    read without a split, as the least of its real diagonal; a 1x1 block is
    its real part, read without LAPACK; larger blocks take one batched
    eigvalsh per block size."""
    if not len(data):
        return 0.0
    if np.array_equal(rows, cols):
        # an index with no entry sums to 0 here, as 0 joins the spectrum
        return float(np.bincount(rows, np.real(data), n).min())
    m = len(rows)
    nodes, both = _compress(np.concatenate((rows, cols)))
    ri, ci = both[:m], both[m:]
    comp = _components(ri, ci, len(nodes))
    low = 0.0 if len(nodes) < n else np.inf
    for _, blocks in _split(ri, ci, data, comp, comp):
        if blocks.shape[1] == 1:
            low = min(low, float(blocks[:, 0, 0].real.min()))
        else:
            herm = 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))
            low = min(low, float(np.linalg.eigvalsh(herm)[:, 0].min()))
    return low
