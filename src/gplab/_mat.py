"""Complex matrix helpers for the operator layer, in numpy alone.

A matrix of dimension below DENSE_CUTOFF is a dense numpy array; a larger
one is a `CSR` value, numpy (indptr, indices, data) arrays plus its shape.
Every helper accepts either kind, and one that returns a matrix returns
the kind it was given.  Both kinds stay because each wins on one side of
the cutoff: the small operators of shallow spaces multiply faster as dense
BLAS products than through any sparse product, while at Fock dimensions of
several hundred and more the operators are sparse enough that dense
products cost tens of times more.

The CSR product is Gustavson's row merge (ACM TOMS 4, 1978) written in
numpy: every entry of A is expanded over the matching row of B, and the
(row, column) keys are sorted and summed.  `norm2` is exact on both kinds:
a CSR matrix is split into the connected components of its nonzero
pattern, whose dense blocks go to LAPACK.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

DENSE_CUTOFF = 256


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
    return np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))


def _sum_by(labels: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Complex sums of vals grouped by labels in range(n)."""
    return np.bincount(labels, vals.real, n) + 1j * np.bincount(labels, vals.imag, n)


def _csr(rows, cols, data, shape) -> CSR:
    """CSR from coordinate triples: duplicates summed in input order, exact
    zeros dropped."""
    nr, nc = shape
    rows = np.asarray(rows, dtype=np.intp)
    key = rows * max(nc, 1) + np.asarray(cols, dtype=np.intp)
    data = np.asarray(data, dtype=complex)
    if len(key) > 1:
        order = np.argsort(key, kind="stable")
        key, data = key[order], data[order]
        head = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        if len(head) < len(key):
            key, data = key[head], np.add.reduceat(data, head)
    keep = data != 0
    key, data = key[keep], data[keep]
    indptr = np.zeros(nr + 1, dtype=np.intp)
    np.cumsum(np.bincount(key // max(nc, 1), minlength=nr), out=indptr[1:])
    return CSR(indptr, key % max(nc, 1), data, (nr, nc))


def from_coo(rows, cols, data, dim: int):
    if dim < DENSE_CUTOFF:
        out = np.zeros((dim, dim), dtype=complex)
        np.add.at(out, (np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)), np.asarray(data, dtype=complex))
        return out
    return _csr(rows, cols, data, (dim, dim))


def from_csr(indptr, indices, data, dim: int):
    """The matrix of entries already in CSR form (sorted, distinct columns
    per row, no zeros), taken as they are: no sort and no summing."""
    if dim < DENSE_CUTOFF:
        out = np.zeros((dim, dim), dtype=complex)
        # distinct positions: the same 0 + x per entry as from_coo's np.add.at
        out[np.repeat(np.arange(dim), np.diff(indptr)), indices] += data
        return out
    return CSR(indptr, indices, data, (dim, dim))


def zeros(dim: int):
    if dim < DENSE_CUTOFF:
        return np.zeros((dim, dim), dtype=complex)
    return CSR(np.zeros(dim + 1, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=complex), (dim, dim))


def eye(dim: int):
    if dim < DENSE_CUTOFF:
        return np.eye(dim, dtype=complex)
    return CSR(np.arange(dim + 1), np.arange(dim), np.ones(dim, dtype=complex), (dim, dim))


def diag(vec: np.ndarray):
    vec = np.asarray(vec, dtype=complex)
    dim = len(vec)
    if dim < DENSE_CUTOFF:
        return np.diag(vec)
    nz = np.flatnonzero(vec)
    indptr = np.zeros(dim + 1, dtype=np.intp)
    np.cumsum(vec != 0, out=indptr[1:])
    return CSR(indptr, nz, vec[nz], (dim, dim))


def mul(a, b):
    if not isinstance(a, CSR):
        return a @ b
    counts = np.diff(b.indptr)[a.indices]
    # entry e of A meets B's row a.indices[e]; pos walks that row
    first = b.indptr[a.indices] - (np.cumsum(counts) - counts)
    pos = np.arange(int(counts.sum())) + np.repeat(first, counts)
    return _csr(
        np.repeat(_rows(a), counts),
        b.indices[pos],
        np.repeat(a.data, counts) * b.data[pos],
        (a.shape[0], b.shape[1]),
    )


def _merge(a: CSR, b: CSR, bdata: np.ndarray) -> CSR:
    return _csr(
        np.concatenate((_rows(a), _rows(b))),
        np.concatenate((a.indices, b.indices)),
        np.concatenate((a.data, bdata)),
        a.shape,
    )


def add(a, b):
    if not isinstance(a, CSR):
        return a + b
    return _merge(a, b, b.data)


def sub(a, b):
    if not isinstance(a, CSR):
        return a - b
    return _merge(a, b, -b.data)


def scale(a, scalar: complex):
    if not isinstance(a, CSR):
        return a * scalar
    return CSR(a.indptr, a.indices, a.data * scalar, a.shape)


def adjoint(a):
    if not isinstance(a, CSR):
        return a.conj().T
    # a stable sort by column keeps the rows of each column in order
    order = np.argsort(a.indices, kind="stable")
    indptr = np.zeros(a.shape[1] + 1, dtype=np.intp)
    np.cumsum(np.bincount(a.indices, minlength=a.shape[1]), out=indptr[1:])
    return CSR(indptr, _rows(a)[order], a.data[order].conj(), (a.shape[1], a.shape[0]))


def to_dense(a) -> np.ndarray:
    if not isinstance(a, CSR):
        return np.asarray(a)
    out = np.zeros(a.shape, dtype=complex)
    out[_rows(a), a.indices] = a.data
    return out


def entry(a, i: int, j: int) -> complex:
    if not isinstance(a, CSR):
        return complex(a[i, j])
    lo, hi = int(a.indptr[i]), int(a.indptr[i + 1])
    k = lo + int(np.searchsorted(a.indices[lo:hi], j))
    return complex(a.data[k]) if k < hi and a.indices[k] == j else 0j


def diagonal(a) -> np.ndarray:
    """A new vector holding the main diagonal."""
    if not isinstance(a, CSR):
        return np.diagonal(a).copy()
    rows = _rows(a)
    on = rows == a.indices
    out = np.zeros(min(a.shape), dtype=complex)
    out[rows[on]] = a.data[on]
    return out


def _positions(n: int, idx) -> np.ndarray:
    """Position of each of range(n) in idx (distinct), -1 where absent."""
    idx = np.asarray(idx, dtype=np.intp)
    pos = np.full(n, -1, dtype=np.intp)
    pos[idx] = np.arange(len(idx))
    return pos


def col_select(a, idx):
    """The columns idx (distinct), in that order."""
    if not isinstance(a, CSR):
        return a[:, idx]
    cols = _positions(a.shape[1], idx)[a.indices]
    keep = cols >= 0
    return _csr(_rows(a)[keep], cols[keep], a.data[keep], (a.shape[0], len(idx)))


def coo_parts(a):
    if isinstance(a, CSR):
        return _rows(a), a.indices, a.data
    rows, cols = np.nonzero(a)
    return rows, cols, a[rows, cols]


def principal_parts(a, idx):
    """coo_parts of the square submatrix a[idx][:, idx] (idx distinct), in
    the coordinates of positions in idx."""
    rows, cols, data = coo_parts(a)
    pos = _positions(a.shape[0], idx)
    r, c = pos[rows], pos[cols]
    keep = (r >= 0) & (c >= 0)
    return r[keep], c[keep], data[keep]


def matvec(a, v: np.ndarray) -> np.ndarray:
    """a @ v for a vector v."""
    if not isinstance(a, CSR):
        return a @ v
    return _sum_by(_rows(a), a.data * v[a.indices], a.shape[0])


def vecmat(v: np.ndarray, a) -> np.ndarray:
    """v @ a for a vector v."""
    if not isinstance(a, CSR):
        return v @ a
    return _sum_by(a.indices, v[_rows(a)] * a.data, a.shape[1])


def gram_blocks(a, labels: np.ndarray):
    """a* a with only the entries (r, c) where labels[r] == labels[c].

    Entry (r, c) of a* a sums conj(a[k, r]) a[k, c] over the rows k, so only
    pairs of entries in one row of a with equally labelled columns are
    multiplied, and the entries between differently labelled columns are
    never formed.
    """
    if not isinstance(a, CSR):
        return np.where(labels[:, None] == labels[None, :], a.conj().T @ a, 0)
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
    n = a.shape[1]
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
            return np.unique(parent, return_inverse=True)[1].ravel()
        np.minimum.at(parent, np.maximum(pu[cut], pv[cut]), np.minimum(pu[cut], pv[cut]))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def norm2(a) -> float:
    """Exact operator 2-norm, the largest singular value.

    Dense input goes to LAPACK whole.  A CSR matrix is a direct sum of the
    blocks that the connected components of its row/column graph (row i
    joined to column j when a[i, j] != 0) pick out, so its norm is the
    largest block norm: each component is scattered into a dense block and
    each distinct block shape takes one batched SVD.  No iteration and no
    size threshold; the cost grows with the largest component."""
    if not isinstance(a, CSR):
        if a.size == 0:
            return 0.0
        return float(np.linalg.norm(a, 2))
    keep = a.data != 0
    if not keep.any():
        return 0.0
    data = a.data[keep]
    urows, ri = np.unique(_rows(a)[keep], return_inverse=True)
    ucols, ci = np.unique(a.indices[keep], return_inverse=True)
    nr = len(urows)
    comp = _components(ri, ci + nr, nr + len(ucols))
    k = int(comp.max()) + 1
    rloc, nrows = _rank_within(comp[:nr], k)
    cloc, ncols = _rank_within(comp[nr:], k)
    shapes, shape_of = np.unique(np.stack([nrows, ncols], axis=1), axis=0, return_inverse=True)
    shape_of = shape_of.ravel()
    slot, per_shape = _rank_within(shape_of, len(shapes))
    ec = comp[ri]
    eshape = shape_of[ec]
    best = 0.0
    for g, (h, w) in enumerate(shapes):
        sel = eshape == g
        blocks = np.zeros((per_shape[g], h, w), dtype=complex)
        np.add.at(blocks, (slot[ec[sel]], rloc[ri[sel]], cloc[ci[sel]]), data[sel])
        best = max(best, float(np.linalg.svd(blocks, compute_uv=False)[:, 0].max()))
    return best
