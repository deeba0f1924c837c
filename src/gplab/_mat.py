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

Spectra and norms come from one split: the entries are scattered into one
dense block per connected component of an index graph, every index a node,
and each block size takes one batched eigvalsh, which gives each block's
least and largest eigenvalue of the Hermitian part.  `hermitian_eigs`
splits a square matrix along its own index graph (i joined to j when
a[i, j] != 0), for the positivity checks.  `gram_eigs` reads a* a, or its
entries between equally labelled columns, straight from a's entries: the
columns that share a row of a are joined, and the pair products land in
the blocks, so a* a is never formed.  It serves the expectation and tail
checks, and `norm2` is the square root of its largest eigenvalue.  Trivial
structure takes no LAPACK call and, where the whole matrix is trivial, no
split: a diagonal matrix is read as its real diagonal, an a whose rows
meet no column twice as one 1x1 Gram block per column, and a 1x1 block as
its real part.  All are exact, with no iteration and no size threshold;
the cost grows with the largest component.
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
    return _csr(a.indices, _rows(a), a.data.conj(), a.shape[::-1])


def to_dense(a: CSR) -> np.ndarray:
    out = np.zeros(a.shape, dtype=complex)
    out[_rows(a), a.indices] = a.data
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


def _block_eigs(ri, ci, data, comp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The least and the largest eigenvalue of the Hermitian part of each
    block, and the smallest index of each block.  The entries (ri[e], ci[e])
    -> data[e] are scattered into one dense square block per component,
    repeated positions summed in input order; comp[i] is the component of
    index i, in range(k), and a block's rows and columns are its indices in
    increasing order.  A 1x1 block is its real part, read without LAPACK,
    and each larger block size takes one batched eigvalsh."""
    k = int(comp.max()) + 1
    loc, size = _rank_within(comp, k)
    # a component's position among the components of its size
    slot, _ = _rank_within(size, int(size.max()) + 1)
    ec = comp[ri]
    esize = size[ec]
    low, high = np.empty(k), np.empty(k)
    for h in np.flatnonzero(np.bincount(size)).tolist():
        comps = np.flatnonzero(size == h)
        sel = esize == h
        count = len(comps) * h * h
        flat = (slot[ec[sel]] * h + loc[ri[sel]]) * h + loc[ci[sel]]
        if h == 1:
            low[comps] = high[comps] = np.bincount(flat, data[sel].real, count)
            continue
        blocks = np.empty(count, dtype=complex)
        blocks.real = np.bincount(flat, data[sel].real, count)
        blocks.imag = np.bincount(flat, data[sel].imag, count)
        blocks = blocks.reshape(-1, h, h)
        eigs = np.linalg.eigvalsh(0.5 * (blocks + blocks.conj().transpose(0, 2, 1)))
        low[comps], high[comps] = eigs[:, 0], eigs[:, -1]
    # _components numbers the blocks by their smallest index, so the
    # running maximum of the labels first reaches each block there
    return low, high, np.searchsorted(np.maximum.accumulate(comp), np.arange(k))


def hermitian_eigs(rows, cols, data, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The least and the largest eigenvalue of the Hermitian part of each
    block of the n x n matrix with the entries (rows[e], cols[e]) -> data[e],
    and the smallest index of each block.

    The blocks are the connected components of the index graph over all n
    indices (i joined to j when entry (i, j) is stored), so the matrix is
    their direct sum and its spectrum the union of theirs; an index with no
    entry is a 1x1 zero block, through which 0 joins the spectrum.  A matrix
    whose entries all lie on the diagonal is read without a split, each
    index a block of its real diagonal entry; any other is split by
    _block_eigs."""
    if np.array_equal(rows, cols):
        # repeated entries sum, and an index with no entry sums to 0
        d = np.bincount(rows, np.real(data), n)
        return d, d, np.arange(n)
    return _block_eigs(rows, cols, data, _components(rows, cols, n))


def gram_eigs(a: CSR, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """hermitian_eigs of a* a with only the entries (r, c) where labels[r] ==
    labels[c], over all a.shape[1] indices, without forming that matrix.

    Entry (r, c) of a* a sums conj(a[k, r]) a[k, c] over the rows k, so only
    entries of one row of a with equally labelled columns meet: the blocks
    are the components of the columns joined by each (row, label) group's
    consecutive entries, and each group's pair products are scattered
    straight into them.  Where an entry of a* a cancels to exactly 0, a
    block may join two components of its index graph; its spectrum is
    still the union of theirs.  With no group of two entries, every column
    is a block of its own, its summed squared moduli, read with no split."""
    n = a.shape[1]
    rows, cols, data = coo_parts(a)
    group = rows * (int(labels.max(initial=0)) + 1) + labels[cols]
    if np.count_nonzero(group[1:] < group[:-1]):
        # CSR order is by row, then column: a stable sort keeps rows in order
        order = np.argsort(group, kind="stable")
        group, cols, data = group[order], cols[order], data[order]
    link = group[1:] == group[:-1]
    if not np.count_nonzero(link):
        d = np.bincount(cols, (data.conj() * data).real, n)
        return d, d, np.arange(n)
    head = np.flatnonzero(np.concatenate(([True], ~link)))
    size = np.diff(np.append(head, len(group)))
    # entry e pairs with every entry of its group, which starts at head
    counts = np.repeat(size, size)
    first = np.repeat(head, size) - (np.cumsum(counts) - counts)
    left = np.repeat(np.arange(len(group)), counts)
    right = np.arange(int(counts.sum())) + np.repeat(first, counts)
    comp = _components(cols[:-1][link], cols[1:][link], n)
    return _block_eigs(cols[left], cols[right], data[left].conj() * data[right], comp)


def norm2(a: CSR) -> float:
    """Exact operator 2-norm, the largest singular value: the square root of
    the largest eigenvalue of a* a, read by `gram_eigs`."""
    return float(np.sqrt(gram_eigs(a, np.zeros(a.shape[1], dtype=np.intp))[1].max(initial=0.0)))
