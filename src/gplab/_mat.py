"""Mixed dense/sparse complex matrix helpers.

Matrices below DENSE_CUTOFF live as numpy arrays, larger ones as scipy CSR;
the helpers keep the two representations interchangeable for the operator
layer.  `norm2` is exact on both: a CSR matrix is split into the connected
components of its nonzero pattern, whose dense blocks go to LAPACK.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

DENSE_CUTOFF = 256


def is_sparse(a) -> bool:
    return sp.issparse(a)


def from_coo(rows, cols, data, dim: int):
    if dim < DENSE_CUTOFF:
        out = np.zeros((dim, dim), dtype=complex)
        np.add.at(out, (np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)), np.asarray(data, dtype=complex))
        return out
    m = sp.coo_matrix((np.asarray(data, dtype=complex), (rows, cols)), shape=(dim, dim))
    return m.tocsr()


def zeros(dim: int):
    if dim < DENSE_CUTOFF:
        return np.zeros((dim, dim), dtype=complex)
    return sp.csr_matrix((dim, dim), dtype=complex)


def eye(dim: int):
    if dim < DENSE_CUTOFF:
        return np.eye(dim, dtype=complex)
    return sp.identity(dim, dtype=complex, format="csr")


def diag(vec: np.ndarray):
    dim = len(vec)
    if dim < DENSE_CUTOFF:
        return np.diag(np.asarray(vec, dtype=complex))
    return sp.diags(np.asarray(vec, dtype=complex), format="csr")


def mul(a, b):
    out = a @ b
    return out.tocsr() if sp.issparse(out) else out


def add(a, b):
    return a + b


def sub(a, b):
    return a - b


def scale(a, scalar: complex):
    return a * scalar


def adjoint(a):
    if sp.issparse(a):
        return a.conj().T.tocsr()
    return a.conj().T


def to_dense(a) -> np.ndarray:
    return a.toarray() if sp.issparse(a) else np.asarray(a)


def entry(a, i: int, j: int) -> complex:
    return complex(a[i, j])


def col_select(a, idx):
    if sp.issparse(a):
        return a[:, idx].tocsr()
    return a[:, idx]


def coo_parts(a):
    if sp.issparse(a):
        m = a.tocoo()
        return m.row, m.col, m.data
    rows, cols = np.nonzero(a)
    return rows, cols, a[rows, cols]


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
    if not sp.issparse(a):
        if a.size == 0:
            return 0.0
        return float(np.linalg.norm(a, 2))
    m = a.tocoo()
    keep = m.data != 0
    if not keep.any():
        return 0.0
    data = m.data[keep]
    urows, ri = np.unique(m.row[keep], return_inverse=True)
    ucols, ci = np.unique(m.col[keep], return_inverse=True)
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
