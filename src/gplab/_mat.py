"""Mixed dense/sparse complex matrix helpers.

Matrices below DENSE_CUTOFF live as numpy arrays, larger ones as scipy CSR;
the helpers keep the two representations interchangeable for the operator
layer.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

DENSE_CUTOFF = 256

NORM_TOL = 1e-12
NORM_MAX_ITER = 10000


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


def _power_norm(a, start_phase: float) -> float:
    n = a.shape[1]
    v = np.exp(1j * start_phase * np.arange(n)) / np.sqrt(n)
    ah = a.conj().T
    sigma = 0.0
    for _ in range(NORM_MAX_ITER):
        w = ah @ (a @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        new_sigma = np.sqrt(nw)
        if abs(new_sigma - sigma) <= NORM_TOL * max(1.0, new_sigma):
            return float(new_sigma)
        sigma = new_sigma
    return float(sigma)


def norm2(a) -> float:
    """Operator 2-norm; dense SVD below the cutoff, deterministic power
    iteration (two fixed starts) above it."""
    if not sp.issparse(a):
        if a.size == 0:
            return 0.0
        return float(np.linalg.norm(a, 2))
    if a.nnz == 0:
        return 0.0
    if min(a.shape) < DENSE_CUTOFF:
        return float(np.linalg.norm(a.toarray(), 2))
    return max(_power_norm(a, 0.0), _power_norm(a, 0.7))
