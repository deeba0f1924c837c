"""Finite-dimensional C*-algebras with faithful states and their GNS
representations.

An algebra is a direct sum of full matrix blocks; elements are per-block
complex matrices.  Inner products are linear in the second argument
throughout, so the state reads omega(x) = <xi, x xi>.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

PSD_TOL = 1e-12
UNITARY_SEARCH_CAP = 4096
PHASE_GRID = 16


@dataclass(frozen=True)
class FiniteDimAlgebra:
    blocks: tuple[int, ...]

    def __post_init__(self):
        if not self.blocks or any(d < 1 for d in self.blocks):
            raise ValueError("block sizes must be positive integers")

    @property
    def dim(self) -> int:
        return sum(d * d for d in self.blocks)

    def element(self, mats: Sequence[np.ndarray]) -> "Element":
        if len(mats) != len(self.blocks):
            raise ValueError("wrong number of blocks")
        out = []
        for d, m in zip(self.blocks, mats):
            a = np.asarray(m, dtype=complex)
            if a.shape != (d, d):
                raise ValueError(f"block of shape {a.shape}, expected ({d},{d})")
            out.append(a)
        return Element(self, tuple(out))

    def zero(self) -> "Element":
        return Element(self, tuple(np.zeros((d, d), dtype=complex) for d in self.blocks))

    def one(self) -> "Element":
        return Element(self, tuple(np.eye(d, dtype=complex) for d in self.blocks))

    def basis(self) -> list["Element"]:
        """Matrix units blockwise, in (block, row, col) order."""
        out = []
        for i, d in enumerate(self.blocks):
            for r in range(d):
                for c in range(d):
                    mats = [np.zeros((dd, dd), dtype=complex) for dd in self.blocks]
                    mats[i][r, c] = 1.0
                    out.append(Element(self, tuple(mats)))
        return out


class Element:
    """An algebra element; block matrices are treated as immutable."""

    __slots__ = ("algebra", "mats")

    def __init__(self, algebra: FiniteDimAlgebra, mats: tuple[np.ndarray, ...]):
        self.algebra = algebra
        self.mats = mats

    def _binary(self, other: "Element"):
        if self.algebra != other.algebra:
            raise ValueError("elements from different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._binary(other)
        return Element(self.algebra, tuple(a + b for a, b in zip(self.mats, other.mats)))

    def __sub__(self, other: "Element") -> "Element":
        self._binary(other)
        return Element(self.algebra, tuple(a - b for a, b in zip(self.mats, other.mats)))

    def __mul__(self, scalar: complex) -> "Element":
        return Element(self.algebra, tuple(scalar * a for a in self.mats))

    __rmul__ = __mul__

    def __neg__(self) -> "Element":
        return self * (-1.0)

    def __matmul__(self, other: "Element") -> "Element":
        self._binary(other)
        return Element(self.algebra, tuple(a @ b for a, b in zip(self.mats, other.mats)))

    def star(self) -> "Element":
        return Element(self.algebra, tuple(a.conj().T for a in self.mats))

    def norm(self) -> float:
        return max(np.linalg.norm(a, 2) for a in self.mats)

    def is_zero(self, tol: float = 1e-13) -> bool:
        return all(np.max(np.abs(a), initial=0.0) <= tol for a in self.mats)

    def min_eig(self) -> float:
        """Smallest eigenvalue across blocks (element assumed self-adjoint)."""
        return min(np.linalg.eigvalsh(0.5 * (a + a.conj().T)).min() for a in self.mats)

    def isclose(self, other: "Element", tol: float = 1e-10) -> bool:
        return (self - other).norm() <= tol

    def __repr__(self) -> str:
        return f"Element(blocks={self.algebra.blocks})"


@dataclass(frozen=True)
class StateSpec:
    """A state given by per-block density matrices with total trace one."""

    algebra: FiniteDimAlgebra
    densities: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.densities) != len(self.algebra.blocks):
            raise ValueError("one density block per algebra block required")
        total = 0.0
        for d, rho in zip(self.algebra.blocks, self.densities):
            if rho.shape != (d, d):
                raise ValueError("density block shape mismatch")
            if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
                raise ValueError("density blocks must be hermitian")
            if np.linalg.eigvalsh(rho).min() < -PSD_TOL:
                raise ValueError("density blocks must be positive semidefinite")
            total += float(np.trace(rho).real)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"densities must have total trace 1, got {total}")

    @staticmethod
    def build(algebra: FiniteDimAlgebra, densities: Sequence[np.ndarray]) -> "StateSpec":
        return StateSpec(algebra, tuple(np.asarray(r, dtype=complex) for r in densities))

    def omega(self, x: Element) -> complex:
        return complex(sum(np.trace(rho @ a) for rho, a in zip(self.densities, x.mats)))

    def is_faithful(self, tol: float = PSD_TOL) -> bool:
        return all(np.linalg.eigvalsh(rho).min() > tol for rho in self.densities)

    def is_tracial(self, tol: float = 1e-10) -> bool:
        basis = self.algebra.basis()
        for a in basis:
            for b in basis:
                if abs(self.omega(a @ b) - self.omega(b @ a)) > tol:
                    return False
        return True


def centered(a: Element, st: StateSpec) -> Element:
    """x minus omega(x) times the unit."""
    return a - st.omega(a) * a.algebra.one()


class GnsRep:
    """A concrete GNS representation with the cyclic vector as basis vector 0.

    `matrix(x)` is the dim x dim matrix of left multiplication in the chosen
    orthonormal basis; columns of matrix(x) at index 0 are the coordinates of
    the vector x.xi.

    The representation is linear, so it is compiled once: `images` holds, as
    columns of one (dim**2, k) array, the flattened matrices of k algebra
    elements spanning the algebra, and `coords(x)` gives the k coefficients
    of x in them.  A call is then one matrix-vector product.
    """

    def __init__(self, algebra: FiniteDimAlgebra, state: StateSpec, dim: int, images: np.ndarray, coords):
        self.algebra = algebra
        self.state = state
        self.dim = dim
        self.cyclic_index = 0
        self._images = images
        self._coords = coords

    def matrix(self, x: Element) -> np.ndarray:
        return (self._images @ self._coords(x)).reshape(self.dim, self.dim)

    def vector(self, x: Element) -> np.ndarray:
        return self.matrix(x)[:, self.cyclic_index]


def _householder_with_first_column(target: np.ndarray) -> np.ndarray:
    """Unitary whose column 0 is `target` (a unit vector with real positive
    first entry); a reflection, hence deterministic."""
    n = target.shape[0]
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    v = target - e0
    nv = np.linalg.norm(v)
    if nv < 1e-14:
        return np.eye(n, dtype=complex)
    v = v / nv
    return np.eye(n, dtype=complex) - 2.0 * np.outer(v, v.conj())


def gns(alg: FiniteDimAlgebra, st: StateSpec) -> GnsRep:
    """GNS representation from a faithful state.

    The Hilbert space is the algebra with <a,b> = omega(a* b); coordinates
    come from the blockwise Cholesky factors of the densities, rotated so the
    cyclic vector (the image of 1) sits at basis position 0.
    """
    if st.algebra != alg:
        raise ValueError("state is for a different algebra")
    if not st.is_faithful():
        bad = [i for i, rho in enumerate(st.densities) if np.linalg.eigvalsh(rho).min() <= PSD_TOL]
        raise ValueError(f"state is not faithful (singular density blocks {bad})")
    chol = [np.linalg.cholesky(rho) for rho in st.densities]
    dim = alg.dim

    def coords(x: Element) -> np.ndarray:
        # block a |-> vec_F(a L); isometric since tr(rho a* b) = <aL, bL>_HS
        return np.concatenate([(a @ L).flatten(order="F") for a, L in zip(x.mats, chol)])

    xi = coords(alg.one())
    u = _householder_with_first_column(xi)
    uh = u.conj().T

    def matrix_fn(x: Element) -> np.ndarray:
        big = np.zeros((dim, dim), dtype=complex)
        off = 0
        for d, a in zip(alg.blocks, x.mats):
            big[off: off + d * d, off: off + d * d] = np.kron(np.eye(d), a)
            off += d * d
        return uh @ big @ u

    # the images of the matrix units, whose coefficients are the entries
    images = np.stack([matrix_fn(b).ravel() for b in alg.basis()], axis=1)
    return GnsRep(alg, st, dim, images, _entries)


def _entries(x: Element) -> np.ndarray:
    """The coefficients of x in the matrix units of FiniteDimAlgebra.basis()."""
    return np.concatenate([a.ravel() for a in x.mats])


def optimal_q(a: Element, st: StateSpec) -> float:
    """Largest q with a a* >= q omega(a* a) 1, i.e. lambda_min(aa*)/omega(a*a)."""
    if a.is_zero():
        raise ValueError("witness element must be nonzero")
    if abs(st.omega(a)) > 1e-10:
        raise ValueError("witness element must be centered (omega(a) = 0)")
    lam = (a @ a.star()).min_eig()
    denom = st.omega(a.star() @ a).real
    return max(lam, 0.0) / denom


def _perm_sign_candidates(alg: FiniteDimAlgebra):
    """Signed permutation matrices per block.  The identity permutations
    come first, so the first 2**slots candidates are the sign diagonals."""
    perms_per_block = [list(itertools.permutations(range(d))) for d in alg.blocks]
    slots = sum(alg.blocks)
    for choice in itertools.product(*perms_per_block):
        for signs in itertools.product((1.0, -1.0), repeat=slots):
            mats = []
            off = 0
            for d, perm in zip(alg.blocks, choice):
                m = np.zeros((d, d), dtype=complex)
                for col, row in enumerate(perm):
                    m[row, col] = signs[off + col]
                mats.append(m)
                off += d
            yield mats


def _phase_candidates(alg: FiniteDimAlgebra):
    slots = sum(alg.blocks)
    phases = np.exp(2j * np.pi * np.arange(PHASE_GRID) / PHASE_GRID)
    for pick in itertools.product(range(PHASE_GRID), repeat=slots):
        mats = []
        off = 0
        for d in alg.blocks:
            mats.append(np.diag(phases[list(pick[off: off + d])]))
            off += d
        yield mats


def centered_unitary_search(
    alg: FiniteDimAlgebra, st: StateSpec, tol: float = 1e-12
) -> Optional[tuple[Element, bool]]:
    """Search a finite deterministic family for a unitary u with omega(u) = 0.

    Returns (u, central_flag) for the first hit, None when the family is
    exhausted.  Absence from the family never certifies that no such unitary
    exists.  central_flag records whether omega(u x) = omega(x u) on a basis.
    """
    if not st.is_faithful():
        raise ValueError("state must be faithful")
    stream = itertools.chain(_perm_sign_candidates(alg), _phase_candidates(alg))
    for mats in itertools.islice(stream, UNITARY_SEARCH_CAP):
        u = Element(alg, tuple(mats))
        if abs(st.omega(u)) <= tol:
            basis = alg.basis()
            central = all(
                abs(st.omega(u @ x) - st.omega(x @ u)) <= 1e-10 for x in basis
            )
            return u, central
    return None


def commutant_is_trivial(rep: GnsRep) -> bool:
    """True iff only scalars commute with the represented algebra."""
    d = rep.dim
    eye = np.eye(d)
    rows = []
    for b in rep.algebra.basis():
        m = rep.matrix(b)
        # [X, m] = 0 as a linear condition on vec(X)
        rows.append(np.kron(eye, m) - np.kron(m.T, eye))
    stacked = np.vstack(rows)
    sv = np.linalg.svd(stacked, compute_uv=False)
    null_dim = int(np.sum(sv <= max(1e-9, sv.max() * 1e-12)))
    return null_dim == 1


def hecke_parameter(q: float) -> float:
    """The quadratic-relation coefficient q^(-1/2)(q - 1) of the generator."""
    if q <= 0:
        raise ValueError("deformation parameter must be positive")
    return (q - 1.0) / np.sqrt(q)


def hecke_vertex(q: float) -> tuple[FiniteDimAlgebra, StateSpec, Element]:
    """Two-dimensional vertex algebra span{1, T} with T = T*, T^2 = 1 + p T,
    p = q^(-1/2)(q - 1), and the canonical trace with tau(T) = 0.

    Realized as C^2 with T = diag(sqrt(q), -1/sqrt(q)) and weights
    (1/(1+q), q/(1+q)).
    """
    hecke_parameter(q)  # validates q > 0
    rq = float(np.sqrt(q))
    alg = FiniteDimAlgebra((1, 1))
    st = StateSpec.build(alg, [np.array([[1.0 / (1.0 + q)]]), np.array([[q / (1.0 + q)]])])
    t = alg.element([np.array([[rq]]), np.array([[-1.0 / rq]])])
    return alg, st, t


def hecke_gns(q: float) -> GnsRep:
    """GNS representation of the Hecke vertex in the canonical basis (xi, T xi).

    In this basis the generator acts as [[0, 1], [1, p]]; matrix(x) is
    compiled on the basis (1, T) and read from the coefficients of x = alpha
    1 + beta T, so its entries are exact whenever alpha, beta and p are
    exactly representable.
    """
    alg, st, t = hecke_vertex(q)
    p = hecke_parameter(q)
    t1 = t.mats[0][0, 0].real
    t2 = t.mats[1][0, 0].real

    def coords(x: Element) -> np.ndarray:
        x1 = complex(x.mats[0][0, 0])
        x2 = complex(x.mats[1][0, 0])
        beta = (x1 - x2) / (t1 - t2)
        return np.array([x1 - beta * t1, beta])

    images = np.array([[1, 0], [0, 1], [0, 1], [1, p]], dtype=complex)
    return GnsRep(alg, st, 2, images, coords)


@dataclass(frozen=True)
class VertexSite:
    """A vertex algebra bundled with its state and a concrete GNS picture."""

    algebra: FiniteDimAlgebra
    state: StateSpec
    rep: GnsRep
    hecke_q: Optional[float] = None

    def omega(self, x: Element) -> complex:
        return self.state.omega(x)

    def centered(self, x: Element) -> Element:
        return centered(x, self.state)

    def random_element(self, rng: np.random.Generator, center: bool = True) -> Element:
        mats = tuple(
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in self.algebra.blocks
        )
        x = Element(self.algebra, mats)
        return self.centered(x) if center else x


def site_from_state(alg: FiniteDimAlgebra, st: StateSpec) -> VertexSite:
    return VertexSite(alg, st, gns(alg, st))


def site_from_hecke(q: float) -> VertexSite:
    alg, st, _ = hecke_vertex(q)
    return VertexSite(alg, st, hecke_gns(q), hecke_q=q)
