"""Finite-dimensional C*-algebras with faithful states and their GNS
representations.

An algebra is a direct sum of full matrix blocks M_{d_1} + ... + M_{d_k};
an element is one block-diagonal complex matrix of size D = d_1 + ... +
d_k, so that a sum, a scalar multiple, a product or an adjoint is one numpy
operation.  The entries off the blocks are zeros of either sign, on which
no result depends: coordinates are the coefficients in the matrix units,
read as one gather.  Inner products are linear in the second argument throughout,
so the state reads omega(x) = <xi, x xi>.
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
    """The algebra with the given block sizes.

    Compiled once, outside the compared fields: `_slices`, the block slices
    of the D x D matrix; `_units`, the flat positions of the matrix units in
    basis() order; `_one`, the unit, one read-only matrix that every one()
    shares; `_draws`, where VertexSite.random_element reads the real and
    the imaginary part of each matrix-unit coefficient in its draw.
    """

    blocks: tuple[int, ...]

    def __post_init__(self):
        if not self.blocks or any(d < 1 for d in self.blocks):
            raise ValueError("block sizes must be positive integers")
        offs = list(itertools.accumulate(self.blocks, initial=0))
        size = offs[-1]
        slices = tuple(slice(lo, hi) for lo, hi in zip(offs, offs[1:]))
        units, re, im = [], [], []
        for s in slices:  # block b's draw is its d*d real parts, then its d*d imaginary parts
            n, d2 = len(units), (s.stop - s.start) ** 2
            units += [r * size + c for r in range(s.start, s.stop) for c in range(s.start, s.stop)]
            re += range(2 * n, 2 * n + d2)
            im += range(2 * n + d2, 2 * n + 2 * d2)
        object.__setattr__(self, "_slices", slices)
        compiled = {"_units": np.array(units), "_one": np.eye(size, dtype=complex), "_draws": np.array([re, im])}
        for name, value in compiled.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self._units)

    def element(self, mats: Sequence[np.ndarray]) -> "Element":
        """The element with the given per-block matrices."""
        if len(mats) != len(self.blocks):
            raise ValueError("wrong number of blocks")
        out = np.zeros(self._one.shape, dtype=complex)
        for d, sl, m in zip(self.blocks, self._slices, mats):
            a = np.asarray(m, dtype=complex)
            if a.shape != (d, d):
                raise ValueError(f"block of shape {a.shape}, expected ({d},{d})")
            out[sl, sl] = a
        return Element(self, out)

    def one(self) -> "Element":
        return Element(self, self._one)

    def basis(self) -> list["Element"]:
        """Matrix units blockwise, in (block, row, col) order."""
        rows = np.eye(self._one.size, dtype=complex)[self._units]
        return [Element(self, r.reshape(self._one.shape)) for r in rows]


class Element:
    """An algebra element: `mat`, one block-diagonal D x D complex matrix.

    No operation writes into an operand's matrix, which may be read-only
    (the algebra's shared unit is); each returns a new one.
    """

    __slots__ = ("algebra", "mat")

    def __init__(self, algebra: FiniteDimAlgebra, mat: np.ndarray):
        self.algebra = algebra
        self.mat = mat

    def _binary(self, other: "Element"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("elements from different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._binary(other)
        return Element(self.algebra, self.mat + other.mat)

    def __sub__(self, other: "Element") -> "Element":
        self._binary(other)
        return Element(self.algebra, self.mat - other.mat)

    def __mul__(self, scalar: complex) -> "Element":
        return Element(self.algebra, scalar * self.mat)

    __rmul__ = __mul__

    def __neg__(self) -> "Element":
        return self * (-1.0)

    def __matmul__(self, other: "Element") -> "Element":
        self._binary(other)
        return Element(self.algebra, self.mat @ other.mat)

    def star(self) -> "Element":
        return Element(self.algebra, self.mat.conj().T)

    def coeffs(self) -> np.ndarray:
        """The coefficients in the matrix units of basis(), in that order."""
        return self.mat.take(self.algebra._units)

    def norm(self) -> float:
        """The largest block norm: the whole matrix has the blocks' singular values."""
        return np.linalg.norm(self.mat, 2)

    def is_zero(self, tol: float = 1e-13) -> bool:
        return bool(np.abs(self.mat).max() <= tol)

    def min_eig(self) -> float:
        """Smallest eigenvalue across blocks (element assumed self-adjoint)."""
        return np.linalg.eigvalsh(0.5 * (self.mat + self.mat.conj().T))[0]

    def isclose(self, other: "Element", tol: float = 1e-10) -> bool:
        return (self - other).norm() <= tol

    def is_unitary(self) -> bool:
        one = self.algebra.one()
        return (self @ self.star()).isclose(one, 1e-10) and (self.star() @ self).isclose(one, 1e-10)

    def __repr__(self) -> str:
        return f"Element(blocks={self.algebra.blocks})"


@dataclass(frozen=True)
class StateSpec:
    """A state given by per-block density matrices with total trace one.

    omega(x) = sum_b tr(rho_b x_b) is compiled once into `_weights`, the
    entries of the transposed densities in matrix-unit order, so that a
    call is one dot product with x.coeffs().
    """

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
        object.__setattr__(self, "_weights", np.concatenate([rho.T.ravel() for rho in self.densities]))

    @staticmethod
    def build(algebra: FiniteDimAlgebra, densities: Sequence[np.ndarray]) -> "StateSpec":
        return StateSpec(algebra, tuple(np.asarray(r, dtype=complex) for r in densities))

    def omega(self, x: Element) -> complex:
        return complex(self._weights @ x.coeffs())

    def is_faithful(self) -> bool:
        return not self._singular_blocks()

    def _singular_blocks(self) -> list[int]:
        return [i for i, rho in enumerate(self.densities) if np.linalg.eigvalsh(rho).min() <= PSD_TOL]

    def is_central(self, x: Element) -> bool:
        """Whether omega(x b) = omega(b x) for every matrix unit b."""
        return all(abs(self.omega(x @ b) - self.omega(b @ x)) <= 1e-10 for b in self.algebra.basis())

    def is_tracial(self) -> bool:
        return all(self.is_central(a) for a in self.algebra.basis())


def _require_faithful(st: StateSpec):
    bad = st._singular_blocks()
    if bad:
        raise ValueError(f"state is not faithful (singular density blocks {bad})")


def centered(a: Element, st: StateSpec) -> Element:
    """x minus omega(x) times the unit."""
    return Element(a.algebra, a.mat - st.omega(a) * a.algebra._one)


class GnsRep:
    """A concrete GNS representation with the cyclic vector as basis vector 0.

    `matrix(x)` is the dim x dim matrix of left multiplication in the chosen
    orthonormal basis; its column 0 holds the coordinates of the vector
    x.xi.

    The representation is linear, so it is compiled once: `images` holds, as
    columns of one (dim**2, k) array, the flattened matrices of k algebra
    elements spanning the algebra, and `coords(x)` gives the k coefficients
    of x in them (for gns, the matrix units and x.coeffs(), one gather).  A
    call is then one matrix-vector product.
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
    come from the blockwise Cholesky factors L_b of the densities, a |->
    vec_F(a_b L_b), isometric since tr(rho a* b) = <aL, bL>_HS; they are
    rotated so the cyclic vector (the image of 1) sits at basis position 0.
    """
    if st.algebra != alg:
        raise ValueError("state is for a different algebra")
    _require_faithful(st)
    xi = np.concatenate([np.linalg.cholesky(rho).flatten(order="F") for rho in st.densities])
    u = _householder_with_first_column(xi)
    # x acts as kron(1, x) on vec_F of D x D matrices, where the coordinates,
    # vec_F of each block, sit at the flat positions _units.
    grid = np.ix_(alg._units, alg._units)
    images = np.stack([(u.conj().T @ np.kron(alg._one, b.mat)[grid] @ u).ravel() for b in alg.basis()], axis=1)
    return GnsRep(alg, st, alg.dim, images, Element.coeffs)


def optimal_q(a: Element, st: StateSpec) -> float:
    """Largest q with a a* >= q omega(a* a) 1, i.e. lambda_min(aa*)/omega(a*a)."""
    if a.is_zero():
        raise ValueError("witness element must be nonzero")
    if abs(st.omega(a)) > 1e-10:
        raise ValueError("witness element must be centered (omega(a) = 0)")
    lam = (a @ a.star()).min_eig()
    denom = st.omega(a.star() @ a).real
    return max(lam, 0.0) / denom


def require_witness(a: Element, st: StateSpec, unitary: bool) -> None:
    """The one test of a supplied witness, ValueError unless it passes:
    nonzero and centered (optimal_q), and unitary when `unitary`."""
    optimal_q(a, st)
    if unitary and not a.is_unitary():
        raise ValueError("expected a unitary")


def _perm_sign_candidates(alg: FiniteDimAlgebra):
    """Block-diagonal signed permutation matrices.  The identity permutations
    come first, so the first 2**slots candidates are the sign diagonals."""
    slots = sum(alg.blocks)
    perms_per_block = [
        [s.start + np.array(p) for p in itertools.permutations(range(s.stop - s.start))] for s in alg._slices
    ]
    for choice in itertools.product(*perms_per_block):
        rows = np.concatenate(choice)  # column j has its entry in row rows[j]
        for signs in itertools.product((1.0, -1.0), repeat=slots):
            m = np.zeros((slots, slots), dtype=complex)
            m[rows, np.arange(slots)] = signs
            yield m


def _phase_candidates(alg: FiniteDimAlgebra):
    phases = np.exp(2j * np.pi * np.arange(PHASE_GRID) / PHASE_GRID)
    for pick in itertools.product(range(PHASE_GRID), repeat=sum(alg.blocks)):
        yield np.diag(phases[list(pick)])


def centered_unitary_search(alg: FiniteDimAlgebra, st: StateSpec) -> Optional[tuple[Element, bool]]:
    """Search a finite deterministic family for a unitary u with omega(u) = 0.

    Returns (u, central_flag) for the first hit, None when the family is
    exhausted.  Absence from the family never certifies that no such unitary
    exists.  central_flag is st.is_central(u).
    """
    _require_faithful(st)
    stream = itertools.chain(_perm_sign_candidates(alg), _phase_candidates(alg))
    for m in itertools.islice(stream, UNITARY_SEARCH_CAP):
        u = Element(alg, m)
        if abs(st.omega(u)) <= 1e-12:
            return u, st.is_central(u)
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
    return _hecke_gns(q, *hecke_vertex(q))


def _hecke_gns(q: float, alg: FiniteDimAlgebra, st: StateSpec, t: Element) -> GnsRep:
    """hecke_gns(q) on the vertex (alg, st, t) = hecke_vertex(q) already built."""
    p = hecke_parameter(q)
    t1, t2 = t.mat[0, 0].real, t.mat[1, 1].real

    def coords(x: Element) -> np.ndarray:
        x1, x2 = complex(x.mat[0, 0]), complex(x.mat[1, 1])
        beta = (x1 - x2) / (t1 - t2)
        return np.array([x1 - beta * t1, beta])

    images = np.array([[1, 0], [0, 1], [0, 1], [1, p]], dtype=complex)
    return GnsRep(alg, st, 2, images, coords)


@dataclass(frozen=True)
class VertexSite:
    """A vertex algebra bundled with its state and a concrete GNS picture.

    The state is faithful, and the state and the representation are of
    the site's algebra, by construction, so no reader of a site decides
    that again.
    """

    algebra: FiniteDimAlgebra
    state: StateSpec
    rep: GnsRep
    hecke_q: Optional[float] = None

    def __post_init__(self):
        if self.state.algebra != self.algebra or self.rep.algebra != self.algebra:
            raise ValueError("state and representation must be of the site's algebra")
        _require_faithful(self.state)

    def omega(self, x: Element) -> complex:
        return self.state.omega(x)

    def centered(self, x: Element) -> Element:
        return centered(x, self.state)

    def random_element(self, rng: np.random.Generator, center: bool = True) -> Element:
        """Standard complex Gaussian matrix-unit coefficients, read from one
        draw as from a d x d real and a d x d imaginary draw per block."""
        alg = self.algebra
        z = rng.standard_normal(2 * alg.dim)
        mat = np.zeros(alg._one.shape, dtype=complex)
        mat.flat[alg._units] = z[alg._draws[0]] + 1j * z[alg._draws[1]]
        x = Element(alg, mat)
        return self.centered(x) if center else x

    def skip_element(self, rng: np.random.Generator) -> None:
        """Advance rng past one random_element draw, building no element:
        the same one draw of 2 * dim normals."""
        rng.standard_normal(2 * self.algebra.dim)


def site_from_state(alg: FiniteDimAlgebra, st: StateSpec) -> VertexSite:
    return VertexSite(alg, st, gns(alg, st))


def site_from_hecke(q: float) -> VertexSite:
    """The Hecke vertex, its vertex built once and shared with its GNS
    representation."""
    alg, st, t = hecke_vertex(q)
    return VertexSite(alg, st, _hecke_gns(q, alg, st, t), hecke_q=q)
