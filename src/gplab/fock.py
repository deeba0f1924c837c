"""The truncated graph-product Fock space and its concrete operators.

Every operator here is the compression P_N T P_N of its infinite counterpart
to the basis of word length <= N.  A guard level accompanies each matrix:
the largest k such that the matrix agrees with the untruncated operator on
vectors supported in word length <= k.  Identity checks only ever quantify
over the guarded subspace.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import _mat
from .algebras import Element, GnsRep
from .errors import ResourceLimitError
from .graphs import SimplicialGraph, VertexId
from .words import Letters, NormalForm, coxeter_group

DEFAULT_DIM_CAP = 20000


@dataclass(frozen=True)
class FockIndex:
    """A basis vector: a normal-form word plus one basis slot per letter.

    Slot k indexes the orthonormal basis of the k-th letter's reduced GNS
    space, hence is >= 1 (slot 0 is the cyclic vector, excluded).  The empty
    word with no slots denotes the vacuum.
    """

    word: Letters
    slots: tuple[int, ...]

    def __post_init__(self):
        if len(self.word) != len(self.slots):
            raise ValueError("one slot per letter required")


class TruncatedFock:
    """Orthonormal basis of the graph-product Hilbert space up to depth N."""

    def __init__(
        self,
        graph: SimplicialGraph,
        reps: Mapping[VertexId, GnsRep],
        n: int,
        dim_cap: int = DEFAULT_DIM_CAP,
    ):
        if n < 0:
            raise ValueError("truncation depth must be nonnegative")
        missing = set(graph.vertices) - set(reps)
        if missing:
            raise ValueError(f"missing representations for vertices {sorted(missing)}")
        self.graph = graph
        self.group = coxeter_group(graph)
        self.reps = dict(reps)
        self.n = n
        self.dim_cap = dim_cap

        basis: list[FockIndex] = []
        spans: dict[Letters, tuple[int, int]] = {}
        for w in self.group.ball_tuples(n):
            sdims = [self.reps[v].dim - 1 for v in w]
            if any(d == 0 for d in sdims):
                continue
            spans[w] = (len(basis), math.prod(sdims))
            for slots in itertools.product(*(range(1, d + 1) for d in sdims)):
                basis.append(FockIndex(w, slots))
            if len(basis) > dim_cap:
                raise ResourceLimitError(
                    f"Fock dimension exceeds cap {dim_cap} at depth {n}"
                )
        self.basis = basis
        self.dim = len(basis)
        # word -> (offset, count) of its component's contiguous basis block
        self._spans = spans
        self._index = {(fi.word, fi.slots): i for i, fi in enumerate(basis)}
        self.lengths = np.array([len(fi.word) for fi in basis], dtype=int)
        words = sorted(spans)
        self._word_pos = {w: k for k, w in enumerate(words)}
        self.word_ids = np.array([self._word_pos[fi.word] for fi in basis], dtype=int)
        self._plans: dict = {}
        self._subspaces: dict[SimplicialGraph, "TruncatedFock"] = {}
        self._cols_upto: dict[int, np.ndarray] = {}

    def index_of(self, word: Letters, slots: tuple[int, ...]) -> Optional[int]:
        return self._index.get((word, slots))

    def cols_upto(self, k: int) -> np.ndarray:
        got = self._cols_upto.get(k)
        if got is None:
            got = np.where(self.lengths <= k)[0]
            self._cols_upto[k] = got
        return got

    def word_of(self, i: int) -> Letters:
        return self.basis[i].word

    def words(self) -> list[Letters]:
        return sorted(self._spans)

    def subspace(self, sub: SimplicialGraph) -> "TruncatedFock":
        """The space of an induced subgraph, built under this space's cap."""
        got = self._subspaces.get(sub)
        if got is None:
            _check_induced(self.graph, sub)
            got = TruncatedFock(
                sub, {v: self.reps[v] for v in sub.vertices}, self.n, dim_cap=self.dim_cap
            )
            self._subspaces[sub] = got
        return got


class OperatorMatrix:
    """A compressed operator with its guard level and directional movement
    bounds.

    `up` and `down` bound how far the operator can raise or lower word
    length; matrices stay banded accordingly even beyond the guard, which is
    what makes the adjoint and product guard rules below sound.  Composition
    only spends guard on upward movement: lowering first never leaves the
    truncation.
    """

    __slots__ = ("space", "mat", "guard", "up", "down")

    def __init__(self, space: TruncatedFock, mat, guard: int, up: int, down: int):
        self.space = space
        self.mat = mat
        self.guard = guard
        self.up = up
        self.down = down

    @property
    def reach(self) -> int:
        return self.up + self.down

    def _same_space(self, other: "OperatorMatrix"):
        if self.space is not other.space:
            raise ValueError("operators live on different truncated spaces")

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._same_space(other)
        guard = min(other.guard, self.guard - other.up)
        return OperatorMatrix(
            self.space,
            _mat.mul(self.mat, other.mat),
            guard,
            self.up + other.up,
            self.down + other.down,
        )

    def _combine(self, other: "OperatorMatrix", mat) -> "OperatorMatrix":
        return OperatorMatrix(
            self.space,
            mat,
            min(self.guard, other.guard),
            max(self.up, other.up),
            max(self.down, other.down),
        )

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._same_space(other)
        return self._combine(other, _mat.add(self.mat, other.mat))

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._same_space(other)
        return self._combine(other, _mat.sub(self.mat, other.mat))

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return OperatorMatrix(self.space, _mat.scale(self.mat, scalar), self.guard, self.up, self.down)

    __rmul__ = __mul__

    def __neg__(self) -> "OperatorMatrix":
        return self * (-1.0)

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(
            self.space, _mat.adjoint(self.mat), self.guard - self.down, self.down, self.up
        )

    def norm(self) -> float:
        return _mat.norm2(self.mat)

    def toarray(self) -> np.ndarray:
        return _mat.to_dense(self.mat)

    def entry(self, i: int, j: int) -> complex:
        return _mat.entry(self.mat, i, j)


def identity_op(space: TruncatedFock) -> OperatorMatrix:
    return OperatorMatrix(space, _mat.eye(space.dim), space.n, 0, 0)


def zero_op(space: TruncatedFock) -> OperatorMatrix:
    return OperatorMatrix(space, _mat.zeros(space.dim), space.n, 0, 0)


def guarded_deviation(a: OperatorMatrix, b: OperatorMatrix) -> float:
    """Operator-norm distance restricted to columns inside the common guard."""
    a._same_space(b)
    g = min(a.guard, b.guard)
    if g < 0:
        raise ValueError("empty guard; operators carry no exact columns")
    idx = a.space.cols_upto(g)
    diff = _mat.sub(a.mat, b.mat)
    return _mat.norm2(_mat.col_select(diff, idx))


def guarded_norm(a: OperatorMatrix) -> float:
    idx = a.space.cols_upto(max(a.guard, 0))
    return _mat.norm2(_mat.col_select(a.mat, idx))


def offdiagonal_mass(a: OperatorMatrix) -> float:
    """Largest entry coupling two different word components."""
    rows, cols, data = _mat.coo_parts(a.mat)
    if len(data) == 0:
        return 0.0
    wid = a.space.word_ids
    mask = wid[rows] != wid[cols]
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(data[mask])))


# -- lambda and rho ---------------------------------------------------------


def _liftable_front(group, word: Letters, v: VertexId) -> int:
    for i, letter in enumerate(word):
        if letter == v and all(word[j] in group._adj[v] for j in range(i)):
            return i
    raise ValueError(f"{v} is not a first letter of {word}")


def _liftable_back(group, word: Letters, v: VertexId) -> int:
    n = len(word)
    for i in range(n - 1, -1, -1):
        if word[i] == v and all(word[j] in group._adj[v] for j in range(i + 1, n)):
            return i
    raise ValueError(f"{v} is not a last letter of {word}")


class _SidePlan(NamedTuple):
    """lambda_v or rho_v on the basis, as index arrays; see _plan_side."""

    a_cols: np.ndarray  # (nA,) columns of case A
    a_targets: np.ndarray  # (nA, dv-1) creation target per slot value, -1 beyond N
    b_cols: np.ndarray  # (nB,) columns of case B
    b_slot: np.ndarray  # (nB,) value of the acted slot
    b_retarget: np.ndarray  # (nB, dv-1) in-place retarget per slot value
    b_drop: np.ndarray  # (nB,) target with the acted letter dropped


def _plan_side(space: TruncatedFock, v: VertexId, left: bool) -> _SidePlan:
    """Action plan of lambda_v (left) or rho_v (right) on the basis columns.

    Case A columns are the words without v on the acting side; a_targets[i,
    t-1] is the row of the creation target (v, t) joined to column a_cols[i],
    or -1 when that word leaves the truncation.  Case B columns have v on the
    acting side: b_slot holds the slot value s there, b_retarget[i, t-1] the
    row with s replaced by t, and b_drop the row with the letter dropped.
    Compiled once per (space, vertex, side) and cached in space._plans.
    """
    key = ("lambda" if left else "rho", v)
    got = space._plans.get(key)
    if got is not None:
        return got
    group = space.group
    dv = space.reps[v].dim
    a_cols, a_targets = [], []
    b_cols, b_slot, b_retarget, b_drop = [], [], [], []
    beyond = [-1] * (dv - 1)
    for j, fi in enumerate(space.basis):
        w, slots = fi.word, fi.slots
        letters_side = group.first_letters_tuple(w) if left else group.last_letters_tuple(w)
        if v in letters_side:
            r = _liftable_front(group, w, v) if left else _liftable_back(group, w, v)
            minus = w[:r] + w[r + 1:]
            canon, perm = group.sort_with_perm(minus)
            mslots = slots[:r] + slots[r + 1:]
            b_cols.append(j)
            b_slot.append(slots[r])
            b_retarget.append(
                [space.index_of(w, slots[:r] + (t,) + slots[r + 1:]) for t in range(1, dv)]
            )
            b_drop.append(space.index_of(canon, tuple(mslots[p] for p in perm)))
        else:
            a_cols.append(j)
            if len(w) + 1 <= space.n and dv > 1:
                ext = ((v,) + w) if left else (w + (v,))
                canon, perm = group.sort_with_perm(ext)
                targets = []
                for t in range(1, dv):
                    src = ((t,) + slots) if left else (slots + (t,))
                    targets.append(space.index_of(canon, tuple(src[p] for p in perm)))
                a_targets.append(targets)
            else:
                a_targets.append(beyond)
    plan = _SidePlan(
        np.array(a_cols, dtype=np.intp),
        np.array(a_targets, dtype=np.intp).reshape(len(a_cols), dv - 1),
        np.array(b_cols, dtype=np.intp),
        np.array(b_slot, dtype=np.intp),
        np.array(b_retarget, dtype=np.intp).reshape(len(b_cols), dv - 1),
        np.array(b_drop, dtype=np.intp),
    )
    space._plans[key] = plan
    return plan


# Which parts of the plan each operator keeps: (scalar, creation, diagonal,
# annihilation).
_PARTS = {
    "all": (True, True, True, True),
    "creation": (False, True, False, False),
    "diagonal": (False, False, True, False),
    "annihilation": (False, False, False, True),
}


def _side_op(
    space: TruncatedFock, v: VertexId, x: Element, left: bool, part: str = "all"
) -> OperatorMatrix:
    """lambda_v(x) (left) or rho_v(x) (right), whole or one part of it.

    Q_v, the projection onto the words with v on the acting side, splits the
    operator into four parts, read off the plan with m the GNS matrix of x.
    Case A columns (Q_v^perp) carry the scalar part m[0,0] on the diagonal
    and the creation part m[t,0] on the creation targets; case B columns
    (Q_v) carry the diagonal part m[t,s] on the in-place retargets and the
    annihilation part m[0,s] on the dropped-letter word.  Each kept part is
    one gather from m; zero entries and targets beyond N are left out.

    Only creation can leave the truncation, so it alone costs a guard level:
    (guard, up, down) is (N-1, 1, 1) for the whole operator, (N-1, 1, 0) for
    creation, (N, 0, 0) for diagonal and (N, 0, 1) for annihilation.
    """
    rep = space.reps.get(v)
    if rep is None:
        raise ValueError(f"unknown vertex {v}")
    if x.algebra != rep.algebra:
        raise ValueError("element does not belong to the vertex algebra")
    keep_scalar, keep_create, keep_diag, keep_annih = _PARTS[part]
    m = rep.matrix(x)
    dv = rep.dim
    plan = _plan_side(space, v, left)
    rows, cols, data = [], [], []
    if keep_scalar:
        rows.append(plan.a_cols)
        cols.append(plan.a_cols)
        data.append(np.full(len(plan.a_cols), m[0, 0], dtype=complex))
    if keep_create:
        rows.append(plan.a_targets.ravel())
        cols.append(np.repeat(plan.a_cols, dv - 1))
        data.append(np.tile(m[1:, 0], len(plan.a_cols)))
    if keep_diag:
        rows.append(plan.b_retarget.ravel())
        cols.append(np.repeat(plan.b_cols, dv - 1))
        data.append(m[1:, plan.b_slot].T.ravel())
    if keep_annih:
        rows.append(plan.b_drop)
        cols.append(plan.b_cols)
        data.append(m[0, plan.b_slot])
    rows, cols, data = np.concatenate(rows), np.concatenate(cols), np.concatenate(data)
    keep = (data != 0.0) & (rows >= 0)
    mat = _mat.from_coo(rows[keep], cols[keep], data[keep], space.dim)
    guard = space.n - 1 if keep_create else space.n
    return OperatorMatrix(space, mat, guard, int(keep_create), int(keep_annih))


def lambda_op(space: TruncatedFock, v: VertexId, x: Element) -> OperatorMatrix:
    """Compression of the left regular embedding of x at vertex v."""
    return _side_op(space, v, x, left=True)


def rho_op(space: TruncatedFock, v: VertexId, x: Element) -> OperatorMatrix:
    """Compression of the right-handed embedding of x at vertex v."""
    return _side_op(space, v, x, left=False)


# -- projections and gauge ----------------------------------------------------


def _as_letters(space: TruncatedFock, w) -> Letters:
    if isinstance(w, NormalForm):
        if w.group.graph != space.graph:
            raise ValueError("normal form over a different graph")
        return w.letters
    return space.group.reduce_tuple(tuple(w))


def q_projection(space: TruncatedFock, w) -> OperatorMatrix:
    """Projection onto the components indexed by words starting with w.

    The empty word's projection omits the vacuum line: it is 1 minus the
    vacuum projection, matching the sum over nontrivial group elements.

    The 0/1 diagonal is built once per (space, canonical word) and cached,
    read-only, in space._plans under ("q", letters); every call returns a
    new matrix made from it, so writing into one leaves the cache intact.
    """
    letters = _as_letters(space, w)
    if len(letters) > space.n:
        raise ValueError(f"|w| = {len(letters)} exceeds truncation depth {space.n}")
    key = ("q", letters)
    dvals = space._plans.get(key)
    if dvals is None:
        group = space.group
        dvals = np.zeros(space.dim)
        for word, (off, count) in space._spans.items():
            # The vacuum is excluded even from Q_e: the underlying direct sum
            # runs over nontrivial group elements only.
            if word != () and group.leq_tuple(letters, word):
                dvals[off: off + count] = 1.0
        dvals.flags.writeable = False
        space._plans[key] = dvals
    return OperatorMatrix(space, _mat.diag(dvals), space.n, 0, 0)


def word_projection(space: TruncatedFock, w) -> OperatorMatrix:
    """Projection p_w onto the single word component (the vacuum for w = e)."""
    letters = _as_letters(space, w)
    dvals = np.zeros(space.dim, dtype=complex)
    span = space._spans.get(letters)
    if span is not None:
        off, count = span
        dvals[off: off + count] = 1.0
    return OperatorMatrix(space, _mat.diag(dvals), space.n, 0, 0)


def level_projection(space: TruncatedFock, k: int) -> OperatorMatrix:
    """P_k: projection onto word lengths <= k."""
    dvals = (space.lengths <= k).astype(complex)
    return OperatorMatrix(space, _mat.diag(dvals), space.n, 0, 0)


def vacuum_projection(space: TruncatedFock) -> OperatorMatrix:
    return word_projection(space, ())


def creation(space: TruncatedFock, v: VertexId, a: Element) -> OperatorMatrix:
    """Q_v lambda_v(a) Q_v^perp; see _side_op."""
    return _side_op(space, v, a, left=True, part="creation")


def diagonal(space: TruncatedFock, v: VertexId, a: Element) -> OperatorMatrix:
    """Q_v lambda_v(a) Q_v; see _side_op."""
    return _side_op(space, v, a, left=True, part="diagonal")


def annihilation(space: TruncatedFock, v: VertexId, a: Element) -> OperatorMatrix:
    """Q_v^perp lambda_v(a) Q_v; see _side_op."""
    return _side_op(space, v, a, left=True, part="annihilation")


def gauge_unitary(space: TruncatedFock, z: Mapping[VertexId, complex]) -> OperatorMatrix:
    for v in space.graph.vertices:
        if abs(abs(z[v]) - 1.0) > 1e-12:
            raise ValueError(f"gauge parameter at vertex {v} is not unimodular")
    dvals = np.ones(space.dim, dtype=complex)
    for i, fi in enumerate(space.basis):
        val = 1.0 + 0j
        for letter in fi.word:
            val *= z[letter]
        dvals[i] = val
    return OperatorMatrix(space, _mat.diag(dvals), space.n, 0, 0)


def expectation_diag(x: OperatorMatrix) -> OperatorMatrix:
    """Block-diagonal compression onto the word components (sum p_w x p_w)."""
    space = x.space
    rows, cols, data = _mat.coo_parts(x.mat)
    wid = space.word_ids
    if len(data):
        mask = wid[rows] == wid[cols]
        rows, cols, data = rows[mask], cols[mask], data[mask]
    return OperatorMatrix(space, _mat.from_coo(rows, cols, data, space.dim), x.guard, 0, 0)


def gauge_average(x: OperatorMatrix, m: int) -> OperatorMatrix:
    """Average of U_z x U_z* over the m-th-roots-of-unity grid on the torus.

    Entry (r, c) picks up z^(k_r - k_c), with k the per-vertex letter counts.
    The grid average factorises over the vertices, and the average of z^d
    over the m-th roots of unity is 1 when m divides d and 0 otherwise; so
    the average keeps exactly the entries whose count differences m divides.
    For m > 2N that leaves expectation_diag(x), because the differences are
    bounded by the word length.
    """
    if m < 1:
        raise ValueError("grid order must be >= 1")
    space = x.space
    nv = len(space.graph.vertices)
    counts = np.zeros((space.dim, nv), dtype=np.int64)
    vpos = {v: k for k, v in enumerate(space.graph.vertices)}
    for i, fi in enumerate(space.basis):
        for letter in fi.word:
            counts[i, vpos[letter]] += 1
    rows, cols, data = _mat.coo_parts(x.mat)
    keep = np.all((counts[rows] - counts[cols]) % m == 0, axis=1)
    mat = _mat.from_coo(rows[keep], cols[keep], data[keep], space.dim)
    return OperatorMatrix(space, mat, x.guard, x.up, x.down)


# -- subgraph expectation ------------------------------------------------------


def _check_induced(graph: SimplicialGraph, sub: SimplicialGraph):
    if not set(sub.vertices) <= set(graph.vertices):
        raise ValueError("subgraph vertices must come from the host graph")
    if graph.induced(sub.vertices) != sub:
        raise ValueError("subgraph is not induced")


def _head_tail_plan(space: TruncatedFock, sub: SimplicialGraph):
    """Factor each basis word as (head in the subgroup) * (minimal coset tail)."""
    key = ("headtail", sub)
    got = space._plans.get(key)
    if got is not None:
        return got
    group = space.group
    subset = set(sub.vertices)
    sub_space = space.subspace(sub)
    plan = []
    for fi in space.basis:
        rem = list(zip(fi.word, fi.slots))
        head: list[tuple[VertexId, int]] = []
        while True:
            word_now = tuple(p[0] for p in rem)
            first = [s for s in group.first_letters_tuple(word_now) if s in subset]
            if not first:
                break
            s = min(first)
            r = _liftable_front(group, word_now, s)
            head.append(rem.pop(r))
        hl = tuple(p[0] for p in head)
        hs = tuple(p[1] for p in head)
        canon, perm = group.sort_with_perm(hl)
        head_idx = sub_space.index_of(canon, tuple(hs[p] for p in perm))
        tail = (tuple(p[0] for p in rem), tuple(p[1] for p in rem))
        plan.append((head_idx, tail))
    space._plans[key] = plan
    return plan


def expectation_subgraph(space: TruncatedFock, sub: SimplicialGraph, x: OperatorMatrix) -> OperatorMatrix:
    """Conditional expectation onto the operators of an induced subgraph:
    compress by the subgraph Fock inclusion, then act on the head legs only."""
    if x.space is not space:
        raise ValueError("operator lives on a different space")
    sub_space = space.subspace(sub)
    group = space.group
    emb = np.array(
        [space.index_of(fi.word, fi.slots) for fi in sub_space.basis], dtype=int
    )
    y_rows, y_cols, y_data = _mat.principal_parts(x.mat, emb)

    plan = _head_tail_plan(space, sub)
    by_head: dict[int, list[tuple[int, tuple]]] = {}
    for j, (head_idx, tail) in enumerate(plan):
        by_head.setdefault(head_idx, []).append((j, tail))

    merge_cache: dict[tuple[int, tuple], Optional[int]] = {}

    def merge(i0: int, tail) -> Optional[int]:
        key = (i0, tail)
        got = merge_cache.get(key, "missing")
        if got != "missing":
            return got
        hfi = sub_space.basis[i0]
        letters = hfi.word + tail[0]
        slots = hfi.slots + tail[1]
        if len(letters) > space.n:
            target = None
        else:
            canon, perm = group.sort_with_perm(letters)
            target = space.index_of(canon, tuple(slots[p] for p in perm))
        merge_cache[key] = target
        return target

    rows: list[int] = []
    cols: list[int] = []
    data: list[complex] = []
    for r0, c0, val in zip(y_rows, y_cols, y_data):
        for j, tail in by_head.get(int(c0), ()):
            target = merge(int(r0), tail)
            if target is not None:
                rows.append(target)
                cols.append(j)
                data.append(val)
    guard = min(x.guard, space.n - x.up)
    return OperatorMatrix(space, _mat.from_coo(rows, cols, data, space.dim), guard, x.up, x.down)


# -- functionals ---------------------------------------------------------------


def vacuum_eval(x: OperatorMatrix) -> complex:
    """The vacuum state <Omega, x Omega>."""
    return x.entry(0, 0)


def vacuum_vectors(
    space: TruncatedFock, letters: Sequence[VertexId], elements: Sequence[Element]
) -> tuple[np.ndarray, np.ndarray]:
    """The vacuum row <Omega| x and column x |Omega> of the compressed
    product x = lambda_{v1}(a1) ... lambda_{vn}(an).

    Each is a chain of vector products through the factors, so x is never
    formed; the vacuum entry of a product xy is row(x) @ column(y).
    """
    if len(letters) != len(elements):
        raise ValueError("one element per letter")
    factors = [lambda_op(space, v, a).mat for v, a in zip(letters, elements)]
    row = np.zeros(space.dim, dtype=complex)
    row[0] = 1.0
    col = row.copy()
    for f in factors:
        row = _mat.vecmat(row, f)
    for f in reversed(factors):
        col = _mat.matvec(f, col)
    return row, col


def expectation_gram(x: OperatorMatrix) -> OperatorMatrix:
    """E(x* x) = expectation_diag(x.adjoint() @ x), forming only the entries
    inside the word blocks; the guard is that of x.adjoint() @ x."""
    space = x.space
    return OperatorMatrix(space, _mat.gram_blocks(x.mat, space.word_ids), x.guard - x.reach, 0, 0)


def _span_blocks(x: OperatorMatrix):
    """Yield (word, dense diagonal block) for each word component of x.

    One pass over the nonzero entries scatters those inside a component into
    a flat buffer holding every block back to back; the blocks are views of
    it.  Slicing block by block costs a sparse slice per word, which
    dominates when there are many small blocks.
    """
    spans = list(x.space._spans.items())
    offs = np.array([off for _, (off, _) in spans])
    counts = np.array([count for _, (_, count) in spans])
    sizes = counts * counts
    starts = np.cumsum(sizes) - sizes
    span_of = np.repeat(np.arange(len(spans)), counts)
    rows, cols, data = _mat.coo_parts(x.mat)
    k = span_of[rows]
    inside = k == span_of[cols]
    rows, cols, data, k = rows[inside], cols[inside], data[inside], k[inside]
    buf = np.zeros(int(sizes.sum()), dtype=complex)
    np.add.at(buf, starts[k] + (rows - offs[k]) * counts[k] + (cols - offs[k]), data)
    for (word, (_, count)), start in zip(spans, starts):
        yield word, buf[start: start + count * count].reshape(count, count)


def _min_eig(block: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part; a 1x1 block is its real
    part, read without LAPACK."""
    if block.shape[0] == 1:
        return float(block[0, 0].real)
    return float(np.linalg.eigvalsh(0.5 * (block + block.conj().T)).min())


def _norm(block: np.ndarray) -> float:
    """Operator norm; a 1x1 block is its absolute value."""
    if block.shape[0] == 1:
        return float(abs(block[0, 0]))
    return float(np.linalg.norm(block, 2))


def expectation_min_eig(x: OperatorMatrix) -> float:
    """Smallest eigenvalue of the Hermitian part of E(x) = expectation_diag(x).

    E(x) is block-diagonal over the word components and its diagonal blocks
    are those of x, so this reads only those blocks and is exact for any x,
    block-diagonal or not: the spectrum of E(x) is the union of the block
    spectra.
    """
    return min(_min_eig(block) for _, block in _span_blocks(x))


def tail_profile(x: OperatorMatrix) -> list[float]:
    """Norms of E(x* x) restricted to word lengths in (k, N] for k = 0..N-1."""
    space = x.space
    block_norms = {word: _norm(block) for word, block in _span_blocks(expectation_gram(x))}
    profile = []
    for k in range(space.n):
        vals = [nm for w, nm in block_norms.items() if len(w) > k]
        profile.append(max(vals, default=0.0))
    return profile


# -- tensor split ---------------------------------------------------------------


@dataclass
class TensorSplitReport:
    max_deviation: float
    checks: list[tuple[str, float]]
    pair_count: int


def tensor_split_check(
    graph: SimplicialGraph,
    part1: Iterable[VertexId],
    part2: Iterable[VertexId],
    reps: Mapping[VertexId, GnsRep],
    n: int,
    elements: Optional[Mapping[VertexId, Sequence[Element]]] = None,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> TensorSplitReport:
    """Verify the join-decomposition unitary: the depth-n Fock basis is a
    permutation of pairs of factor bases with total length <= n, and the
    generators act in Kronecker form through it.  The depth-n space is
    built under `dim_cap`."""
    p1, p2 = tuple(part1), tuple(part2)
    if set(p1) | set(p2) != set(graph.vertices) or set(p1) & set(p2):
        raise ValueError("parts must partition the vertex set")
    for u in p1:
        for v in p2:
            if not graph.adjacent(u, v):
                raise ValueError(f"({u},{v}) missing: not a join decomposition")
    g1, g2 = graph.induced(p1), graph.induced(p2)
    space = TruncatedFock(graph, reps, n, dim_cap=dim_cap)
    f1 = space.subspace(g1)
    f2 = space.subspace(g2)
    group = space.group

    pair_of: list[tuple[int, int]] = []
    pair_index: dict[tuple[int, int], int] = {}
    s1, s2 = set(p1), set(p2)
    for j, fi in enumerate(space.basis):
        padded = list(zip(fi.word, fi.slots))
        seq1 = [(l, s) for l, s in padded if l in s1]
        seq2 = [(l, s) for l, s in padded if l in s2]

        def canon_index(seq, fsub):
            letters = tuple(p[0] for p in seq)
            slots = tuple(p[1] for p in seq)
            cl, perm = group.sort_with_perm(letters)
            return fsub.index_of(cl, tuple(slots[p] for p in perm))

        i1, i2 = canon_index(seq1, f1), canon_index(seq2, f2)
        pair_of.append((i1, i2))
        pair_index[(i1, i2)] = j
    expected_pairs = sum(
        1
        for i1 in range(f1.dim)
        for i2 in range(f2.dim)
        if f1.lengths[i1] + f2.lengths[i2] <= n
    )
    if len(pair_index) != space.dim or expected_pairs != space.dim:
        raise ValueError("basis does not biject onto restricted pairs")

    def kron_expected(a: OperatorMatrix, on_first: bool) -> OperatorMatrix:
        rows, cols, data = _mat.coo_parts(a.mat)
        out_r: list[int] = []
        out_c: list[int] = []
        out_d: list[complex] = []
        for r, c, val in zip(rows, cols, data):
            if on_first:
                for i2 in range(f2.dim):
                    src = pair_index.get((int(c), i2))
                    dst = pair_index.get((int(r), i2))
                    if src is not None and dst is not None:
                        out_r.append(dst)
                        out_c.append(src)
                        out_d.append(val)
            else:
                for i1 in range(f1.dim):
                    src = pair_index.get((i1, int(c)))
                    dst = pair_index.get((i1, int(r)))
                    if src is not None and dst is not None:
                        out_r.append(dst)
                        out_c.append(src)
                        out_d.append(val)
        return OperatorMatrix(space, _mat.from_coo(out_r, out_c, out_d, space.dim), a.guard, a.up, a.down)

    checks: list[tuple[str, float]] = []
    for v in graph.vertices:
        on_first = v in s1
        fsub = f1 if on_first else f2
        elems = list(elements[v]) if elements and v in elements else []
        if not elems:
            rep = reps[v]
            one = rep.algebra.one()
            elems = [one] + [b - one * (1.0 / rep.algebra.dim) for b in rep.algebra.basis()]
        for k, a in enumerate(elems):
            big = lambda_op(space, v, a)
            expected = kron_expected(lambda_op(fsub, v, a), on_first)
            checks.append((f"lambda[{v}][{k}]", guarded_deviation(big, expected)))
        bigq = q_projection(space, (v,))
        expq = kron_expected(q_projection(fsub, (v,)), on_first)
        checks.append((f"qproj[{v}]", guarded_deviation(bigq, expq)))
    worst = max(d for _, d in checks)
    return TensorSplitReport(worst, checks, space.dim)
