"""The truncated graph-product Fock space and its concrete operators.

The space sums, over the reduced words w of length <= N, the tensor products
of the letters' reduced GNS spaces, so its basis is one block per word: the
blocks in ball order (by length, then lexicographic), the slots s_p >= 1 of
a block in row-major order.  The vector (w, s) sits at offset(w) + sum_p
(s_p - 1) * stride_w[p], and every basis map is compiled once per word block.

Every operator here is the compression P_N T P_N of its infinite counterpart
to the basis of word length <= N.  A guard level accompanies each matrix:
the largest k such that the matrix agrees with the untruncated operator on
vectors supported in word length <= k.  Identity checks only ever quantify
over the guarded subspace.

So a check reads only the guarded columns, and an operator is evaluated
only on the columns it is read on.  Its `cols(k)` is exact on the columns
of word length <= k and, like the operator, zero outside its word-length
band (see OperatorMatrix); products, sums, scalars and adjoints are
evaluated lazily, each reading its operands at the cuts that their bands
reach, and `.mat` is the cut at N.  The guarded readers (guarded_deviation,
guarded_norm, the positivity check's guarded block and the vacuum vector
chains) ask for cuts; every other reader reads `.mat`.  The basis lists
words by length, so the columns of word length <= k are the first ones
(TruncatedFock.width), and a cut at k holds no entry past them:
guarded_deviation and guarded_norm read a cut whole, with no column
re-indexing, and guarded_deviation returns 0.0 with no subtraction when
both cuts are stored alike.  Every matrix is a `_mat.CSR` value.

lambda_v and rho_v act on one leg.  The space is H_v, with the cyclic
vector as slot 0, tensored with the words that cannot take v at the acting
end (the front for lambda, the back for rho), and x acts on the v-leg by
its GNS matrix m: the column whose v-leg is in slot s has, for each slot t,
the entry m[t, s] in the row with its other legs and slot t (_side_table).
So lambda_v(x) is sum_{t,s} m[t, s] E_ts with 0/1 matrices E_ts, the units
e_t e_s* of H_v tensored with 1; gplab.certificate reads the table back
from the compiled pattern and proves the product identities from it.

What an operator's matrix depends on only through the space is compiled
once per space, on first use, and cached in space._plans: each column split
along a set of letters as its head, the letters peeled off the acting end,
followed by its tail (_factor), which lambda_v and rho_v read along v, the
subgraph expectation along the subgraph and the join split along one
factor; the sparsity pattern of each part of lambda_v and rho_v on the
columns of each cut, whose entries each name the entry of m their value is
read from (_side_pattern); the 0/1 diagonal of each Q_w, read off the
up-set of w in the weak order and kept as a bool mask (q_mask); each word
block's letters and letter counts, which the gauge unitary and the gauge
average read (_letter_table); and the join split's report for each first
factor (tensor_split_check).  Evaluating an operator on a cut is then a
gather.  The certificate keeps its tables and facts there too.
"""
from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import _mat
from .algebras import Element, GnsRep
from .errors import ResourceLimitError, ShallowTruncationError
from .graphs import SimplicialGraph, VertexId
from .words import Letters, coxeter_group

DEFAULT_DIM_CAP = 20000


class TruncatedFock:
    """Orthonormal basis of the graph-product Hilbert space up to depth N,
    one block per word; see the module docstring for the index formula."""

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

        # word -> (offset, count) of its component's contiguous basis block;
        # a word with a letter whose reduced space is zero has no block
        spans: dict[Letters, tuple[int, int]] = {}
        dim = 0
        for w in self.group.ball_tuples(n):
            count = math.prod(self.reps[v].dim - 1 for v in w)
            if count == 0:
                continue
            spans[w] = (dim, count)
            dim += count
            if dim > dim_cap:
                raise ResourceLimitError(
                    f"Fock dimension exceeds cap {dim_cap} at depth {n}"
                )
        self.dim = dim
        self._spans = spans
        dims = {w: tuple(self.reps[v].dim - 1 for v in w) for w in spans}
        # word -> row-major stride of each slot in its block
        self._strides = {w: tuple(math.prod(d[p + 1:]) for p in range(len(w))) for w, d in dims.items()}
        counts = [count for _, count in spans.values()]
        self.word_ids = np.repeat(np.arange(len(spans)), counts)
        self.lengths = np.repeat([len(w) for w in spans], counts)
        # (dim, N) digits: slot - 1 of each vector per position, 0 past its word
        pad = [(1,) * (n - len(w)) for w in spans]
        strides = np.array([st + p for st, p in zip(self._strides.values(), pad)], dtype=np.intp)
        sizes = np.array([d + p for d, p in zip(dims.values(), pad)], dtype=np.intp)
        local = np.arange(dim) - np.repeat([off for off, _ in spans.values()], counts)
        per_word = (len(spans), n)  # also for N = 0
        blocks = self.word_ids
        self._digits = local[:, None] // strides.reshape(per_word)[blocks] % sizes.reshape(per_word)[blocks]
        self._plans: dict = {}
        self._cols_upto: dict[int, np.ndarray] = {}

    def index_of(self, word: Letters, slots: tuple[int, ...]) -> Optional[int]:
        """Flat index of the basis vector (word, slots), or None if there is
        no such vector."""
        span = self._spans.get(word)
        if span is None or len(slots) != len(word):
            return None
        if not all(1 <= s < self.reps[v].dim for v, s in zip(word, slots)):
            return None
        return span[0] + sum((s - 1) * st for s, st in zip(slots, self._strides[word]))

    def cols_upto(self, k: int) -> np.ndarray:
        """The columns of word length <= k, the guarded columns of guard k.
        A negative guard has none: ShallowTruncationError, so that no check
        reads a number off an empty set of columns."""
        if k < 0:
            raise ShallowTruncationError(f"no guarded column: guard {k} at truncation depth {self.n}")
        got = self._cols_upto.get(k)
        if got is None:
            got = np.where(self.lengths <= k)[0]
            self._cols_upto[k] = got
        return got

    def width(self, k: int) -> int:
        """How many columns have word length <= k: the basis lists words by
        length, so they are the first ones."""
        return int(self.lengths.searchsorted(k, side="right"))

    def subspace(self, sub: SimplicialGraph) -> "TruncatedFock":
        """The space of an induced subgraph, built under this space's cap."""
        _check_induced(self.graph, sub)
        return TruncatedFock(sub, {v: self.reps[v] for v in sub.vertices}, self.n, dim_cap=self.dim_cap)


def _word_map(space: TruncatedFock, word: Letters, src: Sequence[int]) -> tuple[int, list[int]]:
    """(offset, row) of a basis map into the block of the canonical word
    `word`, whose k-th letter takes its digit (slot - 1) from column src[k]
    of the source digit row d: the target is offset + d . row."""
    row = [0] * space.n
    for p, stride in zip(src, space._strides[word]):
        row[p] = stride
    return space._spans[word][0], row


def _apply(space: TruncatedFock, maps: Sequence[tuple[int, Sequence[int]]]) -> np.ndarray:
    """Each column's target under the (offset, row) map of its word block."""
    offsets = np.array([off for off, _ in maps], dtype=np.intp)
    rows = np.array([row for _, row in maps], dtype=np.intp).reshape(len(maps), space.n)
    wid = space.word_ids
    return offsets[wid] + (space._digits * rows[wid]).sum(axis=1)


def _factor(space: TruncatedFock, sub: Iterable[VertexId], left: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each column split along the subgroup of the letters `sub` as its
    head followed by its tail (the front for left, the back for right): the
    head peels off the acting end, smallest first, every letter of sub that
    can come to it, and the tail keeps the other letters in order.  Returns
    (head, tail), the column of each column's head alone and of its tail
    alone, the vacuum for an empty one.

    Each word block compiles one map for each.  Peeled off the front,
    smallest first, the head letters come in canonical order, so the head
    map sorts nothing; the back is read along one vertex only (rho_v),
    where the head is one letter.  A word with an empty head is its own
    tail, and every other tail map is one canonical sort.  Compiled once
    per (space, letters, side) and cached in space._plans.
    """
    letters = tuple(sorted(sub))
    key = ("factor", letters, left)
    got = space._plans.get(key)
    if got is not None:
        return got
    group = space.group
    heads, tails = [], []
    for w in space._spans:
        rest = list(range(len(w)))
        head: list[int] = []
        while True:
            now = [w[p] for p in rest]
            k = next((k for s in letters if (k := group.lift(now, s, left)) >= 0), -1)
            if k < 0:
                break
            head.append(rest.pop(k))
        heads.append(_word_map(space, tuple(w[p] for p in head), head))
        tail = tuple(w[p] for p in rest)
        if head:
            tail, perm = group.sort_with_perm(tail)
            rest = [rest[p] for p in perm]
        tails.append(_word_map(space, tail, rest))
    got = space._plans[key] = (_apply(space, heads), _apply(space, tails))
    return got


def _join(head: np.ndarray, tail: np.ndarray, at_head, at_tail) -> np.ndarray:
    """The column whose head is at_head and whose tail is at_tail in the
    factorisation (head, tail) of _factor, broadcast over both; -1 where
    there is none, that is where the joined word is longer than N."""
    dim = len(head)
    keys = head * dim + tail  # distinct: a column is its head and its tail
    order = np.argsort(keys)
    want = np.asarray(at_head) * dim + at_tail
    found = order[np.minimum(np.searchsorted(keys, want, sorter=order), dim - 1)]
    return np.where(keys[found] == want, found, -1)


class OperatorMatrix:
    """A compressed operator with its guard level and directional movement
    bounds, evaluated only on the columns a reader asks for.

    `up` and `down` bound how far the operator can raise or lower word
    length: every entry (i, j) has |j| - down <= |i| <= |j| + up, even
    beyond the guard, which is what makes the adjoint and product guard
    rules below sound.  Composition only spends guard on upward movement:
    lowering first never leaves the truncation.

    `cols(k)` is the one evaluation path.  It returns a dim x dim matrix
    that equals the operator on every column of word length <= k and, like
    the operator, is zero outside the (up, down) band; the columns past k
    are empty, and only the readers of guarded columns ask for a cut.
    `.mat` is `cols(N)`.  The band is what makes a cut exact: column j of AB
    needs A only on the columns B reaches from j, and column j of A* is row
    j of A, which lies in the columns up to |j| + down.

    A product, sum, scalar multiple or adjoint records its operands and is
    evaluated on first read (_evaluate).  Every cut evaluated is kept, the
    operands' cuts with it, and a smaller cut is read off any larger one
    already kept.
    """

    __slots__ = ("space", "guard", "up", "down", "_eval", "_cuts")

    def __init__(self, space: TruncatedFock, mat, guard: int, up: int, down: int):
        self.space = space
        self.guard = guard
        self.up = up
        self.down = down
        self._eval = None
        self._cuts = {space.n: mat}

    @classmethod
    def _lazy(cls, space: TruncatedFock, fn, operands, guard: int, up: int, down: int) -> "OperatorMatrix":
        """The operator whose cut k is fn(k, *mats), mats[i] the cut
        k + shift of the i-th (operand, shift) pair, at most N."""
        op = cls.__new__(cls)
        op.space, op.guard, op.up, op.down = space, guard, up, down
        op._eval = (fn, operands)
        op._cuts = {}
        return op

    @property
    def mat(self):
        return self.cols(self.space.n)

    def cols(self, k: int):
        """The matrix, exact on the columns of word length <= k; see the
        class docstring."""
        k = min(k, self.space.n)
        got = self._kept(k)
        return self._evaluate(k) if got is None else got

    def _kept(self, k: int):
        """Cut k if it is kept or can be read off a larger kept cut, else
        None."""
        got = self._cuts.get(k)
        if got is None:
            larger = [c for c in self._cuts if c > k]
            if larger:
                got = self._cuts[k] = _mat.cut(self._cuts[min(larger)], self.space.width(k))
        return got

    def _evaluate(self, k: int):
        """Cut k, from the operands' cuts, walked in post-order on an
        explicit stack so that a long chain of sums does not recurse.  An
        operator with no kept cut is evaluated from its own operands, and
        keeps the cut."""
        n = self.space.n
        mats: list = []
        todo = [(self, k, False)]
        while todo:
            op, c, expanded = todo.pop()
            if expanded:
                fn, operands = op._eval
                split = len(mats) - len(operands)
                args = mats[split:]
                del mats[split:]
                mats.append(fn(c, *args))
                op._cuts[c] = mats[-1]
                if c == n:  # every later cut is read off this one
                    op._eval = None
                continue
            got = op._kept(c)
            if got is not None:
                mats.append(got)
                continue
            todo.append((op, c, True))
            todo.extend((child, min(c + shift, n), False) for child, shift in reversed(op._eval[1]))
        return mats[0]

    @property
    def reach(self) -> int:
        return self.up + self.down

    def _same_space(self, other: "OperatorMatrix"):
        if self.space is not other.space:
            raise ValueError("operators live on different truncated spaces")

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._same_space(other)
        return OperatorMatrix._lazy(
            self.space,
            lambda k, a, b: _mat.mul(a, b),
            ((self, other.up), (other, 0)),
            min(other.guard, self.guard - other.up),
            self.up + other.up,
            self.down + other.down,
        )

    def _combine(self, other: "OperatorMatrix", op) -> "OperatorMatrix":
        self._same_space(other)
        return OperatorMatrix._lazy(
            self.space,
            lambda k, a, b: op(a, b),
            ((self, 0), (other, 0)),
            min(self.guard, other.guard),
            max(self.up, other.up),
            max(self.down, other.down),
        )

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, _mat.add)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, _mat.sub)

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return OperatorMatrix._lazy(
            self.space, lambda k, a: _mat.scale(a, scalar), ((self, 0),), self.guard, self.up, self.down
        )

    __rmul__ = __mul__

    def __neg__(self) -> "OperatorMatrix":
        return self * (-1.0)

    def adjoint(self) -> "OperatorMatrix":
        width = self.space.width
        return OperatorMatrix._lazy(
            self.space,
            # the rows of length <= k, whole, become the columns of the cut
            lambda k, a: _mat.cut(_mat.adjoint(a), width(k)),
            ((self, self.down),),
            self.guard - self.down,
            self.down,
            self.up,
        )

    def norm(self) -> float:
        return _mat.norm2(self.mat)

    def toarray(self) -> np.ndarray:
        return _mat.to_dense(self.mat)


def identity_op(space: TruncatedFock) -> OperatorMatrix:
    return OperatorMatrix(space, _mat.eye(space.dim), space.n, 0, 0)


def zero_op(space: TruncatedFock) -> OperatorMatrix:
    return OperatorMatrix(space, _mat.zeros(space.dim), space.n, 0, 0)


def check_guards(*ops: OperatorMatrix) -> int:
    """The common guard of the operators, which guarded_deviation and
    guarded_norm check before they evaluate anything: ShallowTruncationError
    when it is negative.  It evaluates nothing, so a check can ask it of
    operators it does not read."""
    guard = min(op.guard for op in ops)
    ops[0].space.cols_upto(guard)  # raises on a negative guard
    return guard


def guarded_deviation(a: OperatorMatrix, b: OperatorMatrix) -> float:
    """Operator-norm distance restricted to columns inside the common guard,
    read off both operators' cuts at that guard; ShallowTruncationError when
    the guard is negative.  Each cut is read whole, as it holds no entry
    past the guarded columns; cuts stored alike give exactly 0.0 with no
    subtraction."""
    a._same_space(b)
    guard = check_guards(a, b)
    x, y = a.cols(guard), b.cols(guard)
    if _mat.same(x, y):
        return 0.0
    return _mat.norm2(_mat.sub(x, y))


def guarded_norm(a: OperatorMatrix) -> float:
    """Operator norm restricted to the guarded columns, read off the cut at
    the guard; ShallowTruncationError when the guard is negative."""
    return _mat.norm2(a.cols(check_guards(a)))


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


def _side_table(space: TruncatedFock, v: VertexId, left: bool) -> tuple[np.ndarray, np.ndarray]:
    """lambda_v (left) or rho_v (right) on the basis, as the v-leg of each
    column: the space is H_v, slot 0 its cyclic vector, tensored with the
    words that cannot take v at the acting end, which is _factor along v.

    slot[j] is the slot of column j's head, the v at the acting end of its
    word, or 0 when there is none.  targets[j, t] joins the head of slot t,
    the vacuum for t = 0, with column j's tail (_join): the row with column
    j's other legs and slot t there, -1 when that word is longer than N.
    """
    head, tail = _factor(space, (v,), left)
    off, count = space._spans.get((v,), (0, 0))  # no block at depth 0
    slot = np.where(head > 0, head - off + 1, 0)
    at = np.full(space.reps[v].dim, -1, dtype=np.intp)  # the head of each slot
    at[0] = 0
    at[1:1 + count] = off + np.arange(count)
    return _join(head, tail, at, tail[:, None]), slot


class _SidePattern(NamedTuple):
    """The stored entries of lambda_v or rho_v, for every x at once; see
    _side_pattern.  Read-only: every operator built from it shares indptr
    and indices when it drops no entry."""

    indptr: np.ndarray  # (dim+1,) CSR row pointer
    indices: np.ndarray  # column of each entry, in CSR order
    src: np.ndarray  # flat index t*dv + s of the entry's value m[t, s]


# Which parts each operator keeps: (scalar, creation, diagonal, annihilation),
# the quadrants m[0,0], m[1:,0], m[1:,1:] and m[0,1:] of the GNS matrix m.
_PARTS = {
    "all": (True, True, True, True),
    "creation": (False, True, False, False),
    "diagonal": (False, False, True, False),
    "annihilation": (False, False, False, True),
}


def _side_pattern(space: TruncatedFock, v: VertexId, left: bool, part: str, cut: int) -> _SidePattern:
    """Sparsity pattern of one part of lambda_v (left) or rho_v (right) on
    the columns of word length <= cut (cut <= N), compiled once per (space,
    vertex, side, part, cut) and cached in space._plans.

    Column j's v-leg in slot s = slot[j] goes to slot t with amplitude
    m[t, s], m the GNS matrix of x, so entry e of the operator of x holds
    m.ravel()[src[e]]: the whole pattern puts src = t*dv + s in row
    targets[j, t] of column j, for every slot t (_side_table).  An entry's
    part is the quadrant of m that src points into.  Targets beyond N are
    left out, and the entries are sorted once, by (row, column); the
    positions are distinct, since a column's targets are different basis
    vectors.  A part or a cut keeps a subset of the whole pattern's
    entries, still in CSR order.
    """
    key = ("lambda" if left else "rho", v, part, cut)
    got = space._plans.get(key)
    if got is not None:
        return got
    dv = space.reps[v].dim
    if part == "all" and cut == space.n:
        targets, slot = _side_table(space, v, left)
        rows = targets.ravel()
        cols = np.arange(space.dim).repeat(dv)
        src = (np.arange(dv) * dv + slot[:, None]).ravel()
        inside = rows >= 0
        rows, cols, src = rows[inside], cols[inside], src[inside]
        order = np.argsort(rows * space.dim + cols)
        indptr = np.zeros(space.dim + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=space.dim), out=indptr[1:])
        pattern = _SidePattern(indptr, cols[order], src[order].astype(np.min_scalar_type(dv * dv)))
    else:
        whole = _side_pattern(space, v, left, "all", space.n)
        # quadrant of each entry's source m[t, s], in _PARTS order
        t, s = whole.src // dv > 0, whole.src % dv > 0
        keep = np.array(_PARTS[part])[np.where(s, np.where(t, 2, 3), t.astype(np.intp))]
        keep &= space.lengths[whole.indices] <= cut
        # the entries' source indices ride in a matrix's data slot
        pattern = _SidePattern(*_mat.subset(_mat.CSR(*whole, (space.dim, space.dim)), keep)[:3])
    for arr in pattern:
        arr.flags.writeable = False
    space._plans[key] = pattern
    return pattern


def _side_op(
    space: TruncatedFock, v: VertexId, x: Element, left: bool, part: str = "all"
) -> OperatorMatrix:
    """lambda_v(x) (left) or rho_v(x) (right), whole or one part of it.

    On the v-leg, H_v with its cyclic vector as slot 0, x acts as m, its
    GNS matrix.  Q_v, the projection onto the words with v at the acting
    end (slot >= 1), splits the operator into four parts, one per quadrant
    of m: slot 0 to slot 0 is the scalar part m[0,0] on the diagonal, slot 0
    to slot t the creation part m[t,0], slot s to slot t the diagonal part
    m[t,s] and slot s to slot 0 the annihilation part m[0,s], which drops
    the letter.

    A cut is one gather from the compiled pattern of its part and cut
    (_side_pattern): the values are read as m.ravel()[src], and one mask
    drops the zero entries (`_mat.subset`), which recounts the pattern's
    row pointer only when an entry was dropped; nothing is sorted.

    Only creation can leave the truncation, so it alone costs a guard level:
    (guard, up, down) is (N-1, 1, 1) for the whole operator, (N-1, 1, 0) for
    creation, (N, 0, 0) for diagonal and (N, 0, 1) for annihilation.
    """
    rep = space.reps.get(v)
    if rep is None:
        raise ValueError(f"unknown vertex {v}")
    if x.algebra != rep.algebra:
        raise ValueError("element does not belong to the vertex algebra")
    _, keep_create, _, keep_annih = _PARTS[part]
    m = rep.matrix(x).ravel()

    def evaluate(k: int):
        pattern = _side_pattern(space, v, left, part, k)
        data = m[pattern.src]
        whole = _mat.CSR(pattern.indptr, pattern.indices, data, (space.dim, space.dim))
        return _mat.subset(whole, data != 0.0)

    guard = space.n - 1 if keep_create else space.n
    return OperatorMatrix._lazy(space, evaluate, (), guard, int(keep_create), int(keep_annih))


def lambda_op(space: TruncatedFock, v: VertexId, x: Element) -> OperatorMatrix:
    """Compression of the left regular embedding of x at vertex v."""
    return _side_op(space, v, x, left=True)


def rho_op(space: TruncatedFock, v: VertexId, x: Element) -> OperatorMatrix:
    """Compression of the right-handed embedding of x at vertex v."""
    return _side_op(space, v, x, left=False)


# -- projections and gauge ----------------------------------------------------


def q_mask(space: TruncatedFock, w) -> np.ndarray:
    """The 0/1 diagonal of Q_w (see q_projection) as a read-only bool mask,
    one byte per basis vector.

    The words starting with w are the up-set of w in the right weak order,
    read off the covers that the ball enumeration records (CoxeterGroup.
    up_set), so no word of the space is tested against w.  Built once per
    (space, canonical word) and cached in space._plans under ("q", letters).
    """
    letters = space.group.reduce_tuple(w)
    if len(letters) > space.n:
        raise ShallowTruncationError(f"|w| = {len(letters)} exceeds truncation depth {space.n}")
    key = ("q", letters)
    mask = space._plans.get(key)
    if mask is None:
        mask = np.zeros(space.dim, dtype=bool)
        for word in space.group.up_set(letters, space.n):
            span = space._spans.get(word)
            # The vacuum is excluded even from Q_e: the underlying direct sum
            # runs over nontrivial group elements only.
            if span is not None and word != ():
                off, count = span
                mask[off: off + count] = True
        mask.flags.writeable = False
        space._plans[key] = mask
    return mask


def q_projection(space: TruncatedFock, w) -> OperatorMatrix:
    """Projection onto the components indexed by words starting with w.

    The empty word's projection omits the vacuum line: it is 1 minus the
    vacuum projection, matching the sum over nontrivial group elements.
    Its matrix is built on every call from the cached mask (q_mask), so
    writing into one leaves the cache intact.
    """
    return OperatorMatrix(space, _mat.diag(q_mask(space, w)), space.n, 0, 0)


def word_projection(space: TruncatedFock, w) -> OperatorMatrix:
    """Projection p_w onto the single word component (the vacuum for w = e)."""
    letters = space.group.reduce_tuple(w)
    dvals = np.zeros(space.dim, dtype=complex)
    span = space._spans.get(letters)
    if span is not None:
        off, count = span
        dvals[off: off + count] = 1.0
    return OperatorMatrix(space, _mat.diag(dvals), space.n, 0, 0)


def creation(space: TruncatedFock, v: VertexId, a: Element) -> OperatorMatrix:
    """Q_v lambda_v(a) Q_v^perp; see _side_op."""
    return _side_op(space, v, a, left=True, part="creation")


def diagonal(space: TruncatedFock, v: VertexId, a: Element) -> OperatorMatrix:
    """Q_v lambda_v(a) Q_v; see _side_op."""
    return _side_op(space, v, a, left=True, part="diagonal")


def annihilation(space: TruncatedFock, v: VertexId, a: Element) -> OperatorMatrix:
    """Q_v^perp lambda_v(a) Q_v; see _side_op."""
    return _side_op(space, v, a, left=True, part="annihilation")


def _letter_table(space: TruncatedFock) -> tuple[np.ndarray, np.ndarray]:
    """Each word block's letters, as positions in graph.vertices, -1 past
    its word, (words, N); and its letter counts per vertex, (words, |V|).
    Compiled once per space and cached in space._plans."""
    got = space._plans.get("letters")
    if got is None:
        pos = {v: k for k, v in enumerate(space.graph.vertices)}
        letters = np.full((len(space._spans), space.n), -1, dtype=np.intp)
        for i, w in enumerate(space._spans):
            letters[i, :len(w)] = [pos[v] for v in w]
        counts = np.stack([np.count_nonzero(letters == k, axis=1) for k in range(len(pos))], axis=1)
        got = space._plans["letters"] = (letters, counts)
    return got


def gauge_unitary(space: TruncatedFock, z: Mapping[VertexId, complex]) -> OperatorMatrix:
    """U_z, the product of z over each basis vector's letters, multiplied in
    the word's order (_letter_table).  Each step forms the real and the
    imaginary part apart, as a scalar complex product does, so that every
    value is that of the product taken one letter at a time; numpy's complex
    array product may round differently."""
    for v in space.graph.vertices:
        if abs(abs(z[v]) - 1.0) > 1e-12:
            raise ValueError(f"gauge parameter at vertex {v} is not unimodular")
    letters, _ = _letter_table(space)
    zs = np.array([z[v] for v in space.graph.vertices], dtype=complex)
    re, im = np.ones(len(letters)), np.zeros(len(letters))
    for p in range(space.n):
        at = letters[:, p] >= 0
        zr, zi, r, i = zs.real[letters[at, p]], zs.imag[letters[at, p]], re[at], im[at]
        re[at], im[at] = r * zr - i * zi, r * zi + i * zr
    per_word = np.empty(len(letters), dtype=complex)
    per_word.real, per_word.imag = re, im
    return OperatorMatrix(space, _mat.diag(per_word[space.word_ids]), space.n, 0, 0)


def expectation_diag(x: OperatorMatrix) -> OperatorMatrix:
    """Block-diagonal compression onto the word components (sum p_w x p_w)."""
    a = x.mat
    rows, cols, _ = _mat.coo_parts(a)
    wid = x.space.word_ids
    return OperatorMatrix(x.space, _mat.subset(a, wid[rows] == wid[cols]), x.guard, 0, 0)


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
    counts = _letter_table(space)[1][space.word_ids]  # per column
    a = x.mat
    rows, cols, _ = _mat.coo_parts(a)
    keep = np.all((counts[rows] - counts[cols]) % m == 0, axis=1)
    return OperatorMatrix(space, _mat.subset(a, keep), x.guard, x.up, x.down)


# -- subgraph expectation ------------------------------------------------------


def _check_induced(graph: SimplicialGraph, sub: SimplicialGraph):
    if not set(sub.vertices) <= set(graph.vertices):
        raise ValueError("subgraph vertices must come from the host graph")
    if graph.induced(sub.vertices) != sub:
        raise ValueError("subgraph is not induced")


def expectation_subgraph(space: TruncatedFock, sub: SimplicialGraph, x: OperatorMatrix) -> OperatorMatrix:
    """Conditional expectation onto the operators of an induced subgraph:
    compress to the subgraph's vectors, then act on the head legs only.

    Along the subgraph each column is its head followed by its tail
    (_factor), and the subgraph's vectors are the columns with no tail.
    Entry (r0, c0) of the compression y goes to every column j whose head
    is c0, in the row that joins r0 with j's tail (_join); it has none
    where that word is longer than N.
    """
    if x.space is not space:
        raise ValueError("operator lives on a different space")
    _check_induced(space.graph, sub)
    head, tail = _factor(space, sub.vertices, True)
    emb = np.flatnonzero(tail == 0)
    y_rows, y_cols, y_data = _mat.principal_parts(x.mat, emb)

    # the columns with head emb[c0], ascending, for each entry of y in turn
    order = np.argsort(head, kind="stable")
    per_head = np.bincount(head, minlength=space.dim)[emb]
    counts = per_head[y_cols]
    first = (np.cumsum(per_head) - per_head)[y_cols] - (np.cumsum(counts) - counts)
    cols = order[np.arange(int(counts.sum())) + np.repeat(first, counts)]
    rows = _join(head, tail, emb[np.repeat(y_rows, counts)], tail[cols])
    data = np.repeat(y_data, counts)
    keep = rows >= 0
    guard = min(x.guard, space.n - x.up)
    mat = _mat.from_coo(rows[keep], cols[keep], data[keep], space.dim)
    return OperatorMatrix(space, mat, guard, x.up, x.down)


# -- functionals ---------------------------------------------------------------


def vacuum_vectors(
    space: TruncatedFock, letters: Sequence[VertexId], elements: Sequence[Element]
) -> tuple[np.ndarray, np.ndarray]:
    """The vacuum row <Omega| x and column x |Omega> of the compressed
    product x = lambda_{v1}(a1) ... lambda_{vn}(an).

    Each is a chain of vector products through the factors, so x is never
    formed; the vacuum entry of a product xy is row(x) @ column(y).  A
    vector that has passed j factors lies in word length <= j, so the next
    factor is read at the cut the chain has reached: its columns up to j
    for the column chain, and up to j + down, which holds the whole rows up
    to j, for the row chain.
    """
    if len(letters) != len(elements):
        raise ValueError("one element per letter")
    factors = [lambda_op(space, v, a) for v, a in zip(letters, elements)]
    row = np.zeros(space.dim, dtype=complex)
    row[0] = 1.0
    col = row.copy()
    reach = 0
    for f in factors:
        row = _mat.vecmat(row, f.cols(reach + f.down))
        reach += f.down
    reach = 0
    for f in reversed(factors):
        col = _mat.matvec(f.cols(reach), col)
        reach += f.up
    return row, col


def expectation_gram(x: OperatorMatrix) -> OperatorMatrix:
    """E(x* x) = expectation_diag(x.adjoint() @ x), forming only the entries
    inside the word blocks; the guard is that of x.adjoint() @ x."""
    space = x.space
    return OperatorMatrix(space, _mat.gram_blocks(x.mat, space.word_ids), x.guard - x.reach, 0, 0)


def expectation_min_eig(x: OperatorMatrix) -> float:
    """Smallest eigenvalue of the Hermitian part of E(x) = expectation_diag(x).

    E(x) keeps the entries of x inside the word blocks, so this drops the
    others and reads the spectrum off the connected components of what is
    left (`_mat.hermitian_min_eig`); it is exact for any x, block-diagonal
    or not.  No word block is formed: the components of E(x* x) are mostly
    far smaller (sizes 1 and 3 within the 81-vector word blocks of M2 at
    depth 4).
    """
    wid = x.space.word_ids
    rows, cols, data = _mat.coo_parts(x.mat)
    inside = wid[rows] == wid[cols]
    return _mat.hermitian_min_eig(rows[inside], cols[inside], data[inside], x.space.dim)


def tail_profile(x: OperatorMatrix) -> list[float]:
    """Norms of E(x* x) restricted to word lengths in (k, N] for k = 0..N-1.

    E(x* x) is the direct sum of the connected components of its nonzero
    pattern, and each lies inside one word block, so the norm for k is the
    largest norm of a component whose word is longer than k."""
    space = x.space
    norms, rows = _mat.block_norms(*_mat.coo_parts(expectation_gram(x).mat))
    lengths = space.lengths[rows]
    return [float(norms[lengths > k].max(initial=0.0)) for k in range(space.n)]


# -- tensor split ---------------------------------------------------------------


def _tensor_pairs(space: TruncatedFock, f1: TruncatedFock, f2: TruncatedFock) -> np.ndarray:
    """The join-decomposition unitary as a (f1.dim, f2.dim) table: entry
    (i1, i2) is the column whose letters in f1's graph, in order, give the
    vector i1 of f1 and whose other letters give i2 of f2, or -1 where no
    column does.  In a join every letter of f1's graph can come first, so
    those letters are a column's head along it (_factor) and the others its
    tail; f1's vectors are the columns with no tail, and f2's those with no
    head, in order."""
    head, tail = _factor(space, f1.graph.vertices, True)
    table = np.full((f1.dim, f2.dim), -1, dtype=np.intp)
    table[np.cumsum(tail == 0)[head] - 1, np.cumsum(head == 0)[tail] - 1] = np.arange(space.dim)
    return table


class TensorSplitReport(NamedTuple):
    max_deviation: float
    pair_count: int


def tensor_split_check(space: TruncatedFock, part1: Iterable[VertexId]) -> TensorSplitReport:
    """Verify the join-decomposition unitary of `space` between the
    subgraph on part1 and the one on the other vertices: the basis is a
    permutation of pairs of factor bases with total length <= N, and the
    generators act in Kronecker form through it.  Computed once per (space,
    part1) and cached in space._plans."""
    p1 = tuple(part1)
    key = ("split", p1)
    got = space._plans.get(key)
    if got is not None:
        return got
    graph, reps, n = space.graph, space.reps, space.n
    p2 = tuple(v for v in graph.vertices if v not in set(p1))
    for u in p1:
        for v in p2:
            if not graph.adjacent(u, v):
                raise ValueError(f"({u},{v}) missing: not a join decomposition")
    space.cols_upto(n - 1)  # lambda_v's guard: nothing to compare at depth 0
    f1 = space.subspace(graph.induced(p1))
    f2 = space.subspace(graph.induced(p2))
    pairs = _tensor_pairs(space, f1, f2)
    expected_pairs = np.count_nonzero(f1.lengths[:, None] + f2.lengths[None, :] <= n)
    if np.count_nonzero(pairs >= 0) != space.dim or expected_pairs != space.dim:
        raise ValueError("basis does not biject onto restricted pairs")

    def kron_expected(a: OperatorMatrix, on_first: bool) -> OperatorMatrix:
        rows, cols, data = _mat.coo_parts(a.mat)
        table = pairs if on_first else pairs.T
        src, dst = table[cols], table[rows]
        keep = (src >= 0) & (dst >= 0)
        vals = np.broadcast_to(data[:, None], keep.shape)[keep]
        return OperatorMatrix(space, _mat.from_coo(dst[keep], src[keep], vals, space.dim), a.guard, a.up, a.down)

    worst = 0.0
    for v in graph.vertices:
        on_first = v in p1
        fsub = f1 if on_first else f2
        one = reps[v].algebra.one()
        elems = [one] + [b - one * (1.0 / reps[v].algebra.dim) for b in reps[v].algebra.basis()]
        for a in elems:
            expected = kron_expected(lambda_op(fsub, v, a), on_first)
            worst = max(worst, guarded_deviation(lambda_op(space, v, a), expected))
        expq = kron_expected(q_projection(fsub, (v,)), on_first)
        worst = max(worst, guarded_deviation(q_projection(space, (v,)), expq))
    got = space._plans[key] = TensorSplitReport(worst, space.dim)
    return got
