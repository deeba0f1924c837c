"""Shared test helpers: independent oracles kept deliberately naive."""
from __future__ import annotations

import itertools

import numpy as np

from gplab import _mat
from gplab.algebras import (
    FiniteDimAlgebra,
    StateSpec,
    _householder_with_first_column,
    hecke_parameter,
    hecke_vertex,
    site_from_hecke,
    site_from_state,
)
from gplab.fock import _PARTS, OperatorMatrix, expectation_diag, identity_op, lambda_op, q_projection
from gplab.graphs import SimplicialGraph
from gplab.system import GraphSystem


def brute_force_cliques(g: SimplicialGraph) -> set[frozenset]:
    """Subset-enumeration clique oracle."""
    out = set()
    verts = list(g.vertices)
    for r in range(len(verts) + 1):
        for sub in itertools.combinations(verts, r):
            if all(g.adjacent(u, v) for u, v in itertools.combinations(sub, 2)):
                out.add(frozenset(sub))
    return out


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def connected_by_union_find(g: SimplicialGraph) -> bool:
    if not g.vertices:
        return True
    uf = UnionFind(g.vertices)
    for u, v in g.edges:
        uf.union(u, v)
    roots = {uf.find(v) for v in g.vertices}
    return len(roots) == 1


def all_graphs(n: int):
    """Every labeled graph on vertices 0..n-1."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        yield SimplicialGraph.build(range(n), edges)


def shuffle_class(group, word: tuple) -> set[tuple]:
    """All words reachable from a reduced word by adjacent-transposition
    shuffles along graph edges."""
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            if group.graph.adjacent(w[i], w[i + 1]):
                nw = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if nw not in seen:
                    seen.add(nw)
                    stack.append(nw)
    return seen


def occurrence_permutation(v: tuple, w: tuple):
    """The order-preserving permutation with w[k] = v[sigma[k]], matching
    occurrences of equal letters in order; None if impossible."""
    positions: dict = {}
    for i, letter in enumerate(v):
        positions.setdefault(letter, []).append(i)
    counters = {letter: 0 for letter in positions}
    sigma = []
    for letter in w:
        if letter not in positions or counters[letter] >= len(positions[letter]):
            return None
        sigma.append(positions[letter][counters[letter]])
        counters[letter] += 1
    return tuple(sigma)


# -- standard test graphs -------------------------------------------------------

FREE3 = SimplicialGraph.build([0, 1, 2], [])
PATH3 = SimplicialGraph.build([0, 1, 2], [(0, 1), (1, 2)])
K3 = SimplicialGraph.build([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
CYC4 = SimplicialGraph.build([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (0, 3)])
CYC5 = SimplicialGraph.build([0, 1, 2, 3, 4], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
FREE4 = SimplicialGraph.build([0, 1, 2, 3], [])
K2 = SimplicialGraph.build([0, 1], [(0, 1)])
FREE2 = SimplicialGraph.build([0, 1], [])


def m2_site(density=None):
    alg = FiniteDimAlgebra((2,))
    rho = np.eye(2, dtype=complex) * 0.5 if density is None else np.asarray(density, dtype=complex)
    return site_from_state(alg, StateSpec.build(alg, [rho]))


def c2_site(p: float = 0.3):
    alg = FiniteDimAlgebra((1, 1))
    return site_from_state(alg, StateSpec.build(alg, [np.array([[p]]), np.array([[1 - p]])]))


def mixed_system(graph: SimplicialGraph, hecke_q: float = 1.0) -> GraphSystem:
    """One Hecke, one two-point, one matrix vertex; the standard mixed rig."""
    sites = {
        graph.vertices[0]: site_from_hecke(hecke_q),
        graph.vertices[1]: c2_site(0.3),
        graph.vertices[2]: m2_site([[0.6, 0.1], [0.1, 0.4]]),
    }
    for v in graph.vertices[3:]:
        sites[v] = site_from_hecke(hecke_q)
    return GraphSystem(graph, sites)


def hecke_system(graph: SimplicialGraph, q: float) -> GraphSystem:
    return GraphSystem(graph, {v: site_from_hecke(q) for v in graph.vertices})


# -- vertex-algebra oracles ------------------------------------------------------
# Element operations block by block.  Blocks are read off x.mat at offsets
# computed here from the block sizes, not through the algebra's compiled
# slices or matrix-unit positions; each oracle returns the list of blocks.


def naive_blocks(x) -> list[np.ndarray]:
    offs = np.cumsum((0,) + tuple(x.algebra.blocks))
    return [x.mat[lo:hi, lo:hi].copy() for lo, hi in zip(offs[:-1], offs[1:])]


def naive_off_block_is_zero(x) -> bool:
    """Whether every entry of x.mat outside the diagonal blocks is 0.0."""
    rest = x.mat.copy()
    offs = np.cumsum((0,) + tuple(x.algebra.blocks))
    for lo, hi in zip(offs[:-1], offs[1:]):
        rest[lo:hi, lo:hi] = 0.0
    return not np.any(rest)


def naive_random_blocks(alg: FiniteDimAlgebra, rng) -> list[np.ndarray]:
    """A complex Gaussian element drawn block by block: a d x d real and a
    d x d imaginary draw per block."""
    return [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in alg.blocks]


def naive_add(x, y):
    return [a + b for a, b in zip(naive_blocks(x), naive_blocks(y))]


def naive_sub(x, y):
    return [a - b for a, b in zip(naive_blocks(x), naive_blocks(y))]


def naive_scale(s, x):
    return [s * a for a in naive_blocks(x)]


def naive_matmul(x, y):
    return [a @ b for a, b in zip(naive_blocks(x), naive_blocks(y))]


def naive_star(x):
    return [a.conj().T for a in naive_blocks(x)]


def naive_omega(st: StateSpec, x) -> complex:
    return complex(sum(np.trace(rho @ a) for rho, a in zip(st.densities, naive_blocks(x))))


def naive_centered(st: StateSpec, x):
    w = naive_omega(st, x)
    return [a - w * np.eye(a.shape[0]) for a in naive_blocks(x)]


def naive_is_zero(x, tol: float = 1e-13) -> bool:
    return all(np.max(np.abs(a)) <= tol for a in naive_blocks(x))


def naive_norm(x) -> float:
    return max(np.linalg.norm(a, 2) for a in naive_blocks(x))


def naive_min_eig(x) -> float:
    return min(np.linalg.eigvalsh(0.5 * (a + a.conj().T)).min() for a in naive_blocks(x))


# The GNS matrices by their defining formulas, rebuilt on every call.


def naive_gns_matrix(alg: FiniteDimAlgebra, st: StateSpec, x) -> np.ndarray:
    """Left multiplication by x in the Cholesky coordinates a -> vec_F(a L),
    rotated so that the image of 1 is basis vector 0: the blockwise
    Kronecker product of x, conjugated by the Householder unitary."""
    chol = [np.linalg.cholesky(rho) for rho in st.densities]
    xi = np.concatenate([L.flatten(order="F") for L in chol])
    u = _householder_with_first_column(xi)
    big = np.zeros((alg.dim, alg.dim), dtype=complex)
    off = 0
    for d, a in zip(alg.blocks, naive_blocks(x)):
        big[off: off + d * d, off: off + d * d] = np.kron(np.eye(d), a)
        off += d * d
    return u.conj().T @ big @ u


def naive_hecke_matrix(q: float, x) -> np.ndarray:
    """[[alpha, beta], [beta, alpha + beta p]] for x = alpha 1 + beta T."""
    _, _, t = hecke_vertex(q)
    t1, t2 = (b[0, 0].real for b in naive_blocks(t))
    x1, x2 = (complex(b[0, 0]) for b in naive_blocks(x))
    beta = (x1 - x2) / (t1 - t2)
    alpha = x1 - beta * t1
    return np.array([[alpha, beta], [beta, alpha + beta * hecke_parameter(q)]], dtype=complex)


def naive_commutant_dim(rep) -> int:
    """The dimension of the commutant of the represented algebra, the null
    space of the stacked linear conditions [X, m] = 0 on vec(X), one per
    matrix unit.  The Hermitian dilation [[0, S], [S*, 0]] has the
    eigenvalues +-sigma_i of S and zeros, so its d * d largest eigenvalues
    are the singular values of S, each to within machine precision times
    the largest."""
    d = rep.dim
    eye = np.eye(d)
    stacked = np.vstack([np.kron(eye, m) - np.kron(m.T, eye) for m in map(rep.matrix, rep.algebra.basis())])
    m = len(stacked)
    herm = np.zeros((m + d * d, m + d * d), dtype=complex)
    herm[:m, m:] = stacked
    herm[m:, :m] = stacked.conj().T
    sv = np.linalg.eigvalsh(herm)[-d * d:]
    return int(np.sum(sv <= max(1e-9, sv.max() * 1e-12)))


# -- operator-part oracles --------------------------------------------------------
# creation, diagonal and annihilation by their definitions as triple products
# around Q_v, with the movement bounds each part is known to obey.


def naive_creation(space, v, a):
    qv = q_projection(space, (v,))
    out = qv @ lambda_op(space, v, a) @ (identity_op(space) - qv)
    out.down = 0  # raises word length by exactly one
    return out


def naive_diagonal(space, v, a):
    qv = q_projection(space, (v,))
    out = qv @ lambda_op(space, v, a) @ qv
    # preserves every word component, so nothing can overflow the ball
    out.up = out.down = 0
    out.guard = space.n
    return out


def naive_annihilation(space, v, a):
    qv = q_projection(space, (v,))
    out = (identity_op(space) - qv) @ lambda_op(space, v, a) @ qv
    # lowers word length by exactly one; the projections remove the overflow
    out.up = 0
    out.guard = space.n
    return out


def naive_terms_matrix(terms, space) -> np.ndarray:
    """The sum of coeff times each term's dense product: its creations, its
    diagonals, then its annihilations in reverse order, each (b^+)* written
    as naive_annihilation of b*."""
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for coeff, t in terms:
        prod = np.eye(space.dim, dtype=complex)
        factors = (
            [naive_creation(space, v, a) for v, a in t.creation]
            + [naive_diagonal(space, v, c) for v, c in t.diag]
            + [naive_annihilation(space, v, b.star()) for v, b in reversed(t.annihilation)]
        )
        for f in factors:
            prod = prod @ f.toarray()
        out += coeff * prod
    return out


# -- basis oracle --------------------------------------------------------------------
# The basis one vector at a time, enumerated as the space's definition reads.


def naive_basis(space) -> list[tuple[tuple, tuple]]:
    """Every basis vector as (word, slots), in basis order: the ball words in
    order, each with its slot tuples in itertools.product order; words with a
    letter whose reduced space is zero are skipped."""
    out = []
    for w in space.group.ball_tuples(space.n):
        sdims = [space.reps[v].dim - 1 for v in w]
        for slots in itertools.product(*(range(1, d + 1) for d in sdims)):
            out.append((w, slots))
    return out


def naive_index(space) -> dict:
    """(word, slots) -> position in naive_basis."""
    return {b: i for i, b in enumerate(naive_basis(space))}


# -- lambda/rho and Q_w oracles -------------------------------------------------------
# The action plan as a list of per-column tuples, walked one column at a time,
# and Q_w decided word by word through the canonical reduce_tuple, uncached.


def _liftable(group, word, v, left: bool) -> int:
    """Position of the occurrence of v that moves to the acting end."""
    order = range(len(word)) if left else range(len(word) - 1, -1, -1)
    for i in order:
        rest = word[:i] if left else word[i + 1:]
        if word[i] == v and all(u in group._adj[v] for u in rest):
            return i
    raise ValueError(f"{v} is not on the acting side of {word}")


def naive_plan_side(space, v, left: bool) -> list:
    """Per column: ("A", j, creation targets or None beyond N) or
    ("B", acted slot value, in-place retargets, dropped-letter target)."""
    group = space.group
    dv = space.reps[v].dim
    index = naive_index(space)
    plan = []
    for j, (w, slots) in enumerate(naive_basis(space)):
        letters_side = group.first_letters_tuple(w) if left else group.last_letters_tuple(w)
        if v in letters_side:
            r = _liftable(group, w, v, left)
            retarget = [index[(w, slots[:r] + (t,) + slots[r + 1:])] for t in range(1, dv)]
            canon, perm = group.sort_with_perm(w[:r] + w[r + 1:])
            mslots = slots[:r] + slots[r + 1:]
            drop = index[(canon, tuple(mslots[p] for p in perm))]
            plan.append(("B", slots[r], retarget, drop))
        elif len(w) + 1 <= space.n and dv > 1:
            canon, perm = group.sort_with_perm(((v,) + w) if left else (w + (v,)))
            targets = []
            for t in range(1, dv):
                src = ((t,) + slots) if left else (slots + (t,))
                targets.append(index[(canon, tuple(src[p] for p in perm))])
            plan.append(("A", j, targets))
        else:
            plan.append(("A", j, None))
    return plan


def naive_side_op(space, v, x, left: bool, part: str = "all"):
    """lambda_v(x) or rho_v(x), or one part of it, entry by entry from the
    list plan."""
    keep_scalar, keep_create, keep_diag, keep_annih = _PARTS[part]
    rep = space.reps[v]
    m = rep.matrix(x)
    dv = rep.dim
    rows, cols, data = [], [], []

    def put(r, c, val):
        if val != 0.0:
            rows.append(r)
            cols.append(c)
            data.append(val)

    for j, entry in enumerate(naive_plan_side(space, v, left)):
        if entry[0] == "A":
            targets = entry[2]
            if keep_scalar:
                put(j, j, m[0, 0])
            if keep_create and targets is not None:
                for t in range(1, dv):
                    put(targets[t - 1], j, m[t, 0])
        else:
            _, s, retarget, drop = entry
            if keep_diag:
                for t in range(1, dv):
                    put(retarget[t - 1], j, m[t, s])
            if keep_annih:
                put(drop, j, m[0, s])
    mat = _mat.from_coo(rows, cols, data, space.dim)
    guard = space.n - 1 if keep_create else space.n
    return OperatorMatrix(space, mat, guard, int(keep_create), int(keep_annih))


def naive_units(space, v, left: bool) -> np.ndarray:
    """The matrix units E_ts of lambda_v (left) or rho_v (right) as one
    dense (dv, dv, dim, dim) 0/1 array, E[t, s] sending each column whose
    v-leg is in slot s to the vector with its other legs and slot t, read
    off the list plan one column at a time; no entry where that vector is
    longer than N."""
    dv = space.reps[v].dim
    units = np.zeros((dv, dv, space.dim, space.dim))
    for j, entry in enumerate(naive_plan_side(space, v, left)):
        if entry[0] == "A":
            units[0, 0, j, j] = 1.0
            for t, row in enumerate(entry[2] or (), start=1):
                units[t, 0, row, j] = 1.0
        else:
            _, s, retarget, drop = entry
            units[0, s, drop, j] = 1.0
            for t, row in enumerate(retarget, start=1):
                units[t, s, row, j] = 1.0
    return units


def naive_unit_moves(space, v) -> set[tuple]:
    """What the units of lambda_v do to words, one entry of naive_units at a
    time: (t >= 1, s >= 1, the letter counts of its row minus those of its
    column, the word of its column, the word of its row) for every entry
    E_ts[row, col] = 1, with the counts of naive_letter_counts and the words
    of naive_basis."""
    units = naive_units(space, v, True)
    counts = naive_letter_counts(space)
    words = [w for w, _ in naive_basis(space)]
    return {(t >= 1, s >= 1, tuple(counts[row] - counts[col]), words[col], words[row])
            for t, s, row, col in zip(*np.nonzero(units))}


def naive_left_product(space, v, w: tuple) -> tuple:
    """The canonical word of v.w for a reduced w, found among the shuffles
    of (v,) + w, or of w with a v that shuffles to its front removed, with
    no reduce_tuple."""
    group = space.group
    for u in shuffle_class(group, w):
        if u and u[0] == v:
            return min(shuffle_class(group, u[1:]))
    return min(shuffle_class(group, (v,) + w))


def naive_q_projection(space, w):
    """Q_w with w <= u decided as |w^-1 u| = |u| - |w| through the canonical
    reduce_tuple, rebuilt on every call."""
    group = space.group
    letters = group.reduce_tuple(tuple(w))
    dvals = np.zeros(space.dim, dtype=complex)
    for i, (u, _) in enumerate(naive_basis(space)):
        if u != () and len(letters) <= len(u):
            if len(group.reduce_tuple(tuple(reversed(letters)) + u)) == len(u) - len(letters):
                dvals[i] = 1.0
    return OperatorMatrix(space, _mat.diag(dvals), space.n, 0, 0)


# -- matrix-helper oracles ----------------------------------------------------------
# Dense numpy stand-ins for the CSR helpers of gplab._mat, entry by entry.


def naive_from_coo(rows, cols, data, shape) -> np.ndarray:
    """Dense matrix summing each coordinate triple in turn."""
    out = np.zeros(shape, dtype=complex)
    for r, c, d in zip(rows, cols, data):
        out[r, c] += d
    return out


def naive_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product by the defining triple sum."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            out[i, j] = sum(a[i, k] * b[k, j] for k in range(a.shape[1]))
    return out


def naive_csr(rows, cols, data, shape) -> _mat.CSR:
    """CSR from coordinate triples with no shortcut, whatever the input: one
    stable sort of every key, a sum over each run of equal keys and a mask
    of the zeros.  _mat._csr, which skips work its input does not need,
    must match it bit for bit."""
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
    return _mat.CSR(indptr, key % max(nc, 1), data, (nr, nc))


def naive_csr_mul(a: _mat.CSR, b: _mat.CSR) -> _mat.CSR:
    """Gustavson's row merge with no shortcut: every entry of A expanded
    over the matching row of B, then naive_csr."""
    counts = np.diff(b.indptr)[a.indices]
    first = b.indptr[a.indices] - (np.cumsum(counts) - counts)
    pos = np.arange(int(counts.sum())) + np.repeat(first, counts)
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    return naive_csr(
        np.repeat(rows, counts),
        b.indices[pos],
        np.repeat(a.data, counts) * b.data[pos],
        (a.shape[0], b.shape[1]),
    )


def assert_canonical(m) -> None:
    """m is a CSR value in canonical form: row pointers over its entries,
    sorted distinct columns in range per row, complex data, no stored
    zeros."""
    assert isinstance(m, _mat.CSR)
    nr, nc = m.shape
    assert len(m.indptr) == nr + 1 and m.indptr[0] == 0 and m.indptr[-1] == len(m.indices) == len(m.data)
    assert np.all(np.diff(m.indptr) >= 0)
    assert np.all((m.indices >= 0) & (m.indices < max(nc, 1)))
    for i in range(nr):
        assert np.all(np.diff(m.indices[m.indptr[i]: m.indptr[i + 1]]) > 0)
    assert m.data.dtype == complex
    assert np.all(m.data != 0)


def naive_gram_blocks(a: np.ndarray, labels) -> np.ndarray:
    """a* a with the entries between differently labelled columns zeroed."""
    g = naive_mul(a.conj().T, a)
    for r in range(g.shape[0]):
        for c in range(g.shape[1]):
            if labels[r] != labels[c]:
                g[r, c] = 0.0
    return g


# -- reduced-operator oracle -------------------------------------------------------


def naive_reduced_operator(space, letters, elements) -> OperatorMatrix:
    """Product lambda_{v1}(a1) ... lambda_{vn}(an), formed as a matrix."""
    out = identity_op(space)
    for v, a in zip(letters, elements):
        out = out @ lambda_op(space, v, a)
    return out


# -- operator-norm oracle ----------------------------------------------------------


def _densified(a) -> np.ndarray:
    """A CSR value as a dense array; a dense array as it is."""
    return a if isinstance(a, np.ndarray) else _mat.to_dense(a)


def naive_norm2(a) -> float:
    """Largest singular value from one SVD of the whole matrix, densified."""
    d = _densified(a)
    return float(np.linalg.svd(d, compute_uv=False).max()) if d.size else 0.0


def naive_guarded_deviation(a, b) -> float:
    """||a - b|| on the columns of the common guard: both densified, the
    guarded columns selected, subtracted, then one dense 2-norm."""
    idx = np.arange(a.space.width(min(a.guard, b.guard)))
    diff = a.toarray()[:, idx] - b.toarray()[:, idx]
    return float(np.linalg.norm(diff, 2)) if diff.size else 0.0


# -- conditional-expectation oracles ------------------------------------------------


def naive_expectation_gram(x):
    """E(x* x) from the whole product x* x, then its word blocks."""
    return expectation_diag(x.adjoint() @ x)


def naive_expectation_min_eig(x) -> float:
    """Smallest eigenvalue of the Hermitian part of the whole dense E(x)."""
    e = expectation_diag(x).toarray()
    return float(np.linalg.eigvalsh(0.5 * (e + e.conj().T)).min())


def naive_tail_profile(x) -> list[float]:
    """Per-word tail norms: one SVD of each dense word block of the whole
    product's E(x* x), then the largest over the words longer than k."""
    space = x.space
    e = naive_expectation_gram(x).toarray()
    norms = {
        w: float(np.linalg.svd(e[off: off + c, off: off + c], compute_uv=False).max())
        for w, (off, c) in space._spans.items()
    }
    return [max((nm for w, nm in norms.items() if len(w) > k), default=0.0) for k in range(space.n)]


def naive_hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a*) / 2 of a dense square matrix."""
    return 0.5 * (a + a.conj().T)


def naive_hermitian_min_eig(a: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of a dense square matrix."""
    return float(np.linalg.eigvalsh(naive_hermitian_part(a)).min())


def naive_components(a, square: bool) -> list[tuple[list[int], list[int]]]:
    """The (rows, columns) of each connected component of a's nonzero
    pattern, by union-find: over the index graph (row i and column i one
    node) when `square`, else over the row/column graph."""
    rows, cols = np.nonzero(_densified(a))
    col_side = "r" if square else "c"
    uf = UnionFind([("r", int(i)) for i in rows] + [(col_side, int(j)) for j in cols])
    for i, j in zip(rows, cols):
        uf.union(("r", int(i)), (col_side, int(j)))
    comps: dict = {}
    for side, k in uf.parent:
        got = comps.setdefault(uf.find((side, k)), (set(), set()))
        got[0 if side == "r" else 1].add(k)
        if square:
            got[1].add(k)
    return [(sorted(r), sorted(c)) for r, c in comps.values()]


def naive_letter_counts(space) -> np.ndarray:
    """(dim, |V|): how often each vertex occurs in each basis vector's word."""
    vpos = {v: k for k, v in enumerate(space.graph.vertices)}
    counts = np.zeros((space.dim, len(vpos)), dtype=np.int64)
    for i, (w, _) in enumerate(naive_basis(space)):
        for letter in w:
            counts[i, vpos[letter]] += 1
    return counts


def naive_gauge_average(x, m: int):
    """Average of U_z x U_z* by summing over every point of the m-th-roots
    grid on the torus."""
    space = x.space
    nv = len(space.graph.vertices)
    counts = naive_letter_counts(space)
    rows, cols, data = _mat.coo_parts(x.mat)
    acc = np.zeros(len(data), dtype=complex)
    for assignment in itertools.product(range(m), repeat=nv):
        d = np.exp(2j * np.pi * (counts @ np.asarray(assignment)) / m)
        acc += data * d[rows] * np.conj(d[cols])
    acc /= float(m**nv)
    return OperatorMatrix(space, _mat.from_coo(rows, cols, acc, space.dim), x.guard, x.up, x.down)


def naive_gauge_unitary(space, z) -> OperatorMatrix:
    """U_z with the product of z over each basis vector's letters, one vector
    at a time."""
    dvals = np.ones(space.dim, dtype=complex)
    for i, (w, _) in enumerate(naive_basis(space)):
        val = 1.0 + 0j
        for letter in w:
            val *= z[letter]
        dvals[i] = val
    return OperatorMatrix(space, _mat.diag(dvals), space.n, 0, 0)


# -- subgraph-expectation and tensor-split oracles -------------------------------------
# The head/tail factorisation and the factor pairs, one basis vector at a time.


def naive_factor(space, sub, left: bool) -> tuple[list[int], list[int]]:
    """Per column, the columns of its head alone and of its tail alone: the
    letters of `sub` peeled off the acting end one vector at a time, each
    step the smallest one that the first or last letters allow."""
    group = space.group
    subset = set(sub)
    index = naive_index(space)
    heads, tails = [], []
    for w, slots in naive_basis(space):
        rem = list(zip(w, slots))
        head = []
        while True:
            word_now = tuple(p[0] for p in rem)
            ends = group.first_letters_tuple(word_now) if left else group.last_letters_tuple(word_now)
            allowed = [s for s in ends if s in subset]
            if not allowed:
                break
            head.append(rem.pop(_liftable(group, word_now, min(allowed), left)))
        for part, out in ((head if left else head[::-1], heads), (rem, tails)):
            canon, perm = group.sort_with_perm(tuple(p[0] for p in part))
            out.append(index[(canon, tuple(part[p][1] for p in perm))])
    return heads, tails


def naive_expectation_subgraph(space, sub, x) -> OperatorMatrix:
    """E_sub(x): each column's word is peeled into (head in the subgroup) *
    (tail) vector by vector, and each entry of x on the subgraph space is
    sent to the merged head-and-tail rows entry by entry."""
    group = space.group
    basis, index = naive_basis(space), naive_index(space)
    sub_basis = naive_basis(space.subspace(sub))
    emb = np.array([index[b] for b in sub_basis], dtype=int)
    y_rows, y_cols, y_data = _mat.principal_parts(x.mat, emb)
    by_head: dict = {}
    for j, (h, t) in enumerate(zip(*naive_factor(space, sub.vertices, True))):
        by_head.setdefault(h, []).append((j, basis[t]))
    rows, cols, data = [], [], []
    for r0, c0, val in zip(y_rows, y_cols, y_data):
        hw, hs = sub_basis[int(r0)]
        for j, (tw, ts) in by_head.get(int(emb[c0]), ()):
            letters = hw + tw
            if len(letters) > space.n:
                continue
            slots = hs + ts
            canon, perm = group.sort_with_perm(letters)
            rows.append(index[(canon, tuple(slots[p] for p in perm))])
            cols.append(j)
            data.append(val)
    guard = min(x.guard, space.n - x.up)
    return OperatorMatrix(space, _mat.from_coo(rows, cols, data, space.dim), guard, x.up, x.down)


def naive_tensor_pairs(space, f1, f2) -> np.ndarray:
    """(f1.dim, f2.dim) table of the column whose letters in f1's graph give
    the f1 vector and whose others give the f2 vector, -1 where none does;
    filled one basis vector at a time."""
    group = space.group
    s1 = set(f1.graph.vertices)
    index1, index2 = naive_index(f1), naive_index(f2)
    table = np.full((f1.dim, f2.dim), -1, dtype=np.intp)
    for j, (w, slots) in enumerate(naive_basis(space)):
        split = []
        for keep, index in ((True, index1), (False, index2)):
            seq = [(letter, s) for letter, s in zip(w, slots) if (letter in s1) == keep]
            canon, perm = group.sort_with_perm(tuple(p[0] for p in seq))
            split.append(index[(canon, tuple(seq[p][1] for p in perm))])
        table[split[0], split[1]] = j
    return table
