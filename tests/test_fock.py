import itertools
from pathlib import Path

import numpy as np
import pytest

from gplab import _mat, certificate, fock
from gplab.algebras import FiniteDimAlgebra, StateSpec, hecke_parameter, hecke_vertex, site_from_hecke, site_from_state
from gplab.analysis import SMOKE_DRAWS, expectation_checks, traciality_probe
from gplab.config import load_config
from gplab.elementary import random_operator
from gplab.errors import ResourceLimitError, ShallowTruncationError
from gplab.fock import (
    _PARTS,
    TruncatedFock,
    _side_op,
    annihilation,
    creation,
    diagonal,
    expectation_diag,
    expectation_subgraph,
    gauge_average,
    gauge_unitary,
    guarded_deviation,
    guarded_norm,
    identity_op,
    lambda_op,
    offdiagonal_mass,
    q_projection,
    rho_op,
    tail_profile,
    tensor_split_check,
    word_projection,
    zero_op,
)
from gplab.graphs import SimplicialGraph
from gplab.system import GraphSystem
from gplab.words import CoverTable, CoxeterGroup
from util import (
    CYC5,
    FREE2,
    FREE3,
    K2,
    K3,
    PATH3,
    assert_canonical,
    c2_site,
    m2_site,
    naive_annihilation,
    naive_basis,
    naive_components,
    naive_creation,
    naive_diagonal,
    naive_expectation_subgraph,
    naive_expectation_gram,
    naive_expectation_min_eig,
    naive_factor,
    naive_gauge_average,
    naive_gauge_unitary,
    naive_guarded_deviation,
    naive_letter_counts,
    naive_norm2,
    naive_plan_side,
    naive_q_projection,
    naive_reduced_operator,
    naive_side_op,
    naive_tail_profile,
    naive_tensor_pairs,
)

RNG = np.random.default_rng(11)


@pytest.fixture(scope="module")
def hecke_space():
    site = site_from_hecke(2.0)
    return TruncatedFock(FREE3, {v: site.rep for v in FREE3.vertices}, 3)


def test_build_dimensions():
    site = site_from_hecke(1.0)
    reps3 = {v: site.rep for v in FREE3.vertices}
    assert TruncatedFock(FREE3, reps3, 0).dim == 1
    assert TruncatedFock(FREE3, reps3, 2).dim == 10  # 1 + 3 + 6
    g1 = FREE3.induced([0])
    m2 = m2_site()
    assert TruncatedFock(g1, {0: m2.rep}, 1).dim == 4  # 1 + (4 - 1)
    assert naive_basis(TruncatedFock(FREE3, reps3, 2))[0][0] == ()


def test_dim_cap():
    site = site_from_hecke(1.0)
    with pytest.raises(ResourceLimitError):
        TruncatedFock(FREE3, {v: site.rep for v in FREE3.vertices}, 3, dim_cap=5)


def test_subspace_keeps_dim_cap():
    """A subgraph space is built under its parent's cap, not the default."""
    site = site_from_hecke(1.0)
    space = TruncatedFock(K3, {v: site.rep for v in K3.vertices}, 3, dim_cap=9)
    sub = space.subspace(K3.induced([0, 1]))
    assert sub.dim_cap == 9 and sub.dim == 4


def test_subspace_rejects_graph_that_is_not_induced():
    """FREE2 has K2's vertices but not its edge: its space (dim 7 at depth 3)
    is no subspace of the K2 one (dim 4)."""
    site = site_from_hecke(1.0)
    space = TruncatedFock(K2, {v: site.rep for v in K2.vertices}, 3)
    with pytest.raises(ValueError):
        space.subspace(FREE2)
    with pytest.raises(ValueError):
        space.subspace(K3)


def test_lambda_hecke_cases(hecke_space):
    """The two defining cases against the operator on the group basis."""
    space = hecke_space
    _, _, t = hecke_vertex(2.0)
    p = hecke_parameter(2.0)
    lam = lambda_op(space, 0, t).toarray()
    vac = np.zeros(space.dim)
    vac[0] = 1.0
    out = lam @ vac
    assert abs(out[space.index_of((0,), (1,))] - 1.0) < 1e-15 and abs(out[0]) < 1e-15
    # s <= w case: delta_s -> delta_e + p delta_s
    e_s = np.zeros(space.dim)
    e_s[space.index_of((0,), (1,))] = 1.0
    out = lam @ e_s
    assert abs(out[0] - 1.0) < 1e-15
    assert abs(out[space.index_of((0,), (1,))] - p) < 1e-15


def test_lambda_unital_multiplicative(hecke_space):
    space = hecke_space
    alg, st, t = hecke_vertex(2.0)
    assert np.allclose(lambda_op(space, 0, alg.one()).toarray(), np.eye(space.dim))
    lt = lambda_op(space, 0, t)
    lt2 = lambda_op(space, 0, t @ t)
    assert guarded_deviation(lt @ lt, lt2) < 1e-12


def test_lambda_rejects_bad_input(hecke_space):
    _, _, t = hecke_vertex(2.0)
    with pytest.raises(ValueError):
        lambda_op(hecke_space, 9, t)


def test_creation_remark_identities():
    """Vector identities of the three operator classes on a matrix vertex."""
    site = m2_site([[0.6, 0.1], [0.1, 0.4]])
    g1 = FREE3.induced([0, 1])
    hs = site_from_hecke(1.0)
    space = TruncatedFock(g1, {0: site.rep, 1: hs.rep}, 3)
    rng = np.random.default_rng(3)
    a = site.random_element(rng, center=False)
    b = site.random_element(rng)  # centered
    st = site.state

    cr, dg, an = creation(space, 0, a), diagonal(space, 0, a), annihilation(space, 0, a)
    vac = np.zeros(space.dim, dtype=complex)
    vac[0] = 1.0
    # a† Omega = (a - omega(a)) xi placed at word (0)
    out = cr.toarray() @ vac
    avec = site.rep.matrix(a)[:, 0]
    for tslot in range(1, 4):
        assert abs(out[space.index_of((0,), (tslot,))] - avec[tslot]) < 1e-12
    assert abs(out[0]) < 1e-14
    assert np.max(np.abs(dg.toarray() @ vac)) < 1e-14
    assert np.max(np.abs(an.toarray() @ vac)) < 1e-14

    # vector b xi at word (0): d(a) maps it to (ab)° xi, annihilation of a gives omega(ab) Omega
    bvec = np.zeros(space.dim, dtype=complex)
    bcoord = site.rep.matrix(b)[:, 0]
    for tslot in range(1, 4):
        bvec[space.index_of((0,), (tslot,))] = bcoord[tslot]
    out = an.toarray() @ bvec
    assert abs(out[0] - st.omega(a @ b)) < 1e-12
    assert np.max(np.abs(out[1:])) < 1e-12
    out = dg.toarray() @ bvec
    abvec = site.rep.matrix(site.centered(a @ b))[:, 0]
    for tslot in range(1, 4):
        assert abs(out[space.index_of((0,), (tslot,))] - abvec[tslot]) < 1e-12
    assert np.max(np.abs(creation(space, 0, a).toarray() @ bvec)) < 1e-14

    # adjoint relation: creation(a)* = annihilation(a*)
    assert guarded_deviation(creation(space, 0, b).adjoint(), annihilation(space, 0, b.star())) < 1e-12


def test_creation_raises_length_diag_preserves(mixed_free3):
    space = mixed_free3.space(3)
    rng = np.random.default_rng(5)
    for v in FREE3.vertices:
        a = mixed_free3.sites[v].random_element(rng)
        rows, cols, data = _mat.coo_parts(creation(space, v, a).mat)
        lens = space.lengths
        assert all(lens[r] == lens[c] + 1 for r, c in zip(rows, cols))
        rows, cols, data = _mat.coo_parts(annihilation(space, v, a).mat)
        assert all(lens[r] == lens[c] - 1 for r, c in zip(rows, cols))
        rows, cols, _ = _mat.coo_parts(diagonal(space, v, a).mat)
        assert all(space.word_ids[r] == space.word_ids[c] for r, c in zip(rows, cols))


def test_q_projection_examples(hecke_space):
    space = hecke_space
    q0 = q_projection(space, (0,))
    vac = np.zeros(space.dim)
    vac[0] = 1.0
    assert np.max(np.abs(q0.toarray() @ vac)) == 0.0
    q1 = q_projection(space, (1,))
    assert (q0 @ q1).norm() == 0.0  # no word starts with both on the free graph
    # adjacent pair: Q_v Q_v' = Q_{vv'}
    site = site_from_hecke(2.0)
    spc = TruncatedFock(K2, {0: site.rep, 1: site.rep}, 3)
    dev = guarded_deviation(q_projection(spc, (0,)) @ q_projection(spc, (1,)), q_projection(spc, (0, 1)))
    assert dev == 0.0
    with pytest.raises(ValueError):
        q_projection(space, (0, 1, 0, 1))  # length 4 > depth 3


def test_q_projection_empty_word(hecke_space):
    space = hecke_space
    qe = q_projection(space, ())
    expected = identity_op(space) - word_projection(space, ())
    assert guarded_deviation(qe, expected) == 0.0


def test_gauge_examples(hecke_space):
    space = hecke_space
    assert guarded_deviation(gauge_unitary(space, {v: 1.0 for v in FREE3.vertices}), identity_op(space)) == 0.0
    u = gauge_unitary(space, {0: -1.0, 1: 1.0, 2: 1.0})
    diag = np.real(u.toarray().diagonal())
    for i, (w, _) in enumerate(naive_basis(space)):
        assert diag[i] == (-1.0) ** w.count(0)
    with pytest.raises(ValueError):
        gauge_unitary(space, {0: 2.0, 1: 1.0, 2: 1.0})
    _, _, t = hecke_vertex(2.0)
    z = {0: np.exp(1.3j), 1: np.exp(-0.4j), 2: 1.0}
    uz = gauge_unitary(space, z)
    cr = creation(space, 0, t)
    assert guarded_deviation(uz @ cr @ uz.adjoint(), z[0] * cr) < 1e-15


def test_expectation_examples(mixed_free3):
    space = mixed_free3.space(3)
    rng = np.random.default_rng(9)
    a = mixed_free3.sites[2].random_element(rng)
    b = mixed_free3.sites[2].random_element(rng)
    cr, dg = creation(space, 2, a), diagonal(space, 2, a)
    assert guarded_norm(expectation_diag(cr)) == 0.0
    assert guarded_deviation(expectation_diag(dg), dg) == 0.0
    x = cr @ diagonal(space, 2, b) @ creation(space, 2, b).adjoint()
    assert guarded_deviation(expectation_diag(x), x) < 1e-14  # signature e


def test_gauge_reads_one_letter_table(mixed_free3):
    """gauge_unitary and gauge_average read one per-space letter table,
    built on first use."""
    space = TruncatedFock(mixed_free3.graph, mixed_free3.reps(), 3)
    gauge_unitary(space, {v: 1j for v in FREE3.vertices})
    table = space._plans["letters"]
    gauge_average(identity_op(space), 3)
    assert space._plans["letters"] is table
    letters, counts = table
    assert letters.shape == (len(space._spans), 3) and counts.shape == (len(space._spans), 3)
    assert np.array_equal(counts[space.word_ids], naive_letter_counts(space))


def test_gauge_average_examples(mixed_free3):
    space = mixed_free3.space(3)
    rng = np.random.default_rng(13)
    a = mixed_free3.sites[0].random_element(rng)
    dg = diagonal(space, 0, a)
    for m in (1, 2, 5):
        assert guarded_deviation(gauge_average(dg, m), dg) < 1e-14
    cr = creation(space, 0, a)
    assert guarded_norm(gauge_average(cr, 2 * space.n + 1)) < 1e-14
    x = cr @ creation(space, 1, mixed_free3.sites[1].random_element(rng)).adjoint()
    assert guarded_deviation(gauge_average(x, 1), x) == 0.0
    assert guarded_deviation(gauge_average(x, 2 * space.n + 1), expectation_diag(x)) < 1e-13


def test_gauge_average_is_the_expectation_only_on_short_products():
    """At m > 2N the gauge average keeps the entries between words with
    equal letter counts.  lambda_v lambda_u lambda_v lambda_u on
    hecke_q1_edgeless3 at depth 6 moves a word w to vuvu w, whose letter
    counts equal w's, so the average keeps entries that E(x) drops; its
    3-factor prefix moves no word to another with equal letter counts, and
    the two agree.  expectation.gauge_average_match holds on the products
    of at most 3 factors that random_operator draws, not for every x."""
    sysm = load_config(Path(__file__).parent / "fixtures" / "hecke_q1_edgeless3.json").system
    space = sysm.space(6)
    rng = np.random.default_rng(0)
    u, v = sysm.graph.vertices[:2]
    lam = [lambda_op(space, w, sysm.sites[w].random_element(rng, center=False)) for w in (v, u, v, u)]
    prefix = lam[0] @ lam[1] @ lam[2]
    x = prefix @ lam[3]
    assert x.guard == 2
    m = 2 * space.n + 1
    assert guarded_deviation(gauge_average(x, m), expectation_diag(x)) > 1e-3
    assert guarded_deviation(gauge_average(prefix, m), expectation_diag(prefix)) <= 1e-12


def test_expectation_subgraph_examples(mixed_path3):
    space = mixed_path3.space(3)
    sub = PATH3.induced([0, 1])
    rng = np.random.default_rng(17)
    x_in = creation(space, 0, mixed_path3.sites[0].random_element(rng))
    assert guarded_deviation(expectation_subgraph(space, sub, x_in), x_in) < 1e-14
    x_out = creation(space, 2, mixed_path3.sites[2].random_element(rng))
    assert guarded_norm(expectation_subgraph(space, sub, x_out)) == 0.0
    ident = identity_op(space)
    assert guarded_deviation(expectation_subgraph(space, sub, ident), ident) == 0.0
    # a non-induced subgraph: keeps the vertices but drops the edge
    from gplab.graphs import SimplicialGraph

    broken = SimplicialGraph.build([0, 1], [])
    with pytest.raises(ValueError):
        expectation_subgraph(space, broken, x_in)


def test_expectation_subgraph_idempotent(mixed_path3):
    space = mixed_path3.space(3)
    sub = PATH3.induced([0, 1])
    rng = np.random.default_rng(23)
    x = (
        lambda_op(space, 0, mixed_path3.sites[0].random_element(rng, center=False))
        @ lambda_op(space, 2, mixed_path3.sites[2].random_element(rng, center=False))
    )
    e1 = expectation_subgraph(space, sub, x)
    e2 = expectation_subgraph(space, sub, e1)
    assert guarded_deviation(e1, e2) < 1e-12


def test_vacuum_eval_examples(mixed_free3):
    space = mixed_free3.space(3)
    assert _mat.to_dense(identity_op(space).mat)[0, 0] == 1.0
    rng = np.random.default_rng(29)
    x = naive_reduced_operator(space, (0, 1), [mixed_free3.sites[0].random_element(rng), mixed_free3.sites[1].random_element(rng)])
    assert abs(_mat.to_dense(x.mat)[0, 0]) < 1e-14
    assert abs(_mat.to_dense(diagonal(space, 0, mixed_free3.sites[0].random_element(rng)).mat)[0, 0]) < 1e-14


def test_tail_profile_examples(mixed_free3):
    space = mixed_free3.space(3)
    theta = identity_op(space)
    for v in FREE3.vertices:
        theta = theta @ (identity_op(space) - q_projection(space, (v,)))
    assert max(tail_profile(theta), default=0.0) == 0.0
    assert tail_profile(identity_op(space)) == [1.0, 1.0, 1.0]
    rng = np.random.default_rng(31)
    cr = creation(space, 2, mixed_free3.sites[2].random_element(rng))
    prof = tail_profile(cr)
    # monotone nonincreasing and bounded by ||x||^2
    assert all(prof[i] >= prof[i + 1] - 1e-12 for i in range(len(prof) - 1))
    assert prof[0] <= cr.norm() ** 2 + 1e-9
    # blockwise oracle: dense per-word block norms
    e = expectation_diag(cr.adjoint() @ cr)
    dense = e.toarray()
    for k in range(space.n):
        vals = [0.0]
        for word, (off, _) in space._spans.items():
            if len(word) <= k:
                continue
            cnt = 1
            for vv in word:
                cnt *= space.reps[vv].dim - 1
            idx = np.arange(off, off + cnt)
            vals.append(np.linalg.norm(dense[np.ix_(idx, idx)], 2))
        assert abs(prof[k] - max(vals)) < 1e-12


def test_level_and_word_projections(mixed_free3):
    space = mixed_free3.space(3)
    pw = word_projection(space, (0,))
    assert np.real(pw.toarray().diagonal()).sum() == space.reps[0].dim - 1


def test_rho_mirrors_lambda(mixed_free3):
    space = mixed_free3.space(3)
    _, _, t = hecke_vertex(2.0)
    rho = rho_op(space, 0, t).toarray()
    vac = np.zeros(space.dim)
    vac[0] = 1.0
    out = rho @ vac
    assert abs(out[space.index_of((0,), (1,))] - 1.0) < 1e-15
    # on delta_{(1,)} (does not end with 0 on the free graph): append at the end
    e1 = np.zeros(space.dim)
    idx1 = space.index_of((1,), (1,))
    e1[idx1] = 1.0
    out = rho @ e1
    assert abs(out[space.index_of((1, 0), (1, 1))] - 1.0) < 1e-15


def test_rho_lambda_commute(mixed_free3, mixed_path3):
    for sysm in (mixed_free3, mixed_path3):
        space = sysm.space(3)
        rng = np.random.default_rng(37)
        for u in sysm.graph.vertices:
            for v in sysm.graph.vertices:
                if u == v:
                    continue
                lam = lambda_op(space, u, sysm.sites[u].random_element(rng, center=False))
                rho = rho_op(space, v, sysm.sites[v].random_element(rng, center=False))
                assert guarded_deviation(lam @ rho, rho @ lam) < 1e-9


def test_tensor_split_examples():
    site = site_from_hecke(2.0)
    rep = site.rep
    assert tensor_split_check(TruncatedFock(K2, {0: rep, 1: rep}, 4), [0]) <= 1e-12
    assert tensor_split_check(TruncatedFock(K3, {v: rep for v in K3.vertices}, 4), [0]) <= 1e-12
    with pytest.raises(ValueError):
        tensor_split_check(TruncatedFock(FREE2, {0: rep, 1: rep}, 3), [0])


def test_tensor_split_is_computed_once_per_space(monkeypatch):
    """The split of a space is cached with it: a second call returns the
    same deviation and builds no factor space."""
    rep = site_from_hecke(2.0).rep
    space = TruncatedFock(K3, {v: rep for v in K3.vertices}, 3)
    first = tensor_split_check(space, [0])
    built = []
    monkeypatch.setattr(TruncatedFock, "subspace", lambda self, sub: built.append(sub))
    assert tensor_split_check(space, [0]) is first and built == []


def test_guard_arithmetic(mixed_free3):
    space = mixed_free3.space(3)
    rng = np.random.default_rng(41)
    a = mixed_free3.sites[0].random_element(rng)
    cr = creation(space, 0, a)
    assert cr.guard == space.n - 1 and (cr.up, cr.down) == (1, 0)
    adj = cr.adjoint()
    assert adj.guard == space.n - 1 and (adj.up, adj.down) == (0, 1)
    # annihilate-then-create never overflows: only upward movement costs guard
    prod = cr @ adj
    assert prod.guard == space.n - 1 and (prod.up, prod.down) == (1, 1)
    # create-then-annihilate spends one level at the top
    prod2 = adj @ cr
    assert prod2.guard == space.n - 2
    dg = diagonal(space, 0, a)
    assert (dg.up, dg.down) == (0, 0) and dg.guard == space.n
    s = cr + dg
    assert s.guard == min(cr.guard, dg.guard) and (s.up, s.down) == (1, 0)
    with pytest.raises(ValueError):
        other = mixed_free3.space(2)
        _ = cr @ identity_op(other)


def _shuffled_csr(m: np.ndarray, rng) -> _mat.CSR:
    """m with rows and columns shuffled, as a CSR value."""
    m = m[rng.permutation(m.shape[0])][:, rng.permutation(m.shape[1])]
    rows, cols = np.nonzero(m)
    return _mat._csr(rows, cols, m[rows, cols], m.shape)


def _block_diag(blocks) -> np.ndarray:
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r: r + b.shape[0], c: c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _least_eig(x: fock.OperatorMatrix) -> float:
    """The least eigenvalue of the Hermitian part of x, as the expectation
    row reads it off E(x* x): the least over the blocks of its index
    graph."""
    return float(_mat.hermitian_eigs(*_mat.coo_parts(x.mat), x.space.dim)[0].min())


def test_operator_norm_matches_dense_svd_oracle():
    """norm2 of a CSR matrix is the exact largest singular value: a lambda
    product, matrices with no nonzero entry, one long connected component,
    direct sums of 1x1, kx1, 1xk and kxk blocks, the same with entries near
    1e-15, which a* a squares to near 1e-30, and direct sums of wide 1xk
    blocks alone."""
    site = m2_site()
    space = TruncatedFock(FREE3, {v: site.rep for v in FREE3.vertices}, 3)
    rng = np.random.default_rng(43)
    x = lambda_op(space, 0, site.random_element(rng, center=False))
    y = lambda_op(space, 1, site.random_element(rng, center=False))
    inputs = [(x @ y).mat]

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    inputs.append(_mat.zeros(300))
    # stored entries that are all zero, which no helper builds
    indptr = np.searchsorted([0, 5, 9, 299], np.arange(301))  # entries in rows 0, 5, 9, 299
    inputs.append(_mat.CSR(indptr, np.array([3, 3, 7, 0]), np.zeros(4, dtype=complex), (300, 300)))
    n = 300  # a bidiagonal chain: one component of diameter 2n - 1
    inputs.append(_shuffled_csr(np.diag(cplx(n)) + np.diag(cplx(n - 1), 1), rng))
    for _ in range(5):
        blocks = [10.0 ** rng.uniform(-3, 1) * cplx(*shape)
                  for k in (2, 3, 5) for shape in [(1, 1), (k, 1), (1, k), (k, k)] for _ in range(2)]
        inputs.append(_shuffled_csr(_block_diag(blocks), rng))
        inputs.append(_shuffled_csr(_block_diag([1e-15 * b for b in blocks]), rng))
    for k in (2, 7, 40):
        inputs.append(_shuffled_csr(_block_diag([10.0 ** rng.uniform(-3, 1) * cplx(1, k) for _ in range(6)]), rng))
    for m in inputs:
        want = naive_norm2(m)
        assert abs(_mat.norm2(m) - want) <= 1e-12 * want


def test_operator_norm_reads_tiny_diagonals_above_tolerance():
    """Diagonals of dim 256 to 1023 whose top singular value sits just
    above the 1e-9 identity tolerance all read above it: a norm that reads
    low would let such a deviation pass."""
    rng = np.random.default_rng(71)
    for _ in range(200):
        n = int(rng.integers(256, 1024))
        top = 1e-9 * (1.0 + 10.0 ** rng.uniform(-6, -3))
        mag = top * rng.uniform(0.95, 1.0, n) * (rng.random(n) < 0.5)
        mag[rng.integers(n)] = top
        m = _mat.diag(mag * np.exp(2j * np.pi * rng.random(n)))
        assert _mat.norm2(m) > 1e-9


def test_conjugation_domination(mixed_free3):
    """a* Q_v^perp a <= omega(aa*) Q_v on the guarded subspace."""
    space = mixed_free3.space(3)
    rng = np.random.default_rng(47)
    for v in FREE3.vertices:
        a = mixed_free3.sites[v].random_element(rng)
        lam = lambda_op(space, v, a)
        qv = q_projection(space, (v,))
        lhs = lam.adjoint() @ (identity_op(space) - qv) @ lam
        rhs = mixed_free3.sites[v].state.omega(a @ a.star()).real * qv
        g = min(lhs.guard, rhs.guard)
        idx = np.arange(space.width(g))
        m = (rhs - lhs).toarray()[np.ix_(idx, idx)]
        assert np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() >= -1e-9


def test_traciality_probe_directions():
    from gplab.analysis import traciality_probe
    from gplab.system import GraphSystem

    tracial = GraphSystem(FREE3, {v: m2_site() for v in FREE3.vertices})
    assert traciality_probe(tracial, depth=3, seed=1) <= 1e-10
    nt = GraphSystem(FREE3, {0: m2_site([[0.7, 0], [0, 0.3]]), 1: m2_site(), 2: m2_site()})
    assert traciality_probe(nt, depth=3, seed=1) > 1e-3
    with pytest.raises(ShallowTruncationError, match="no probe pair fits depth 1"):
        traciality_probe(tracial, depth=1)


def _oracle_space(mixed_path3, path):
    """A small depth-3 space (mixed PATH3, dim 34) for the id "dense", or a
    large one (M2 on FREE3, dim 388) for "csr", with its system.  The ids
    are kept from when matrices of the small space were dense arrays; both
    spaces now hold CSR matrices."""
    if path == "dense":
        sysm = mixed_path3
    else:
        sysm = GraphSystem(FREE3, {0: m2_site(), 1: m2_site([[0.6, 0.1], [0.1, 0.4]]), 2: m2_site()})
    return sysm, sysm.space(3)


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_parts_match_triple_product_oracle(mixed_path3, path):
    """creation, diagonal and annihilation read straight off the lambda plan
    equal their triple-product definitions entry for entry, with the same
    guard and movement bounds."""
    sysm, space = _oracle_space(mixed_path3, path)
    rng = np.random.default_rng(61)
    pairs = [(creation, naive_creation), (diagonal, naive_diagonal), (annihilation, naive_annihilation)]
    for v in space.graph.vertices:
        for center in (True, False):
            a = sysm.sites[v].random_element(rng, center=center)
            for fast, naive in pairs:
                got, want = fast(space, v, a), naive(space, v, a)
                assert (got.guard, got.up, got.down) == (want.guard, want.up, want.down)
                assert np.array_equal(got.toarray(), want.toarray())


def test_offdiagonal_mass(mixed_free3):
    space = mixed_free3.space(3)
    rng = np.random.default_rng(53)
    dg = diagonal(space, 0, mixed_free3.sites[0].random_element(rng))
    assert offdiagonal_mass(dg) == 0.0
    cr = creation(space, 0, mixed_free3.sites[0].random_element(rng))
    assert offdiagonal_mass(cr) > 0.0


def test_rho_second_case_acts_on_last_leg(hecke_space):
    """When the word ends in the acting vertex: rewrite the last leg and
    produce the shortened word with the state coefficient."""
    from gplab.algebras import hecke_parameter

    space = hecke_space
    _, _, t = hecke_vertex(2.0)
    p = hecke_parameter(2.0)
    rho = rho_op(space, 0, t).toarray()
    e0 = np.zeros(space.dim)
    e0[space.index_of((0,), (1,))] = 1.0
    out = rho @ e0
    assert abs(out[0] - 1.0) < 1e-15
    assert abs(out[space.index_of((0,), (1,))] - p) < 1e-15
    # on a two-letter word ending in 0: only the last leg is touched
    e10 = np.zeros(space.dim)
    e10[space.index_of((1, 0), (1, 1))] = 1.0
    out = rho @ e10
    assert abs(out[space.index_of((1,), (1,))] - 1.0) < 1e-15
    assert abs(out[space.index_of((1, 0), (1, 1))] - p) < 1e-15


def test_expectation_subgraph_full_graph_is_identity_map(mixed_path3):
    space = mixed_path3.space(3)
    rng = np.random.default_rng(61)
    x = creation(space, 0, mixed_path3.sites[0].random_element(rng)) @ lambda_op(
        space, 2, mixed_path3.sites[2].random_element(rng, center=False)
    )
    assert guarded_deviation(expectation_subgraph(space, PATH3, x), x) < 1e-12


def test_lambda_adjacent_vertices_commute_with_matrix_slots():
    """The defining commutation of the construction, on a graph whose
    adjacent vertices both carry multi-dimensional reduced spaces."""
    from gplab.graphs import SimplicialGraph
    from gplab.system import GraphSystem

    tri = SimplicialGraph.build([0, 1, 2], [(0, 1), (1, 2)])
    m2a = m2_site([[0.6, 0.1], [0.1, 0.4]])
    m2b = m2_site([[0.5, -0.05j], [0.05j, 0.5]])
    sysm = GraphSystem(tri, {0: m2a, 1: m2b, 2: m2a})
    space = sysm.space(3)
    rng = np.random.default_rng(67)
    for u, v in ((0, 1), (1, 2)):
        for _ in range(5):
            x = sysm.sites[u].random_element(rng, center=False)
            y = sysm.sites[v].random_element(rng, center=False)
            lu, lv = lambda_op(space, u, x), lambda_op(space, v, y)
            assert guarded_deviation(lu @ lv, lv @ lu) < 1e-10
    # non-adjacent pair does not commute in general
    x = sysm.sites[0].random_element(rng, center=False)
    y = sysm.sites[2].random_element(rng, center=False)
    l0, l2 = lambda_op(space, 0, x), lambda_op(space, 2, y)
    assert guarded_deviation(l0 @ l2, l2 @ l0) > 1e-6


def test_lambda_and_rho_star_compatible(mixed_free3):
    space = mixed_free3.space(3)
    rng = np.random.default_rng(71)
    for v in FREE3.vertices:
        x = mixed_free3.sites[v].random_element(rng, center=False)
        assert guarded_deviation(lambda_op(space, v, x).adjoint(), lambda_op(space, v, x.star())) < 1e-10
        assert guarded_deviation(rho_op(space, v, x).adjoint(), rho_op(space, v, x.star())) < 1e-10


def test_rho_multiplicative_and_same_vertex_commuting(mixed_free3):
    space = mixed_free3.space(3)
    rng = np.random.default_rng(73)
    site = mixed_free3.sites[2]
    x = site.random_element(rng, center=False)
    y = site.random_element(rng, center=False)
    assert guarded_deviation(rho_op(space, 2, x) @ rho_op(space, 2, y), rho_op(space, 2, x @ y)) < 1e-10
    # lambda and rho at one vertex commute when the elements do
    lam = lambda_op(space, 2, x)
    rho = rho_op(space, 2, x @ x)  # commutes with x
    assert guarded_deviation(lam @ rho, rho @ lam) < 1e-9


def test_vacuum_moments_factor_freely(mixed_free3):
    """Moment structure of the vacuum state: centered elements at distinct
    free vertices have vanishing mixed moments, same-vertex moments restrict
    to the vertex state."""
    space = mixed_free3.space(3)
    rng = np.random.default_rng(79)
    for v in FREE3.vertices:
        site = mixed_free3.sites[v]
        x = site.random_element(rng, center=False)
        y = site.random_element(rng, center=False)
        lx, ly = lambda_op(space, v, x), lambda_op(space, v, y)
        assert abs(_mat.to_dense((lx @ ly).mat)[0, 0] - site.omega(x @ y)) < 1e-12
        for u in FREE3.vertices:
            if u == v:
                continue
            a = mixed_free3.sites[u].random_element(rng)  # centered
            b = site.random_element(rng)
            la, lb = lambda_op(space, u, a), lambda_op(space, v, b)
            assert abs(_mat.to_dense((la @ lb).mat)[0, 0]) < 1e-12
            # alternating centered words of length 3 also vanish
            assert abs(_mat.to_dense((la @ lb @ la).mat)[0, 0]) < 1e-12


def test_expectation_subgraph_module_property(mixed_path3):
    """E(a x b) = a E(x) b for a, b over the subgraph, and E(x*) = E(x)*."""
    space = mixed_path3.space(4)
    sub = PATH3.induced([0, 1])
    rng = np.random.default_rng(83)
    a = creation(space, 0, mixed_path3.sites[0].random_element(rng))
    b = diagonal(space, 1, mixed_path3.sites[1].random_element(rng, center=False))
    x = lambda_op(space, 2, mixed_path3.sites[2].random_element(rng, center=False)) @ lambda_op(
        space, 0, mixed_path3.sites[0].random_element(rng, center=False)
    )
    lhs = expectation_subgraph(space, sub, a @ x @ b)
    rhs = a @ expectation_subgraph(space, sub, x) @ b
    assert guarded_deviation(lhs, rhs) < 1e-9
    star_dev = guarded_deviation(
        expectation_subgraph(space, sub, x.adjoint()), expectation_subgraph(space, sub, x).adjoint()
    )
    assert star_dev < 1e-9


def test_tensor_split_empty_part_is_identity_check():
    site = site_from_hecke(2.0)
    space = TruncatedFock(FREE2, {0: site.rep, 1: site.rep}, 3)
    assert tensor_split_check(space, []) <= 1e-12


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_expectation_min_eig_matches_dense_oracle(mixed_path3, path):
    """The blockwise smallest eigenvalue equals that of the whole dense E(y),
    for y = E(x), which is not Hermitian, as well as for E(x* x), read off
    x by gram_eigs."""
    sysm, space = _oracle_space(mixed_path3, path)
    rng = np.random.default_rng(67)
    for _ in range(6):
        x = random_operator(sysm, space, rng)
        y = expectation_diag(x)
        want = naive_expectation_min_eig(y)
        assert abs(_least_eig(y) - want) <= 1e-12 * max(1.0, abs(want))
        want = naive_expectation_min_eig(naive_expectation_gram(x))
        got = float(_mat.gram_eigs(x.mat, space.word_ids)[0].min())
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_gram_eigs_matches_full_product_oracle(mixed_path3, path):
    """E(x* x) read off x by gram_eigs with the word labels, never formed:
    over the blocks inside each word block, the least and the largest
    eigenvalue equal those of that word block of the whole product x* x."""
    sysm, space = _oracle_space(mixed_path3, path)
    rng = np.random.default_rng(79)
    for _ in range(8):
        x = random_operator(sysm, space, rng)
        low, high, first = _mat.gram_eigs(x.mat, space.word_ids)
        w = naive_expectation_gram(x).toarray()
        scale = max(1.0, np.max(np.abs(w)))
        for off, count in space._spans.values():
            want = np.linalg.eigvalsh(w[off: off + count, off: off + count])
            inside = (first >= off) & (first < off + count)
            assert abs(low[inside].min() - want[0]) <= 1e-13 * scale
            assert abs(high[inside].max() - want[-1]) <= 1e-13 * scale


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_vacuum_probe_matches_reduced_operator_oracle(mixed_path3, path):
    """traciality_probe, which reads <Omega, (xy - yx) Omega> off the cut at 0
    of the lazy commutator, equals the largest |omega(xy) - omega(yx)| over
    its draws, replayed from the same default_rng(seed) and read off dense
    products of the formed reduced operators.  In both systems one vertex
    state, the M2 density [[0.6, 0.1], [0.1, 0.4]], is not tracial, so the
    probe draws words through that letter; depth 4 draws words of two
    letters."""
    sysm, _ = _oracle_space(mixed_path3, path)
    group = sysm.group
    showing = {v for v in sysm.graph.vertices if not sysm.sites[v].state.is_tracial()}
    largest = 0.0
    for depth in (3, 4) if path == "dense" else (3,):
        space = sysm.space(depth)
        words = [w for w in group.ball_tuples(depth // 2) if w and showing & set(w)]
        for seed in range(4):
            rng = np.random.default_rng(seed)
            want = 0.0
            for _ in range(SMOKE_DRAWS):
                wx = words[int(rng.integers(0, len(words)))]
                wy = group.inv_tuple(wx)
                ax = [sysm.sites[v].random_element(rng) for v in wx]
                ay = [sysm.sites[v].random_element(rng) for v in wy]
                x, y = naive_reduced_operator(space, wx, ax).toarray(), naive_reduced_operator(space, wy, ay).toarray()
                want = max(want, abs((x @ y)[0, 0] - (y @ x)[0, 0]))
            assert abs(traciality_probe(sysm, depth, seed) - want) < 1e-13
            largest = max(largest, want)
    assert largest > 1e-3  # the draws show the violation


def test_unit_blocks_skip_lapack(lapack_calls):
    """On Hecke q=1 every word block is 1x1: its smallest eigenvalue is the
    real part of the entry and its norm the absolute value, read without
    LAPACK, and both agree with the dense oracles."""
    sysm = GraphSystem(FREE3, {v: site_from_hecke(1.0) for v in FREE3.vertices})
    space = sysm.space(4)
    assert all(count == 1 for _, count in space._spans.values())
    rng = np.random.default_rng(89)
    xs = [random_operator(sysm, space, rng) for _ in range(6)]
    last = list(space._spans)[-1]
    exx = naive_expectation_gram(xs[0])
    off, _ = space._spans[last]
    bad = exx - (_mat.to_dense(exx.mat)[off, off].real + 1e-3) * word_projection(space, last)
    ys = [expectation_diag(x) for x in xs] + [bad]
    want_eig = [naive_expectation_min_eig(y) for y in ys]
    want_gram, want_tail = [], []
    for x in xs:
        d = naive_expectation_gram(x).toarray().diagonal().real
        want_gram.append(d)
        want_tail.append([max(d[space.lengths > k], default=0.0) for k in range(space.n)])
    lapack_calls.clear()
    got_eig = [_least_eig(y) for y in ys]
    got_gram = [_mat.gram_eigs(x.mat, space.word_ids) for x in xs]
    got_tail = [tail_profile(x) for x in xs]
    assert len(lapack_calls) == 0
    assert np.allclose(got_eig, want_eig, rtol=0, atol=1e-13)
    for (low, high, first), d in zip(got_gram, want_gram):
        assert np.array_equal(low, high) and np.array_equal(first, np.arange(space.dim))
        assert np.allclose(low, d, rtol=0, atol=1e-13)
    assert abs(got_eig[-1] + 1e-3) < 1e-13
    assert np.allclose(got_tail, want_tail, rtol=0, atol=1e-13)


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_expectation_norm_chain_against_oracle(mixed_path3, path):
    """||E(x)|| <= sqrt||E(x* x)|| <= ||x||, each norm as the oracle reads it:
    expectation.contractive compares the first two, so its PASS bounds
    ||E(x)|| by ||x||."""
    sysm, space = _oracle_space(mixed_path3, path)
    rng = np.random.default_rng(73)
    for _ in range(8):
        x = random_operator(sysm, space, rng)
        e, exx = expectation_diag(x), expectation_diag(x.adjoint() @ x)
        ne, nexx = e.norm(), exx.norm()
        assert abs(ne - naive_norm2(e.mat)) <= 1e-12 * ne
        assert abs(nexx - naive_norm2(exx.mat)) <= 1e-12 * nexx
        assert ne <= np.sqrt(nexx) * (1 + 1e-12)
        assert np.sqrt(nexx) <= naive_norm2(x.mat) * (1 + 1e-12)


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_expectation_min_eig_finds_negative_deepest_block(mixed_path3, path):
    """A negative eigenvalue confined to the last, deepest word block of
    E(x* x) is found, so expectation.positive can still fail."""
    sysm, space = _oracle_space(mixed_path3, path)
    rng = np.random.default_rng(71)
    x = random_operator(sysm, space, rng)
    exx = expectation_diag(x.adjoint() @ x)
    assert _least_eig(exx) >= -1e-10
    last = list(space._spans)[-1]
    assert len(last) == space.n
    off, count = space._spans[last]
    block = exx.toarray()[off: off + count, off: off + count]
    shift = float(np.linalg.eigvalsh(0.5 * (block + block.conj().T)).min()) + 1e-3
    bad = exx - shift * word_projection(space, last)
    got = _least_eig(bad)
    assert abs(got - naive_expectation_min_eig(bad)) < 1e-12
    assert abs(got + 1e-3) < 1e-12


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_expectation_min_eig_identity_zero_and_shifted_component(mixed_path3, path):
    """0 joins the spectrum only where an index carries no entry: the
    identity gives 1.0, the zero operator and the identity with one word
    block cut out 0.0.  A size-3 component of E(x* x) shifted below zero gives
    its negative minimum; each agrees with the dense oracle."""
    sysm, space = _oracle_space(mixed_path3, path)
    one = identity_op(space)
    cut = one - word_projection(space, list(space._spans)[-1])
    assert _least_eig(one) == 1.0
    assert _least_eig(zero_op(space)) == 0.0
    assert _least_eig(cut) == 0.0
    assert [naive_expectation_min_eig(y) for y in (one, zero_op(space), cut)] == [1.0, 0.0, 0.0]
    rng = np.random.default_rng(97)
    for _ in range(50):
        x = random_operator(sysm, space, rng)
        exx = naive_expectation_gram(x)
        idx = next((r for r, _ in naive_components(exx.mat, square=True) if len(r) == 3), None)
        if idx is not None:
            break
    assert idx is not None
    assert _least_eig(exx) >= -1e-10
    assert abs(float(_mat.gram_eigs(x.mat, space.word_ids)[0].min()) - _least_eig(exx)) < 1e-12
    block = exx.toarray()[np.ix_(idx, idx)]
    shift = float(np.linalg.eigvalsh(0.5 * (block + block.conj().T)).min()) + 1e-3
    mask = np.zeros(space.dim)
    mask[idx] = 1.0
    bad = exx - shift * fock.OperatorMatrix(space, _mat.diag(mask), space.n, 0, 0)
    got = _least_eig(bad)
    assert abs(got - naive_expectation_min_eig(bad)) < 1e-12
    assert abs(got + 1e-3) < 1e-12


@pytest.mark.parametrize("depth", [3, 4])
def test_tail_profile_matches_per_word_dense_oracle(depth):
    """Tail norms taken per component of E(x* x) equal the norms of its
    whole dense word blocks, on M2 at depth 3 (dim 388) and 4 (dim 2332)."""
    sysm = GraphSystem(FREE3, {0: m2_site(), 1: m2_site([[0.6, 0.1], [0.1, 0.4]]), 2: m2_site()})
    space = sysm.space(depth)
    rng = np.random.default_rng(101 + depth)
    xs = [random_operator(sysm, space, rng) for _ in range(6)]
    xs.append(lambda_op(space, 1, sysm.sites[1].random_element(rng)))
    for x in xs:
        got, want = tail_profile(x), naive_tail_profile(x)
        assert len(got) == len(want) == depth
        assert np.allclose(got, want, rtol=1e-12, atol=0)


def _largest_side(a, square: bool) -> int:
    return max((max(len(r), len(c)) for r, c in naive_components(a, square)), default=0)


def _largest_gram_block(a, labels) -> int:
    """The most columns that the rows of a join within one label: the side
    of the largest block gram_eigs forms (union-find oracle)."""
    d = _mat.to_dense(a)
    return max((len(c) for lab in set(labels.tolist())
                for _, c in naive_components(np.where(labels == lab, d, 0), False)), default=0)


def test_lapack_sees_only_components(lapack_calls, monkeypatch):
    """expectation_checks and tail_profile on m2_trace_edgeless3 at depth 3
    (dim 388) call LAPACK only from the component split, each time an
    eigvalsh on blocks no larger than the largest connected component of the
    matrix the split was given, or the largest block of the Gram matrix it
    reads (union-find oracle), never on a whole word block that splits
    further, and never an SVD."""
    sysm = load_config(str(Path(__file__).parent / "fixtures" / "m2_trace_edgeless3.json")).system
    space = sysm.space(3)
    seen = []  # (largest component side, LAPACK calls made inside the split)

    def split(name, largest):
        fn = getattr(_mat, name)

        def wrapped(*args):
            start = len(lapack_calls)
            out = fn(*args)
            seen.append((largest(*args), lapack_calls[start:]))
            del lapack_calls[start:]
            return out

        monkeypatch.setattr(_mat, name, wrapped)

    # norm2 reads its Gram matrix through gram_eigs
    split("gram_eigs", _largest_gram_block)
    split("hermitian_eigs", lambda *coo: _largest_side(_mat.from_coo(*coo), True))
    lapack_calls.clear()
    expectation_checks(sysm, 3, np.random.default_rng(3))
    rng = np.random.default_rng(5)
    for _ in range(5):
        tail_profile(random_operator(sysm, space, rng))
    # outside the split only vector norms run, which are no LAPACK calls
    assert all(name == "norm" and len(shape) == 1 for name, shape in lapack_calls)
    assert any(calls for _, calls in seen)
    for largest, calls in seen:
        assert all(name == "eigvalsh" and max(shape[-2:]) <= largest for name, shape in calls)


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_gauge_average_matches_grid_oracle(mixed_path3, path):
    """The closed-form torus average equals the sum over the whole grid."""
    sysm, space = _oracle_space(mixed_path3, path)
    rng = np.random.default_rng(73)
    for _ in range(3):
        x = random_operator(sysm, space, rng)
        x = x + creation(space, 0, sysm.sites[0].random_element(rng)).adjoint()
        for m in (1, 2, 3, 2 * space.n + 1):
            got, want = gauge_average(x, m), naive_gauge_average(x, m)
            assert (got.guard, got.up, got.down) == (want.guard, want.up, want.down)
            assert np.max(np.abs(got.toarray() - want.toarray())) < 1e-13


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_side_op_matches_list_plan_oracle(mixed_path3, path):
    """lambda and rho, whole and each part, gathered from the plan's index
    arrays equal the column-by-column walk of the list plan entry for entry,
    with the same guard and movement bounds."""
    sysm, space = _oracle_space(mixed_path3, path)
    rng = np.random.default_rng(67)
    for v in space.graph.vertices:
        for center in (True, False):
            a = sysm.sites[v].random_element(rng, center=center)
            for left in (True, False):
                for part in _PARTS:
                    got = _side_op(space, v, a, left, part)
                    want = naive_side_op(space, v, a, left, part)
                    assert (got.guard, got.up, got.down) == (want.guard, want.up, want.down)
                    assert len(got.mat.data) == len(want.mat.data)  # no explicit zeros stored
                    assert np.array_equal(got.toarray(), want.toarray())


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_q_projection_matches_oracle(mixed_path3, path):
    """The cached Q_w equals the uncached canonical-reduction oracle for
    every ball word, on the first call and on a repeat."""
    _, space = _oracle_space(mixed_path3, path)
    for w in space.group.ball_tuples(space.n):
        want = naive_q_projection(space, w).toarray()
        for _ in range(2):
            got = q_projection(space, w)
            assert (got.guard, got.up, got.down) == (space.n, 0, 0)
            assert np.array_equal(got.toarray(), want)


def _count_calls(monkeypatch, name: str, cls=CoxeterGroup) -> list[int]:
    count = [0]
    fn = getattr(cls, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return count


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_q_projection_cache_counts(mixed_path3, path, monkeypatch, fresh_group):
    """Q_w is built from one up-set read off the cover table and a repeat
    reads nothing; neither runs a weak-order test, the weak-order test runs
    no canonical sort, and writing into a returned matrix does not reach the
    cache."""
    sysm, parent = _oracle_space(mixed_path3, path)
    space = TruncatedFock(sysm.graph, sysm.reps(), parent.n)  # empty caches
    leq = _count_calls(monkeypatch, "leq_tuple")
    sort = _count_calls(monkeypatch, "sort_with_perm")
    up = _count_calls(monkeypatch, "up_mask", CoverTable)
    w = (space.graph.vertices[1],)
    first = q_projection(space, w)
    assert (leq[0], up[0]) == (0, 1)
    q_projection(space, w)
    assert (leq[0], up[0]) == (0, 1)

    sort[0] = 0
    words = list(space._spans)
    for v in words:
        for u in words:
            space.group.leq_tuple(v, u)
    assert sort[0] == 0

    want = naive_q_projection(space, w).toarray()
    first.mat.data[:] = 5.0
    assert np.array_equal(q_projection(space, w).toarray(), want)


def _zero_letter_system(graph, zero: bool) -> GraphSystem:
    """M2, Hecke and a third vertex on `graph`: Hecke again, or (zero) a
    one-dimensional algebra, whose reduced space is zero, so that no word
    holding its letter has a basis block."""
    one_dim = FiniteDimAlgebra((1,))
    third = site_from_state(one_dim, StateSpec.build(one_dim, [np.eye(1)])) if zero else site_from_hecke(1.0)
    return GraphSystem(graph, {0: m2_site(), 1: site_from_hecke(2.0), 2: third})


@pytest.mark.parametrize("depth", range(5))
@pytest.mark.parametrize("zero", [False, True], ids=["all_letters", "zero_letter"])
@pytest.mark.parametrize("graph", [PATH3, K3, FREE3], ids=["path3", "k3", "edgeless3"])
def test_q_projection_up_set_matches_oracle(graph, zero, depth, fresh_group):
    """The Q_w mask built from the weak-order up-set equals the word-by-word
    canonical-reduction oracle for every ball word, including the words
    holding a letter whose reduced space is zero."""
    space = _zero_letter_system(graph, zero).space(depth)
    ball = space.group.ball_tuples(depth)
    assert (zero and depth > 0) == (len(space._spans) < len(ball))
    table = space.group.cover_table(depth)
    for w in ball:
        got = q_projection(space, w)
        assert np.array_equal(got.toarray(), naive_q_projection(space, w).toarray())
        # the up-set itself: exactly the ball words that start with w
        up = table.up_mask(w, depth)
        assert [u for u, keep in zip(ball, up) if keep] == [u for u in ball if space.group.leq_tuple(w, u)]


def test_q_mask_matches_oracle_on_path3_depth_6(mixed_path3):
    """On PATH3 at depth 6 (dim 208), where 0 and 2 do not commute and the
    up-sets run five covers deep, the Q_w mask of every word of length <= 2
    equals the word-by-word canonical-reduction oracle."""
    space = mixed_path3.space(6)
    for w in space.group.ball_tuples(2):
        want = naive_q_projection(space, w).toarray().diagonal().real == 1.0
        assert np.array_equal(fock.q_mask(space, w), want), w


def _exact_zero_elements(site) -> list:
    """The unit, its adjoint and the matrix units: GNS matrices with exact
    zeros, some with m[0,0] == 0; the adjoint's conjugation gives the unit's
    entries -0.0 imaginary parts, which a Hecke GNS matrix keeps."""
    one = site.algebra.one()
    return [one, one.star()] + site.algebra.basis()


def _bits(mat) -> tuple:
    """A matrix's three arrays as bytes with their dtypes, signed zeros
    included, and its shape."""
    return tuple((a.dtype.str, a.tobytes()) for a in mat[:3]) + (mat.shape,)


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_side_op_exact_zeros_bit_equal_to_oracle(mixed_path3, path):
    """lambda and rho, whole and each part, of elements whose GNS matrix has
    exact zeros are bit-equal to the entry-by-entry oracle, and stores no
    zero."""
    if path == "dense":
        sysm = GraphSystem(PATH3, {0: site_from_hecke(2.0), 1: c2_site(0.3), 2: m2_site()})
        space = sysm.space(3)
    else:
        sysm, space = _oracle_space(mixed_path3, path)
    with_zero_m00 = 0
    for v in space.graph.vertices:
        for a in _exact_zero_elements(sysm.sites[v]):
            with_zero_m00 += sysm.sites[v].rep.matrix(a)[0, 0] == 0
            for left in (True, False):
                for part in _PARTS:
                    got = _side_op(space, v, a, left, part)
                    want = naive_side_op(space, v, a, left, part)
                    assert (got.guard, got.up, got.down) == (want.guard, want.up, want.down)
                    assert _bits(got.mat) == _bits(want.mat)
                    assert np.all(got.mat.data != 0)
    assert with_zero_m00 > 0


def _count_group_calls(monkeypatch) -> list[int]:
    """Count the calls of every CoxeterGroup method, private ones too."""
    count = [0]
    for name, fn in list(vars(CoxeterGroup).items()):
        if callable(fn) and not name.startswith("__"):
            def counted(*args, _fn=fn, **kwargs):
                count[0] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(CoxeterGroup, name, counted)
    return count


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_compiled_side_ops_call_no_sort_and_no_group(mixed_path3, path, monkeypatch, fresh_group):
    """Once a vertex's patterns are compiled, building lambda, rho, creation
    and diagonal runs no CSR sort (_mat._csr) and no word-engine method."""
    sysm, parent = _oracle_space(mixed_path3, path)
    space = TruncatedFock(sysm.graph, sysm.reps(), parent.n)  # empty caches
    rng = np.random.default_rng(5)
    builders = (lambda_op, rho_op, creation, diagonal)
    for v in space.graph.vertices:
        for build in builders:
            build(space, v, sysm.sites[v].random_element(rng))
    csr = [0]
    sort_fn = _mat._csr

    def counted_csr(*args, **kwargs):
        csr[0] += 1
        return sort_fn(*args, **kwargs)

    monkeypatch.setattr(_mat, "_csr", counted_csr)
    group = _count_group_calls(monkeypatch)
    for v in space.graph.vertices:
        for build in builders:
            for center in (True, False):
                build(space, v, sysm.sites[v].random_element(rng, center=center))
    assert (csr[0], group[0]) == (0, 0)


def test_expectation_subgraph_factorisation_cached(mixed_path3, monkeypatch, fresh_group):
    """A second subgraph expectation on the same (space, subgraph) compiles
    nothing again: the first compiles the factorisation along the subgraph
    from the group's cover table, with no canonical sort, and the second
    calls no word-engine method and gives the same matrix."""
    space = TruncatedFock(PATH3, mixed_path3.reps(), 4)  # empty caches
    sub = PATH3.induced([0, 1])
    rng = np.random.default_rng(7)
    x = lambda_op(space, 0, mixed_path3.sites[0].random_element(rng, center=False)) @ lambda_op(
        space, 1, mixed_path3.sites[1].random_element(rng, center=False)
    )
    sort = _count_calls(monkeypatch, "sort_with_perm")
    group = _count_group_calls(monkeypatch)
    first = expectation_subgraph(space, sub, x)
    assert sort[0] == 0 and group[0] > 0  # the cover table is read
    group[0] = 0
    again = expectation_subgraph(space, sub, x)
    assert sort[0] == group[0] == 0
    assert np.array_equal(again.toarray(), first.toarray())
    assert np.array_equal(first.toarray(), naive_expectation_subgraph(space, sub, x).toarray())


def test_factor_matches_per_vector_peel(mixed_path3, mixed_free3, mixed_k3):
    """The (head, tail) columns compiled per word block equal the peel made
    one basis vector at a time, at the front along every induced subgraph
    and at the back along every vertex; joining each column's head and tail
    gives the column back.  The spaces: PATH3 at depths 4 and 6 (dim 64 and
    208) and at depth 0, FREE3 and K3 at depth 3, hecke_q1_edgeless3 at
    depth 7 (dim 382, one vector per block), Hecke on the 5-cycle at depth
    4, Hecke on a graph whose vertices are not listed in increasing order,
    and PATH3 and FREE3 with a one-dimensional vertex, whose letter leaves
    words with no block."""
    hecke = load_config(Path(__file__).parent / "fixtures" / "hecke_q1_edgeless3.json").system
    unsorted = SimplicialGraph.build([2, 0, 1], [(2, 0)])
    spaces = [(mixed_path3, 4), (mixed_path3, 6), (mixed_path3, 0), (mixed_free3, 3), (mixed_k3, 3), (hecke, 7),
              (GraphSystem(CYC5, {v: site_from_hecke(1.0) for v in CYC5.vertices}), 4),
              (GraphSystem(unsorted, {v: site_from_hecke(2.0) for v in unsorted.vertices}), 4),
              (_zero_letter_system(PATH3, True), 4), (_zero_letter_system(FREE3, True), 3)]
    for sysm, n in spaces:
        space = sysm.space(n)
        verts = space.graph.vertices
        subs = [(sub, True) for k in range(len(verts) + 1) for sub in itertools.combinations(verts, k)]
        for sub, left in subs + [((v,), False) for v in verts]:
            head, tail = fock._factor(space, sub, left)
            want_head, want_tail = naive_factor(space, sub, left)
            assert np.array_equal(head, want_head) and np.array_equal(tail, want_tail)
            assert np.array_equal(fock._join(head, tail, head, tail), np.arange(space.dim))


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_word_blocks_match_naive_basis(mixed_path3, path):
    """Every vector of the per-vector enumeration sits in its word's block
    at the index formula's position, with its length and word id."""
    _, space = _oracle_space(mixed_path3, path)
    basis = naive_basis(space)
    assert space.dim == len(basis) == len(space.lengths) == len(space.word_ids)
    words = list(space._spans)
    assert words == list(dict.fromkeys(w for w, _ in basis))
    for i, (w, slots) in enumerate(basis):
        off, count = space._spans[w]
        assert off <= i < off + count
        assert space.lengths[i] == len(w)
        assert words[space.word_ids[i]] == w
        assert space.index_of(w, slots) == i
    # no vector for a short slot tuple, a slot out of range, or a missing word
    w, slots = basis[-1]
    assert space.index_of(w, slots[:-1]) is None
    assert space.index_of(w, slots[:-1] + (space.reps[w[-1]].dim,)) is None
    assert space.index_of(w, slots[:-1] + (0,)) is None
    assert space.index_of(w + w[-1:], slots + (1,)) is None


def _plan_table(plan: list, dv: int) -> tuple:
    """naive_plan_side's list plan as certificate.side_table's (targets, slot):
    a column of case A is slot 0 with its own row as target 0, a column of
    case B has its dropped-letter row as target 0."""
    targets, slot = [], []
    for j, e in enumerate(plan):
        if e[0] == "A":
            targets.append([j, *(e[2] if e[2] is not None else [-1] * (dv - 1))])
            slot.append(0)
        else:
            targets.append([e[3], *e[2]])
            slot.append(e[1])
    return np.array(targets, dtype=np.intp).reshape(len(plan), dv), np.array(slot, dtype=np.intp)


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_word_maps_match_per_vector_oracles(mixed_path3, path):
    """The maps compiled per word block equal their per-vector oracles
    exactly: the lambda/rho slot tables read back from the compiled
    patterns, the gauge unitary, the gauge average's letter counts and the
    subgraph expectation."""
    sysm, space = _oracle_space(mixed_path3, path)
    verts = space.graph.vertices
    for v in verts:
        for left in (True, False):
            got = certificate.side_table(space, v, left)[:2]
            want = _plan_table(naive_plan_side(space, v, left), space.reps[v].dim)
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w)
    z = {v: np.exp(1j * (0.7 + v)) for v in verts}
    assert np.array_equal(gauge_unitary(space, z).toarray(), naive_gauge_unitary(space, z).toarray())
    counts = naive_letter_counts(space)
    rng = np.random.default_rng(97)
    subs = [space.graph.induced(verts[:-1]), space.graph.induced([verts[0], verts[2]]), space.graph]
    for _ in range(3):
        x = random_operator(sysm, space, rng)
        x = x + creation(space, verts[0], sysm.sites[verts[0]].random_element(rng)).adjoint()
        dense = x.toarray()
        for m in (1, 2, 3, 2 * space.n + 1):
            keep = np.all((counts[:, None, :] - counts[None, :, :]) % m == 0, axis=2)
            assert np.array_equal(gauge_average(x, m).toarray(), np.where(keep, dense, 0))
        for sub in subs:
            got, want = expectation_subgraph(space, sub, x), naive_expectation_subgraph(space, sub, x)
            assert (got.guard, got.up, got.down) == (want.guard, want.up, want.down)
            assert np.array_equal(got.toarray(), want.toarray())


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_tensor_pairs_match_per_vector_oracle(path):
    """The pair table of a join, read off each column's (head, tail) key
    along the first factor as the split check reads it, equals the
    per-vector one, and the split check passes, for a small join space
    (Hecke and M2 on PATH3 = {1} * {0, 2}, dim 34 at depth 3) and a large
    one (M2 on PATH3, dim 478 at depth 4)."""
    if path == "dense":
        sysm, n = GraphSystem(PATH3, {0: site_from_hecke(1.0), 1: m2_site([[0.6, 0.1], [0.1, 0.4]]), 2: site_from_hecke(2.0)}), 3
    else:
        sysm, n = GraphSystem(PATH3, {v: m2_site() for v in PATH3.vertices}), 4
    space = sysm.space(n)
    f1, f2 = space.subspace(PATH3.induced([1])), space.subspace(PATH3.induced([0, 2]))
    head, tail = fock._factor(space, (1,), True)
    got = np.full((f1.dim, f2.dim), -1, dtype=np.intp)
    got[np.cumsum(tail == 0)[head] - 1, np.cumsum(head == 0)[tail] - 1] = np.arange(space.dim)
    assert np.array_equal(got, naive_tensor_pairs(space, f1, f2))
    assert tensor_split_check(space, [1]) <= 1e-12


def _blocks_with_head(space, sub, left: bool) -> int:
    """How many word blocks have a nonempty head along sub."""
    head, _ = fock._factor(space, sub, left)
    return len(np.unique(space.word_ids[head > 0]))


def test_plans_compile_one_sort_per_word_block(monkeypatch, fresh_group):
    """Compiling every lambda and rho plan and the factorisations of four
    subgraph expectations of M2 on FREE3 at depth 3 (dim 388, 22 word
    blocks), and the split check of M2 on the join PATH3 = {1} * {0, 2} at
    depth 3 (dim 154), runs no canonical sort at all, so at most one per
    factorisation and word block with a nonempty head, however many vectors
    the blocks hold: the splits read the covers that the ball enumeration
    recorded with their canonical sorts."""
    sysm = GraphSystem(FREE3, {v: m2_site() for v in FREE3.vertices})
    space = sysm.space(3)
    join_sys = GraphSystem(PATH3, {v: m2_site() for v in PATH3.vertices})
    join = join_sys.space(3)
    # the factor spaces the split check builds, whose ball enumerations sort
    join.subspace(PATH3.induced([1])), join.subspace(PATH3.induced([0, 2]))
    x = lambda_op(space, 0, sysm.sites[0].random_element(np.random.default_rng(3)))
    subs = [FREE3.induced(s) for s in ([0], [0, 1], [1, 2], [0, 1, 2])]
    sort = _count_calls(monkeypatch, "sort_with_perm")
    for v in FREE3.vertices:
        for left in (True, False):
            fock._side_pattern(space, v, left, "all", space.n)
    for sub in subs:
        expectation_subgraph(space, sub, x)
    tensor_split_check(join, [1])
    bound = sum(_blocks_with_head(space, (v,), left) for v in FREE3.vertices for left in (True, False))
    bound += sum(_blocks_with_head(space, sub.vertices, True) for sub in subs)
    bound += _blocks_with_head(join, (1,), True) + _blocks_with_head(join, (0, 2), True)
    assert sort[0] == 0 < bound
    assert space.dim > len(space._spans) * len(FREE3.vertices) * 2


# -- cut and depth-lift oracles ----------------------------------------------------------
# Random expressions over every builder, with adjoints, sums and scalars,
# rebuilt from a seed so that each evaluation starts from nothing memoized.

_LEAVES = ("lambda", "rho", "creation", "diagonal", "annihilation", "q", "identity", "gauge")
_WRAPPERS = ("expectation_diag", "gauge_average", "expectation_subgraph")


def _random_expression(sysm, space, seed: int, radius: int):
    """A random expression of 1-4 factors.  A factor is a leaf of every
    builder, the adjoint of one, or (at the top level) expectation_diag,
    gauge_average or expectation_subgraph of a shorter expression; the whole
    may be summed with a second one, scaled and taken adjoint.  Every random
    draw is made whatever its outcome, and Q_w takes w from the ball of
    `radius`, so one seed builds the same expression on every space of the
    system whose depth is at least the radius."""
    rng = np.random.default_rng(seed)
    verts = space.graph.vertices
    words = space.group.ball_tuples(radius)
    subs = [space.graph.induced(verts[:-1]), space.graph.induced(verts[1:])]

    def leaf():
        kind = _LEAVES[int(rng.integers(len(_LEAVES)))]
        v = verts[int(rng.integers(len(verts)))]
        x = sysm.sites[v].random_element(rng, center=bool(rng.integers(2)))
        w = words[int(rng.integers(len(words)))]
        z = {u: np.exp(2j * np.pi * rng.random()) for u in verts}
        return {
            "lambda": lambda: lambda_op(space, v, x),
            "rho": lambda: rho_op(space, v, x),
            "creation": lambda: creation(space, v, x),
            "diagonal": lambda: diagonal(space, v, x),
            "annihilation": lambda: annihilation(space, v, x),
            "q": lambda: q_projection(space, w),
            "identity": lambda: identity_op(space),
            "gauge": lambda: gauge_unitary(space, z),
        }[kind]()

    def factor(nest: bool):
        pick = int(rng.integers(5))
        if pick == 0 and nest:
            inner = product(False)
            kind = _WRAPPERS[int(rng.integers(len(_WRAPPERS)))]
            m, sub = int(rng.integers(1, 4)), subs[int(rng.integers(len(subs)))]
            if kind == "expectation_diag":
                return expectation_diag(inner)
            if kind == "gauge_average":
                return gauge_average(inner, m)
            return expectation_subgraph(space, sub, inner)
        op = leaf()
        return op.adjoint() if pick == 1 else op

    def product(nest: bool):
        op = factor(nest)
        for _ in range(int(rng.integers(0, 4 if nest else 2))):
            op = op @ factor(nest)
        return op

    op = product(True)
    if rng.integers(3) == 0:
        op = op + product(False)
    if rng.integers(3) == 0:
        op = op - complex(rng.standard_normal(), rng.standard_normal()) * product(False)
    if rng.integers(3) == 0:
        op = op.adjoint()
    return op


def _columns_bits(mat, idx) -> bytes:
    """The columns idx of a matrix, dense, as bytes: signed zeros count."""
    return np.ascontiguousarray(_mat.to_dense(mat)[:, idx]).tobytes()


def _outside_band(space, mat, up: int, down: int) -> int:
    """Number of stored nonzero entries (i, j) with |i| - |j| outside
    [-down, up]."""
    rows, cols, data = _mat.coo_parts(mat)
    step = space.lengths[rows] - space.lengths[cols]
    return int(np.count_nonzero((data != 0) & ((step > up) | (step < -down))))


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_cuts_equal_the_matrix_on_their_columns(mixed_path3, path):
    """cols(k), evaluated from nothing memoized or read off the whole
    matrix, equals .mat bit for bit on the columns of length <= k, for every
    k in 0..N, and neither stores an entry outside the (up, down) band.
    Every cut is in canonical CSR form, on which guarded_deviation's
    stored-alike shortcut is exact."""
    sysm, space = _oracle_space(mixed_path3, path)
    n = space.n
    for seed in range(40):
        full = _random_expression(sysm, space, seed, n)
        assert _outside_band(space, full.mat, full.up, full.down) == 0
        for k in range(n + 1):
            idx = np.arange(space.width(k))
            cut = _random_expression(sysm, space, seed, n).cols(k)
            assert_canonical(cut)
            assert _columns_bits(cut, idx) == _columns_bits(full.mat, idx), (seed, k)
            assert _outside_band(space, cut, full.up, full.down) == 0
            read_off = full.cols(k)
            assert_canonical(read_off)
            assert _columns_bits(read_off, idx) == _columns_bits(full.mat, idx)


@pytest.mark.parametrize("fixture, depth", [
    ("m2_trace_edgeless3", 2),
    ("hecke_inside_edgeless3", 3),
    ("join_path3_hecke", 3),
])
def test_guarded_columns_survive_a_depth_lift(fixture, depth):
    """Each guarded column at depth N equals the same column at depth N + 2,
    whose rows past the depth-N basis hold nothing: the guard marks columns
    on which the truncation changed nothing."""
    sysm = load_config(Path(__file__).parent / "fixtures" / f"{fixture}.json").system
    shallow, deep = sysm.space(depth), sysm.space(depth + 2)
    # the depth-N basis is a prefix of the deeper one
    assert list(shallow._spans.items()) == list(deep._spans.items())[: len(shallow._spans)]
    checked = 0
    for seed in range(30):
        small = _random_expression(sysm, shallow, seed, depth)
        big = _random_expression(sysm, deep, seed, depth)
        if small.guard < 0:
            continue
        idx = np.arange(shallow.width(small.guard))
        want = big.toarray()[:, idx]
        assert not np.any(want[shallow.dim:]), seed
        got = small.toarray()[:, idx]
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        assert np.max(np.abs(got - want[: shallow.dim]), initial=0.0) <= 1e-12 * scale, seed
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_guarded_cuts_need_no_reindex(mixed_path3, path):
    """What lets a guarded cut be read whole: the guarded columns of every
    guard k are the first width(k), and a cut at k,
    evaluated from nothing memoized, stores no entry, not even a zero, in a
    column of word length > k."""
    sysm, space = _oracle_space(mixed_path3, path)
    n = space.n
    for k in range(n + 1):
        assert np.array_equal(np.flatnonzero(space.lengths <= k), np.arange(space.width(k)))
    for seed in range(40):
        for k in range(n + 1):
            cut = _random_expression(sysm, space, seed, n).cols(k)
            assert np.all(space.lengths[cut.indices] <= k), (seed, k)


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_guarded_deviation_and_norm_against_oracle(mixed_path3, path, monkeypatch):
    """guarded_deviation and guarded_norm against the dense oracle that
    selects the guarded columns before subtracting, on pairs of random
    expressions.  Equal operands give exactly 0.0: stored alike with no
    subtraction and no norm, stored otherwise through the norm.  Operands
    one guarded entry apart by 1e-13 do not give 0, and a negative guard
    raises even for equal operands."""
    sysm, space = _oracle_space(mixed_path3, path)
    n = space.n
    checked = 0
    for seed in range(30):
        x = _random_expression(sysm, space, seed, n)
        y = _random_expression(sysm, space, seed + 1000, n)
        if x.guard < 0:
            with pytest.raises(ShallowTruncationError):
                guarded_norm(x)
            with pytest.raises(ShallowTruncationError):
                guarded_deviation(x, _random_expression(sysm, space, seed, n))
            continue
        checked += 1
        want = naive_guarded_deviation(x, zero_op(space))
        assert abs(guarded_norm(x) - want) <= 1e-12 * want
        if y.guard >= 0:
            want = naive_guarded_deviation(x, y)
            assert abs(guarded_deviation(x, y) - want) <= 1e-12 * want
        assert guarded_deviation(x * 0.0, zero_op(space)) == 0.0
        j = space.width(x.guard) - 1
        bump = fock.OperatorMatrix(space, _mat.from_coo([j], [j], [1e-13], space.dim), n, 0, 0)
        got = guarded_deviation(x, x + bump)
        assert got > 0.0
        assert abs(got - naive_guarded_deviation(x, x + bump)) <= 1e-12 * got
        twin = _random_expression(sysm, space, seed, n)
        with monkeypatch.context() as m:
            m.setattr(_mat, "sub", None)
            m.setattr(_mat, "norm2", None)
            assert guarded_deviation(x, twin) == 0.0
            assert guarded_deviation(x, x) == 0.0
    assert checked >= 10
    neg = fock.OperatorMatrix(space, _mat.eye(space.dim), -1, 0, 0)
    for call in (lambda: guarded_deviation(neg, neg), lambda: guarded_deviation(identity_op(space), neg),
                 lambda: guarded_norm(neg)):
        with pytest.raises(ShallowTruncationError):
            call()


def test_long_chains_evaluate_without_recursion(mixed_path3):
    """A left-deep chain of thousands of sums or products, as terms_matrix
    builds under its term cap, is evaluated on an explicit stack, whole or
    on a cut."""
    space = mixed_path3.space(2)
    q = q_projection(space, (space.graph.vertices[0],))
    total, power = zero_op(space), identity_op(space)
    for _ in range(3000):
        total, power = total + q, power @ q
    assert np.array_equal(total.toarray(), 3000 * q.toarray())
    idx = np.arange(space.width(1))
    assert np.array_equal(_mat.to_dense(power.cols(1))[:, idx], q.toarray()[:, idx])
    assert np.array_equal(power.toarray(), q.toarray())
