import zlib
from pathlib import Path

import numpy as np
import pytest

from gplab import _mat
from gplab.algebras import hecke_vertex
from gplab.config import load_config
from gplab.elementary import (
    IDENTITY_TERM,
    ElementaryTerm,
    Factor,
    _coalesce,
    expression_matrix,
    factor_matrix,
    random_factors,
    rewrite_to_elementary,
    signature,
    term_matrix,
    terms_matrix,
)
from gplab.errors import ResourceLimitError
from gplab.fock import creation, diagonal, guarded_deviation, guarded_norm, identity_op, offdiagonal_mass
from gplab.system import GraphSystem

from util import FREE3, m2_site, naive_terms_matrix

RNG = np.random.default_rng(101)

MOVING = ("elem", "create", "annih")


def sample_expression(sysm, rng, max_len=8, max_moving=3):
    n = int(rng.integers(1, max_len + 1))
    out, moving = [], 0
    verts = sysm.graph.vertices
    for _ in range(n):
        v = verts[int(rng.integers(0, len(verts)))]
        kinds = ["diag", "qproj", "scalar"] + (list(MOVING) if moving < max_moving else [])
        k = kinds[int(rng.integers(0, len(kinds)))]
        if k == "scalar":
            out.append(Factor("scalar", value=complex(rng.standard_normal(), rng.standard_normal())))
            continue
        if k in MOVING:
            moving += 1
        if k == "qproj":
            out.append(Factor("qproj", v))
        else:
            out.append(Factor(k, v, sysm.sites[v].random_element(rng, center=(k != "diag"))))
    return out


def test_plain_element_splits_into_three_parts(mixed_free3):
    a = mixed_free3.sites[2].random_element(RNG)  # centered
    terms = rewrite_to_elementary([Factor("elem", 2, a)], mixed_free3)
    shapes = sorted((len(t.creation), len(t.diag), len(t.annihilation)) for _, t in terms)
    assert shapes == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    space = mixed_free3.space(3)
    dev = guarded_deviation(
        expression_matrix([Factor("elem", 2, a)], space), terms_matrix(terms, space)
    )
    assert dev < 1e-12


def test_same_vertex_creation_square_is_zero(mixed_free3):
    a = mixed_free3.sites[0].random_element(RNG)
    b = mixed_free3.sites[0].random_element(RNG)
    assert rewrite_to_elementary([Factor("create", 0, a), Factor("create", 0, b)], mixed_free3) == []


def test_annih_then_create_same_vertex(mixed_free3):
    """(a^+)* b^+ = (omega(a* b) - conj(omega(a)) omega(b)) Q_v^perp,
    with the complement expanded into the identity and one diagonal term."""
    site = mixed_free3.sites[2]
    a, b = site.random_element(RNG), site.random_element(RNG)
    terms = rewrite_to_elementary([Factor("annih", 2, a), Factor("create", 2, b)], mixed_free3)
    coef = site.state.omega(a.star() @ b)
    by_shape = {(len(t.creation), len(t.diag), len(t.annihilation)): c for c, t in terms}
    assert set(by_shape) == {(0, 0, 0), (0, 1, 0)}
    assert abs(by_shape[(0, 0, 0)] - coef) < 1e-12
    assert abs(by_shape[(0, 1, 0)] + coef) < 1e-12
    space = mixed_free3.space(3)
    lhs = expression_matrix([Factor("annih", 2, a), Factor("create", 2, b)], space)
    assert guarded_deviation(lhs, terms_matrix(terms, space)) < 1e-12


def test_qproj_is_unit_diagonal(mixed_free3):
    terms = rewrite_to_elementary([Factor("qproj", 1)], mixed_free3)
    assert len(terms) == 1
    coeff, t = terms[0]
    assert coeff == 1.0 and t.creation == () and t.annihilation == ()
    assert len(t.diag) == 1 and t.diag[0][0] == 1
    space = mixed_free3.space(3)
    from gplab.fock import q_projection

    assert guarded_deviation(term_matrix(t, space), q_projection(space, (1,))) < 1e-12


def test_expression_length_cap(mixed_free3):
    factors = [Factor("qproj", 0)] * 13
    with pytest.raises(ResourceLimitError):
        rewrite_to_elementary(factors, mixed_free3)


def test_signature_examples(mixed_free3):
    g = mixed_free3.group
    a0 = mixed_free3.sites[0].random_element(RNG)
    a1 = mixed_free3.sites[1].random_element(RNG)
    t_pure = ElementaryTerm(((0, a0), (1, a1)), (), ())
    assert signature(t_pure, mixed_free3) == g.reduce_tuple([0, 1])
    t_diag = ElementaryTerm((), ((0, a0),), ())
    assert signature(t_diag, mixed_free3) == ()
    t_mixed = ElementaryTerm(((0, a0),), (), ((0, a0),))
    assert signature(t_mixed, mixed_free3) == ()
    t_shift = ElementaryTerm(((0, a0), (1, a1)), (), ((1, a1),))
    assert signature(t_shift, mixed_free3) == g.reduce_tuple([0])
    with pytest.raises(ValueError):
        bad = ElementaryTerm(((0, a0), (0, a0)), (), ())
        signature(bad, mixed_free3)


def test_coalesce_merges_terms_equal_up_to_signed_zeros():
    """The term key reads the matrix-unit coefficients with -0.0 read as
    0.0, so equal terms merge, whatever the sign of a zero coefficient or
    of an entry off the blocks; unequal ones stay apart."""
    alg, _, _ = hecke_vertex(1.0)
    plus = alg.element([[[0.5]], [[0.0]]])
    minus = alg.element([[[0.5]], [[-0.0]]])
    off = alg.element([[[0.5]], [[0.0]]])
    off.mat[0, 1] = -0.0
    other = alg.element([[[0.5]], [[1e-300]]])
    assert len({e.mat.tobytes() for e in (plus, minus, off)}) == 3

    def term(e):
        return ElementaryTerm(((0, e),), ((1, e),), ())

    merged = _coalesce([(1.0, term(plus)), (2.0, term(minus)), (4.0, term(off)), (8.0, term(other))])
    assert [c for c, _ in merged] == [7.0, 8.0]
    assert merged[0][1] is not merged[1][1]


def test_rewrite_certificates_random(mixed_free3, mixed_path3, mixed_k3):
    rng = np.random.default_rng(7)
    for sysm in (mixed_free3, mixed_path3, mixed_k3):
        space = sysm.space(4)
        for _ in range(40):
            factors = sample_expression(sysm, rng)
            terms = rewrite_to_elementary(factors, sysm)
            dev = guarded_deviation(expression_matrix(factors, space), terms_matrix(terms, space))
            assert dev < 1e-9


def test_rewrite_terms_are_normal_form(mixed_path3):
    """Creation/annihilation entries stay centered with reduced canonical
    index words; diagonal entries sit on cliques with distinct vertices."""
    rng = np.random.default_rng(19)
    g = mixed_path3.group
    for _ in range(30):
        factors = sample_expression(mixed_path3, rng, max_len=6)
        for coeff, t in rewrite_to_elementary(factors, mixed_path3):
            for word in (t.creation_word(), t.annihilation_word()):
                assert g.reduce_tuple(word) == word  # reduced and canonical
            for v, e in t.creation + t.annihilation:
                assert abs(mixed_path3.omega(v, e)) < 1e-10
            dverts = [v for v, _ in t.diag]
            assert len(set(dverts)) == len(dverts)
            assert mixed_path3.graph.is_clique(dverts)


def test_diagonality_iff_identity_signature_exhaustive_hecke():
    """Every generated elementary term of total length <= 4 on the edgeless
    Hecke system: block-diagonal exactly when the signature is trivial."""
    from util import hecke_system

    sysm = hecke_system(FREE3, 2.0)
    space = sysm.space(4)
    g = sysm.group
    alg, st, t = hecke_vertex(2.0)
    elems = {v: t for v in FREE3.vertices}
    diag_choices = {v: [alg.one(), t] for v in FREE3.vertices}

    creation_words = [w for w in g.ball_tuples(4)]
    checked = 0
    for cw in creation_words:
        for aw in creation_words:
            rem = 4 - len(cw) - len(aw)
            if rem < 0:
                continue
            diag_opts = [()]
            for v in FREE3.vertices:
                diag_opts = diag_opts + [d + ((v, c),) for d in diag_opts for c in diag_choices[v] if len(d) < rem and all(u != v for u, _ in d)]
            for dpart in diag_opts:
                if len(cw) + len(aw) + len(dpart) > 4:
                    continue
                term = ElementaryTerm(
                    tuple((v, elems[v]) for v in cw),
                    tuple(sorted(dpart, key=lambda e: e[0])),
                    tuple((v, elems[v]) for v in aw),
                )
                sig = signature(term, sysm)
                m = term_matrix(term, space)
                if guarded_norm(m) <= 1e-12:
                    continue
                checked += 1
                off = offdiagonal_mass(m)
                if sig == ():
                    assert off <= 1e-12
                else:
                    assert off > 1e-12
    assert checked >= 200


def test_rewrite_rejects_unknown_vertex(mixed_free3):
    with pytest.raises(ValueError):
        rewrite_to_elementary([Factor("qproj", 9)], mixed_free3)


def test_rewrite_certificates_diag_heavy_triangle():
    """Diagonal collisions spawn creation/annihilation pairs; directional
    guard bounds must keep those certificates checkable at small depth."""
    from gplab.graphs import SimplicialGraph
    from gplab.system import GraphSystem
    from util import c2_site, m2_site
    from gplab.algebras import site_from_hecke

    tri_pendant = SimplicialGraph.build(range(4), [(0, 1), (1, 2), (0, 2), (2, 3)])
    sites = {
        0: site_from_hecke(2.0),
        1: c2_site(0.4),
        2: m2_site([[0.55, 0.05], [0.05, 0.45]]),
        3: site_from_hecke(0.5),
    }
    sysm = GraphSystem(tri_pendant, sites)
    space = sysm.space(4)
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        factors, moving = [], 0
        for _ in range(n):
            v = int(rng.integers(0, 4))
            kinds = ["diag", "diag", "qproj"] + (["create", "annih", "elem"] if moving < 3 else [])
            k = kinds[int(rng.integers(0, len(kinds)))]
            if k in ("create", "annih", "elem"):
                moving += 1
            if k == "qproj":
                factors.append(Factor("qproj", v))
            else:
                factors.append(Factor(k, v, sites[v].random_element(rng, center=(k != "diag"))))
        terms = rewrite_to_elementary(factors, sysm)
        lhs = expression_matrix(factors, space)
        rhs = terms_matrix(terms, space)
        assert min(lhs.guard, rhs.guard) >= 0
        assert guarded_deviation(lhs, rhs) < 1e-9


@pytest.mark.parametrize("path", ["dense", "csr"])
def test_operator_chains_start_from_first_factor(mixed_free3, path, monkeypatch):
    """expression_matrix and term_matrix multiply len(factors) - 1 times,
    with no product by the identity first, and equal the chains started from
    the identity: exactly for expressions, to rounding for terms, whose
    coefficient now scales the first factor."""
    # "dense" names the small space (dim 64), "csr" the large one (dim 388)
    sysm = mixed_free3 if path == "dense" else GraphSystem(FREE3, {v: m2_site() for v in FREE3.vertices})
    space = sysm.space(3)
    calls = [0]
    mul = _mat.mul

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(_mat, "mul", counted)
    rng = np.random.default_rng(107)
    for _ in range(6):
        factors = sample_expression(sysm, rng, max_len=5)
        want = identity_op(space)
        for f in factors:
            want = want @ factor_matrix(f, space)
        calls[0] = 0
        got = expression_matrix(factors, space)
        got.mat  # products are formed when the matrix is first read
        assert calls[0] == len(factors) - 1
        assert (got.guard, got.up, got.down) == (want.guard, want.up, want.down)
        assert np.array_equal(got.toarray(), want.toarray())
        for coeff, term in rewrite_to_elementary(factors, sysm) + [(0.5 - 2j, IDENTITY_TERM)]:
            want = coeff * identity_op(space)
            for v, a in term.creation:
                want = want @ creation(space, v, a)
            for v, c in term.diag:
                want = want @ diagonal(space, v, c)
            for v, b in reversed(term.annihilation):
                want = want @ creation(space, v, b).adjoint()
            calls[0] = 0
            got = term_matrix(term, space, coeff)
            got.mat
            assert calls[0] == max(len(term.creation) + len(term.diag) + len(term.annihilation) - 1, 0)
            assert (got.guard, got.up, got.down) == (want.guard, want.up, want.down)
            w = want.toarray()
            assert np.max(np.abs(got.toarray() - w), initial=0.0) <= 1e-15 * max(1.0, np.max(np.abs(w), initial=0.0))


@pytest.mark.parametrize("fixture, depth", [("join_path3_hecke", 4), ("m2_trace_edgeless3", 3)])
def test_terms_matrix_matches_dense_oracle(fixture, depth):
    """terms_matrix, the lazy sum of the term matrices, against the dense
    sum naive_terms_matrix on the guarded columns, for each expression that
    the rewrite row draws at seed 2 (on join_path3_hecke at depth 4, up to
    20 terms)."""
    sysm = load_config(Path(__file__).parent / "fixtures" / f"{fixture}.json").system
    space = sysm.space(depth)
    rng = np.random.default_rng([2, zlib.crc32(b"rewrite")])
    for _ in range(40):
        factors = random_factors(sysm, rng, 8, budget=max(1, depth - 1), scalar=True)
        terms = rewrite_to_elementary(factors, sysm)
        got = terms_matrix(terms, space)
        idx = np.arange(space.width(got.guard))
        want = naive_terms_matrix(terms, space)[:, idx]
        scale = max(1.0, np.abs(want).max(initial=0.0))
        assert np.abs(got.toarray()[:, idx] - want).max(initial=0.0) <= 1e-12 * scale
