import numpy as np
import pytest

from gplab.algebras import hecke_vertex, site_from_hecke
from gplab.fock import TruncatedFock, guarded_deviation, lambda_op, q_mask, q_projection
from gplab.lattice import (
    act_on_q,
    apply_symbolic,
    identification_check,
    lattice_mask,
    lattice_product,
    lattice_projection,
    topofree_witness,
)
from gplab.words import coxeter_group

from util import CYC4, FREE3, K2, K3, PATH3, naive_q_projection


def test_lattice_p_e_is_identity():
    g = coxeter_group(FREE3)
    assert np.all(lattice_projection(g, 4, ()) == 1.0)


def test_lattice_product_examples():
    g = coxeter_group(FREE3)
    a, b = g.reduce_tuple([0]), g.reduce_tuple([1])
    rec = lattice_product(g, a, a, 6)
    assert rec.max_deviation == 0.0 and rec.join == (0,)
    rec = lattice_product(g, a, b, 6)
    assert rec.max_deviation == 0.0 and rec.join is None
    ge = coxeter_group(K2)
    rec = lattice_product(ge, ge.reduce_tuple([0]), ge.reduce_tuple([1]), 6)
    assert rec.max_deviation == 0.0 and rec.join == (0, 1)


def test_lattice_product_exhaustive_short_words():
    for graph in (FREE3, PATH3, K3, CYC4):
        g = coxeter_group(graph)
        short = g.ball_tuples(2)
        for u in short:
            for w in short:
                assert lattice_product(g, u, w, 6).max_deviation == 0.0


def test_lattice_commutativity_ball4():
    for graph in (FREE3, PATH3):
        g = coxeter_group(graph)
        ball = g.ball_tuples(4)
        proj = {w: lattice_projection(g, 4, w) for w in ball}
        for u in g.ball_tuples(2):
            for w in g.ball_tuples(2):
                assert np.array_equal(proj[u] * proj[w], proj[w] * proj[u])


def test_act_on_q_cases():
    g = coxeter_group(FREE3)
    # (1) w outside the centralizer
    sym = act_on_q(g, 0, g.reduce_tuple([1]))
    assert sym.terms == ((1, (0, 1)),)
    # (2) w = v
    sym = act_on_q(g, 0, g.reduce_tuple([0]))
    assert sym.terms == ((1, ()), (-1, (0,)))
    # (3) w in the centralizer, v not a prefix
    gp = coxeter_group(PATH3)
    sym = act_on_q(gp, 0, gp.reduce_tuple([1]))
    assert sym.terms == ((1, (1,)),)


def test_act_on_q_involution_and_trichotomy():
    for graph in (FREE3, PATH3, CYC4):
        g = coxeter_group(graph)
        for v in graph.vertices:
            for w in g.ball_tuples(5):
                in_c = g.commutes_tuple(w, v)
                starts = g.leq_tuple((v,), w)
                cases = [not in_c, in_c and starts, in_c and not starts]
                assert sum(cases) == 1  # exhaustive and mutually exclusive
                if len(w) <= 4:
                    sym = act_on_q(g, v, w)
                    acc: dict = {}
                    for c, lw in sym.terms:
                        for c2, lw2 in act_on_q(g, v, lw).terms:
                            acc[lw2] = acc.get(lw2, 0) + c * c2
                    acc = {k: val for k, val in acc.items() if val != 0}
                    assert acc == {w: 1}


def test_act_on_q_matches_hecke_conjugation_at_q_one():
    """At q = 1 the generator implements the translation unitary; conjugating
    Fock word projections realizes the symbolic action for nontrivial words.
    The empty word lives in the unital lattice picture instead."""
    g = coxeter_group(FREE3)
    site = site_from_hecke(1.0)
    space = TruncatedFock(FREE3, {v: site.rep for v in FREE3.vertices}, 4)
    _, _, t = hecke_vertex(1.0)
    for v in FREE3.vertices:
        lam = lambda_op(space, v, t)
        for w in g.ball_tuples(3):
            if not w:
                continue
            lhs = lam @ q_projection(space, w) @ lam
            rhs = apply_symbolic(space, act_on_q(g, v, w))
            assert guarded_deviation(lhs, rhs) < 1e-12


def test_apply_symbolic_realizes_the_lattice_convention():
    """apply_symbolic of every generator action on a word of the 3-ball is
    the dense sum of coef times Q_w, with Q_e the identity (the lattice
    convention) and every other Q_w the oracle projection.  The symbol of
    w = (v,) holds the empty word."""
    site = site_from_hecke(2.0)
    space = TruncatedFock(PATH3, {v: site.rep for v in PATH3.vertices}, 4)
    g = space.group
    for v in PATH3.vertices:
        for w in g.ball_tuples(3):
            sym = act_on_q(g, v, w)
            want = sum(
                c * (np.eye(space.dim) if lw == () else naive_q_projection(space, lw).toarray()) for c, lw in sym.terms
            )
            assert np.array_equal(apply_symbolic(space, sym).toarray(), want), (v, w)
    assert lattice_mask(space, ()).all() and not q_mask(space, ())[0]


def test_identification_check():
    site = site_from_hecke(2.0)
    space = TruncatedFock(FREE3, {v: site.rep for v in FREE3.vertices}, 4)
    rec = identification_check(space)
    assert rec.mismatches == 0 and rec.pairs_checked == len(space.group.ball_tuples(4)) ** 2

    from util import m2_site

    m2 = m2_site()
    space2 = TruncatedFock(PATH3, {v: m2.rep for v in PATH3.vertices}, 3)
    rec2 = identification_check(space2)
    assert rec2.mismatches == 0


def test_topofree_witness_example():
    g = coxeter_group(FREE3)
    rep = topofree_witness(g, (), [g.reduce_tuple([0])], 4)
    assert rep.conclusive
    assert rep.walk.covers(FREE3.complement())
    assert rep.walk.is_closed(FREE3.complement())
    assert len(rep.checks) == 4
    for row in rep.checks:
        assert row["additive"]
        assert all(item["holds"] for item in row["prefix_free"])


def test_topofree_witness_nontrivial_w_and_s():
    g = coxeter_group(FREE3)
    w = g.reduce_tuple([0, 1])
    exclusions = [g.reduce_tuple([0]), g.reduce_tuple([1, 0]), g.reduce_tuple([2])]
    rep = topofree_witness(g, w, exclusions, 3)
    assert rep.conclusive
    wv = g.mul_tuple(w, rep.v)
    assert len(wv) == len(w) + len(rep.v)
    # independently re-verify every certificate with the order oracle
    gower = tuple(rep.walk.steps)
    power = ()
    for ell in range(1, 4):
        power = power + gower
        lhs = g.mul_tuple(wv, power)
        assert len(lhs) == len(wv) + len(power)
        for x in exclusions:
            assert not g.leq_tuple(lhs, g.mul_tuple(x, lhs))


def test_topofree_hypothesis_errors():
    gk = coxeter_group(K3)  # complement disconnected
    with pytest.raises(ValueError):
        topofree_witness(gk, (), [gk.reduce_tuple([0])], 2)
    g2 = coxeter_group(K2)
    with pytest.raises(ValueError):
        topofree_witness(g2, (), [g2.reduce_tuple([0])], 2)
    g = coxeter_group(FREE3)  # hypotheses met, yet no power to check
    for l_max in (0, -1):
        with pytest.raises(ValueError, match="l_max must be at least 1"):
            topofree_witness(g, (), [g.reduce_tuple([0])], l_max)
