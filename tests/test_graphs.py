import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gplab.errors import ResourceLimitError
from gplab.graphs import SimplicialGraph, Walk

from util import FREE3, K3, PATH3, CYC4, all_graphs, brute_force_cliques, connected_by_union_find


def test_build_rejects_loops_and_stray_endpoints():
    with pytest.raises(ValueError):
        SimplicialGraph.build([0, 1], [(0, 0)])
    with pytest.raises(ValueError):
        SimplicialGraph.build([0, 1], [(0, 2)])
    with pytest.raises(ValueError):
        SimplicialGraph.build([0, 0], [])


def test_complement_examples():
    assert K3.complement() == FREE3
    assert FREE3.complement() == K3
    assert sorted(PATH3.complement().edges) == [(0, 2)]


def test_clique_counts_match_subset_oracle():
    for g in (K3, FREE3, PATH3, CYC4):
        got = {frozenset(c) for c in g.cliques()}
        assert got == brute_force_cliques(g)
    assert len(K3.cliques()) == 8
    assert len(FREE3.cliques()) == 4
    assert len(CYC4.cliques()) == 9


def test_clique_order_deterministic():
    cl = CYC4.cliques()
    assert cl == sorted(cl, key=lambda c: (len(c), c))
    assert cl[0] == ()


def test_clique_vertex_cap():
    big = SimplicialGraph.build(range(17), [])
    with pytest.raises(ResourceLimitError):
        big.cliques()


def test_closed_covering_walk_examples():
    w = K3.closed_covering_walk()
    assert w.steps == (0, 1, 2)
    assert SimplicialGraph.build([0, 1], []).closed_covering_walk() is None
    w2 = PATH3.closed_covering_walk()
    assert w2.steps == (0, 1, 2, 1)
    assert w2.is_valid(PATH3) and w2.is_closed(PATH3) and w2.covers(PATH3)


def test_single_vertex_walk_degenerate():
    g1 = SimplicialGraph.build([5], [])
    assert g1.is_connected()
    assert g1.closed_covering_walk().steps == (5,)


def test_walk_rotation_preserves_closure():
    w = CYC4.closed_covering_walk()
    for k in range(len(w.steps)):
        r = w.rotate(k)
        assert r.is_valid(CYC4) and r.is_closed(CYC4) and r.covers(CYC4)


def test_join_decomposition_examples():
    parts = {p.vertices for p in K3.join_decomposition()}
    assert parts == {(0,), (1,), (2,)}
    assert [p.vertices for p in FREE3.join_decomposition()] == [(0, 1, 2)]
    parts = {frozenset(p.vertices) for p in PATH3.join_decomposition()}
    assert parts == {frozenset({1}), frozenset({0, 2})}


def test_complement_involution_exhaustive_small():
    for n in range(1, 7):
        for g in all_graphs(n):
            assert g.complement().complement() == g


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=21))
def test_complement_involution_seven_vertices(pairs):
    edges = [(u, v) for u, v in pairs if u != v]
    g = SimplicialGraph.build(range(7), edges)
    assert g.complement().complement() == g


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=15))
def test_join_decomposition_partitions_and_crosses(pairs):
    edges = [(u, v) for u, v in pairs if u != v]
    g = SimplicialGraph.build(range(6), edges)
    parts = g.join_decomposition()
    seen = [v for p in parts for v in p.vertices]
    assert sorted(seen) == list(g.vertices)
    for p1, p2 in itertools.combinations(parts, 2):
        for u in p1.vertices:
            for v in p2.vertices:
                assert g.adjacent(u, v)


def test_covering_walk_exists_iff_connected_exhaustive():
    for n in range(1, 7):
        for g in all_graphs(n):
            walk = g.closed_covering_walk()
            if connected_by_union_find(g):
                assert walk is not None
                assert walk.is_valid(g) and walk.is_closed(g) and walk.covers(g)
            else:
                assert walk is None


def test_walk_requires_vertex():
    with pytest.raises(ValueError):
        Walk(())
