import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gplab.errors import ResourceLimitError
from gplab.graphs import SimplicialGraph
from gplab.words import coxeter_group

from util import CYC4, FREE3, K3, PATH3, _liftable, all_graphs, occurrence_permutation, shuffle_class

EDGE2 = SimplicialGraph.build([0, 1], [(0, 1)])


def test_reduce_examples():
    g = coxeter_group(FREE3)
    assert g.reduce_tuple([0, 0]) == ()
    assert g.reduce_tuple([0, 1, 0]) == (0, 1, 0)
    ge = coxeter_group(EDGE2)
    assert ge.reduce_tuple([1, 0]) == (0, 1)


def test_reduce_idempotent_and_parity():
    g = coxeter_group(PATH3)
    w = g.reduce_tuple([0, 1, 2, 1, 0, 2, 2, 1])
    assert g.reduce_tuple(w) == w
    original = [0, 1, 2, 1, 0, 2, 2, 1]
    for v in PATH3.vertices:
        assert original.count(v) % 2 == w.count(v) % 2


def test_reduce_rejects_unknown_letter():
    g = coxeter_group(FREE3)
    with pytest.raises(ValueError):
        g.reduce_tuple([7])


def test_multiply_examples():
    g = coxeter_group(FREE3)
    w = g.reduce_tuple([0, 1])
    assert g.mul_tuple((), w) == w
    assert g.mul_tuple(g.reduce_tuple([0]), g.reduce_tuple([0])) == ()
    for graph in (FREE3, PATH3, K3):
        gg = coxeter_group(graph)
        ab = gg.reduce_tuple([0, 1])
        ba = gg.reduce_tuple([1, 0])
        assert gg.mul_tuple(ab, gg.inv_tuple(ab)) == ()
        assert gg.inv_tuple(ab) == ba or gg.mul_tuple(ab, ba) == ()


def test_starts_with_examples():
    g = coxeter_group(FREE3)
    w = g.reduce_tuple([0, 1])
    assert g.leq_tuple((), w)
    # |a^{-1} ab| = 1 = 2 - 1 on the free graph
    assert g.leq_tuple(g.reduce_tuple([0]), w)
    # |b ab| = 3 != 1
    assert not g.leq_tuple(g.reduce_tuple([1]), w)


def test_first_letters_examples():
    g = coxeter_group(FREE3)
    assert g.first_letters_tuple(()) == ()
    assert g.first_letters_tuple(g.reduce_tuple([0, 1, 0])) == (0,)
    ge = coxeter_group(EDGE2)
    assert ge.first_letters_tuple(ge.reduce_tuple([0, 1])) == (0, 1)


def test_first_letters_pairwise_commuting():
    g = coxeter_group(CYC4)
    for w in g.ball_tuples(5):
        fl = g.first_letters_tuple(w)
        for u, v in itertools.combinations(fl, 2):
            assert CYC4.adjacent(u, v)


def _ball4_words():
    """(group, word) for every word of the radius-4 ball of every graph on
    four vertices."""
    for graph in all_graphs(4):
        g = coxeter_group(graph)
        for w in g.ball_tuples(4):
            yield g, w


def test_lift_matches_oracle_on_ball4():
    for g, w in _ball4_words():
        for v in g.graph.vertices:
            for left in (True, False):
                try:
                    want = _liftable(g, w, v, left)
                except ValueError:
                    want = -1
                assert g.lift(w, v, left) == want


def test_end_letters_and_left_quotient_match_positions_on_ball4():
    """A letter starts (ends) w when every letter before (after) one of its
    positions commutes with it; dropping the first such position is the
    left quotient."""
    for g, w in _ball4_words():
        adj = {v: g.graph.neighbors(v) for v in g.graph.vertices}
        n = len(w)
        first = [i for i in range(n) if all(w[j] in adj[w[i]] for j in range(i))]
        last = [i for i in range(n) if all(w[j] in adj[w[i]] for j in range(i + 1, n))]
        assert g.first_letters_tuple(w) == tuple(sorted({w[i] for i in first}))
        assert g.last_letters_tuple(w) == tuple(sorted({w[i] for i in last}))
        for v in g.graph.vertices:
            at = [i for i in first if w[i] == v]
            if at:
                quotient = g.left_quotient_tuple(v, w)
                assert quotient == g.canonical_tuple(w[: at[0]] + w[at[0] + 1:])
                assert quotient == g.mul_tuple((v,), w)
            else:
                with pytest.raises(ValueError):
                    g.left_quotient_tuple(v, w)


def test_commutes_matches_products_on_ball4():
    for g, w in _ball4_words():
        for v in g.graph.vertices:
            assert g.commutes_tuple(w, v) == (g.mul_tuple(w, (v,)) == g.mul_tuple((v,), w))


def test_join_examples():
    ge = coxeter_group(EDGE2)
    s, t = ge.reduce_tuple([0]), ge.reduce_tuple([1])
    assert ge.join_tuple(s, s) == s
    assert ge.join_tuple(s, t) == ge.reduce_tuple([0, 1])
    g = coxeter_group(FREE3)
    assert g.join_tuple(g.reduce_tuple([0]), g.reduce_tuple([1])) is None
    assert g.join_tuple((), g.reduce_tuple([0, 1])) == g.reduce_tuple([0, 1])


def test_meet_examples():
    g = coxeter_group(FREE3)
    w = g.reduce_tuple([0, 1])
    assert g.meet_tuple(w, w) == w
    assert g.meet_tuple(g.reduce_tuple([0]), g.reduce_tuple([1])) == ()
    assert g.meet_tuple(g.reduce_tuple([0, 1]), g.reduce_tuple([0, 2])) == g.reduce_tuple([0])


def test_commutes_with():
    g = coxeter_group(FREE3)
    assert g.commutes_tuple((), 0)
    assert not g.commutes_tuple(g.reduce_tuple([0]), 1)
    ge = coxeter_group(EDGE2)
    assert ge.commutes_tuple(ge.reduce_tuple([0]), 1)


def test_sphere_sizes_examples():
    assert coxeter_group(FREE3).sphere_sizes(3) == [1, 3, 6, 12]
    assert coxeter_group(K3).sphere_sizes(3) == [1, 3, 3, 1]
    assert coxeter_group(CYC4).sphere_sizes(3) == [1, 4, 8, 12]


def test_ball_order_deterministic():
    g = coxeter_group(PATH3)
    ball = g.ball_tuples(4)
    assert ball == sorted(ball, key=lambda w: (len(w), w))
    assert len(set(ball)) == len(ball)


def test_ball_caps():
    g = coxeter_group(FREE3)
    with pytest.raises(ResourceLimitError):
        g.ball_tuples(13)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_reduce_constant_on_equivalence_classes(data):
    """Random legal shuffles and square-cancellations never change reduce."""
    n_vertices = data.draw(st.integers(2, 5))
    pairs = data.draw(
        st.sets(st.tuples(st.integers(0, n_vertices - 1), st.integers(0, n_vertices - 1)), max_size=8)
    )
    graph = SimplicialGraph.build(range(n_vertices), [(u, v) for u, v in pairs if u != v])
    g = coxeter_group(graph)
    word = data.draw(st.lists(st.integers(0, n_vertices - 1), max_size=10))
    base = g.reduce_tuple(tuple(word))
    current = list(word)
    for _ in range(data.draw(st.integers(0, 8))):
        moves = []
        for i in range(len(current) - 1):
            if graph.adjacent(current[i], current[i + 1]):
                moves.append(("swap", i))
            if current[i] == current[i + 1]:
                moves.append(("cancel", i))
        moves.append(("insert", data.draw(st.integers(0, max(0, len(current))))))
        kind, i = moves[data.draw(st.integers(0, len(moves) - 1))]
        if kind == "swap":
            current[i], current[i + 1] = current[i + 1], current[i]
        elif kind == "cancel":
            del current[i: i + 2]
        else:
            s = data.draw(st.integers(0, n_vertices - 1))
            current[i:i] = [s, s]
    assert g.reduce_tuple(tuple(current)) == base


def test_cancellation_law_on_deletion():
    """Instrumented reducer: any deleted pair has only commuting letters
    strictly between the two positions."""
    import numpy as np

    rng = np.random.default_rng(0)
    for graph in (FREE3, PATH3, K3, CYC4):
        g = coxeter_group(graph)
        for _ in range(200):
            word = [int(rng.integers(0, len(graph.vertices))) for _ in range(int(rng.integers(0, 10)))]
            # naive reducer: scan for a deletable pair, delete, restart
            cur = list(word)
            changed = True
            while changed:
                changed = False
                for i in range(len(cur)):
                    for j in range(i + 1, len(cur)):
                        if cur[i] != cur[j]:
                            continue
                        between = cur[i + 1: j]
                        if all(graph.adjacent(x, cur[i]) for x in between):
                            # the cancellation law: everything between commutes
                            assert all(graph.adjacent(x, cur[i]) for x in between)
                            del cur[j], cur[i]
                            changed = True
                            break
                    if changed:
                        break
            assert g.reduce_tuple(tuple(cur)) == g.reduce_tuple(tuple(word))
            assert len(cur) == len(g.reduce_tuple(tuple(word)))


def test_down_sets_give_partial_order_on_ball6():
    for graph in (FREE3, PATH3, CYC4):
        g = coxeter_group(graph)
        ball = g.ball_tuples(6)
        for x in ball:
            dx = g.down_set(x)
            assert x in dx  # reflexive
            for y in dx:
                assert g.down_set(y) <= dx  # transitive
                if x in g.down_set(y):
                    assert x == y  # antisymmetric


def test_meet_is_greatest_common_lower_bound_ball4():
    for graph in (FREE3, PATH3, K3, CYC4):
        g = coxeter_group(graph)
        ball = g.ball_tuples(4)
        for u in ball:
            for w in ball:
                m = g.meet_tuple(u, w)
                common = g.down_set(u) & g.down_set(w)
                assert m in common
                for y in common:
                    assert y in g.down_set(m)


def test_join_matches_ball_oracle_ball3():
    for graph in (FREE3, PATH3, K3, CYC4):
        g = coxeter_group(graph)
        ball = g.ball_tuples(3)
        for u in ball:
            for w in ball:
                assert g.join_tuple(u, w) == g.join_via_ball(u, w)


def test_unique_permutation_property_length6():
    for graph in all_graphs(3):
        g = coxeter_group(graph)
        seen = set()
        for n in range(7):
            for word in itertools.product(graph.vertices, repeat=n):
                if word in seen or len(g.reduce_tuple(word)) != n:
                    continue
                cls = shuffle_class(g, word)
                seen |= cls
                members = sorted(cls)
                for v in members:
                    for w in members:
                        sigma = occurrence_permutation(v, w)
                        assert sigma is not None
                        assert tuple(v[s] for s in sigma) == w
                        if n <= 4:  # brute force uniqueness for small words
                            count = 0
                            for perm in itertools.permutations(range(n)):
                                if tuple(v[p] for p in perm) != w:
                                    continue
                                ok = all(
                                    perm[i] < perm[j]
                                    for i in range(n)
                                    for j in range(i + 1, n)
                                    if v[perm[i]] == v[perm[j]]
                                )
                                if ok:
                                    count += 1
                            assert count == 1


def test_join_matches_oracle_on_assorted_graphs():
    """Extra insurance for the peeling recursion: graphs chosen to exercise
    the disjoint-first-letter centralizer branch."""
    star4 = SimplicialGraph.build(range(4), [(0, 1), (0, 2), (0, 3)])
    path4 = SimplicialGraph.build(range(4), [(0, 1), (1, 2), (2, 3)])
    tri_pendant = SimplicialGraph.build(range(5), [(0, 1), (1, 2), (0, 2), (2, 3)])
    for graph in (star4, path4, tri_pendant):
        g = coxeter_group(graph)
        ball = g.ball_tuples(3)
        for u in ball:
            for w in ball:
                assert g.join_tuple(u, w) == g.join_via_ball(u, w)


def test_join_result_is_actual_least_upper_bound():
    g = coxeter_group(CYC4)
    ball = g.ball_tuples(3)
    for u in ball:
        for w in ball:
            j = g.join_tuple(u, w)
            if j is None:
                continue
            assert g.leq_tuple(u, j) and g.leq_tuple(w, j)


@pytest.mark.parametrize("graphs,length", [(list(all_graphs(3)), 6), ([CYC4], 5)], ids=["all3", "cyc4"])
def test_sort_with_perm_is_least_word_of_shuffle_class(graphs, length):
    """The canonical rearrangement of every reduced word is the
    lexicographically least word of its shuffle class, and perm is the
    occurrence permutation onto it."""
    for graph in graphs:
        g = coxeter_group(graph)
        for n in range(length + 1):
            for word in itertools.product(graph.vertices, repeat=n):
                if len(g._reduce_word(word)) != n:
                    continue
                canon, perm = g.sort_with_perm(word)
                assert canon == min(shuffle_class(g, word))
                assert perm == occurrence_permutation(word, canon)
