"""Right-angled Coxeter group combinatorics: reduction, canonical normal forms,
weak order, joins and meets, and ball enumeration.

A group element is a canonical letter tuple: the lexicographically least
reduced word under the graph's vertex order.  Every routine takes and
returns plain letter tuples: `reduce_tuple` maps any word to its canonical
tuple, and the other methods take reduced words and return group elements
as canonical tuples.

The ball enumeration forms every cover u -> u s, |u s| = |u| + 1, with the
canonical sort of u + (s,), and records it with that sort's permutation.
On first use the records become one integer table per group (CoverTable):
ball ids, the cover of each word through each letter, and the predecessor
of each word through each letter with its position map.  The word maps of
the Fock space (each word split into the letters peeled off one end and
the rest) and the up-sets of the weak order are numpy gathers over it.
"""
from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from .errors import ResourceLimitError
from .graphs import SimplicialGraph, VertexId

Letters = tuple[VertexId, ...]

BALL_DEPTH_CAP = 12
BALL_SIZE_CAP = 10**6


class CoxeterGroup:
    """Word engine for the right-angled Coxeter group of a simplicial graph."""

    def __init__(self, graph: SimplicialGraph):
        self.graph = graph
        self._vset = set(graph.vertices)
        self._adj = {v: graph.neighbors(v) for v in graph.vertices}
        self._down_cache: dict[Letters, frozenset[Letters]] = {(): frozenset({()})}
        self._spheres: list[list[Letters]] = [[()]]
        # per sphere k >= 1, every cover (w, s, w s, perm) from sphere k - 1,
        # perm from the canonical sort of w + (s,)
        self._edges: list[list[tuple[Letters, VertexId, Letters, tuple[int, ...]]]] = [[]]
        self._table: Optional[CoverTable] = None

    # -- reduction, normal forms and weak order ----------------------------

    def lift(self, w: Sequence[VertexId], v: VertexId, left: bool) -> int:
        """Position of the occurrence of v that moves to the front (left) or
        the back of the reduced word w, or -1 when there is none: the first
        v met from that end, if every letter passed commutes with v."""
        near = self._adj[v]
        for k in range(len(w)) if left else range(len(w) - 1, -1, -1):
            if w[k] == v:
                return k
            if w[k] not in near:
                return -1
        return -1

    def _reduce_word(self, letters: Sequence[VertexId]) -> list[VertexId]:
        """A reduced word for the product of `letters`, not canonicalised:
        each letter cancels the occurrence that can move to the back of the
        word so far, or is appended."""
        acc: list[VertexId] = []
        for s in letters:
            if s not in self._vset:
                raise ValueError(f"unknown vertex letter {s}")
            k = self.lift(acc, s, False)
            if k >= 0:
                del acc[k]
            else:
                acc.append(s)
        return acc

    def reduce_tuple(self, letters: Sequence[VertexId]) -> Letters:
        return self.canonical_tuple(tuple(self._reduce_word(letters)))

    def canonical_tuple(self, reduced: Letters) -> Letters:
        return self.sort_with_perm(reduced)[0]

    def sort_with_perm(self, reduced: Letters) -> tuple[Letters, tuple[int, ...]]:
        """Canonical (lex-least) rearrangement of a reduced word.

        Returns (canonical letters, perm) where perm[k] is the source
        position of the k-th canonical letter.  The permutation preserves the
        relative order of equal letters, so it is the unique one relating the
        two reduced words.
        """
        remaining = list(range(len(reduced)))
        out_letters: list[VertexId] = []
        out_perm: list[int] = []
        while remaining:
            best_pos = -1
            best_letter = None
            seen: set[VertexId] = set()
            for pos in remaining:
                letter = reduced[pos]
                # a letter can come first when it commutes with every letter
                # left before it; test that only for a smaller letter
                if (best_letter is None or letter < best_letter) and self._adj[letter].issuperset(seen):
                    best_letter = letter
                    best_pos = pos
                seen.add(letter)
            out_letters.append(reduced[best_pos])
            out_perm.append(best_pos)
            remaining.remove(best_pos)
        return tuple(out_letters), tuple(out_perm)

    def first_letters_tuple(self, w: Letters) -> tuple[VertexId, ...]:
        return tuple(s for s in sorted(set(w)) if self.lift(w, s, True) >= 0)

    def last_letters_tuple(self, w: Letters) -> tuple[VertexId, ...]:
        return tuple(s for s in sorted(set(w)) if self.lift(w, s, False) >= 0)

    def left_quotient_tuple(self, s: VertexId, w: Letters) -> Letters:
        """Remove the front-liftable occurrence of s; requires s <= w."""
        k = self.lift(w, s, True)
        if k < 0:
            raise ValueError(f"{s} is not a first letter of {w}")
        return self.canonical_tuple(w[:k] + w[k + 1:])

    def mul_tuple(self, u: Letters, v: Letters) -> Letters:
        return self.reduce_tuple(u + v)

    def inv_tuple(self, w: Letters) -> Letters:
        return self.canonical_tuple(tuple(reversed(w)))

    def leq_tuple(self, v: Letters, w: Letters) -> bool:
        """v <= w in the right weak order: w starts in v.

        Holds exactly when |v^-1 w| = |w| - |v|, which needs only the reduced
        length of v^-1 w, so the reduced word is not canonicalised.
        """
        if len(v) > len(w):
            return False
        return len(self._reduce_word(tuple(reversed(v)) + w)) == len(w) - len(v)

    def commutes_tuple(self, w: Letters, v: VertexId) -> bool:
        """Whether the reduced word w commutes with v: the centralizer of v
        is the subgroup of its star, so every letter is v or a neighbour."""
        near = self._adj[v]
        return all(u == v or u in near for u in w)

    def down_set(self, w: Letters) -> frozenset[Letters]:
        """All u with u <= w, computed by descending along final letters."""
        cached = self._down_cache.get(w)
        if cached is not None:
            return cached
        acc: set[Letters] = {w}
        for s in self.last_letters_tuple(w):
            acc |= self.down_set(self.mul_tuple(w, (s,)))
        result = frozenset(acc)
        self._down_cache[w] = result
        return result

    # -- join and meet ----------------------------------------------------

    def meet_tuple(self, v: Letters, w: Letters) -> Letters:
        """Greatest common lower bound; peels shared first letters greedily."""
        prefix: list[VertexId] = []
        while True:
            common = set(self.first_letters_tuple(v)) & set(self.first_letters_tuple(w))
            if not common:
                return self.canonical_tuple(tuple(prefix))
            s = min(common)
            prefix.append(s)
            v = self.left_quotient_tuple(s, v)
            w = self.left_quotient_tuple(s, w)

    def join_tuple(self, v: Letters, w: Letters) -> Optional[Letters]:
        """Least common upper bound, or None when no common upper bound exists.

        Peeling recursion: shared first letters are factored out; otherwise a
        first letter t of w must commute with all of v (else no bound), and
        the problem shifts to (v, t\\w) under the constraint that the partial
        join does not reabsorb t.
        """
        if not v:
            return w
        if not w:
            return v
        fv = self.first_letters_tuple(v)
        fw = self.first_letters_tuple(w)
        union = sorted(set(fv) | set(fw))
        for a, b in itertools.combinations(union, 2):
            if b not in self._adj[a]:
                return None
        common = set(fv) & set(fw)
        if common:
            s = min(common)
            rest = self.join_tuple(self.left_quotient_tuple(s, v), self.left_quotient_tuple(s, w))
            if rest is None or s in self.first_letters_tuple(rest):
                return None
            return self.mul_tuple((s,), rest)
        t = min(fw)
        if not self.commutes_tuple(v, t):
            return None
        rest = self.join_tuple(v, self.left_quotient_tuple(t, w))
        if rest is None or t in self.first_letters_tuple(rest):
            return None
        return self.mul_tuple((t,), rest)

    def join_via_ball(self, v: Letters, w: Letters) -> Optional[Letters]:
        """Brute-force join oracle over the ball of radius |v|+|w|.

        Searches one extra shell as a guard: a common upper bound appearing
        only there would falsify the radius hypothesis and raises instead of
        silently returning the wrong minimum.
        """
        radius = len(v) + len(w)
        candidates = [
            u
            for u in self.ball_tuples(radius + 1)
            if v in self.down_set(u) and w in self.down_set(u)
        ]
        if not candidates:
            return None
        best = min(candidates, key=lambda u: (len(u), u))
        if len(best) > radius:
            raise ResourceLimitError(
                f"common upper bound of {v} and {w} found only outside radius {radius}"
            )
        for u in candidates:
            if best not in self.down_set(u):
                raise ResourceLimitError(
                    f"upper bounds of {v} and {w} have no unique minimum inside the ball"
                )
        return best

    # -- enumeration --------------------------------------------------------

    def ball_tuples(self, n: int) -> list[Letters]:
        if n < 0:
            raise ValueError("ball radius must be nonnegative")
        if n > BALL_DEPTH_CAP:
            raise ResourceLimitError(f"ball depth capped at {BALL_DEPTH_CAP}, got {n}")
        while len(self._spheres) <= n:
            prev = self._spheres[-1]
            k = len(self._spheres)
            edges = []
            for w in prev:
                for s in self.graph.vertices:
                    reduced = self._reduce_word(w + (s,))
                    if len(reduced) == k:  # w + (s,) itself: a cover
                        edges.append((w, s, *self.sort_with_perm(tuple(reduced))))
            self._edges.append(edges)
            self._spheres.append(sorted({u for _, _, u, _ in edges}))
            if sum(len(s) for s in self._spheres) > BALL_SIZE_CAP:
                raise ResourceLimitError(f"ball size exceeds {BALL_SIZE_CAP} elements")
        out: list[Letters] = []
        for sphere in self._spheres[: n + 1]:
            out.extend(sphere)
        return out

    def sphere_sizes(self, n: int) -> list[int]:
        self.ball_tuples(n)
        return [len(s) for s in self._spheres[: n + 1]]

    def cover_table(self, n: int) -> "CoverTable":
        """The covers of the ball of radius n as integers (CoverTable), built
        on first use from what the enumeration recorded, and again only for
        a larger radius.  It holds every sphere enumerated so far, so it
        serves every radius up to its own."""
        if self._table is None or self._table.radius < n:
            self.ball_tuples(n)
            self._table = CoverTable(self)
        return self._table


class CoverTable:
    """The covers u -> u s of a ball, by ball id: ids follow the ball order
    (by length, then lexicographic), and a letter is its position in
    graph.vertices.

    cover[u, s] is the id of u s where |u s| = |u| + 1, else -1, and -1 on
    the outermost sphere, whose covers are not enumerated.  pred[w, s] is
    the u with cover[u, s] = w, else -1: w ends in s exactly where it has
    one.  For that cover, letter p of w is letter perm[w, s, p] of the
    reduced word u + (s,), -1 past |w|.  Equal letters keep their order in
    every reduced word of an element, so this position map is the only one.
    """

    def __init__(self, group: CoxeterGroup):
        spheres = group._spheres
        self.radius = len(spheres) - 1
        self.graph = group.graph
        ball = [w for sphere in spheres for w in sphere]
        self.index = {w: i for i, w in enumerate(ball)}
        self.starts = np.cumsum([0] + [len(sphere) for sphere in spheres])
        self.lengths = np.repeat(np.arange(len(spheres)), np.diff(self.starts))
        letter = {v: k for k, v in enumerate(self.graph.vertices)}
        shape = (len(ball), len(letter))
        self.cover = np.full(shape, -1, dtype=np.intp)
        self.pred = np.full(shape, -1, dtype=np.intp)
        self.perm = np.full(shape + (max(self.radius, 1),), -1, dtype=np.int8)  # one column at radius 0
        for k, edges in enumerate(group._edges[1:], start=1):
            if not edges:
                continue
            u = np.array([self.index[e[0]] for e in edges])
            s = np.array([letter[e[1]] for e in edges])
            w = np.array([self.index[e[2]] for e in edges])
            self.cover[u, s] = w
            self.pred[w, s] = u
            self.perm[w, s, :k] = [e[3] for e in edges]
        self._sides: dict[bool, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def side(self, left: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every word split along every single letter v at the front (left)
        or the back: (head, tail, where), each indexed [w, v].  head is the
        position in w of the v that comes to that end, -1 where none does;
        tail the id of w with that v taken out, w itself where none; and
        where[w, v, p] the position in the tail of w's letter p, -1 for the
        head and past |w|.  Built once per side, one sphere at a time."""
        got = self._sides.get(left)
        if got is None:
            got = self._sides[left] = self._front() if left else self._back()
        return got

    def _own(self) -> np.ndarray:
        """Each word's letters in place, (words, radius): p, -1 past |w|."""
        at = np.arange(self.perm.shape[2], dtype=np.int8)
        return np.where(at < self.lengths[:, None], at, np.int8(-1))

    def _back(self):
        """w ends in v exactly where a cover u v = w exists (pred), and then
        its tail is u and the v is the last letter of u + (v,)."""
        ends = self.pred >= 0
        last = (self.lengths - 1).astype(np.int8)[:, None, None]
        head = np.where(ends, np.argmax(self.perm == last, axis=2), -1)
        tail = np.where(ends, self.pred, np.arange(len(self.pred))[:, None])
        where = np.where(ends[..., None], np.where(self.perm == last, np.int8(-1), self.perm),
                         self._own()[:, None, :])
        return head, tail, where

    def _front(self):
        """Through any cover u t = w: where v starts u, v starts w and the
        tail of w is the cover tail(u) t, so both position maps compose;
        where it does not, v starts w exactly when t = v and v commutes
        with every letter of u, and then the tail is u."""
        n_words, n_letters = self.pred.shape
        head = np.full((n_words, n_letters), -1, dtype=np.intp)
        tail = np.repeat(np.arange(n_words)[:, None], n_letters, axis=1)
        where = np.repeat(self._own()[:, None, :], n_letters, axis=1)
        verts = self.graph.vertices
        star = np.array([[a == b or self.graph.adjacent(a, b) for b in verts] for a in verts])
        letters = np.zeros((n_words, n_letters), dtype=bool)  # the letters of each word
        for k in range(1, self.radius + 1):
            ids = np.arange(self.starts[k], self.starts[k + 1])
            t = np.argmax(self.pred[ids] >= 0, axis=1)  # the first cover into each word
            u = self.pred[ids, t]
            src = self.perm[ids, t, :k].astype(np.intp)  # w's letter p is letter src[p] of u + (t,)
            at = np.argsort(src, axis=1)  # ... and letter i of u + (t,) is w's letter at[i]
            letters[ids] = letters[u]
            letters[ids, t] = True
            # v starts u: peel it from u, then append t to u's tail
            r, v = np.nonzero(head[u] >= 0)
            if len(r):
                uu, tt = u[r], t[r]
                into = where[uu, v, :k].astype(np.intp)  # u's letters in tail(u), then t last
                into[:, k - 1] = k - 2
                tw = self.cover[tail[uu, v], tt]
                back = np.argsort(self.perm[tw, tt, :k - 1], axis=1)
                moved = np.take_along_axis(into, src[r], axis=1)
                where[ids[r], v, :k] = np.where(moved >= 0, np.take_along_axis(back, np.maximum(moved, 0), axis=1), -1)
                head[ids[r], v] = at[r, head[uu, v]]
                tail[ids[r], v] = tw
            # v does not start u: w = u v with v commuting with all of u
            free = (head[u] < 0) & (t[:, None] == np.arange(n_letters))
            free &= ~np.any(letters[u][:, None, :] & ~star, axis=2)
            r, v = np.nonzero(free)
            head[ids[r], v] = at[r, k - 1]
            tail[ids[r], v] = u[r]
            where[ids[r], v, :k] = np.where(src[r] < k - 1, src[r], -1)
        return head, tail, where

    def peel(self, ids: np.ndarray, letters: Sequence[int], left: bool):
        """Split the words `ids` along the letters `letters` (positions in
        graph.vertices, in peeling priority): at each step the first of
        them that comes to the acting end is peeled off, until none does;
        the back is split along one letter only.  Returns (head, head_src,
        tail, where): the ids of the head and of the tail, the position in
        w of the head's k-th letter (-1 past it), and the position in the
        tail of w's letter p (-1 for a head letter and past |w|).  Peeled
        off the front in priority order, the head letters come in canonical
        order, so the head is a chain of covers from the empty word."""
        if not left and len(letters) > 1:
            raise ValueError("the back is split along one letter only")
        head_at, tails, wheres = self.side(left)
        letters = np.asarray(letters, dtype=np.intp)
        cur = np.asarray(ids, dtype=np.intp).copy()
        pos = self._own()[cur].astype(np.intp)  # where w's letter p sits in cur
        head = np.zeros(len(cur), dtype=np.intp)
        head_src = np.full(pos.shape, -1, dtype=np.intp)
        for step in range(self.radius):
            can = head_at[cur[:, None], letters] >= 0
            r = np.flatnonzero(can.any(axis=1))
            if not len(r):
                break
            s = letters[np.argmax(can[r], axis=1)]
            c = cur[r]
            head_src[r, step] = np.argmax(pos[r] == head_at[c, s][:, None], axis=1)
            moved = np.take_along_axis(wheres[c, s], np.maximum(pos[r], 0), axis=1)
            pos[r] = np.where(pos[r] >= 0, moved, -1)
            head[r] = self.cover[head[r], s]
            cur[r] = tails[c, s]
        return head, head_src, cur, pos

    def up_mask(self, w: Letters, n: int) -> np.ndarray:
        """Which ball words of length <= n start with the canonical word w:
        its up-set in the right weak order, which the covers generate, read
        one length at a time by ball id; no weak-order test runs."""
        starts = self.starts
        mask = np.zeros(len(self.cover) + 1, dtype=bool)  # the last slot takes the -1s
        i = self.index.get(w)
        if i is None or len(w) > n:
            return mask[:starts[n + 1]]
        mask[i] = True
        layer = np.array([i])
        for k in range(len(w) + 1, n + 1):
            mask[self.cover[layer]] = True
            layer = starts[k] + np.flatnonzero(mask[starts[k]:starts[k + 1]])
        return mask[:starts[n + 1]]


_group_cache: dict[SimplicialGraph, CoxeterGroup] = {}


def coxeter_group(graph: SimplicialGraph) -> CoxeterGroup:
    """Group engine for a graph; cached so its down-set and sphere caches are
    shared by every caller."""
    group = _group_cache.get(graph)
    if group is None:
        group = CoxeterGroup(graph)
        _group_cache[graph] = group
    return group
