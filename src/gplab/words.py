"""Right-angled Coxeter group combinatorics: reduction, canonical normal forms,
weak order, joins and meets, and ball enumeration.

A group element is a canonical letter tuple: the lexicographically least
reduced word under the graph's vertex order.  Every routine takes and
returns plain letter tuples: `reduce_tuple` maps any word to its canonical
tuple, and the other methods take reduced words and return group elements
as canonical tuples.
"""
from __future__ import annotations

import itertools
from typing import Optional, Sequence

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
        # w -> its covers, the w s with |w s| = |w| + 1, for every w of the
        # spheres below the outermost one enumerated
        self._covers: dict[Letters, tuple[Letters, ...]] = {}

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
            nxt: set[Letters] = set()
            for w in prev:
                covers = [u for u in (self.mul_tuple(w, (s,)) for s in self.graph.vertices) if len(u) == k]
                self._covers[w] = tuple(covers)
                nxt.update(covers)
            self._spheres.append(sorted(nxt))
            if sum(len(s) for s in self._spheres) > BALL_SIZE_CAP:
                raise ResourceLimitError(f"ball size exceeds {BALL_SIZE_CAP} elements")
        out: list[Letters] = []
        for sphere in self._spheres[: n + 1]:
            out.extend(sphere)
        return out

    def sphere_sizes(self, n: int) -> list[int]:
        self.ball_tuples(n)
        return [len(s) for s in self._spheres[: n + 1]]

    def up_set(self, w: Letters, n: int) -> set[Letters]:
        """All u >= w in the right weak order with |u| <= n, for a canonical w.

        The right weak order is generated by its covers u < u s, |u s| = |u|
        + 1, so the up-set is what the covers that the ball enumeration
        records reach from w, one length at a time; no weak-order test runs.
        """
        self.ball_tuples(n)
        out = {w} if len(w) <= n else set()
        layer = out
        for _ in range(len(w), n):
            layer = {u for x in layer for u in self._covers[x]}
            out |= layer
        return out


_group_cache: dict[SimplicialGraph, CoxeterGroup] = {}


def coxeter_group(graph: SimplicialGraph) -> CoxeterGroup:
    """Group engine for a graph; cached so its down-set and sphere caches are
    shared by every caller."""
    group = _group_cache.get(graph)
    if group is None:
        group = CoxeterGroup(graph)
        _group_cache[graph] = group
    return group
