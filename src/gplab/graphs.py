"""Finite simplicial graphs and the derived combinatorics used across the package.

Vertices are opaque small integers whose construction order is the global
tie-break order for every lexicographic choice downstream (normal forms,
basis enumeration, clique listings).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .errors import ResourceLimitError

VertexId = int

# Clique enumeration is exponential in the vertex count; growth-series term
# counts are bounded by it, so cap hard.
MAX_CLIQUE_VERTICES = 16


def _norm_edge(u: VertexId, v: VertexId) -> tuple[VertexId, VertexId]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Walk:
    """A vertex sequence whose consecutive steps are adjacent in a host graph."""

    steps: tuple[VertexId, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a walk must contain at least one vertex")

    def is_valid(self, g: "SimplicialGraph") -> bool:
        return all(g.adjacent(a, b) for a, b in zip(self.steps, self.steps[1:]))

    def is_closed(self, g: "SimplicialGraph") -> bool:
        # A single vertex closes vacuously; see the degenerate-case note in
        # closed_covering_walk.
        if len(self.steps) == 1:
            return True
        return g.adjacent(self.steps[0], self.steps[-1])

    def covers(self, g: "SimplicialGraph") -> bool:
        return set(self.steps) == set(g.vertices)

    def rotate(self, k: int) -> "Walk":
        """Cyclic rotation; rotations of closed walks stay closed walks."""
        n = len(self.steps)
        k %= n
        return Walk(self.steps[k:] + self.steps[:k])


@dataclass(frozen=True)
class SimplicialGraph:
    """Finite undirected graph, irreflexive, edges stored as sorted pairs."""

    vertices: tuple[VertexId, ...]
    edges: frozenset[tuple[VertexId, VertexId]]

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertices")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop edge ({u},{v}) not allowed")
            if u > v:
                raise ValueError("edges must be stored as sorted pairs; use SimplicialGraph.build")
            if u not in vs or v not in vs:
                raise ValueError(f"edge ({u},{v}) has an endpoint outside the vertex set")

    @staticmethod
    def build(vertices: Iterable[VertexId], edges: Iterable[tuple[VertexId, VertexId]]) -> "SimplicialGraph":
        return SimplicialGraph(tuple(vertices), frozenset(_norm_edge(u, v) for u, v in edges))

    @cached_property
    def _adj(self) -> dict[VertexId, frozenset[VertexId]]:
        nbrs: dict[VertexId, set[VertexId]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    def adjacent(self, u: VertexId, v: VertexId) -> bool:
        return _norm_edge(u, v) in self.edges

    def neighbors(self, v: VertexId) -> frozenset[VertexId]:
        if v not in self._adj:
            raise ValueError(f"unknown vertex {v}")
        return self._adj[v]

    def induced(self, subset: Iterable[VertexId]) -> "SimplicialGraph":
        keep = set(subset)
        unknown = keep - set(self.vertices)
        if unknown:
            raise ValueError(f"unknown vertices {sorted(unknown)}")
        vs = tuple(v for v in self.vertices if v in keep)
        es = frozenset(e for e in self.edges if e[0] in keep and e[1] in keep)
        return SimplicialGraph(vs, es)

    def complement(self) -> "SimplicialGraph":
        es = frozenset(
            (u, v)
            for u, v in itertools.combinations(sorted(self.vertices), 2)
            if (u, v) not in self.edges
        )
        return SimplicialGraph(self.vertices, es)

    def is_clique(self, subset: Iterable[VertexId]) -> bool:
        sub = list(subset)
        return all(self.adjacent(u, v) for u, v in itertools.combinations(sub, 2))

    def cliques(self) -> list[tuple[VertexId, ...]]:
        """All complete vertex subsets, including the empty set and singletons.

        Enumerated by extension along the vertex order, then sorted by
        (size, lexicographic) for a deterministic listing.
        """
        if len(self.vertices) > MAX_CLIQUE_VERTICES:
            raise ResourceLimitError(
                f"clique enumeration capped at {MAX_CLIQUE_VERTICES} vertices, got {len(self.vertices)}"
            )
        order = {v: i for i, v in enumerate(self.vertices)}
        out: list[tuple[VertexId, ...]] = [()]

        def extend(current: tuple[VertexId, ...], candidates: list[VertexId]):
            for i, v in enumerate(candidates):
                nxt = current + (v,)
                out.append(nxt)
                extend(nxt, [w for w in candidates[i + 1:] if self.adjacent(v, w)])

        extend((), sorted(self.vertices, key=order.get))
        out.sort(key=lambda c: (len(c), c))
        return out

    def connected_components(self) -> list[tuple[VertexId, ...]]:
        seen: set[VertexId] = set()
        comps = []
        for root in self.vertices:
            if root in seen:
                continue
            stack, comp = [root], set()
            while stack:
                x = stack.pop()
                if x in comp:
                    continue
                comp.add(x)
                stack.extend(self._adj[x] - comp)
            seen |= comp
            comps.append(tuple(v for v in self.vertices if v in comp))
        comps.sort(key=lambda c: c[0])
        return comps

    def is_connected(self) -> bool:
        # The single-vertex graph counts as connected (degenerate case kept
        # total so downstream recursions never special-case it).
        return len(self.connected_components()) <= 1

    def closed_covering_walk(self) -> Optional[Walk]:
        """A closed walk visiting every vertex, from the first, or None when
        disconnected.

        Built from a depth-first tour recorded on entry and on every return,
        then greedily shortened from the tail while closure and coverage
        survive.
        """
        if not self.is_connected():
            return None
        start = self.vertices[0]
        if len(self.vertices) == 1:
            return Walk((start,))

        tour: list[VertexId] = []
        visited: set[VertexId] = set()

        def dfs(v: VertexId):
            visited.add(v)
            tour.append(v)
            for w in sorted(self._adj[v]):
                if w not in visited:
                    dfs(w)
                    tour.append(v)

        dfs(start)
        # Tour ends back at start; drop the final start so first/last are
        # adjacent rather than equal.
        steps = tour[:-1]
        while len(steps) > 2:
            cand = steps[:-1]
            if set(cand) == set(self.vertices) and self.adjacent(cand[0], cand[-1]):
                steps = cand
            else:
                break
        return Walk(tuple(steps))

    def join_decomposition(self) -> list["SimplicialGraph"]:
        """Induced subgraphs on the complement's connected components.

        The graph is the join of the returned parts; a single part means the
        complement is connected (no nontrivial join splitting).
        """
        return [self.induced(comp) for comp in self.complement().connected_components()]
