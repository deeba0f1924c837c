"""A graph with one vertex algebra per vertex, bundled for the operator layer."""
from __future__ import annotations

from dataclasses import dataclass, field

from .algebras import Element, VertexSite
from .fock import DEFAULT_DIM_CAP, TruncatedFock
from .graphs import SimplicialGraph, VertexId
from .words import CoxeterGroup, coxeter_group


@dataclass
class GraphSystem:
    graph: SimplicialGraph
    sites: dict[VertexId, VertexSite]
    dim_cap: int = DEFAULT_DIM_CAP
    _spaces: dict[int, TruncatedFock] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        missing = set(self.graph.vertices) - set(self.sites)
        if missing:
            raise ValueError(f"missing vertex algebras for {sorted(missing)}")

    @property
    def group(self) -> CoxeterGroup:
        return coxeter_group(self.graph)

    def reps(self) -> dict[VertexId, object]:
        return {v: s.rep for v, s in self.sites.items()}

    def space(self, n: int) -> TruncatedFock:
        got = self._spaces.get(n)
        if got is None:
            got = TruncatedFock(self.graph, self.reps(), n, dim_cap=self.dim_cap)
            self._spaces[n] = got
        return got

    def omega(self, v: VertexId, x: Element) -> complex:
        return self.sites[v].omega(x)

    def centered(self, v: VertexId, x: Element) -> Element:
        return self.sites[v].centered(x)

    def restricted(self, sub: SimplicialGraph) -> "GraphSystem":
        return GraphSystem(sub, {v: self.sites[v] for v in sub.vertices}, self.dim_cap)
