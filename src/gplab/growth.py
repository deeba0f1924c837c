"""Growth series of the word metric and ray classification of a
multi-parameter against the closure of the series' region of convergence.

The reciprocal of the multivariate growth series is the clique polynomial
f(q) = sum over cliques T of prod_{s in T} (-q_s / (1 + q_s)); along a ray
t -> t q the series has nonnegative coefficients, so membership in the
closure of the convergence region is decided by the smallest positive root
of t -> f(t q).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from .graphs import SimplicialGraph, VertexId
from .words import coxeter_group

CRITICAL_T_CAP = 1e12
BISECT_REL_TOL = 1e-10
# classify reads a critical scale within this of 1 as Boundary
BOUNDARY_BAND = 1e-8


class Region(Enum):
    INSIDE = "InsideRegion"
    BOUNDARY = "Boundary"
    OUTSIDE = "OutsideClosure"


@dataclass(frozen=True)
class ConvergenceVerdict:
    region: Region
    critical_t: float  # +inf for finite groups


def _check_params(graph: SimplicialGraph, q: Mapping[VertexId, float]):
    for v in graph.vertices:
        if v not in q or q[v] <= 0:
            raise ValueError(f"parameter at vertex {v} must be positive")


def inverse_growth_eval(graph: SimplicialGraph, q: Mapping[VertexId, float]) -> float:
    """The clique polynomial f(q); equals 1/Growth(q) inside convergence."""
    _check_params(graph, q)
    total = 0.0
    for clique in graph.cliques():
        term = 1.0
        for s in clique:
            term *= -q[s] / (1.0 + q[s])
        total += term
    return total


def growth_coefficients(graph: SimplicialGraph, depth: int) -> list[int]:
    """Taylor coefficients of 1/f along the equal-parameter ray, exactly.

    With m the largest clique size, f(z) = P(z)/(1+z)^m for the integer
    polynomial P(z) = sum over cliques T of (-z)^|T| (1+z)^(m-|T|), so the
    series is (1+z)^m / P(z).  P(0) = 1 (the empty clique), so the
    coefficients a_n = C(m, n) - sum_{i=1..n} p_i a_{n-i} are integers.
    """
    cliques = graph.cliques()
    m = max(len(c) for c in cliques)
    p = [
        sum((-1) ** len(c) * math.comb(m - len(c), i - len(c)) for c in cliques if len(c) <= i)
        for i in range(depth + 1)
    ]
    coeffs: list[int] = []
    for n in range(depth + 1):
        coeffs.append(math.comb(m, n) - sum(p[i] * coeffs[n - i] for i in range(1, n + 1)))
    return coeffs


def sphere_counts(graph: SimplicialGraph, depth: int) -> list[int]:
    """Exact sphere sizes of the group, by normal-form enumeration."""
    return coxeter_group(graph).sphere_sizes(depth)


def critical_t(graph: SimplicialGraph, q: Mapping[VertexId, float]) -> float:
    """Smallest t > 0 with f(t q) = 0, or +inf when f stays positive (finite
    group).  Bracket by doubling from 0, then bisect to relative tolerance."""
    _check_params(graph, q)
    n = len(graph.vertices)
    if len(graph.edges) == n * (n - 1) // 2:
        # complete graph: finite group, f(tq) = prod 1/(1+t q_v) > 0 always
        return float("inf")

    def f(t: float) -> float:
        return inverse_growth_eval(graph, {v: t * qv for v, qv in q.items()})

    lo, hi = 0.0, 1e-6
    while f(hi) > 0:
        lo, hi = hi, hi * 2.0
        if hi > CRITICAL_T_CAP:
            return float("inf")
    if f(hi) == 0.0:
        return hi
    while (hi - lo) > BISECT_REL_TOL * max(hi, 1e-30):
        mid = 0.5 * (lo + hi)
        val = f(mid)
        if val > 0:
            lo = mid
        elif val < 0:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)


def partial_sum_ratios(
    graph: SimplicialGraph, q: Mapping[VertexId, float], depth: int
) -> list[float]:
    """Growth ratios of the partial sums sum_{|w|<=N} q_w; corroborating
    evidence only, never the verdict driver."""
    group = coxeter_group(graph)
    sums = []
    total = 0.0
    for n in range(depth + 1):
        ball = group.ball_tuples(n)
        total = 0.0
        for w in ball:
            term = 1.0
            for s in w:
                term *= q[s]
            total += term
        sums.append(total)
    return [sums[i + 1] / sums[i] for i in range(len(sums) - 1)]


def classify(graph: SimplicialGraph, q: Mapping[VertexId, float]) -> ConvergenceVerdict:
    """Ray classification: OutsideClosure iff the critical scale falls short
    of 1, InsideRegion iff it exceeds 1, Boundary within BOUNDARY_BAND of 1.

    The ray criterion is this artifact's operationalization of closure
    membership (valid because the series has nonnegative coefficients); the
    band is reported as Boundary rather than guessed either way.
    """
    tstar = critical_t(graph, q)
    if tstar == float("inf") or tstar > 1.0 + BOUNDARY_BAND:
        region = Region.INSIDE
    elif tstar < 1.0 - BOUNDARY_BAND:
        region = Region.OUTSIDE
    else:
        region = Region.BOUNDARY
    return ConvergenceVerdict(region, tstar)


def clique_polynomial_string(graph: SimplicialGraph, names: Optional[Mapping[VertexId, str]] = None) -> str:
    """Human-readable clique polynomial for reports."""
    parts = ["1"]
    for clique in graph.cliques():
        if not clique:
            continue
        factors = []
        for s in clique:
            nm = names[s] if names else str(s)
            factors.append(f"q_{nm}/(1+q_{nm})")
        sign = "-" if len(clique) % 2 else "+"
        parts.append(f"{sign} {'*'.join(factors)}")
    return " ".join(parts)
