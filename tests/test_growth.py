import numpy as np
import pytest

from gplab.graphs import SimplicialGraph
from gplab.growth import (
    Region,
    classify,
    clique_polynomial_string,
    critical_t,
    growth_coefficients,
    inverse_growth_eval,
    partial_sum_ratios,
    sphere_counts,
)

from util import CYC4, CYC5, FREE3, FREE4, K2, K3, PATH3

SINGLE = SimplicialGraph.build([0], [])
FREE2 = SimplicialGraph.build([0, 1], [])


def test_inverse_growth_examples():
    assert abs(inverse_growth_eval(SINGLE, {0: 1.0}) - 0.5) < 1e-15
    # two free generators: (1 - z)/(1 + z)
    for z in (0.25, 0.5, 0.9):
        got = inverse_growth_eval(FREE2, {0: z, 1: z})
        assert abs(got - (1 - z) / (1 + z)) < 1e-12
    # complete pair: 1/(1+z)^2
    for z in (0.25, 1.0):
        got = inverse_growth_eval(K2, {0: z, 1: z})
        assert abs(got - 1.0 / (1 + z) ** 2) < 1e-12


def test_inverse_growth_requires_positive_parameters():
    with pytest.raises(ValueError):
        inverse_growth_eval(FREE2, {0: 1.0, 1: 0.0})


def test_sphere_examples():
    assert sphere_counts(FREE3, 3) == [1, 3, 6, 12]
    assert sphere_counts(CYC4, 3) == [1, 4, 8, 12]
    assert sphere_counts(K3, 3) == [1, 3, 3, 1]


def test_series_coefficients_match_spheres_to_depth_8():
    for g in (K3, FREE3, PATH3, CYC4, CYC5, FREE4):
        assert growth_coefficients(g, 8) == sphere_counts(g, 8)


def test_k2_series_is_square():
    assert growth_coefficients(K2, 4) == [1, 2, 1, 0, 0]


def test_critical_t_examples():
    assert abs(critical_t(FREE3, {v: 1.0 for v in FREE3.vertices}) - 0.5) < 1e-9
    assert abs(critical_t(FREE2, {0: 1.0, 1: 1.0}) - 1.0) < 1e-9
    assert abs(critical_t(FREE3, {v: 0.1 for v in FREE3.vertices}) - 5.0) < 1e-8
    assert critical_t(K3, {v: 1.0 for v in K3.vertices}) == float("inf")
    assert critical_t(K2, {0: 7.0, 1: 0.2}) == float("inf")


def test_classify_examples():
    assert classify(FREE3, {v: 1.0 for v in FREE3.vertices}).region is Region.OUTSIDE
    assert classify(FREE2, {0: 1.0, 1: 1.0}).region is Region.BOUNDARY
    assert classify(FREE3, {v: 0.1 for v in FREE3.vertices}).region is Region.INSIDE
    assert classify(K3, {v: 1.0 for v in K3.vertices}).region is Region.INSIDE


def test_classify_monotone_in_parameters():
    order = {Region.INSIDE: 0, Region.BOUNDARY: 1, Region.OUTSIDE: 2}
    for graph in (FREE3, PATH3, CYC4):
        prev = None
        for scale in np.linspace(0.05, 2.0, 16):
            q = {v: float(scale) for v in graph.vertices}
            lvl = order[classify(graph, q).region]
            if prev is not None:
                assert lvl >= prev
            prev = lvl


def test_critical_t_scaling():
    rng = np.random.default_rng(3)
    for graph in (FREE3, PATH3, CYC4):
        q = {v: float(rng.uniform(0.2, 2.0)) for v in graph.vertices}
        base = critical_t(graph, q)
        for c in (0.5, 2.0, 3.7):
            scaled = critical_t(graph, {v: c * qv for v, qv in q.items()})
            assert abs(scaled - base / c) <= 1e-9 * max(1.0, base / c)


def test_partial_sum_ratios_direction():
    # outside the region the weighted partial sums keep growing
    ratios = partial_sum_ratios(FREE3, {v: 1.0 for v in FREE3.vertices}, 6)
    assert all(r > 1.5 for r in ratios[1:])
    # deep inside they stabilize near 1
    ratios = partial_sum_ratios(FREE3, {v: 0.05 for v in FREE3.vertices}, 6)
    assert ratios[-1] < 1.05


def test_clique_polynomial_string():
    s = clique_polynomial_string(K2, {0: "a", 1: "b"})
    assert s.startswith("1 -") and "q_a/(1+q_a)*q_b/(1+q_b)" in s
