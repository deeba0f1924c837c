import itertools

import numpy as np
import pytest

from gplab.algebras import (
    _perm_sign_candidates,
    Element,
    FiniteDimAlgebra,
    StateSpec,
    centered,
    centered_unitary_search,
    commutant_is_trivial,
    gns,
    hecke_gns,
    hecke_parameter,
    hecke_vertex,
    optimal_q,
)

from util import c2_site, m2_site, naive_gns_matrix, naive_hecke_matrix

RNG = np.random.default_rng(42)


def _random_element(alg, rng=RNG):
    return Element(
        alg, tuple(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in alg.blocks)
    )


def test_state_validation():
    alg = FiniteDimAlgebra((2,))
    with pytest.raises(ValueError):
        StateSpec.build(alg, [np.array([[0.5, 0.0], [0.0, 0.4]])])  # trace != 1
    with pytest.raises(ValueError):
        StateSpec.build(alg, [np.array([[1.5, 0.0], [0.0, -0.5]])])  # not psd
    with pytest.raises(ValueError):
        StateSpec.build(alg, [np.array([[0.5, 1.0], [0.0, 0.5]])])  # not hermitian


def test_gns_dimension_and_cyclic_examples():
    alg = FiniteDimAlgebra((1, 1))
    st = StateSpec.build(alg, [np.array([[0.5]]), np.array([[0.5]])])
    rep = gns(alg, st)
    assert rep.dim == 2 and rep.cyclic_index == 0
    xi = rep.vector(alg.one())
    assert np.allclose(xi, np.array([1.0, 0.0]))

    m2 = FiniteDimAlgebra((2,))
    rep2 = gns(m2, StateSpec.build(m2, [0.5 * np.eye(2)]))
    assert rep2.dim == 4


def test_gns_rejects_non_faithful():
    m2 = FiniteDimAlgebra((2,))
    st = StateSpec.build(m2, [np.diag([1.0, 0.0]).astype(complex)])
    with pytest.raises(ValueError, match="faithful"):
        gns(m2, st)


@pytest.mark.parametrize("blocks,density", [
    ((2,), [np.array([[0.7, 0.1j], [-0.1j, 0.3]])]),
    ((1, 2), [np.array([[0.4]]), np.array([[0.35, 0.05], [0.05, 0.25]], dtype=complex)]),
    ((1, 1), [np.array([[0.2]]), np.array([[0.8]])]),
])
def test_gns_identity_on_basis_pairs(blocks, density):
    alg = FiniteDimAlgebra(blocks)
    st = StateSpec.build(alg, density)
    rep = gns(alg, st)
    for a in alg.basis():
        for b in alg.basis():
            lhs = np.vdot(rep.vector(a), rep.vector(b))
            assert abs(lhs - st.omega(a.star() @ b)) < 1e-12


def test_gns_star_homomorphism_sampled():
    alg = FiniteDimAlgebra((2, 1))
    st = StateSpec.build(alg, [np.array([[0.4, 0.0], [0.0, 0.3]], dtype=complex), np.array([[0.3]])])
    rep = gns(alg, st)
    one = rep.matrix(alg.one())
    assert np.max(np.abs(one - np.eye(rep.dim))) < 1e-12
    for _ in range(8):
        x, y = _random_element(alg), _random_element(alg)
        assert np.max(np.abs(rep.matrix(x @ y) - rep.matrix(x) @ rep.matrix(y))) < 1e-10
        assert np.max(np.abs(rep.matrix(x + y) - rep.matrix(x) - rep.matrix(y))) < 1e-12
        assert np.max(np.abs(rep.matrix(x.star()) - rep.matrix(x).conj().T)) < 1e-10


def test_centered_examples():
    site = c2_site(0.3)
    alg, st = site.algebra, site.state
    assert centered(alg.one(), st).is_zero()
    a = alg.element([np.array([[1.0]]), np.array([[0.0]])])
    c = centered(a, st)
    assert abs(st.omega(c)) < 1e-14
    assert np.allclose(c.mats[0], [[0.7]]) and np.allclose(c.mats[1], [[-0.3]])
    # idempotent, linear
    assert (centered(c, st) - c).is_zero()


def test_optimal_q_examples_and_certificate():
    # unitary with omega(u) = 0 under a trace: q = 1
    site = m2_site()
    u = site.algebra.element([np.diag([1.0, -1.0]).astype(complex)])
    assert abs(optimal_q(u, site.state) - 1.0) < 1e-12

    site2 = c2_site(0.5)
    a = site2.algebra.element([np.array([[1.0]]), np.array([[-1.0]])])
    assert abs(optimal_q(a, site2.state) - 1.0) < 1e-12

    # generic centered element: eigen-solver value vs scalar grid brute force
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = _random_element(site.algebra, rng)
        a = centered(x, site.state)
        q = optimal_q(a, site.state)
        aa = a @ a.star()
        denom = site.state.omega(a.star() @ a).real
        lam = (aa - q * denom * site.algebra.one()).min_eig()
        assert lam >= -1e-12
        if q > 1e-12:
            worse = (aa - q * (1 + 1e-6) * denom * site.algebra.one()).min_eig()
            assert worse < 0


def test_optimal_q_rejects_bad_witnesses():
    site = m2_site()
    with pytest.raises(ValueError):
        optimal_q(site.algebra.zero(), site.state)
    with pytest.raises(ValueError):
        optimal_q(site.algebra.one(), site.state)


@pytest.mark.parametrize("blocks", [(1, 2), (2, 2)])
def test_signed_permutations_start_with_sign_diagonals(blocks):
    """The identity permutations lead the signed-permutation family, so the
    search tries every sign diagonal first, in product((1, -1)) order."""
    alg = FiniteDimAlgebra(blocks)
    slots = sum(blocks)
    head = list(itertools.islice(_perm_sign_candidates(alg), 2**slots))
    for mats, signs in zip(head, itertools.product((1, -1), repeat=slots), strict=True):
        offs = np.cumsum((0,) + blocks)
        for m, lo, hi in zip(mats, offs[:-1], offs[1:], strict=True):
            assert np.array_equal(m, np.diag(np.array(signs[lo:hi], dtype=complex)))


def test_centered_unitary_search_examples():
    site = c2_site(0.5)
    u, central = centered_unitary_search(site.algebra, site.state)
    assert abs(site.omega(u)) < 1e-12 and central
    assert np.allclose(u.mats[0], [[1.0]]) and np.allclose(u.mats[1], [[-1.0]])

    assert centered_unitary_search(c2_site(0.1).algebra, c2_site(0.1).state) is None

    site_tr = m2_site()
    u, central = centered_unitary_search(site_tr.algebra, site_tr.state)
    assert central and abs(site_tr.omega(u)) < 1e-12

    site_nt = m2_site([[0.7, 0.0], [0.0, 0.3]])
    found = centered_unitary_search(site_nt.algebra, site_nt.state)
    assert found is not None
    u, central = found
    assert abs(site_nt.omega(u)) < 1e-12
    assert not central
    assert (u @ u.star()).isclose(site_nt.algebra.one())


def test_commutant_examples():
    assert not commutant_is_trivial(c2_site(0.5).rep)
    assert not commutant_is_trivial(m2_site().rep)
    c1 = FiniteDimAlgebra((1,))
    rep = gns(c1, StateSpec.build(c1, [np.array([[1.0]])]))
    assert commutant_is_trivial(rep)


@pytest.mark.parametrize("q,p_expected", [(1.0, 0.0), (4.0, 1.5), (0.25, -1.5)])
def test_hecke_parameter_examples(q, p_expected):
    assert hecke_parameter(q) == p_expected


@pytest.mark.parametrize("q", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_hecke_quadratic_relation(q):
    alg, st, t = hecke_vertex(q)
    p = hecke_parameter(q)
    assert (t.star() - t).is_zero(1e-12)
    assert ((t @ t) - (alg.one() + p * t)).norm() < 1e-12
    assert abs(st.omega(t)) < 1e-12
    assert st.is_faithful()


def test_hecke_rejects_nonpositive_parameter():
    with pytest.raises(ValueError):
        hecke_vertex(0.0)
    with pytest.raises(ValueError):
        hecke_vertex(-2.0)


def test_hecke_gns_matches_generic_gns():
    for q in (0.25, 1.0, 3.0):
        alg, st, t = hecke_vertex(q)
        h = hecke_gns(q)
        g = gns(alg, st)
        p = hecke_parameter(q)
        assert np.array_equal(h.matrix(t), np.array([[0, 1], [1, p]], dtype=complex))
        for x in (t, alg.one(), t @ t):
            assert np.max(np.abs(h.matrix(x) - g.matrix(x))) < 1e-12


@pytest.mark.parametrize("blocks, density", [
    ((2,), [np.eye(2) * 0.5]),
    ((2,), [np.array([[0.6, 0.1], [0.1, 0.4]])]),
    ((1, 1), [np.array([[0.3]]), np.array([[0.7]])]),
    ((2, 1), [np.array([[0.4, 0.1j], [-0.1j, 0.3]]), np.array([[0.3]])]),
    ((3,), [np.diag([0.5, 0.3, 0.2])]),
])
def test_compiled_gns_matches_defining_formula(blocks, density):
    """matrix(x), one product with the images of the matrix units, agrees
    with the Kronecker formula to 1e-14 on the basis, the unit and random
    elements."""
    alg = FiniteDimAlgebra(blocks)
    st = StateSpec.build(alg, density)
    rep = gns(alg, st)
    rng = np.random.default_rng(5)
    for x in alg.basis() + [alg.one()] + [_random_element(alg, rng) for _ in range(6)]:
        want = naive_gns_matrix(alg, st, x)
        assert np.max(np.abs(rep.matrix(x) - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("q", [0.25, 1.0, 2.0, 3.0])
def test_compiled_hecke_gns_matches_defining_formula(q):
    alg, _, t = hecke_vertex(q)
    rep = hecke_gns(q)
    rng = np.random.default_rng(7)
    for x in alg.basis() + [alg.one(), t, t @ t] + [_random_element(alg, rng) for _ in range(6)]:
        want = naive_hecke_matrix(q, x)
        assert np.max(np.abs(rep.matrix(x) - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
