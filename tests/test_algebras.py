import itertools

import numpy as np
import pytest

from gplab.algebras import (
    _perm_sign_candidates,
    FiniteDimAlgebra,
    StateSpec,
    VertexSite,
    centered,
    centered_unitary_search,
    commutant_is_trivial,
    gns,
    hecke_gns,
    hecke_parameter,
    hecke_vertex,
    optimal_q,
    site_from_hecke,
    site_from_state,
)

from util import (
    c2_site,
    m2_site,
    naive_add,
    naive_commutant_dim,
    naive_blocks,
    naive_centered,
    naive_gns_matrix,
    naive_hecke_matrix,
    naive_is_zero,
    naive_matmul,
    naive_min_eig,
    naive_norm,
    naive_off_block_is_zero,
    naive_omega,
    naive_random_blocks,
    naive_scale,
    naive_star,
    naive_sub,
)

RNG = np.random.default_rng(42)


def _random_element(alg, rng=RNG):
    return alg.element(naive_random_blocks(alg, rng))


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
    assert rep.dim == 2
    xi = rep.matrix(alg.one())[:, 0]
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
            lhs = np.vdot(rep.matrix(a)[:, 0], rep.matrix(b)[:, 0])
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
    assert np.allclose(naive_blocks(c), [[[0.7]], [[-0.3]]])
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
        optimal_q(0.0 * site.algebra.one(), site.state)
    with pytest.raises(ValueError):
        optimal_q(site.algebra.one(), site.state)


@pytest.mark.parametrize("blocks", [(1, 2), (2, 2)])
def test_signed_permutations_start_with_sign_diagonals(blocks):
    """The identity permutations lead the signed-permutation family, so the
    search tries every sign diagonal first, in product((1, -1)) order."""
    alg = FiniteDimAlgebra(blocks)
    slots = sum(blocks)
    head = list(itertools.islice(_perm_sign_candidates(alg), 2**slots))
    for m, signs in zip(head, itertools.product((1, -1), repeat=slots), strict=True):
        assert np.array_equal(m, np.diag(np.array(signs, dtype=complex)))


def test_centered_unitary_search_examples():
    site = c2_site(0.5)
    u, central = centered_unitary_search(site.algebra, site.state)
    assert abs(site.omega(u)) < 1e-12 and central
    assert np.allclose(naive_blocks(u), [[[1.0]], [[-1.0]]])

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


def _gns_of(blocks, *density):
    alg = FiniteDimAlgebra(blocks)
    return gns(alg, StateSpec.build(alg, [np.asarray(r) for r in density]))


@pytest.mark.parametrize("make", [
    lambda: _gns_of((1,), [[1.0]]),
    lambda: hecke_gns(1.0),
    lambda: hecke_gns(2.0),
    lambda: m2_site().rep,
    lambda: m2_site([[0.7, 0.1j], [-0.1j, 0.3]]).rep,
    lambda: _gns_of((2, 1), [[0.4, 0.1j], [-0.1j, 0.3]], [[0.3]]),
], ids=["C", "hecke_q1", "hecke_q2", "M2_trace", "M2_skew", "M2+C"])
def test_commutant_is_the_right_action(make):
    """The Kronecker oracle finds the commutant of a faithful state's GNS
    representation as large as the algebra, the right action's closed
    form, so it is trivial exactly on C, as commutant_is_trivial decides."""
    rep = make()
    assert naive_commutant_dim(rep) == rep.algebra.dim
    assert commutant_is_trivial(rep) == (naive_commutant_dim(rep) == 1)


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


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_hecke_site_builds_its_vertex_once(q, monkeypatch):
    """site_from_hecke builds one vertex, and its GNS representation lives on
    the site's own algebra and state, with the same matrices as
    hecke_gns(q)."""
    import gplab.algebras as algebras

    calls = [0]
    build = algebras.hecke_vertex

    def counted(*args):
        calls[0] += 1
        return build(*args)

    monkeypatch.setattr(algebras, "hecke_vertex", counted)
    site = site_from_hecke(q)
    assert calls[0] == 1
    assert site.rep.algebra is site.algebra and site.rep.state is site.state
    _, _, t = build(q)
    for x in site.algebra.basis() + [t]:
        assert np.array_equal(site.rep.matrix(x), hecke_gns(q).matrix(x))


def test_vertex_site_state_is_faithful_by_construction():
    """A VertexSite rejects a state that is not faithful, however it is
    built: directly, or through site_from_hecke at a q whose weight 1/(1+q)
    or q/(1+q) falls below PSD_TOL."""
    alg = FiniteDimAlgebra((2,))
    singular = StateSpec.build(alg, [np.diag([1.0, 0.0])])
    rep = gns(alg, StateSpec.build(alg, [0.5 * np.eye(2)]))
    with pytest.raises(ValueError, match="not faithful"):
        VertexSite(alg, singular, rep)
    for q in (1e13, 1e-13):
        with pytest.raises(ValueError, match="not faithful"):
            site_from_hecke(q)


def test_vertex_site_parts_share_its_algebra():
    """A VertexSite rejects a state or a GNS representation of another
    algebra, which would make the Fock space read the 5 x 5 GNS matrices of
    M2 + C for an element of M2, whose GNS matrices are 4 x 4."""
    a2, a3 = FiniteDimAlgebra((2,)), FiniteDimAlgebra((2, 1))
    st2 = StateSpec.build(a2, [0.5 * np.eye(2)])
    st3 = StateSpec.build(a3, [0.25 * np.eye(2), 0.5 * np.eye(1)])
    with pytest.raises(ValueError, match="site's algebra"):
        VertexSite(a2, st2, gns(a3, st3))
    with pytest.raises(ValueError, match="site's algebra"):
        VertexSite(a2, st3, gns(a2, st2))
    assert VertexSite(a2, st2, gns(a2, st2)).rep.dim == 4


def test_centrality_and_unitarity_predicates():
    """is_central(x) is omega(x b) = omega(b x) on every matrix unit b, and a
    state is tracial iff every matrix unit is central for it."""
    alg = FiniteDimAlgebra((2,))
    flip = alg.element([np.array([[0.0, 1.0], [1.0, 0.0]])])
    sign = alg.element([np.diag([1.0, -1.0])])
    tracial = StateSpec.build(alg, [0.5 * np.eye(2)])
    skew = StateSpec.build(alg, [np.diag([0.7, 0.3])])
    assert flip.is_unitary() and sign.is_unitary() and not (2.0 * sign).is_unitary()
    assert tracial.is_tracial() and tracial.is_central(flip) and tracial.is_central(sign)
    assert skew.is_central(sign) and not skew.is_central(flip) and not skew.is_tracial()


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


# -- one matrix per element, against the per-block oracles ----------------------------

ORACLE_SITES = {
    "hecke(1,1)": lambda: site_from_hecke(2.0),
    "m2(2,)": lambda: m2_site([[0.6, 0.1j], [-0.1j, 0.4]]),
    "(2,1)": lambda: site_from_state(
        FiniteDimAlgebra((2, 1)), StateSpec.build(FiniteDimAlgebra((2, 1)), [[[0.4, 0.1j], [-0.1j, 0.3]], [[0.3]]])
    ),
    "(1,2,1)": lambda: site_from_state(
        FiniteDimAlgebra((1, 2, 1)),
        StateSpec.build(FiniteDimAlgebra((1, 2, 1)), [[[0.2]], [[0.35, 0.05], [0.05, 0.25]], [[0.2]]]),
    ),
}
ULPS = 8 * np.finfo(float).eps


def _bit_equal(x, blocks) -> bool:
    """x holds exactly `blocks` (signs of zero included) and zeros off them."""
    got = naive_blocks(x)
    return naive_off_block_is_zero(x) and all(
        g.shape == b.shape and g.tobytes() == np.asarray(b, dtype=complex).tobytes() for g, b in zip(got, blocks)
    )


def _close(x, blocks, scale: float) -> bool:
    return naive_off_block_is_zero(x) and all(
        np.max(np.abs(g - b)) <= ULPS * scale for g, b in zip(naive_blocks(x), blocks)
    )


@pytest.mark.parametrize("name", sorted(ORACLE_SITES))
def test_element_operations_match_per_block_oracles(name):
    site = ORACLE_SITES[name]()
    alg, st = site.algebra, site.state
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, y = _random_element(alg, rng), _random_element(alg, rng)
        s = complex(rng.standard_normal(), rng.standard_normal())
        scale = max(np.max(np.abs(x.mat)), np.max(np.abs(y.mat)))
        assert _bit_equal(x + y, naive_add(x, y))
        assert _bit_equal(x - y, naive_sub(x, y))
        assert _bit_equal(s * x, naive_scale(s, x)) and _bit_equal(x * s, naive_scale(s, x))
        assert _bit_equal(x.star(), naive_star(x))
        assert _close(x @ y, naive_matmul(x, y), alg.dim * scale**2)
        assert abs(st.omega(x) - naive_omega(st, x)) <= ULPS * scale * alg.dim
        assert _close(site.centered(x), naive_centered(st, x), scale * alg.dim)
        h = x + x.star()
        assert abs(x.norm() - naive_norm(x)) <= ULPS * scale * alg.dim
        assert abs(h.min_eig() - naive_min_eig(h)) <= ULPS * scale * alg.dim
        for tol in (1e-13, 0.5 * scale, 2 * scale):
            assert x.is_zero(tol) == naive_is_zero(x, tol)
        assert (x - x).is_zero() and naive_is_zero(x - x)
        if site.hecke_q is not None:
            want = naive_hecke_matrix(site.hecke_q, x)
        else:
            want = naive_gns_matrix(alg, st, x)
        assert np.max(np.abs(site.rep.matrix(x) - want)) <= ULPS * scale * alg.dim


@pytest.mark.parametrize("name", sorted(ORACLE_SITES))
@pytest.mark.parametrize("center", [False, True])
def test_random_element_reads_the_per_block_draw_stream(name, center):
    """One draw of 2 * dim normals gives, bit for bit, the element that a
    real and an imaginary d x d draw per block gives, and leaves the
    generator where those draws leave it: every seed keeps its operands."""
    site = ORACLE_SITES[name]()
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            x = site.random_element(rng, center=center)
            want = site.algebra.element(naive_random_blocks(site.algebra, ref))
            if center:
                assert _bit_equal(site.centered(want), naive_blocks(x))
                assert _close(x, naive_centered(site.state, want), np.max(np.abs(want.mat)) * site.algebra.dim)
            else:
                assert _bit_equal(x, naive_blocks(want))
            assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("name", sorted(ORACLE_SITES))
def test_shared_unit_is_read_only_and_operands_are_never_written(name):
    site = ORACLE_SITES[name]()
    alg = site.algebra
    one = alg.one()
    assert one.mat is alg.one().mat
    with pytest.raises(ValueError):
        one.mat[0, 0] = 2.0
    x, y = _random_element(alg), _random_element(alg)
    for e in (x, y):
        e.mat.flags.writeable = False
    results = [
        x + y, x - y, 2.0 * x, x * 2.0, -x, x @ y, x.star(), site.centered(x), centered(one, site.state),
        one + x, one @ x, x - one, one.star(),
    ]
    for r in results:
        assert all(not np.shares_memory(r.mat, e.mat) for e in (x, y, one))
    assert np.array_equal(one.mat, np.eye(one.mat.shape[0]))
