"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion."""
import itertools
import time
from pathlib import Path

import numpy as np

from gplab.algebras import hecke_parameter, hecke_vertex, site_from_hecke
from gplab.analysis import (
    ESTABLISHED,
    HYPOTHESES_FAIL,
    CRIT_FINDIM_SIMPLE,
    CRIT_TRACE_UNIQUE,
    CRIT_UNITARY_SIMPLE,
    main_identity_checks,
    simplicity_report,
    trace_report,
    traciality_probe,
    traciality_probe_checks,
)
from gplab.cli import main as cli_main
from gplab.elementary import (
    ElementaryTerm,
    expression_matrix,
    rewrite_to_elementary,
    signature,
    term_matrix,
    terms_matrix,
)
from gplab.fock import (
    TruncatedFock,
    expectation_diag,
    gauge_average,
    guarded_deviation,
    guarded_norm,
    lambda_op,
    offdiagonal_mass,
    tensor_split_check,
)
from gplab.graphs import SimplicialGraph
from gplab.growth import Region, classify, critical_t, growth_coefficients, sphere_counts
from gplab.lattice import act_on_q, lattice_projection
from gplab.system import GraphSystem
from gplab.words import coxeter_group

from util import (
    CYC4,
    CYC5,
    FREE2,
    FREE3,
    FREE4,
    K2,
    K3,
    PATH3,
    all_graphs,
    hecke_system,
    m2_site,
    mixed_system,
    naive_basis,
    occurrence_permutation,
    shuffle_class,
)

FIXTURES = Path(__file__).parent / "fixtures"


def report(number: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {number:02d} {name}: {detail}")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_01_growth_oracle_agreement():
    t0 = time.time()
    graphs = {"K3": K3, "free3": FREE3, "path3": PATH3, "cyc4": CYC4, "cyc5": CYC5, "free4": FREE4}
    ok = True
    for name, g in graphs.items():
        if growth_coefficients(g, 8) != sphere_counts(g, 8):
            ok = False
    elapsed = time.time() - t0
    report(1, "growth series oracle", ok and elapsed < 30, f"6 graphs to depth 8, {elapsed:.2f}s")


def test_criterion_02_coxeter_engine():
    graphs = [FREE3, PATH3, K3, CYC4]
    ok = True
    for graph in graphs:
        g = coxeter_group(graph)
        ball4 = g.ball_tuples(4)
        mul_cache: dict = {}

        def mul(x, y):
            got = mul_cache.get((x, y))
            if got is None:
                got = g.mul_tuple(x, y)
                mul_cache[(x, y)] = got
            return got

        # group axioms: associativity and inverses
        for u in ball4:
            inv = g.inv_tuple(u)
            ok &= mul(u, inv) == () and mul(inv, u) == ()
        for u in ball4:
            for v in ball4:
                uv = mul(u, v)
                for w in ball4:
                    ok &= mul(uv, w) == mul(u, mul(v, w))
        # partial order axioms on ball(4) via down-sets
        for x in ball4:
            dx = g.down_set(x)
            ok &= x in dx
            for y in dx:
                ok &= g.down_set(y) <= dx
                ok &= (x not in g.down_set(y)) or x == y
        # meet existence + correctness, join vs ball oracle
        for u in ball4:
            for w in ball4:
                m = g.meet_tuple(u, w)
                common = g.down_set(u) & g.down_set(w)
                ok &= m in common and all(y in g.down_set(m) for y in common)
                ok &= g.join_tuple(u, w) == g.join_via_ball(u, w)
        if not ok:
            break

    # unique-permutation property, all shuffle classes of length <= 8 words
    perm_ok = True
    for graph in all_graphs(3):
        g = coxeter_group(graph)
        seen = set()
        for n in range(9):
            for word in itertools.product(graph.vertices, repeat=n):
                if word in seen or len(g.reduce_tuple(word)) != n:
                    continue
                cls = shuffle_class(g, word)
                seen |= cls
                members = sorted(cls)
                for v in members:
                    for w in members:
                        sigma = occurrence_permutation(v, w)
                        perm_ok &= sigma is not None and tuple(v[s] for s in sigma) == w
    report(2, "Coxeter engine", ok and perm_ok, "ball(4) axioms on 4 graphs; permutations to length 8")


def _identity_systems():
    return [
        mixed_system(FREE3, hecke_q=1.0),
        mixed_system(PATH3, hecke_q=2.0),
        mixed_system(K3, hecke_q=2.0),
    ]


def test_criterion_03_main_identities_suite():
    tol = 1e-9
    worst = 0.0
    ok = True
    for sysm in _identity_systems():
        # three generators, each taking and evaluating 2 draws per case, and
        # each case's exact record
        for seed in (2024, 2025, 2026):
            checks = main_identity_checks(sysm, depth=4, rng=np.random.default_rng(seed))
            for c in checks:
                if c.skipped_reason is None:
                    worst = max(worst, float(c.value))
                ok &= c.passed
    report(3, "product identity suite", ok and worst <= tol, f"6 draws/case and exact records, 3 mixed systems, worst {worst:.2e}")


def test_criterion_04_conditional_expectation():
    sysm = hecke_system(FREE3, 2.0)
    space = sysm.space(4)
    rng = np.random.default_rng(99)
    _, _, t = hecke_vertex(2.0)
    worst_e = worst_avg = 0.0
    kernel_ok = True
    count = 0
    while count < 100:
        n = int(rng.integers(1, 4))
        x = None
        from gplab.fock import creation, diagonal, identity_op

        x = identity_op(space)
        for _ in range(n):
            v = int(rng.integers(0, 3))
            kind = int(rng.integers(0, 3))
            coef = complex(rng.standard_normal(), rng.standard_normal())
            if kind == 0:
                x = x @ (coef * lambda_op(space, v, t))
            elif kind == 1:
                x = x @ (coef * creation(space, v, t))
            else:
                x = x @ (identity_op(space) + coef * diagonal(space, v, t))
        if x.norm() < 1e-8:
            continue
        count += 1
        e = expectation_diag(x)
        worst_e = max(worst_e, guarded_deviation(expectation_diag(e), e))
        worst_e = max(worst_e, max(0.0, e.norm() - x.norm()))
        exx = expectation_diag(x.adjoint() @ x)
        lam_min = float(np.linalg.eigvalsh(0.5 * (exx.toarray() + exx.toarray().conj().T)).min())
        worst_e = max(worst_e, max(0.0, -lam_min))
        kernel_ok &= exx.norm() > 1e-12  # faithfulness on nonzero operators
        worst_avg = max(worst_avg, guarded_deviation(gauge_average(x, 2 * space.n + 1), e))
    ok = worst_e <= 1e-10 and worst_avg <= 1e-12 and kernel_ok
    report(4, "conditional expectation", ok,
           f"100 ops: E-properties {worst_e:.2e} (tol 1e-10), average match {worst_avg:.2e} (tol 1e-12)")


def test_criterion_05_signature_diagonality_exhaustive():
    sysm = hecke_system(FREE3, 2.0)
    space = sysm.space(4)
    g = sysm.group
    alg, _, t = hecke_vertex(2.0)
    diag_choices = [alg.one(), t]
    ok = True
    checked = 0
    words4 = g.ball_tuples(4)
    for cw in words4:
        for aw in words4:
            rem = 4 - len(cw) - len(aw)
            if rem < 0:
                continue
            diag_opts = [()]
            for v in FREE3.vertices:
                diag_opts = diag_opts + [
                    d + ((v, c),)
                    for d in diag_opts
                    for c in diag_choices
                    if len(d) < rem and all(u != v for u, _ in d) and sysm.graph.is_clique([u for u, _ in d] + [v])
                ]
            for dpart in diag_opts:
                if len(cw) + len(aw) + len(dpart) > 4:
                    continue
                term = ElementaryTerm(
                    tuple((v, t) for v in cw), tuple(sorted(dpart)), tuple((v, t) for v in aw)
                )
                m = term_matrix(term, space)
                if guarded_norm(m) <= 1e-12:
                    continue
                checked += 1
                diag_iff = (offdiagonal_mass(m) <= 1e-12) == (signature(term, sysm) == ())
                ok &= diag_iff
    report(5, "signature vs diagonality", ok and checked >= 200, f"{checked} nonzero terms of length <= 4")


def test_criterion_06_rewrite_engine_200_expressions():
    sysm = mixed_system(PATH3, hecke_q=2.0)
    space = sysm.space(5)
    rng = np.random.default_rng(606)
    worst = 0.0
    from gplab.elementary import Factor

    for _ in range(200):
        n = int(rng.integers(1, 9))
        factors = []
        moving = 0
        for _ in range(n):
            v = int(rng.integers(0, 3))
            kinds = ["diag", "qproj", "scalar"] + (["create", "annih", "elem"] if moving < 4 else [])
            k = kinds[int(rng.integers(0, len(kinds)))]
            if k == "scalar":
                factors.append(Factor("scalar", value=complex(rng.standard_normal(), rng.standard_normal())))
                continue
            if k in ("create", "annih", "elem"):
                moving += 1
            if k == "qproj":
                factors.append(Factor("qproj", v))
            else:
                factors.append(Factor(k, v, sysm.sites[v].random_element(rng, center=(k != "diag"))))
        terms = rewrite_to_elementary(factors, sysm)
        worst = max(worst, guarded_deviation(expression_matrix(factors, space), terms_matrix(terms, space)))
    report(6, "rewriting engine", worst <= 1e-9, f"200 expressions of length <= 8, worst {worst:.2e}")


def test_criterion_07_hecke_identification_exact():
    ok = True
    for q in (0.25, 1.0, 4.0):
        site = site_from_hecke(q)
        space = TruncatedFock(FREE3, {v: site.rep for v in FREE3.vertices}, 5)
        g = space.group
        _, _, t = hecke_vertex(q)
        p = hecke_parameter(q)
        words = [w for w, _ in naive_basis(space)]
        widx = {w: i for i, w in enumerate(words)}
        for s in FREE3.vertices:
            lam = lambda_op(space, s, t).toarray()
            h = np.zeros_like(lam)
            for j, w in enumerate(words):
                sw = g.mul_tuple((s,), w)
                if s in g.first_letters_tuple(w):
                    h[widx[sw], j] += 1.0
                    h[j, j] += p
                elif sw in widx:
                    h[widx[sw], j] += 1.0
            ok &= np.array_equal(lam, h)
    report(7, "Hecke operator identification", ok, "entrywise exact at depth 5 for q in {1/4, 1, 4}")


def test_criterion_08_lattice_products_and_action():
    ok = True
    for graph in (FREE3, PATH3, K3, CYC4):
        g = coxeter_group(graph)
        short = [w for w in g.ball_tuples(2)]
        proj = {w: lattice_projection(g, 6, w) for w in short}
        for u in short:
            for w in short:
                j = g.join_tuple(u, w)
                pj = lattice_projection(g, 6, j) if j is not None else np.zeros_like(proj[u])
                ok &= np.array_equal(proj[u] * proj[w], pj)
        # action trichotomy exhaustive for |w| <= 5
        for v in graph.vertices:
            for w in g.ball_tuples(5):
                in_c = g.commutes_tuple(w, v)
                starts = g.leq_tuple((v,), w)
                cases = [not in_c, in_c and starts, in_c and not starts]
                ok &= sum(cases) == 1
                sym = act_on_q(g, v, w)
                if not in_c:
                    ok &= sym.terms == ((1, g.mul_tuple((v,), w)),)
                elif starts:
                    ok &= sym.terms == ((1, g.mul_tuple((v,), w)), (-1, w))
                else:
                    ok &= sym.terms == ((1, w),)
    report(8, "projection lattice", ok, "P_u P_w = P_join exact on depth-6 balls; action trichotomy to |w|=5")


def test_criterion_09_tensor_decomposition():
    site = site_from_hecke(2.0)
    r1 = tensor_split_check(TruncatedFock(K2, {0: site.rep, 1: site.rep}, 4), [0])
    # the join of one vertex with two free vertices: the 3-path through vertex 0
    star = SimplicialGraph.build([0, 1, 2], [(0, 1), (0, 2)])
    m2 = m2_site()
    r2 = tensor_split_check(TruncatedFock(star, {0: site.rep, 1: m2.rep, 2: site.rep}, 4), [0])
    ok = r1 <= 1e-12 and r2 <= 1e-12
    report(9, "tensor decomposition", ok, f"K2 dev {r1:.2e}, join dev {r2:.2e}")


def test_criterion_10_convergence_classification():
    t1 = critical_t(FREE3, {v: 1.0 for v in FREE3.vertices})
    c1 = classify(FREE3, {v: 1.0 for v in FREE3.vertices})
    t2 = critical_t(FREE2, {0: 1.0, 1: 1.0})
    c2 = classify(FREE2, {0: 1.0, 1: 1.0})
    t3 = critical_t(FREE3, {v: 0.1 for v in FREE3.vertices})
    c3 = classify(FREE3, {v: 0.1 for v in FREE3.vertices})
    ok = (
        abs(t1 - 0.5) <= 1e-9 and c1.region is Region.OUTSIDE
        and abs(t2 - 1.0) <= 1e-9 and c2.region is Region.BOUNDARY
        and abs(t3 - 5.0) <= 1e-8 and c3.region is Region.INSIDE
    )
    report(10, "convergence classification", ok, f"t* = {t1:.10f}, {t2:.10f}, {t3:.9f}")


def test_criterion_11_verdict_pipeline(tmp_path):
    sys_m2 = GraphSystem(FREE3, {v: m2_site() for v in FREE3.vertices})
    wit = {v: sys_m2.sites[v].algebra.element([np.diag([1.0, -1.0]).astype(complex)]) for v in FREE3.vertices}
    v1 = simplicity_report(sys_m2, wit)
    v1trace = trace_report(sys_m2, traciality_probe_checks(sys_m2, 4, 0), wit)
    v2 = simplicity_report(hecke_system(FREE3, 1.0))
    v3 = simplicity_report(hecke_system(FREE3, 0.1))
    v4 = simplicity_report(hecke_system(PATH3, 2.0))
    branch_ok = (
        v1.result == ESTABLISHED and CRIT_UNITARY_SIMPLE in v1.citations
        and v1trace.result == ESTABLISHED and CRIT_TRACE_UNIQUE in v1trace.citations
        and v2.result == ESTABLISHED and CRIT_FINDIM_SIMPLE in v2.citations
        and v3.result == HYPOTHESES_FAIL
        and len(v4.children) == 2
    )
    t0 = time.time()
    codes = []
    for name in ("m2_trace_edgeless3", "hecke_q1_edgeless3", "hecke_inside_edgeless3"):
        out = tmp_path / f"{name}.json"
        codes.append(cli_main(["report-all", "--config", str(FIXTURES / f"{name}.json"), "--out", str(out)]))
    elapsed = time.time() - t0
    ok = branch_ok and codes == [0, 0, 0] and elapsed < 300
    report(11, "verdict pipeline", ok, f"branches correct; report-all on 3 fixtures in {elapsed:.1f}s")


def test_criterion_12_traciality_probe():
    tracial = GraphSystem(FREE3, {v: m2_site() for v in FREE3.vertices})
    worst = traciality_probe(tracial, depth=4, seed=12)
    nt = GraphSystem(FREE3, {0: m2_site([[0.7, 0], [0, 0.3]]), 1: m2_site(), 2: m2_site()})
    violation = traciality_probe(nt, depth=3, seed=12)
    ok = worst <= 1e-10 and violation > 1e-3
    report(12, "traciality probe", ok, f"tracial worst {worst:.2e}, non-tracial violation {violation:.2e}")
