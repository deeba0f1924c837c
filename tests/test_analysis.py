from pathlib import Path

import numpy as np
import pytest

from gplab.algebras import FiniteDimAlgebra, StateSpec, site_from_state
from gplab.analysis import (
    ESTABLISHED,
    HYPOTHESES_FAIL,
    INCONCLUSIVE,
    CRIT_FINDIM_SIMPLE,
    CRIT_PRODUCT_NUC,
    CRIT_TRACE_NONE,
    CRIT_TRACE_UNIQUE,
    CRIT_UNITARY_SIMPLE,
    _positivity_violation,
    find_witness,
    identity_suite,
    nuclearity_exactness_report,
    simplicity_report,
    trace_report,
)
from gplab import analysis as an
from gplab import fock as fk
from gplab.config import load_config
from gplab.errors import ShallowTruncationError
from gplab.system import GraphSystem

from util import FREE3, PATH3, hecke_system, m2_site, mixed_system, naive_hermitian_min_eig


def m2_trace_system():
    return GraphSystem(FREE3, {v: m2_site() for v in FREE3.vertices})


def diag_unitary(site):
    return site.algebra.element([np.diag([1.0, -1.0]).astype(complex)])


def probe(sysm):
    """The vacuum-trace probe record that the trace verdict carries, at
    depth 4 and seed 0."""
    return an.traciality_probe_checks(sysm, 4, 0)


def test_simplicity_m2_trace_with_supplied_unitaries():
    sysm = m2_trace_system()
    wit = {v: diag_unitary(sysm.sites[v]) for v in FREE3.vertices}
    v = simplicity_report(sysm, wit)
    assert v.result == ESTABLISHED
    assert CRIT_UNITARY_SIMPLE in v.citations
    qs = {e.name: e.value for e in v.evidence}
    for name in ("q[0]", "q[1]", "q[2]"):
        assert abs(qs[name] - 1.0) < 1e-12
    assert qs["region"] == "OutsideClosure"


def test_simplicity_hecke_q1_finite_dimensional_branch():
    sysm = hecke_system(FREE3, 1.0)
    v = simplicity_report(sysm)
    assert v.result == ESTABLISHED
    assert CRIT_FINDIM_SIMPLE in v.citations


def test_simplicity_inside_region_fails_hypotheses():
    sysm = hecke_system(FREE3, 0.1)
    v = simplicity_report(sysm)
    assert v.result == HYPOTHESES_FAIL
    vals = {e.name: e.value for e in v.evidence}
    assert vals["region"] == "InsideRegion"
    # no claim of non-simplicity in the notes
    assert any("No claim" in n for n in v.notes)


def test_simplicity_join_decomposition_recurses():
    sysm = hecke_system(PATH3, 2.0)
    v = simplicity_report(sysm)
    assert len(v.children) == 2
    assert v.result == INCONCLUSIVE  # both factors are too small for the criteria
    for child in v.children:
        assert child.result == INCONCLUSIVE


def test_simplicity_rejects_uncentered_witness():
    sysm = m2_trace_system()
    bad = {0: sysm.sites[0].algebra.one()}
    with pytest.raises(ValueError):
        simplicity_report(sysm, bad)


def test_verdict_monotone_when_witness_removed():
    """Dropping a supplied witness may change the citation but the verdict
    must stay Established or degrade to Inconclusive, and the branch is
    always recorded."""
    sysm = m2_trace_system()
    wit = {v: diag_unitary(sysm.sites[v]) for v in FREE3.vertices}
    with_wit = simplicity_report(sysm, wit)
    without = simplicity_report(sysm)
    assert with_wit.result == ESTABLISHED
    assert without.result in (ESTABLISHED, INCONCLUSIVE)
    assert without.citations  # branch recorded, never silent
    assert any("branch" in n for n in without.notes)


def test_trace_unique_for_tracial_states():
    sysm = m2_trace_system()
    v = trace_report(sysm, probe(sysm), {w: diag_unitary(sysm.sites[w]) for w in FREE3.vertices})
    assert v.result == ESTABLISHED and CRIT_TRACE_UNIQUE in v.citations
    # the search family also finds the unitaries unaided
    v2 = trace_report(sysm, probe(sysm))
    assert v2.result == ESTABLISHED and CRIT_TRACE_UNIQUE in v2.citations


def test_trace_none_for_nontracial_vertex():
    sites = {0: m2_site([[0.7, 0], [0, 0.3]]), 1: m2_site(), 2: m2_site()}
    sysm = GraphSystem(FREE3, sites)
    v = trace_report(sysm, probe(sysm))
    assert v.result == ESTABLISHED and CRIT_TRACE_NONE in v.citations


def test_trace_inconclusive_without_kernel_unitary():
    sysm = hecke_system(FREE3, 0.25)  # unequal weights: no kernel unitary exists
    v = trace_report(sysm, probe(sysm))
    assert v.result == INCONCLUSIVE


def test_trace_rejects_bad_witness():
    sysm = m2_trace_system()
    with pytest.raises(ValueError):
        trace_report(sysm, probe(sysm), {0: sysm.sites[0].algebra.one()})


def test_trace_rejects_witness_that_config_rejects():
    """trace_report tests a supplied witness as the config does: the
    unitary diag(e^{i theta}, -e^{-i theta}) with theta = 1e-9 has |omega(u)|
    = sin(theta) = 1e-9 under the trace, past the centering tolerance 1e-10."""
    sysm = m2_trace_system()
    theta = 1e-9
    alg = sysm.sites[0].algebra
    u = alg.element([np.diag([np.exp(1j * theta), -np.exp(-1j * theta)])])
    assert u.is_unitary() and abs(sysm.sites[0].omega(u)) > 1e-10
    with pytest.raises(ValueError, match="centered"):
        trace_report(sysm, probe(sysm), {0: u})


def test_nuclearity_report_branches():
    c1 = FiniteDimAlgebra((1,))
    triv = site_from_state(c1, StateSpec.build(c1, [np.array([[1.0]])]))
    sys_triv = GraphSystem(FREE3, {v: triv for v in FREE3.vertices})
    v = nuclearity_exactness_report(sys_triv)
    assert v.result == ESTABLISHED and CRIT_PRODUCT_NUC in v.citations

    sys_m2 = m2_trace_system()
    v2 = nuclearity_exactness_report(sys_m2)
    assert v2.result == ESTABLISHED
    assert CRIT_PRODUCT_NUC not in v2.citations
    assert any("irreducibility hypothesis unmet" in n for n in v2.notes)


def test_find_witness_prefers_supplied():
    sysm = m2_trace_system()
    u = diag_unitary(sysm.sites[0])
    w = find_witness(sysm, 0, u)
    assert w.supplied and w.is_unitary and w.is_central and abs(w.q - 1.0) < 1e-12
    w2 = find_witness(sysm, 0)
    assert not w2.supplied and w2.q > 0


def test_identity_suite_passes_on_mixed_system():
    sysm = mixed_system(FREE3, hecke_q=2.0)
    report = identity_suite(sysm, depth=3, seed=5)
    failed = [c.name for c in report.checks if not c.passed]
    assert report.passed, failed
    blob = report.to_json()
    assert blob["passed"] and blob["seed"] == 5


@pytest.mark.parametrize("fault", an.FAULTS)
def test_identity_suite_detects_seeded_fault(fault):
    sysm = hecke_system(FREE3, 2.0)
    report = identity_suite(sysm, depth=3, seed=1, corrupt=fault)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"rewrite": {"rewrite.certificate"}, "identities": {"annih_creation.same_vertex"}}[fault]


# The rows with exact records that draw from the shared stream, in suite order.
STREAM_ROWS = (an.main_identity_checks, an.gauge_covariance_checks, an.diagonality_checks,
               an.conjugation_positivity_checks, an.rho_lambda_commutation_checks)


def _stream_end(monkeypatch, sysm, depth: int, smoke: int, seed: int = 4):
    """The generator state after the STREAM_ROWS, each evaluating `smoke`
    draws, and each row's n/a reasons: its records' or, where the row is too
    shallow as a whole, the error's."""
    monkeypatch.setattr(an, "SMOKE_DRAWS", smoke)
    rng = np.random.default_rng(seed)
    reasons = []
    for row in STREAM_ROWS:
        try:
            reasons.append([r.skipped_reason for r in row(sysm, depth, rng)])
        except ShallowTruncationError as exc:
            assert depth < 3
            reasons.append(str(exc))
    return rng.bit_generator.state, reasons


@pytest.mark.parametrize("depth", [1, 3])
def test_smoke_draws_leave_the_stream_where_full_draws_do(monkeypatch, depth):
    """The identities, gauge, signature, conjugation and rho_lambda rows
    evaluate SMOKE_DRAWS of their draws and only advance the stream past the
    others: it ends where it ends when every draw is evaluated, and each row
    reports the same n/a reasons, so no later row's samples move.  At depth
    1 some cases stop drawing at their first, too shallow, draw, and the
    conjugation and rho_lambda rows are n/a at theirs.  On the edgeless
    graph the conjugation row draws from two shifted words."""
    smoke_draws = an.SMOKE_DRAWS
    for graph in (PATH3, FREE3):
        sysm = mixed_system(graph, hecke_q=2.0)
        assert _stream_end(monkeypatch, sysm, depth, smoke_draws) == _stream_end(monkeypatch, sysm, depth, 30)


@pytest.mark.parametrize("row", [an.gauge_covariance_checks, an.diagonality_checks], ids=["gauge", "signature"])
def test_a_skipped_draw_is_as_shallow_as_its_evaluation(monkeypatch, row):
    """At depth 1 an elementary term with two creations has guard -1.  Drawn
    from seed 1, the row's first such term comes in a skipped draw, past the
    first SMOKE_DRAWS: that draw raises ShallowTruncationError with the
    reason and at the stream position at which evaluating it raises."""
    sysm = mixed_system(PATH3, hecke_q=2.0)
    random_factors = an.el.random_factors
    draws = []

    def counted(*args, **kwargs):
        draws.append(True)
        return random_factors(*args, **kwargs)

    monkeypatch.setattr(an.el, "random_factors", counted)

    def run(smoke):
        monkeypatch.setattr(an, "SMOKE_DRAWS", smoke)
        draws.clear()
        rng = np.random.default_rng(1)
        with pytest.raises(ShallowTruncationError) as exc:
            row(sysm, 1, rng)
        return str(exc.value), rng.bit_generator.state, len(draws)

    smoke_draws = an.SMOKE_DRAWS
    smoke = run(smoke_draws)
    assert smoke == run(30)
    assert smoke[2] > smoke_draws


def test_identity_suite_rejects_a_fault_no_group_takes():
    sysm = hecke_system(FREE3, 2.0)
    for fault in ("expectation", "nonsense"):
        with pytest.raises(ValueError, match="no fault"):
            identity_suite(sysm, depth=3, corrupt=fault)


def test_identity_suite_deterministic():
    sysm = hecke_system(FREE3, 2.0)
    r1 = identity_suite(sysm, depth=3, seed=9)
    r2 = identity_suite(sysm, depth=3, seed=9)
    v1 = [(c.name, c.value) for c in r1.checks]
    v2 = [(c.name, c.value) for c in r2.checks]
    assert v1 == v2


FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))


@pytest.mark.parametrize("fixture", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_suite_table_names_what_each_group_reports(monkeypatch, fixture):
    """Each SUITE row with n/a names reports exactly those checks, in table
    order: all n/a at depth 0, where no operator has a guarded column, and
    the same names at the fixture's own truncation."""
    cfg = load_config(fixture)
    rows = [g for g in an.SUITE if g.shallow]
    assert rows
    for group in rows:
        monkeypatch.setattr(an, "SUITE", (group,))
        for depth in (0, cfg.truncation):
            checks = identity_suite(cfg.system, depth=depth, seed=1).checks
            assert [c.name for c in checks] == list(group.shallow), (group.name, depth)
            if depth == 0:
                assert all(c.value == "n/a" and c.passed for c in checks), group.name


def test_lattice_checks_in_suite():
    from gplab.analysis import lattice_checks

    sysm = hecke_system(FREE3, 2.0)
    recs = lattice_checks(sysm, 3)
    names = {r.name for r in recs}
    assert "lattice.identification" in names and "lattice.projection_products" in names
    assert all(r.passed for r in recs)


def test_simplicity_single_factor_has_no_children():
    v = simplicity_report(hecke_system(FREE3, 1.0))
    assert v.children == []
    assert v.seeds == [0]


def test_nuclearity_single_vertex_graph():
    from gplab.graphs import SimplicialGraph

    k1 = SimplicialGraph.build([0], [])
    v = nuclearity_exactness_report(GraphSystem(k1, {0: m2_site()}))
    assert v.result == ESTABLISHED


@pytest.mark.parametrize("depth", [3, 4])
def test_positivity_violation_matches_guarded_block_oracle(depth):
    """The conjugation checks' violation, read off the components of the
    guarded principal block, equals minus the smallest eigenvalue of the
    whole dense block's Hermitian part (or 0), for dominated pairs and for
    pairs whose right side is cut to a quarter, which violate."""
    sysm = m2_trace_system()
    space = sysm.space(depth)
    rng = np.random.default_rng(107)
    qperp = fk.identity_op(space) - fk.q_projection(space, (0,))
    found = 0.0
    for v in FREE3.vertices:
        a = sysm.sites[v].random_element(rng)
        lam = fk.lambda_op(space, v, a)
        lhs = lam.adjoint() @ qperp @ lam
        omega = sysm.sites[v].state.omega(a @ a.star()).real
        for rhs in (omega * fk.q_projection(space, (v,)), 0.25 * omega * fk.q_projection(space, (v,)), fk.zero_op(space)):
            idx = space.cols_upto(min(lhs.guard, rhs.guard))
            block = (rhs - lhs).toarray()[np.ix_(idx, idx)]
            want = max(0.0, -naive_hermitian_min_eig(block))
            got = _positivity_violation(lhs, rhs)
            assert abs(got - want) <= 1e-12 * max(1.0, want)
            found = max(found, got)
    assert found > 1e-3


# -- evidence-gated verdicts ---------------------------------------------------------
# A verdict whose evidence holds a failed record is Inconclusive, naming the
# record, in every pipeline.


def _m2_fixture():
    return load_config(Path(__file__).parent / "fixtures" / "m2_trace_edgeless3.json")


def _fail_record(monkeypatch, name: str):
    """Every evidence record called `name` comes out failed, as if its check
    had failed."""
    real = an.CheckRecord

    def record(*args, **kwargs):
        rec = real(*args, **kwargs)
        if rec.name == name:
            rec.passed = False
        return rec

    monkeypatch.setattr(an, "CheckRecord", record)


def _assert_gated(verdict, name: str):
    assert verdict.result == INCONCLUSIVE
    assert [e.name for e in verdict.evidence if not e.passed] == [name]
    assert any(name in note for note in verdict.notes)


def test_trace_with_failed_probe_is_not_established(monkeypatch):
    cfg = _m2_fixture()

    def verdict():
        probe = an.traciality_probe_checks(cfg.system, 3, 1)
        return trace_report(cfg.system, probe, cfg.unitary_witnesses, cfg.names, 1)

    assert verdict().result == ESTABLISHED
    monkeypatch.setattr(an, "traciality_probe", lambda *a, **k: 1.0)
    _assert_gated(verdict(), "trace.vacuum_probe")


def test_simplicity_with_failed_evidence_is_not_established(monkeypatch):
    cfg = _m2_fixture()
    args = (cfg.system, cfg.witnesses, cfg.names, 1, 3)
    assert simplicity_report(*args).result == ESTABLISHED
    _fail_record(monkeypatch, "complement_connected")
    _assert_gated(simplicity_report(*args), "complement_connected")


def test_nuclearity_with_failed_evidence_is_not_established(monkeypatch):
    cfg = _m2_fixture()
    assert nuclearity_exactness_report(cfg.system, cfg.names).result == ESTABLISHED
    _fail_record(monkeypatch, "faithful[a]")
    _assert_gated(nuclearity_exactness_report(cfg.system, cfg.names), "faithful[a]")
