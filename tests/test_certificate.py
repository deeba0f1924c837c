"""The exact certificate of the product identities (gplab.certificate): its
tables against a dense oracle of the matrix units, the unit relations by
dense products, faults that move one table entry or perturb one GNS image
entry, and the pairing of every sampled identity record with its exact
record."""
from pathlib import Path

import numpy as np
import pytest

from gplab import analysis as an
from gplab import certificate as ct
from gplab import fock
from gplab.config import load_config
from gplab.system import GraphSystem
from util import FREE3, PATH3, m2_site, mixed_system, naive_units

SYSTEMS = {
    "edgeless": lambda: mixed_system(FREE3, hecke_q=2.0),
    "join": lambda: mixed_system(PATH3, hecke_q=1.0),
    "m2": lambda: GraphSystem(FREE3, {v: m2_site() for v in FREE3.vertices}),
}
DEPTH = 3
FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))


def _dense(tab: ct.SideTable) -> np.ndarray:
    """The units a recovered table stands for, as naive_units lays them out."""
    dim, dv = tab.targets.shape
    units = np.zeros((dv, dv, dim, dim))
    j, t = np.nonzero(tab.targets >= 0)
    units[t, tab.slot[j], tab.targets[j, t], j] = 1.0
    return units


def _products(a: np.ndarray, b: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(a[t, s] @ b[t', s'])[:, cols] for all indices: (da, da, dim, db, db, |cols|)."""
    return np.tensordot(a, b[..., cols], axes=([3], [2]))


def _are_units(e: np.ndarray, cols: np.ndarray) -> bool:
    """E_ts E_t's' = delta_{s t'} E_ts', sum_t E_tt = 1 and E_ts* = E_st on
    the columns cols, by dense products."""
    dv, dim = e.shape[0], e.shape[2]
    want = np.zeros((dv, dv, dim, dv, dv, len(cols)))
    for s in range(dv):
        want[:, s, :, s] = e[..., cols].transpose(0, 2, 1, 3)
    return (
        np.array_equal(_products(e, e, cols), want)
        and np.array_equal(np.einsum("ttij->ij", e)[:, cols], np.eye(dim)[:, cols])
        and np.array_equal(e.transpose(1, 0, 3, 2)[..., cols], e[..., cols])
    )


def _commute(a: np.ndarray, b: np.ndarray, cols: np.ndarray) -> bool:
    return np.array_equal(_products(a, b, cols), _products(b, a, cols).transpose(3, 4, 2, 0, 1, 5))


def _guarded(space) -> np.ndarray:
    """The columns of word length <= N - 2, the guard of a product of two."""
    return space.cols_upto(space.n - 2)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_tables_match_the_dense_unit_oracle(name):
    """The (targets, slot) tables read back from the compiled patterns are
    the matrix units of the per-column list plan, entry for entry."""
    space = SYSTEMS[name]().space(DEPTH)
    for v in space.graph.vertices:
        for left in (True, False):
            tab = ct.side_table(space, v, left)
            assert tab.clashes == 0
            assert np.array_equal(_dense(tab), naive_units(space, v, left)), (v, left)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_unit_relations_hold_by_dense_products_and_the_certificate_agrees(name):
    """On the guarded columns the oracle's units are matrix units, commute
    where the graph product says they do, and a creation of v lands where a
    non-adjacent u has no letter to act on; the certificate finds no break
    of any fact."""
    sysm = SYSTEMS[name]()
    space = sysm.space(DEPTH)
    graph, cols = space.graph, _guarded(space)
    units = {(v, left): naive_units(space, v, left) for v in graph.vertices for left in (True, False)}
    for e in units.values():
        assert _are_units(e, cols)
    for u in graph.vertices:
        lam = units[u, True]
        head = np.einsum("ssij->ij", lam[1:, 1:])
        assert np.array_equal(head, fock.q_projection(space, (u,)).toarray())
        for v in graph.vertices:
            if u == v:
                continue
            assert _commute(lam, units[v, False], cols)
            if graph.adjacent(u, v):
                assert _commute(lam, units[v, True], cols)
            else:
                assert not np.any(np.tensordot(head, units[v, True][1:, 0][..., cols], axes=([1], [1])))
    for fact in ct._FACTS:
        assert ct.breaks(space, fact, an.IDENTITY_TOL) == 0, fact


def test_the_commutation_fact_can_fail():
    """A non-adjacent lambda pair, and lambda_v with rho_v, do not commute:
    densely and in the tables alike."""
    space = SYSTEMS["m2"]().space(DEPTH)
    cols = _guarded(space)
    for a, b in (((0, True), (1, True)), ((0, True), (0, False))):
        ta, tb = ct.side_table(space, *a), ct.side_table(space, *b)
        assert not _commute(_dense(ta), _dense(tb), cols)
        assert ct._commute_breaks(ta, tb) > 0


def _records(sysm) -> list[an.CheckRecord]:
    rng = np.random.default_rng(1)
    return an.main_identity_checks(sysm, DEPTH, rng) + an.rho_lambda_commutation_checks(sysm, DEPTH, rng)


def _failed_exact(records) -> set[str]:
    return {r.name for r in records if r.name.endswith(".exact") and not r.passed}


def _readers(records, facts: set[str]) -> set[str]:
    """The exact records, not n/a, that read one of the facts."""
    return {r.name for r in records if r.value != "n/a" and facts & set(an.EXACT.get(r.name, ()))}


@pytest.mark.parametrize("left", [True, False], ids=["lambda", "rho"])
def test_a_moved_target_fails_exactly_the_records_that_read_it(monkeypatch, left):
    """Move the vacuum's slot-1 target of vertex 0 on one side to the
    vector of the word (1,) in slot 1: the certificate and the dense
    relations of the recovered table both break, and the exact records that
    read that side's table fail, and no other.  Vertex 0's table on the
    other side is untouched."""
    sysm = SYSTEMS["m2"]()
    space = sysm.space(DEPTH)
    moved_to = space.index_of((1,), (1,))
    table = fock._side_table

    def moved(sp, v, side):
        targets, slot = table(sp, v, side)
        if sp is space and (v, side) == (0, left):
            targets = targets.copy()
            targets[0, 1] = moved_to
        return targets, slot

    monkeypatch.setattr(fock, "_side_table", moved)
    records = _records(sysm)
    assert not _are_units(_dense(ct.side_table(space, 0, left)), _guarded(space))
    reading = {"lambda_units", "commute", "mixed", "disjoint", "action"} if left else {"rho_units", "mixed"}
    assert _failed_exact(records) == _readers(records, reading)
    assert _failed_exact(records) >= ({"rho_lambda.commutation.exact"} if not left else {
        "creation.same_vertex_product_zero.exact", "diag_creation.nonadjacent_zero.exact",
        "projection_action.creation.exact", "rho_lambda.commutation.exact"})
    assert ct.breaks(space, "lambda_units" if left else "rho_units", an.IDENTITY_TOL) > 0
    assert ct.breaks(space, "rho_units" if left else "lambda_units", an.IDENTITY_TOL) == 0


def test_a_pattern_entry_reading_the_wrong_slot_breaks_the_units(monkeypatch):
    """The tables are read off the compiled pattern, not off _side_table:
    one entry of lambda_0's pattern that reads another column of m than its
    column's slot breaks the lambda units."""
    sysm = SYSTEMS["m2"]()
    space = sysm.space(DEPTH)
    pattern = fock._side_pattern

    def misread(sp, v, left, part, cut):
        got = pattern(sp, v, left, part, cut)
        if sp is space and (v, left, part, cut) == (0, True, "all", sp.n):
            src = got.src.copy()
            src[-1] = src[-1] - src[-1] % sp.reps[v].dim + (src[-1] + 1) % sp.reps[v].dim
            got = got._replace(src=src)
        return got

    monkeypatch.setattr(fock, "_side_pattern", misread)
    assert ct.breaks(space, "lambda_units", an.IDENTITY_TOL) > 0
    assert ct.breaks(space, "rho_units", an.IDENTITY_TOL) == 0


@pytest.mark.parametrize("word", [(0,), (0, 1)], ids=["Q_0", "Q_01"])
def test_a_wrong_projection_entry_fails_exactly_the_records_that_read_it(monkeypatch, word):
    """Q_w with the entry of w's first basis vector flipped to 0: the action
    fact breaks, and for w = (0,) the head fact too, so exactly their
    readers fail."""
    sysm = SYSTEMS["m2"]()
    space = sysm.space(DEPTH)
    q_projection = fock.q_projection
    flip = space.index_of(word, (1,) * len(word))

    def flipped(sp, w):
        got = q_projection(sp, w)
        if sp is space and tuple(w) == word:
            values = fock._mat.to_dense(got.mat).diagonal().copy()
            values[flip] = 0.0
            got = fock.OperatorMatrix(sp, fock._mat.diag(values), sp.n, 0, 0)
        return got

    monkeypatch.setattr(fock, "q_projection", flipped)
    records = _records(sysm)
    facts = {"head", "action"} if len(word) == 1 else {"action"}
    assert _failed_exact(records) == _readers(records, facts)
    assert "projection_action.creation.exact" in _failed_exact(records)


def test_a_perturbed_gns_entry_fails_exactly_the_records_that_read_it(monkeypatch):
    """One entry of vertex 0's compiled GNS images, off by 1e-6, breaks pi
    on the matrix units: the two exact records that read the gns fact fail,
    and no other exact record does."""
    sysm = SYSTEMS["m2"]()
    rep = sysm.sites[0].rep
    images = rep._images.copy()
    images[0, 0] += 1e-6
    monkeypatch.setattr(rep, "_images", images)
    records = _records(sysm)
    assert _failed_exact(records) == _readers(records, {"gns"}) == {
        "diag_creation.same_vertex.exact", "annih_creation.same_vertex.exact"}


@pytest.mark.parametrize("fixture", FIXTURES, ids=[p.stem for p in FIXTURES])
@pytest.mark.parametrize("depth", [0, 1, 3])
def test_every_sampled_identity_has_its_exact_record(fixture, depth):
    """Each sampled record of the identities and rho_lambda rows is followed,
    in the same row and order, by its exact counterpart, n/a with its reason
    exactly where it is n/a; every exact record is in EXACT, and every
    certificate fact is read by one."""
    cfg = load_config(fixture)
    suite = an.identity_suite(cfg.system, depth=depth, seed=1)
    emitted = set()
    for row in ("identities", "rho_lambda"):
        records = suite.groups[row]
        sampled = [r for r in records if not r.name.endswith(".exact")]
        exact = records[len(sampled):]
        assert [r.name for r in exact] == [f"{r.name}.exact" for r in sampled]
        for s, e in zip(sampled, exact):
            assert (e.value == "n/a") == (s.value == "n/a") and e.skipped_reason == s.skipped_reason
        emitted |= {r.name for r in exact}
    assert emitted == set(an.EXACT)
    assert {fact for reads in an.EXACT.values() for fact in reads} == set(ct._FACTS)
