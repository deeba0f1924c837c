"""The exact certificate of the suite's identities (gplab.certificate): its
tables against a dense oracle of the matrix units, the unit relations, and
what the units do to letter counts and words, by dense oracles; faults that
move one table entry, perturb the letter table, the word of one column or
one GNS image entry, flip one Q_w entry, swap two tails in the group's
cover table or drop one of its covers, or make the conditional
expectation or the gauge average keep the wrong entries; faults in the
rewrite engine's same-vertex rules; and the pairing of every sampled record
of a row with exact records with its exact record."""
import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest

from gplab import analysis as an
from gplab import certificate as ct
from gplab import _mat, elementary, fock, lattice, words
from gplab.config import load_config
from gplab.records import RECORDS
from gplab.system import GraphSystem
from util import FREE3, PATH3, m2_site, mixed_system, naive_left_product, naive_unit_moves, naive_units

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
    return np.arange(space.width(space.n - 2))


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
    of any fact but `tracial` on a non-tracial system."""
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
    # the tracial fact breaks exactly where some vertex state is not tracial
    tracial = all(site.state.is_tracial() for site in sysm.sites.values())
    for fact in ct._FACTS:
        assert (ct.breaks(space, fact, an.IDENTITY_TOL) == 0) == (fact != "tracial" or tracial), fact


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_letter_and_word_moves_match_the_dense_oracles(name):
    """Every entry of a unit E_ts of lambda_v moves its column's letter
    counts by ([t >= 1] - [s >= 1]) e_v, and its word w to v.w when that
    changes, and keeps w otherwise, by the dense oracles; the letters and
    words facts agree."""
    space = SYSTEMS[name]().space(DEPTH)
    for k, v in enumerate(space.graph.vertices):
        moves = naive_unit_moves(space, v)
        assert moves
        for adds, had, change, w, row_word in moves:
            assert change == tuple((int(adds) - int(had)) * (np.arange(len(change)) == k))
            assert row_word == (naive_left_product(space, v, w) if adds != had else w)
    assert ct.breaks(space, "letters", an.IDENTITY_TOL) == 0
    assert ct.breaks(space, "words", an.IDENTITY_TOL) == 0


def test_the_commutation_fact_can_fail():
    """A non-adjacent lambda pair, and lambda_v with rho_v, do not commute:
    densely and in the tables alike."""
    space = SYSTEMS["m2"]().space(DEPTH)
    cols = _guarded(space)
    for a, b in (((0, True), (1, True)), ((0, True), (0, False))):
        ta, tb = ct.side_table(space, *a), ct.side_table(space, *b)
        assert not _commute(_dense(ta), _dense(tb), cols)
        assert ct._commute_breaks(ta, tb) > 0


# The rows with exact records, run here on one generator.
ROWS = (an.main_identity_checks, an.rho_lambda_commutation_checks, an.gauge_covariance_checks,
        an.diagonality_checks, an.conjugation_positivity_checks, an.expectation_checks,
        an.rewrite_certificate_checks)


def _records(sysm) -> list[an.CheckRecord]:
    rng = np.random.default_rng(1)
    return [r for row in ROWS for r in row(sysm, DEPTH, rng)] + an.traciality_probe_checks(sysm, DEPTH, 1)


def _failed_exact(records) -> set[str]:
    return {r.name for r in records if r.name.endswith(".exact") and not r.passed}


def _readers(records, facts: set[str]) -> set[str]:
    """The exact records, not n/a, that read one of the facts."""
    return {r.name for r in records if r.value != "n/a" and facts & set(RECORDS[r.name].facts)}


@pytest.mark.parametrize("left", [True, False], ids=["lambda", "rho"])
def test_a_moved_target_fails_exactly_the_records_that_read_it(monkeypatch, left):
    """Move the vacuum's slot-1 target of vertex 0 on one side, the entry
    of the whole compiled pattern in column 0 that reads m[1, 0], to the
    vector of the word (1,) in slot 1: the certificate and the dense
    relations of the recovered table both break, and the exact records that
    read that side's table fail, and no other.  Vertex 0's table on the
    other side is untouched."""
    sysm = SYSTEMS["m2"]()
    space = sysm.space(DEPTH)
    moved_to = space.index_of((1,), (1,))
    pattern = fock._side_pattern

    def moved(sp, v, side, part, cut):
        got = pattern(sp, v, side, part, cut)
        if sp is space and (v, side, part, cut) == (0, left, "all", sp.n):
            rows = np.repeat(np.arange(sp.dim), np.diff(got.indptr))
            rows[(got.indices == 0) & (got.src == sp.reps[v].dim)] = moved_to
            order = np.lexsort((got.indices, rows))
            indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=sp.dim))))
            got = fock._SidePattern(indptr, got.indices[order], got.src[order])
        return got

    monkeypatch.setattr(fock, "_side_pattern", moved)
    records = _records(sysm)
    assert not _are_units(_dense(ct.side_table(space, 0, left)), _guarded(space))
    reading = {"lambda_units", "commute", "mixed", "disjoint", "action", "head", "letters", "words", "shift"} \
        if left else {"rho_units", "mixed"}
    assert _failed_exact(records) == _readers(records, reading)
    assert _failed_exact(records) >= ({"rho_lambda.commutation.exact"} if not left else {
        "creation.same_vertex_product_zero.exact", "diag_creation.nonadjacent_zero.exact",
        "projection_action.creation.exact", "rho_lambda.commutation.exact",
        "gauge.covariance_of_elementary_terms.exact", "signature.identity_terms_diagonal.exact",
        "conjugation.qperp_dominated.exact", "conjugation.shifted_dominated.exact", "trace.vacuum_probe.exact"})
    assert ct.breaks(space, "lambda_units" if left else "rho_units", an.IDENTITY_TOL) > 0
    assert ct.breaks(space, "rho_units" if left else "lambda_units", an.IDENTITY_TOL) == 0


def test_a_pattern_entry_reading_the_wrong_slot_breaks_the_units(monkeypatch):
    """The tables are read off the compiled pattern's sources as well as
    its positions: one entry of lambda_0's pattern that reads another column
    of m than its column's slot breaks the lambda units."""
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


@pytest.mark.parametrize("word", [(0,), (0, 1), (1, 0)], ids=["Q_0", "Q_01", "Q_10"])
def test_a_wrong_projection_entry_fails_exactly_the_records_that_read_it(monkeypatch, word):
    """Q_w's mask with the entry of w's first basis vector flipped to 0: the
    action fact breaks, for w = (0,) the head fact too, and for w = (1, 0),
    which is v.w for v = 1 and w = (0,), the shift fact; so exactly their
    readers fail."""
    sysm = SYSTEMS["m2"]()
    space = sysm.space(DEPTH)
    q_mask = fock.q_mask
    flip = space.index_of(word, (1,) * len(word))

    def flipped(sp, w):
        got = q_mask(sp, w)
        if sp is space and tuple(w) == word:
            got = got.copy()
            got[flip] = False
        return got

    monkeypatch.setattr(fock, "q_mask", flipped)
    records = _records(sysm)
    facts = {(0,): {"head", "action", "shift"}, (0, 1): {"action", "shift"}, (1, 0): {"action", "shift"}}[word]
    assert ct.breaks(space, "shift", an.IDENTITY_TOL) > 0
    assert _failed_exact(records) == _readers(records, facts)
    assert "projection_action.creation.exact" in _failed_exact(records)


def test_a_perturbed_letter_table_fails_exactly_the_records_that_read_it(monkeypatch):
    """One word block's count of vertex 0 off by one in the letter table:
    the letters fact breaks, and only the exact records of the gauge row and
    of the gauge average's match with E fail."""
    sysm = SYSTEMS["m2"]()
    space = sysm.space(DEPTH)
    table = fock._letter_table
    block = list(space._spans).index((1, 2))

    def perturbed(sp):
        letters, counts = table(sp)
        if sp is space:
            counts = counts.copy()
            counts[block, 0] += 1
        return letters, counts

    monkeypatch.setattr(fock, "_letter_table", perturbed)
    records = _records(sysm)
    assert ct.breaks(space, "letters", an.IDENTITY_TOL) > 0
    assert _failed_exact(records) == _readers(records, {"letters"}) == {
        "gauge.covariance_of_elementary_terms.exact", "expectation.gauge_average_match.exact"}


def test_a_column_in_the_wrong_word_fails_exactly_the_records_that_read_it(monkeypatch):
    """One column of the word (0, 1, 2) filed under (0, 2, 1), which has the
    same letter counts, once the tables are compiled: the words fact breaks
    and the letters fact does not, so exactly the signature, vacuum-trace
    and gauge-average exact records fail."""
    sysm = SYSTEMS["m2"]()
    space = sysm.space(DEPTH)
    for v in space.graph.vertices:
        for left in (True, False):
            ct.side_table(space, v, left)
    word_ids = space.word_ids.copy()
    word_ids[space.index_of((0, 1, 2), (1, 1, 1))] = list(space._spans).index((0, 2, 1))
    monkeypatch.setattr(space, "word_ids", word_ids)
    records = _records(sysm)
    assert ct.breaks(space, "words", an.IDENTITY_TOL) > 0
    assert ct.breaks(space, "letters", an.IDENTITY_TOL) == 0
    assert _failed_exact(records) == _readers(records, {"words"}) == {
        "signature.identity_terms_diagonal.exact", "signature.nontrivial_terms_offdiagonal.exact",
        "trace.vacuum_probe.exact", "expectation.gauge_average_match.exact"}


def _broken(space) -> set[str]:
    return {fact for fact in ct._FACTS if ct.breaks(space, fact, an.IDENTITY_TOL) > 0}


def test_swapped_left_tails_in_the_cover_table_fail_the_records_that_read_them(monkeypatch, fresh_group):
    """The cover table's split along vertex 0 at the front with the tails
    of (0, 1) and (0, 2) swapped, before lambda_0 is compiled from it.  The
    swap relabels columns consistently, so the tables still form matrix
    units (lambda_units holds), but a unit that adds 0 to (1,) now lands in
    the block of (0, 2): the words fact, whose v.w is reduce_tuple((v,) +
    w), breaks, and exactly the exact records that read a broken fact
    fail."""
    sysm = SYSTEMS["m2"]()
    space = sysm.space(DEPTH)
    table = space.group.cover_table(space.n)
    a, b = table.index[(0, 1)], table.index[(0, 2)]
    side = words.CoverTable.side

    def swapped(self, left):
        head, tail, where = side(self, left)
        if self is table and left:
            tail = tail.copy()
            tail[[a, b], 0] = tail[[b, a], 0]
        return head, tail, where

    monkeypatch.setattr(words.CoverTable, "side", swapped)
    records = _records(sysm)
    broken = _broken(space)
    assert "words" in broken
    assert _failed_exact(records) == _readers(records, broken)


def test_a_dropped_cover_fails_the_projection_facts_and_the_identification(monkeypatch, fresh_group):
    """The cover (0,) -> (0, 1) dropped from the table that Q_w reads, once
    the lambda and rho tables are compiled: Q_(0) loses every word above
    (0, 1), so the head and action facts break, exactly the exact records
    that read a broken fact fail, and the identification with the lattice,
    which decides w <= v by leq_tuple, finds mismatches."""
    sysm = SYSTEMS["m2"]()
    space = sysm.space(DEPTH)
    for v in space.graph.vertices:
        for left in (True, False):
            ct.side_table(space, v, left)
    table = space.group.cover_table(space.n)
    cover = table.cover.copy()
    assert cover[table.index[(0,)], 1] == table.index[(0, 1)]
    cover[table.index[(0,)], 1] = -1
    monkeypatch.setattr(table, "cover", cover)
    records = _records(sysm)
    broken = _broken(space)
    assert {"head", "action"} <= broken
    assert _failed_exact(records) == _readers(records, broken)
    assert lattice.identification_check(space).mismatches > 0


def test_a_perturbed_gns_entry_fails_exactly_the_records_that_read_it(monkeypatch):
    """One entry of vertex 0's compiled GNS images, off by 1e-6, breaks pi
    on the matrix units: the six exact records that read the gns fact fail,
    and no other exact record does."""
    sysm = SYSTEMS["m2"]()
    rep = sysm.sites[0].rep
    images = rep._images.copy()
    images[0, 0] += 1e-6
    monkeypatch.setattr(rep, "_images", images)
    records = _records(sysm)
    assert _failed_exact(records) == _readers(records, {"gns"}) == {
        "diag_creation.same_vertex.exact", "annih_creation.same_vertex.exact", "conjugation.qperp_dominated.exact",
        "conjugation.shifted_dominated.exact", "trace.vacuum_probe.exact", "rewrite.certificate.exact"}


def _by_lengths(x):
    """expectation_diag keeping the entries between words of one length."""
    rows, cols, _ = _mat.coo_parts(x.mat)
    lengths = x.space.lengths
    return fock.OperatorMatrix(x.space, _mat.subset(x.mat, lengths[rows] == lengths[cols]), x.guard, 0, 0)


def _diagonal_only(x):
    """expectation_diag keeping the diagonal entries only."""
    rows, cols, _ = _mat.coo_parts(x.mat)
    return fock.OperatorMatrix(x.space, _mat.subset(x.mat, rows == cols), x.guard, 0, 0)


def _gauge_by_total(x, m):
    """gauge_average reading the total letter count instead of each
    vertex's."""
    space = x.space
    total = fock._letter_table(space)[1].sum(axis=1)[space.word_ids]
    rows, cols, _ = _mat.coo_parts(x.mat)
    return fock.OperatorMatrix(space, _mat.subset(x.mat, (total[rows] - total[cols]) % m == 0), x.guard, x.up, x.down)


@pytest.mark.parametrize("target, mutant, fact", [
    ("expectation_diag", _by_lengths, "blocks"),
    ("expectation_diag", _diagonal_only, "blocks"),
    ("gauge_average", _gauge_by_total, "gauge"),
], ids=["lengths", "diagonal", "total_count"])
def test_a_wrong_pinching_fails_exactly_the_records_that_read_it(monkeypatch, target, mutant, fact):
    """E keeping the entries between words of one length, or only the
    diagonal, breaks the blocks fact, and the gauge average reading the
    total letter count breaks the gauge fact: exactly the exact records
    that read the broken fact fail.  The system is M2, whose non-empty
    words' blocks hold several vectors; where each holds one, as on a
    Hecke vertex, a diagonal-only E is E."""
    sysm = SYSTEMS["m2"]()
    space = sysm.space(DEPTH)
    monkeypatch.setattr(fock, target, mutant)
    records = _records(sysm)
    assert _broken(space) == {fact}
    readers = {"gauge_average_match"} | ({"idempotent", "contractive", "positive", "faithful_kernel"}
                                         if fact == "blocks" else set())
    assert _failed_exact(records) == _readers(records, {fact}) == {f"expectation.{r}.exact" for r in readers}


def _engine_mutant(monkeypatch, fn, old: str, new: str) -> None:
    """Replace elementary's fn with a copy whose source has old, which it
    holds once, replaced by new; the copy's own calls reach the engine's
    other functions, and the engine's calls reach the copy."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1
    namespace = dict(vars(elementary))
    exec(compile(source.replace(old, new), elementary.__file__, "exec"), namespace)
    monkeypatch.setattr(elementary, fn.__name__, namespace[fn.__name__])


@pytest.mark.parametrize("fn, old, new", [
    (elementary._mul_diag, "sys.centered(v, cj.star()), -coeff, base)", "sys.centered(v, cj.star()), coeff, base)"),
    (elementary._mul_annih, "return [(coeff * s, rest)] + _mul_diag(sys, v, one, -coeff * s, rest)",
     "return [(coeff * s, rest)]"),
    (elementary._mul_annih, "s = sys.omega(v, c.star() @ t.creation[i][1])",
     "s = (1 + 1e-3) * sys.omega(v, c.star() @ t.creation[i][1])"),
], ids=["diag_split_sign", "dropped_d1", "omega_shift"])
def test_a_wrong_rewrite_rule_fails_exactly_the_rewrite_exact_record(monkeypatch, fn, old, new):
    """The d(c) d(cj) split with the sign of its creation-annihilation term
    flipped, the contraction (c^+)* a^+ = omega(c* a) (1 - d(1_v)) without
    its - d(1_v), or with omega(c* a) shifted by 1e-3 of itself: the rules
    fact breaks, no other fact does, and of the exact records exactly
    rewrite.certificate.exact fails."""
    sysm = SYSTEMS["m2"]()
    space = sysm.space(DEPTH)
    _engine_mutant(monkeypatch, fn, old, new)
    records = _records(sysm)
    assert _broken(space) == {"rules"}
    assert _failed_exact(records) == _readers(records, {"rules"}) == {"rewrite.certificate.exact"}


@pytest.mark.parametrize("fixture", FIXTURES, ids=[p.stem for p in FIXTURES])
@pytest.mark.parametrize("depth", [0, 1, 3])
def test_every_sampled_identity_has_its_exact_record(fixture, depth):
    """Each sampled record of a row with exact records is followed, in the
    same row and order, by its exact counterpart, n/a with its reason
    exactly where it is n/a; the exact records are those that RECORDS gives
    certificate facts, and every certificate fact is read by one.  Every
    fixture's vertex states are tracial, so the probe of a non-tracial one
    is left to test_a_non_tracial_probe_certifies_its_violation."""
    cfg = load_config(fixture)
    suite = an.identity_suite(cfg.system, depth=depth, seed=1)
    emitted = set()
    for row in ("identities", "expectation", "rho_lambda", "gauge", "signature", "conjugation", "rewrite", "trace"):
        records = suite.groups[row]
        sampled = [r for r in records if not r.name.endswith(".exact")]
        exact = records[len(sampled):]
        assert [r.name for r in exact] == [f"{r.name}.exact" for r in sampled]
        for s, e in zip(sampled, exact):
            assert (e.value == "n/a") == (s.value == "n/a") and e.skipped_reason == s.skipped_reason
        emitted |= {r.name for r in exact}
    exact = {name for name, spec in RECORDS.items() if spec.facts}
    assert exact == {name for name in RECORDS if name.endswith(".exact")}
    assert emitted == exact - {"trace.vacuum_probe_detects_violation.exact"}
    assert {fact for spec in RECORDS.values() for fact in spec.facts} == set(ct._FACTS)


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_a_non_tracial_probe_certifies_its_violation(depth):
    """With vertex 0 in the state of density diag(0.7, 0.3), the sampled
    probe shows the violation on its SMOKE_DRAWS pairs, each with w_y =
    w_x^-1, and the exact record certifies it as |omega(e12 e21) - omega(e21
    e12)| = 0.4; both are n/a below depth 2, with the same reason."""
    sysm = GraphSystem(FREE3, {0: m2_site([[0.7, 0], [0, 0.3]]), 1: m2_site(), 2: m2_site()})
    sampled, exact = an.traciality_probe_checks(sysm, depth, 0)
    assert (sampled.name, exact.name) == ("trace.vacuum_probe_detects_violation",
                                          "trace.vacuum_probe_detects_violation.exact")
    assert sampled.passed and exact.passed
    if depth < 2:
        assert sampled.value == exact.value == "n/a" and exact.skipped_reason == sampled.skipped_reason
        return
    assert sampled.value > 1e-3
    assert abs(exact.value - 0.4) < 1e-12 and exact.tolerance == 1e-3
    assert ct.breaks(sysm.space(depth), "tracial", an.IDENTITY_TOL) > 0
