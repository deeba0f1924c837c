"""Hypothesis checkers and verdict assembly: simplicity, trace uniqueness,
nuclearity and exactness, plus the consolidated numerical identity suite.

Verdicts only ever assert what the hypotheses license.  Failure of a
sufficient condition is reported as HypothesesFail or Inconclusive, never as
a negative structural claim.
"""
from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from . import _mat
from . import certificate as ct
from . import elementary as el
from . import fock as fk
from . import growth as gr
from . import lattice as lat
from .algebras import Element, centered_unitary_search, commutant_is_trivial, optimal_q, require_witness
from .errors import ShallowTruncationError
from .graphs import SimplicialGraph, VertexId
from .records import IDENTITY_TOL, RECORDS
from .system import GraphSystem

ESTABLISHED = "Established"
HYPOTHESES_FAIL = "HypothesesFail"
INCONCLUSIVE = "Inconclusive"

CRIT_GROWTH_SIMPLE = "simplicity: exterior-growth criterion (equivalence with trivial ideal intersection)"
CRIT_FINDIM_SIMPLE = "simplicity: finite-dimensional vertex algebras with faithful states"
CRIT_UNITARY_SIMPLE = "simplicity: state-central vertex unitaries in the state kernel"
CRIT_TRACE_UNIQUE = "trace: uniqueness of the vacuum trace"
CRIT_TRACE_NONE = "trace: no tracial state"
CRIT_AMBIENT_NUC = "approximation: ambient algebra nuclear/exact iff vertex algebras are"
CRIT_PRODUCT_EXACT = "approximation: graph product exact iff vertex algebras are"
CRIT_PRODUCT_NUC = "approximation: graph product nuclear under irreducible vertex representations"
CRIT_TENSOR_SPLIT = "decomposition: join split into tensor factors"

# How many draws each sampled case of a row with exact records takes and
# evaluates on the Fock space; see main_identity_checks.
SMOKE_DRAWS = 2


@dataclass
class CheckRecord:
    name: str
    value: float | int | str | bool
    tolerance: Optional[float] = None
    passed: bool = True
    skipped_reason: Optional[str] = None

    def to_json(self) -> dict:
        out = {"name": self.name, "value": self.value, "passed": self.passed}
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        if self.skipped_reason:
            out["skipped"] = self.skipped_reason
        return out


@dataclass
class Verdict:
    statement: str
    result: str
    evidence: list[CheckRecord] = field(default_factory=list)
    citations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    children: list["Verdict"] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)

    def __post_init__(self):
        # A claim cannot rest on evidence that failed, whichever pipeline
        # assembled it.
        failed = [e.name for e in self.evidence if not e.passed]
        if self.result == ESTABLISHED and failed:
            self.result = INCONCLUSIVE
            self.notes = self.notes + [f"not established: failed evidence {', '.join(failed)}"]

    def to_json(self) -> dict:
        out = {
            "statement": self.statement,
            "result": self.result,
            "evidence": [e.to_json() for e in self.evidence],
            "citations": self.citations,
            "seeds": self.seeds,
        }
        if self.notes:
            out["notes"] = self.notes
        if self.children:
            out["factors"] = [c.to_json() for c in self.children]
        return out


def _vertex_names(sysm: GraphSystem, names: Optional[Mapping[VertexId, str]]) -> dict[VertexId, str]:
    if names:
        return dict(names)
    return {v: str(v) for v in sysm.graph.vertices}


# -- witness extraction -------------------------------------------------------


@dataclass
class VertexWitness:
    element: Element
    q: float
    is_unitary: bool
    is_central: bool
    supplied: bool


def find_witness(
    sysm: GraphSystem,
    v: VertexId,
    supplied: Optional[Element] = None,
    rng: Optional[np.random.Generator] = None,
) -> Optional[VertexWitness]:
    """Best available kernel witness at a vertex: a supplied element, else a
    kernel unitary from the deterministic search family, else the best
    centered element from a small deterministic-plus-seeded family."""
    site = sysm.sites[v]
    if supplied is not None:
        a = supplied
        return VertexWitness(a, optimal_q(a, site.state), a.is_unitary(), site.state.is_central(a), True)
    found = centered_unitary_search(site.algebra, site.state)
    if found is not None:
        u, central = found
        return VertexWitness(u, optimal_q(u, site.state), True, central, False)
    best: Optional[VertexWitness] = None
    pool: list[Element] = [site.centered(b) for b in site.algebra.basis()]
    if rng is not None:
        pool.extend(site.random_element(rng) for _ in range(16))
    for a in pool:
        if a.is_zero(1e-12):
            continue
        q = optimal_q(a, site.state)
        if best is None or q > best.q:
            best = VertexWitness(a, q, a.is_unitary(), site.state.is_central(a), False)
    return best


# -- simplicity ----------------------------------------------------------------


def simplicity_report(
    sysm: GraphSystem,
    witnesses: Optional[Mapping[VertexId, Element]] = None,
    names: Optional[Mapping[VertexId, str]] = None,
    seed: int = 0,
    depth: int = 4,
) -> Verdict:
    """Simplicity pipeline: join-decompose, gate on the vertex count and the
    complement's connectivity, extract (a_v, q_v), classify the parameter
    against the growth region, then pick the strongest applicable criterion.
    """
    nm = _vertex_names(sysm, names)
    parts = sysm.graph.join_decomposition()
    if len(parts) > 1:
        children = [
            simplicity_report(sysm.restricted(p), witnesses, nm, seed, depth) for p in parts
        ]
        results = {c.result for c in children}
        if results == {ESTABLISHED}:
            result = ESTABLISHED
        elif HYPOTHESES_FAIL in results:
            result = HYPOTHESES_FAIL
        else:
            result = INCONCLUSIVE
        v = Verdict(
            "graph product simplicity (join decomposition)",
            result,
            [CheckRecord("join_factors", len(parts))],
            [CRIT_TENSOR_SPLIT],
            ["simple iff every tensor factor is simple; factors reported below"],
            children,
            seeds=[seed],
        )
        return v

    evidence: list[CheckRecord] = []
    if len(sysm.graph.vertices) < 3:
        return Verdict(
            "graph product simplicity",
            INCONCLUSIVE,
            [CheckRecord("vertex_count", len(sysm.graph.vertices), passed=False)],
            [],
            ["criteria require at least 3 vertices with connected complement; "
             "two-vertex products are free or tensor products, not decided here"],
            seeds=[seed],
        )
    evidence.append(CheckRecord("vertex_count", len(sysm.graph.vertices)))
    evidence.append(CheckRecord("complement_connected", True))

    rng = np.random.default_rng(seed)
    wits: dict[VertexId, VertexWitness] = {}
    for v in sysm.graph.vertices:
        supplied = witnesses.get(v) if witnesses else None
        w = find_witness(sysm, v, supplied, rng)
        if w is None or w.q <= 0:
            return Verdict(
                "graph product simplicity",
                INCONCLUSIVE,
                evidence + [CheckRecord(f"witness[{nm[v]}]", "no positive-q witness found", passed=False)],
                [],
                ["no witness with a_v a_v* >= q omega(a_v* a_v) 1 > 0 found in the search family"],
                seeds=[seed],
            )
        wits[v] = w
        evidence.append(CheckRecord(f"q[{nm[v]}]", w.q))

    qmap = {v: w.q for v, w in wits.items()}
    verdict = gr.classify(sysm.graph, qmap)
    evidence.append(CheckRecord("critical_t", verdict.critical_t, RECORDS["critical_t"].tolerance))
    evidence.append(CheckRecord("region", verdict.region.value))
    ratios = gr.partial_sum_ratios(sysm.graph, qmap, min(depth + 2, 6))
    evidence.append(CheckRecord("partial_sum_ratio_last", ratios[-1] if ratios else 1.0))
    if verdict.region is not gr.Region.OUTSIDE:
        return Verdict(
            "graph product simplicity",
            HYPOTHESES_FAIL,
            evidence,
            [CRIT_GROWTH_SIMPLE],
            [f"multi-parameter classified {verdict.region.value}; the criteria need OutsideClosure. "
             "No claim of non-simplicity is made"],
            seeds=[seed],
        )

    supplied_central = witnesses and all(
        v in witnesses and wits[v].is_unitary and wits[v].is_central for v in sysm.graph.vertices
    )
    # Every vertex state is faithful (a VertexSite is built only on one), so
    # the finite-dimensional criterion applies whenever the central one does not.
    if supplied_central:
        branch, cite = "central unitaries", CRIT_UNITARY_SIMPLE
    else:
        branch, cite = "finite-dimensional faithful", CRIT_FINDIM_SIMPLE

    for v, w in wits.items():
        evidence.append(CheckRecord(f"witness[{nm[v]}]", f"unitary={w.is_unitary}, central={w.is_central}, supplied={w.supplied}"))
    return Verdict(
        "graph product simplicity",
        ESTABLISHED,
        evidence,
        [cite, CRIT_GROWTH_SIMPLE],
        [f"branch: {branch}; inclusion into the tail-ideal quotient is then irreducible "
         "(every intermediate algebra simple)"],
        seeds=[seed],
    )


# -- trace uniqueness -----------------------------------------------------------


def trace_report(
    sysm: GraphSystem,
    probe: list[CheckRecord],
    witnesses: Optional[Mapping[VertexId, Element]] = None,
    names: Optional[Mapping[VertexId, str]] = None,
    seed: int = 0,
) -> Verdict:
    """Trace pipeline; `probe` is a traciality_probe_checks record, carried as evidence."""
    nm = _vertex_names(sysm, names)
    evidence: list[CheckRecord] = []
    for v in sysm.graph.vertices:
        site = sysm.sites[v]
        u = witnesses.get(v) if witnesses else None
        if u is not None:
            try:
                require_witness(u, site.state, unitary=True)
            except ValueError as exc:
                raise ValueError(f"supplied witness at {nm[v]} is not a kernel unitary: {exc}") from None
        else:
            found = centered_unitary_search(site.algebra, site.state)
            u = found[0] if found else None
        if u is None:
            return Verdict(
                "tracial state structure",
                INCONCLUSIVE,
                evidence + [CheckRecord(f"kernel_unitary[{nm[v]}]", "none found in family", passed=False)],
                [],
                ["a kernel unitary per vertex is required; search family exhausted"],
                seeds=[seed],
            )
        evidence.append(CheckRecord(f"kernel_unitary[{nm[v]}]", True))

    tracial = {v: sysm.sites[v].state.is_tracial() for v in sysm.graph.vertices}
    for v, t in tracial.items():
        evidence.append(CheckRecord(f"tracial[{nm[v]}]", bool(t)))

    unique = all(tracial.values())
    return Verdict(
        "tracial state structure",
        ESTABLISHED,
        evidence + probe,
        [CRIT_TRACE_UNIQUE if unique else CRIT_TRACE_NONE],
        ["the vacuum state is the unique tracial state" if unique
         else "some vertex state is non-tracial while kernel unitaries exist: no tracial state"],
        seeds=[seed],
    )


def traciality_probe(sysm: GraphSystem, depth: int = 4, seed: int = 0) -> float:
    """Max |omega(xy) - omega(yx)| over SMOKE_DRAWS sampled pairs of reduced
    operators: x of word length at most depth // 2 and at least 1, so that
    xy fits the guard, and y along the inverse word, as <Omega, xy Omega>
    vanishes unless w_y = w_x^-1 and is then prod_i omega(a_i b_pi(i)) (see
    gplab.certificate).  So that the pair can show a violation, x runs along
    a word with a letter whose state is not tracial, when there is one.
    Below depth 2 no pair fits.  The pair's vacuum entries are entry (0, 0)
    of the cut at 0 of the commutator xy - yx, whose guard N - 2|w_x| is
    checked before it is read."""
    if depth < 2:
        raise ShallowTruncationError(f"no probe pair fits depth {depth}: each has word length at least 2")
    rng = np.random.default_rng(seed)
    space = sysm.space(depth)
    group = sysm.group
    words = [w for w in group.ball_tuples(depth // 2) if w]
    showing = {v for v in sysm.graph.vertices if not sysm.sites[v].state.is_tracial()}
    words = [w for w in words if showing & set(w)] or words
    worst = 0.0
    for _ in range(SMOKE_DRAWS):
        wx = words[int(rng.integers(0, len(words)))]
        wy = group.inv_tuple(wx)
        x = el.expression_matrix([el.Factor("elem", v, sysm.sites[v].random_element(rng)) for v in wx], space)
        y = el.expression_matrix([el.Factor("elem", v, sysm.sites[v].random_element(rng)) for v in wy], space)
        commutator = x @ y - y @ x
        fk.check_guards(commutator)
        _, _, vacuum = _mat.principal_parts(commutator.cols(0), [0])
        worst = max(worst, float(np.abs(vacuum.sum())))
    return worst


# -- nuclearity / exactness -----------------------------------------------------


def nuclearity_exactness_report(
    sysm: GraphSystem, names: Optional[Mapping[VertexId, str]] = None
) -> Verdict:
    nm = _vertex_names(sysm, names)
    evidence = [
        CheckRecord(f"finite_dimensional[{nm[v]}]", True) for v in sysm.graph.vertices
    ]
    for v in sysm.graph.vertices:
        evidence.append(CheckRecord(f"faithful[{nm[v]}]", bool(sysm.sites[v].state.is_faithful())))
    commutants = {v: commutant_is_trivial(sysm.sites[v].rep) for v in sysm.graph.vertices}
    for v, triv in commutants.items():
        evidence.append(CheckRecord(f"gns_commutant_trivial[{nm[v]}]", bool(triv)))
    notes = [
        "ambient algebra: nuclear and exact (vertex algebras are finite-dimensional)",
        "graph product: exact (subalgebra of an exact algebra)",
    ]
    citations = [CRIT_AMBIENT_NUC, CRIT_PRODUCT_EXACT]
    if all(commutants.values()):
        notes.append("graph product: nuclear via irreducible vertex representations")
        citations.append(CRIT_PRODUCT_NUC)
    else:
        bad = [nm[v] for v, t in commutants.items() if not t]
        notes.append(
            "irreducibility hypothesis unmet at vertices "
            + ", ".join(bad)
            + "; nuclearity granted instead by finite-dimensionality of the vertex algebras"
        )
    return Verdict("nuclearity and exactness", ESTABLISHED, evidence, citations, notes)


# -- identity suite ---------------------------------------------------------------


@dataclass
class SuiteReport:
    groups: dict[str, list[CheckRecord]]  # each SUITE row's records, by its name
    seed: int
    seconds: dict[str, float]  # each SUITE row's wall time, by its name; not in to_json

    @property
    def checks(self) -> list[CheckRecord]:
        return [c for records in self.groups.values() for c in records]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "seed": self.seed,
            "checks": [c.to_json() for c in self.checks],
        }


class _Worst:
    """One check: the worst deviation over its samples, which passes at most
    the tolerance that RECORDS gives its name.  A check that splits n/a on
    its own samples them through `add`: it is n/a, with the reason the first
    gave, once a sample is too shallow for the depth
    (ShallowTruncationError: no guarded column, or a Q_w longer than it),
    and no later sample is evaluated.  `fold` lets the error through, so
    that a `shallow` row reports its records n/a (_na_records)."""

    def __init__(self, name: str):
        self.name, self.tol, self.worst, self.reason = name, RECORDS[name].tolerance, 0.0, None

    def fold(self, value: float) -> None:
        self.worst = max(self.worst, value)

    def add(self, deviation: Callable[[], float]) -> bool:
        """Fold in deviation() unless the check is n/a; whether it is still
        not n/a."""
        if self.reason is None:
            try:
                value = deviation()
            except ShallowTruncationError as exc:
                self.reason = str(exc)
            else:
                self.fold(value)
        return self.reason is None

    def record(self) -> CheckRecord:
        if self.reason is not None:
            return CheckRecord(self.name, "n/a", None, True, self.reason)
        return CheckRecord(self.name, self.worst, self.tol, self.worst <= self.tol)


def _na_records(row: str, reason: str) -> list[CheckRecord]:
    """Every record that RECORDS gives the row, n/a with the reason."""
    return [CheckRecord(name, "n/a", None, True, reason) for name, spec in RECORDS.items() if spec.row == row]


def _pairs_by_case(graph: SimplicialGraph):
    verts = graph.vertices
    same = [(v, v) for v in verts]
    adj = [(u, v) for u in verts for v in verts if u != v and graph.adjacent(u, v)]
    non = [(u, v) for u in verts for v in verts if u != v and not graph.adjacent(u, v)]
    return same, adj, non


def main_identity_checks(
    sysm: GraphSystem, depth: int, rng: np.random.Generator, corrupt: bool = False,
) -> list[CheckRecord]:
    """The five families of product identities of creation, diagonal and
    annihilation operators (creation products, diagonal against creation,
    annihilation against creation, diagonal products, and the word
    projections through creation), split by case: the same vertex, adjacent
    or non-adjacent vertices.

    Each case's record is sampled, and is followed, after all of them, by its
    exact counterpart (_exact_record), which certifies the identity for every
    element at depth N from the compiled tables (certificate).  So the
    sampled records are smoke tests of the GNS matrices, `_mat.mul` and the
    lazy cuts: each case takes SMOKE_DRAWS draws and evaluates them on the
    Fock space, stopping at a draw too shallow for the depth."""
    space = sysm.space(depth)
    same, adj, non = _pairs_by_case(sysm.graph)
    sampled: list[CheckRecord] = []

    def rnd(v):
        return sysm.sites[v].random_element(rng)

    def run(name, pairs, deviation, draw=lambda u, v: (rnd(u), rnd(v)),
            reason="no vertex pair realizes this case"):
        """draw(u, v) takes one draw's values from rng.  An identity states
        its tolerance when n/a too."""
        check = _Worst(name)
        if not pairs:
            check.reason = reason
        else:
            for _ in range(SMOKE_DRAWS):
                u, v = pairs[int(rng.integers(0, len(pairs)))]
                drawn = draw(u, v)
                if not check.add(lambda: deviation(u, v, *drawn)):
                    break
        rec = check.record()
        rec.tolerance = check.tol
        sampled.append(rec)

    def commutator(x, y):
        return fk.guarded_deviation(x @ y, y @ x)

    # (1) creation products
    run("creation.same_vertex_product_zero", same,
        lambda u, v, a, b: fk.guarded_norm(fk.creation(space, u, a) @ fk.creation(space, v, b)))
    run("creation.adjacent_commute", adj,
        lambda u, v, a, b: commutator(fk.creation(space, u, a), fk.creation(space, v, b)))

    # (2) diagonal against creation
    def d2_same(u, v, a, b):
        lhs = fk.creation(space, v, b) @ fk.diagonal(space, u, a)
        prod = sysm.centered(u, a @ b)  # omega(b) = 0 for centered draws
        rhs = fk.diagonal(space, u, a) @ fk.creation(space, v, b)
        return max(fk.guarded_norm(lhs), fk.guarded_deviation(rhs, fk.creation(space, u, prod)))

    run("diag_creation.same_vertex", same, d2_same)
    run("diag_creation.nonadjacent_zero", non,
        lambda u, v, a, b: fk.guarded_norm(fk.diagonal(space, u, a) @ fk.creation(space, v, b)))
    run("diag_creation.adjacent_commute", adj,
        lambda u, v, a, b: commutator(fk.diagonal(space, u, a), fk.creation(space, v, b)))

    # (3) annihilation against creation
    def d3_same(u, v, a, b):
        ca, cb = fk.creation(space, u, a), fk.creation(space, v, b)
        lhs1 = ca @ cb.adjoint()
        rhs1 = fk.diagonal(space, u, a @ b.star()) - fk.diagonal(space, u, a) @ fk.diagonal(space, u, b.star())
        dev1 = fk.guarded_deviation(lhs1, rhs1)  # before Q_u, which needs depth >= 1
        st = sysm.sites[u].state
        coef = st.omega(a.star() @ b) - np.conj(st.omega(a)) * st.omega(b)
        if corrupt:
            coef = coef + 1e-3
        qv = fk.q_projection(space, (u,))
        rhs2 = coef * (fk.identity_op(space) - qv)
        lhs2 = ca.adjoint() @ cb
        return max(dev1, fk.guarded_deviation(lhs2, rhs2))

    run("annih_creation.same_vertex", same, d3_same)
    run("annih_creation.nonadjacent_zero", non,
        lambda u, v, a, b: fk.guarded_norm(fk.creation(space, u, a).adjoint() @ fk.creation(space, v, b)))
    run("annih_creation.adjacent_commute", adj,
        lambda u, v, a, b: commutator(fk.creation(space, u, a).adjoint(), fk.creation(space, v, b)))

    # (4) diagonal products
    run("diag_diag.nonadjacent_zero", non,
        lambda u, v, a, b: fk.guarded_norm(fk.diagonal(space, u, a) @ fk.diagonal(space, v, b)))
    run("diag_diag.adjacent_commute", adj,
        lambda u, v, a, b: commutator(fk.diagonal(space, u, a), fk.diagonal(space, v, b)))

    # (5) word projections through creation, for nontrivial w (the action
    # identity couples Q_e to the unital picture) short enough that acting
    # keeps the index word inside the truncation
    group = sysm.group
    ball = ct.action_words(space)

    def d5(u, _v, a, w):
        cr = fk.creation(space, u, a)
        act = lat.apply_symbolic(space, lat.act_on_q(group, u, w))
        lhs = fk.q_projection(space, w) @ cr
        lhs2 = fk.q_projection(space, w) @ cr.adjoint()
        return max(fk.guarded_deviation(lhs, cr @ act), fk.guarded_deviation(lhs2, cr.adjoint() @ act))

    run("projection_action.creation", same if ball else [], d5,
        lambda u, _v: (rnd(u), ball[int(rng.integers(0, len(ball)))]),
        "no nontrivial word shorter than the depth")
    return sampled + [_exact_record(space, rec) for rec in sampled]


def _exact_record(space: fk.TruncatedFock, sampled: CheckRecord) -> CheckRecord:
    """The exact counterpart of a sampled record: how many entries or
    relations break the certificate facts that RECORDS says it reads, which
    must be none.  It covers every element at depth N on the columns the
    sampled identity reads, and nothing beyond N; it is n/a, with the
    sampled record's reason, where the sampled one is (no pair for its case,
    or no guarded column), since neither depends on a draw."""
    name = f"{sampled.name}.exact"
    if sampled.skipped_reason is not None:
        return CheckRecord(name, "n/a", None, True, sampled.skipped_reason)
    count = sum(ct.breaks(space, fact, IDENTITY_TOL) for fact in RECORDS[name].facts)
    return CheckRecord(name, count, None, count == 0)


def expectation_checks(sysm: GraphSystem, depth: int, rng: np.random.Generator) -> list[CheckRecord]:
    """Properties of the conditional expectation E on 20 random operators.

    Only idempotence and the gauge-average match compare guarded columns;
    at a depth too shallow for them they are n/a with the first shallow
    sample's reason, and no later sample builds them, while
    contractivity, positivity and the faithful kernel hold for any matrix,
    truncated or not, and report numbers at every depth.  The gauge average
    equals E(x) only because el.random_operator draws at most 3 factors: a
    product of 4 can join distinct words with equal letter counts, whose
    entries the average keeps and E drops (fk.gauge_average)."""
    space = sysm.space(depth)
    idem = _Worst("expectation.idempotent")
    contr = _Worst("expectation.contractive")
    pos = _Worst("expectation.positive")
    faith = _Worst("expectation.faithful_kernel")
    gauge = _Worst("expectation.gauge_average_match")
    for _ in range(20):
        x = el.random_operator(sysm, space, rng)
        e = fk.expectation_diag(x)
        idem.add(lambda: fk.guarded_deviation(fk.expectation_diag(e), e))
        # E(x*x), the word blocks of x*x: its norm and least eigenvalue from
        # one split, never forming it
        low, high, _ = _mat.gram_eigs(x.mat, space.word_ids)
        least = float(low.min())
        nexx = max(float(high.max()), -least)
        # sqrt||E(x*x)|| = max_w ||x p_w|| <= ||x||, so ||E(x)|| below it
        # certifies contractivity without the norm of the unstructured x
        contr.add(lambda: max(0.0, e.norm() - np.sqrt(nexx)))
        pos.add(lambda: max(0.0, -least))
        fro = float(np.linalg.norm(_mat.coo_parts(x.mat)[2]))
        faith.add(lambda: fro if fro > 1e-8 and nexx <= 1e-12 else 0.0)
        gauge.add(lambda: fk.guarded_deviation(fk.gauge_average(x, 2 * depth + 1), e))
    return [c.record() for c in (idem, contr, pos, faith, gauge)]


def _require_term_guards(depth: int) -> None:
    """The gauge and signature rows' rule: a term of a random word
    (elementary.random_factors) can hold el.FACTOR_BUDGET creations, whose
    guard N - FACTOR_BUDGET is negative below depth FACTOR_BUDGET, so there
    both rows are n/a whatever they draw.  A rarer term, with one more
    creation from two diagonals at one vertex, can still make a row n/a at
    depth FACTOR_BUDGET through its draw."""
    if depth < el.FACTOR_BUDGET:
        raise ShallowTruncationError(f"no guarded column for a term of {el.FACTOR_BUDGET} creations: "
                                     f"guard {depth - el.FACTOR_BUDGET} at truncation depth {depth}")


def gauge_covariance_checks(sysm: GraphSystem, depth: int, rng: np.random.Generator) -> list[CheckRecord]:
    """U_z T U_z* = chi_z(T) T for the elementary terms T of SMOKE_DRAWS
    random words, sampled and then exact (the `letters` fact), as
    main_identity_checks does; n/a below depth 2 (_require_term_guards)."""
    _require_term_guards(depth)
    space = sysm.space(depth)
    check = _Worst("gauge.covariance_of_elementary_terms")
    for _ in range(SMOKE_DRAWS):
        terms = el.rewrite_to_elementary(el.random_factors(sysm, rng), sysm)
        z = {v: np.exp(2j * np.pi * rng.random()) for v in sysm.graph.vertices}
        u = fk.gauge_unitary(space, z)
        for coeff, t in terms:
            m = el.term_matrix(t, space, coeff)
            char = 1.0 + 0j
            for v in t.creation_word():
                char *= z[v]
            for v in t.annihilation_word():
                char /= z[v]
            check.fold(fk.guarded_deviation(u @ m @ u.adjoint(), char * m))
    sampled = check.record()
    return [sampled, _exact_record(space, sampled)]


def diagonality_checks(sysm: GraphSystem, depth: int, rng: np.random.Generator) -> list[CheckRecord]:
    """Elementary terms of trivial signature are block-diagonal, and those of
    nontrivial signature lie off the diagonal, over SMOKE_DRAWS random words;
    sampled and then exact (the `words` fact), as gauge_covariance_checks is."""
    _require_term_guards(depth)
    space = sysm.space(depth)
    diag = _Worst("signature.identity_terms_diagonal")
    mismatches = 0
    for _ in range(SMOKE_DRAWS):
        for coeff, t in el.rewrite_to_elementary(el.random_factors(sysm, rng), sysm):
            sig = el.signature(t, sysm)
            m = el.term_matrix(t, space, coeff)
            off = fk.offdiagonal_mass(m)
            if not sig:
                diag.fold(off)
            elif fk.guarded_norm(m) > 1e-8 and off <= 1e-12:
                mismatches += 1
    sampled = [
        diag.record(),
        CheckRecord("signature.nontrivial_terms_offdiagonal", mismatches, None, mismatches == 0),
    ]
    return sampled + [_exact_record(space, rec) for rec in sampled]


def _positivity_violation(lhs: fk.OperatorMatrix, rhs: fk.OperatorMatrix) -> float:
    """How far rhs - lhs is from positive on the common guarded block: minus
    the smallest eigenvalue of its Hermitian part there, or 0.  The block is
    read off the difference's cut at the guard, as its leading block."""
    guard = fk.check_guards(lhs, rhs)
    width = lhs.space.width(guard)
    rows, cols, data = _mat.principal_parts((rhs - lhs).cols(guard), np.arange(width))
    return max(0.0, -float(_mat.hermitian_eigs(rows, cols, data, width)[0].min()))


def conjugation_positivity_checks(sysm: GraphSystem, depth: int, rng: np.random.Generator) -> list[CheckRecord]:
    """a* Q_v^perp a <= omega(aa*) Q_v, and the shifted variant for words
    outside the centralizer that v does not start, on SMOKE_DRAWS random
    draws; sampled and then exact (the `head` and `shift` facts), as
    main_identity_checks does.  Below depth 3 the first draw is too shallow
    (Q_v needs depth 1, and lambda* Q lambda has guard N - 3)."""
    space = sysm.space(depth)
    group = sysm.group
    dominated = _Worst("conjugation.qperp_dominated")
    shifted = _Worst("conjugation.shifted_dominated")
    for _ in range(SMOKE_DRAWS):
        v = sysm.graph.vertices[int(rng.integers(0, len(sysm.graph.vertices)))]
        a = sysm.sites[v].random_element(rng)
        lam = fk.lambda_op(space, v, a)
        qv = fk.q_projection(space, (v,))
        qperp = fk.identity_op(space) - qv
        omega_aa = sysm.sites[v].state.omega(a @ a.star()).real
        dominated.fold(_positivity_violation(lam.adjoint() @ qperp @ lam, omega_aa * qv))
        cands = ct.shift_words(space, v)
        if cands:
            w = cands[int(rng.integers(0, len(cands)))]
            qw = fk.q_projection(space, w)
            vw = group.mul_tuple((v,), w)
            if len(vw) <= space.n:
                lhs2 = lam.adjoint() @ qw @ lam
                shifted.fold(_positivity_violation(lhs2, omega_aa * fk.q_projection(space, vw)))
    sampled = [dominated.record(), shifted.record()]
    return sampled + [_exact_record(space, rec) for rec in sampled]


def rewrite_certificate_checks(
    sysm: GraphSystem, depth: int, rng: np.random.Generator, corrupt: bool = False,
) -> list[CheckRecord]:
    """Each of 40 random expressions against the sum of its elementary
    terms."""
    space = sysm.space(depth)
    check = _Worst("rewrite.certificate")
    for _ in range(40):
        factors = el.random_factors(sysm, rng, 8, budget=max(1, depth - 1), scalar=True)
        terms = el.rewrite_to_elementary(factors, sysm)
        lhs = el.expression_matrix(factors, space)
        rhs = el.terms_matrix(terms, space)
        if corrupt and terms:
            rhs = rhs + 1e-3 * el.term_matrix(terms[0][1], space, terms[0][0])
        check.fold(fk.guarded_deviation(lhs, rhs))
    return [check.record()]


def rho_lambda_commutation_checks(sysm: GraphSystem, depth: int, rng: np.random.Generator) -> list[CheckRecord]:
    """[lambda_u(x), rho_v(y)] = 0 for u != v on SMOKE_DRAWS random pairs,
    sampled and then exact, as main_identity_checks does."""
    pairs = [(u, v) for u in sysm.graph.vertices for v in sysm.graph.vertices if u != v]
    if not pairs:
        return _na_records("rho_lambda", "graph too small")
    space = sysm.space(depth)
    check = _Worst("rho_lambda.commutation")
    for _ in range(SMOKE_DRAWS):
        u, v = pairs[int(rng.integers(0, len(pairs)))]
        lam = fk.lambda_op(space, u, sysm.sites[u].random_element(rng, center=False))
        rho = fk.rho_op(space, v, sysm.sites[v].random_element(rng, center=False))
        check.fold(fk.guarded_deviation(lam @ rho, rho @ lam))
    sampled = check.record()
    return [sampled, _exact_record(space, sampled)]


def subgraph_expectation_checks(sysm: GraphSystem, depth: int, rng: np.random.Generator) -> list[CheckRecord]:
    verts = sysm.graph.vertices
    if len(verts) < 2:
        return _na_records("subgraph", "graph too small")
    space = sysm.space(depth)
    sub = sysm.graph.induced(verts[:-1])
    outside = verts[-1]
    inside = verts[0]
    check = _Worst("subgraph.expectation")
    x_in = fk.creation(space, inside, sysm.sites[inside].random_element(rng))
    check.fold(fk.guarded_deviation(fk.expectation_subgraph(space, sub, x_in), x_in))
    x_out = fk.creation(space, outside, sysm.sites[outside].random_element(rng))
    check.fold(fk.guarded_norm(fk.expectation_subgraph(space, sub, x_out)))
    ident = fk.identity_op(space)
    check.fold(fk.guarded_deviation(fk.expectation_subgraph(space, sub, ident), ident))
    check.fold(fk.guarded_norm(fk.expectation_subgraph(space, sub, x_in @ x_out)))
    return [check.record()]


def ideal_profile_checks(sysm: GraphSystem, depth: int, rng: np.random.Generator) -> list[CheckRecord]:
    """Finite-rank elements have vanishing tails, the identity does not."""
    space = sysm.space(depth)
    theta = fk.identity_op(space)
    for v in sysm.graph.vertices:
        theta = theta @ (fk.identity_op(space) - fk.q_projection(space, (v,)))
    finite_rank = _Worst("ideal.vacuum_rank_one_tail_zero")
    for p in fk.tail_profile(theta):
        finite_rank.fold(p)
    # the profile of 1 at k is 1 where some word is longer than k: all k
    # for an infinite group, and k below the longest word for a finite one
    ones = _Worst("ideal.identity_tail_ones")
    longest = space.lengths.max()
    for k, p in enumerate(fk.tail_profile(fk.identity_op(space))):
        ones.fold(abs(p - float(k < longest)))
    v0 = sysm.graph.vertices[0]
    cr = fk.creation(space, v0, sysm.sites[v0].random_element(rng))
    prof_cr = fk.tail_profile(cr)
    monotone = all(prof_cr[i] >= prof_cr[i + 1] - 1e-12 for i in range(len(prof_cr) - 1))
    bounded = max(prof_cr, default=0.0) <= cr.norm() ** 2 + 1e-9
    shaped = bool(monotone and bounded)
    return [
        finite_rank.record(),
        ones.record(),
        CheckRecord("ideal.creation_tail_monotone_bounded", shaped, None, shaped),
    ]


def tensor_split_checks(sysm: GraphSystem, depth: int) -> list[CheckRecord]:
    """When the graph is a nontrivial join, verify the split of the
    system's depth-n space against the Kronecker picture; n/a with a reason
    otherwise, or when no operator has a guarded column.  The tensor-split
    command reads this record."""
    parts = sysm.graph.join_decomposition()
    if len(parts) < 2:
        return _na_records("tensor", "complement connected; no join to split")
    space = sysm.space(depth)
    check = _Worst("tensor.split")
    check.add(lambda: fk.tensor_split_check(space, parts[0].vertices))
    return [check.record()]


def lattice_checks(sysm: GraphSystem, depth: int) -> list[CheckRecord]:
    """Couple the word lattice to the Fock picture and verify the projection
    product law on a small ball."""
    records = []
    if any(sysm.sites[v].rep.dim < 2 for v in sysm.graph.vertices):
        return [CheckRecord("lattice.identification", "n/a", None, True, "one-dimensional vertex space")]
    space = sysm.space(min(depth, 3))
    rec = lat.identification_check(space)
    records.append(
        CheckRecord("lattice.identification", rec.mismatches, None, rec.mismatches == 0)
    )
    group = sysm.group
    products = _Worst("lattice.projection_products")
    short = group.ball_tuples(1)
    for u in short:
        for w in short:
            products.fold(lat.lattice_product(group, u, w, 4).max_deviation)
    records.append(products.record())
    return records


def traciality_probe_checks(sysm: GraphSystem, depth: int, seed: int) -> list[CheckRecord]:
    """The vacuum-trace probe, sampled and then exact: it stays below its
    tolerance when every vertex state is tracial, and must exceed its floor
    otherwise (RECORDS); n/a below depth 2, where no probe pair fits.  The
    exact record counts the breaks of the facts the vacuum-chain formula
    reads; for a non-tracial state its value is the violation those facts
    certify (certificate.trace_gap), which must exceed the same floor with
    no fact broken.  The trace verdict carries both records as its evidence
    too: in report-all the suite's `trace` row, computed once, and in the
    trace command one call at the same depth and seed."""
    all_tracial = all(s.state.is_tracial() for s in sysm.sites.values())
    name = "trace.vacuum_probe" if all_tracial else "trace.vacuum_probe_detects_violation"
    tol = RECORDS[name].tolerance
    try:
        worst = traciality_probe(sysm, depth=depth, seed=seed)
    except ShallowTruncationError as exc:
        sampled = CheckRecord(name, "n/a", None, True, str(exc))
    else:
        sampled = CheckRecord(name, worst, tol, worst <= tol if all_tracial else worst > tol)
    exact = _exact_record(sysm.space(depth), sampled)
    if all_tracial or exact.value == "n/a":
        return [sampled, exact]
    gap, floor = ct.trace_gap(sysm.space(depth)), RECORDS[exact.name].tolerance
    return [sampled, CheckRecord(exact.name, gap, floor, exact.value == 0 and gap > floor)]


class SuiteRun(NamedTuple):
    """What one group of a suite run reads: rng is the group's own stream,
    keyed by the seed and the group's name (identity_suite), so a group's
    records do not depend on which groups run before it."""

    sysm: GraphSystem
    depth: int
    seed: int
    rng: np.random.Generator


class CheckGroup(NamedTuple):
    """A row of SUITE.  run(suite_run, corrupt) returns the group's records,
    with its fault injected when corrupt, which only a group that `faults`
    heeds; its name is then a `fault_injection` value.  A `shallow` group
    too shallow for the depth (ShallowTruncationError) reports the records
    that RECORDS gives its row n/a (_na_records); any other splits n/a per
    check itself."""

    name: str
    run: Callable[[SuiteRun, bool], list[CheckRecord]]
    shallow: bool = False
    faults: bool = False


# Report order.  Each runner looks its group's function up in the module at
# call time, so that rebinding the module attribute (a tracer) takes effect.
SUITE = (
    CheckGroup("identities", lambda r, c: main_identity_checks(
        r.sysm, r.depth, r.rng, c), faults=True),
    CheckGroup("expectation", lambda r, _: expectation_checks(r.sysm, r.depth, r.rng)),
    CheckGroup("gauge", lambda r, _: gauge_covariance_checks(r.sysm, r.depth, r.rng), True),
    CheckGroup("signature", lambda r, _: diagonality_checks(r.sysm, r.depth, r.rng), True),
    CheckGroup("conjugation", lambda r, _: conjugation_positivity_checks(r.sysm, r.depth, r.rng), True),
    CheckGroup("rewrite", lambda r, c: rewrite_certificate_checks(
        r.sysm, r.depth, r.rng, corrupt=c), True, True),
    CheckGroup("rho_lambda", lambda r, _: rho_lambda_commutation_checks(r.sysm, r.depth, r.rng), True),
    CheckGroup("subgraph", lambda r, _: subgraph_expectation_checks(r.sysm, r.depth, r.rng), True),
    CheckGroup("lattice", lambda r, _: lattice_checks(r.sysm, r.depth)),
    CheckGroup("tensor", lambda r, _: tensor_split_checks(r.sysm, min(r.depth, 4))),
    CheckGroup("ideal", lambda r, _: ideal_profile_checks(r.sysm, r.depth, r.rng), True),
    CheckGroup("trace", lambda r, _: traciality_probe_checks(r.sysm, r.depth, r.seed)),
)
FAULTS = tuple(g.name for g in SUITE if g.faults)


def identity_suite(
    sysm: GraphSystem,
    depth: int = 4,
    seed: int = 0,
    corrupt: Optional[str] = None,
) -> SuiteReport:
    """Run the groups of SUITE in order, each check at its stated tolerance
    and each group on a random stream of its own (SuiteRun).

    A `shallow` group too shallow for the depth asked for reports its
    records n/a with the reason.  `corrupt` names one group of FAULTS whose
    fault is injected, so a harness self-test can confirm that failures are
    detected.
    """
    if corrupt is not None and corrupt not in FAULTS:
        raise ValueError(f"no fault for {corrupt!r}; expected one of {FAULTS}")
    groups: dict[str, list[CheckRecord]] = {}
    seconds: dict[str, float] = {}
    for group in SUITE:
        start = time.perf_counter()
        run = SuiteRun(sysm, depth, seed, np.random.default_rng([seed, zlib.crc32(group.name.encode())]))
        try:
            groups[group.name] = group.run(run, corrupt == group.name)
        except ShallowTruncationError as exc:
            if not group.shallow:
                raise
            groups[group.name] = _na_records(group.name, str(exc))
        seconds[group.name] = time.perf_counter() - start
    return SuiteReport(groups, seed, seconds)
