"""Hypothesis checkers and verdict assembly: simplicity, trace uniqueness,
nuclearity and exactness, plus the consolidated numerical identity suite.

Verdicts only ever assert what the hypotheses license.  Failure of a
sufficient condition is reported as HypothesesFail or Inconclusive, never as
a negative structural claim.
"""
from __future__ import annotations

import functools
import operator
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from . import _mat
from . import elementary as el
from . import fock as fk
from . import growth as gr
from . import lattice as lat
from .algebras import Element, centered_unitary_search, commutant_is_trivial, optimal_q
from .errors import ShallowTruncationError
from .graphs import SimplicialGraph, VertexId
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


def _is_unitary(a: Element, tol: float = 1e-10) -> bool:
    alg = a.algebra
    return (a @ a.star()).isclose(alg.one(), tol) and (a.star() @ a).isclose(alg.one(), tol)


def _is_state_central(sysm: GraphSystem, v: VertexId, u: Element, tol: float = 1e-10) -> bool:
    st = sysm.sites[v].state
    return all(
        abs(st.omega(u @ x) - st.omega(x @ u)) <= tol for x in sysm.sites[v].algebra.basis()
    )


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
        if abs(site.omega(a)) > 1e-8:
            raise ValueError(f"supplied witness at vertex {v} is not centered")
        q = optimal_q(a, site.state)
        return VertexWitness(a, q, _is_unitary(a), _is_state_central(sysm, v, a), True)
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
            best = VertexWitness(a, q, _is_unitary(a), _is_state_central(sysm, v, a), False)
    return best


# -- simplicity ----------------------------------------------------------------


def simplicity_report(
    sysm: GraphSystem,
    witnesses: Optional[Mapping[VertexId, Element]] = None,
    names: Optional[Mapping[VertexId, str]] = None,
    tol: float = 1e-8,
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
            simplicity_report(sysm.restricted(p), witnesses, nm, tol, seed, depth) for p in parts
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
    verdict = gr.classify(sysm.graph, qmap, tol)
    evidence.append(CheckRecord("critical_t", verdict.critical_t, tol))
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
    all_findim_faithful = all(s.state.is_faithful() for s in sysm.sites.values())
    found_central = all(w.is_unitary and w.is_central for w in wits.values())

    if supplied_central or (not all_findim_faithful and found_central):
        branch, cite = "central unitaries", CRIT_UNITARY_SIMPLE
    elif all_findim_faithful:
        branch, cite = "finite-dimensional faithful", CRIT_FINDIM_SIMPLE
    elif found_central:
        branch, cite = "central unitaries", CRIT_UNITARY_SIMPLE
    else:
        # Evidence-only branch: the equivalence needs trivial intersection
        # with the tail ideal, checkable only to finite depth.
        space = sysm.space(depth)
        worst_floor = np.inf
        for v in sysm.graph.vertices:
            x = fk.lambda_op(space, v, wits[v].element)
            profile = fk.tail_profile(x)
            worst_floor = min(worst_floor, profile[-1] if profile else 0.0)
        evidence.append(CheckRecord("tail_profile_floor", float(worst_floor)))
        return Verdict(
            "graph product simplicity",
            INCONCLUSIVE,
            evidence,
            [CRIT_GROWTH_SIMPLE],
            ["criterion is an equivalence with trivial intersection against the tail ideal; "
             "finite-depth tail profiles are evidence only, not proof"],
            seeds=[seed],
        )

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
    witnesses: Optional[Mapping[VertexId, Element]] = None,
    names: Optional[Mapping[VertexId, str]] = None,
    depth: int = 4,
    seed: int = 0,
) -> Verdict:
    nm = _vertex_names(sysm, names)
    evidence: list[CheckRecord] = []
    unitaries: dict[VertexId, Element] = {}
    for v in sysm.graph.vertices:
        site = sysm.sites[v]
        u = witnesses.get(v) if witnesses else None
        if u is not None:
            if not (_is_unitary(u) and abs(site.omega(u)) <= 1e-8):
                raise ValueError(f"supplied witness at {nm[v]} is not a kernel unitary")
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
        unitaries[v] = u
        evidence.append(CheckRecord(f"kernel_unitary[{nm[v]}]", True))

    tracial = {v: sysm.sites[v].state.is_tracial() for v in sysm.graph.vertices}
    for v, t in tracial.items():
        evidence.append(CheckRecord(f"tracial[{nm[v]}]", bool(t)))

    probe = traciality_probe(sysm, depth=depth, seed=seed, samples=40)
    evidence.append(CheckRecord("vacuum_trace_probe_max_violation", probe, 1e-10, probe <= 1e-10 or not all(tracial.values())))

    if all(tracial.values()):
        return Verdict(
            "tracial state structure",
            ESTABLISHED,
            evidence,
            [CRIT_TRACE_UNIQUE],
            ["the vacuum state is the unique tracial state"],
            seeds=[seed],
        )
    return Verdict(
        "tracial state structure",
        ESTABLISHED,
        evidence,
        [CRIT_TRACE_NONE],
        ["some vertex state is non-tracial while kernel unitaries exist: no tracial state"],
        seeds=[seed],
    )


def traciality_probe(sysm: GraphSystem, depth: int = 4, seed: int = 0, samples: int = 100) -> float:
    """Max |omega(xy) - omega(yx)| over sampled reduced-operator pairs whose
    product lengths fit the guard."""
    rng = np.random.default_rng(seed)
    space = sysm.space(depth)
    group = sysm.group
    words = [w for w in group.ball_tuples(max(1, depth // 2)) if w]
    worst = 0.0
    for _ in range(samples):
        wx = words[int(rng.integers(0, len(words)))]
        wy = words[int(rng.integers(0, len(words)))]
        if len(wx) + len(wy) > depth:
            continue
        x_row, x_col = fk.vacuum_vectors(space, wx, [sysm.sites[v].random_element(rng) for v in wx])
        y_row, y_col = fk.vacuum_vectors(space, wy, [sysm.sites[v].random_element(rng) for v in wy])
        val = abs(x_row @ y_col - y_row @ x_col)
        worst = max(worst, val)
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
        citations.append(CRIT_AMBIENT_NUC)
    return Verdict("nuclearity and exactness", ESTABLISHED, evidence, citations, notes)


# -- identity suite ---------------------------------------------------------------


@dataclass
class SuiteReport:
    checks: list[CheckRecord]
    seed: int
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "seed": self.seed,
            "elapsed_seconds": round(self.elapsed, 3),
            "checks": [c.to_json() for c in self.checks],
        }


class _Worst:
    """The worst deviation of one check over its samples; n/a, with the
    reason the latest gave, once a sample is too shallow for the depth
    (ShallowTruncationError: no guarded column, or a Q_w longer than it)."""

    def __init__(self, name: str, tol: float):
        self.name, self.tol, self.worst, self.reason = name, tol, 0.0, None

    def add(self, deviation: Callable[[], float]) -> bool:
        """Fold in deviation(); whether the check is still not n/a."""
        try:
            self.worst = max(self.worst, deviation())
        except ShallowTruncationError as exc:
            self.reason = str(exc)
        return self.reason is None

    def record(self, na_tol: Optional[float] = None) -> CheckRecord:
        if self.reason is not None:
            return CheckRecord(self.name, "n/a", na_tol, True, self.reason)
        return CheckRecord(self.name, self.worst, self.tol, self.worst <= self.tol)


def _pairs_by_case(graph: SimplicialGraph):
    verts = graph.vertices
    same = [(v, v) for v in verts]
    adj = [(u, v) for u in verts for v in verts if u != v and graph.adjacent(u, v)]
    non = [(u, v) for u in verts for v in verts if u != v and not graph.adjacent(u, v)]
    return same, adj, non


def main_identity_checks(
    sysm: GraphSystem, depth: int, rng: np.random.Generator, draws: int, tol: float = 1e-9,
    corrupt: bool = False,
) -> list[CheckRecord]:
    """The five product identities of creation/diagonal/annihilation
    operators, all case splits, on random algebra elements."""
    space = sysm.space(depth)
    same, adj, non = _pairs_by_case(sysm.graph)
    records: list[CheckRecord] = []

    def rnd(v):
        return sysm.sites[v].random_element(rng)

    def run(name, pairs, builder, reason="no vertex pair realizes this case"):
        if not pairs:
            records.append(CheckRecord(name, "n/a", tol, True, reason))
            return
        check = _Worst(name, tol)
        for _ in range(draws):
            u, v = pairs[int(rng.integers(0, len(pairs)))]
            if not check.add(lambda: builder(u, v)):
                break
        records.append(check.record(na_tol=tol))

    # (1) creation products
    run("creation.same_vertex_product_zero", same,
        lambda u, v: fk.guarded_norm(fk.creation(space, u, rnd(u)) @ fk.creation(space, v, rnd(v))))
    run("creation.adjacent_commute", adj,
        lambda u, v: (lambda a, b: fk.guarded_deviation(a @ b, b @ a))(
            fk.creation(space, u, rnd(u)), fk.creation(space, v, rnd(v))))

    # (2) diagonal against creation
    def d2_same(u, v):
        a, b = rnd(u), rnd(v)
        lhs = fk.creation(space, v, b) @ fk.diagonal(space, u, a)
        prod = sysm.centered(u, a @ b)  # omega(b) = 0 for centered draws
        rhs = fk.diagonal(space, u, a) @ fk.creation(space, v, b)
        return max(fk.guarded_norm(lhs), fk.guarded_deviation(rhs, fk.creation(space, u, prod)))

    run("diag_creation.same_vertex", same, d2_same)
    run("diag_creation.nonadjacent_zero", non,
        lambda u, v: fk.guarded_norm(fk.diagonal(space, u, rnd(u)) @ fk.creation(space, v, rnd(v))))
    run("diag_creation.adjacent_commute", adj,
        lambda u, v: (lambda d, c: fk.guarded_deviation(d @ c, c @ d))(
            fk.diagonal(space, u, rnd(u)), fk.creation(space, v, rnd(v))))

    # (3) annihilation against creation
    def d3_same(u, v):
        a, b = rnd(u), rnd(v)
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
        lambda u, v: fk.guarded_norm(
            fk.creation(space, u, rnd(u)).adjoint() @ fk.creation(space, v, rnd(v))))
    run("annih_creation.adjacent_commute", adj,
        lambda u, v: (lambda x, y: fk.guarded_deviation(x.adjoint() @ y, y @ x.adjoint()))(
            fk.creation(space, u, rnd(u)), fk.creation(space, v, rnd(v))))

    # (4) diagonal products
    run("diag_diag.nonadjacent_zero", non,
        lambda u, v: fk.guarded_norm(fk.diagonal(space, u, rnd(u)) @ fk.diagonal(space, v, rnd(v))))
    run("diag_diag.adjacent_commute", adj,
        lambda u, v: (lambda x, y: fk.guarded_deviation(x @ y, y @ x))(
            fk.diagonal(space, u, rnd(u)), fk.diagonal(space, v, rnd(v))))

    # (5) word projections through creation; acting can lengthen the index
    # word by one, so keep |w| below the depth
    group = sysm.group
    ball = [w for w in group.ball_tuples(max(0, min(depth - 1, 3)))]

    def d5(u, _v):
        a = rnd(u)
        w = ball[int(rng.integers(0, len(ball)))]
        cr = fk.creation(space, u, a)
        lhs = fk.q_projection(space, w) @ cr
        rhs = cr @ lat.apply_symbolic(space, lat.act_on_q(group, u, w))
        lhs2 = fk.q_projection(space, w) @ cr.adjoint()
        rhs2 = cr.adjoint() @ lat.apply_symbolic(space, lat.act_on_q(group, u, w))
        return max(fk.guarded_deviation(lhs, rhs), fk.guarded_deviation(lhs2, rhs2))

    # the action identity couples Q_e to the unital picture; restrict to
    # nontrivial w where both conventions agree
    ball = [w for w in ball if w]
    run("projection_action.creation", same if ball else [], d5, "no nontrivial word shorter than the depth")
    return records


def expectation_checks(
    sysm: GraphSystem, depth: int, rng: np.random.Generator, samples: int = 20
) -> list[CheckRecord]:
    """Properties of the conditional expectation E on random operators.

    Only idempotence and the gauge-average match compare guarded columns;
    at a depth too shallow for them they are n/a with the reason, while
    contractivity, positivity and the faithful kernel hold for any matrix,
    truncated or not, and report numbers at every depth."""
    space = sysm.space(depth)
    idem = _Worst("expectation.idempotent", 1e-10)
    contr = _Worst("expectation.contractive", 1e-10)
    pos = _Worst("expectation.positive", 1e-10)
    faith = _Worst("expectation.faithful_kernel", 1e-12)
    gauge = _Worst("expectation.gauge_average_match", 1e-12)
    for _ in range(samples):
        x = _random_truncated_operator(sysm, space, rng)
        e = fk.expectation_diag(x)
        idem.add(lambda: fk.guarded_deviation(fk.expectation_diag(e), e))
        exx = fk.expectation_gram(x)
        # sqrt||E(x*x)|| = max_w ||x p_w|| <= ||x||, so ||E(x)|| below it
        # certifies contractivity without the norm of the unstructured x
        nexx = exx.norm()
        contr.add(lambda: max(0.0, e.norm() - np.sqrt(nexx)))
        pos.add(lambda: max(0.0, -fk.expectation_min_eig(exx)))
        fro = float(np.linalg.norm(_mat.coo_parts(x.mat)[2]))
        faith.add(lambda: fro if fro > 1e-8 and nexx <= 1e-12 else 0.0)
        gauge.add(lambda: fk.guarded_deviation(fk.gauge_average(x, 2 * depth + 1), e))
    return [c.record() for c in (idem, contr, pos, faith, gauge)]


def _random_truncated_operator(sysm: GraphSystem, space, rng) -> fk.OperatorMatrix:
    """A random short product of lambda operators plus projections."""
    mats = []
    n = int(rng.integers(1, 4))
    for _ in range(n):
        v = sysm.graph.vertices[int(rng.integers(0, len(sysm.graph.vertices)))]
        kind = int(rng.integers(0, 3))
        if kind == 0:
            mats.append(fk.lambda_op(space, v, sysm.sites[v].random_element(rng, center=False)))
        elif kind == 1:
            mats.append(fk.creation(space, v, sysm.sites[v].random_element(rng)))
        else:
            mats.append(fk.diagonal(space, v, sysm.sites[v].random_element(rng, center=False)))
    return functools.reduce(operator.matmul, mats)


def gauge_covariance_checks(
    sysm: GraphSystem, depth: int, rng: np.random.Generator, samples: int = 20
) -> list[CheckRecord]:
    space = sysm.space(depth)
    worst = 0.0
    for _ in range(samples):
        factors = _random_elementary_factors(sysm, rng)
        terms = el.rewrite_to_elementary(factors, sysm)
        z = {v: np.exp(2j * np.pi * rng.random()) for v in sysm.graph.vertices}
        u = fk.gauge_unitary(space, z)
        for coeff, t in terms:
            m = el.term_matrix(t, space, coeff)
            char = 1.0 + 0j
            for v in t.creation_word():
                char *= z[v]
            for v in t.annihilation_word():
                char /= z[v]
            worst = max(worst, fk.guarded_deviation(u @ m @ u.adjoint(), char * m))
    return [CheckRecord("gauge.covariance_of_elementary_terms", worst, 1e-12, worst <= 1e-12)]


def _random_elementary_factors(
    sysm: GraphSystem, rng, max_len: int = 4, budget: int = 2, scalar: bool = False
) -> list[el.Factor]:
    """A random word of at most `max_len` factors with at most `budget`
    moving ones (create, annih, elem); `scalar` also draws scalar factors."""
    n = int(rng.integers(1, max_len + 1))
    out = []
    moving = 0
    for _ in range(n):
        v = sysm.graph.vertices[int(rng.integers(0, len(sysm.graph.vertices)))]
        kinds = ["diag", "qproj"] + (["scalar"] if scalar else []) + (
            ["create", "annih", "elem"] if moving < budget else []
        )
        k = kinds[int(rng.integers(0, len(kinds)))]
        if k == "scalar":
            out.append(el.Factor("scalar", value=complex(rng.standard_normal(), rng.standard_normal())))
            continue
        if k in ("create", "annih", "elem"):
            moving += 1
        if k == "qproj":
            out.append(el.Factor("qproj", v))
        else:
            out.append(el.Factor(k, v, sysm.sites[v].random_element(rng, center=(k != "diag"))))
    return out


def diagonality_checks(sysm: GraphSystem, depth: int, rng: np.random.Generator, samples: int = 30) -> list[CheckRecord]:
    space = sysm.space(depth)
    worst_diag = 0.0
    mismatches = 0
    for _ in range(samples):
        factors = _random_elementary_factors(sysm, rng)
        for coeff, t in el.rewrite_to_elementary(factors, sysm):
            sig = el.signature(t, sysm)
            m = el.term_matrix(t, space, coeff)
            off = fk.offdiagonal_mass(m)
            if not sig:
                worst_diag = max(worst_diag, off)
            elif fk.guarded_norm(m) > 1e-8 and off <= 1e-12:
                mismatches += 1
    return [
        CheckRecord("signature.identity_terms_diagonal", worst_diag, 1e-10, worst_diag <= 1e-10),
        CheckRecord("signature.nontrivial_terms_offdiagonal", mismatches, None, mismatches == 0),
    ]


def _positivity_violation(lhs: fk.OperatorMatrix, rhs: fk.OperatorMatrix) -> float:
    """How far rhs - lhs is from positive on the common guarded block: minus
    the smallest eigenvalue of its Hermitian part there, or 0.  The block is
    read off the difference's cut at the guard."""
    guard = min(lhs.guard, rhs.guard)
    idx = lhs.space.cols_upto(guard)
    rows, cols, data = _mat.principal_parts((rhs - lhs).cols(guard), idx)
    return max(0.0, -_mat.hermitian_min_eig(rows, cols, data, len(idx)))


def conjugation_positivity_checks(
    sysm: GraphSystem, depth: int, rng: np.random.Generator, samples: int = 15
) -> list[CheckRecord]:
    """a* Q_v^perp a <= omega(aa*) Q_v, and the shifted variant for words
    outside the centralizer that v does not start."""
    space = sysm.space(depth)
    group = sysm.group
    worst1 = worst2 = 0.0
    for _ in range(samples):
        v = sysm.graph.vertices[int(rng.integers(0, len(sysm.graph.vertices)))]
        a = sysm.sites[v].random_element(rng)
        lam = fk.lambda_op(space, v, a)
        qv = fk.q_projection(space, (v,))
        qperp = fk.identity_op(space) - qv
        omega_aa = sysm.sites[v].state.omega(a @ a.star()).real
        worst1 = max(worst1, _positivity_violation(lam.adjoint() @ qperp @ lam, omega_aa * qv))
        cands = [w for w in group.ball_tuples(min(2, depth - 2 if depth > 2 else 1))
                 if w and not group.commutes_tuple(w, v) and not group.leq_tuple((v,), w)]
        if cands:
            w = cands[int(rng.integers(0, len(cands)))]
            qw = fk.q_projection(space, w)
            vw = group.mul_tuple((v,), w)
            if len(vw) <= space.n:
                lhs2 = lam.adjoint() @ qw @ lam
                worst2 = max(worst2, _positivity_violation(lhs2, omega_aa * fk.q_projection(space, vw)))
    return [
        CheckRecord("conjugation.qperp_dominated", worst1, 1e-9, worst1 <= 1e-9),
        CheckRecord("conjugation.shifted_dominated", worst2, 1e-9, worst2 <= 1e-9),
    ]


def rewrite_certificate_checks(
    sysm: GraphSystem, depth: int, rng: np.random.Generator, samples: int, tol: float = 1e-9,
    max_len: int = 8, corrupt: bool = False,
) -> list[CheckRecord]:
    space = sysm.space(depth)
    worst = 0.0
    for _ in range(samples):
        factors = _random_elementary_factors(sysm, rng, max_len, budget=max(1, depth - 1), scalar=True)
        terms = el.rewrite_to_elementary(factors, sysm)
        lhs = el.expression_matrix(factors, space)
        rhs = el.terms_matrix(terms, space)
        if corrupt and terms:
            rhs = rhs + 1e-3 * el.term_matrix(terms[0][1], space, terms[0][0])
        worst = max(worst, fk.guarded_deviation(lhs, rhs))
    return [CheckRecord("rewrite.certificate", worst, tol, worst <= tol)]


def rho_lambda_commutation_checks(
    sysm: GraphSystem, depth: int, rng: np.random.Generator, samples: int = 20
) -> list[CheckRecord]:
    space = sysm.space(depth)
    worst = 0.0
    pairs = [(u, v) for u in sysm.graph.vertices for v in sysm.graph.vertices if u != v]
    for _ in range(samples):
        u, v = pairs[int(rng.integers(0, len(pairs)))]
        x = sysm.sites[u].random_element(rng, center=False)
        y = sysm.sites[v].random_element(rng, center=False)
        lam = fk.lambda_op(space, u, x)
        rho = fk.rho_op(space, v, y)
        worst = max(worst, fk.guarded_deviation(lam @ rho, rho @ lam))
    return [CheckRecord("rho_lambda.commutation", worst, 1e-9, worst <= 1e-9)]


def subgraph_expectation_checks(sysm: GraphSystem, depth: int, rng: np.random.Generator) -> list[CheckRecord]:
    records = []
    verts = sysm.graph.vertices
    if len(verts) < 2:
        return [CheckRecord("subgraph.expectation", "n/a", None, True, "graph too small")]
    space = sysm.space(depth)
    sub = sysm.graph.induced(verts[:-1])
    outside = verts[-1]
    inside = verts[0]
    x_in = fk.creation(space, inside, sysm.sites[inside].random_element(rng))
    dev_keep = fk.guarded_deviation(fk.expectation_subgraph(space, sub, x_in), x_in)
    x_out = fk.creation(space, outside, sysm.sites[outside].random_element(rng))
    dev_kill = fk.guarded_norm(fk.expectation_subgraph(space, sub, x_out))
    ident = fk.identity_op(space)
    dev_one = fk.guarded_deviation(fk.expectation_subgraph(space, sub, ident), ident)
    mixed = x_in @ x_out
    dev_kill2 = fk.guarded_norm(fk.expectation_subgraph(space, sub, mixed))
    worst = max(dev_keep, dev_kill, dev_one, dev_kill2)
    records.append(CheckRecord("subgraph.expectation", worst, 1e-10, worst <= 1e-10))
    return records


def ideal_profile_checks(sysm: GraphSystem, depth: int, rng: np.random.Generator) -> list[CheckRecord]:
    """Finite-rank elements have vanishing tails, the identity does not."""
    space = sysm.space(depth)
    theta = fk.identity_op(space)
    for v in sysm.graph.vertices:
        theta = theta @ (fk.identity_op(space) - fk.q_projection(space, (v,)))
    prof = fk.tail_profile(theta)
    finite_rank_ok = max(prof, default=0.0) <= 1e-12
    ident_prof = fk.tail_profile(fk.identity_op(space))
    ident_ok = all(abs(p - 1.0) <= 1e-12 for p in ident_prof)
    v0 = sysm.graph.vertices[0]
    cr = fk.creation(space, v0, sysm.sites[v0].random_element(rng))
    prof_cr = fk.tail_profile(cr)
    monotone = all(prof_cr[i] >= prof_cr[i + 1] - 1e-12 for i in range(len(prof_cr) - 1))
    bound_ok = max(prof_cr, default=0.0) <= cr.norm() ** 2 + 1e-9
    return [
        CheckRecord("ideal.vacuum_rank_one_tail_zero", max(prof, default=0.0), 1e-12, finite_rank_ok),
        CheckRecord("ideal.identity_tail_ones", max(abs(p - 1.0) for p in ident_prof) if ident_prof else 0.0, 1e-12, ident_ok),
        CheckRecord("ideal.creation_tail_monotone_bounded", bool(monotone and bound_ok), None, monotone and bound_ok),
    ]


def tensor_split_checks(sysm: GraphSystem, depth: int) -> list[CheckRecord]:
    """When the graph is a nontrivial join, verify the split against the
    Kronecker picture; skipped with a reason otherwise."""
    parts = sysm.graph.join_decomposition()
    if len(parts) < 2:
        return [CheckRecord("tensor.split", "n/a", None, True, "complement connected; no join to split")]
    part1 = parts[0].vertices
    part2 = tuple(v for v in sysm.graph.vertices if v not in set(part1))
    rep = fk.tensor_split_check(sysm.graph, part1, part2, sysm.reps(), min(depth, 4), dim_cap=sysm.dim_cap)
    return [CheckRecord("tensor.split", rep.max_deviation, 1e-12, rep.max_deviation <= 1e-12)]


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
    worst = 0.0
    short = group.ball_tuples(1)
    for u in short:
        for w in short:
            check = lat.lattice_product(group, u, w, 4)
            worst = max(worst, check.max_deviation)
    records.append(CheckRecord("lattice.projection_products", worst, 0.0, worst == 0.0))
    return records


def traciality_probe_checks(sysm: GraphSystem, depth: int, seed: int) -> list[CheckRecord]:
    all_tracial = all(s.state.is_tracial() for s in sysm.sites.values())
    worst = traciality_probe(sysm, depth=depth, seed=seed, samples=60)
    if all_tracial:
        return [CheckRecord("trace.vacuum_probe", worst, 1e-10, worst <= 1e-10)]
    return [CheckRecord("trace.vacuum_probe_detects_violation", worst, 1e-3, worst > 1e-3)]


class SuiteRun(NamedTuple):
    """What the groups of one suite run read; they draw from rng in table order."""

    sysm: GraphSystem
    depth: int
    seed: int
    rng: np.random.Generator
    draws: int
    rewrite_samples: int
    tol: float


class CheckGroup(NamedTuple):
    """A row of SUITE.  run(suite_run, corrupt) returns the group's records,
    with its fault injected when corrupt, which only a group that `faults`
    heeds; its name is then a `fault_injection` value.  A group too shallow
    for the depth (ShallowTruncationError) reports its `shallow` checks n/a;
    one with none splits n/a per check itself."""

    name: str
    run: Callable[[SuiteRun, bool], list[CheckRecord]]
    shallow: tuple[str, ...] = ()
    faults: bool = False


# Report order.  Each runner looks its group's function up in the module at
# call time, so that rebinding the module attribute (a tracer) takes effect.
SUITE = (
    CheckGroup("identities", lambda r, c: main_identity_checks(
        r.sysm, r.depth, r.rng, r.draws, r.tol, c), faults=True),
    CheckGroup("expectation", lambda r, _: expectation_checks(r.sysm, r.depth, r.rng)),
    CheckGroup("gauge", lambda r, _: gauge_covariance_checks(r.sysm, r.depth, r.rng),
               ("gauge.covariance_of_elementary_terms",)),
    CheckGroup("signature", lambda r, _: diagonality_checks(r.sysm, r.depth, r.rng),
               ("signature.identity_terms_diagonal", "signature.nontrivial_terms_offdiagonal")),
    CheckGroup("conjugation", lambda r, _: conjugation_positivity_checks(r.sysm, r.depth, r.rng),
               ("conjugation.qperp_dominated", "conjugation.shifted_dominated")),
    CheckGroup("rewrite", lambda r, c: rewrite_certificate_checks(
        r.sysm, r.depth, r.rng, r.rewrite_samples, r.tol, corrupt=c), ("rewrite.certificate",), True),
    CheckGroup("rho_lambda", lambda r, _: rho_lambda_commutation_checks(r.sysm, r.depth, r.rng),
               ("rho_lambda.commutation",)),
    CheckGroup("subgraph", lambda r, _: subgraph_expectation_checks(r.sysm, r.depth, r.rng),
               ("subgraph.expectation",)),
    CheckGroup("lattice", lambda r, _: lattice_checks(r.sysm, r.depth)),
    CheckGroup("tensor", lambda r, _: tensor_split_checks(r.sysm, r.depth), ("tensor.split",)),
    CheckGroup("ideal", lambda r, _: ideal_profile_checks(r.sysm, r.depth, r.rng),
               ("ideal.vacuum_rank_one_tail_zero", "ideal.identity_tail_ones",
                "ideal.creation_tail_monotone_bounded")),
    CheckGroup("trace", lambda r, _: traciality_probe_checks(r.sysm, r.depth, r.seed)),
)
FAULTS = tuple(g.name for g in SUITE if g.faults)


def identity_suite(
    sysm: GraphSystem,
    depth: int = 4,
    seed: int = 0,
    draws: int = 20,
    rewrite_samples: int = 40,
    corrupt: Optional[str] = None,
    identity_tol: float = 1e-9,
) -> SuiteReport:
    """Run the groups of SUITE in order, each check at its stated tolerance.

    A group too shallow for the depth asked for reports its `shallow`
    checks n/a with the reason.  `corrupt` names one group of FAULTS whose
    fault is injected, so a harness self-test can confirm that failures are
    detected.
    """
    if corrupt is not None and corrupt not in FAULTS:
        raise ValueError(f"no fault for {corrupt!r}; expected one of {FAULTS}")
    t0 = time.time()
    run = SuiteRun(sysm, depth, seed, np.random.default_rng(seed), draws, rewrite_samples, identity_tol)
    checks: list[CheckRecord] = []
    for group in SUITE:
        try:
            checks += group.run(run, corrupt == group.name)
        except ShallowTruncationError as exc:
            if not group.shallow:
                raise
            checks += [CheckRecord(name, "n/a", None, True, str(exc)) for name in group.shallow]
    return SuiteReport(checks, seed, time.time() - t0)
