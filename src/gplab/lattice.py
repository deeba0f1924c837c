"""The word-indexed projection lattice on the group's own Hilbert space,
the generator action on those projections, and the constructive
non-fixed-prefix witness used by the simplicity machinery.

Here P_w is the diagonal projection selecting the basis words that start
with w, realized on a finite ball.  Unlike the Fock-side convention, P_e is
the identity: the lattice sums over every group element, the vacuum line
included.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _mat
from .fock import TruncatedFock, identity_op, q_projection, zero_op
from .graphs import VertexId, Walk
from .words import CoxeterGroup, Letters

DEFAULT_WITNESS_RADIUS = 6


@dataclass(frozen=True)
class QSymbolic:
    """Formal integer combination of word projections."""

    terms: tuple[tuple[int, Letters], ...]

    def __repr__(self) -> str:
        if not self.terms:
            return "QSymbolic(0)"
        parts = [f"{'+' if c >= 0 else '-'}{abs(c) if abs(c) != 1 else ''}Q{list(w)}" for c, w in self.terms]
        return "QSymbolic(" + " ".join(parts) + ")"


def lattice_projection(group: CoxeterGroup, depth: int, w: Letters) -> np.ndarray:
    """Diagonal 0/1 vector of P_w over the depth-ball basis (lex order)."""
    ball = group.ball_tuples(depth)
    return np.array([1.0 if group.leq_tuple(w, u) else 0.0 for u in ball])


@dataclass
class LatticeCheck:
    u: Letters
    w: Letters
    join: Optional[Letters]
    max_deviation: float
    conclusive: bool


def lattice_product(group: CoxeterGroup, u: Letters, w: Letters, depth: int) -> LatticeCheck:
    """Verify P_u P_w = P_{u v w} (or 0 without a common upper bound) on the
    depth-ball, for canonical words u and w.  Marked inconclusive rather than
    passed when the ball is too small to contain witnesses."""
    conclusive = 2 * max(len(u), len(w)) <= depth
    pu = lattice_projection(group, depth, u)
    pw = lattice_projection(group, depth, w)
    j = group.join_tuple(u, w)
    pj = lattice_projection(group, depth, j) if j is not None else np.zeros_like(pu)
    dev = float(np.max(np.abs(pu * pw - pj), initial=0.0))
    return LatticeCheck(u, w, j, dev, conclusive)


def act_on_q(group: CoxeterGroup, v: VertexId, w: Letters) -> QSymbolic:
    """The generator action on word projections, by centralizer trichotomy:
    outside the centralizer the index shifts; inside it, the projection is
    fixed or picks up a correction according to whether v starts the
    canonical word w."""
    vw = group.mul_tuple((v,), w)
    in_centralizer = group.commutes_tuple(w, v)
    starts = group.leq_tuple((v,), w)
    if not in_centralizer:
        return QSymbolic(((1, vw),))
    if starts:
        return QSymbolic(((1, vw), (-1, w)))
    return QSymbolic(((1, w),))


def apply_symbolic(space: TruncatedFock, sym: QSymbolic):
    """Realize a formal combination of word projections on a Fock truncation.

    The empty-word symbol realizes as the identity (the lattice convention,
    where the vacuum line is part of the trivial filter), not as the
    vacuum-excluding Fock projection.
    """
    out = None
    for coef, letters in sym.terms:
        base = identity_op(space) if letters == () else q_projection(space, letters)
        m = base * complex(coef)
        out = m if out is None else out + m
    if out is None:
        return zero_op(space)
    return out


@dataclass
class IdentificationRecord:
    pairs_checked: int
    mismatches: int


def identification_check(space: TruncatedFock, depth: Optional[int] = None) -> IdentificationRecord:
    """Couple the lattice picture to the Fock picture: for unit vectors
    eta_v built from a fixed slot choice, <P_w delta_v, delta_v> equals
    <Q_w eta_v, eta_v> for all ball words v, w.

    P_e maps to the identity (the unital extension), all other P_w to Q_w.
    """
    group = space.group
    n = space.n if depth is None else depth
    ball = group.ball_tuples(n)
    for v in space.graph.vertices:
        if space.reps[v].dim < 2:
            raise ValueError("identification needs nontrivial vertex spaces")
    mism = 0
    checked = 0
    qcache: dict[Letters, np.ndarray] = {}
    for w in ball:
        if w == ():
            diag = np.ones(space.dim)
        else:
            diag = _mat.diagonal(q_projection(space, w).mat).real
        qcache[w] = diag
    for v in ball:
        eta_idx = space.index_of(v, tuple(1 for _ in v))
        for w in ball:
            lattice_val = 1.0 if group.leq_tuple(w, v) else 0.0
            fock_val = float(qcache[w][eta_idx])
            checked += 1
            if lattice_val != fock_val:
                mism += 1
    return IdentificationRecord(checked, mism)


@dataclass
class WitnessReport:
    v: Letters
    walk: Walk
    checks: list[dict]
    conclusive: bool
    message: str = ""


def topofree_witness(
    group: CoxeterGroup,
    w: Letters,
    exclusions: Sequence[Letters],
    l_max: int,
    search_radius: int = DEFAULT_WITNESS_RADIUS,
) -> WitnessReport:
    """Search for v and a closed covering walk of the complement such that
    w v (walk)^L is length-additive and is not a prefix of x w v (walk)^L for
    any excluded x and 1 <= L <= l_max.  w and the exclusions are canonical
    words.

    Candidates v run through the ball by (length, lex); the walk is the
    canonical closed covering walk of the complement, rotated so its final
    letter ends w v whenever such a rotation exists.
    """
    graph = group.graph
    if len(graph.vertices) < 3:
        raise ValueError("witness search requires at least 3 vertices")
    comp = graph.complement()
    if not comp.is_connected():
        raise ValueError("complement must be connected")
    xs = [x for x in exclusions if x]
    base_walk = comp.closed_covering_walk()

    rotations = [base_walk.rotate(k) for k in range(len(base_walk.steps))]
    for v in group.ball_tuples(search_radius):
        wv = group.mul_tuple(w, v)
        if len(wv) != len(w) + len(v):
            continue
        ends = group.last_letters_tuple(wv)
        ordered = [r for r in rotations if r.steps[-1] in ends]
        ordered += [r for r in rotations if r.steps[-1] not in ends]
        for walk in ordered:
            g = walk.steps
            checks = []
            ok = True
            power: Letters = ()
            for ell in range(1, l_max + 1):
                power = power + g
                lhs = group.mul_tuple(wv, power)
                additive = len(lhs) == len(wv) + len(power)
                if not additive:
                    ok = False
                    break
                row = {"L": ell, "additive": True, "prefix_free": []}
                for x in xs:
                    xlhs = group.mul_tuple(x, lhs)
                    bad = group.leq_tuple(lhs, xlhs)
                    row["prefix_free"].append({"x": list(x), "holds": not bad})
                    if bad:
                        ok = False
                        break
                checks.append(row)
                if not ok:
                    break
            if ok and checks:
                return WitnessReport(v, walk, checks, True)
    return WitnessReport((), base_walk, [], False, f"search exhausted within radius {search_radius}")
