"""An exact certificate of the product identities on one truncated space.

lambda_v(x) and rho_v(x) are sums of matrix units.  The compiled pattern of
the whole operator (fock._side_pattern) stores, for each entry, the entry
src = t*dv + s of x's GNS matrix m that its value is read from, so the
operator of x is sum_{t,s} m[t, s] E_ts, where E_ts is the 0/1 matrix of
the entries whose src is t*dv + s.  Read back from the pattern, the E_ts of
one vertex and side form a table: column j reads slot s = slot[j] of its
v-leg, and E_ts sends it to row targets[j, t], -1 where that word is longer
than N.  The E_ts are the units e_t e_s* of H_v tensored with 1 exactly when
the table obeys the integer identities of the `*_units` facts below.

Every identity of the suite's `identities` and `rho_lambda` rows then
follows from integer facts about the tables, and from facts about the vertex
GNS maps m = pi(x) on the matrix units of the vertex algebra.  For example
C(a)* C(b) = sum_{t >= 1} conj(m_a[t, 0]) m_b[t, 0] E_00 =
(omega(a*b) - conj(omega(a)) omega(b)) E_00 with E_00 = 1 - Q_v.  So one pass
over the tables covers every element at depth N at once, on the columns
each identity's products guard, and nothing beyond N.

Each fact is a count of the entries or relations that break it, 0 when it
holds; a fact is computed once per space, on first read, and kept in
space._plans with the tables it reads.  Where a table has no entry, because
the word is longer than N, a composition of two units has none either; a
check compares two compositions only where both have one.  The `*_units`
facts pin down which entries exist, so on the columns of word length <= N-2
every composition of two units exists, and on each product's guarded
columns the compositions it reads do.

  lambda_units, rho_units  every vertex's table on that side: a target is
      missing only where a column of length N would gain a letter
      (slot 0 to slot t >= 1); targets[j, slot[j]] = j; and each existing
      target k = targets[j, t] has slot[k] = t, targets[k, :] =
      targets[j, :] and the word length of j with its slot changed to t
  gns          for every vertex, pi on the matrix units of its algebra: a
      unital *-homomorphism, m[0, 0] = omega(x), and m[0, 0] = 0 for a
      centred x, each within the given tolerance
  head         Q_v is the projection onto slot_v >= 1, so E_00 = 1 - Q_v
  commute      lambda_u and lambda_v, u and v adjacent: each keeps the
      other's slot and their units commute
  mixed        lambda_u and rho_v, u != v: the same
  disjoint     u and v not adjacent: slot_u = 0 on v's creation targets
  action       Q_w E_t0 = E_t0 A and Q_w E_0t = E_0t A for t >= 1, A the
      generator action act_on_q(v, w) realised as lattice.apply_symbolic
      does, for every vertex v and every w of action_words
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _mat
from . import fock as fk
from . import lattice as lat
from .algebras import GnsRep, centered
from .words import Letters


class SideTable(NamedTuple):
    """One vertex and side's units, read back from the compiled pattern."""

    targets: np.ndarray  # (dim, dv): the row E_t,slot[j] sends column j to, -1 where none
    slot: np.ndarray  # (dim,): the slot s every entry of column j reads, -1 where none
    clashes: int  # entries no table can hold: a second slot in a column, a second row for one (column, t)


def side_table(space: fk.TruncatedFock, v, left: bool) -> SideTable:
    """The units of lambda_v (left) or rho_v (right), recovered from the
    rows, columns and sources of the compiled pattern of the whole operator,
    so that a fault in compiling the pattern shows.  Cached in space._plans."""
    key = ("units", v, left)
    got = space._plans.get(key)
    if got is not None:
        return got
    pattern = fk._side_pattern(space, v, left, "all", space.n)
    dv = space.reps[v].dim
    rows = np.repeat(np.arange(space.dim), np.diff(pattern.indptr))
    cols = pattern.indices
    t, s = np.divmod(pattern.src.astype(np.intp), dv)
    slot = np.full(space.dim, -1, dtype=np.int32)
    slot[cols] = s
    targets = np.full((space.dim, dv), -1, dtype=np.int32)
    targets[cols, t] = rows
    clashes = int(np.count_nonzero(slot[cols] != s)) + len(cols) - int(np.count_nonzero(targets >= 0))
    got = space._plans[key] = SideTable(targets, slot, clashes)
    return got


def _creates(tab: SideTable) -> np.ndarray:
    """Which entries (j, t) of the table create a letter: slot 0 to t >= 1."""
    return (tab.slot == 0)[:, None] & (np.arange(tab.targets.shape[1]) >= 1)


def _unit_breaks(space: fk.TruncatedFock, v, left: bool) -> int:
    tab = side_table(space, v, left)
    targets, slot = tab.targets, tab.slot
    j = np.arange(space.dim)
    missing = _creates(tab) & (space.lengths == space.n)[:, None]
    bad = tab.clashes + np.count_nonzero((targets < 0) != missing)
    bad += np.count_nonzero((slot < 0) | (targets[j, np.maximum(slot, 0)] != j))
    jj, tt = np.nonzero(targets >= 0)
    k = targets[jj, tt]
    bad += np.count_nonzero(slot[k] != tt)
    bad += np.count_nonzero(np.any(targets[k] != targets[jj], axis=1))
    lengths = space.lengths
    bad += np.count_nonzero(lengths[k] != lengths[jj] - (slot[jj] >= 1) + (tt >= 1))
    return int(bad)


def _compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """outer's target after inner's, (dim, d_inner, d_outer); -1 where
    either has none, as inner's -1 reads the appended row of -1."""
    return np.vstack([outer, np.full((1, outer.shape[1]), -1, dtype=outer.dtype)])[inner]


def _commute_breaks(a: SideTable, b: SideTable) -> int:
    """How far the units of a and b are from commuting: each keeps the
    other's slot, and their two compositions agree where both exist."""
    ab = _compose(a.targets, b.targets)
    ba = _compose(b.targets, a.targets).transpose(0, 2, 1)
    bad = np.count_nonzero((ab != ba) & (ab >= 0) & (ba >= 0))
    for x, y in ((a, b), (b, a)):
        bad += np.count_nonzero((y.targets >= 0) & (x.slot[y.targets] != x.slot[:, None]))
    return int(bad)


def _disjoint_breaks(u: SideTable, v: SideTable) -> int:
    """Creation targets of v (slot 0 to t >= 1) on which u has a slot."""
    return int(np.count_nonzero(u.slot[v.targets[_creates(v) & (v.targets >= 0)]] != 0))


def _q_diagonal(space: fk.TruncatedFock, w: Letters) -> np.ndarray:
    """The diagonal of Q_w, or 1 for the empty word, as apply_symbolic
    realises it."""
    if w == ():
        return np.ones(space.dim)
    return _mat.diagonal(fk.q_projection(space, w).mat).real.copy()


def _head_breaks(space: fk.TruncatedFock, v) -> int:
    return int(np.count_nonzero(_q_diagonal(space, (v,)) != (side_table(space, v, True).slot >= 1)))


def action_words(space: fk.TruncatedFock) -> list[Letters]:
    """The words w of the action fact, which projection_action.creation
    samples: nontrivial, and at most min(N - 1, 3) long, so that acting can
    lengthen them by one inside the truncation."""
    return [w for w in space.group.ball_tuples(max(0, min(space.n - 1, 3))) if w]


def _action_breaks(space: fk.TruncatedFock) -> int:
    words = action_words(space)
    qw = {w: _q_diagonal(space, w) for w in words}
    bad = 0
    for v in space.graph.vertices:
        tab = side_table(space, v, True)
        creates = _creates(tab) & (tab.targets >= 0)
        up_cols, up_rows = np.nonzero(creates)[0], tab.targets[creates]
        down_cols = np.flatnonzero(tab.slot >= 1)
        down_rows = tab.targets[down_cols, 0]
        for w in words:
            act = sum(coef * _q_diagonal(space, word) for coef, word in lat.act_on_q(space.group, v, w).terms)
            bad += np.count_nonzero(qw[w][up_rows] != act[up_cols]) + np.count_nonzero(qw[w][down_rows] != act[down_cols])
    return int(bad)


def _gns_breaks(rep: GnsRep, tol: float) -> int:
    units = rep.algebra.basis()
    mats = [rep.matrix(b) for b in units]

    def off(x, y) -> int:
        return int(np.max(np.abs(x - y)) > tol)

    bad = off(rep.matrix(rep.algebra.one()), np.eye(rep.dim))
    for a, ma in zip(units, mats):
        bad += off(rep.matrix(a.star()), ma.conj().T)
        bad += off(ma[0, 0], rep.state.omega(a))
        bad += off(rep.matrix(centered(a, rep.state))[0, 0], 0.0)
        bad += sum(off(rep.matrix(a @ b), ma @ mb) for b, mb in zip(units, mats))
    return bad


def _pairs(space: fk.TruncatedFock) -> list:
    """(u, v, whether u and v are adjacent) for the ordered pairs of
    distinct vertices."""
    verts = space.graph.vertices
    return [(u, v, space.graph.adjacent(u, v)) for u in verts for v in verts if u != v]


# Each fact of the module docstring, as a function of (space, tol).
_FACTS = {
    "lambda_units": lambda space, _: sum(_unit_breaks(space, v, True) for v in space.graph.vertices),
    "rho_units": lambda space, _: sum(_unit_breaks(space, v, False) for v in space.graph.vertices),
    "gns": lambda space, tol: sum(_gns_breaks(space.reps[v], tol) for v in space.graph.vertices),
    "head": lambda space, _: sum(_head_breaks(space, v) for v in space.graph.vertices),
    "commute": lambda space, _: sum(
        _commute_breaks(side_table(space, u, True), side_table(space, v, True))
        for u, v, adjacent in _pairs(space) if adjacent and u < v),
    "mixed": lambda space, _: sum(
        _commute_breaks(side_table(space, u, True), side_table(space, v, False)) for u, v, _ in _pairs(space)),
    "disjoint": lambda space, _: sum(
        _disjoint_breaks(side_table(space, u, True), side_table(space, v, True))
        for u, v, adjacent in _pairs(space) if not adjacent),
    "action": lambda space, _: _action_breaks(space),
}


def breaks(space: fk.TruncatedFock, fact: str, tol: float) -> int:
    """How many entries or relations break one fact of the module docstring
    on this space, 0 when it holds; tol is the gns fact's tolerance.
    Computed once per (space, fact, tol) and cached in space._plans."""
    key = ("certificate", fact, tol)
    got = space._plans.get(key)
    if got is None:
        got = space._plans[key] = _FACTS[fact](space, tol)
    return got
