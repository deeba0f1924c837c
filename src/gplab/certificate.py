"""An exact certificate of the suite's identities on one truncated space.

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
each identity's products guard, and nothing beyond N.  The same holds for
the rows whose identities are quadratic or word-level:
  gauge        a unit E_ts of lambda_v moves letter counts by
      ([t >= 1] - [s >= 1]) e_v (`letters`), so U_z E_ts U_z* =
      z_v^([t >= 1] - [s >= 1]) E_ts and an elementary term picks up
      z^(creation counts - annihilation counts), for every z
  signature    a unit sends word w to v.w or keeps it (`words`), so a term
      with creation word c and annihilation word a sends w to c a^-1 w:
      block-diagonal for a trivial signature, off the diagonal otherwise
  conjugation  lambda_v(a)* E_00 lambda_v(a) = (r r*) on the v-leg, with
      r_s = conj(m[0, s]) supported on s >= 1 for a centred a, so it is at
      most |r|^2 Q_v = omega(aa*) Q_v (`head`, `gns`); for w outside the
      centralizer of v that v does not start, Q_w vanishes on slot_v >= 1 and
      Q_vw is slot_v >= 1 with Q_w on the tail (`shift`), so
      lambda_v(a)* Q_w lambda_v(a) <= omega(aa*) Q_vw
  trace        x Omega, for x a product of centred lambdas along a reduced
      word, is the elementary tensor of the m[:, 0] in that word's block
      (`lambda_units`, `words`), so <Omega, xy Omega> = [w_y = w_x^-1]
      prod_i omega(a_i b_pi(i)), pi matching their letters: the vacuum
      state is tracial exactly when every vertex state is (`tracial`), and
      a pair of units breaking a vertex trace (trace_gap) is a pair of
      length-one operators breaking the vacuum trace by as much

The tables are compiled from the group's cover table (words.CoverTable),
which defines the word maps: fock._factor splits each word along its
single-letter splits, and fock.q_mask reads Q_w off its up-sets.  The
`head`, `action` and `shift` facts compare two reads of it, the splits and
the up-sets.  The `words` fact is its oracle on the tables: it reduces v.w
with reduce_tuple and reads no cover; lattice.identification_check, which
decides w <= v with leq_tuple, is its oracle on Q_w.

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
      generator action act_on_q(v, w) read as the diagonal that
      lattice.apply_symbolic realises (lattice.symbolic_diagonal), for
      every vertex v and every w of action_words
  letters      each existing target k = targets_v[j, t] of lambda_v has the
      letter counts of j plus ([t >= 1] - [slot[j] >= 1]) e_v, in the
      space's letter table (fock._letter_table)
  words        each existing target k = targets_v[j, t] of lambda_v lies in
      the block of v.w, w the word of j, when [t >= 1] != [slot[j] >= 1],
      and in w's block otherwise; v.w is reduce_tuple((v,) + w) where the
      unit adds v, and the word that v.w maps to where it drops v
  shift        for every vertex v and every w of shift_words(space, v):
      Q_w is 0 where slot_v >= 1, and Q_vw = [slot_v >= 1] Q_w[targets_v[:, 0]]
  tracial      for every vertex, the pairs of matrix units a, b with
      |omega(ab) - omega(ba)| above the tolerance, omega(ab) read as
      (m_a m_b)[0, 0]
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

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


def _head_breaks(space: fk.TruncatedFock, v) -> int:
    return int(np.count_nonzero(fk.q_mask(space, (v,)) != (side_table(space, v, True).slot >= 1)))


def action_words(space: fk.TruncatedFock) -> list[Letters]:
    """The words w of the action fact, which projection_action.creation
    samples: nontrivial, and at most min(N - 1, 3) long, so that acting can
    lengthen them by one inside the truncation."""
    return [w for w in space.group.ball_tuples(max(0, min(space.n - 1, 3))) if w]


def _action_breaks(space: fk.TruncatedFock) -> int:
    bad = 0
    for v in space.graph.vertices:
        tab = side_table(space, v, True)
        creates = _creates(tab) & (tab.targets >= 0)
        up_cols, up_rows = np.nonzero(creates)[0], tab.targets[creates]
        down_cols = np.flatnonzero(tab.slot >= 1)
        down_rows = tab.targets[down_cols, 0]
        for w in action_words(space):
            act = lat.symbolic_diagonal(space, lat.act_on_q(space.group, v, w))
            qw = fk.q_mask(space, w)
            bad += np.count_nonzero(qw[up_rows] != act[up_cols]) + np.count_nonzero(qw[down_rows] != act[down_cols])
    return int(bad)


def _existing(tab: SideTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(j, t, targets[j, t]) for every existing target of the table."""
    jj, tt = np.nonzero(tab.targets >= 0)
    return jj, tt, tab.targets[jj, tt]


def _letter_breaks(space: fk.TruncatedFock, v) -> int:
    tab = side_table(space, v, True)
    jj, tt, k = _existing(tab)
    counts = fk._letter_table(space)[1][space.word_ids]  # per column
    moved = counts[k] - counts[jj]
    moved[:, list(space.graph.vertices).index(v)] -= (tt >= 1).astype(int) - (tab.slot[jj] >= 1)
    return int(np.count_nonzero(np.any(moved != 0, axis=1)))


def _word_breaks(space: fk.TruncatedFock) -> int:
    """v.w is reduce_tuple((v,) + w) where a unit adds v; where it drops v
    from a word u, v.u is the w with v.w = u, as v.v = e."""
    group, wid = space.group, space.word_ids
    words = list(space._spans)
    block = {w: i for i, w in enumerate(words)}
    bad = 0
    for v in space.graph.vertices:
        tab = side_table(space, v, True)
        jj, tt, k = _existing(tab)
        adds, drops = (tt >= 1) & (tab.slot[jj] == 0), (tt == 0) & (tab.slot[jj] >= 1)
        # the block of v.w, and the block w of which each block is v.w, -1 where there is none
        vw, wv = np.full(len(words), -1), np.full(len(words), -1)
        for i in np.flatnonzero(np.bincount(wid[jj[adds]], minlength=len(words))):
            vw[i] = block.get(group.reduce_tuple((v,) + words[i]), -1)
        wv[vw[vw >= 0]] = np.flatnonzero(vw >= 0)
        want = np.where(adds, vw[wid[jj]], np.where(drops, wv[wid[jj]], wid[jj]))
        bad += np.count_nonzero(wid[k] != want)
    return int(bad)


def shift_words(space: fk.TruncatedFock, v) -> list[Letters]:
    """The words w that conjugation.shifted_dominated draws for v: nontrivial,
    outside the centralizer of v and not started by v, and at most
    min(2, N - 2) long (1 below depth 3)."""
    group, n = space.group, space.n
    return [w for w in group.ball_tuples(min(2, n - 2 if n > 2 else 1))
            if w and not group.commutes_tuple(w, v) and group.lift(w, v, True) < 0]


def _shift_breaks(space: fk.TruncatedFock, v) -> int:
    """For each w of shift_words with v.w inside the truncation, the entries
    where Q_w meets slot_v >= 1, and where Q_vw is not slot_v >= 1 with Q_w
    on the tail."""
    tab = side_table(space, v, True)
    starts = tab.slot >= 1
    bad = 0
    for w in shift_words(space, v):
        if len(w) < space.n:
            qw = fk.q_mask(space, w)
            qvw = fk.q_mask(space, space.group.mul_tuple((v,), w))
            bad += np.count_nonzero(qw & starts) + np.count_nonzero(qvw != (starts & qw[tab.targets[:, 0]]))
    return int(bad)


def _unit_traces(rep: GnsRep) -> np.ndarray:
    """|omega(ab) - omega(ba)| for every pair of matrix units a, b of the
    vertex algebra, omega(ab) read as (m_a m_b)[0, 0]."""
    mats = np.array([rep.matrix(b) for b in rep.algebra.basis()])
    ab = mats[:, 0, :] @ mats[:, :, 0].T  # ab[a, b] = (m_a m_b)[0, 0]
    return np.abs(ab - ab.T)


def trace_gap(space: fk.TruncatedFock) -> float:
    """The largest |omega(ab) - omega(ba)| over the vertices and their pairs
    of matrix units: the vacuum trace's violation that a pair of length-one
    operators shows, when the tables and GNS facts hold."""
    return max(float(_unit_traces(space.reps[v]).max()) for v in space.graph.vertices)


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
    "letters": lambda space, _: sum(_letter_breaks(space, v) for v in space.graph.vertices),
    "words": lambda space, _: _word_breaks(space),
    "shift": lambda space, _: sum(_shift_breaks(space, v) for v in space.graph.vertices),
    "tracial": lambda space, tol: sum(
        int(np.count_nonzero(_unit_traces(space.reps[v]) > tol)) for v in space.graph.vertices),
}


def breaks(space: fk.TruncatedFock, fact: str, tol: float) -> int:
    """How many entries or relations break one fact of the module docstring
    on this space, 0 when it holds; tol is the tolerance of the gns and
    tracial facts.  Computed once per (space, fact, tol) and cached in
    space._plans."""
    key = ("certificate", fact, tol)
    got = space._plans.get(key)
    if got is None:
        got = space._plans[key] = _FACTS[fact](space, tol)
    return got
