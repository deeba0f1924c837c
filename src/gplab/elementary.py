"""Elementary operators (creation word) x (clique diagonal) x (annihilation
word)*, their signatures, and the rewriting of generator products into sums
of elementary terms; and the random generator words and operator products
that the identity suite samples.

Why the rewrite is exact.  Write C(a) and D(c) for the creation and
diagonal parts of lambda_v(a) and lambda_v(c), the quadrants m[1:, 0] and
m[1:, 1:] of the element's GNS matrix m on the v-leg (fock._side_op), so
that C(b)* is the annihilation part, m[0, 1:], of lambda_v(b*); and write
a° = a - omega(a) 1.  rewrite_to_elementary multiplies its terms by the
factors from the right, one rule per factor and term, and each rule is a
product identity that the `identities` row certifies for every element from
the certificate facts `lambda_units`, `gns`, `head`, `commute` and
`disjoint` (gplab.certificate):
  _mul_factor  scalar: linearity.  create and annih: C(a) = C(a°), as
      centring changes only the diagonal of m.  qproj: Q_v = D(1_v), the
      projection onto slot_v >= 1 (`head`, and pi(1) = 1 by `gns`).  elem:
      lambda_v(a) = D(a) + C(a°) + C((a°)*)* + omega(a) (1 - D(1_v)), its
      four quadrants, with m[0, 0] = omega(a) (`gns`) and E_00 = 1 - Q_v
  _mul_create  C(c) C(a) = 0 at one vertex (`lambda_units`), where c meets
      an entry at v past entries at adjacent vertices, which commute with
      it (`commute`); otherwise c is prepended, and _canon_entries sorts
      the creation word by commuting adjacent entries (`commute`)
  _mul_diag    D(c) passes entries at adjacent vertices (`commute`), and
      D(c) C(a) = D(c) D(d) = 0 where the first entry it meets is at a
      vertex that is not adjacent (`disjoint`).  At v: D(c) C(a) = C((ca)°)
      for a centred a, and D(c) D(d) = D(cd) - C(c°) C((d*)°)*, as
      (m_c m_d)[1:, 1:] = m_c[1:, 1:] m_d[1:, 1:] + m_c[1:, 0] m_d[0, 1:]
      (`lambda_units`, `gns`); the second term is rewritten by the rules
      again, from the annihilation inwards
  _mul_annih   passes and vanishes as _mul_diag does, C(c)* being the
      adjoint of a creation.  At v: C(c)* C(a) = omega(c* a) (1 - D(1_v))
      for centred c and a (`lambda_units`, `gns`, `head`), where D(1_v)
      commutes with the creations passed, so it is applied at the front;
      C(c)* D(d) = C((d* c)°)*; and C(c)* C(b)* = (C(b) C(c))* = 0 where v
      is the last letter of the annihilation word up to commuting letters
The same-vertex rules, the linear ones on every basis element of A_v and
the bilinear ones on every pair, are checked against the quadrants of m on
H_v by the `rules` fact.  Each side of a rule is linear or conjugate-linear
in each element, the same on both sides, so the basis covers every element,
and `lambda_units` makes the quadrants, tensored with 1, the operators on
the Fock space.

The word decisions (`lift`, `commutes_tuple` and `sort_with_perm`) rest on
the word engine, as the `words` fact does, and tests/test_words.py holds
them to oracles.  A runtime fact for them would not be independent: the
oracle of the `words` fact, reduce_tuple, itself calls lift
(words._reduce_word).  It would be slow as well: reduce_tuple on both sides
of every pair of a ball word and a vertex took 16-27 ms on the Hecke q = 1
fixture at depth 7 (382 words), about what the random draws it would
replace there cost.

The induction.  After the k rightmost factors, the terms sum to their
product as operators on the whole Fock space: each rule replaces a factor
times a term by terms summing to it, and _coalesce adds the coefficients of
equal terms.  An OperatorMatrix equals its operator on its guarded columns,
so expression_matrix and terms_matrix agree on their common guarded
columns, which is what the `rewrite` row reads.  Rules drop an entry or a
coefficient at most ZERO_TOL, 1e-14, which moves the sum by that much times
the rest of its term: far below the row's tolerance on its draws.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebras import Element
from .errors import ResourceLimitError
from .fock import (
    OperatorMatrix,
    TruncatedFock,
    creation,
    diagonal,
    identity_op,
    lambda_op,
    q_projection,
    zero_op,
)
from .graphs import VertexId
from .system import GraphSystem
from .words import Letters

EXPRESSION_LENGTH_CAP = 12
TERM_COUNT_CAP = 4096
# The moving factors (create, annih, elem) of a random word by default.  Each
# adds at most one creation to a term, so a term can hold this many; two
# diagonals at one vertex add one more (d(c) d(c') holds c^+ ((c'*)^+)*).
FACTOR_BUDGET = 2
# The most factors of a random operator (random_operator).  Each costs at
# most one guard level, so a product has guard at least N - OPERATOR_FACTORS.
OPERATOR_FACTORS = 3

ZERO_TOL = 1e-14

Entry = tuple[VertexId, Element]


@dataclass(frozen=True)
class ElementaryTerm:
    """(a_1^+ ... a_k^+) d (b_1^+ ... b_l^+)* with reduced index words.

    Creation and annihilation entries carry centered elements; the diagonal
    part is a product of vertex diagonals over a clique with distinct
    vertices, stored sorted by vertex.
    """

    creation: tuple[Entry, ...]
    diag: tuple[Entry, ...]
    annihilation: tuple[Entry, ...]

    def creation_word(self) -> Letters:
        return tuple(v for v, _ in self.creation)

    def annihilation_word(self) -> Letters:
        return tuple(v for v, _ in self.annihilation)


IDENTITY_TERM = ElementaryTerm((), (), ())

Terms = list[tuple[complex, ElementaryTerm]]


@dataclass(frozen=True)
class Factor:
    """One generator in an expression: kind in {'elem', 'create', 'diag',
    'annih', 'qproj', 'scalar'}.  'annih' with element a denotes (a^+)*."""

    kind: str
    vertex: Optional[VertexId] = None
    element: Optional[Element] = None
    value: complex = 1.0


def signature(term: ElementaryTerm, sys: GraphSystem) -> Letters:
    """The group element (u_1...u_k)(v_1...v_l)^{-1} attached to the term."""
    g = sys.group
    create = term.creation_word()
    annih = term.annihilation_word()
    for w in (create, annih):
        if len(g.reduce_tuple(w)) != len(w):
            raise ValueError(f"index word {w} is not reduced")
    return g.mul_tuple(create, g.inv_tuple(annih))


def _canon_entries(sys: GraphSystem, entries: Sequence[Entry]) -> tuple[Entry, ...]:
    letters = tuple(v for v, _ in entries)
    _, perm = sys.group.sort_with_perm(letters)
    return tuple(entries[p] for p in perm)


def _mul_create(sys: GraphSystem, v: VertexId, c: Element, coeff: complex, t: ElementaryTerm) -> Terms:
    if c.is_zero(ZERO_TOL):
        return []
    if sys.group.lift(t.creation_word(), v, True) >= 0:
        return []  # commutes up to a same-vertex creation pair, which vanishes
    new = _canon_entries(sys, ((v, c),) + t.creation)
    return [(coeff, ElementaryTerm(new, t.diag, t.annihilation))]


def _find(sys: GraphSystem, v: VertexId, entries: Sequence[Entry]) -> Optional[int]:
    """Position of the entry at v that v moves to from the front, -1 when v
    passes every entry, or None when an entry blocks it."""
    word = tuple(u for u, _ in entries)
    i = sys.group.lift(word, v, True)
    return i if i >= 0 or sys.group.commutes_tuple(word, v) else None


def _mul_diag(sys: GraphSystem, v: VertexId, c: Element, coeff: complex, t: ElementaryTerm) -> Terms:
    if c.is_zero(ZERO_TOL):
        return []
    i = _find(sys, v, t.creation)
    if i is None:
        return []
    if i >= 0:
        merged = sys.centered(v, c @ t.creation[i][1])
        if merged.is_zero(ZERO_TOL):
            return []
        new = t.creation[:i] + ((v, merged),) + t.creation[i + 1:]
        return [(coeff, ElementaryTerm(new, t.diag, t.annihilation))]
    # the diagonal vertices form a clique, so v is blocked only when absent
    j = _find(sys, v, t.diag)
    if j is None:
        return []
    if j < 0:
        new_diag = tuple(sorted(t.diag + ((v, c),), key=lambda e: e[0]))
        return [(coeff, ElementaryTerm(t.creation, new_diag, t.annihilation))]
    # d(c) d(cj) = d(c cj) - c^+ ((cj*)^+)* at the same vertex
    cj = t.diag[j][1]
    out: Terms = [
        (
            coeff,
            ElementaryTerm(t.creation, t.diag[:j] + ((v, c @ cj),) + t.diag[j + 1:], t.annihilation),
        )
    ]
    base = ElementaryTerm((), t.diag[j + 1:], t.annihilation)
    pieces = _mul_annih(sys, v, sys.centered(v, cj.star()), -coeff, base)
    pieces = _chain(_mul_create, sys, v, sys.centered(v, c), pieces)
    for w2, c2 in reversed(t.diag[:j]):
        pieces = _chain(_mul_diag, sys, w2, c2, pieces)
    for u2, a2 in reversed(t.creation):
        pieces = _chain(_mul_create, sys, u2, a2, pieces)
    return out + pieces


def _mul_annih(sys: GraphSystem, v: VertexId, c: Element, coeff: complex, t: ElementaryTerm) -> Terms:
    if c.is_zero(ZERO_TOL):
        return []
    i = _find(sys, v, t.creation)
    if i is None:
        return []
    if i >= 0:
        s = sys.omega(v, c.star() @ t.creation[i][1])
        if abs(s) <= ZERO_TOL:
            return []
        rest = ElementaryTerm(t.creation[:i] + t.creation[i + 1:], t.diag, t.annihilation)
        # (c^+)* a^+ = omega(c* a) Q_v^perp; expand Q_v^perp = 1 - d(1_v).
        one = sys.sites[v].algebra.one()
        return [(coeff * s, rest)] + _mul_diag(sys, v, one, -coeff * s, rest)
    j = _find(sys, v, t.diag)
    if j is None:
        return []
    new_diag = t.diag
    if j >= 0:
        c = sys.centered(v, t.diag[j][1].star() @ c)
        if c.is_zero(ZERO_TOL):
            return []
        new_diag = t.diag[:j] + t.diag[j + 1:]
    if sys.group.lift(t.annihilation_word(), v, False) >= 0:
        return []  # same-vertex creation pair inside the star, vanishes
    new_annih = _canon_entries(sys, t.annihilation + ((v, c),))
    return [(coeff, ElementaryTerm(t.creation, new_diag, new_annih))]


def _chain(fn, sys, v, c, terms: Terms) -> Terms:
    out: Terms = []
    for coeff, t in terms:
        out.extend(fn(sys, v, c, coeff, t))
    return out


def _mul_factor(sys: GraphSystem, f: Factor, terms: Terms) -> Terms:
    if f.kind == "scalar":
        return [(coeff * f.value, t) for coeff, t in terms]
    v = f.vertex
    if v not in sys.sites:
        raise ValueError(f"unknown vertex {v}")
    if f.kind == "create":
        return _chain(_mul_create, sys, v, sys.centered(v, f.element), terms)
    if f.kind == "diag":
        return _chain(_mul_diag, sys, v, f.element, terms)
    if f.kind == "annih":
        return _chain(_mul_annih, sys, v, sys.centered(v, f.element), terms)
    if f.kind == "qproj":
        return _chain(_mul_diag, sys, v, sys.sites[v].algebra.one(), terms)
    if f.kind == "elem":
        a = f.element
        w0 = sys.omega(v, a)
        a0 = sys.centered(v, a)
        out: Terms = []
        out.extend(_chain(_mul_diag, sys, v, a, terms))
        out.extend(_chain(_mul_create, sys, v, a0, terms))
        out.extend(_chain(_mul_annih, sys, v, a0.star(), terms))
        if abs(w0) > ZERO_TOL:
            one = sys.sites[v].algebra.one()
            for coeff, t in terms:
                out.append((coeff * w0, t))
                out.extend(_mul_diag(sys, v, one, -coeff * w0, t))
        return out
    raise ValueError(f"unknown factor kind {f.kind!r}")


def _coalesce(terms: Terms) -> Terms:
    buckets: dict[bytes, tuple[complex, ElementaryTerm]] = {}
    for coeff, t in terms:
        key_parts = []
        for group in (t.creation, t.diag, t.annihilation):
            for v, e in group:
                key_parts.append(str(v).encode())
                key_parts.append((e.coeffs() + 0.0).tobytes())  # + 0.0 maps -0.0 to 0.0
            key_parts.append(b"|")
        key = b";".join(key_parts)
        if key in buckets:
            c0, t0 = buckets[key]
            buckets[key] = (c0 + coeff, t0)
        else:
            buckets[key] = (coeff, t)
    return [(c, t) for c, t in buckets.values() if abs(c) > ZERO_TOL]


def rewrite_to_elementary(factors: Sequence[Factor], sys: GraphSystem) -> Terms:
    """Expand a product of generators into elementary terms.

    The returned list of (coefficient, term) pairs sums, as a matrix on the
    guarded subspace of any truncation, to the matrix of the input product;
    see expression_matrix and term_matrix for the certificate.
    """
    if len(factors) > EXPRESSION_LENGTH_CAP:
        raise ResourceLimitError(f"expression length {len(factors)} exceeds cap {EXPRESSION_LENGTH_CAP}")
    terms: Terms = [(1.0 + 0j, IDENTITY_TERM)]
    for f in reversed(factors):
        terms = _coalesce(_mul_factor(sys, f, terms))
        if len(terms) > TERM_COUNT_CAP:
            raise ResourceLimitError(f"term count {len(terms)} exceeds cap {TERM_COUNT_CAP}")
    return terms


def random_factors(
    sys: GraphSystem, rng, max_len: int = 4, budget: int = FACTOR_BUDGET, scalar: bool = False,
) -> list[Factor]:
    """A random word of at most `max_len` factors with at most `budget`
    moving ones (create, annih, elem); `scalar` also draws scalar factors."""
    n = int(rng.integers(1, max_len + 1))
    out = []
    moving = 0
    for _ in range(n):
        v = sys.graph.vertices[int(rng.integers(0, len(sys.graph.vertices)))]
        kinds = ["diag", "qproj"] + (["scalar"] if scalar else []) + (
            ["create", "annih", "elem"] if moving < budget else []
        )
        k = kinds[int(rng.integers(0, len(kinds)))]
        if k == "scalar":
            out.append(Factor("scalar", value=complex(rng.standard_normal(), rng.standard_normal())))
            continue
        if k in ("create", "annih", "elem"):
            moving += 1
        if k == "qproj":
            out.append(Factor("qproj", v))
        else:
            out.append(Factor(k, v, sys.sites[v].random_element(rng, center=(k != "diag"))))
    return out


def random_operator(sys: GraphSystem, space: TruncatedFock, rng) -> OperatorMatrix:
    """A random product of 1 to OPERATOR_FACTORS lambda operators, creations
    and diagonals.

    Each factor moves a word w to w or v w, so the product joins no two
    distinct words with equal letter counts, and fk.gauge_average at m > 2N
    equals fk.expectation_diag on it (expectation.gauge_average_match); on
    a product of 4 factors it need not."""
    mats = []
    n = int(rng.integers(1, OPERATOR_FACTORS + 1))
    for _ in range(n):
        v = sys.graph.vertices[int(rng.integers(0, len(sys.graph.vertices)))]
        kind = int(rng.integers(0, 3))
        if kind == 0:
            mats.append(lambda_op(space, v, sys.sites[v].random_element(rng, center=False)))
        elif kind == 1:
            mats.append(creation(space, v, sys.sites[v].random_element(rng)))
        else:
            mats.append(diagonal(space, v, sys.sites[v].random_element(rng, center=False)))
    return functools.reduce(operator.matmul, mats)


def factor_matrix(f: Factor, space: TruncatedFock) -> OperatorMatrix:
    if f.kind == "scalar":
        return f.value * identity_op(space)
    if f.kind == "elem":
        return lambda_op(space, f.vertex, f.element)
    if f.kind == "create":
        return creation(space, f.vertex, f.element)
    if f.kind == "diag":
        return diagonal(space, f.vertex, f.element)
    if f.kind == "annih":
        return creation(space, f.vertex, f.element).adjoint()
    if f.kind == "qproj":
        return q_projection(space, (f.vertex,))
    raise ValueError(f"unknown factor kind {f.kind!r}")


def expression_matrix(factors: Sequence[Factor], space: TruncatedFock) -> OperatorMatrix:
    mats = [factor_matrix(f, space) for f in factors]
    return functools.reduce(operator.matmul, mats) if mats else identity_op(space)


def term_matrix(term: ElementaryTerm, space: TruncatedFock, coeff: complex = 1.0) -> OperatorMatrix:
    mats = (
        [creation(space, v, a) for v, a in term.creation]
        + [diagonal(space, v, c) for v, c in term.diag]
        + [creation(space, v, b).adjoint() for v, b in reversed(term.annihilation)]
    )
    if not mats:
        return coeff * identity_op(space)
    mats[0] = coeff * mats[0]
    return functools.reduce(operator.matmul, mats)


def terms_matrix(terms: Terms, space: TruncatedFock) -> OperatorMatrix:
    out = None
    for coeff, t in terms:
        m = term_matrix(t, space, coeff)
        out = m if out is None else out + m
    if out is None:
        return zero_op(space)
    return out
