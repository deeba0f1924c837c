"""Elementary operators (creation word) x (clique diagonal) x (annihilation
word)*, their signatures, and the rewriting of generator products into sums
of elementary terms; and the random generator words and operator products
that the identity suite samples.

The rewriting rules are exactly the product identities of the creation,
diagonal, and annihilation operators; every rewrite comes with a numerical
certificate (term matrices summing to the input's matrix on the guarded
subspace), which the test suite exercises heavily.
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
    """A random product of 1 to 3 lambda operators, creations and diagonals.

    Each factor moves a word w to w or v w, so the product joins no two
    distinct words with equal letter counts, and fk.gauge_average at m > 2N
    equals fk.expectation_diag on it (expectation.gauge_average_match); on
    a product of 4 factors it need not."""
    mats = []
    n = int(rng.integers(1, 4))
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
