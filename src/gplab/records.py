"""The records of the identity suite and of the simplicity evidence,
declared once: each record's name, the row that reports it, its tolerance
and, for an exact record, the certificate facts it reads.

`analysis` reads a record's tolerance and facts here by name, and a row
too shallow for its depth reports its records n/a in the order given here.
README's table "Checks and their tolerances" lists the same names and
tolerances, and the tests hold the two, the corpus and the rows' records
to this table.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from .growth import BOUNDARY_BAND

# The one tolerance read by more than one record: the product identities,
# the GNS facts of the exact records (certificate.breaks), and the rewrite
# certificate.
IDENTITY_TOL = 1e-9


class RecordSpec(NamedTuple):
    """One record.  row is the analysis.SUITE row that reports it, or None
    for critical_t, which only the simplicity verdict reports.  tolerance
    is the one the record carries: the bound its value passes at, the floor
    a detecting probe must exceed, or None for a count or a flag.  facts
    are the certificate facts (certificate.breaks) an exact record reads,
    each over every vertex, or every pair of the case it names."""

    row: Optional[str]
    tolerance: Optional[float]
    facts: tuple[str, ...] = ()


RECORDS: dict[str, RecordSpec] = {
    # the sampled product identities, then their exact counterparts
    "creation.same_vertex_product_zero": RecordSpec("identities", IDENTITY_TOL),
    "creation.adjacent_commute": RecordSpec("identities", IDENTITY_TOL),
    "diag_creation.same_vertex": RecordSpec("identities", IDENTITY_TOL),
    "diag_creation.nonadjacent_zero": RecordSpec("identities", IDENTITY_TOL),
    "diag_creation.adjacent_commute": RecordSpec("identities", IDENTITY_TOL),
    "annih_creation.same_vertex": RecordSpec("identities", IDENTITY_TOL),
    "annih_creation.nonadjacent_zero": RecordSpec("identities", IDENTITY_TOL),
    "annih_creation.adjacent_commute": RecordSpec("identities", IDENTITY_TOL),
    "diag_diag.nonadjacent_zero": RecordSpec("identities", IDENTITY_TOL),
    "diag_diag.adjacent_commute": RecordSpec("identities", IDENTITY_TOL),
    "projection_action.creation": RecordSpec("identities", IDENTITY_TOL),
    "creation.same_vertex_product_zero.exact": RecordSpec("identities", None, ("lambda_units",)),
    "creation.adjacent_commute.exact": RecordSpec("identities", None, ("commute",)),
    "diag_creation.same_vertex.exact": RecordSpec("identities", None, ("lambda_units", "gns")),
    "diag_creation.nonadjacent_zero.exact": RecordSpec("identities", None, ("disjoint",)),
    "diag_creation.adjacent_commute.exact": RecordSpec("identities", None, ("commute",)),
    "annih_creation.same_vertex.exact": RecordSpec("identities", None, ("lambda_units", "gns", "head")),
    "annih_creation.nonadjacent_zero.exact": RecordSpec("identities", None, ("lambda_units", "disjoint")),
    "annih_creation.adjacent_commute.exact": RecordSpec("identities", None, ("lambda_units", "commute")),
    "diag_diag.nonadjacent_zero.exact": RecordSpec("identities", None, ("lambda_units", "disjoint")),
    "diag_diag.adjacent_commute.exact": RecordSpec("identities", None, ("commute",)),
    "projection_action.creation.exact": RecordSpec("identities", None, ("lambda_units", "action")),
    "expectation.idempotent": RecordSpec("expectation", 1e-10),
    "expectation.contractive": RecordSpec("expectation", 1e-10),
    "expectation.positive": RecordSpec("expectation", 1e-10),
    "expectation.faithful_kernel": RecordSpec("expectation", 1e-12),
    "expectation.gauge_average_match": RecordSpec("expectation", 1e-12),
    "gauge.covariance_of_elementary_terms": RecordSpec("gauge", 1e-12),
    "gauge.covariance_of_elementary_terms.exact": RecordSpec("gauge", None, ("lambda_units", "letters")),
    "signature.identity_terms_diagonal": RecordSpec("signature", 1e-10),
    "signature.nontrivial_terms_offdiagonal": RecordSpec("signature", None),
    "signature.identity_terms_diagonal.exact": RecordSpec("signature", None, ("lambda_units", "words")),
    "signature.nontrivial_terms_offdiagonal.exact": RecordSpec("signature", None, ("lambda_units", "words")),
    "conjugation.qperp_dominated": RecordSpec("conjugation", 1e-9),
    "conjugation.shifted_dominated": RecordSpec("conjugation", 1e-9),
    "conjugation.qperp_dominated.exact": RecordSpec("conjugation", None, ("lambda_units", "head", "gns")),
    "conjugation.shifted_dominated.exact": RecordSpec("conjugation", None, ("lambda_units", "gns", "shift")),
    "rewrite.certificate": RecordSpec("rewrite", IDENTITY_TOL),
    "rho_lambda.commutation": RecordSpec("rho_lambda", 1e-9),
    "rho_lambda.commutation.exact": RecordSpec("rho_lambda", None, ("lambda_units", "rho_units", "mixed")),
    "subgraph.expectation": RecordSpec("subgraph", 1e-10),
    "lattice.identification": RecordSpec("lattice", None),
    "lattice.projection_products": RecordSpec("lattice", 0.0),
    "tensor.split": RecordSpec("tensor", 1e-12),
    "ideal.vacuum_rank_one_tail_zero": RecordSpec("ideal", 1e-12),
    "ideal.identity_tail_ones": RecordSpec("ideal", 1e-12),
    "ideal.creation_tail_monotone_bounded": RecordSpec("ideal", None),
    # the trace row reports the first pair when every vertex state is
    # tracial, and the second, whose records must exceed their floor, when
    # one is not
    "trace.vacuum_probe": RecordSpec("trace", 1e-10),
    "trace.vacuum_probe.exact": RecordSpec("trace", None, ("lambda_units", "words", "gns", "tracial")),
    "trace.vacuum_probe_detects_violation": RecordSpec("trace", 1e-3),
    "trace.vacuum_probe_detects_violation.exact": RecordSpec("trace", 1e-3, ("lambda_units", "words", "gns")),
    "critical_t": RecordSpec(None, BOUNDARY_BAND),
}
