"""gplab: a desk-scale numerical laboratory for graph products of
finite-dimensional C*-algebras over right-angled Coxeter groups."""

__version__ = "0.1.0"

from .algebras import (  # noqa: F401
    Element,
    FiniteDimAlgebra,
    GnsRep,
    StateSpec,
    VertexSite,
    centered,
    centered_unitary_search,
    commutant_is_trivial,
    gns,
    hecke_gns,
    hecke_vertex,
    optimal_q,
    site_from_hecke,
    site_from_state,
)
from .errors import ConfigError, ResourceLimitError  # noqa: F401
from .graphs import SimplicialGraph, Walk  # noqa: F401
from .system import GraphSystem  # noqa: F401
from .words import CoxeterGroup, coxeter_group  # noqa: F401
