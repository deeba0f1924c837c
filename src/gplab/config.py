"""Problem configuration: JSON schema parsing, validation, and assembly of a
GraphSystem plus run options.

Complex matrices in configs are nested arrays of [re, im] pairs; an algebra
element is a list of per-block matrices.  Vertices are referred to by name;
their position in the vertex list fixes the global vertex order.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from .algebras import Element, FiniteDimAlgebra, StateSpec, site_from_hecke, site_from_state
from .analysis import FAULTS
from .errors import ConfigError
from .fock import DEFAULT_DIM_CAP
from .graphs import SimplicialGraph, VertexId
from .lattice import DEFAULT_WITNESS_RADIUS
from .system import GraphSystem
from .words import CoxeterGroup, Letters

SCHEMA_VERSION = 1

DEFAULT_CAPS = {
    "fock_dim": DEFAULT_DIM_CAP,
}

DEFAULT_TOLERANCES = {
    "identity": 1e-9,
    "classification": 1e-8,
}


@dataclass
class ProblemConfig:
    system: GraphSystem
    names: dict[VertexId, str]
    truncation: int
    seed: int
    tolerances: dict[str, float]
    witnesses: dict[VertexId, Element] = field(default_factory=dict)
    unitary_witnesses: dict[VertexId, Element] = field(default_factory=dict)
    topofree: dict = field(default_factory=dict)  # parsed, defaults filled in; echo keeps the raw block
    fault_injection: Optional[str] = None
    echo: dict = field(default_factory=dict)

    def sha256(self) -> str:
        blob = json.dumps(self.echo, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _fail(path: str, msg: str):
    raise ConfigError(f"at {path}: {msg}")


def _parse_matrix(raw: Any, path: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        _fail(path, "expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            _fail(f"{path}[{i}]", "expected a list of [re, im] entries")
        entries = []
        for j, ent in enumerate(row):
            if not (isinstance(ent, list) and len(ent) == 2):
                _fail(f"{path}[{i}][{j}]", "expected [re, im]")
            entries.append(complex(float(ent[0]), float(ent[1])))
        rows.append(entries)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        _fail(path, "ragged matrix")
    return np.array(rows, dtype=complex)


def _parse_element(raw: Any, alg: FiniteDimAlgebra, path: str) -> Element:
    if not isinstance(raw, list):
        _fail(path, "expected a list of per-block matrices")
    if len(raw) != len(alg.blocks):
        _fail(path, f"expected {len(alg.blocks)} blocks, got {len(raw)}")
    mats = [_parse_matrix(b, f"{path}[{i}]") for i, b in enumerate(raw)]
    try:
        return alg.element(mats)
    except ValueError as exc:
        _fail(path, str(exc))


def _with_defaults(raw: Mapping[str, Any], block: str, defaults: Mapping[str, Any]) -> dict:
    """The defaults overridden by the config's `block` object; a key with no
    default is rejected rather than ignored."""
    given = raw.get(block, {})
    if not isinstance(given, dict):
        _fail(block, "expected an object")
    for key in given:
        if key not in defaults:
            _fail(f"{block}.{key}", f"unknown key; expected one of {sorted(defaults)}")
    return {**defaults, **given}


def _nonnegative_int(value: Any, path: str, positive: bool = False) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < int(positive):
        _fail(path, f"expected a {'positive' if positive else 'nonnegative'} integer")
    return value


def _positive_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
        _fail(path, "expected a finite positive number")
    return value


def _parse_topofree(raw: Mapping[str, Any], vnames: list[str], group: CoxeterGroup) -> dict:
    """The topofree block with its defaults, each word mapped from vertex
    names to its canonical letter tuple."""
    spec = _with_defaults(
        raw,
        "topofree",
        {"w": [], "exclusions": [[vnames[0]]], "L_max": 4, "search_radius": DEFAULT_WITNESS_RADIUS},
    )

    def word(names: Any, path: str) -> Letters:
        if not isinstance(names, list):
            _fail(path, "expected a list of vertex names")
        for nm in names:
            if not isinstance(nm, str) or nm not in vnames:
                _fail(path, f"unknown vertex {nm!r}")
        return group.reduce_tuple([vnames.index(nm) for nm in names])

    if not isinstance(spec["exclusions"], list):
        _fail("topofree.exclusions", "expected a list of words")
    return {
        "w": word(spec["w"], "topofree.w"),
        "exclusions": [word(x, f"topofree.exclusions[{i}]") for i, x in enumerate(spec["exclusions"])],
        "L_max": _nonnegative_int(spec["L_max"], "topofree.L_max"),
        "search_radius": _nonnegative_int(spec["search_radius"], "topofree.search_radius"),
    }


def load_config(path: str) -> ProblemConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return parse_config(raw)


def parse_config(raw: Mapping[str, Any]) -> ProblemConfig:
    if raw.get("schema_version") != SCHEMA_VERSION:
        _fail("schema_version", f"expected {SCHEMA_VERSION}")
    graph_raw = raw.get("graph")
    if not isinstance(graph_raw, dict):
        _fail("graph", "missing or not an object")
    vnames = graph_raw.get("vertices")
    if not isinstance(vnames, list) or not vnames or not all(isinstance(v, str) for v in vnames):
        _fail("graph.vertices", "expected a nonempty list of vertex names")
    if len(set(vnames)) != len(vnames):
        _fail("graph.vertices", "duplicate vertex names")
    name_to_id = {nm: i for i, nm in enumerate(vnames)}
    names = {i: nm for nm, i in name_to_id.items()}
    edges = []
    for k, e in enumerate(graph_raw.get("edges", [])):
        if not (isinstance(e, list) and len(e) == 2):
            _fail(f"graph.edges[{k}]", "expected a [u, v] pair")
        for nm in e:
            if nm not in name_to_id:
                _fail(f"graph.edges[{k}]", f"unknown vertex {nm!r}")
        if e[0] == e[1]:
            _fail(f"graph.edges[{k}]", "loop edges are not allowed")
        edges.append((name_to_id[e[0]], name_to_id[e[1]]))
    graph = SimplicialGraph.build(range(len(vnames)), edges)

    vertex_specs = raw.get("vertices")
    if not isinstance(vertex_specs, dict):
        _fail("vertices", "missing or not an object")
    missing = [nm for nm in vnames if nm not in vertex_specs]
    if missing:
        _fail("vertices", f"missing algebra specs for {missing}")

    sites = {}
    witnesses: dict[VertexId, Element] = {}
    unitary_witnesses: dict[VertexId, Element] = {}
    for nm in vnames:
        vid = name_to_id[nm]
        spec = vertex_specs[nm]
        path = f"vertices.{nm}"
        if not isinstance(spec, dict):
            _fail(path, "expected an object")
        if "hecke" in spec:
            q = _positive_number(spec["hecke"].get("q"), f"{path}.hecke.q")
            sites[vid] = site_from_hecke(float(q))
            if not sites[vid].state.is_faithful():
                _fail(f"{path}.hecke.q", "state is not faithful (a weight 1/(1+q) or q/(1+q) is below the PSD tolerance)")
        else:
            blocks = spec.get("blocks")
            if not (isinstance(blocks, list) and blocks and all(isinstance(b, int) and b >= 1 for b in blocks)):
                _fail(f"{path}.blocks", "expected a list of positive integers")
            alg = FiniteDimAlgebra(tuple(blocks))
            density_raw = spec.get("density")
            if not isinstance(density_raw, list) or len(density_raw) != len(blocks):
                _fail(f"{path}.density", "expected one density matrix per block")
            densities = [_parse_matrix(b, f"{path}.density[{i}]") for i, b in enumerate(density_raw)]
            try:
                st = StateSpec.build(alg, densities)
            except ValueError as exc:
                _fail(f"{path}.density", str(exc))
            if not st.is_faithful():
                _fail(f"{path}.density", "state is not faithful (some block density is singular)")
            try:
                sites[vid] = site_from_state(alg, st)
            except ValueError as exc:
                _fail(f"{path}.density", str(exc))
        wraw = spec.get("witnesses", {})
        if wraw:
            alg = sites[vid].algebra
            if "a" in wraw:
                witnesses[vid] = _parse_element(wraw["a"], alg, f"{path}.witnesses.a")
            if "unitary" in wraw:
                unitary_witnesses[vid] = _parse_element(wraw["unitary"], alg, f"{path}.witnesses.unitary")

    truncation = _nonnegative_int(raw.get("truncation", 4), "truncation")
    seed = _nonnegative_int(raw.get("seed", 0), "seed")
    caps = _with_defaults(raw, "caps", DEFAULT_CAPS)
    for key, value in caps.items():
        _nonnegative_int(value, f"caps.{key}", positive=True)
    tolerances = _with_defaults(raw, "tolerances", DEFAULT_TOLERANCES)
    for key, value in tolerances.items():
        _positive_number(value, f"tolerances.{key}")

    fault = raw.get("fault_injection")
    if fault is not None and fault not in FAULTS:
        _fail("fault_injection", f"expected one of {list(FAULTS)}")

    system = GraphSystem(graph, sites, dim_cap=int(caps["fock_dim"]))
    topofree = _parse_topofree(raw, vnames, system.group)
    return ProblemConfig(
        system=system,
        names=names,
        truncation=truncation,
        seed=seed,
        tolerances=tolerances,
        witnesses=witnesses,
        unitary_witnesses=unitary_witnesses,
        topofree=topofree,
        fault_injection=fault,
        echo=dict(raw),
    )
