"""Problem configuration: JSON schema parsing, validation, and assembly of a
GraphSystem plus run options.

Complex matrices in configs are nested arrays of [re, im] pairs; an algebra
element is a list of per-block matrices.  Vertices are referred to by name;
their position in the vertex list fixes the global vertex order.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from .algebras import Element, FiniteDimAlgebra, StateSpec, VertexSite, require_witness, site_from_hecke, site_from_state
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


@dataclass
class ProblemConfig:
    system: GraphSystem
    names: dict[VertexId, str]
    truncation: int
    seed: int
    witnesses: dict[VertexId, Element] = field(default_factory=dict)  # `unitary` if given, else `a`
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
            if not (isinstance(ent, list) and len(ent) == 2 and all(map(_finite, ent))):
                _fail(f"{path}[{i}][{j}]", "expected [re, im], two finite numbers")
            entries.append(complex(*ent))
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


def _with_defaults(given: Any, path: str, defaults: Mapping[str, Any]) -> dict:
    """The defaults overridden by `given`, the config object at key path
    `path` ("" for the whole config); a key with no default is rejected
    rather than ignored.  Every object of the config is read here."""
    if not isinstance(given, dict):
        _fail(path or "top level", "expected an object")
    for key in given:
        if key not in defaults:
            _fail(f"{path}.{key}" if path else key, f"unknown key; expected one of {sorted(defaults)}")
    return {**defaults, **given}


def _finite(value: Any) -> bool:
    """Whether value is a number, not a bool, that a float holds finitely."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def _nonnegative_int(value: Any, path: str, positive: bool = False) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < int(positive):
        _fail(path, f"expected a {'positive' if positive else 'nonnegative'} integer")
    return value


def _positive_number(value: Any, path: str) -> float:
    if not _finite(value) or value <= 0:
        _fail(path, "expected a finite positive number")
    return value


def _parse_topofree(given: Any, vnames: list[str], group: CoxeterGroup) -> dict:
    """The topofree block with its defaults, each word mapped from vertex
    names to its canonical letter tuple."""
    spec = _with_defaults(
        given,
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
        "L_max": _nonnegative_int(spec["L_max"], "topofree.L_max", positive=True),
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


def _parse_site(given: Any, path: str) -> VertexSite:
    """The vertex site that the spec at `path` describes.  A Hecke spec
    takes no `blocks` or `density`."""
    hecke = isinstance(given, dict) and "hecke" in given
    kind = {"hecke": None} if hecke else {"blocks": None, "density": None}
    spec = _with_defaults(given, path, {**kind, "witnesses": {}})
    if hecke:
        q = _positive_number(_with_defaults(spec["hecke"], f"{path}.hecke", {"q": None})["q"], f"{path}.hecke.q")
        try:
            return site_from_hecke(float(q))
        except ValueError as exc:
            _fail(f"{path}.hecke.q", str(exc))
    blocks = spec["blocks"]
    if not (isinstance(blocks, list) and blocks):
        _fail(f"{path}.blocks", "expected a nonempty list of positive integers")
    sizes = (_nonnegative_int(b, f"{path}.blocks[{i}]", positive=True) for i, b in enumerate(blocks))
    alg = FiniteDimAlgebra(tuple(sizes))
    density_raw = spec["density"]
    if not isinstance(density_raw, list) or len(density_raw) != len(blocks):
        _fail(f"{path}.density", "expected one density matrix per block")
    densities = [_parse_matrix(b, f"{path}.density[{i}]") for i, b in enumerate(density_raw)]
    try:
        return site_from_state(alg, StateSpec.build(alg, densities))
    except ValueError as exc:
        _fail(f"{path}.density", str(exc))


def parse_config(raw: Any) -> ProblemConfig:
    top = _with_defaults(raw, "", {"schema_version": None, "graph": None, "vertices": None, "truncation": 4, "seed": 0,
                                   "caps": {}, "topofree": {}, "fault_injection": None})
    version = top["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        _fail("schema_version", f"expected {SCHEMA_VERSION}")
    graph_raw = _with_defaults(top["graph"], "graph", {"vertices": None, "edges": []})
    vnames = graph_raw["vertices"]
    if not isinstance(vnames, list) or not vnames or not all(isinstance(v, str) for v in vnames):
        _fail("graph.vertices", "expected a nonempty list of vertex names")
    if len(set(vnames)) != len(vnames):
        _fail("graph.vertices", "duplicate vertex names")
    name_to_id = {nm: i for i, nm in enumerate(vnames)}
    names = {i: nm for nm, i in name_to_id.items()}
    if not isinstance(graph_raw["edges"], list):
        _fail("graph.edges", "expected a list of [u, v] pairs")
    edges = []
    for k, e in enumerate(graph_raw["edges"]):
        if not (isinstance(e, list) and len(e) == 2):
            _fail(f"graph.edges[{k}]", "expected a [u, v] pair")
        for nm in e:
            if nm not in vnames:
                _fail(f"graph.edges[{k}]", f"unknown vertex {nm!r}")
        if e[0] == e[1]:
            _fail(f"graph.edges[{k}]", "loop edges are not allowed")
        edges.append((name_to_id[e[0]], name_to_id[e[1]]))
    graph = SimplicialGraph.build(range(len(vnames)), edges)

    vertex_specs = _with_defaults(top["vertices"], "vertices", dict.fromkeys(vnames))
    missing = [nm for nm in vnames if nm not in top["vertices"]]
    if missing:
        _fail("vertices", f"missing algebra specs for {missing}")

    sites = {}
    witnesses: dict[VertexId, Element] = {}
    unitary_witnesses: dict[VertexId, Element] = {}
    for vid, nm in enumerate(vnames):
        path = f"vertices.{nm}"
        site = sites[vid] = _parse_site(vertex_specs[nm], path)
        wraw = vertex_specs[nm].get("witnesses", {})
        read = {"a": witnesses, "unitary": unitary_witnesses}
        _with_defaults(wraw, f"{path}.witnesses", read)  # an object with no other key
        for key, value in wraw.items():
            wpath = f"{path}.witnesses.{key}"
            a = read[key][vid] = _parse_element(value, site.algebra, wpath)
            try:
                require_witness(a, site.state, key == "unitary")
            except ValueError as exc:
                _fail(wpath, str(exc))

    truncation = _nonnegative_int(top["truncation"], "truncation")
    seed = _nonnegative_int(top["seed"], "seed")
    caps = _with_defaults(top["caps"], "caps", DEFAULT_CAPS)
    for key, value in caps.items():
        _nonnegative_int(value, f"caps.{key}", positive=True)

    fault = top["fault_injection"]
    if fault is not None and fault not in FAULTS:
        _fail("fault_injection", f"expected one of {list(FAULTS)}")

    system = GraphSystem(graph, sites, dim_cap=int(caps["fock_dim"]))
    topofree = _parse_topofree(top["topofree"], vnames, system.group)
    return ProblemConfig(
        system=system,
        names=names,
        truncation=truncation,
        seed=seed,
        witnesses={**witnesses, **unitary_witnesses},
        unitary_witnesses=unitary_witnesses,
        topofree=topofree,
        fault_injection=fault,
        echo=dict(raw),
    )
