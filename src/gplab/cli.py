"""Command-line runner: configuration ingestion, deterministic execution,
and JSON report emission.

Exit codes: 0 all checks passed (Inconclusive counts as passing unless
--strict), 1 a check failed, 2 configuration error, 3 resource cap hit.
"""
from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from . import analysis as an
from . import fock as fk
from . import growth as gr
from . import lattice as lat
from .config import ProblemConfig, load_config
from .errors import ConfigError, ResourceLimitError

COMMANDS = (
    "check-identities",
    "growth",
    "simplicity",
    "trace",
    "nuclearity",
    "witness-topofree",
    "tensor-split",
    "report-all",
)


def _versions() -> dict:
    return {
        "gplab": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _growth_parameters(cfg: ProblemConfig) -> dict:
    out = {}
    for v in cfg.system.graph.vertices:
        site = cfg.system.sites[v]
        if site.hecke_q is not None:
            out[v] = float(site.hecke_q)
        else:
            wit = an.find_witness(cfg.system, v, cfg.witnesses.get(v))
            out[v] = wit.q if wit else 0.0
    return out


def run_growth(cfg: ProblemConfig, depth: int, csv_path: Optional[str]) -> tuple[dict, bool]:
    graph = cfg.system.graph
    d = min(depth + 4, 8)
    spheres = gr.sphere_counts(graph, d)
    coeffs = gr.growth_coefficients(graph, d)
    match = spheres == coeffs
    q = _growth_parameters(cfg)
    verdict = gr.classify(graph, q, cfg.tolerances["classification"])
    result = {
        "spheres": spheres,
        "series_coefficients": coeffs,
        "oracle_match": match,
        "clique_polynomial": gr.clique_polynomial_string(graph, cfg.names),
        "parameters": {cfg.names[v]: q[v] for v in graph.vertices},
        "critical_t": verdict.critical_t,
        "region": verdict.region.value,
    }
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write("depth,sphere_count,series_coefficient\n")
            for i, (s, c) in enumerate(zip(spheres, coeffs)):
                fh.write(f"{i},{s},{c}\n")
    return result, match


def run_tensor_split(cfg: ProblemConfig, depth: int) -> tuple[dict, bool]:
    graph = cfg.system.graph
    parts = graph.join_decomposition()
    if len(parts) < 2:
        raise ConfigError("graph is not a nontrivial join; tensor-split needs a disconnected complement")
    part1 = parts[0].vertices
    part2 = tuple(v for v in graph.vertices if v not in set(part1))
    report = fk.tensor_split_check(graph, part1, part2, cfg.system.reps(), depth, dim_cap=cfg.system.dim_cap)
    ok = report.max_deviation <= 1e-12
    return (
        {
            "part1": [cfg.names[v] for v in part1],
            "part2": [cfg.names[v] for v in part2],
            "max_deviation": report.max_deviation,
            "pair_count": report.pair_count,
            "passed": ok,
        },
        ok,
    )


def run_topofree(cfg: ProblemConfig) -> tuple[dict, bool]:
    spec = cfg.topofree
    rep = lat.topofree_witness(
        cfg.system.group, spec["w"], spec["exclusions"], spec["L_max"], spec["search_radius"]
    )
    result = {
        "w": [cfg.names[x] for x in spec["w"]],
        "witness_v": [cfg.names[x] for x in rep.v],
        "walk": [cfg.names[x] for x in rep.walk.steps],
        "conclusive": rep.conclusive,
        "checks": rep.checks,
        "message": rep.message,
    }
    return result, rep.conclusive


def _verdict_ok(verdict: an.Verdict, strict: bool) -> bool:
    if strict:
        return verdict.result == an.ESTABLISHED
    return True


def execute(cmd: str, cfg: ProblemConfig, depth: int, seed: int, strict: bool, csv_path: Optional[str]):
    """Returns (report dict, ok flag)."""
    results: dict = {}
    ok = True
    if cmd in ("check-identities", "report-all"):
        suite = an.identity_suite(
            cfg.system,
            depth=depth,
            seed=seed,
            corrupt=cfg.fault_injection,
            identity_tol=float(cfg.tolerances["identity"]),
        )
        results["identities"] = suite.to_json()
        ok &= suite.passed
    if cmd in ("growth", "report-all"):
        growth_result, growth_ok = run_growth(cfg, depth, csv_path)
        results["growth"] = growth_result
        ok &= growth_ok
    verdicts = []
    if cmd in ("simplicity", "report-all"):
        v = an.simplicity_report(
            cfg.system,
            {**cfg.witnesses, **cfg.unitary_witnesses},
            cfg.names,
            cfg.tolerances["classification"],
            seed,
            depth,
        )
        verdicts.append(v)
        ok &= _verdict_ok(v, strict)
    if cmd in ("trace", "report-all"):
        v = an.trace_report(cfg.system, cfg.unitary_witnesses, cfg.names, depth, seed)
        verdicts.append(v)
        ok &= _verdict_ok(v, strict)
    if cmd in ("nuclearity", "report-all"):
        v = an.nuclearity_exactness_report(cfg.system, cfg.names)
        verdicts.append(v)
        ok &= _verdict_ok(v, strict)
    if cmd == "witness-topofree" or (cmd == "report-all" and "topofree" in cfg.echo):
        result, conclusive = run_topofree(cfg)
        results["topofree"] = result
        if strict:
            ok &= conclusive
    if cmd == "tensor-split" or (
        cmd == "report-all" and len(cfg.system.graph.join_decomposition()) > 1
    ):
        result, split_ok = run_tensor_split(cfg, depth)
        results["tensor_split"] = result
        ok &= split_ok
    if verdicts:
        results["verdicts"] = [v.to_json() for v in verdicts]
    return results, ok


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gplab",
        description="Numerical laboratory for graph products over right-angled Coxeter groups",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON problem configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--depth", type=int, default=None, help="override the truncation depth")
    parser.add_argument("--out", default=None, help="write the JSON report here (default stdout)")
    parser.add_argument("--tolerance", type=float, default=None, help="override the identity tolerance")
    parser.add_argument("--strict", action="store_true", help="Inconclusive or HypothesesFail verdicts exit nonzero")
    parser.add_argument("--csv", default=None, help="also write growth coefficients as CSV (growth command)")
    args = parser.parse_args(argv)

    t0 = time.time()
    try:
        cfg = load_config(args.config)
        if args.tolerance is not None:
            cfg.tolerances["identity"] = args.tolerance
        seed = args.seed if args.seed is not None else cfg.seed
        depth = args.depth if args.depth is not None else cfg.truncation
        if depth < 0:
            raise ConfigError("--depth: expected a nonnegative integer")
        if seed < 0:
            raise ConfigError("--seed: expected a nonnegative integer")
        results, ok = execute(args.command, cfg, depth, seed, args.strict, args.csv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3

    report = {
        "schema_version": 1,
        "command": args.command,
        "config": cfg.echo,
        "config_sha256": cfg.sha256(),
        "seed": seed,
        "depth": depth,
        "strict": args.strict,
        "results": results,
        "passed": ok,
        "versions": _versions(),
        "timing": {"elapsed_seconds": round(time.time() - t0, 3)},
    }
    blob = json.dumps(_sanitize(report), sort_keys=True, indent=2, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)
    return 0 if ok else 1


def _sanitize(obj):
    """Make the report strictly JSON: numpy scalars to Python, non-finite
    floats to strings, complex to [re, im]."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float) and not np.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


if __name__ == "__main__":
    sys.exit(main())
