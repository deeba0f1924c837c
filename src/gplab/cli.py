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
    """Each vertex's Hecke q, else the q of its supplied witness, or of one
    found with no random pool; a vertex with no positive-q witness is left out."""
    out = {}
    for v in cfg.system.graph.vertices:
        site = cfg.system.sites[v]
        if site.hecke_q is not None:
            out[v] = float(site.hecke_q)
        else:
            wit = an.find_witness(cfg.system, v, cfg.witnesses.get(v))
            if wit is not None and wit.q > 0:
                out[v] = wit.q
    return out


def run_growth(cfg: ProblemConfig, depth: int, csv_path: Optional[str]) -> tuple[dict, bool]:
    graph = cfg.system.graph
    d = min(depth + 4, 8)
    spheres = gr.sphere_counts(graph, d)
    coeffs = gr.growth_coefficients(graph, d)
    match = spheres == coeffs
    q = _growth_parameters(cfg)
    result = {
        "spheres": spheres,
        "series_coefficients": coeffs,
        "oracle_match": match,
        "clique_polynomial": gr.clique_polynomial_string(graph, cfg.names),
        "parameters": {cfg.names[v]: q.get(v, "n/a") for v in graph.vertices},
    }
    missing = [cfg.names[v] for v in graph.vertices if v not in q]
    if missing:
        result.update(critical_t="n/a", region="n/a",
                      skipped=f"no positive-q witness at vertex {', '.join(missing)}")
    else:
        verdict = gr.classify(graph, q)
        result.update(critical_t=verdict.critical_t, region=verdict.region.value)
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
    result = {"part1": [cfg.names[v] for v in part1], "part2": [cfg.names[v] for v in part2]}
    (record,) = an.tensor_split_checks(cfg.system, depth)
    result.update(max_deviation=record.value, passed=record.passed)
    if record.skipped_reason:
        result["skipped"] = record.skipped_reason
    else:
        result["pair_count"] = cfg.system.space(depth).dim
    return result, record.passed


def run_topofree(cfg: ProblemConfig) -> tuple[dict, bool]:
    spec = cfg.topofree
    try:
        rep = lat.topofree_witness(
            cfg.system.group, spec["w"], spec["exclusions"], spec["L_max"], spec["search_radius"]
        )
    except ValueError as exc:
        raise ConfigError(f"the witness search does not apply to this graph: {exc}") from None
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


def execute(
    cmd: str, cfg: ProblemConfig, depth: int, seed: int, strict: bool, csv_path: Optional[str],
    timing: Optional[dict] = None,
):
    """Returns (report dict, ok flag).  When the command runs the identity
    suite and `timing` is a dict, timing["groups"] receives each suite
    group's wall seconds."""
    results: dict = {}
    ok = True
    if cmd in ("check-identities", "report-all"):
        suite = an.identity_suite(cfg.system, depth=depth, seed=seed, corrupt=cfg.fault_injection)
        results["identities"] = suite.to_json()
        ok &= suite.passed
        if timing is not None:
            timing["groups"] = {name: round(s, 4) for name, s in suite.seconds.items()}
    if cmd in ("growth", "report-all"):
        growth_result, growth_ok = run_growth(cfg, depth, csv_path)
        results["growth"] = growth_result
        ok &= growth_ok
    verdicts = []
    if cmd in ("simplicity", "report-all"):
        v = an.simplicity_report(cfg.system, cfg.witnesses, cfg.names, seed, depth)
        verdicts.append(v)
        ok &= _verdict_ok(v, strict)
    if cmd in ("trace", "report-all"):
        probe = suite.groups["trace"] if cmd == "report-all" else an.traciality_probe_checks(cfg.system, depth, seed)
        v = an.trace_report(cfg.system, probe, cfg.unitary_witnesses, cfg.names, seed)
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
    parser.add_argument("--strict", action="store_true", help="Inconclusive or HypothesesFail verdicts exit nonzero")
    parser.add_argument("--csv", default=None, help="also write growth coefficients as CSV (growth and report-all only)")
    args = parser.parse_args(argv)

    t0 = time.time()
    timing: dict = {}
    try:
        if args.csv is not None and args.command not in ("growth", "report-all"):
            raise ConfigError(f"--csv: only growth and report-all write a CSV, not {args.command}")
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.seed
        depth = args.depth if args.depth is not None else cfg.truncation
        if depth < 0:
            raise ConfigError("--depth: expected a nonnegative integer")
        if seed < 0:
            raise ConfigError("--seed: expected a nonnegative integer")
        results, ok = execute(args.command, cfg, depth, seed, args.strict, args.csv, timing)
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
        "timing": {"elapsed_seconds": round(time.time() - t0, 3), **timing},
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
