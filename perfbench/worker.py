"""One cold gplab process of a benchmark workload.

    PYTHONPATH=src python3 perfbench/worker.py --config CFG --command CMD \
        --seed N [--depth D] [--trace] [--setup-only]

It drives the public API the way `gplab.cli.main` does: `load_config`, then
`cfg.system.space(depth)`, then `cli.execute(...)`, then the JSON report.
It prints one JSON object as the last line of stdout (timings, peak memory,
the outcomes the correctness gate compares, and with --trace the per-layer
counts) and exits with the code the CLI would give: 0 passed, 1 a check
failed, 2 configuration error, 3 resource cap.
"""
import time

T_START = time.monotonic()  # set-up is timed from here, before `import gplab`

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _plain(obj):
    """json.dumps fallback for numpy scalars and complex numbers."""
    if hasattr(obj, "item"):
        obj = obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (bool, int, float)):
        return obj
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


def _verdict_outcomes(verdict: dict, path: str, out: dict, seen: dict):
    path = f"{path} > {verdict['statement']}" if path else verdict["statement"]
    k = seen[path] = seen.get(path, -1) + 1
    out[f"verdict:{path}#{k}"] = verdict["result"]
    for child in verdict.get("factors", []):
        _verdict_outcomes(child, path, out, seen)


def outcomes(results: dict) -> dict:
    """The outcomes the gate compares: each check's `passed` flag, each
    verdict `result`, exact growth coefficients and the other pass/fail
    flags.  Deviation values are left out so that a correct change in
    floating-point order cannot trip the gate; `timing.*` records are
    left out because they depend on machine speed."""
    out: dict = {}
    seen: dict = {}
    for check in results.get("identities", {}).get("checks", []):
        name = check["name"]
        if name.startswith("timing."):
            continue
        k = seen[name] = seen.get(name, -1) + 1
        out[f"check:{name}#{k}"] = bool(check["passed"])
    growth = results.get("growth")
    if growth is not None:
        out["growth.spheres"] = [int(x) for x in growth["spheres"]]
        out["growth.series_coefficients"] = [int(x) for x in growth["series_coefficients"]]
        out["growth.oracle_match"] = bool(growth["oracle_match"])
    if "topofree" in results:
        out["topofree.conclusive"] = bool(results["topofree"]["conclusive"])
    if "tensor_split" in results:
        out["tensor_split.passed"] = bool(results["tensor_split"]["passed"])
    seen = {}
    for verdict in results.get("verdicts", []):
        _verdict_outcomes(verdict, "", out, seen)
    return out


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--command", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import gplab
    from gplab import analysis, cli
    from gplab.config import load_config
    from gplab.errors import ConfigError, ResourceLimitError

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer().install()

    suite_s = 0.0
    run_suite = analysis.identity_suite

    def timed_suite(*a, **kw):
        nonlocal suite_s
        t0 = time.perf_counter()
        try:
            return run_suite(*a, **kw)
        finally:
            suite_s += time.perf_counter() - t0

    analysis.identity_suite = timed_suite

    out = {"gplab_file": gplab.__file__}
    results: dict = {}
    setup_s = dim = None
    try:
        cfg = load_config(args.config)
        depth = args.depth if args.depth is not None else cfg.truncation
        dim = cfg.system.space(depth).dim
        setup_s = time.monotonic() - T_START
        ok = True
        if not args.setup_only:
            results, ok = cli.execute(args.command, cfg, depth, args.seed, False, None)
            # Produce the report as the CLI would; wall_s ends after it.
            json.dumps(results, default=_plain, sort_keys=True, indent=2)
        code = 0 if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        code = 3
    out["t_report"] = time.monotonic()
    out["env"] = _environment()
    out["setup_s"] = setup_s
    out["suite_s"] = suite_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["outcomes"] = outcomes(results)
    if dim is not None:
        out["outcomes"]["fock.dim"] = dim
    out["outcomes"]["exit_code"] = code
    if tracer is not None:
        out["layers"] = {
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "counters": tracer.counters,
            "missing": tracer.missing,
        }
    print(json.dumps(out), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
