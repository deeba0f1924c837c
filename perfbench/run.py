"""gplab benchmark: cold-process workloads, end-to-end metrics and a
per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it imports gplab
from the checkout's `src/`.  Every workload run is a fresh Python process per
config, as a CLI user pays import and set-up on every call.  Runs form a
closed loop: one at a time, the next starting when the last has ended, while
the next one is expected to end within --seconds (at least one run).

--trace 0 prints the end-to-end metrics: median wall time, set-up time and
identity-suite time of one workload run, and median peak resident memory.
--trace 1 makes one traced workload run and prints the per-layer call
counts, self times and exact counters (see layers.py), and the traced run's
wall time.  The tracing overhead is that minus the --trace 0 wall_s; a
second, untraced run in the same process tree would not fit the 180 s that
a run may take on suite_m2_d4.

Every run's outcomes are compared with reference.json.  Progress and a
summary go to stdout; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  The notes are in NOTES.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference.json"

REPORT_FIXTURES = (
    "fault_rewrite.json",
    "hecke_inside_edgeless3.json",
    "hecke_q1_edgeless3.json",
    "join_path3_hecke.json",
    "m2_trace_edgeless3.json",
)

# Workload -> ((config file, depth or None for the config's own, command), ...)
WORKLOADS = {
    "suite_m2_d4": (("m2_trace_edgeless3.json", 4, "check-identities"),),
    "suite_hecke_d7": (("hecke_q1_edgeless3.json", 7, "check-identities"),),
    "report_fixtures": tuple((name, None, "report-all") for name in REPORT_FIXTURES),
}

# Set-up-only processes made before the timed loop, so that setup_s is a
# median of several set-ups even when a run fits a single workload run.
SETUP_PROBES = 4
# No worker may outlive this point of a run; the run must end within 180 s.
RUN_LIMIT_S = 172.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("suite_s", "s"), ("peak_rss_mb", "MB"))

# Layers that some workload never reaches (only report-all reaches the first
# seven; nothing reaches annihilation at this commit).  They give a call
# count; their self time, which would read exactly 0, goes to the table only.
CALLS_ONLY = frozenset({
    "fock.annihilation",
    "lattice.topofree_witness",
    "growth.sphere_counts",
    "growth.growth_coefficients",
    "growth.classify",
    "analysis.simplicity_report",
    "analysis.trace_report",
    "analysis.nuclearity_exactness_report",
})


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in a fixed order."""
    from layers import LAYERS

    out = []
    for name, _, _ in LAYERS:
        out.append((f"{name}.calls", "count"))
        if name not in CALLS_ONLY:
            out.append((f"{name}.self_s", "s"))
    out += [
        ("fock.q_projection.repeat_share", "share"),
        ("mat.norm2.power_share", "share"),
        ("kernel.eigvalsh.n3", "count"),
        ("elementary.terms_out", "count"),
        ("fock.dim", "count"),
        ("trace.wall_s", "s"),
    ]
    return out


# -- environment -------------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gplab").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


# -- processes ---------------------------------------------------------------------


class Worker:
    """Outcome of one worker process: its JSON result, or None if it died."""

    def __init__(self, entry, result, t_spawn, t_exit, returncode, stderr):
        self.config = entry[0]
        self.result = result
        self.t_spawn = t_spawn
        self.t_exit = t_exit
        self.returncode = returncode
        self.stderr = stderr

    @property
    def t_report(self) -> float:
        return self.result["t_report"] if self.result else self.t_exit


def spawn(entry, seed: int, deadline: float, trace: bool = False, setup_only: bool = False) -> Worker:
    config, depth, command = entry
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--config", str(CONFIGS / config), "--command", command, "--seed", str(seed),
    ]
    if depth is not None:
        cmd += ["--depth", str(depth)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the worker and waited for it.
        return Worker(entry, None, t_spawn, time.monotonic(), None, "killed at the run time limit")
    t_exit = time.monotonic()
    result = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None and not str(Path(result["gplab_file"]).resolve()).startswith(str(ROOT / "src")):
        raise SystemExit(f"gplab was imported from {result['gplab_file']}, not from this checkout")
    return Worker(entry, result, t_spawn, t_exit, proc.returncode, proc.stderr[-2000:])


# -- correctness gate --------------------------------------------------------------


def gate(worker: Worker, reference: dict, keys=None) -> tuple[int, int, list[str]]:
    """(attempted, failed, mismatch notes) against the reference outcomes.

    Only outcomes the reference records are attempted; an outcome the
    program no longer reports, a worker that died, or an exit code other than
    the reference's counts as failed."""
    ref = reference[worker.config]
    if keys is not None:
        ref = {k: v for k, v in ref.items() if k in keys}
    got = worker.result["outcomes"] if worker.result else {}
    if worker.result is not None and worker.returncode != got.get("exit_code"):
        got = {}
    bad = [k for k, v in ref.items() if got.get(k) != v]
    notes = [f"{worker.config}: {k} expected {ref[k]!r}, got {got.get(k, 'nothing')!r}" for k in bad]
    if worker.result is None:
        notes.insert(0, f"{worker.config}: worker died (exit {worker.returncode}): {worker.stderr.strip()[-300:]}")
    return len(ref), len(bad), notes


# -- one workload run --------------------------------------------------------------


class Iteration:
    def __init__(self, workers: list[Worker]):
        self.workers = workers
        self.wall_s = workers[-1].t_report - workers[0].t_spawn
        self.duration = workers[-1].t_exit - workers[0].t_spawn
        done = [w.result for w in workers if w.result]
        self.setups = [r["setup_s"] for r in done if r["setup_s"] is not None]
        self.suite_s = sum(r["suite_s"] for r in done)
        self.peak_rss_mb = max((r["peak_rss_mb"] for r in done), default=0.0)


def run_iteration(workload: str, seed: int, deadline: float, trace: bool = False) -> Iteration:
    return Iteration([spawn(entry, seed, deadline, trace=trace) for entry in WORKLOADS[workload]])


# -- statistics --------------------------------------------------------------------


def high_percentile(values):
    """(p, value) of the highest of the usual percentiles that has at least
    ten samples beyond it (nearest rank), or None with fewer samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def summary_line(name: str, unit: str, values) -> str:
    hp = high_percentile(values)
    tail = f"p{hp[0]:g} {hp[1]:.6g} {unit}" if hp else "no percentile with 10 samples beyond it"
    return f"  {name:<12} median {statistics.median(values):.6g} {unit}; {tail}; n={len(values)}"


# -- main --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gplab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gplab" / "__init__.py").is_file():
        print(f"no gplab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())[args.workload]
    seed = args.seed % 2**32  # the program's generators take a nonnegative seed
    t_run = time.monotonic()
    deadline = t_run + RUN_LIMIT_S
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")

    attempted = failed = 0
    notes: list[str] = []

    def check(worker: Worker, keys=None):
        nonlocal attempted, failed
        a, f, n = gate(worker, reference, keys)
        attempted += a
        failed += f
        notes.extend(n)

    if args.trace == 0:
        metrics, env_from = end_to_end(args.workload, seed, args.seconds, deadline, check)
    else:
        traced = run_iteration(args.workload, seed, deadline, trace=True)
        for w in traced.workers:
            check(w)
        metrics = layer_metrics(traced)
        env_from = traced.workers[0].result

    print(f"fail_share {failed}/{attempted} = {failed / max(attempted, 1):.6g}")
    for note in notes[:20]:
        print("  mismatch:", note)
    env = dict(env_from["env"]) if env_from else {}
    env.update(
        gplab_commit=_git_commit(), source_sha256=_source_sha256(), nproc=nproc(),
        workload=args.workload, seed=args.seed, elapsed_s=round(time.monotonic() - t_run, 3),
    )
    print("env", json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end(workload: str, seed: int, seconds: float, deadline: float, check) -> tuple[dict, dict]:
    """Set-up probes, then the closed loop of workload runs; the medians."""
    entries = WORKLOADS[workload]
    setups: list[float] = []
    for i in range(SETUP_PROBES):
        probe = spawn(entries[i % len(entries)], seed, deadline, setup_only=True)
        check(probe, keys={"fock.dim"})
        if probe.result and probe.result["setup_s"] is not None:
            setups.append(probe.result["setup_s"])
    iterations: list[Iteration] = []
    t_loop = time.monotonic()
    while True:
        it = run_iteration(workload, seed, deadline)
        iterations.append(it)
        for w in it.workers:
            check(w)
        setups += it.setups
        print(
            f"run {len(iterations)}: wall_s {it.wall_s:.4f}  setup_s {sum(it.setups):.4f}"
            f"  suite_s {it.suite_s:.4f}  peak_rss_mb {it.peak_rss_mb:.1f}"
        )
        expected = statistics.mean(i.duration for i in iterations)
        now = time.monotonic()
        if now - t_loop + expected > seconds or now + expected > deadline:
            break
    samples = {
        "wall_s": [i.wall_s for i in iterations],
        "setup_s": setups or [0.0],
        "suite_s": [i.suite_s for i in iterations],
        "peak_rss_mb": [i.peak_rss_mb for i in iterations],
    }
    print("end-to-end (setup_s per process, the others per workload run):")
    for name, unit in END_TO_END:
        print(summary_line(name, unit, samples[name]))
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in END_TO_END}
    return metrics, iterations[0].workers[0].result


def layer_metrics(traced: Iteration) -> dict:
    """Per-layer metrics summed over the traced run's processes, plus the
    traced run's wall_s."""
    from layers import COUNTERS, LAYERS

    calls = {name: 0 for name, _, _ in LAYERS}
    self_s = {name: 0.0 for name, _, _ in LAYERS}
    counters = {name: 0 for name in COUNTERS}
    dims = []
    missing = set()
    for w in traced.workers:
        if not w.result:
            continue
        layers = w.result["layers"]
        for name in calls:
            calls[name] += layers["calls"][name]
            self_s[name] += layers["self_s"][name]
        for name in counters:
            counters[name] += layers["counters"][name]
        missing.update(layers["missing"])
        dims.append((w.config, w.result["outcomes"].get("fock.dim")))

    derived = {
        "fock.q_projection.repeat_share": counters["fock.q_projection.repeats"]
        / max(calls["fock.q_projection"], 1),
        "mat.norm2.power_share": counters["mat.norm2.power_calls"] / max(calls["mat.norm2"], 1),
        "kernel.eigvalsh.n3": counters["kernel.eigvalsh.n3"],
        "elementary.terms_out": counters["elementary.terms_out"],
        "fock.dim": sum(d for _, d in dims if d),
        "trace.wall_s": traced.wall_s,
    }
    print(f"traced run: wall_s {traced.wall_s:.4f} (tracing overhead = this minus wall_s of --trace 0)")
    print("fock.dim per config: " + ", ".join(f"{c}={d}" for c, d in dims))
    if missing:
        print("layers not found in this gplab (reported as 0): " + ", ".join(sorted(missing)))
    print(f"  {'layer':<44} {'calls':>9} {'self_s':>10}")
    for name in sorted(calls, key=lambda n: -self_s[n]):
        print(f"  {name:<44} {calls[name]:>9} {self_s[name]:>10.4f}")
    for name, value in counters.items():
        print(f"  {name:<44} {value:>9}")

    metrics = {}
    for name, unit in per_layer_names():
        if name in derived:
            value = derived[name]
        else:
            layer, kind = name.rsplit(".", 1)
            value = calls[layer] if kind == "calls" else self_s[layer]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
