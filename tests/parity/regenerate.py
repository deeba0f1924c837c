"""The parity corpus: what the command line reports on the five fixtures.

Each seed 1-3 has one file, seed<k>.json, of 30 runs: per fixture,
`check-identities` at depths 0-4 and `report-all` at the fixture's own
truncation, each run in-process through `gplab.cli.main`.  A run keeps its
exit code and its `results` block, less `identities.elapsed_seconds`; the
config echo, versions and timing are dropped.

Two corpora agree when every name, flag, verdict, n/a reason, citation and
exit code is equal and every float is within FLOAT_ATOL, which absorbs a
change of BLAS or summation order but no change of a decision.

    PYTHONPATH=src python tests/parity/regenerate.py          # rewrite all three seeds
    PYTHONPATH=src python tests/parity/regenerate.py --check  # compare, rewrite nothing

The corpus is rewritten only by a change that means to move a report, and
that change lists every record that moved.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

# One BLAS thread when run as a script: numpy reads these when first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
SEEDS = (1, 2, 3)
DEPTHS = (0, 1, 2, 3, 4)
FLOAT_ATOL = 1e-13


def corpus_path(seed: int) -> Path:
    return HERE / f"seed{seed}.json"


def _run(argv: list[str], out: Path) -> tuple[int, dict | None]:
    from gplab.cli import main

    if out.exists():
        out.unlink()
    code = main(argv + ["--out", str(out)])
    if not out.exists():
        return code, None
    results = json.loads(out.read_text())["results"]
    results.get("identities", {}).pop("elapsed_seconds", None)
    return code, results


def run_seed(seed: int) -> list[dict]:
    """The 30 runs of one seed, in corpus order."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        for fixture in sorted(FIXTURES.glob("*.json")):
            base = ["--config", str(fixture), "--seed", str(seed)]
            for depth in DEPTHS + (None,):
                command = "check-identities" if depth is not None else "report-all"
                argv = [command] + base + ([] if depth is None else ["--depth", str(depth)])
                code, results = _run(argv, out)
                runs.append({"fixture": fixture.stem, "command": command, "depth": depth,
                             "exit": code, "results": results})
    return runs


def _format(obj, pad: str = "") -> str:
    """JSON with every object or list that holds no object or list on one
    line, so that a moved record is a one-line diff."""
    values = list(obj.values()) if isinstance(obj, dict) else obj if isinstance(obj, list) else []
    if not any(isinstance(v, (dict, list)) for v in values):
        return json.dumps(obj, sort_keys=True)
    inner = pad + " "
    if isinstance(obj, list):
        body = [inner + _format(v, inner) for v in obj]
        return "[\n" + ",\n".join(body) + "\n" + pad + "]"
    body = [f"{inner}{json.dumps(k)}: {_format(obj[k], inner)}" for k in sorted(obj)]
    return "{\n" + ",\n".join(body) + "\n" + pad + "}"


def differences(want, got, path: str = "") -> list[str]:
    """Where `got` departs from `want`: floats by more than FLOAT_ATOL,
    anything else by any change, a change of type included."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if abs(want - got) <= FLOAT_ATOL else [f"{path}: {want!r} -> {got!r}"]
    if type(want) is not type(got):
        return [f"{path}: {want!r} -> {got!r}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{path}: keys {sorted(want)} -> {sorted(got)}"]
        return [d for k in want for d in differences(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} -> {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(want, got)) for d in differences(a, b, f"{path}[{i}]")]
    return [] if want == got else [f"{path}: {want!r} -> {got!r}"]


def check_seed(seed: int) -> list[str]:
    want = json.loads(corpus_path(seed).read_text())
    got = run_seed(seed)
    labels = [f"seed{seed} {r['fixture']} {r['command']} depth={r['depth']}" for r in want]
    if len(want) != len(got):
        return [f"seed{seed}: {len(want)} runs -> {len(got)}"]
    return [f"{label}{d}" for label, a, b in zip(labels, want, got) for d in differences(a, b)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare against the corpus, rewrite nothing")
    args = parser.parse_args(argv)
    failed = False
    for seed in SEEDS:
        if args.check:
            diffs = check_seed(seed)
            for d in diffs:
                print(d)
            print(f"seed {seed}: {'differs' if diffs else 'unchanged'}")
            failed |= bool(diffs)
        else:
            corpus_path(seed).write_text(_format(run_seed(seed)) + "\n")
            print(f"wrote {corpus_path(seed)}")
    return int(failed)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    sys.exit(main())
