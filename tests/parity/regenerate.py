"""The parity corpus: what the command line reports on the five fixtures.

Each seed 1-3 has one file, seed<k>.json, of 30 runs: per fixture,
`check-identities` at depths 0-4 and `report-all` at the fixture's own
truncation, each run in-process through `gplab.cli.main`.  A run keeps its
exit code and its `results` block; the config echo, versions and timing are
dropped.

Two corpora agree when every name, flag, verdict, n/a reason, citation and
exit code is equal and every float is within FLOAT_ATOL, which absorbs a
change of BLAS or summation order but no change of a decision.

    PYTHONPATH=src python tests/parity/regenerate.py          # rewrite all three seeds
    PYTHONPATH=src python tests/parity/regenerate.py --check  # compare, rewrite nothing

`--check` prints each moved field, and ends with their count by kind
(KINDS).

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
# What a moved field is: an exit code, a `passed` flag, a record switching
# between n/a and a number (its reason and tolerance go with it), an n/a
# reason, a record's value, or anything else.
KINDS = ("exit", "passed", "n/a<->number", "reason", "value", "other")
_LEAF_KINDS = {"exit": "exit", "passed": "passed", "skipped": "reason", "value": "value"}


def corpus_path(seed: int) -> Path:
    return HERE / f"seed{seed}.json"


def _run(argv: list[str], out: Path) -> tuple[int, dict | None]:
    from gplab.cli import main

    if out.exists():
        out.unlink()
    code = main(argv + ["--out", str(out)])
    if not out.exists():
        return code, None
    return code, json.loads(out.read_text())["results"]


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


def _by_name(records: list[dict]) -> dict[str, dict]:
    """Check records keyed by name, a name's later occurrences as name#k."""
    seen: dict[str, int] = {}
    out = {}
    for rec in records:
        k = seen[rec["name"]] = seen.get(rec["name"], -1) + 1
        out[rec["name"] + (f"#{k}" if k else "")] = rec
    return out


def _is_records(obj) -> bool:
    return isinstance(obj, list) and all(isinstance(r, dict) and "name" in r for r in obj)


def moves(want, got, path: str = "") -> list[tuple[str, str]]:
    """Where `got` departs from `want`, as (kind, line): floats by more than
    FLOAT_ATOL, anything else by any change, a change of type included.
    Lists of check records (`checks`, `evidence`) are matched by name and
    occurrence, so an added or removed record is one line, and a moved field
    is named by its record's name."""
    if (want or got) and _is_records(want) and _is_records(got):
        a, b = _by_name(want), _by_name(got)
        out = [("other", f"{path}: removed {k}") for k in a if k not in b]
        out += [("other", f"{path}: added {k}") for k in b if k not in a]
        if [k for k in a if k in b] != [k for k in b if k in a]:
            out.append(("other", f"{path}: records reordered"))
        for k in [name for name in a if name in b]:
            x, y = a[k], b[k]
            if (x.get("value") == "n/a") != (y.get("value") == "n/a"):
                out.append(("n/a<->number", f"{path}[{k}].value: {x['value']!r} -> {y['value']!r}"))
                x, y = {"passed": x.get("passed")}, {"passed": y.get("passed")}
            out += moves(x, y, f"{path}[{k}]")
        return out
    same_type = type(want) is type(got)
    if same_type and isinstance(want, dict):
        if want.keys() != got.keys():
            return [("other", f"{path}: keys {sorted(want)} -> {sorted(got)}")]
        return [d for k in want for d in moves(want[k], got[k], f"{path}.{k}")]
    if same_type and isinstance(want, list):
        if len(want) != len(got):
            return [("other", f"{path}: length {len(want)} -> {len(got)}")]
        return [d for i, (a, b) in enumerate(zip(want, got)) for d in moves(a, b, f"{path}[{i}]")]
    if same_type and (abs(want - got) <= FLOAT_ATOL if isinstance(want, float) else want == got):
        return []
    return [(_LEAF_KINDS.get(path.rsplit(".", 1)[-1], "other"), f"{path}: {want!r} -> {got!r}")]


def differences(want, got, path: str = "") -> list[str]:
    """The lines of moves(want, got, path)."""
    return [line for _, line in moves(want, got, path)]


def check_seed(seed: int) -> list[tuple[str, str]]:
    """The moves of one seed's runs from its corpus, each line labelled by
    its run."""
    want = json.loads(corpus_path(seed).read_text())
    got = run_seed(seed)
    labels = [f"seed{seed} {r['fixture']} {r['command']} depth={r['depth']}" for r in want]
    if len(want) != len(got):
        return [("other", f"seed{seed}: {len(want)} runs -> {len(got)}")]
    return [(kind, f"{label}{line}") for label, a, b in zip(labels, want, got) for kind, line in moves(a, b)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare against the corpus, rewrite nothing")
    args = parser.parse_args(argv)
    counts = dict.fromkeys(KINDS, 0)
    for seed in SEEDS:
        if args.check:
            diffs = check_seed(seed)
            for kind, line in diffs:
                print(line)
                counts[kind] += 1
            print(f"seed {seed}: {'differs' if diffs else 'unchanged'}")
        else:
            corpus_path(seed).write_text(_format(run_seed(seed)) + "\n")
            print(f"wrote {corpus_path(seed)}")
    if args.check:
        print("moved fields: " + ", ".join(f"{kind} {n}" for kind, n in counts.items()))
    return int(any(counts.values()))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    sys.exit(main())
