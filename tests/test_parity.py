"""The parity corpus (tests/parity): seed 1's 30 runs of the command line
against their committed reports, and the declared table of records
(records.RECORDS) against the README's ledger of checks, the check records
in the corpus and the benchmark's reference outcomes."""
import json
import re
from pathlib import Path

from gplab.records import RECORDS
from parity import regenerate

ROOT = Path(__file__).resolve().parent.parent


def test_seed_one_matches_parity_corpus():
    diffs = regenerate.check_seed(1)
    assert not diffs, "\n".join(line for _, line in diffs[:20])


def test_differences_name_each_record():
    """Check records are compared by name and occurrence: an inserted
    record is one line, and a moved value is named by its record, not by
    its position; any of them makes the runs differ."""
    want = {"checks": [{"name": "a", "value": 1.0}, {"name": "b", "value": 0.5}, {"name": "b", "value": 2}]}
    got = {"checks": [{"name": "a", "value": 1.0}, {"name": "a.exact", "value": 0},
                      {"name": "b", "value": 0.25}, {"name": "b", "value": 2}]}
    assert regenerate.differences(want, got) == [".checks: added a.exact", ".checks[b].value: 0.5 -> 0.25"]
    assert regenerate.differences(got, want) == [".checks: removed a.exact", ".checks[b].value: 0.25 -> 0.5"]
    got["checks"][3]["value"] = 3
    assert regenerate.differences(want, got)[-1] == ".checks[b#1].value: 2 -> 3"
    swapped = {"checks": [want["checks"][1], want["checks"][0], want["checks"][2]]}
    assert regenerate.differences(want, swapped) == [".checks: records reordered"]
    assert regenerate.differences(want, want) == []


def _ledger() -> dict[str, float | None]:
    """The README table "Checks and their tolerances": each check's name and
    its tolerance, the number in backticks of its rule, or None."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### Checks and their tolerances", 1)[1]
    table = next(p for p in section.split("\n\n") if p.startswith("| check |"))
    rows = {}
    for line in table.splitlines()[2:]:
        name, rule, _ = (cell.strip() for cell in re.split(r"(?<!\\)\|", line.strip("|")))
        number = re.search(r"`([0-9.e+-]+)`", rule)
        rows[name.strip("`")] = float(number.group(1)) if number else None
    return rows


def test_readme_ledger_matches_corpus_checks():
    """README's ledger lists exactly the records of RECORDS, each with its
    tolerance, in table order; and every check record of the corpus, suite
    and verdict evidence with a tolerance alike, has a table entry with its
    tolerance (an n/a record may omit it)."""
    assert list(_ledger().items()) == [(name, spec.tolerance) for name, spec in RECORDS.items()]
    seen = set()
    for seed in regenerate.SEEDS:
        for run in json.loads(regenerate.corpus_path(seed).read_text()):
            results = run["results"] or {}
            suite = results.get("identities", {}).get("checks", [])
            evidence = [e for v in results.get("verdicts", []) for e in v["evidence"] if "tolerance" in e]
            for rec in suite + evidence:
                assert rec["name"] in RECORDS, rec["name"]
                if rec["value"] != "n/a" or "tolerance" in rec:
                    assert rec.get("tolerance") == RECORDS[rec["name"]].tolerance, rec
                seen.add(rec["name"])
    # the corpus shows every record but the probe of a non-tracial state
    assert set(RECORDS) - seen <= {"trace.vacuum_probe_detects_violation", "trace.vacuum_probe_detects_violation.exact"}


def test_readme_exact_section_matches_the_exact_records():
    """README's "What is exact and what is sampled" names every exact record
    of RECORDS, those with certificate facts, and no record it calls
    sampled only has one."""
    exact = [name for name, spec in RECORDS.items() if spec.facts]
    text = (ROOT / "README.md").read_text()
    section = text.split("### What is exact and what is sampled", 1)[1].split("\n### ", 1)[0]
    names = set(re.findall(r"`([a-z_.*]+)`", section))
    assert set(exact) <= names
    sampled = re.findall(r"`([a-z_.*]+)`", section.split("Sampled only, with no exact record:", 1)[1].split("\n\n")[0])
    assert {"subgraph.expectation", "ideal.*"} <= set(sampled)
    for name in sampled:
        prefix = name[:-1] if name.endswith(".*") else name + "."
        assert not [e for e in exact if e.startswith(prefix)], name


def test_benchmark_reference_names_only_table_records():
    """Every `check:<name>#k` outcome that the benchmark gates on, in
    perfbench/reference.json, names a record of RECORDS; the file is read,
    never written."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    keys = [key for workload in reference.values() for outcomes in workload.values() for key in outcomes
            if key.startswith("check:")]
    assert keys
    for key in keys:
        assert re.fullmatch(r"check:(.+)#\d+", key).group(1) in RECORDS, key
