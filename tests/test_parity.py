"""The parity corpus (tests/parity): seed 1's 30 runs of the command line
against their committed reports, and the README's ledger of checks
against the check records in the corpus."""
import json
import re
from pathlib import Path

from parity import regenerate

ROOT = Path(__file__).resolve().parent.parent


def test_seed_one_matches_parity_corpus():
    diffs = regenerate.check_seed(1)
    assert not diffs, "\n".join(diffs[:20])


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
    """Every check record of the corpus, suite and verdict evidence alike,
    has a ledger row with its tolerance (an n/a record may omit it), every
    suite record has a row, and every row names a check of analysis.py."""
    ledger = _ledger()
    seen = set()
    for seed in regenerate.SEEDS:
        for run in json.loads(regenerate.corpus_path(seed).read_text()):
            results = run["results"] or {}
            suite = results.get("identities", {}).get("checks", [])
            evidence = [e for v in results.get("verdicts", []) for e in v["evidence"] if "tolerance" in e]
            for rec in suite + evidence:
                assert rec["name"] in ledger, rec["name"]
                if rec["value"] != "n/a" or "tolerance" in rec:
                    assert rec.get("tolerance") == ledger[rec["name"]], rec
                seen.add(rec["name"])
    source = (ROOT / "src" / "gplab" / "analysis.py").read_text()
    for name in ledger:
        assert f'"{name}"' in source, name
    # the corpus shows every row but the probe of a non-tracial state
    assert set(ledger) - seen <= {"trace.vacuum_probe_detects_violation"}
