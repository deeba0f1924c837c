import json
import subprocess
import sys
from pathlib import Path

import pytest

import gplab
from gplab.cli import main
from gplab.config import load_config, parse_config
from gplab.analysis import FAULTS, tensor_split_checks
from gplab.errors import ConfigError, ResourceLimitError
from gplab.lattice import DEFAULT_WITNESS_RADIUS

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(args, out: Path):
    code = main(list(args) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_growth_command(tmp_path):
    out = tmp_path / "r.json"
    code, report = run_cli(["growth", "--config", str(FIXTURES / "hecke_q1_edgeless3.json")], out)
    assert code == 0
    g = report["results"]["growth"]
    assert g["spheres"][:4] == [1, 3, 6, 12]
    assert g["oracle_match"] and g["region"] == "OutsideClosure"
    assert abs(g["critical_t"] - 0.5) < 1e-9


def test_growth_csv(tmp_path):
    out = tmp_path / "r.json"
    csv = tmp_path / "g.csv"
    code, _ = run_cli(
        ["growth", "--config", str(FIXTURES / "hecke_q1_edgeless3.json"), "--csv", str(csv)], out
    )
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "depth,sphere_count,series_coefficient"
    assert lines[1] == "0,1,1" and lines[2] == "1,3,3"


def test_simplicity_established_exit_zero(tmp_path):
    out = tmp_path / "r.json"
    code, report = run_cli(["simplicity", "--config", str(FIXTURES / "m2_trace_edgeless3.json")], out)
    assert code == 0
    v = report["results"]["verdicts"][0]
    assert v["result"] == "Established"
    assert any("state-central" in c for c in v["citations"])


def test_simplicity_hypotheses_fail_strict_flag(tmp_path):
    out = tmp_path / "r.json"
    cfg = str(FIXTURES / "hecke_inside_edgeless3.json")
    code, report = run_cli(["simplicity", "--config", cfg], out)
    assert code == 0
    assert report["results"]["verdicts"][0]["result"] == "HypothesesFail"
    code, _ = run_cli(["simplicity", "--config", cfg, "--strict"], out)
    assert code == 1


def test_check_identities_fault_fixture_exits_one(tmp_path):
    out = tmp_path / "r.json"
    code, report = run_cli(["check-identities", "--config", str(FIXTURES / "fault_rewrite.json")], out)
    assert code == 1
    assert not report["results"]["identities"]["passed"]


def test_trace_and_nuclearity(tmp_path):
    out = tmp_path / "r.json"
    code, report = run_cli(["trace", "--config", str(FIXTURES / "m2_trace_edgeless3.json")], out)
    assert code == 0
    assert report["results"]["verdicts"][0]["result"] == "Established"
    code, report = run_cli(["nuclearity", "--config", str(FIXTURES / "hecke_q1_edgeless3.json")], out)
    assert code == 0
    assert report["results"]["verdicts"][0]["result"] == "Established"


def test_tensor_split_command(tmp_path):
    out = tmp_path / "r.json"
    code, report = run_cli(["tensor-split", "--config", str(FIXTURES / "join_path3_hecke.json")], out)
    assert code == 0
    ts = report["results"]["tensor_split"]
    assert ts["passed"] and ts["max_deviation"] <= 1e-12
    # not a join: config error
    code = main(["tensor-split", "--config", str(FIXTURES / "hecke_q1_edgeless3.json"), "--out", str(out)])
    assert code == 2


def test_topofree_command(tmp_path):
    out = tmp_path / "r.json"
    code, report = run_cli(["witness-topofree", "--config", str(FIXTURES / "hecke_q1_edgeless3.json")], out)
    assert code == 0
    t = report["results"]["topofree"]
    assert t["conclusive"] and len(t["checks"]) == 4


@pytest.mark.parametrize(
    "patch,path",
    [
        ({"w": ["zz"]}, r"topofree\.w"),
        ([{"w": []}], r"topofree"),
        ({"L_max": "x"}, r"topofree\.L_max"),
        ({"Lmax": 9}, r"topofree\.Lmax"),
    ],
    ids=["unknown_vertex", "list_block", "string_L_max", "misspelt_key"],
)
def test_malformed_topofree_block_exits_two(tmp_path, patch, path):
    cfg = json.loads((FIXTURES / "hecke_q1_edgeless3.json").read_text())
    cfg["topofree"] = {**cfg["topofree"], **patch} if isinstance(patch, dict) else patch
    with pytest.raises(ConfigError, match=path):
        parse_config(cfg)
    f = tmp_path / "topofree.json"
    f.write_text(json.dumps(cfg))
    assert main(["witness-topofree", "--config", str(f)]) == 2


def test_topofree_block_parsed_to_canonical_words():
    cfg = json.loads((FIXTURES / "hecke_q1_edgeless3.json").read_text())
    assert parse_config(cfg).topofree == {
        "w": (),
        "exclusions": [(0,), (1,)],
        "L_max": 4,
        "search_radius": DEFAULT_WITNESS_RADIUS,
    }
    cfg["topofree"] = {"w": ["b", "a", "a"], "exclusions": [["c", "b", "b"]], "L_max": 2, "search_radius": 3}
    assert parse_config(cfg).topofree == {"w": (1,), "exclusions": [(2,)], "L_max": 2, "search_radius": 3}
    del cfg["topofree"]  # witness-topofree still runs, on the defaults
    assert parse_config(cfg).topofree == {
        "w": (),
        "exclusions": [(0,)],
        "L_max": 4,
        "search_radius": DEFAULT_WITNESS_RADIUS,
    }


def test_negative_depth_override_exits_two():
    cfg = str(FIXTURES / "hecke_q1_edgeless3.json")
    assert main(["check-identities", "--config", cfg, "--depth", "-1"]) == 2


def test_join_decomposition_recursion_in_simplicity(tmp_path):
    out = tmp_path / "r.json"
    code, report = run_cli(["simplicity", "--config", str(FIXTURES / "join_path3_hecke.json")], out)
    assert code == 0
    v = report["results"]["verdicts"][0]
    assert "factors" in v and len(v["factors"]) == 2


def test_config_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["growth", "--config", str(bad)]) == 2
    assert main(["growth", "--config", str(tmp_path / "missing.json")]) == 2
    cfg = json.loads((FIXTURES / "hecke_q1_edgeless3.json").read_text())
    cfg["vertices"]["a"] = {"blocks": [2], "density": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}
    nf = tmp_path / "nonfaithful.json"
    nf.write_text(json.dumps(cfg))
    assert main(["growth", "--config", str(nf)]) == 2


@pytest.mark.parametrize(
    "block,known,typo",
    [
        ("caps", "fock_dim", "fock_dimension"),
        ("tolerances", "identity", "identities"),
        # keys that no code reads are rejected like typos
        ("caps", "fock_dim", "ball_elements"),
        ("caps", "fock_dim", "expression_length"),
        ("tolerances", "identity", "expectation"),
        ("tolerances", "identity", "gauge"),
        # the retired soft time limit of the identity suite
        ("caps", "fock_dim", "check_seconds"),
    ],
)
def test_unknown_cap_or_tolerance_key_exits_two(tmp_path, block, known, typo):
    cfg = json.loads((FIXTURES / "hecke_q1_edgeless3.json").read_text())
    cfg[block] = {known: 1000}
    assert getattr(parse_config(cfg), block)[known] == 1000
    cfg[block] = {known: 1000, typo: 1000}
    with pytest.raises(ConfigError, match=rf"{block}\.{typo}"):
        parse_config(cfg)
    f = tmp_path / "unknown.json"
    f.write_text(json.dumps(cfg))
    assert main(["growth", "--config", str(f)]) == 2


@pytest.mark.parametrize("fault", ["expectation", "tensor", "Rewrite", "nonsense", "", 1, ["rewrite"]])
def test_fault_injection_must_name_a_fault_taking_group(tmp_path, fault):
    """fault_injection takes the name of a suite group with a fault hook;
    any other value, a group without one included, exits 2."""
    cfg = json.loads((FIXTURES / "hecke_q1_edgeless3.json").read_text())
    for known in FAULTS:
        cfg["fault_injection"] = known
        assert parse_config(cfg).fault_injection == known
    cfg["fault_injection"] = fault
    with pytest.raises(ConfigError, match="fault_injection"):
        parse_config(cfg)
    f = tmp_path / "fault.json"
    f.write_text(json.dumps(cfg))
    assert main(["check-identities", "--config", str(f)]) == 2


def test_resource_cap_exit_code(tmp_path):
    cfg = json.loads((FIXTURES / "hecke_q1_edgeless3.json").read_text())
    cfg["truncation"] = 13  # beyond the ball depth cap
    f = tmp_path / "deep.json"
    f.write_text(json.dumps(cfg))
    assert main(["check-identities", "--config", str(f)]) == 3


def test_tensor_split_respects_fock_dim_cap(tmp_path):
    cfg = json.loads((FIXTURES / "hecke_q1_edgeless3.json").read_text())
    cfg["graph"]["edges"] = [["a", "b"], ["a", "c"], ["b", "c"]]  # K3: a join
    cfg["truncation"] = 3  # dim 8
    f = tmp_path / "k3.json"
    f.write_text(json.dumps(cfg))
    assert main(["tensor-split", "--config", str(f), "--out", str(tmp_path / "r.json")]) == 0
    cfg["caps"] = {"fock_dim": 5}
    f.write_text(json.dumps(cfg))
    assert main(["tensor-split", "--config", str(f)]) == 3
    with pytest.raises(ResourceLimitError):
        tensor_split_checks(parse_config(cfg).system, 3)


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="graph.vertices"):
        parse_config({"schema_version": 1, "graph": {"vertices": []}})
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config({})
    with pytest.raises(ConfigError, match=r"edges\[0\]"):
        parse_config({"schema_version": 1, "graph": {"vertices": ["a"], "edges": [["a", "b"]]}, "vertices": {}})


def test_config_round_trip():
    cfg = load_config(str(FIXTURES / "m2_trace_edgeless3.json"))
    again = parse_config(cfg.echo)
    assert again.system.graph == cfg.system.graph
    assert again.truncation == cfg.truncation and again.seed == cfg.seed
    assert set(again.unitary_witnesses) == set(cfg.unitary_witnesses)
    for v in cfg.unitary_witnesses:
        assert (again.unitary_witnesses[v] - cfg.unitary_witnesses[v]).is_zero()
    assert again.sha256() == cfg.sha256()


def test_report_determinism(tmp_path):
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    cfg = str(FIXTURES / "m2_trace_edgeless3.json")
    assert main(["report-all", "--config", cfg, "--out", str(o1)]) == 0
    assert main(["report-all", "--config", cfg, "--out", str(o2)]) == 0
    a, b = json.loads(o1.read_text()), json.loads(o2.read_text())
    for r in (a, b):
        r.pop("timing")
        r["results"]["identities"].pop("elapsed_seconds")
    assert a == b


def test_console_entry_point_runs():
    # Run from the directory holding the imported package, so the child
    # process runs the same gplab without relying on PYTHONPATH.
    proc = subprocess.run(
        [sys.executable, "-m", "gplab.cli", "growth", "--config", str(FIXTURES / "hecke_q1_edgeless3.json")],
        capture_output=True,
        text=True,
        cwd=Path(gplab.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["command"] == "growth"


def test_report_all_loads_no_scipy(tmp_path):
    """The whole report runs on numpy alone: a child process that runs
    report-all on the M2 fixture never imports a scipy module."""
    out = tmp_path / "report.json"
    code = (
        "import json, sys\n"
        "from gplab.cli import main\n"
        "rc = main(['report-all', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(FIXTURES / "m2_trace_edgeless3.json"), str(out)],
        capture_output=True,
        text=True,
        cwd=Path(gplab.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0 and loaded == []
    assert "scipy" not in json.loads(out.read_text())["versions"]


def test_negative_seed_override_exits_two():
    cfg = str(FIXTURES / "hecke_q1_edgeless3.json")
    assert main(["check-identities", "--config", cfg, "--depth", "3", "--seed", "-1"]) == 2


@pytest.mark.parametrize(
    "block,key,value",
    [
        ("caps", "fock_dim", "x"),
        ("caps", "fock_dim", 0),
        ("caps", "fock_dim", -5),
        ("caps", "fock_dim", 2.5),
        ("caps", "fock_dim", True),
        ("tolerances", "identity", "x"),
        ("tolerances", "identity", 0),
        ("tolerances", "identity", -1e-9),
        ("tolerances", "identity", float("nan")),
        ("tolerances", "identity", float("inf")),
        ("tolerances", "classification", False),
        pytest.param("tolerances", "classification", [1e-8], id="tolerances-classification-value12"),
    ],
)
def test_bad_cap_or_tolerance_value_exits_two(tmp_path, block, key, value):
    """Caps are positive integers and tolerances finite positive numbers;
    any other value exits 2 with its key path named."""
    cfg = json.loads((FIXTURES / "hecke_q1_edgeless3.json").read_text())
    cfg[block] = {key: value}
    with pytest.raises(ConfigError, match=rf"{block}\.{key}"):
        parse_config(cfg)
    f = tmp_path / "bad_value.json"
    f.write_text(json.dumps(cfg))
    assert main(["growth", "--config", str(f)]) == 2


@pytest.mark.parametrize("fixture", sorted(p.stem for p in FIXTURES.glob("*.json")))
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_shallow_depths_report_without_guard_as_na(tmp_path, fixture, depth):
    """At depths 0-2 check-identities runs to a report: a check whose
    operators carry no guarded column is n/a with a reason, never a number."""
    out = tmp_path / "r.json"
    code, report = run_cli(["check-identities", "--config", str(FIXTURES / f"{fixture}.json"), "--depth", str(depth)], out)
    checks = report["results"]["identities"]["checks"]
    assert code == (0 if report["results"]["identities"]["passed"] else 1)
    na = [c for c in checks if c["value"] == "n/a"]
    assert na and all(c["passed"] and c["skipped"] for c in na)
    assert any("no guarded column" in c["skipped"] for c in na)
    if depth == 0:  # every operator built from lambda has guard -1
        assert {c["name"] for c in na} >= {"creation.same_vertex_product_zero", "expectation.idempotent"}


def test_expectation_checks_without_guard_report_numbers_at_depth_two(tmp_path):
    """At depth 2 only the expectation checks that compare guarded columns
    are n/a; contractivity, positivity and the faithful kernel hold for any
    matrix and report numbers."""
    out = tmp_path / "r.json"
    code, report = run_cli(["check-identities", "--config", str(FIXTURES / "m2_trace_edgeless3.json"), "--depth", "2"], out)
    checks = {c["name"]: c for c in report["results"]["identities"]["checks"] if c["name"].startswith("expectation.")}
    assert code == 0
    assert sorted(checks) == sorted(
        ["expectation.idempotent", "expectation.contractive", "expectation.positive",
         "expectation.faithful_kernel", "expectation.gauge_average_match"]
    )
    for name in ("expectation.idempotent", "expectation.gauge_average_match"):
        assert checks[name]["value"] == "n/a" and checks[name]["passed"]
        assert "no guarded column" in checks[name]["skipped"]
    for name in ("expectation.contractive", "expectation.positive", "expectation.faithful_kernel"):
        assert isinstance(checks[name]["value"], float) and checks[name]["passed"]
        assert "skipped" not in checks[name]
        assert checks[name]["value"] <= checks[name]["tolerance"]
