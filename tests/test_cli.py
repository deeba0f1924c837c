import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import gplab
from gplab.cli import main
from gplab.config import load_config, parse_config
from gplab.analysis import FAULTS, SUITE, tensor_split_checks
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


def test_topofree_on_graph_it_cannot_serve_exits_two(tmp_path, capsys):
    """The witness search walks the complement, so it needs three vertices
    and a connected complement.  On a join (PATH3 = {b} * {a, c}) or on two
    vertices, witness-topofree and report-all with a topofree block exit 2
    with the reason, as tensor-split does on a graph that is not a join."""
    cfg = json.loads((FIXTURES / "join_path3_hecke.json").read_text())
    join = tmp_path / "join.json"
    join.write_text(json.dumps({**cfg, "topofree": {}}))
    two = tmp_path / "two.json"
    two.write_text(json.dumps({**cfg, "graph": {"vertices": ["a", "b"], "edges": []},
                               "vertices": {"a": cfg["vertices"]["a"], "b": cfg["vertices"]["b"]}}))
    for argv, reason in [
        (["witness-topofree", "--config", str(FIXTURES / "join_path3_hecke.json")], "complement must be connected"),
        (["report-all", "--config", str(join)], "complement must be connected"),
        (["witness-topofree", "--config", str(two)], "at least 3 vertices"),
    ]:
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == 2
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["tensor-split", "report-all"])
def test_tensor_split_without_guarded_column_is_na(tmp_path, command):
    """At depth 0 no lambda operator has a guarded column, so the join split
    has nothing to compare: the tensor_split block reads n/a with the
    reason, passes, and exits 0, as the suite's tensor.split row does."""
    code, report = run_cli(
        [command, "--config", str(FIXTURES / "join_path3_hecke.json"), "--depth", "0"], tmp_path / "r.json"
    )
    assert code == 0
    ts = report["results"]["tensor_split"]
    assert ts["max_deviation"] == "n/a" and ts["passed"]
    assert "no guarded column" in ts["skipped"]
    if command == "report-all":
        row = next(c for c in report["results"]["identities"]["checks"] if c["name"] == "tensor.split")
        assert row["value"] == "n/a" and row["skipped"] == ts["skipped"]


@pytest.mark.parametrize(
    "patch,path",
    [
        ({"w": ["zz"]}, r"topofree\.w"),
        ([{"w": []}], r"topofree"),
        ({"L_max": "x"}, r"topofree\.L_max"),
        ({"Lmax": 9}, r"topofree\.Lmax"),
        ({"L_max": 0}, r"topofree\.L_max"),  # a search with no walk power checks nothing
    ],
    ids=["unknown_vertex", "list_block", "string_L_max", "misspelt_key", "zero_L_max"],
)
def test_malformed_topofree_block_exits_two(tmp_path, patch, path):
    cfg = json.loads((FIXTURES / "hecke_q1_edgeless3.json").read_text())
    cfg["topofree"] = {**cfg["topofree"], **patch} if isinstance(patch, dict) else patch
    with pytest.raises(ConfigError, match=path):
        parse_config(cfg)
    f = tmp_path / "topofree.json"
    f.write_text(json.dumps(cfg))
    assert main(["witness-topofree", "--config", str(f)]) == 2


@pytest.mark.parametrize("command", ["check-identities", "witness-topofree"])
def test_csv_without_growth_block_exits_two(tmp_path, command, capsys):
    """Only growth and report-all write the CSV: any other command given
    --csv exits 2, naming both, and writes neither the CSV nor the report."""
    csv, out = tmp_path / "x.csv", tmp_path / "r.json"
    cfg = str(FIXTURES / "hecke_q1_edgeless3.json")
    assert main([command, "--config", cfg, "--depth", "2", "--csv", str(csv), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "growth" in err and "report-all" in err
    assert not csv.exists() and not out.exists()


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


def _unknown_key_path(block: str, key: str) -> str:
    """The key path at which a config with `block: {key: ...}` is rejected:
    the key inside `caps`, or the whole block for `tolerances`."""
    return rf"{block}\.{key}" if block == "caps" else rf"at {block}: unknown key"


@pytest.mark.parametrize("block", [{}, {"identity": 1e-9}, {"classification": 1e-8}])
def test_tolerances_block_exits_two(tmp_path, block):
    """No check tolerance is settable: a `tolerances` block, empty or
    holding a key it once took at its old default, exits 2 at `tolerances`."""
    cfg = json.loads((FIXTURES / "hecke_q1_edgeless3.json").read_text())
    cfg["tolerances"] = block
    with pytest.raises(ConfigError, match=r"at tolerances: unknown key"):
        parse_config(cfg)
    f = tmp_path / "tolerances.json"
    f.write_text(json.dumps(cfg))
    assert main(["check-identities", "--config", str(f), "--depth", "1"]) == 2


def test_tolerance_flag_exits_two(capsys):
    """--tolerance is no option: argparse rejects it with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["check-identities", "--config", str(FIXTURES / "hecke_q1_edgeless3.json"), "--tolerance", "1e-9"])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


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
    """An unknown cap exits 2 at its key path.  `tolerances` is no key of
    the schema, since each check has one fixed tolerance: any block of it
    exits 2 at `tolerances`, a key it once took included."""
    cfg = json.loads((FIXTURES / "hecke_q1_edgeless3.json").read_text())
    cfg[block] = {known: 1000}
    if block == "caps":
        # the one cap is read into the system's dimension cap
        assert parse_config(cfg).system.dim_cap == 1000
    cfg[block] = {known: 1000, typo: 1000}
    with pytest.raises(ConfigError, match=_unknown_key_path(block, typo)):
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
    assert a == b


@pytest.mark.parametrize("command", ["check-identities", "report-all", "growth"])
def test_timing_names_each_suite_group(tmp_path, command):
    """A command that runs the identity suite reports each SUITE row's wall
    seconds under timing.groups, by row name; one that does not, none."""
    code, report = run_cli([command, "--config", str(FIXTURES / "hecke_q1_edgeless3.json")], tmp_path / "r.json")
    assert code == 0
    groups = report["timing"].get("groups")
    if command == "growth":
        assert groups is None
    else:
        assert sorted(groups) == sorted(g.name for g in SUITE)
        assert all(isinstance(s, float) and s >= 0.0 for s in groups.values())


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


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_report_all_loads_no_lazy_numpy_module(tmp_path, fixture):
    """A cold report-all loads no numpy module after `import numpy` but
    numpy.random's: np.unique, for one, loads numpy.ma on its first call,
    which a cold process pays for."""
    code = (
        "import json, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "from gplab.cli import main\n"
        "main(['report-all', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'numpy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(FIXTURES / fixture), str(tmp_path / "report.json")],
        capture_output=True,
        text=True,
        cwd=Path(gplab.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "numpy.random" in loaded
    assert [m for m in loaded if m.split(".")[:2] != ["numpy", "random"]] == []


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
    """Caps are positive integers; any other value exits 2 with its key path
    named.  A `tolerances` block exits 2 at `tolerances` whatever it holds."""
    cfg = json.loads((FIXTURES / "hecke_q1_edgeless3.json").read_text())
    cfg[block] = {key: value}
    with pytest.raises(ConfigError, match=_unknown_key_path(block, key)):
        parse_config(cfg)
    f = tmp_path / "bad_value.json"
    f.write_text(json.dumps(cfg))
    assert main(["growth", "--config", str(f)]) == 2


@pytest.mark.parametrize(
    "q", [True, float("nan"), float("inf"), 1e-13, 1e13], ids=["true", "nan", "inf", "1e-13", "1e13"]
)
def test_bad_hecke_q_exits_two(tmp_path, q):
    """A Hecke parameter is a finite positive number whose vertex state is
    faithful; any other value exits 2 at its key path, before any command
    runs."""
    cfg = json.loads((FIXTURES / "hecke_q1_edgeless3.json").read_text())
    cfg["vertices"]["a"]["hecke"]["q"] = q
    with pytest.raises(ConfigError, match=r"vertices\.a\.hecke\.q"):
        parse_config(cfg)
    f = tmp_path / "bad_q.json"
    f.write_text(json.dumps(cfg))
    assert main(["report-all", "--config", str(f)]) == 2


def _diag(x, y):
    """The one-block M2 element diag(x, y) in the config's [re, im] form."""
    return [[[[x, 0.0], [0.0, 0.0]], [[0.0, 0.0], [y, 0.0]]]]


@pytest.mark.parametrize(
    "fixture,keys,value,path",
    [
        # values of the wrong type, which died with a traceback
        ("hecke_q1_edgeless3", ("vertices", "a", "hecke"), 1, r"vertices\.a\.hecke"),
        ("m2_trace_edgeless3", ("vertices", "a", "density", 0, 0, 0), ["x", 0.0], r"vertices\.a\.density\[0\]\[0\]\[0\]"),
        ("m2_trace_edgeless3", ("vertices", "a", "density", 0, 0, 0), [None, 0.0], r"vertices\.a\.density\[0\]\[0\]\[0\]"),
        ("m2_trace_edgeless3", ("vertices", "a", "witnesses", "unitary", 0, 0, 0), ["x", 0.0],
         r"vertices\.a\.witnesses\.unitary\[0\]\[0\]\[0\]"),
        ("m2_trace_edgeless3", ("vertices", "a", "witnesses", "unitary", 0, 0, 0), [None, 0.0],
         r"vertices\.a\.witnesses\.unitary\[0\]\[0\]\[0\]"),
        ("m2_trace_edgeless3", ("vertices", "a", "witnesses"), 5, r"vertices\.a\.witnesses"),
        ("hecke_q1_edgeless3", ("graph", "edges"), 3, r"graph\.edges"),
        ("hecke_q1_edgeless3", (), [], r"top level"),
        ("hecke_q1_edgeless3", ("graph", "edges"), [[["a"], "b"]], r"graph\.edges\[0\]"),
        # unknown keys, which were ignored
        ("hecke_q1_edgeless3", ("truncaton",), 3, r"truncaton"),
        ("hecke_q1_edgeless3", ("graph", "edge"), [["a", "b"]], r"graph\.edge"),
        ("hecke_q1_edgeless3", ("vertices", "a", "hecke_q"), 2.0, r"vertices\.a\.hecke_q"),
        ("hecke_q1_edgeless3", ("vertices", "a", "hecke", "qq"), 2.0, r"vertices\.a\.hecke\.qq"),
        ("m2_trace_edgeless3", ("vertices", "a", "witnesses", "b"), _diag(1.0, -1.0), r"vertices\.a\.witnesses\.b"),
        ("hecke_q1_edgeless3", ("vertices", "a", "blocks"), [2], r"vertices\.a\.blocks"),
        ("hecke_q1_edgeless3", ("vertices", "d"), {"hecke": {"q": 1.0}}, r"vertices\.d"),
        ("m2_trace_edgeless3", ("vertices", "a", "witnesses"), [1], r"vertices\.a\.witnesses"),
        ("hecke_q1_edgeless3", ("schema_version",), True, r"schema_version"),
        ("hecke_q1_edgeless3", ("schema_version",), 1.0, r"schema_version"),
        # a bool block size, which was read as 1
        ("m2_trace_edgeless3", ("vertices", "a"), {"blocks": [True], "density": [[[[1.0, 0.0]]]]},
         r"vertices\.a\.blocks\[0\]"),
        # witnesses that their readers reject, which died with a traceback
        ("m2_trace_edgeless3", ("vertices", "a", "witnesses", "unitary"), _diag(1.0, 1.0), r"vertices\.a\.witnesses\.unitary"),
        ("m2_trace_edgeless3", ("vertices", "a", "witnesses", "unitary"), _diag(2.0, -2.0),
         r"vertices\.a\.witnesses\.unitary"),
        ("m2_trace_edgeless3", ("vertices", "a", "witnesses", "a"), _diag(1.0, 0.0), r"vertices\.a\.witnesses\.a"),
        ("m2_trace_edgeless3", ("vertices", "a", "witnesses", "a"), _diag(0.0, 0.0), r"vertices\.a\.witnesses\.a"),
    ],
    ids=[
        "hecke_int", "density_string_entry", "density_null_entry", "witness_string_entry",
        "witness_null_entry", "witnesses_int", "edges_int", "top_level_list", "edge_endpoint_list",
        "truncaton", "graph_edge", "hecke_q_key", "hecke_qq", "witnesses_b", "hecke_and_blocks",
        "vertex_not_in_graph", "witnesses_list", "schema_version_true", "schema_version_float", "block_true",
        "uncentered_unitary", "nonunitary_unitary", "uncentered_a", "zero_a",
    ],
)
def test_malformed_config_exits_two(tmp_path, fixture, keys, value, path):
    """A value of the wrong type, an unknown key anywhere, or a supplied
    witness that its readers would reject exits 2 at its key path when the
    config is read, before any command runs."""
    cfg = json.loads((FIXTURES / f"{fixture}.json").read_text())
    if keys:
        *head, last = keys
        node = cfg
        for k in head:
            node = node[k]
        node[last] = value
    else:
        cfg = value
    with pytest.raises(ConfigError, match=path):
        parse_config(cfg)
    f = tmp_path / "malformed.json"
    f.write_text(json.dumps(cfg))
    assert main(["report-all", "--config", str(f)]) == 2


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


# -- one rule and one computation per check ----------------------------------------


def _write_variant(tmp_path, fixture: str, edit) -> Path:
    """A copy of a fixture, changed in place by edit(cfg)."""
    cfg = json.loads((FIXTURES / f"{fixture}.json").read_text())
    edit(cfg)
    path = tmp_path / f"{fixture}_variant.json"
    path.write_text(json.dumps(cfg))
    return path


def _keep_vertices(*names):
    """An edit that keeps only the named vertices and the edges among them,
    and drops the topofree block."""
    def edit(cfg):
        cfg["graph"] = {"vertices": list(names),
                        "edges": [e for e in cfg["graph"]["edges"] if set(e) <= set(names)]}
        cfg["vertices"] = {v: cfg["vertices"][v] for v in names}
        cfg.pop("topofree", None)
    return edit


def _check(report, name):
    return next(c for c in report["results"]["identities"]["checks"] if c["name"] == name)


@pytest.mark.parametrize("command", ["check-identities", "report-all"])
def test_one_vertex_graph_runs_the_suite(tmp_path, command):
    """With one vertex there is no pair of distinct vertices to draw, so
    rho_lambda.commutation is n/a, as subgraph.expectation is."""
    cfg = _write_variant(tmp_path, "hecke_q1_edgeless3", _keep_vertices("a"))
    code, report = run_cli([command, "--config", str(cfg)], tmp_path / "r.json")
    assert code == 0
    assert _check(report, "rho_lambda.commutation") == {
        "name": "rho_lambda.commutation", "passed": True, "skipped": "graph too small", "value": "n/a"}


@pytest.mark.parametrize("vertices,edges,depth", [(["a"], [], 2), (["a", "b"], [["a", "b"]], 3)])
def test_identity_tail_ones_on_a_finite_group(tmp_path, vertices, edges, depth):
    """A clique's group is finite: past its longest word the Fock space has
    nothing, and the tail profile of 1 is 0 there, as it must be."""
    def edit(cfg):
        _keep_vertices(*vertices)(cfg)
        cfg["graph"]["edges"] = edges
    cfg = _write_variant(tmp_path, "hecke_q1_edgeless3", edit)
    code, report = run_cli(["check-identities", "--config", str(cfg), "--depth", str(depth)], tmp_path / "r.json")
    assert code == 0
    rec = _check(report, "ideal.identity_tail_ones")
    assert rec["passed"] and rec["value"] == 0.0


@pytest.mark.parametrize("command", ["growth", "report-all"])
def test_growth_with_one_dimensional_vertex_is_na(tmp_path, command):
    """C at vertex c has no centred element but 0, so no positive-q witness:
    the growth block classifies nothing and names the vertex."""
    def edit(cfg):
        cfg["vertices"]["c"] = {"blocks": [1], "density": [[[[1.0, 0.0]]]]}
    cfg = _write_variant(tmp_path, "m2_trace_edgeless3", edit)
    code, report = run_cli([command, "--config", str(cfg)], tmp_path / "r.json")
    assert code == 0
    g = report["results"]["growth"]
    assert g["critical_t"] == "n/a" and g["region"] == "n/a" and g["oracle_match"]
    assert g["skipped"] == "no positive-q witness at vertex c"
    assert g["parameters"]["c"] == "n/a"


def _non_tracial(cfg):
    cfg["vertices"]["a"]["density"] = [[[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]]]
    cfg["vertices"]["a"].pop("witnesses")


def test_probe_below_depth_two_is_na(tmp_path):
    """Every probe pair has word length at least 2, so at depth 1 the probe
    samples nothing: its row is n/a, not a failure to detect the violation
    of a non-tracial state, its exact record is n/a with the same reason,
    and the trace verdict carries the same records."""
    cfg = _write_variant(tmp_path, "m2_trace_edgeless3", _non_tracial)
    code, report = run_cli(["report-all", "--config", str(cfg), "--depth", "1"], tmp_path / "r.json")
    assert code == 0
    rec = _check(report, "trace.vacuum_probe_detects_violation")
    exact = _check(report, "trace.vacuum_probe_detects_violation.exact")
    assert rec["value"] == "n/a" and rec["passed"] and "depth 1" in rec["skipped"]
    assert exact["value"] == "n/a" and exact["passed"] and exact["skipped"] == rec["skipped"]
    trace = report["results"]["verdicts"][1]
    assert trace["result"] == "Established" and trace["evidence"][-2:] == [rec, exact]


@pytest.mark.parametrize("fixture", ["m2_trace_edgeless3", "non_tracial"])
def test_trace_verdict_reads_the_suite_probe_record(tmp_path, fixture):
    if fixture == "non_tracial":
        cfg = _write_variant(tmp_path, "m2_trace_edgeless3", _non_tracial)
    else:
        cfg = FIXTURES / f"{fixture}.json"
    code, report = run_cli(["report-all", "--config", str(cfg)], tmp_path / "r.json")
    assert code == 0
    recs = [c for c in report["results"]["identities"]["checks"] if c["name"].startswith("trace.")]
    assert [c["name"] for c in recs[1:]] == [f"{recs[0]['name']}.exact"]
    trace = report["results"]["verdicts"][1]
    assert trace["statement"] == "tracial state structure" and trace["result"] == "Established"
    assert [e for e in trace["evidence"] if "probe" in e["name"]] == recs
    assert all(rec["value"] != "n/a" and rec["passed"] for rec in recs)


@pytest.mark.parametrize("depth", [0, 4])
def test_tensor_split_block_reads_the_suite_row(tmp_path, depth):
    code, report = run_cli(
        ["report-all", "--config", str(FIXTURES / "join_path3_hecke.json"), "--depth", str(depth)], tmp_path / "r.json"
    )
    assert code == 0
    ts, row = report["results"]["tensor_split"], _check(report, "tensor.split")
    assert (ts["max_deviation"], ts["passed"], ts.get("skipped")) == (row["value"], row["passed"], row.get("skipped"))
    assert ("pair_count" in ts) == (depth > 0)


def test_report_all_on_a_join_builds_each_space_once(monkeypatch):
    """At depth 4 report-all builds the system's depth-4 space, its depth-3
    space for the lattice group and the two factor spaces of the join split:
    the suite's tensor.split and the tensor_split block share one split."""
    from gplab import cli
    from gplab.fock import TruncatedFock

    cfg = load_config(FIXTURES / "join_path3_hecke.json")
    built = []
    init = TruncatedFock.__init__

    def counting(self, graph, reps, n, *args, **kwargs):
        built.append((graph.vertices, n))
        init(self, graph, reps, n, *args, **kwargs)

    monkeypatch.setattr(TruncatedFock, "__init__", counting)
    _, ok = cli.execute("report-all", cfg, 4, cfg.seed, False, None)
    assert ok
    assert len(built) == 4, built


# -- one probe and one witness map per report ----------------------------------------


@pytest.mark.parametrize("fixture", ["m2_trace_edgeless3", "hecke_q1_edgeless3"])
def test_report_all_runs_the_vacuum_probe_once(monkeypatch, fixture):
    """The trace verdict carries the suite's trace row: report-all samples
    the vacuum-trace probe once."""
    from gplab import analysis, cli

    cfg = load_config(FIXTURES / f"{fixture}.json")
    calls = []
    probe = analysis.traciality_probe

    def counting(*args, **kwargs):
        calls.append(args)
        return probe(*args, **kwargs)

    monkeypatch.setattr(analysis, "traciality_probe", counting)
    results, ok = cli.execute("report-all", cfg, cfg.truncation, cfg.seed, False, None)
    assert ok and len(calls) == 1
    row = [c for c in results["identities"]["checks"] if c["name"].startswith("trace.")]
    assert [c["name"] for c in row] == ["trace.vacuum_probe", "trace.vacuum_probe.exact"]
    trace = results["verdicts"][1]
    assert trace["statement"] == "tracial state structure"
    assert [e for e in trace["evidence"] if e["name"].startswith("trace.")] == row


def _phase(theta: float) -> list:
    return [[[math.cos(theta), math.sin(theta)]]]


def test_growth_block_and_simplicity_verdict_read_one_witness(tmp_path):
    """C^3 with weights 0.4, 0.35, 0.25 and a supplied kernel unitary
    diag(1, e^{i theta1}, e^{-2 pi i / 3}) that the search family's phase
    grid misses: both blocks read the supplied unitary, so both give q = 1
    and the same critical scale."""
    weights = (0.4, 0.35, 0.25)
    theta2 = -2 * math.pi / 3
    # 0.4 + 0.35 e^{i theta1} + 0.25 e^{i theta2} = 0
    rest = -(weights[0] + weights[2] * complex(math.cos(theta2), math.sin(theta2)))
    theta1 = math.atan2(rest.imag, rest.real)
    vertex = {
        "blocks": [1, 1, 1],
        "density": [[[[w, 0.0]]] for w in weights],
        "witnesses": {"unitary": [_phase(0.0), _phase(theta1), _phase(theta2)]},
    }
    spec = {
        "schema_version": 1,
        "graph": {"vertices": ["a", "b", "c"], "edges": []},
        "vertices": {v: vertex for v in "abc"},
        "truncation": 3,
        "seed": 1,
    }
    path = tmp_path / "phases.json"
    path.write_text(json.dumps(spec))
    code, report = run_cli(["report-all", "--config", str(path)], tmp_path / "r.json")
    assert code == 0
    growth = report["results"]["growth"]
    (simplicity,) = [v for v in report["results"]["verdicts"] if v["statement"] == "graph product simplicity"]
    evidence = {e["name"]: e["value"] for e in simplicity["evidence"]}
    assert growth["parameters"] == {v: evidence[f"q[{v}]"] for v in "abc"}
    assert growth["critical_t"] == evidence["critical_t"]
    assert all(abs(q - 1.0) <= 1e-12 for q in growth["parameters"].values())
