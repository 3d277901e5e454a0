"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

SYSTEM_XML = """
<system name="cli">
  <controllers><controller name="c1"/></controllers>
  <switches><switch name="s1" dpid="1" ports="1,2"/></switches>
  <hosts><host name="h1" ip="10.0.0.1"/><host name="h2" ip="10.0.0.2"/></hosts>
  <dataplane>
    <link a="h1" b="s1" b-port="1"/>
    <link a="h2" b="s1" b-port="2"/>
  </dataplane>
  <controlplane><connection controller="c1" switch="s1"/></controlplane>
</system>
"""

ATTACK_XML = """
<attack name="cli-drop" start="sigma1">
  <state name="sigma1">
    <rule name="phi1">
      <connections><all-connections/></connections>
      <gamma class="no-tls"/>
      <condition>type = FLOW_MOD</condition>
      <actions><drop/></actions>
    </rule>
  </state>
</attack>
"""

MODEL_XML = """
<attackmodel>
  <connection controller="c1" switch="s1" class="no-tls"/>
</attackmodel>
"""


@pytest.fixture
def xml_files(tmp_path):
    system = tmp_path / "system.xml"
    system.write_text(SYSTEM_XML)
    attack = tmp_path / "attack.xml"
    attack.write_text(ATTACK_XML)
    model = tmp_path / "model.xml"
    model.write_text(MODEL_XML)
    return system, attack, model


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


SIM_SECONDS_FLAGS = (
    (["suppression"], "--iperf-duration", "iperf_duration"),
    (["fabric", "run", "fat-tree-k4"], "--horizon", "horizon"),
    (["workload", "run", "packetin-flood"], "--duration", "duration"),
    (["detect", "run", "packetin-flood"], "--duration", "duration"),
)


@pytest.mark.parametrize("command,flag,dest", SIM_SECONDS_FLAGS)
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_simulated_durations_must_be_finite_and_positive(command, flag, dest,
                                                         value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(command + [flag, value])
    assert exit_info.value.code == 2
    assert "finite positive" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,dest", SIM_SECONDS_FLAGS)
def test_simulated_durations_parse_as_seconds(command, flag, dest):
    args = build_parser().parse_args(command + [flag, "0.25"])
    assert getattr(args, dest) == 0.25


COUNT_FLAGS = (
    (["fabric", "run", "fat-tree-k4"], "--pairs", "pairs"),
    (["fabric", "run", "fat-tree-k4"], "--packets", "packets"),
)


@pytest.mark.parametrize("command,flag,dest", COUNT_FLAGS)
def test_counts_must_be_non_negative(command, flag, dest, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(command + [flag, "-1"])
    assert exit_info.value.code == 2
    assert "non-negative count" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,dest", COUNT_FLAGS)
@pytest.mark.parametrize("value", [0, 7])
def test_counts_parse_as_ints(command, flag, dest, value):
    args = build_parser().parse_args(command + [flag, str(value)])
    assert getattr(args, dest) == value


SIZE_FLAGS = (
    (["fabric", "gen", "fat-tree-k4"], "--regions", "regions"),
    (["fabric", "run", "fat-tree-k4"], "--regions", "regions"),
    (["fabric", "run", "fat-tree-k4"], "--shards", "shards"),
    (["workload", "run", "table-overflow"], "--shards", "shards"),
    (["workload", "run", "table-overflow"], "--table-capacity",
     "table_capacity"),
    (["detect", "run", "packetin-flood"], "--shards", "shards"),
    (["detect", "run", "packetin-flood"], "--table-capacity",
     "table_capacity"),
    (["campaign", "serve"], "--shards", "shards"),
    (["suppression"], "--ping-trials", "ping_trials"),
    (["suppression"], "--iperf-trials", "iperf_trials"),
)


@pytest.mark.parametrize("command,flag,dest", SIZE_FLAGS)
@pytest.mark.parametrize("value", ["0", "-1"])
def test_sizes_must_be_positive(command, flag, dest, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(command + [flag, value])
    assert exit_info.value.code == 2
    assert "positive count" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,dest", SIZE_FLAGS)
@pytest.mark.parametrize("value", [1, 7])
def test_sizes_parse_as_ints(command, flag, dest, value):
    args = build_parser().parse_args(command + [flag, str(value)])
    assert getattr(args, dest) == value


def test_compliance_command(capsys):
    assert main(["compliance"]) == 0
    out = capsys.readouterr().out
    assert "switch compliance:" in out
    assert "[FAIL]" not in out


def test_graph_command(xml_files, capsys):
    system, attack, _model = xml_files
    assert main(["graph", "--system", str(system), "--attack", str(attack)]) == 0
    out = capsys.readouterr().out
    assert "digraph attack" in out
    assert "sigma1" in out


def test_compile_command_to_stdout(xml_files, capsys):
    system, attack, model = xml_files
    code = main([
        "compile", "--system", str(system), "--attack", str(attack),
        "--attack-model", str(model),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "ATTACK = build_attack()" in out


def test_compile_command_to_file(xml_files, tmp_path, capsys):
    system, attack, _model = xml_files
    output = tmp_path / "generated.py"
    assert main(["compile", "--system", str(system), "--attack", str(attack),
                 "--output", str(output)]) == 0
    # The generated module is loadable and semantics-preserving.
    from repro.core.compiler import compile_attack_source

    rebuilt = compile_attack_source(output.read_text())
    assert rebuilt.name == "cli-drop"


def test_suppression_command_single_controller(capsys):
    code = main(["suppression", "--controller", "floodlight",
                 "--ping-trials", "4", "--iperf-trials", "1",
                 "--iperf-duration", "1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "floodlight" in out
    assert "baseline" in out and "attack" in out


def test_interruption_command_single_controller(capsys):
    assert main(["interruption", "--controller", "ryu"]) == 0
    out = capsys.readouterr().out
    assert "ryu/standalone" in out
    assert "phi2 never fired" in out


def test_bad_controller_rejected():
    with pytest.raises(SystemExit):
        main(["suppression", "--controller", "opendaylight"])


def test_suppression_json_mode_emits_record_schema(capsys):
    import json

    args = ["suppression", "--controller", "pox", "--ping-trials", "3",
            "--iperf-trials", "1", "--iperf-duration", "0.5",
            "--seed", "7", "--json"]
    assert main(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 2  # baseline + attack
    for record in records:
        assert record["schema"] == "attain.campaign.run.v1"
        assert record["status"] == "ok"
        assert record["seed"] == 7
        assert record["metrics"]["controller"] == "pox"
    assert {r["attack"] for r in records} == {
        "passthrough", "flow-mod-suppression"}
    # The run ID is the deterministic campaign-style content hash.
    assert main(args) == 0
    again = [json.loads(line)
             for line in capsys.readouterr().out.strip().splitlines()]
    assert [r["run_id"] for r in again] == [r["run_id"] for r in records]


def test_interruption_json_mode(capsys):
    import json

    assert main(["interruption", "--controller", "ryu", "--json"]) == 0
    records = [json.loads(line)
               for line in capsys.readouterr().out.strip().splitlines()]
    assert {r["fail_mode"] for r in records} == {"standalone", "secure"}
    for record in records:
        assert record["experiment"] == "interruption"
        # The Ryu anomaly survives the schema change: phi2 never fires.
        assert record["metrics"]["interruption_happened"] is False


def test_compliance_json_mode(capsys):
    import json

    assert main(["compliance", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["experiment"] == "compliance"
    assert record["metrics"]["all_passed"] is True
    assert record["metrics"]["checks_passed"] == record["metrics"]["checks_total"]


@pytest.fixture
def campaign_spec_file(tmp_path):
    import json

    spec = {
        "name": "cli-selfcheck",
        "experiment": "selfcheck",
        "attacks": [None],
        "controllers": ["x"],
        "seeds": [0, 1, 2, 3],
        "timeout_s": 30.0,
        "retries": 0,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_campaign_run_status_report_workflow(campaign_spec_file, capsys):
    import json

    store = str(campaign_spec_file.with_suffix(".results.jsonl"))
    assert main(["campaign", "run", str(campaign_spec_file),
                 "--workers", "2", "--quiet", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["total"] == 4 and summary["succeeded"] == 4
    assert summary["store"] == store

    assert main(["campaign", "status", str(campaign_spec_file), "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["completed"] == 4 and status["pending"] == 0

    assert main(["campaign", "report", str(campaign_spec_file), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok_runs"] == 4 and report["missing_runs"] == 0

    # A second run is a no-op resume: everything is already complete.
    assert main(["campaign", "run", str(campaign_spec_file),
                 "--workers", "2", "--quiet", "--json"]) == 0
    resumed = json.loads(capsys.readouterr().out)
    assert resumed["skipped"] == 4 and resumed["executed"] == 0


def test_campaign_status_before_any_run(campaign_spec_file, capsys):
    assert main(["campaign", "status", str(campaign_spec_file)]) == 0
    out = capsys.readouterr().out
    assert "0/4 runs complete" in out
    assert out.count("pending") == 4


def test_campaign_report_exit_code_reflects_missing_runs(
        campaign_spec_file, capsys):
    assert main(["campaign", "report", str(campaign_spec_file)]) == 1
    assert "4 missing" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# Tracing
# ---------------------------------------------------------------------- #


def test_interruption_trace_export_and_render(tmp_path, capsys):
    import json

    base = tmp_path / "run.jsonl"
    assert main(["interruption", "--controller", "pox", "--json",
                 "--trace", str(base)]) == 0
    captured = capsys.readouterr()
    records = [json.loads(line)
               for line in captured.out.strip().splitlines()]
    # Per-cell trace files, advertised in the records and on stderr.
    for record in records:
        trace = record["trace"]
        assert trace["events"] > 0
        assert f"run-pox-{record['fail_mode']}.jsonl" in trace["path"]
    assert "trace:" in captured.err

    trace_file = tmp_path / "run-pox-standalone.jsonl"
    assert trace_file.exists()
    assert main(["trace", str(trace_file)]) == 0
    out = capsys.readouterr().out
    # The merged timeline and the per-rule summary in one report.
    assert "rule_fired" in out
    assert "rule firings:" in out
    assert "sigma2/phi2" in out
    assert "FLOW_MOD" in out
    assert "sigma2 -> sigma3" in out


def test_trace_command_summary_only_and_filters(tmp_path, capsys):
    assert main(["interruption", "--controller", "pox",
                 "--trace", str(tmp_path / "t.jsonl")]) == 0
    capsys.readouterr()
    trace_file = tmp_path / "t-pox-secure.jsonl"

    assert main(["trace", str(trace_file), "--summary-only"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("trace:")
    assert not [l for l in out.splitlines() if l.startswith("t=")]

    assert main(["trace", str(trace_file), "--kinds", "state",
                 "--limit", "1"]) == 0
    out = capsys.readouterr().out
    timeline = [l for l in out.splitlines() if l.startswith("t=")]
    assert len(timeline) == 1 and "state" in timeline[0]


def test_trace_command_json_summary(tmp_path, capsys):
    import json

    assert main(["interruption", "--controller", "pox",
                 "--trace", str(tmp_path / "t.jsonl")]) == 0
    capsys.readouterr()
    assert main(["trace", str(tmp_path / "t-pox-secure.jsonl"),
                 "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["events"] > 0
    assert summary["by_kind"]["rule_fired"] >= 1
    assert summary["transitions"]


def test_trace_command_empty_file_fails(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["trace", str(empty)]) == 1
    assert "no events" in capsys.readouterr().err


def test_single_shot_json_records_explicit_durations(capsys):
    import json

    assert main(["suppression", "--controller", "pox", "--ping-trials", "3",
                 "--iperf-trials", "1", "--iperf-duration", "0.5",
                 "--json"]) == 0
    records = [json.loads(line)
               for line in capsys.readouterr().out.strip().splitlines()]
    for record in records:
        assert record["wall_duration_s"] >= 0.0
        assert record["wall_duration_s"] == record["duration_s"]
        # The simulated horizon comes from the run itself, not wall time.
        assert record["sim_duration_s"] == record["metrics"]["sim_duration_s"]
        assert record["sim_duration_s"] > record["wall_duration_s"]


def test_campaign_run_trace_flag(tmp_path, capsys):
    import json

    spec = {
        "name": "cli-traced",
        "experiment": "interruption",
        "attacks": ["connection-interruption"],
        "controllers": ["pox"],
        "fail_modes": ["standalone"],
        "seeds": [0],
        "timeout_s": 120.0,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["campaign", "run", str(spec_path),
                 "--workers", "1", "--quiet", "--json", "--trace"]) == 0
    capsys.readouterr()
    store_path = spec_path.with_suffix(".results.jsonl")
    traces = sorted(store_path.parent.glob("*.d/traces/*.jsonl"))
    assert len(traces) == 1
    # The stored artifact renders through the same CLI front door.
    assert main(["trace", str(traces[0]), "--summary-only"]) == 0
    assert "sigma2/phi2" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# repro lint
# --------------------------------------------------------------------- #

BAD_ATTACK_XML = """
<attack name="cli-broken" start="sigma1">
  <state name="sigma1">
    <rule name="phi1">
      <connections><all-connections/></connections>
      <gamma class="no-tls"/>
      <condition>true</condition>
      <actions><goto state="ghost"/></actions>
    </rule>
  </state>
</attack>
"""


def test_lint_registry_all_is_clean(capsys):
    assert main(["lint", "--all", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_lint_single_registry_name(capsys):
    assert main(["lint", "--name", "passthrough"]) == 0
    assert "lint: passthrough" in capsys.readouterr().out


def test_lint_clean_xml_path(xml_files, capsys):
    system, attack, _model = xml_files
    assert main(["lint", str(attack), "--system", str(system)]) == 0
    assert "linted 1 attack(s)" in capsys.readouterr().out


def test_lint_defective_xml_fails_with_code(xml_files, tmp_path, capsys):
    system, _attack, _model = xml_files
    bad = tmp_path / "bad.xml"
    bad.write_text(BAD_ATTACK_XML)
    assert main(["lint", str(bad), "--system", str(system)]) == 1
    out = capsys.readouterr().out
    assert "ATN004" in out and "ghost" in out


def test_lint_unparseable_xml_is_atn000(xml_files, tmp_path, capsys):
    system, _attack, _model = xml_files
    mangled = tmp_path / "mangled.xml"
    mangled.write_text("<attack><unclosed></attack>")
    assert main(["lint", str(mangled), "--system", str(system)]) == 1
    assert "ATN000" in capsys.readouterr().out


def test_lint_json_output(xml_files, tmp_path, capsys):
    import json

    system, _attack, _model = xml_files
    bad = tmp_path / "bad.xml"
    bad.write_text(BAD_ATTACK_XML)
    assert main(["lint", str(bad), "--system", str(system), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["attacks"] == 1 and payload["errors"] >= 1
    codes = {d["code"] for r in payload["reports"]
             for d in r["diagnostics"]}
    assert "ATN004" in codes


def test_lint_quiet_hides_info_diagnostics(xml_files, capsys):
    system, attack, _model = xml_files
    # The demo attack declares Γ_NoTLS but only drops: ATN012 info.
    assert main(["lint", str(attack), "--system", str(system)]) == 0
    assert "ATN012" in capsys.readouterr().out
    assert main(["lint", str(attack), "--system", str(system),
                 "--quiet"]) == 0
    assert "ATN012" not in capsys.readouterr().out


def test_lint_with_nothing_to_lint_errors(capsys):
    assert main(["lint"]) == 2
    assert "nothing to lint" in capsys.readouterr().err


def test_lint_missing_system_file(tmp_path, capsys):
    assert main(["lint", "--all", "--system",
                 str(tmp_path / "nope.xml")]) == 2
    assert "lint:" in capsys.readouterr().err


def test_lint_respects_attack_model(xml_files, tmp_path, capsys):
    system, attack, _model = xml_files
    tls = tmp_path / "tls.xml"
    tls.write_text('<attackmodel>'
                   '<connection controller="c1" switch="s1" class="tls"/>'
                   '</attackmodel>')
    # Under Γ_TLS the drop rule's Γ_NoTLS declaration exceeds the grant.
    assert main(["lint", str(attack), "--system", str(system),
                 "--attack-model", str(tls)]) == 1
    assert "ATN011" in capsys.readouterr().out


def test_campaign_run_reports_lint_rejections(tmp_path, capsys):
    import json

    spec = {
        "name": "cli-preflight",
        "experiment": "selfcheck",
        "attacks": ["blackhole"],
        "controllers": ["x"],
        "seeds": [0],
        "attack_params": {"blackhole": {"bogus_param": 1}},
        "timeout_s": 30.0,
        "retries": 0,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["campaign", "run", str(path),
                 "--workers", "1", "--quiet", "--json"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["lint_rejected"] == 1 and summary["failed"] == 1

    # --no-preflight hands the cell to a worker instead.
    store2 = tmp_path / "bypass.jsonl"
    assert main(["campaign", "run", str(path), "--store", str(store2),
                 "--workers", "1", "--quiet", "--json",
                 "--no-preflight"]) in (0, 1)
    summary = json.loads(capsys.readouterr().out)
    assert summary["lint_rejected"] == 0


def test_fabric_gen_command(capsys):
    import json

    assert main(["fabric", "gen", "fat-tree-k4", "--regions", "5",
                 "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["switches"] == 20
    assert info["hosts"] == 16
    assert len(info["regions"]) == 5


def test_fabric_gen_rejects_unknown_descriptor():
    from repro.dataplane import TopologyError
    import pytest

    with pytest.raises(TopologyError):
        main(["fabric", "gen", "fat-tree-k5"])


def test_fabric_run_command_json(capsys, tmp_path):
    import json

    trace_path = tmp_path / "fabric.jsonl"
    assert main(["fabric", "run", "fat-tree-k4", "--pairs", "2",
                 "--packets", "5", "--shards", "2",
                 "--trace", str(trace_path), "--json"]) == 0
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert record["experiment"] == "fabric"
    assert record["topology"] == "fat-tree-k4"
    assert record["metrics"]["packets_delivered"] == 10
    assert record["metrics"]["shards"] == 2
    # Proactive routes and no controller: nothing control-plane to trace.
    assert record["trace"] == {"path": str(trace_path), "events": 0}
    assert trace_path.read_text() == ""


@pytest.mark.parametrize("shards", ["1", "2"])
def test_fabric_run_json_stamps_its_trace(capsys, tmp_path, shards):
    """The record names the trace file and its event count, as the
    suppression and interruption records do."""
    import json

    trace_path = tmp_path / "fabric.jsonl"
    assert main(["fabric", "run", "fat-tree-k4", "--controller", "floodlight",
                 "--attack", "flow-mod-suppression", "--shards", shards,
                 "--trace", str(trace_path), "--json"]) == 0
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    lines = trace_path.read_text().splitlines()
    assert record["trace"] == {"path": str(trace_path), "events": len(lines)}
    assert len(lines) > 0
    assert f"trace: {len(lines)} event(s) -> {trace_path}" in captured.err


def test_workload_run_json_stamps_its_trace(capsys, tmp_path):
    import json

    trace_path = tmp_path / "workload.jsonl"
    assert main(["workload", "run", "packetin-flood",
                 "--controller", "floodlight", "--schedule", "constant:400",
                 "--senders", "2", "--duration", "0.2",
                 "--trace", str(trace_path), "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    lines = trace_path.read_text().splitlines()
    assert record["trace"] == {"path": str(trace_path), "events": len(lines)}
    assert len(lines) > 0


def test_fabric_run_with_controller_and_attack(capsys):
    assert main(["fabric", "run", "fat-tree-k4",
                 "--controller", "floodlight",
                 "--attack", "flow-mod-suppression",
                 "--pairs", "2", "--packets", "2"]) == 0
    out = capsys.readouterr().out
    assert "flow-mods seen" in out
    assert "dropped" in out


def test_workload_list_command(capsys):
    assert main(["workload", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("benign-mix", "packetin-flood", "table-overflow",
                 "arp-poison"):
        assert name in out
    assert "[needs controller]" in out


def test_workload_list_json(capsys):
    import json

    assert main(["workload", "list", "--json"]) == 0
    sources = json.loads(capsys.readouterr().out)
    assert {s["name"] for s in sources} >= {"benign-mix", "table-overflow"}


def test_workload_run_overflow_command(capsys):
    assert main(["workload", "run", "table-overflow",
                 "--controller", "floodlight",
                 "--schedule", "constant:800", "--keys", "128",
                 "--senders", "2", "--duration", "0.3",
                 "--table-capacity", "32", "--table-eviction", "lru"]) == 0
    out = capsys.readouterr().out
    assert "table-overflow on fat-tree-k4" in out
    assert "occupancy peak 32" in out
    assert "capacity x" in out
    assert "PACKET_INs" in out


def test_workload_run_json_record(capsys):
    import json

    assert main(["workload", "run", "benign-mix",
                 "--schedule", "constant:200", "--senders", "2",
                 "--duration", "0.3", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["experiment"] == "workload"
    assert record["topology"] == "fat-tree-k4"
    assert record["metrics"]["workload"] == "benign-mix"
    assert record["metrics"]["packets_synthesized"] == 2 * 60


def test_workload_run_rejects_controllerless_floods(capsys):
    with pytest.raises(ValueError, match="needs a controller"):
        main(["workload", "run", "packetin-flood", "--senders", "2"])


def test_workload_list_tags_adversarial_sources(capsys):
    assert main(["workload", "list"]) == 0
    out = capsys.readouterr().out
    flood_line = next(l for l in out.splitlines() if "packetin-flood" in l)
    benign_line = next(l for l in out.splitlines() if "benign-mix" in l)
    assert "[adversarial]" in flood_line
    assert "[adversarial]" not in benign_line


def test_detect_list_command(capsys):
    assert main(["detect", "list"]) == 0
    out = capsys.readouterr().out
    assert "pktin-rate" in out
    assert "newkey-ratio" in out
    assert "iforest" in out and "[optional: sklearn" in out


def test_detect_list_json(capsys):
    import json

    assert main(["detect", "list", "--json"]) == 0
    detectors = json.loads(capsys.readouterr().out)
    names = {d["name"] for d in detectors}
    assert names >= {"pktin-rate", "newkey-ratio", "iforest"}
    iforest = next(d for d in detectors if d["name"] == "iforest")
    assert iforest["requires"] == "sklearn"
    assert isinstance(iforest["available"], bool)


def test_detect_run_command(capsys):
    assert main(["detect", "run", "packetin-flood",
                 "--detectors", "pktin-rate",
                 "--schedule", "constant:500", "--senders", "2",
                 "--duration", "0.3", "--threshold-pps", "1200"]) == 0
    out = capsys.readouterr().out
    assert "sketch digest:" in out
    assert "pktin-rate" in out
    assert "prec" in out and "recall" in out


def test_detect_run_json_record(capsys):
    import json

    assert main(["detect", "run", "packetin-flood",
                 "--detectors", "pktin-rate",
                 "--schedule", "constant:500", "--senders", "2",
                 "--duration", "0.3", "--threshold-pps", "1200",
                 "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["experiment"] == "detect"
    assert record["topology"] == "fat-tree-k4"
    metrics = record["metrics"]
    assert metrics["sketch_digest"]
    assert metrics["detect_precision"] == 1.0
    assert metrics["detect_recall"] == 1.0
    assert metrics["detect_latency_s"] is not None
    assert metrics["detections"][0]["detector"] == "pktin-rate"


def test_detect_run_rejects_unknown_detector():
    with pytest.raises(KeyError, match="unknown detector"):
        main(["detect", "run", "packetin-flood",
              "--detectors", "space-laser", "--senders", "2"])
