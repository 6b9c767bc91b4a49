"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import DEMOS, EXPERIMENTS, build_parser, main


@pytest.fixture
def stub_workloads(monkeypatch):
    """Two throwaway workloads, registered for one test only."""
    from repro.exp.workloads import WORKLOADS

    def probe(trial):
        return {"x": trial.param_dict["x"]}

    def boom(trial):
        raise RuntimeError("kaput")

    monkeypatch.setitem(WORKLOADS, "_cli_probe", probe)
    monkeypatch.setitem(WORKLOADS, "_cli_boom", boom)


def write_document(tmp_path, name, experiment):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "scenario": {"name": name, "version": 1, "description": name},
        "experiment": experiment}))
    return str(path)


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "ACACIA" in out
    assert "experiments" in out


def test_experiments_lists_all(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


def test_overhead_prints_calibrated_totals(capsys):
    assert main(["overhead"]) == 0
    out = capsys.readouterr().out
    assert "15 messages" in out
    assert "2914 bytes" in out
    assert "2.58 MB" in out


def test_unknown_experiment_fails_cleanly(capsys):
    assert main(["run-experiment", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_unknown_demo_fails_cleanly(capsys):
    assert main(["demo", "nope"]) == 2
    assert "unknown demo" in capsys.readouterr().err


def test_every_experiment_maps_to_an_existing_bench():
    from pathlib import Path
    bench_dir = Path(__file__).parent.parent / "benchmarks"
    for key, (filename, _) in EXPERIMENTS.items():
        assert (bench_dir / filename).exists(), f"{key} -> {filename}"


def test_every_demo_maps_to_an_existing_example():
    from pathlib import Path
    example_dir = Path(__file__).parent.parent / "examples"
    for name, script in DEMOS.items():
        assert (example_dir / script).exists(), f"{name} -> {script}"


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_exp_list_shows_every_preset(capsys):
    from repro.scenario import catalogue, load
    assert main(["scenario", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    presets = [name for name in catalogue()
               if "preset" in load(name).tags]
    assert "smoke" in presets
    for name in presets:
        (line,) = [line for line in lines if line.split()[:1] == [name]]
        assert "preset" in line


def test_exp_show_prints_spec_json_digests_and_seed_table(capsys):
    from repro.scenario import load
    assert main(["scenario", "show", "smoke"]) == 0
    out = capsys.readouterr().out
    document, _, rest = out.partition("\nscenario digest: ")
    document = json.loads(document)
    assert document["scenario"]["name"] == "smoke"
    assert document["experiment"]["workload"] == "ping"
    spec = load("smoke").compile()
    assert spec.digest() in rest
    assert load("smoke").digest() in rest
    # the per-trial seed table pairs sweep cells on the base seed
    for trial in spec.trials():
        assert str(trial.seed) in rest
        assert f"  {trial.index:>3}  " in rest
    assert "paired" in rest


def test_exp_unknown_preset_fails_cleanly(capsys):
    assert main(["scenario", "show", "fig99"]) == 2
    assert "fig99" in capsys.readouterr().err
    assert main(["scenario", "run", "fig99"]) == 2
    # the old second front door is gone, not silently kept
    with pytest.raises(SystemExit):
        main(["exp", "show", "smoke"])


def test_scenario_list_shows_whole_catalogue(capsys):
    from repro.scenario import catalogue
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in catalogue():
        assert name in out


def test_scenario_show_prints_document_and_digest(capsys):
    from repro.scenario import load
    assert main(["scenario", "show", "quick_test"]) == 0
    out = capsys.readouterr().out
    document, _, rest = out.partition("\nscenario digest: ")
    assert json.loads(document)["scenario"]["name"] == "quick_test"
    assert load("quick_test").digest() in rest
    assert "compiles to" in rest


def test_scenario_validate_whole_catalogue(capsys):
    from repro.scenario import catalogue
    assert main(["scenario", "validate"]) == 0
    out = capsys.readouterr().out
    total = len(catalogue())
    assert f"{total}/{total} valid" in out


def test_scenario_validate_reports_bad_document(tmp_path, capsys):
    bad = {"scenario": {"name": "bad", "version": 1,
                        "description": "d"},
           "topology": {"sites": 0},
           "experiment": {"workload": "scenario", "seeds": [1]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["scenario", "validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "topology.sites" in out


def test_scenario_unknown_name_fails_cleanly(capsys):
    assert main(["scenario", "show", "no_such"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["scenario", "run", "no_such"]) == 2


def test_scenario_run_writes_canonical_results(stub_workloads, tmp_path):
    path = write_document(tmp_path, "cli-probe", {
        "workload": "_cli_probe", "sweep": {"x": [1, 2]}})
    out_file = tmp_path / "results.json"
    assert main(["scenario", "run", path, "--output", str(out_file)]) == 0
    data = json.loads(out_file.read_text())
    assert [t["metrics"]["x"] for t in data["trials"]] == [1, 2]
    assert all(t["status"] == "ok" for t in data["trials"])


def test_scenario_run_reports_failures_with_nonzero_exit(stub_workloads,
                                                         tmp_path, capsys):
    path = write_document(tmp_path, "cli-boom", {"workload": "_cli_boom"})
    assert main(["scenario", "run", path]) == 1
    assert "kaput" in capsys.readouterr().err


def test_scenario_run_jsonl_embeds_digest(capsys):
    from repro.scenario import load
    assert main(["scenario", "run", "quick_test", "--jsonl"]) == 0
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.strip().splitlines()]
    digest = load("quick_test").digest()
    assert len(lines) == 1
    for record in lines:
        assert record["status"] == "ok"
        assert record["provenance"]["scenario"] == "quick_test"
        assert record["provenance"]["scenario_digest"] == digest


def test_scenario_run_json_wraps_result_with_provenance(tmp_path,
                                                        capsys):
    from repro.scenario import load
    out_file = tmp_path / "result.json"
    assert main(["scenario", "run", "quick_test",
                 "--output", str(out_file)]) == 0
    data = json.loads(out_file.read_text())
    scenario = load("quick_test")
    assert data["scenario"]["name"] == "quick_test"
    assert data["scenario"]["digest"] == scenario.digest()
    assert (data["scenario"]["spec_digest"]
            == scenario.compile().digest())
    for trial in data["trials"]:
        assert trial["provenance"]["scenario_digest"] \
            == scenario.digest()
