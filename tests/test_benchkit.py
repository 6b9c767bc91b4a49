"""Tests for the shared bench harness (tools/benchkit.py) and the gates
the bench tools declare on it."""

import gc
import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

import bench_scale  # noqa: E402
import bench_sim  # noqa: E402
import benchkit  # noqa: E402


def test_alternate_returns_reference_outputs_and_pass_times():
    outputs, times = benchkit.alternate({"a": lambda: 1, "b": lambda: "x"},
                                        repeats=3)
    assert outputs == {"a": 1, "b": "x"}
    assert {name: len(runs) for name, runs in times.items()} == \
        {"a": 3, "b": 3}
    assert gc.isenabled()


def test_alternate_fails_a_variant_whose_output_changes():
    calls = iter(range(10))
    with pytest.raises(benchkit.VariantDrift, match="drifts"):
        benchkit.alternate({"steady": lambda: 0,
                            "drifts": lambda: next(calls)}, repeats=2)
    assert gc.isenabled()


def test_provenance_has_exactly_the_perfbench_keys():
    assert set(benchkit.provenance()) == {
        "platform", "machine", "nproc", "python", "numpy", "git_rev"}


def test_parse_args_offers_smoke_only_when_declared():
    args = benchkit.parse_args("doc", "x.json", repeats=2, smoke="help",
                               argv=["--smoke"])
    assert (args.smoke, args.repeats) == (True, 2)
    for argv in (["--smoke"], ["--repeats", "0"]):
        with pytest.raises(SystemExit):
            benchkit.parse_args("doc", "x.json", repeats=2, argv=argv)


def test_finish_writes_the_report_and_fails_on_any_gate(tmp_path, capsys):
    out = tmp_path / "bench.json"
    args = benchkit.parse_args("doc", "x.json", repeats=1,
                               argv=["--out", str(out)])
    assert benchkit.finish(args, {"result": 1}, []) == 0
    assert list(json.loads(out.read_text())) == [
        "mode", "provenance", "protocol", "result"]
    assert benchkit.finish(args, {}, ["too slow"]) == 1
    assert "GATE FAILED: too slow" in capsys.readouterr().out


@pytest.mark.parametrize("caller_scheduler", [None, "reference"])
def test_preset_gate_fails_on_crashed_trials(monkeypatch, tmp_path,
                                             caller_scheduler):
    """A preset whose trials crash the same way under both schedulers
    has identical canonical JSON; the gate must still fail it, and
    leave the caller's scheduler setting as it was."""
    from repro.exp.workloads import WORKLOADS

    def boom(trial):
        raise RuntimeError("kaput")

    monkeypatch.setitem(WORKLOADS, "_bench_boom", boom)
    document = tmp_path / "bench-boom.json"
    document.write_text(json.dumps({
        "scenario": {"name": "bench-boom", "version": 1,
                     "description": "every trial crashes"},
        "experiment": {"workload": "_bench_boom"}}))
    if caller_scheduler is None:
        monkeypatch.delenv(bench_sim.SCHEDULER_ENV, raising=False)
    else:
        monkeypatch.setenv(bench_sim.SCHEDULER_ENV, caller_scheduler)

    identity, failures = bench_sim.check_presets([str(document)])
    assert identity["bench-boom"]["identical"]
    assert failures == ["preset bench-boom: a trial failed"]
    assert os.environ.get(bench_sim.SCHEDULER_ENV) == caller_scheduler


def test_scale_gates_report_unanswered_pings(capsys):
    scale = {"population_ues": 100_000, "real_ues": 2,
             "aggregated_ues": 99_998, "attached": 2, "ci_sessions": 2,
             "pings_answered": 0, "median_rtt_ms": None, "wall_s": 1.0}
    assert bench_scale.scale_failures(scale, pings=3) == [
        "pings answered 0 < 99% of 6"]
    assert "median RTT n/a" in capsys.readouterr().out
