"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, find_leftover_wrappers  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_trials():
    from repro.scenario import loader
    return loader.load("quick_test").compile().trials()


def _run(trials, tracer=None):
    results, _ = run.run_pass(trials, tracer)
    assert all(r.status == "ok" for r in results), [r.error for r in results]
    return [run.metrics_digest(r.metrics) for r in results]


def test_metric_names_are_well_formed(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(Tracer().layer_metrics(1, 1.0))
    names += list(run.E2E_METRICS)
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_spec_matches_what_the_command_reports(spec):
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(
        run.E2E_METRICS)
    layer = Tracer().layer_metrics(1, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric


def test_predictions_cover_every_layer_metric(spec):
    data = json.loads((BENCH / "predictions.json").read_text())
    layer_names = [m["name"] for m in spec["per_layer"]]
    predicted = [name for layer in data["layers"]
                 for name in layer["metrics"]]
    assert sorted(predicted) == sorted(layer_names)
    named = data["named_rates"]
    for layer in data["layers"]:
        for metric, workload in layer["moves"]:
            assert workload in workloads.WORKLOADS
            assert metric in named or metric in run.E2E_METRICS
        assert set(layer["flat"]) <= set(workloads.WORKLOADS)
    for rate, entry in named.items():
        w = workloads.WORKLOADS[entry["workload"]]
        assert (w.rate_name, w.unit) == (rate, entry["unit"])


def test_traced_and_untraced_digests_are_identical(quick_trials):
    untraced = _run(quick_trials)
    tracer = Tracer("trace")
    with tracer.installed():
        traced = _run(quick_trials, tracer)
    assert traced == untraced
    metrics = tracer.layer_metrics(1, 1.0)
    assert metrics["sim.engine.events"] > 0
    assert metrics["sim.link.transmits"] > 0
    # self times never exceed the wall time they were measured in
    assert metrics["trace.unattributed_s"] >= 0.0
    assert tracer.spans and all(s["end"] is not None
                                for s in tracer.spans
                                if s["name"].startswith("trial:"))


def test_census_and_trace_leave_no_wrapper_behind(quick_trials):
    from repro.epc import gtp, procedures
    from repro.sim.engine import Simulator
    from repro.sim.link import Link

    originals = (Simulator.__dict__["run"], Link.__dict__["transmit"],
                 gtp.gtp_encapsulate, procedures.EPCControlPlane._guarded)
    for mode in ("census", "trace"):
        tracer = Tracer(mode)
        with tracer.installed():
            assert find_leftover_wrappers()
            _run(quick_trials, tracer)
        assert find_leftover_wrappers() == []
    assert originals == (Simulator.__dict__["run"],
                         Link.__dict__["transmit"], gtp.gtp_encapsulate,
                         procedures.EPCControlPlane._guarded)


def test_wrappers_are_removed_when_a_trial_raises(quick_trials):
    tracer = Tracer("trace")
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("trial failed")
    assert find_leftover_wrappers() == []


def test_tampered_digest_is_a_failed_trial(quick_trials):
    results, _ = run.run_pass(quick_trials)
    committed = {run.trial_key(r.trial): run.metrics_digest(r.metrics)
                 for r in results}
    clean = run.Checker("quick_test", quick_trials, dict(committed))
    clean.check_pass("pass1", results)
    assert (clean.attempted, clean.failed) == (len(quick_trials), 0)

    committed[run.trial_key(quick_trials[0])] = "0" * 64
    checker = run.Checker("quick_test", quick_trials, committed)
    checker.check_pass("pass1", results)
    assert checker.attempted == len(quick_trials)
    assert checker.failed == 1
    assert "committed" in checker.problems[0]


def test_invariant_failure_is_a_failed_trial():
    from repro.exp.spec import TrialSpec
    trial = TrialSpec(experiment="continuity", index=0,
                      workload="continuity", base_seed=43, seed=1,
                      params=(("policy", "make-before-break"),
                              ("n_ues", 8)))
    slow_mbb = {"policy": "make-before-break", "n_ues": 8,
                "sessions_on_last_site": 8,
                "interruption_ms": {"mean": 30.0}}
    bbm = dict(slow_mbb, policy="break-before-make",
               interruption_ms={"mean": 26.0})
    failures = workloads.check_outputs(
        "continuity", [(trial, slow_mbb), (trial, bbm)])
    assert set(failures) == {0, 1}


def test_seed_shifts_every_preset_seed():
    default = workloads.build_trials("attach_storm", 0)
    shifted = workloads.build_trials("attach_storm", 5)
    assert [t.base_seed + 5 for t in default] == [t.base_seed
                                                  for t in shifted]
    assert {t.base_seed for t in default} == {61, 41}
    assert [t.param_dict for t in default] == [t.param_dict
                                               for t in shifted]


def test_default_seed_digests_are_committed():
    data = json.loads((BENCH / "digests.json").read_text())
    for name in workloads.WORKLOADS:
        committed = data["workloads"][name][str(workloads.DEFAULT_SEED)]
        keys = [run.trial_key(t) for t in workloads.build_trials(
            name, workloads.DEFAULT_SEED)]
        assert sorted(committed) == sorted(keys)


def test_timed_passes_scale_cpu_time_by_the_calibration(quick_trials):
    from calibrate import Calibration

    calibration = Calibration(("py",), warmup=1)
    checker = run.Checker("quick_test", quick_trials, None)
    census = Tracer("census")
    with census.installed():
        passes, ok = run.timed_passes(quick_trials, checker, census,
                                      "sim.seconds", calibration, 0.0, 2)
    assert find_leftover_wrappers() == []
    assert len(passes) == 2 and len(ok) == len(quick_trials)
    assert (checker.attempted, checker.failed) == (2 * len(quick_trials), 0)
    assert checker.problems == []
    for record in passes:
        assert record["work"] == passes[0]["work"] > 0
        assert record["pass_s"] == pytest.approx(
            record["cpu_s"] / record["slowness"])
    # five chunks before each trial of the first pass, then at least two
    assert [r["chunks"] for r in passes] == [5 * len(quick_trials),
                                             2 * len(quick_trials)]


def test_calibration_rejects_unknown_kernels():
    from calibrate import REFERENCE_S, Calibration

    with pytest.raises(ValueError):
        Calibration(("py", "gpu"), warmup=0)
    calibration = Calibration(("py", "np"), warmup=0)
    reference = REFERENCE_S["py"] + REFERENCE_S["np"]
    assert calibration.slowness([2 * reference]) == pytest.approx(2.0)
    assert calibration.chunks_for(None, 0.1) == 5
    assert calibration.chunks_for(0.0, 0.1) == 2
    assert calibration.chunks_for(100 * reference, 0.1) == 10
