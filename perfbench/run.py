"""The repository benchmark: one command, four layer-targeted workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Runs the workload's preset cells (see ``workloads.py``) through the
public ``repro.scenario.loader.load(...).compile()`` and
``repro.exp.runner.run_trial`` calls as a closed loop: one caller in
one process runs the trials back to back, no worker pools.

Times are process CPU seconds scaled to the reference host by
calibration kernels interleaved with the trials (see ``calibrate.py``),
so a slower or busier shared host does not read as slower code.  BLAS
runs single-threaded, so the process CPU time is the caller's.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s`` -- median over fresh processes of ``import repro`` plus
  loading, validating and compiling the workload's documents;
* passes over the trials repeat, back to back, until ``--seconds``
  have gone and at least two ran.  Only count-only census wrappers are
  installed; they give the work count (packets, attaches, simulated
  seconds or frames) of every pass.  Before each trial a few
  calibration chunks run, about a tenth of the trial's time;
* ``pass_s`` is the median over passes of a pass's trial CPU time
  divided by the host slowness its chunks measured, ``work_per_s`` the
  work count of one pass over ``pass_s`` and ``peak_rss_mb`` the
  process peak.

``--trace 1`` runs census passes for half of ``--seconds``, then traced
passes (see ``tracer.py``) for the other half and reports the
per-layer metrics: self times that, with ``trace.unattributed_s``, add
up to the traced wall time, per-layer counts, and ``trace.overhead``
against the census passes' median wall time.  Spans go to
``.perfbench/`` in the checkout.

Every trial's metrics are checked: against the committed canonical-JSON
sha256 (``digests.json``) where the seed has one, against the first
pass of the run (determinism) and against the workload's invariants.
A trial that errors or fails a check counts as failed.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import os

# Single-threaded BLAS: set before anything imports numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
BLAS_THREADS_WAS = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
os.environ.update({name: "1" for name in BLAS_THREAD_VARS})

import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: What ``--trace 0`` reports, in order.
E2E_METRICS = ("pass_s", "setup_s", "peak_rss_mb", "work_per_s")

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
#: Passes a ``--trace 0`` run makes at least, however long they take.
MIN_PASSES = 2
#: Calibration CPU time run before a trial, as a share of its own.
CALIBRATION_SHARE = 0.1

from calibrate import Calibration  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, build_trials,  # noqa: E402
                       check_outputs, sim_metrics)


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def metrics_digest(metrics: dict) -> str:
    """sha256 of a trial's metrics in canonical JSON."""
    from repro.scenario.document import canonical_json
    return hashlib.sha256(canonical_json(metrics).encode()).hexdigest()


def trial_key(trial) -> str:
    return f"{trial.experiment}#{trial.index}@{trial.base_seed}"


def committed_digests(workload: str, seed: int) -> Optional[dict]:
    data = json.loads((HERE / "digests.json").read_text())
    return data["workloads"].get(workload, {}).get(str(seed))


def git_revision() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def provenance(seed: int, schedulers, env_scheduler: Optional[str]
               ) -> dict[str, Any]:
    import numpy
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_revision(),
        "seed": seed,
        "scheduler": sorted(schedulers),
        "REPRO_SIM_SCHEDULER_was": env_scheduler,
        "blas_threads": 1,
        "blas_thread_vars_were": {k: v for k, v in BLAS_THREADS_WAS.items()
                                  if v is not None},
    }


def measure_setup(workload: str, seed: int) -> list[dict]:
    probes = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


class Checker:
    """Checks every trial output and counts attempts and failures."""

    def __init__(self, workload: str, trials,
                 committed: Optional[dict]) -> None:
        self.workload = workload
        self.committed = committed
        self.reference: Optional[list[str]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        if committed is not None and set(committed) != {
                trial_key(t) for t in trials}:
            self.problems.append("committed digests name other trials")

    def check_pass(self, label: str, results) -> list[tuple[Any, dict]]:
        ok = [(r.trial, r.metrics) for r in results if r.status == "ok"]
        invariant = check_outputs(self.workload, ok) if len(ok) == len(
            results) else {}
        digests = [metrics_digest(r.metrics) if r.status == "ok" else None
                   for r in results]
        for i, result in enumerate(results):
            self.attempted += 1
            key = trial_key(result.trial)
            problem = None
            if result.status != "ok":
                problem = "error: " + (result.error or "").strip()[-300:]
            elif i in invariant:
                problem = invariant[i]
            elif (self.committed is not None
                  and self.committed.get(key) != digests[i]):
                problem = "digest differs from the committed one"
            elif (self.reference is not None
                  and self.reference[i] != digests[i]):
                problem = "digest differs from the run's first pass"
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{label} {key}: {problem}")
        if self.reference is None:
            self.reference = digests
        return ok


def run_pass(trials, tracer=None) -> tuple[list, float]:
    """Run every trial once, back to back; returns results and wall."""
    from repro.exp.runner import run_trial
    gc.collect()
    results = []
    wall = 0.0
    for trial in trials:
        if tracer is None:
            t0 = perf_counter()
            results.append(run_trial(trial))
            wall += perf_counter() - t0
        else:
            with tracer.trial(trial_key(trial)):
                results.append(run_trial(trial))
    return results, (wall if tracer is None else tracer.wall_s)


def timed_passes(trials, checker: Checker, census, unit: str,
                 calibration: Calibration, seconds: float,
                 min_passes: int) -> tuple[list[dict], list]:
    """Run passes under ``census`` until ``seconds`` have gone and at
    least ``min_passes`` ran.  Returns one record per pass and the
    first pass's ``(trial, metrics)`` pairs."""
    from repro.exp.runner import run_trial
    passes: list[dict] = []
    first_ok: list = []
    last_cpu: list[Optional[float]] = [None] * len(trials)
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        gc.collect()
        work_before = census.counts[unit]
        results, chunks = [], []
        cpu_s = wall_s = 0.0
        for i, trial in enumerate(trials):
            chunks += calibration.run(calibration.chunks_for(
                last_cpu[i], CALIBRATION_SHARE))
            with census.trial(trial_key(trial)):
                w0, c0 = perf_counter(), process_time()
                results.append(run_trial(trial))
                trial_cpu_s = process_time() - c0
                wall_s += perf_counter() - w0
            last_cpu[i] = trial_cpu_s
            cpu_s += trial_cpu_s
        ok = checker.check_pass(f"pass{len(passes) + 1}", results)
        first_ok = first_ok or ok
        slowness = calibration.slowness(chunks)
        passes.append({"pass_s": cpu_s / slowness, "cpu_s": cpu_s,
                       "wall_s": wall_s, "slowness": slowness,
                       "chunks": len(chunks),
                       "work": census.counts[unit] - work_before})
    works = [p["work"] for p in passes]
    if not all(math.isclose(w, works[0], rel_tol=1e-9) for w in works):
        checker.problems.append(f"work count differs between passes: "
                                f"{works}")
    return passes, first_ok


def unit_of(name: str) -> str:
    if name.endswith("ns_per_event"):
        return "ns"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name == "sim.seconds":
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes") or name.endswith("_bytes"):
        return "B"
    if name.endswith(("_rate", "_share", ".overhead", "_per_delivery")):
        return "ratio"
    return "count"


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() \
            or not (ROOT / "scenarios").is_dir():
        print(f"perfbench: no repro sources under {ROOT}", file=sys.stderr)
        return 2
    env_scheduler = os.environ.pop("REPRO_SIM_SCHEDULER", None)
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer, find_leftover_wrappers

    workload = WORKLOADS[args.workload]
    setup = [] if args.trace else measure_setup(workload.name, args.seed)
    trials = build_trials(workload.name, args.seed)
    checker = Checker(workload.name, trials,
                      committed_digests(workload.name, args.seed))
    report: dict[str, Any] = {"workload": workload.name,
                              "trials": [trial_key(t) for t in trials]}
    calibration = Calibration(workload.calibration)
    census = Tracer("census")
    with census.installed():
        passes, ok = timed_passes(
            trials, checker, census, workload.unit, calibration,
            args.seconds / (1 + args.trace), 1 if args.trace else MIN_PASSES)
    schedulers = set(census.schedulers)
    report.update(passes=len(passes), pass_records=passes,
                  calibration_kernels=list(calibration.kernels))

    if args.trace == 0:
        pass_s = statistics.median(p["pass_s"] for p in passes)
        work = passes[0]["work"]
        values = {
            "pass_s": pass_s,
            "setup_s": statistics.median(p["setup_s"] for p in setup),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_s": work / pass_s,
        }
        metrics = {name: values[name] for name in E2E_METRICS}
        report.update(setup_probes=setup, work_unit=workload.unit,
                      work=work, named={workload.rate_name: work / pass_s})
    else:
        tracer = Tracer("trace")
        origin = perf_counter()
        traced = 0
        with tracer.installed():
            while not traced or tracer.wall_s < args.seconds / 2:
                results, _ = run_pass(trials, tracer)
                traced += 1
                checker.check_pass(f"traced{traced}", results)
        schedulers |= tracer.schedulers
        metrics = tracer.layer_metrics(
            traced, statistics.median(p["wall_s"] for p in passes))
        if metrics["trace.unattributed_s"] < -1e-6:
            checker.problems.append("layer self times exceed the traced "
                                    "wall time")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed,
             "spans": tracer.spans_out(origin)}))
        report.update(traced_passes=traced,
                      spans=str(spans_path.relative_to(ROOT)),
                      span_count=len(tracer.spans))

    leftovers = find_leftover_wrappers()
    if leftovers:
        checker.problems.append(f"wrappers left installed: {leftovers}")
    if len(ok) == len(trials):
        report["sim"] = sim_metrics(workload.name, ok)
    report["provenance"] = provenance(args.seed, schedulers, env_scheduler)
    report["problems"] = checker.problems
    correct = not checker.problems and checker.failed == 0

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"passes={report['passes']} trials={len(trials)}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit_of(name)}")
    for name, value in report.get("named", {}).items():
        print(f"  {name:<36} {value:>16.6g} 1/s")
    for name, value in report.get("sim", {}).items():
        print(f"  {name:<36} {value:>16.6g} ms (simulated)")
    for problem in checker.problems:
        print(f"  FAILED {problem}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
