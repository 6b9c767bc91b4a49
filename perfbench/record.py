"""Record the committed per-trial digests the benchmark checks against.

    python3 perfbench/record.py --seeds 0 1 2 [--workload NAME ...]

Runs each workload's trials once per seed, checks the outputs against
the workload's invariants and a second run (determinism), and writes
the canonical-JSON sha256 of every trial's metrics into
``perfbench/digests.json``.  Re-record only when a change is meant to
alter simulated results; a speed-up must leave every digest unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import metrics_digest, trial_key  # noqa: E402
from workloads import WORKLOADS, build_trials, check_outputs  # noqa: E402


def record(workload: str, seed: int) -> dict[str, str]:
    from repro.exp.runner import run_trial

    trials = build_trials(workload, seed)
    runs = [[run_trial(t) for t in trials] for _ in range(2)]
    for results in runs:
        errors = [trial_key(r.trial) for r in results if r.status != "ok"]
        if errors:
            raise SystemExit(f"{workload} seed {seed}: trials {errors} "
                             "raised")
        failures = check_outputs(workload,
                                 [(r.trial, r.metrics) for r in results])
        if failures:
            raise SystemExit(f"{workload} seed {seed}: {failures}")
    first, second = ([metrics_digest(r.metrics) for r in results]
                     for results in runs)
    if first != second:
        raise SystemExit(f"{workload} seed {seed}: two runs differ")
    return {trial_key(t): d for t, d in zip(trials, first)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    args = parser.parse_args()
    path = HERE / "digests.json"
    for workload in args.workload:
        for seed in args.seeds:
            digests = record(workload, seed)
            data = json.loads(path.read_text())
            data["workloads"].setdefault(workload, {})[str(seed)] = digests
            path.write_text(json.dumps(data, indent=1, sort_keys=True)
                            + "\n")
            print(f"recorded {workload} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
