"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/spread.py --workload packet_bg --seeds 1 2 3 \
        [--seconds 10] [--trace 0|1] [--baseline]

Each run is a separate ``run.py`` process, one after another.  Prints
every metric's median, quartiles and spread (quartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives them).  With
``--baseline`` the summary is merged into ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int
             ) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    return json.loads(lines[-1]), report


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("give at least two seeds")

    baseline_path = HERE / "baseline.json"
    for workload in args.workload:
        results, reports = [], []
        for seed in args.seeds:
            result, report = run_once(workload, seed, args.seconds,
                                      args.trace)
            results.append(result)
            reports.append(report)
            values = " ".join(f"{name}={m['value']:.6g}"
                              for name, m in result["metrics"].items()
                              if "." not in name)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"{values}", flush=True)
        summary = {name: summarise([r["metrics"][name]["value"]
                                    for r in results])
                   for name in results[0]["metrics"]}
        for name, s in summary.items():
            print(f"  {name:<36} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f}")
        if args.baseline:
            data = (json.loads(baseline_path.read_text())
                    if baseline_path.exists() else {"workloads": {}})
            entry = data["workloads"].setdefault(workload, {})
            entry["end_to_end" if args.trace == 0 else "per_layer"] = {
                "seeds": args.seeds, "seconds": args.seconds,
                "all_correct": all(r["correct"] for r in results),
                "metrics": summary}
            entry.setdefault("sim_ms_by_seed", {}).update(
                {str(seed): report.get("sim")
                 for seed, report in zip(args.seeds, reports)})
            entry["provenance"] = reports[0]["provenance"]
            entry["trials"] = reports[0]["trials"]
            baseline_path.write_text(json.dumps(data, indent=1,
                                                sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
