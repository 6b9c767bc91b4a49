"""Shared harness for the A/B implementation benchmarks in ``tools/``.

Each ``tools/bench_*.py`` compares implementations of one layer (the
fast and reference schedulers, the packet and fluid-bg data planes,
the batch and reference matchers) and declares its variants, its check
that they agree, and its gates.  This module owns the rest: the
command line, the timing protocol (:func:`alternate`), the host block
(:func:`provenance`, with the keys of ``perfbench/run.py``'s report
line) and the report file (:func:`finish`).  Importing it pins BLAS to
one thread, as ``perfbench/run.py`` does, so a timing does not depend
on how many cores numpy's BLAS grabs on the host: the tools import it
before numpy.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
os.environ.update({name: "1" for name in BLAS_THREAD_VARS})

REPO_ROOT = Path(__file__).resolve().parent.parent
# The tools run as plain scripts from a checkout.
sys.path.insert(0, str(REPO_ROOT / "src"))

PROTOCOL = {
    "reference": "one untimed pass per variant; every timed pass must "
                 "return the same output",
    "order": "variants alternate within each round",
    "gc": "collected before each round, disabled during it",
    "statistic": "median over rounds",
    "blas": "one thread (" + ", ".join(BLAS_THREAD_VARS) + " = 1)",
}


class VariantDrift(RuntimeError):
    """A timed pass returned something other than its variant's
    reference output."""


def parse_args(doc: str, out_name: str, repeats: int,
               smoke: Optional[str] = None,
               argv: Optional[list[str]] = None) -> argparse.Namespace:
    """The tools' shared command line; ``smoke`` is the help text of
    ``--smoke``, which only tools with a smoke shape pass."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=repeats,
                        help="timed rounds of alternating passes "
                             f"(default {repeats})")
    if smoke is not None:
        parser.add_argument("--smoke", action="store_true", help=smoke)
    parser.add_argument("--out", type=Path, default=REPO_ROOT / out_name)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    return args


def git_revision() -> Optional[str]:
    """HEAD's sha, suffixed ``-dirty`` when tracked files differ from
    it; ``None`` outside a git checkout."""
    if not (REPO_ROOT / ".git").exists():
        return None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--"],
                               cwd=REPO_ROOT, timeout=30).returncode
    except (OSError, subprocess.SubprocessError):
        return None
    if head.returncode:
        return None
    return head.stdout.strip() + ("-dirty" if dirty else "")


def provenance() -> dict[str, Any]:
    """Where a number came from: host, interpreter and revision."""
    import numpy
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_revision(),
    }


def alternate(variants: dict[str, Callable[[], Any]], repeats: int
              ) -> tuple[dict[str, Any], dict[str, list[float]]]:
    """Run each variant once untimed: its output is the variant's
    reference.  Then run ``repeats`` rounds that time each variant in
    turn, so CPU frequency drift hits all alike, with the garbage
    collector collected before each round and off during it.  Returns
    the reference outputs and the pass times; raises
    :class:`VariantDrift` if a timed pass returns another output."""
    reference = {name: run() for name, run in variants.items()}
    times: dict[str, list[float]] = {name: [] for name in variants}
    for round_no in range(repeats):
        gc.collect()
        gc.disable()
        try:
            for name, run in variants.items():
                start = time.perf_counter()
                out = run()
                times[name].append(time.perf_counter() - start)
                if out != reference[name]:
                    raise VariantDrift(
                        f"{name}: timed round {round_no} returned a "
                        "different output from its reference pass")
        finally:
            gc.enable()
    return reference, times


def medians(times: dict[str, list[float]]) -> dict[str, float]:
    return {name: statistics.median(runs) for name, runs in times.items()}


def finish(args: argparse.Namespace, report: dict[str, Any],
           failures: list[str]) -> int:
    """Write ``report`` to ``args.out`` under the shared header, print
    each failed gate, and return the exit status (1 if any failed)."""
    document = {
        "mode": "smoke" if getattr(args, "smoke", False) else "full",
        "provenance": provenance(),
        "protocol": {"repeats": args.repeats, **PROTOCOL},
        **report,
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.out}")
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    return 1 if failures else 0
