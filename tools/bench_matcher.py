#!/usr/bin/env python
"""Wall-clock comparison of the matching engines on the Fig 11a workload.

Runs the paper's naive-scheme search workload -- 24 checkpoints x 5
frames at 960x720 against the whole 105-object store database -- through
both engines and reports per-frame wall-clock times plus the speedup of
the batched engine, asserting byte-identical match decisions along the
way.  Results land in ``BENCH_matcher.json`` at the repository root.

Protocol: ``tools/benchkit.py`` -- one untimed pass per variant, then
``--repeats`` rounds of alternating timed passes with the cyclic
garbage collector off; the reported time is the median pass.  Every
pass of every variant must return the reference engine's decisions.
The batched engine is timed in three serving shapes:

* ``batch_cold``    -- ``match_frame`` per frame on a fresh candidate
  cache, so each pass pays for building the candidate matrix;
* ``batch_single``  -- ``match_frame`` per frame on a warm cache;
* ``batch_block``   -- ``match_frames`` per checkpoint on a warm cache
  (the workload's natural shape: 5 frames per checkpoint share one
  screening GEMM).

Usage::

    PYTHONPATH=src python tools/bench_matcher.py [--repeats N] [--out PATH]
"""

from __future__ import annotations

import benchkit
import numpy as np
from repro.apps.retail import build_retail_database
from repro.apps.scenario import store_scenario
from repro.apps.workload import CheckpointWorkload
from repro.vision.batch import BatchObjectMatcher, CandidateMatrixCache
from repro.vision.camera import R960x720
from repro.vision.matcher import ObjectMatcher

SEED = 99
N_FEATURES = 60
WORKLOAD_SEED = 7

#: Acceptance gate: batched block speedup over the reference engine.
BLOCK_GATE = 5.0


def decision_tuple(outcome):
    if outcome is None:
        return None
    return (outcome.object_name, outcome.good_matches,
            outcome.symmetric_matches, outcome.inliers,
            outcome.accepted, outcome.stage_reached)


def build_workload():
    scenario = store_scenario()
    db = build_retail_database(scenario, n_features=N_FEATURES)
    models = [record.model for record in db.all_records()]
    workload = CheckpointWorkload(scenario, db, seed=WORKLOAD_SEED,
                                  resolution=R960x720)
    blocks = [sample.frames for sample in workload.samples()]
    return models, blocks


def per_frame(matcher, models, blocks):
    return [decision_tuple(matcher.match_frame(frame, models))
            for block in blocks for frame in block]


def per_block(matcher, models, blocks):
    return [decision_tuple(outcome) for block in blocks
            for outcome in matcher.match_frames(block, models)]


def variants(models, blocks, warm_cache):
    """Each variant builds its matcher on the shared seed and returns
    the decisions for every frame of the workload."""
    def rng():
        return np.random.default_rng(SEED)
    return {
        "reference": lambda: per_frame(ObjectMatcher(rng=rng()),
                                       models, blocks),
        "batch_cold": lambda: per_frame(
            BatchObjectMatcher(rng=rng(), cache=CandidateMatrixCache()),
            models, blocks),
        "batch_single": lambda: per_frame(
            BatchObjectMatcher(rng=rng(), cache=warm_cache), models, blocks),
        "batch_block": lambda: per_block(
            BatchObjectMatcher(rng=rng(), cache=warm_cache), models, blocks),
    }


def main(argv=None) -> int:
    args = benchkit.parse_args(__doc__, "BENCH_matcher.json", repeats=5,
                               argv=argv)
    models, blocks = build_workload()
    n_frames = sum(len(block) for block in blocks)
    total_descriptors = sum(m.descriptors.shape[0] for m in models)
    print(f"workload: {len(blocks)} checkpoints x {len(blocks[0])} frames "
          f"= {n_frames} frames at 960x720, {len(models)} objects "
          f"({total_descriptors} descriptors)")

    warm_cache = CandidateMatrixCache()
    outputs, times = benchkit.alternate(
        variants(models, blocks, warm_cache), args.repeats)
    failures = [f"{name} decisions differ from the reference engine"
                for name, decisions in outputs.items()
                if decisions != outputs["reference"]]
    if not failures:
        print(f"decision equivalence: all {n_frames} frame decisions "
              "byte-identical across engines")

    median = benchkit.medians(times)
    per_frame_ms = {name: value / n_frames * 1e3
                    for name, value in median.items()}
    speedup = {f"{name}_vs_reference": median["reference"] / value
               for name, value in median.items() if name != "reference"}
    for name, ms in per_frame_ms.items():
        ratio = speedup.get(f"{name}_vs_reference", 1.0)
        print(f"{name:13s} {ms:8.3f} ms/frame ({ratio:.2f}x)")
    print(f"cache stats: {warm_cache.stats()}")

    block = speedup["batch_block_vs_reference"]
    if block < BLOCK_GATE:
        failures.append(f"block speedup {block:.2f}x < {BLOCK_GATE}x")
    return benchkit.finish(args, {
        "gates": {"batch_block_speedup_min": BLOCK_GATE},
        "workload": {
            "figure": "11a (naive scheme search space)",
            "checkpoints": len(blocks),
            "frames_per_checkpoint": len(blocks[0]),
            "frames": n_frames,
            "resolution": "960x720",
            "objects": len(models),
            "descriptors": total_descriptors,
            "workload_seed": WORKLOAD_SEED,
            "matcher_seed": SEED,
        },
        "times_s": times,
        "median_s": median,
        "per_frame_ms": per_frame_ms,
        "speedup": speedup,
        "decisions_identical": not failures,
        "cache": warm_cache.stats(),
    }, failures)


if __name__ == "__main__":
    raise SystemExit(main())
