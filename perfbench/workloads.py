"""The benchmark's workloads: which preset cells run, and how each
trial's output is checked.

Every workload is a list of shipped scenario documents, each narrowed
to some of its sweep cells.  The workload seed shifts every document's
base seeds before compile, so seed 0 runs the presets exactly as
shipped and any other seed runs the same cells on different inputs;
the program only ever sees the generated spec.

This module imports nothing from ``repro`` at module level, so the
set-up probe can time that import itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Seed 0 runs the presets' own seeds; their digests are committed.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Source:
    """One scenario document and the sweep cells taken from it."""

    scenario: str
    sweep: Optional[dict[str, list]] = None     # None: every cell


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sources: tuple[Source, ...]
    #: the work unit that ``work_per_s`` divides by host seconds
    unit: str
    #: the name the unit's rate goes by in the printed report
    rate_name: str
    #: the calibration kernels (``calibrate.KERNELS``) whose mix is
    #: closest to what the workload's trials spend their time on
    calibration: tuple[str, ...] = ("py",)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="packet_bg",
        why="Fig 10b ping cells at 80 Mbit/s of per-packet background: "
            "the engine, link, switch and GTP per-packet path do nearly "
            "all the work",
        sources=(Source("fig10b", {"system": ["acacia", "conventional"],
                                   "bg_mbps": [80]}),),
        unit="sim.link.deliveries", rate_name="pkts_per_s"),
    Workload(
        name="attach_storm",
        why="1000-UE fluid-background attach storm plus the bearer-setup "
            "sweep: signalling, FlowMod installs and the fluid solver, "
            "per-packet path nearly idle",
        sources=(Source("million_ue_fluid", {"n_ues": [1000]}),
                 Source("bearer-setup")),
        unit="epc.procedures.attaches", rate_name="attaches_per_s"),
    Workload(
        name="continuity",
        why="3-site MBB/BBM walkers: the only workload with X2 handover, "
            "MRS relocation, WAN context chunks and re-steer batches, on "
            "a mixed engine and data-plane load",
        sources=(Source("continuity"),),
        unit="sim.seconds", rate_name="sim_rtf"),
    Workload(
        name="ar_frames",
        why="Fig 13 and Fig 11a cells: the vision matcher and "
            "localization do the work while the simulator barely runs",
        sources=(Source("fig13"), Source("fig11a")),
        unit="vision.batch.frames", rate_name="frames_per_s",
        calibration=("py", "np")),
)}


def build_trials(workload: str, seed: int) -> list:
    """Load, validate and compile the workload's documents into trials.

    Each document's ``experiment.seeds`` become ``seed + s`` and its
    sweep is narrowed to the workload's cells before compile.
    """
    from repro.scenario import loader
    from repro.scenario.document import Scenario

    trials = []
    for source in WORKLOADS[workload].sources:
        doc = loader.load(source.scenario).to_dict()
        experiment = doc["experiment"]
        experiment["seeds"] = [int(s) + seed
                               for s in experiment.get("seeds", [0])]
        if source.sweep is not None:
            experiment["sweep"] = source.sweep
        trials.extend(Scenario.from_dict(doc).compile().trials())
    return trials


# -- output checks ----------------------------------------------------------

Check = Callable[[list[tuple[Any, dict]]], dict[int, str]]


def _per_trial(fn: Callable[[Any, dict], Optional[str]]) -> Check:
    def check(results):
        failures = {}
        for i, (trial, metrics) in enumerate(results):
            problem = fn(trial, metrics)
            if problem is not None:
                failures[i] = problem
        return failures
    return check


@_per_trial
def _pings_answered(trial, m):
    count = int(trial.param_dict.get("count", 8))
    if m.get("answered") != count:
        return f"{m.get('answered')} of {count} pings answered"
    return None


@_per_trial
def _attach_storm(trial, m):
    if trial.workload == "scale" and m.get("attach_success_rate") != 1.0:
        return f"attach_success_rate {m.get('attach_success_rate')} != 1.0"
    if (trial.workload == "bearer_setup"
            and len(m.get("setup_ms", ())) != m.get("n_ues")):
        return "not every bearer was set up"
    return None


@_per_trial
def _sessions_on_last_site(trial, m):
    if m.get("sessions_on_last_site") != m.get("n_ues"):
        return (f"{m.get('sessions_on_last_site')} of {m.get('n_ues')} "
                "sessions ended on the last site")
    return None


def _mbb_beats_bbm(results):
    failures = {}
    by_n: dict[int, dict[str, tuple[int, float]]] = {}
    for i, (_trial, m) in enumerate(results):
        by_n.setdefault(m["n_ues"], {})[m["policy"]] = (
            i, m["interruption_ms"]["mean"])
    for policies in by_n.values():
        mbb = policies.get("make-before-break")
        bbm = policies.get("break-before-make")
        if mbb is not None and bbm is not None and not mbb[1] < bbm[1]:
            problem = (f"MBB interruption {mbb[1]:.3f} ms is not below "
                       f"BBM {bbm[1]:.3f} ms")
            failures[mbb[0]] = failures[bbm[0]] = problem
    return failures


@_per_trial
def _all_matched(trial, m):
    if trial.workload == "end_to_end" and m.get("all_matched") is not True:
        return "a Fig 13 frame was matched to the wrong object"
    return None


CHECKS: dict[str, tuple[Check, ...]] = {
    "packet_bg": (_pings_answered,),
    "attach_storm": (_attach_storm,),
    "continuity": (_sessions_on_last_site, _mbb_beats_bbm),
    "ar_frames": (_all_matched,),
}


def check_outputs(workload: str, results: list[tuple[Any, dict]]
                  ) -> dict[int, str]:
    """Index of each trial that fails an invariant -> the reason."""
    failures: dict[int, str] = {}
    for check in CHECKS.get(workload, ()):
        for i, problem in check(results).items():
            failures.setdefault(i, problem)
    return failures


# -- the paper's simulated metrics ------------------------------------------

def _cell(results, workload: str, **params):
    for trial, m in results:
        p = trial.param_dict
        if trial.workload == workload and all(p.get(k) == v
                                              for k, v in params.items()):
            return m
    raise KeyError(f"no {workload} cell with {params}")


def sim_metrics(workload: str, results: list[tuple[Any, dict]]
                ) -> dict[str, float]:
    """The paper's numbers this workload reproduces (simulated ms)."""
    if workload == "packet_bg":
        return {"ping_rtt_ms": _cell(results, "ping", system="acacia")
                ["median_rtt_ms"],
                "ping_rtt_conventional_ms": _cell(
                    results, "ping", system="conventional")["median_rtt_ms"]}
    if workload == "attach_storm":
        return {"attach_p95_ms": _cell(results, "scale", n_ues=1000)
                ["attach_p95_ms"],
                "bearer_setup_p95_ms": _cell(results, "bearer_setup",
                                             n_ues=50)["p95_ms"]}
    if workload == "continuity":
        return {"mbb_interruption_ms": _cell(
                    results, "continuity", policy="make-before-break",
                    n_ues=32)["interruption_ms"]["mean"],
                "bbm_interruption_ms": _cell(
                    results, "continuity", policy="break-before-make",
                    n_ues=32)["interruption_ms"]["mean"]}
    if workload == "ar_frames":
        totals = {kind: _cell(results, "end_to_end", kind=kind)
                  ["breakdown_ms"]["total"]
                  for kind in ("acacia", "mec", "cloud")}
        return {"ar_frame_ms": totals["acacia"],
                "ar_frame_mec_ms": totals["mec"],
                "ar_frame_cloud_ms": totals["cloud"]}
    raise KeyError(workload)
