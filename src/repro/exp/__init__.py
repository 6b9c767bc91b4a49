"""Declarative multi-seed experiment specs and a parallel trial runner.

An :class:`ExperimentSpec` names a workload (see
:mod:`repro.exp.workloads`), the seeds to repeat it over and the sweep
axes to cross; :class:`ExperimentRunner` fans the resulting trials out
over worker processes (or runs them serially -- the results are
byte-identical either way) and collects structured JSON with per-trial
provenance.  The paper's figure presets are scenario documents in the
``scenarios/`` catalogue (tagged ``preset``); compile one with
``repro.scenario.load(name).compile()``.  This package never imports
:mod:`repro.scenario` at module scope: the scenario layer compiles
*into* an :class:`ExperimentSpec`, so the dependency points
scenario -> exp.
"""

from repro.exp.runner import (ExperimentResult, ExperimentRunner,
                              TrialResult, run_trial)
from repro.exp.spec import ExperimentSpec, TrialSpec
from repro.exp.workloads import WORKLOADS, workload

__all__ = [
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "TrialResult",
    "TrialSpec",
    "WORKLOADS",
    "run_trial",
    "workload",
]
