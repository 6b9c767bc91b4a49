"""Declarative scenario layer: one document from topology to chaos.

A scenario is a single versioned JSON (or YAML, when PyYAML is
around) document describing everything about a run -- topology,
config overlays, traffic mix, mobility, fault plan, sweep axes and
seeds.  The layer splits into:

* :mod:`repro.scenario.schema` -- the published document schema and a
  dependency-free validator with path-qualified errors;
* :mod:`repro.scenario.document` -- the validated :class:`Scenario`
  object, its content :meth:`~Scenario.digest` and compilation into
  an :class:`~repro.exp.spec.ExperimentSpec`;
* :mod:`repro.scenario.loader` -- file loading plus the shipped
  ``scenarios/`` catalogue;
* :mod:`repro.scenario.runtime` -- the interpreter behind the generic
  ``"scenario"`` workload.

This package is the only one allowed to turn raw document dicts into
deployments, and the catalogue is the only preset registry: the
paper's figure presets are the documents tagged ``preset``, run with
``load(name).compile()``.  The dependency points scenario -> exp
(a document compiles into an :class:`~repro.exp.spec.ExperimentSpec`
and names a registered workload); :mod:`repro.exp` imports this
package only lazily, inside the generic ``"scenario"`` workload.  The
layering gates in ``tests/test_layering.py`` hold the line.
"""

from repro.scenario.document import (GENERIC_WORKLOAD,
                                     INTERPRETED_SECTIONS, Scenario,
                                     canonical_json)
from repro.scenario.loader import (CATALOGUE_DIR, catalogue, load,
                                   load_path, parse_text)
from repro.scenario.schema import (SCHEMA, ScenarioError,
                                   ScenarioValidationError, validate)

__all__ = [
    "CATALOGUE_DIR",
    "GENERIC_WORKLOAD",
    "INTERPRETED_SECTIONS",
    "SCHEMA",
    "Scenario",
    "ScenarioError",
    "ScenarioValidationError",
    "canonical_json",
    "catalogue",
    "load",
    "load_path",
    "parse_text",
    "validate",
]
