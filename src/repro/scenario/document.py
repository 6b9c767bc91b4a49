"""The scenario document: one validated, versioned source of truth.

A :class:`Scenario` wraps a schema-validated document
(:mod:`repro.scenario.schema`) and knows how to

* cross-validate the parts the schema cannot express -- the
  ``network`` overlay deserialises through the strict
  :meth:`~repro.core.config.NetworkConfig.from_dict`, every entry of
  ``faults`` through :meth:`~repro.faults.plan.FaultSpec.from_dict`,
  the workload name against the registry, the generic workload's
  sweep axes against :data:`~repro.scenario.runtime.OVERRIDES` and
  every override value applied to the document -- re-raising their
  errors with document-level paths;
* compute a stable content :meth:`digest` (sha256 of the canonical
  JSON form) embedded into run provenance so results are auditable
  back to the exact document that produced them;
* :meth:`compile` itself into an
  :class:`~repro.exp.spec.ExperimentSpec`, which is what makes every
  scenario run reuse the byte-identical
  :class:`~repro.exp.runner.ExperimentRunner` path.

Compilation rules: the ``experiment`` section maps 1:1 onto the spec
(name comes from ``scenario.name``); for the generic ``"scenario"``
workload the document's ``topology`` / ``network`` / ``traffic`` /
``mobility`` / ``faults`` / ``run`` sections are passed through as
fixed params which :mod:`repro.scenario.runtime` interprets.  Any
other workload receives only ``experiment.params`` -- documents
naming one may not carry interpreted sections, so nothing is ever
silently ignored.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.config import ConfigError, NetworkConfig
from repro.exp.spec import ExperimentSpec
from repro.exp.workloads import WORKLOADS
from repro.faults.plan import FaultPlan, FaultSpecError
from repro.scenario.runtime import OVERRIDES, _apply_overrides
from repro.scenario.schema import (ScenarioError, ScenarioValidationError,
                                   validate)

#: Workload interpreting the document's world-building sections.
GENERIC_WORKLOAD = "scenario"

#: Sections only the generic workload interprets (``ops`` rides along
#: for the operator runtime; batch runs ignore it).
INTERPRETED_SECTIONS = ("topology", "network", "traffic", "mobility",
                        "faults", "run", "ops")


def canonical_json(data: Any) -> str:
    """The canonical serialised form digests are computed over."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Scenario:
    """An immutable, validated scenario document."""

    name: str
    version: int
    description: str
    tags: tuple[str, ...]
    document: Mapping[str, Any] = field(repr=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Validate ``data`` against the schema plus the cross-checks
        and wrap it.  Raises :class:`ScenarioValidationError` /
        :class:`ScenarioError` with path-qualified messages."""
        _check_document(data)
        meta = data["scenario"]

        workload = data["experiment"].get("workload", GENERIC_WORKLOAD)
        _check_workload(workload)
        generic = workload == GENERIC_WORKLOAD
        if not generic:
            carried = [s for s in INTERPRETED_SECTIONS if s in data]
            if carried:
                raise ScenarioValidationError(
                    carried[0],
                    f"section(s) {carried} are only interpreted by the "
                    f"{GENERIC_WORKLOAD!r} workload, not {workload!r}")

        axes = _check_sweep(data["experiment"].get("sweep", {}), generic)
        if generic:
            _check_overrides(data, axes)

        return cls(name=meta["name"], version=int(meta["version"]),
                   description=meta["description"],
                   tags=tuple(meta.get("tags", ())),
                   document=copy.deepcopy(dict(data)))

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from None
        return cls.from_dict(data)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return copy.deepcopy(dict(self.document))

    def digest(self) -> str:
        """sha256 over the canonical JSON form of the document."""
        text = canonical_json(self.to_dict())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    # -- compilation -------------------------------------------------------

    @property
    def workload(self) -> str:
        return self.document["experiment"].get("workload",
                                               GENERIC_WORKLOAD)

    def compile(self) -> ExperimentSpec:
        """Compile into the :class:`~repro.exp.spec.ExperimentSpec`
        the runner executes.

        For the generic workload the interpreted sections ride along
        as fixed params (sweep axes may still override the documented
        scalar shortcuts -- see :mod:`repro.scenario.runtime`).
        """
        experiment = self.document["experiment"]
        params = dict(experiment.get("params", {}))
        if self.workload == GENERIC_WORKLOAD:
            for section in INTERPRETED_SECTIONS:
                if section in self.document:
                    params[section] = copy.deepcopy(
                        self.document[section])
        return ExperimentSpec(
            name=self.name,
            workload=self.workload,
            seeds=tuple(experiment.get("seeds", (0,))),
            sweep=_freeze_sweep_document(experiment.get("sweep", {})),
            params=params)


def _check_document(data: Mapping[str, Any]) -> None:
    """Schema-validate ``data``, then deserialise its ``network`` and
    ``faults`` sections, re-raising their errors at document paths."""
    validate(data)
    network = data.get("network")
    if network is not None:
        try:
            NetworkConfig.from_dict(network, path="network")
        except ConfigError as exc:
            raise ScenarioValidationError(exc.path,
                                          str(exc).split(": ", 1)[-1]
                                          ) from None
    faults = data.get("faults")
    if faults is not None:
        try:
            FaultPlan.from_dict(list(faults), path="faults")
        except FaultSpecError as exc:
            raise ScenarioValidationError(exc.path,
                                          str(exc).split(": ", 1)[-1]
                                          ) from None


def _check_workload(workload: str) -> None:
    if workload not in WORKLOADS:
        raise ScenarioValidationError(
            "experiment.workload",
            f"unknown workload {workload!r}; known workloads: "
            f"{sorted(WORKLOADS)}")


def _check_sweep(sweep: Any, generic: bool
                 ) -> list[tuple[str, str, Any]]:
    """Check the sweep's shape; return its ``(path, axis, values)``."""
    axes = []
    pairs = sweep.items() if isinstance(sweep, Mapping) else sweep
    for i, pair in enumerate(pairs):
        if isinstance(sweep, Mapping):
            axis, values = pair
            path = f"experiment.sweep.{axis}"
        else:
            if (not isinstance(pair, (list, tuple))
                    or len(pair) != 2):
                raise ScenarioValidationError(
                    f"experiment.sweep[{i}]",
                    "expected an [axis, values] pair")
            axis, values = pair
            path = f"experiment.sweep[{i}]"
        if not isinstance(axis, str):
            raise ScenarioValidationError(path,
                                          "axis name must be a string")
        if not isinstance(values, (list, tuple)) or not values:
            raise ScenarioValidationError(
                path, "axis values must be a non-empty array")
        if generic and axis not in OVERRIDES:
            raise ScenarioValidationError(
                path, f"unknown axis {axis!r}; the {GENERIC_WORKLOAD!r} "
                      f"workload sweeps only {sorted(OVERRIDES)}")
        axes.append((path, axis, values))
    return axes


def _check_overrides(data: Mapping[str, Any],
                     axes: list[tuple[str, str, Any]]) -> None:
    """Fold each ``experiment.params`` entry and sweep value into a
    copy of the document the way a trial will, and validate the copy,
    so a bad value fails at load instead of inside its trial."""
    params = data["experiment"].get("params", {})
    candidates = [(f"experiment.params.{key}", key, value)
                  for key, value in params.items()]
    candidates += [(path, axis, value)
                   for path, axis, values in axes for value in values]
    for path, key, value in candidates:
        trial = {s: data[s] for s in INTERPRETED_SECTIONS if s in data}
        trial[key] = value
        try:
            sections = _apply_overrides(trial)
            _check_document({**data, **{name: section for name, section
                                        in sections.items()
                                        if section is not None}})
        except (ValueError, TypeError) as exc:
            raise ScenarioValidationError(
                path, f"value {value!r} is invalid: {exc}") from None


def _freeze_sweep_document(sweep: Any) -> tuple:
    if isinstance(sweep, Mapping):
        return tuple((axis, tuple(values))
                     for axis, values in sweep.items())
    return tuple((axis, tuple(values)) for axis, values in sweep)
