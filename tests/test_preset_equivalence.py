"""Preset <-> scenario equivalence against pre-refactor goldens.

The presets used to be hand-coded ``ExperimentSpec`` literals; they
are now compiled from scenario documents.  The goldens under
``tests/goldens/`` were pinned from the pre-refactor code, so these
tests prove the refactor changed *nothing*: every compiled spec is
byte-identical to its hand-coded ancestor, and running the ``smoke``
preset reproduces the exact canonical result bytes.
"""

import json
from pathlib import Path

import pytest

from repro.exp import ExperimentRunner
from repro.scenario import catalogue, load

GOLDENS = Path(__file__).parent / "goldens"

with (GOLDENS / "preset_specs.json").open() as handle:
    GOLDEN_SPECS = json.load(handle)


def test_no_preset_appeared_or_vanished():
    tagged = [name for name in catalogue() if "preset" in load(name).tags]
    assert sorted(tagged) == sorted(GOLDEN_SPECS)


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_compiled_spec_matches_pre_refactor_golden(name):
    compiled = json.dumps(load(name).compile().to_dict(), sort_keys=True,
                          indent=2)
    golden = json.dumps(GOLDEN_SPECS[name], sort_keys=True, indent=2)
    assert compiled == golden


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_trial_seeds_are_unchanged(name):
    spec = load(name).compile()
    golden_spec = spec.from_dict(GOLDEN_SPECS[name])
    # params compare as dicts: the golden file was dumped with sorted
    # keys, and tuple order inside a trial does not affect results
    assert ([(t.index, t.seed, t.param_dict) for t in spec.trials()]
            == [(t.index, t.seed, t.param_dict)
                for t in golden_spec.trials()])


def test_smoke_run_is_byte_identical_to_pre_refactor():
    result = ExperimentRunner(load("smoke").compile()).run()
    golden = (GOLDENS / "smoke_result.json").read_text()
    assert result.canonical_json() + "\n" == golden
