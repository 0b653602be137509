"""Trials run from arrays; instances become JSON only where they leave the
process.  test_golden.py pins the instances each seed draws."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import wide_factor_map
from hhmat.harness import (
    THEOREM_IDS,
    InstanceSpec,
    generate_instance,
    instance_to_json,
    replay,
    run_instance,
    run_suite,
)


def _grids(obj):
    """Every "re"/"im" leaf of an instance."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key in ("re", "im"):
                yield value
            else:
                yield from _grids(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _grids(value)


@pytest.mark.parametrize("theorem, map_desc", [
    ("t4", "compress"), ("t1", "congruence"), ("jensen", "subcongruence"), ("bourin", "identity"),
])
def test_generated_literals_are_read_only_arrays(theorem, map_desc):
    inst = generate_instance(theorem, InstanceSpec(n=3, map_desc=map_desc, seed=2), 0)
    grids = list(_grids(inst))
    assert grids
    for grid in grids:
        assert isinstance(grid, np.ndarray) and not grid.flags.writeable
    assert not any(isinstance(grid, np.ndarray) for grid in _grids(instance_to_json(inst)))


def _bits(margin):
    return None if margin is None else float.hex(margin)


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_replayed_json_gives_the_in_suite_result_bit_for_bit(theorem):
    # exp meets every hypothesis here except the operator convexity the chain needs
    function = "power:2" if theorem == "chain" else "exp"
    spec = InstanceSpec(n=3, interval=(0.5, 2.0), function=function, map_desc="congruence",
                        seed=5)
    for index in range(3):
        inst = generate_instance(theorem, spec, index)
        in_suite = run_instance(inst)
        [(_, replayed)] = replay(json.loads(json.dumps(instance_to_json(inst))))
        assert in_suite.status == "pass"
        assert (replayed.status, _bits(replayed.margin), replayed.detail) == (
            in_suite.status, _bits(in_suite.margin), in_suite.detail)


def test_failure_records_are_plain_json_and_independent_of_worker_count(tmp_path):
    spec = InstanceSpec(n=3, interval=(0.5, 2.0), function="exp", trials=6, seed=4,
                        map_desc=wide_factor_map(tmp_path))
    serial = run_suite(spec, "t4", workers=1)
    parallel = run_suite(spec, "t4", workers=2)
    assert serial.failure_count == spec.trials
    assert serial.to_json() == parallel.to_json()
    for fail in serial.failures:
        assert json.loads(json.dumps(fail)) == fail
        [(_, result)] = replay(fail)
        assert result.status == "fail"
        assert result.detail == serial.records[fail["trial"]]["detail"]
