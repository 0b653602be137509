"""Trials run from arrays; instances become JSON only where they leave the
process.

``data/instance_sha256.json`` holds the sha256 of
``json.dumps(instance, sort_keys=True)`` for every theorem id and each map
descriptor in SPEC, at n=3, seeds 0-1 and trial indices 0-2, recorded when
random_hermitian began to shift and scale its GUE matrix (s*H + c*I) rather
than rebuild it from its eigensystem.  That moved the entries of the 288
instances with a random_hermitian draw by at most 1.8e-15 and left every
other field byte-identical.  The norm_chain entries were recorded again
when the trace and operator norms, kyfan:m and kyfan:1 bit for bit, left
the "specs" field.  The JSON form that instance_to_json gives must match
those bytes exactly.

Regenerate the file, only when a change is meant to alter instances, with

    PYTHONPATH=src python tests/test_instance_json.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

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

GOLDEN = Path(__file__).resolve().parent / "data" / "instance_sha256.json"
# compress:2 has a real factor, whose literal has no "im"
SPEC = {"n": 3, "maps": ["identity", "compress", "compress:2", "pinch", "congruence",
                         "subcongruence"],
        "seeds": [0, 1], "indices": [0, 1, 2]}


def _hashes() -> dict[str, str]:
    out = {}
    for theorem in THEOREM_IDS:
        for map_desc in SPEC["maps"]:
            for seed in SPEC["seeds"]:
                spec = InstanceSpec(n=SPEC["n"], map_desc=map_desc, seed=seed)
                for index in SPEC["indices"]:
                    inst = instance_to_json(generate_instance(theorem, spec, index))
                    text = json.dumps(inst, sort_keys=True)
                    key = f"{theorem} {map_desc} {seed} {index}"
                    out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_json_form_matches_the_recorded_bytes():
    data = json.loads(GOLDEN.read_text())
    assert data["spec"] == SPEC
    assert _hashes() == data["sha256"]


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


def write_golden():
    GOLDEN.write_text(json.dumps({"spec": SPEC, "sha256": _hashes()}, indent=1, sort_keys=True)
                      + "\n")


if __name__ == "__main__":
    sys.exit(write_golden())
