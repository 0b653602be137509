"""Fixed-seed suite results against a recorded golden file.

``data/golden_margins.json`` holds every trial's verdict and margin for the
theorem suites below at n=6, seed 3, 20 trials, for each catalog function
whose suite judges every trial (no skips, no checker errors).  A change to
how results are computed (batching, caching, vectorized scalar functions)
must give identical verdicts and margins within MARGIN_ATOL.

Regenerate the file, only when a change is meant to alter results, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from hhmat.funcat import CATALOG_DESCRIPTORS
from hhmat.harness import InstanceSpec, run_suite

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_margins.json"
THEOREMS = ("t1", "trace", "t3", "t4", "chain", "norm_chain", "bourin", "power_norm")
SPEC = dict(n=6, seed=3, trials=20)
MARGIN_ATOL = 1e-12


def _suite(theorem: str, function: str) -> list[dict]:
    report = run_suite(InstanceSpec(function=function, **SPEC), theorem)
    return [{"verdict": rec["verdict"], "margin": rec["margin"]} for rec in report.records]


def _cases() -> list[tuple[str, str]]:
    # A missing file yields no cases here; test_golden_file_covers_every_theorem
    # then fails on it.
    if not GOLDEN.exists():
        return []
    data = json.loads(GOLDEN.read_text())
    return [(case["theorem"], case["function"]) for case in data["cases"]]


@pytest.fixture(scope="module")
def golden() -> dict:
    data = json.loads(GOLDEN.read_text())
    assert data["spec"] == SPEC
    return {(c["theorem"], c["function"]): c["records"] for c in data["cases"]}


def test_golden_file_covers_every_theorem(golden):
    assert {theorem for theorem, _ in golden} == set(THEOREMS)


@pytest.mark.parametrize("theorem, function", _cases())
def test_suite_matches_golden(golden, theorem, function):
    expected = golden[(theorem, function)]
    got = _suite(theorem, function)
    assert [r["verdict"] for r in got] == [r["verdict"] for r in expected]
    for trial, (g, e) in enumerate(zip(got, expected)):
        assert abs(g["margin"] - e["margin"]) <= MARGIN_ATOL, (trial, g["margin"], e["margin"])


def write_golden():
    cases = []
    for theorem in THEOREMS:
        for function in CATALOG_DESCRIPTORS:
            records = _suite(theorem, function)
            if all(r["verdict"] != "skip" and r["margin"] is not None for r in records):
                cases.append({"theorem": theorem, "function": function, "records": records})
    GOLDEN.write_text(json.dumps({"spec": SPEC, "cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(write_golden())
