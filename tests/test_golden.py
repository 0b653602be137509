"""Fixed-seed suite results against a recorded golden file.

``data/golden_margins.json`` holds every trial's verdict, margin and detail
for every theorem suite and every catalog function at n=6, seed 3, 20
trials, skipped trials included, and lists the suites that run_suite
refuses with the error it raises.  A change to how results are
computed (batching, caching, vectorized scalar functions, shared hypothesis
code) must give identical verdicts and details and margins within
MARGIN_ATOL.

Regenerate the file, only when a change is meant to alter results, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from hhmat.errors import Error
from hhmat.funcat import CATALOG_DESCRIPTORS
from hhmat.harness import THEOREM_IDS, InstanceSpec, run_suite

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_margins.json"
SPEC = dict(n=6, seed=3, trials=20)
MARGIN_ATOL = 1e-12


def _suite(theorem: str, function: str) -> list[dict]:
    report = run_suite(InstanceSpec(function=function, **SPEC), theorem)
    return [{"verdict": rec["verdict"], "margin": rec["margin"], "detail": rec.get("detail", "")}
            for rec in report.records]


def _load() -> dict:
    # A missing file yields no cases here; test_golden_file_covers_every_theorem
    # then fails on it.
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"cases": [], "refused": []}


def _cases() -> list[tuple[str, str]]:
    return [(case["theorem"], case["function"]) for case in _load()["cases"]]


@pytest.fixture(scope="module")
def golden() -> dict:
    data = _load()
    assert data["spec"] == SPEC
    return {(c["theorem"], c["function"]): c["records"] for c in data["cases"]}


def test_golden_file_covers_every_theorem(golden):
    assert {theorem for theorem, _ in golden} == set(THEOREM_IDS)
    refused = {(r["theorem"], r["function"]) for r in _load()["refused"]}
    assert set(golden) | refused == {(t, f) for t in THEOREM_IDS for f in CATALOG_DESCRIPTORS}


@pytest.mark.parametrize("theorem, function", _cases())
def test_suite_matches_golden(golden, theorem, function):
    expected = golden[(theorem, function)]
    got = _suite(theorem, function)
    assert [(r["verdict"], r["detail"]) for r in got] == [
        (r["verdict"], r["detail"]) for r in expected]
    for trial, (g, e) in enumerate(zip(got, expected)):
        if e["margin"] is None:
            assert g["margin"] is None, trial
        else:
            assert abs(g["margin"] - e["margin"]) <= MARGIN_ATOL, (trial, g["margin"], e["margin"])


def test_refused_suites_stay_refused():
    for case in _load()["refused"]:
        with pytest.raises(Error) as info:
            run_suite(InstanceSpec(function=case["function"], **SPEC), case["theorem"])
        assert f"{type(info.value).__name__}: {info.value}" == case["error"]


def write_golden():
    cases, refused = [], []
    for theorem in THEOREM_IDS:
        for function in CATALOG_DESCRIPTORS:
            try:
                records = _suite(theorem, function)
            except Error as exc:
                refused.append({"theorem": theorem, "function": function,
                                "error": f"{type(exc).__name__}: {exc}"})
                continue
            cases.append({"theorem": theorem, "function": function, "records": records})
    # one suite a line keeps the file reviewable
    lines = ",\n".join(json.dumps(case) for case in cases)
    GOLDEN.write_text(f'{{"spec": {json.dumps(SPEC)},\n"refused": {json.dumps(refused)},\n'
                      f'"cases": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    sys.exit(write_golden())
