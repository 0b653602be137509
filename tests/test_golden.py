"""Fixed-seed suites and instances against recorded golden files, claim by
claim.

A golden value is a JSON value recorded from this package, and a value
computed now matches it by one rule, mismatches(): every key, string, int,
bool and null is equal, and every float lies within the tolerance its key
names in TOLERANCES, MARGIN_ATOL for margins and worst margins and
ENTRY_ATOL for the "re"/"im" grids of matrix, factor and vector literals.
Any other float (an interval, a quadrature tolerance) is an input echoed
back and must be equal.  So verdicts, details, skip reasons and refusal
texts are pinned exactly, and margins and drawn entries to within what
the BLAS and SIMD kernels may move them: a seed draws its matrices through
LAPACK, and margins pass through eigh and numpy's CPU-dispatched loops.
Over every value here, forcing OpenBLAS's Haswell, Zen or SkylakeX kernels,
or turning numpy's AVX-512 loops off, moved a margin by at most 9.9e-14
and an entry by at most 2.7e-15, and no verdict, detail or refusal text.

``data/golden_margins.json`` holds every trial's verdict, margin and detail
for every theorem suite and every catalog function at n=6, seed 3, 20
trials, skipped trials included, and lists the suites that run_suite
refuses with the error it raises.

``data/golden_suites.json`` holds ``run_suite(...).to_jsonable()``, or
the error a refused suite raises, for every theorem id and each function,
size and map of a set in SUITE_SETS.  "suites" covers n=1, whose 1x1 sums
a pairwise sum would round differently; "suites_n48" a decomposition stack
and a quadrature run of one matrix each; "suites_maps" a compression and a
congruence sum to another size, where Phi(A) and Phi(B) are decomposed
apart from A and B, and a subunital congruence sum, which t1, t3 and jensen
judge under case (ii) for power:2@0,inf.

``data/golden_instances.json`` holds ``instance_to_json`` of the instance
each trial of a set in INSTANCE_SETS draws.  "instances_m" is trial 0 of
t1 and jensen under congruence:k,m, recorded when that descriptor replaced
an m option and gave the instances the option gave.

Byte identity is checked where it is portable: a suite's JSON is the same
run twice and with two workers (test_harness.py), and each change is swept
against its parent on one machine.

Regenerate every golden file, only when a change is meant to alter results,
with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from hhmat.errors import Error
from hhmat.funcat import CATALOG_DESCRIPTORS
from hhmat.harness import THEOREM_IDS, InstanceSpec, generate_instance, instance_to_json, run_suite

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden_margins.json"
SPEC = dict(n=6, seed=3, trials=20)
MARGIN_ATOL = 1e-12
ENTRY_ATOL = 1e-13
TOLERANCES = {"margin": MARGIN_ATOL, "worst_margin": MARGIN_ATOL, "re": ENTRY_ATOL,
              "im": ENTRY_ATOL}

GOLDEN_SUITES = DATA / "golden_suites.json"
SUITE_SETS = {
    "suites": {"functions": ["exp", "power:2", "inverse", "xlogx"],
               "sizes": [[6, [0.0, 2.0]], [4, [0.5, 2.0]], [1, [0.5, 2.0]]],
               "maps": ["identity", "pinch", "congruence"], "seed": 3, "trials": 6},
    "suites_n48": {"functions": ["exp"], "sizes": [[48, [0.5, 2.0]]],
                   "maps": ["identity", "congruence"], "seed": 3, "trials": 2},
    "suites_maps": {"functions": ["exp", "power:2@0,inf"], "sizes": [[4, [0.5, 2.0]]],
                    "maps": ["compress:2", "congruence:2,3", "subcongruence"],
                    "seed": 3, "trials": 6},
}
GOLDEN_INSTANCES = DATA / "golden_instances.json"
# compress:2 has a real factor, whose literal has no "im"
INSTANCE_SETS = {
    "instances": {"functions": ["power:2"], "sizes": [[3, [0.0, 2.0]]],
                  "maps": ["identity", "compress", "compress:2", "pinch", "congruence",
                           "subcongruence"],
                  "seeds": [0, 1], "indices": [0, 1, 2]},
    "instances_m": {"theorems": ["t1", "jensen"], "functions": ["exp"],
                    "sizes": [[4, [0.5, 2.0]]], "maps": ["congruence:1,2", "congruence:2,3"],
                    "seeds": [0], "indices": [0]},
}


def mismatches(got, want, path: str = "", atol: float = 0.0) -> list[str]:
    """Where got fails to match the recorded want, one line per place: a
    float within atol, a dict value within the tolerance its key names
    (exactly when it names none), anything else equal and of the same type."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [line for key in want
                for line in mismatches(got[key], want[key], f"{path}/{key}",
                                       TOLERANCES.get(key, 0.0))]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [line for i, (g, w) in enumerate(zip(got, want))
                for line in mismatches(g, w, f"{path}[{i}]", atol)]
    if type(got) is type(want) and (got == want or (isinstance(want, float)
                                                    and abs(got - want) <= atol)):
        return []
    return [f"{path}: {got!r} != {want!r} (atol {atol:g})"]


def _plain(value):
    """value as JSON gives it back: lists for tuples, floats unchanged."""
    return json.loads(json.dumps(value))


def _suites(pinned: dict, theorem: str) -> dict:
    out = {}
    for function in pinned["functions"]:
        for n, interval in pinned["sizes"]:
            for map_desc in pinned["maps"]:
                spec = InstanceSpec(n=n, interval=tuple(interval), function=function,
                                    map_desc=map_desc, trials=pinned["trials"],
                                    seed=pinned["seed"])
                key = f"{theorem} {function} n={n} {interval} {map_desc}"
                try:
                    out[key] = _plain(run_suite(spec, theorem).to_jsonable())
                except Error as exc:
                    out[key] = {"refused": f"{type(exc).__name__}: {exc}"}
    return out


def _instances(pinned: dict, theorem: str) -> dict:
    out = {}
    for function in pinned["functions"]:
        for n, interval in pinned["sizes"]:
            for map_desc in pinned["maps"]:
                for seed in pinned["seeds"]:
                    spec = InstanceSpec(n=n, interval=tuple(interval), function=function,
                                        map_desc=map_desc, seed=seed)
                    for index in pinned["indices"]:
                        key = f"{theorem} {function} n={n} {interval} {map_desc} {seed}:{index}"
                        out[key] = _plain(instance_to_json(generate_instance(theorem, spec,
                                                                             index)))
    return out


# path -> (the values of one set for one theorem, the sets)
GOLDEN_SETS = {GOLDEN_SUITES: (_suites, SUITE_SETS), GOLDEN_INSTANCES: (_instances, INSTANCE_SETS)}
SET_CASES = [(path, name, theorem) for path, (_, sets) in GOLDEN_SETS.items()
             for name, pinned in sets.items() for theorem in pinned.get("theorems", THEOREM_IDS)]


@pytest.mark.parametrize("path, name, theorem", SET_CASES,
                         ids=[f"{name}-{theorem}" for _, name, theorem in SET_CASES])
def test_set_matches_golden(path, name, theorem):
    values, sets = GOLDEN_SETS[path]
    recorded = json.loads(path.read_text())[name]
    assert recorded["spec"] == sets[name]
    want = {key: value for key, value in recorded["values"].items()
            if key.split(" ", 1)[0] == theorem}
    assert mismatches(values(sets[name], theorem), want) == []


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
    assert mismatches(_suite(theorem, function), golden[(theorem, function)]) == []


def test_refused_suites_stay_refused():
    for case in _load()["refused"]:
        with pytest.raises(Error) as info:
            run_suite(InstanceSpec(function=case["function"], **SPEC), case["theorem"])
        assert f"{type(info.value).__name__}: {info.value}" == case["error"]


def _write_margins():
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


def write_golden():
    _write_margins()
    for path, (values, sets) in GOLDEN_SETS.items():
        blocks = []
        for name, pinned in sets.items():
            # one value a line, as in golden_margins.json
            lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                               for theorem in pinned.get("theorems", THEOREM_IDS)
                               for key, value in values(pinned, theorem).items())
            blocks.append(f'{json.dumps(name)}: {{"spec": {json.dumps(pinned)},\n'
                          f'"values": {{\n{lines}\n}}}}')
        path.write_text("{" + ",\n".join(blocks) + "}\n")


if __name__ == "__main__":
    sys.exit(write_golden())
