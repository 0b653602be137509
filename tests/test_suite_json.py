"""Fixed-seed suite JSON, byte for byte, against recorded hashes.

``data/suite_sha256.json`` holds, for every theorem id, each function,
interval size and map in SPEC (seed 3, 6 trials), the sha256 of
``run_suite(...).to_json()``, or the error text of a suite that run_suite
refuses.  It was recorded before the spectral path began to decompose a
quadrature's first two rules in one stream, each checker's operands in one
solver call and to read the domain off the extreme eigenvalues; a change to
how results are computed, not to what they are, must leave every byte as
it was.  The n=1 size, whose 1x1 sums (trace's scalar case among them)
are the ones a pairwise sum would round differently, was recorded before
the quadrature began to sum a stack's images in one pass.  Its jensen
suites and bourin's n=1 suites were recorded again when jensen became
bourin's comparison into 1x1 matrices, which moved jensen margins in their
last bits and judges bourin at n=1 without an increasing f.

``data/suite_sha256_n48.json`` holds the same for SPEC_N48, every theorem
id at n=48 (seed 3, 2 trials), where a decomposition stack and a
quadrature run hold one matrix each; it was recorded before every solver
call began to give its matrices a stack of their own.

``data/suite_sha256_maps.json`` holds the same for SPEC_MAPS, every theorem
id at n=4 (seed 3, 6 trials) under the maps SPEC leaves out: a compression
and a congruence sum to another size, where Phi(A) and Phi(B) are
decomposed in a stack of their own size apart from A and B, and a
subunital congruence sum, which t1, t3 and jensen judge under case (ii)
for power:2@0,inf.  It was recorded before the spectral core stopped
letting the checkers group their operands into stacks, and its jensen
suites again with SPEC's.

Regenerate the three files, only when a change is meant to alter results, with

    PYTHONPATH=src python tests/test_suite_json.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from hhmat.errors import Error
from hhmat.harness import THEOREM_IDS, InstanceSpec, run_suite

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "suite_sha256.json"
SPEC = {"functions": ["exp", "power:2", "inverse", "xlogx"],
        "sizes": [[6, [0.0, 2.0]], [4, [0.5, 2.0]], [1, [0.5, 2.0]]],
        "maps": ["identity", "pinch", "congruence"],
        "seed": 3, "trials": 6}
GOLDEN_N48 = DATA / "suite_sha256_n48.json"
SPEC_N48 = {"functions": ["exp"], "sizes": [[48, [0.5, 2.0]]],
            "maps": ["identity", "congruence"], "seed": 3, "trials": 2}
GOLDEN_MAPS = DATA / "suite_sha256_maps.json"
SPEC_MAPS = {"functions": ["exp", "power:2@0,inf"], "sizes": [[4, [0.5, 2.0]]],
             "maps": ["compress:2", "congruence:2,3", "subcongruence"],
             "seed": 3, "trials": 6}


def _outcomes(pinned: dict) -> dict[str, str]:
    out = {}
    for theorem in THEOREM_IDS:
        for function in pinned["functions"]:
            for n, interval in pinned["sizes"]:
                for map_desc in pinned["maps"]:
                    spec = InstanceSpec(n=n, interval=tuple(interval), function=function,
                                        map_desc=map_desc, trials=pinned["trials"],
                                        seed=pinned["seed"])
                    key = f"{theorem} {function} n={n} {interval} {map_desc}"
                    try:
                        text = run_suite(spec, theorem).to_json()
                    except Error as exc:
                        out[key] = f"refused {type(exc).__name__}: {exc}"
                        continue
                    out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_suite_json_matches_the_recorded_bytes():
    data = json.loads(GOLDEN.read_text())
    assert data["spec"] == SPEC
    assert _outcomes(SPEC) == data["outcomes"]


def test_n48_suite_json_matches_the_recorded_bytes():
    data = json.loads(GOLDEN_N48.read_text())
    assert data["spec"] == SPEC_N48
    assert _outcomes(SPEC_N48) == data["outcomes"]


def test_resizing_and_subunital_map_suite_json_matches_the_recorded_bytes():
    data = json.loads(GOLDEN_MAPS.read_text())
    assert data["spec"] == SPEC_MAPS
    assert _outcomes(SPEC_MAPS) == data["outcomes"]


def write_golden():
    for path, pinned in ((GOLDEN, SPEC), (GOLDEN_N48, SPEC_N48), (GOLDEN_MAPS, SPEC_MAPS)):
        path.write_text(json.dumps({"spec": pinned, "outcomes": _outcomes(pinned)}, indent=1,
                                   sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(write_golden())
