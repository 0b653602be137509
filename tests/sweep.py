"""Same-machine equivalence sweep: run a fixed grid of suites against one
copy of the package, and compare two such runs record by record.

    python tests/sweep.py SRC OUT.json
    python tests/sweep.py --compare PARENT.json CHANGE.json

The first form imports hhmat from the directory SRC (the one that holds the
``hhmat`` package, such as ``src`` of a checkout or of a ``git archive`` of
another commit), runs every suite of the grid serially, and writes, keyed by
suite, each suite's ``to_json()`` or, for a suite the package refuses, the
text of its error.  The second form prints every suite and every record that
moved between two such files, and exits 1 if any moved, else 0.

The grid: every theorem id; every descriptor of CATALOG_DESCRIPTORS and
EXTRA_FUNCTIONS; the sizes and intervals of SHAPES; the maps of MAPS for a
suite that takes a map, the identity for one that does not; seed SEED and
TRIALS trials each.  Margins are compared bit for bit, and their last bits
follow the BLAS kernels, so run both sides on the same machine.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

EXTRA_FUNCTIONS = ("power:1.5@0,3", "neg_sqrt@0,1e8", "inverse@0.1,5", "xlogx@0,10",
                   "power:2@0.2,3")
SHAPES = ((4, (0.0, 2.0)), (3, (0.5, 2.0)), (2, (-1.0, 2.0)), (3, (0.1, 2.9)))
MAPS = ("identity", "pinch", "congruence", "subcongruence", "compress:2")
SEED, TRIALS = 3, 5


def grid(theorems=None, functions=None, shapes=SHAPES, maps=MAPS):
    """(key, theorem, InstanceSpec) of each suite; theorems and functions
    default to every theorem id and every catalog and extra descriptor."""
    from hhmat.funcat import CATALOG_DESCRIPTORS
    from hhmat.harness import THEOREM_IDS, THEOREMS, InstanceSpec

    for theorem in theorems or THEOREM_IDS:
        for function in functions or CATALOG_DESCRIPTORS + EXTRA_FUNCTIONS:
            for (n, interval), map_desc in itertools.product(
                    shapes, maps if THEOREMS[theorem].takes_map else ("identity",)):
                key = f"{theorem} {function} n={n} [{interval[0]:g},{interval[1]:g}] {map_desc}"
                yield key, theorem, InstanceSpec(n=n, interval=interval, function=function,
                                                 map_desc=map_desc, trials=TRIALS, seed=SEED)


def run(suites) -> dict[str, str]:
    """Each suite's to_json(), or "refused: " and its package error."""
    from hhmat.errors import Error
    from hhmat.harness import run_suite

    results = {}
    for key, theorem, spec in suites:
        try:
            results[key] = run_suite(spec, theorem).to_json()
        except Error as exc:
            results[key] = f"refused: {type(exc).__name__}: {exc}"
    return results


def _canonical(value) -> str:
    # text equality, so that -0.0 and 0.0 differ as their bits do
    return json.dumps(value, sort_keys=True)


def moved(parent: dict[str, str], change: dict[str, str]) -> list[tuple[str, str]]:
    """(suite key, what moved) for each suite that is on one side only or
    was refused on either side and moved, and for each moved record or other
    report field, compared by content."""
    found = []
    for key in [*parent, *(k for k in change if k not in parent)]:
        old, new = parent.get(key), change.get(key)
        if old == new:
            continue
        if old is None or new is None:
            found.append((key, f"only in {'change' if old is None else 'parent'}"))
            continue
        if old.startswith("refused: ") or new.startswith("refused: "):
            found.append((key, f"{old} -> {new}"))
            continue
        old, new = json.loads(old), json.loads(new)
        old_records, new_records = old.pop("records"), new.pop("records")
        for i, (a, b) in enumerate(itertools.zip_longest(old_records, new_records)):
            if _canonical(a) != _canonical(b):
                found.append((key, f"record {i}: {_canonical(a)} -> {_canonical(b)}"))
        for name in sorted(old.keys() | new.keys()):
            if _canonical(old.get(name)) != _canonical(new.get(name)):
                found.append((key, f"field {name!r} moved"))
    return found


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        parent, change = (json.loads(Path(path).read_text()) for path in argv[1:])
        found = moved(parent, change)
        for key, what in found:
            print(f"{key}: {what}")
        print(f"{len(parent)} parent and {len(change)} change suites: "
              f"{len({key for key, _ in found})} moved")
        return 1 if found else 0
    if len(argv) == 2 and not argv[0].startswith("-"):
        sys.path.insert(0, str(Path(argv[0]).resolve()))
        import hhmat

        results = run(grid())
        Path(argv[1]).write_text(json.dumps(results, indent=0))
        print(f"{len(results)} suites of {Path(hhmat.__file__).parent} written to {argv[1]}")
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
