"""The same-machine equivalence sweep (tests/sweep.py) on a small grid."""

import json

import numpy as np

import sweep

SMALL = dict(theorems=["t1", "t4"], functions=["exp", "neg_sqrt@0,1e8"],
             shapes=[(2, (-1.0, 2.0))], maps=["identity", "compress:9"])


def test_a_grid_run_twice_compares_equal_and_a_moved_record_is_reported(tmp_path, capsys):
    parent, change = sweep.run(sweep.grid(**SMALL)), sweep.run(sweep.grid(**SMALL))
    assert list(parent) == [
        f"{t} {f} n=2 [-1,2] {m}" for t in ("t1", "t4") for f in ("exp", "neg_sqrt@0,1e8")
        for m in ("identity", "compress:9")]
    assert parent["t1 exp n=2 [-1,2] compress:9"].startswith("refused: BadParams: ")
    assert sweep.moved(parent, change) == []

    key = "t1 exp n=2 [-1,2] identity"
    report = json.loads(change[key])
    margin = report["records"][2]["margin"]
    report["records"][2]["margin"] = float(np.nextafter(margin, np.inf))
    change[key] = json.dumps(report, sort_keys=True, separators=(",", ":"))
    del change["t4 exp n=2 [-1,2] identity"]
    assert [(k, what.partition(":")[0]) for k, what in sweep.moved(parent, change)] == [
        (key, "record 2"), ("t4 exp n=2 [-1,2] identity", "only in parent")]

    paths = []
    for name, results in (("parent", parent), ("change", change)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(results))
    assert sweep.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert sweep.main(["--compare", *map(str, paths)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "8 parent and 8 change suites: 0 moved"
    assert out[1].startswith(f"{key}: record 2: ") and repr(margin) in out[1]
    assert out[-1] == "8 parent and 7 change suites: 2 moved"
