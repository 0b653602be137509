"""Exit codes and output of the command line interface.

0: every check passed or was hypothesis-skipped; 1: at least one inequality
violation (or a recorded failure on replay); 2: usage error.
"""

from __future__ import annotations

import csv
import json

import pytest

from conftest import wide_factor_map
from hhmat import cli, hhcheck
from hhmat.harness import (
    THEOREM_IDS,
    THEOREMS,
    InstanceSpec,
    generate_instance,
    instance_to_json,
    random_hermitian,
)
from hhmat.matcore import matrix_to_json


def test_passing_suite_exits_0(capsys):
    code = cli.main(["verify", "--theorem", "t4", "--f", "exp", "--interval", "0.5,2",
                     "--n", "3", "--trials", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "t4: trials=4 passes=4 skips=0 failures=0" in out


def test_replay_of_a_failing_instance_exits_1(tmp_path, capsys):
    spec = InstanceSpec(n=4, interval=(0.5, 2.0), function="exp", trials=1, seed=0)
    inst = generate_instance("t4", spec, 0)
    inst["b"] = matrix_to_json(random_hermitian(3, 0.5, 2.0, 1))  # a is 4x4
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    assert cli.main(["replay", str(path)]) == 1
    assert "t4 seed=[0, 0]: fail margin=n/a DimMismatch" in capsys.readouterr().out


def test_replay_of_an_instance_missing_a_field_exits_1(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"theorem": "t4", "f": "exp"}))
    assert cli.main(["replay", str(path)]) == 1
    captured = capsys.readouterr()
    assert "t4 seed=None: fail margin=n/a BadParams: instance has no field 'map'" in captured.out
    assert captured.err == ""


def test_suite_with_failures_prints_and_writes_replayable_instances(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = cli.main(["verify", "--theorem", "t4", "--f", "exp", "--interval", "0.5,2",
                     "--n", "3", "--trials", "2", "--map", wide_factor_map(tmp_path),
                     "--json", str(report)])
    out = capsys.readouterr().out
    assert code == 1
    printed = [json.loads(line) for line in out.splitlines() if line.startswith("  {")]
    assert printed == [fail["instance"] for fail in json.loads(report.read_text())["failures"]]
    assert len(printed) == 2
    assert cli.main(["replay", str(report)]) == 1


def test_replay_of_a_passing_instance_exits_0(tmp_path):
    spec = InstanceSpec(n=3, interval=(0.5, 2.0), function="exp", trials=1, seed=0)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_json(generate_instance("t4", spec, 0))))
    assert cli.main(["replay", str(path)]) == 0


def test_power_norm_with_a_non_power_function_exits_2(capsys):
    code = cli.main(["verify", "--theorem", "power_norm", "--f", "exp", "--trials", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "needs a power function" in captured.err
    assert "FAIL" not in captured.out


def test_json_output_is_identical_across_worker_counts(tmp_path):
    paths = []
    for workers in ("1", "2"):
        path = tmp_path / f"workers{workers}.json"
        code = cli.main(["verify", "--theorem", "norm_chain", "--f", "exp",
                         "--interval", "0.5,2", "--n", "3", "--trials", "6", "--seed", "9",
                         "--workers", workers, "--json", str(path)])
        assert code == 0
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert json.loads(first)["trials"] == 6


def test_malformed_function_descriptor_exits_2(capsys):
    code = cli.main(["verify", "--theorem", "t4", "--f", "power:abc", "--trials", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: cannot parse function descriptor 'power:abc'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("option", [["--quad-nodes", "0"], ["--quad-nodes", "2048"],
                                    ["--quad-rtol", "0"]])
def test_quadrature_out_of_range_exits_2(option, capsys):
    code = cli.main(["verify", "--theorem", "t4", "--f", "exp", "--trials", "3", *option])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.out == ""


def test_replay_of_a_missing_or_non_json_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert cli.main(["replay", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["replay", str(broken)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")
    scalar = tmp_path / "scalar.json"
    scalar.write_text("5")
    assert cli.main(["replay", str(scalar)]) == 2
    assert "not a JSON object" in capsys.readouterr().err


# exp meets every hypothesis on [0.5, 2] except the operator convexity the
# chain needs and the power the power-norm corollary needs
@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_verify_judges_every_trial(theorem, capsys):
    function = "power:2" if theorem in ("chain", "power_norm") else "exp"
    code = cli.main(["verify", "--theorem", theorem, "--f", function, "--interval", "0.5,2",
                     "--n", "3", "--trials", "4", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert " skips=0 failures=0 " in out


def test_verify_passes_k_and_p_to_the_chain_instances(monkeypatch, capsys):
    seen = []
    check = hhcheck.check_refinement_chain

    def spy(f, a, b, k, p, *args):
        seen.append((k, p))
        return check(f, a, b, k, p, *args)

    monkeypatch.setattr(hhcheck, "check_refinement_chain", spy)
    code = cli.main(["verify", "--theorem", "chain", "--f", "power:2", "--interval", "0.5,2",
                     "--k", "3", "--p", "2", "--n", "3", "--trials", "2"])
    assert code == 0
    assert seen == [(3, 2), (3, 2)]
    assert "chain: trials=2 passes=2" in capsys.readouterr().out


def test_chain_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["chain", "--f", "power:2", "--k", "2", "--p", "1"])
    assert info.value.code == 2
    assert "invalid choice: 'chain'" in capsys.readouterr().err


MAP_FREE = ("scalar", "trace", "bourin", "chain", "counterexample")


def test_the_registry_marks_the_map_free_suites():
    assert {t for t, entry in THEOREMS.items() if not entry.takes_map} == set(MAP_FREE)


@pytest.mark.parametrize("theorem", MAP_FREE)
def test_map_given_to_a_map_free_suite_exits_2(theorem, capsys):
    code = cli.main(["verify", "--theorem", theorem, "--f", "exp", "--map", "compress:2",
                     "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: the {theorem} suite takes no map, got 'compress:2'" in captured.err
    assert captured.out == ""


def test_explicit_identity_map_is_accepted_by_a_map_free_suite():
    assert cli.main(["verify", "--theorem", "trace", "--f", "exp", "--map", "identity",
                     "--trials", "2"]) == 0


def _instance(theorem: str) -> dict:
    spec = InstanceSpec(n=2, interval=(0.5, 2.0), function="exp", trials=1, seed=0)
    return instance_to_json(generate_instance(theorem, spec, 0))


def _replaced(theorem: str, key: str, value):
    """An edit that turns the instance into the theorem's, with key set to value."""
    def edit(inst):
        inst.clear()
        inst.update(_instance(theorem), **{key: value})
    return edit


def _without(literal: dict, key: str) -> dict:
    return {k: v for k, v in literal.items() if k != key}


FACTOR = {"rows": 2, "cols": 2, "re": [[1.0, 0.0], [0.0, 1.0]]}
MAP_LITERALS = {
    "identity": ("n", {"kind": "identity", "n": 2}),
    "compression": ("v", {"kind": "compression", "v": FACTOR}),
    "pinching": ("blocks", {"kind": "pinching", "blocks": [[0], [1]]}),
    "congruence": ("factors", {"kind": "congruence", "factors": [FACTOR]}),
}


@pytest.mark.parametrize("edit, detail", [
    (lambda inst: inst["a"].pop("n"), "BadParams: matrix literal has no field 'n'"),
    (lambda inst: inst["a"]["re"][0].__setitem__(0, float("nan")),
     "NonFiniteEntries: matrix entries must be finite, got NaN or infinity"),
    *[(lambda inst, key=key, literal=literal: inst.__setitem__("map", _without(literal, key)),
       f"BadParams: {kind} map literal has no field {key!r}")
      for kind, (key, literal) in MAP_LITERALS.items()],
    *[(lambda inst, key=key: inst.__setitem__(
        "map", {"kind": "congruence", "factors": [_without(FACTOR, key)]}),
       f"BadParams: factor literal has no field {key!r}") for key in FACTOR],
    # a field of the wrong type or shape
    (_replaced("jensen", "x", {}), "BadParams: vector literal has no field 're'"),
    (_replaced("jensen", "x", 5), "BadParams: vector literal has no field 're'"),
    (_replaced("jensen", "x", {"re": [1.0]}),
     "BadParams: vector literal field 're' is not a number grid of shape (2,)"),
    (_replaced("t4", "map", 5), "BadParams: map literal 5 is not an object"),
    (_replaced("t4", "map", {"kind": "pinching", "blocks": 5}),
     "BadParams: pinching map literal field 'blocks' is not a list of list"),
    (_replaced("t4", "map", {"kind": "identity", "n": "x"}),
     "BadParams: identity map literal field 'n' is not a positive integer: 'x'"),
    (_replaced("t4", "map", {"kind": "compression", "v": {**FACTOR, "rows": 3}}),
     "BadParams: factor literal field 're' is not a number grid of shape (3, 2)"),
    (lambda inst: inst["a"].__setitem__("re", 5),
     "BadParams: matrix literal field 're' is not a number grid of shape (2, 2)"),
    (lambda inst: inst["a"].__setitem__("im", 5),
     "BadParams: matrix literal field 'im' is not a number grid of shape (2, 2)"),
    (_replaced("t4", "quad_nodes", "x"),
     "BadParams: instance field 'quad_nodes' is not a positive integer: 'x'"),
    (_replaced("t4", "quad_nodes", 0),
     "BadParams: instance field 'quad_nodes' is not a positive integer: 0"),
    (_replaced("t4", "interval", 5),
     "BadParams: instance field 'interval' is not a number grid of shape (2,)"),
    (_replaced("t4", "interval", [1.0]),
     "BadParams: instance field 'interval' is not a number grid of shape (2,)"),
    (_replaced("norm_chain", "specs", 5), "BadParams: instance field 'specs' is not a list of str"),
    (_replaced("norm_chain", "specs", [5]),
     "BadParams: instance field 'specs' is not a list of str"),
    (_replaced("scalar", "xy", [1.0]),
     "BadParams: instance field 'xy' is not a number grid of shape (2,)"),
    (_replaced("chain", "k", "x"), "BadParams: instance field 'k' is not a positive integer: 'x'"),
    (_replaced("bourin", "maps", 5), "BadParams: instance field 'maps' is not a list of dict"),
])
def test_replay_of_a_malformed_literal_is_a_failed_trial(tmp_path, capsys, edit, detail):
    inst = _instance("t4")
    edit(inst)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst))  # NaN is written as the JSON extension NaN
    assert cli.main(["replay", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"{inst['theorem']} seed=[0, 0]: fail margin=n/a {detail}\n" == captured.out
    assert captured.err == ""


def test_replayed_vector_literal_without_im_is_real(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({**_instance("jensen"), "x": {"re": [0.6, 0.8]}}))
    assert cli.main(["replay", str(path)]) == 0
    assert capsys.readouterr().out.startswith("jensen seed=[0, 0]: pass margin=")


def test_replay_of_a_report_without_failures_says_so(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert cli.main(["verify", "--theorem", "t4", "--f", "exp", "--interval", "0.5,2",
                     "--n", "3", "--trials", "2", "--json", str(report)]) == 0
    capsys.readouterr()
    assert cli.main(["replay", str(report)]) == 0
    assert capsys.readouterr().out == "no failed trials to replay\n"


def test_replay_of_a_failure_entry_without_an_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"failures": [{"trial": 0}]}))
    assert cli.main(["replay", str(path)]) == 2
    assert "error: failure entry has no field 'instance'" in capsys.readouterr().err


def test_alpha_prints_the_chord_ratio_constant(capsys):
    assert cli.main(["alpha", "--f", "exp", "--interval", "0.5,2"]) == 0
    assert capsys.readouterr().out == (
        "alpha=1.3137397067311165 argmax_t=1.0691746129448738 interval=[0.5,2]\n")


def test_verify_writes_one_csv_row_per_trial(tmp_path):
    # t3 under a random pinching: 4 passes and 2 trials whose uniform
    # unitary hypothesis fails
    paths = {ext: tmp_path / f"report.{ext}" for ext in ("json", "csv")}
    assert cli.main(["verify", "--theorem", "t3", "--f", "exp", "--interval", "0.5,2",
                     "--map", "pinch", "--n", "3", "--trials", "6", "--seed", "1",
                     "--json", str(paths["json"]), "--csv", str(paths["csv"])]) == 0
    records = json.loads(paths["json"].read_text())["records"]
    with open(paths["csv"], newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["theorem", "trial", "seed", "verdict", "margin"]
    assert [row[:4] for row in rows] == [
        ["t3", str(rec["trial"]), rec["seed"], rec["verdict"]] for rec in records]
    assert sorted(row[3] for row in rows) == ["pass"] * 4 + ["skip"] * 2
    for row, rec in zip(rows, records):
        assert row[4] == ("" if rec["verdict"] == "skip" else repr(rec["margin"]))
        assert rec["margin"] is None or float(row[4]) == rec["margin"]
