"""Exit codes and output of the command line interface.

0: every check passed or was hypothesis-skipped; 1: at least one inequality
violation (or a recorded failure on replay); 2: usage error.
"""

from __future__ import annotations

import json

from conftest import wide_factor_map
from hhmat import cli
from hhmat.harness import InstanceSpec, generate_instance, instance_to_json, random_hermitian
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
