"""Exit codes and output of the command line interface.

0: every check passed or was hypothesis-skipped; 1: at least one inequality
violation (or a recorded failure on replay); 2: usage error or input the
command refuses, with one "error:" line on stderr.  Every contract of the
installed console script is checked here, in process through cli.main, except
the one run of ``python -m hhmat`` that reaches __main__ and sys.argv.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import wide_factor_map
from hhmat import cli, harness, hhcheck
from hhmat.funcat import CATALOG_DESCRIPTORS
from hhmat.harness import (
    THEOREM_IDS,
    THEOREMS,
    InstanceSpec,
    SuiteReport,
    generate_instance,
    instance_to_json,
    make_map,
    random_hermitian,
)
from hhmat.matcore import matrix_to_json
from hhmat.plmaps import CongruenceSum, factor_to_json

DATA = Path(__file__).parent / "data"


def test_passing_suite_exits_0(capsys):
    code = cli.main(["verify", "--theorem", "t4", "--f", "exp", "--interval", "0.5,2",
                     "--n", "3", "--trials", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "t4: trials=4 passes=4 skips=0 failures=0 judged=4/4 " in out
    assert "skipped:" not in out


def test_suite_that_judges_nothing_says_so_and_exits_0(capsys):
    # the default f, power:2, is not positive at 0, which the default [0, 2] holds
    code = cli.main(["verify", "--theorem", "t4", "--trials", "5"])
    captured = capsys.readouterr()
    assert code == 0
    assert " skips=5 failures=0 judged=0/5 " in captured.out
    assert "\n  skipped: 5x power:2(0) = 0 is not positive\n" in captured.out
    assert captured.err == "warning: the t4 suite judged none of its 5 trials\n"


def test_overflowing_suite_fails_every_trial_quietly(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    code = cli.main(["verify", "--theorem", "t1", "--f", "power:2", "--interval", "0,1e155",
                     "--n", "3", "--trials", "2", "--json", str(path)])
    assert code == 1
    assert capsys.readouterr().err == ""
    records = json.loads(path.read_text())["records"]
    assert [r["detail"].partition(":")[0] for r in records] == ["NonFiniteEntries"] * 2


def test_skip_reasons_are_ordered_by_count_then_text():
    records = [{"trial": i, "verdict": "skip", "margin": None, "detail": d}
               for i, d in enumerate(["b", "c", "a", "b", "d", "c"])]
    report = SuiteReport(theorem="t3", spec=InstanceSpec(),
                         records=records + [{"trial": 6, "verdict": "pass", "margin": 0.5}])
    assert (report.trials, report.passes, report.skips, report.judged) == (7, 1, 6, 1)
    assert report.worst_margin == 0.5
    assert report.summary().splitlines()[1] == "  skipped: 2x b; 2x c; 1x a"


def test_counterexample_is_reproduced_exactly(tmp_path, capsys):
    path = tmp_path / "ce.json"
    assert cli.main(["counterexample", "--json", str(path)]) == 0
    assert "counterexample reproduced exactly\n" in capsys.readouterr().out
    payload = json.loads(path.read_text())
    assert payload["passes"] is True
    assert (payload["left_gap_det"], payload["right_gap_det"]) == ("-1/36", "-1/9")


# t4 applies its map to b first; trace and chain add a and b; bourin applies
# its first map, which expects 4x4, to a_list[0]
@pytest.mark.parametrize("theorem", ["t4", "trace", "chain", "bourin"])
def test_replay_of_a_failing_instance_exits_1(tmp_path, capsys, theorem):
    function = "power:2" if theorem == "chain" else "exp"  # the chain needs operator convexity
    spec = InstanceSpec(n=4, interval=(0.5, 2.0), function=function, trials=1, seed=0)
    inst = generate_instance(theorem, spec, 0)
    small = matrix_to_json(random_hermitian(3, 0.5, 2.0, 1))  # the others are 4x4
    if theorem == "bourin":
        inst["a_list"][0] = small
    else:
        inst["b"] = small
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    assert cli.main(["replay", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"{theorem} seed=[0, 0]: fail margin=n/a DimMismatch")
    assert out.count("\n") == 1


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
    # each instance follows the line replay prints for it, which used to carry no detail
    said = [line for line in out.splitlines() if line.startswith("  t4 ")]
    assert said == [f"  t4 seed=[0, {k}]: fail margin=n/a DimMismatch: map expects dim 4, got 3"
                    for k in range(2)]
    assert cli.main(["replay", str(report)]) == 1
    assert capsys.readouterr().out.splitlines() == [line[2:] for line in said]


def _refuse_constant(text):
    raise ValueError(f"not JSON: {text}")


@pytest.mark.parametrize("theorem, interval, detail", [
    # <f(A) x, x> overflows: the functional's image of f(A) has no finite entry
    ("jensen", "0,1e155", "NonFiniteEntries: matrix entries must be finite, got NaN or infinity"),
    # each eigenvalue of f is finite, the traces are not: inf - inf is the margin
    ("trace", "1e154,1.3e154", "NonFiniteEntries: the margin nan is not finite"),
])
def test_a_margin_that_is_not_finite_fails_with_a_detail(theorem, interval, detail,
                                                         tmp_path, capsys):
    # such a margin was NaN, recorded as a bare NaN with no detail
    path = tmp_path / f"{theorem}.json"
    code = cli.main(["verify", "--theorem", theorem, "--f", "power:2@0,inf", "--interval",
                     interval, "--n", "3", "--trials", "2", "--json", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert f"  {theorem} seed=[0, 1]: fail margin=n/a {detail}\n" in out
    report = json.loads(path.read_text(), parse_constant=_refuse_constant)
    assert [(r["margin"], r["detail"]) for r in report["records"]] == [(None, detail)] * 2
    assert report["worst_margin"] is None


def test_t1_on_a_psd_power_outside_the_domain_of_f_skips_and_exits_0(capsys):
    # the power-norm corollary: spectra in [0, 5] leave [0, 3], so every trial skips
    code = cli.main(["verify", "--theorem", "t1", "--f", "power:2@0,3",
                     "--interval", "0,5", "--trials", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert " skips=3 failures=0 judged=0/3 " in out
    assert "\n  skipped: 3x spectrum of A leaves domain [0, 3] of power:2; " in out


# A domain's closed end admits orders.tolerance(|end|) beyond it, not a share
# of its width: [0, 1e8] once admitted spectra down to -0.1, clipped f there,
# and t1, trace and chain read 6 NoConvergence failures each and jensen 20
# passes.  Restricted or not, neg_sqrt skips the spectra that leave [0, inf).
@pytest.mark.parametrize("theorem, passes, skips", [
    ("t1", 14, 6), ("trace", 14, 6), ("jensen", 16, 4), ("chain", 14, 6)])
def test_a_wide_restricted_domain_skips_the_spectra_that_leave_it(theorem, passes, skips,
                                                                  capsys):
    for f, domain in (("neg_sqrt@0,1e8", "[0, 1e+08]"), ("neg_sqrt", "[0, inf]")):
        assert cli.main(["verify", "--theorem", theorem, "--f", f, "--interval", "-0.05,2",
                         "--trials", "20", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert f" trials=20 passes={passes} skips={skips} failures=0 " in out
        assert f" leaves domain {domain} of neg_sqrt" in out


@pytest.mark.parametrize("theorem, n, map_desc", [
    ("t4", 3, "identity"), ("t4", 4, "compress:2"), ("t1", 4, "pinch:2,2"),
], ids=["t4", "t4-compress:2", "t1-pinch:2,2"])
def test_replay_of_a_passing_instance_exits_0(tmp_path, capsys, theorem, n, map_desc):
    spec = InstanceSpec(n=n, interval=(0.5, 2.0), function="exp", map_desc=map_desc, trials=1,
                        seed=0)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_json(generate_instance(theorem, spec, 0))))
    assert cli.main(["replay", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{theorem} seed=[0, 0]: pass margin=") and out.count("\n") == 1


# the generator refuses it in the first trial, in a worker process too
@pytest.mark.parametrize("args, work", [
    (["verify", "--theorem", "t4", "--f", "exp", "--interval", "0.5,2", "--trials", "2"],
     (harness, "run_suite")),
    (["counterexample"], (hhcheck, "reproduce_counterexample")),
], ids=["verify", "counterexample"])
def test_a_json_file_that_cannot_be_opened_stops_the_command_before_it_runs(
        args, work, tmp_path, capsys, monkeypatch):
    # the file is opened first, so no trial runs and no summary is printed
    ran = []
    real = getattr(*work)
    monkeypatch.setattr(*work, lambda *a, **k: ran.append(a) or real(*a, **k))
    assert cli.main([*args, "--json", str(tmp_path / "missing" / "out.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert ran == []


def test_a_json_file_is_replaced_once_the_suite_ends(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("an earlier report, longer than the one that replaces it " * 100)
    args = ["verify", "--theorem", "t4", "--f", "exp", "--interval", "0.5,2", "--trials", "2"]
    assert cli.main([*args, "--json", str(path)]) == 0
    assert json.loads(path.read_text())["passes"] == 2


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_spec_the_generator_refuses_exits_2(workers, capsys):
    code = cli.main(["verify", "--theorem", "t1", "--n", "4", "--map", "compress:9",
                     "--trials", "3", "--workers", workers])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("error: map descriptor 'compress:9' asks for m=9 > n=4: "
                            "an isometry into C^4 has at most 4 columns\n")
    assert captured.out == ""


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


@pytest.mark.parametrize("f, message", [
    ("power:inf", "power parameter inf is not finite"),
    ("affine:nan,0", "affine parameter nan is not finite"),
    ("affine:inf,0", "affine parameter inf is not finite"),
    ("affine:1,nan", "affine parameter nan is not finite")])
def test_a_function_parameter_that_is_not_finite_exits_2(f, message, capsys):
    # a usage error, not a suite whose every trial fails with NonFiniteEntries
    code = cli.main(["verify", "--theorem", "t1", "--f", f, "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n" and captured.out == ""


# an rtol of 1 or more would stop the node doubling at its first comparison
@pytest.mark.parametrize("option", [["--quad-nodes", "0"], ["--quad-nodes", "2048"],
                                    ["--quad-rtol", "0"], ["--quad-rtol", "inf"],
                                    ["--quad-rtol", "1"]])
def test_quadrature_out_of_range_exits_2(option, capsys):
    code = cli.main(["verify", "--theorem", "t4", "--f", "exp", "--trials", "3", *option])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
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


# exp meets every hypothesis on [0.5, 2] except the operator convexity the chain needs
JUDGED_SUITES = [
    *[pytest.param(["--theorem", theorem, "--f", "power:2" if theorem == "chain" else "exp",
                    "--interval", "0.5,2", "--n", "3", "--trials", "4", "--seed", "2"], id=theorem)
      for theorem in THEOREM_IDS],
    # at the default size and seed, under maps that resize, and with a chain of 4 panels
    pytest.param(["--theorem", "t4", "--f", "exp", "--interval", "0.5,2", "--n", "4",
                  "--map", "compress:2", "--trials", "3"], id="t4-compress:2"),
    pytest.param(["--theorem", "t1", "--f", "exp", "--interval", "0.5,2", "--n", "4",
                  "--map", "pinch:2,2", "--trials", "3"], id="t1-pinch:2,2"),
    pytest.param(["--theorem", "bourin", "--f", "exp", "--interval", "0.5,2", "--trials", "3"],
                 id="bourin-n4"),
    # into 1x1 matrices bourin is Jensen's inequality, which asks no increasing f
    pytest.param(["--theorem", "bourin", "--f", "inverse", "--interval", "0.5,2", "--n", "1",
                  "--trials", "4"], id="bourin-n1-inverse"),
    pytest.param(["--theorem", "norm_chain", "--f", "exp", "--interval", "0.5,2", "--n", "4",
                  "--trials", "3"], id="norm_chain-n4"),
    # x log x is increasing on [1/e, inf), so xlogx@1,3 declares it
    pytest.param(["--theorem", "bourin", "--f", "xlogx@1,3", "--interval", "1,3", "--n", "4",
                  "--trials", "4"], id="bourin-xlogx@1,3"),
    pytest.param(["--theorem", "chain", "--f", "inverse", "--interval", "0.2,3", "--panels", "4",
                  "--trials", "3"], id="chain-inverse"),
    # a singular subunital map, Phi(I) = diag(1, 1, 0), is judged under f(0) <= 0
    pytest.param(["--theorem", "t1", "--f", "power:2@0,inf", "--interval", "0,2", "--n", "3",
                  "--map", f"congruence:{DATA / 'singular_factor.json'}", "--trials", "3"],
                 id="t1-singular-subunital"),
]


@pytest.mark.parametrize("args", JUDGED_SUITES)
def test_verify_judges_every_trial(args, capsys):
    code = cli.main(["verify", *args])
    out = capsys.readouterr().out
    assert code == 0
    assert " skips=0 failures=0 " in out


def test_verify_passes_the_panel_count_to_the_chain_instances(monkeypatch, capsys):
    seen = []
    check = hhcheck.check_refinement_chain

    def spy(f, a, b, panels, *args):
        seen.append(panels)
        return check(f, a, b, panels, *args)

    monkeypatch.setattr(hhcheck, "check_refinement_chain", spy)
    code = cli.main(["verify", "--theorem", "chain", "--f", "power:2", "--interval", "0.5,2",
                     "--panels", "9", "--n", "3", "--trials", "2"])
    assert code == 0
    assert seen == [9, 9]
    assert "chain: trials=2 passes=2" in capsys.readouterr().out


def test_chain_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["chain", "--f", "power:2", "--panels", "2"])
    assert info.value.code == 2
    assert "invalid choice: 'chain'" in capsys.readouterr().err


def test_counterexample_is_not_a_verify_theorem(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--theorem", "counterexample"])
    assert info.value.code == 2
    assert "invalid choice: 'counterexample'" in capsys.readouterr().err


# the scalar bound is the trace suite at n = 1, and the power-norm corollary
# is t1 on PSD powers; each id is refused, and so is a replay of its instance
@pytest.mark.parametrize("instance", [
    {"theorem": "scalar", "f": "exp", "interval": [0.5, 2.0], "seed": [0, 0], "xy": [0.6, 1.8]},
    {"theorem": "power_norm", "f": "power:2", "interval": [0.5, 2.0], "seed": [0, 0],
     "map": {"kind": "identity", "n": 1}, "a": {"n": 1, "re": [[0.6562052965369458]]},
     "b": {"n": 1, "re": [[1.7567325732413939]]}},
], ids=["scalar", "power_norm"])
def test_a_folded_suite_is_gone(instance, tmp_path, capsys):
    theorem = instance["theorem"]
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--theorem", theorem])
    assert info.value.code == 2
    assert f"invalid choice: '{theorem}'" in capsys.readouterr().err
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert cli.main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: unknown theorem id '{theorem}'")
    assert captured.err.count("\n") == 1 and captured.out == ""


# each ended in a traceback, or ran as something else, before it was refused
@pytest.mark.parametrize("args", [
    ["--map", "compress:abc"], ["--map", "pinch:a"], ["--map", "congruence:x"],
    ["--map", "congruence:2.5"], ["--map", "compress:0"], ["--map", "subcongruence:-1"],
    ["--n", "4", "--map", "congruence:1,9"],
    ["--theorem", "chain", "--f", "power:2", "--panels", "0"],
    ["--map", "congruence:2,3,1"], ["--map", "subcongruence:1,2,3"],
    ["--n", "4", "--map", "compress:9"],
    ["--theorem", "chain", "--f", "power:2", "--panels", "1025"],
    ["--theorem", "t4", "--quad-nodes", "600"], ["--theorem", "t4", "--interval", "0.5,inf"],
    ["--workers", "-2"], ["--workers", "0"], ["--seed", "-1"], ["--map", "identity:3"],
    # 71 PiB a draw, which numpy refuses before it takes any memory; never test an n
    # whose matrices could be allocated
    ["--n", "100000000"],
], ids=["compress:abc", "pinch:a", "congruence:x", "congruence:2.5", "compress:0",
        "subcongruence:-1", "m>k*n", "panels=0", "congruence-third-count",
        "subcongruence-third-count", "compress:9", "panels>cap", "quad-nodes>cap/2",
        "interval-inf", "workers=-2", "workers=0", "seed<0", "identity:3", "n=10**8"])
def test_malformed_verify_options_exit_2(args, capsys):
    code = cli.main(["verify", "--theorem", "t1", "--f", "exp", "--interval", "0.5,2",
                     "--trials", "3", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


MAP_FREE = ("trace", "bourin", "chain")


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


def _instance(theorem: str, n: int = 2) -> dict:
    spec = InstanceSpec(n=n, interval=(0.5, 2.0), function="exp", trials=1, seed=0)
    return instance_to_json(generate_instance(theorem, spec, 0))


def _replaced(theorem: str, key: str, value):
    """An edit that turns the instance into the theorem's, with key set to value."""
    def edit(inst):
        inst.clear()
        inst.update(_instance(theorem), **{key: value})
    return edit


def _without(literal: dict, key: str) -> dict:
    return {k: v for k, v in literal.items() if k != key}


def _older_chain(inst):
    """A chain instance in its older (k, p) form, which is never read as a panel count."""
    inst.clear()
    inst.update(_without(_instance("chain"), "panels"), k=2, p=1)


FACTOR = {"rows": 2, "cols": 2, "re": [[1.0, 0.0], [0.0, 1.0]]}
MAP_LITERALS = {
    "identity": ("n", {"kind": "identity", "n": 2}),
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
    (_replaced("t4", "map", {"kind": "pinching", "blocks": [[0], [1]]}),
     "BadParams: unknown map kind 'pinching'"),
    (_replaced("t4", "map", {"kind": "identity", "n": "x"}),
     "BadParams: identity map literal field 'n' is not a positive integer: 'x'"),
    (_replaced("t4", "map", {"kind": "congruence", "factors": [{**FACTOR, "rows": 3}]}),
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
    (_replaced("chain", "panels", "x"),
     "BadParams: instance field 'panels' is not a positive integer: 'x'"),
    (_replaced("bourin", "maps", 5), "BadParams: instance field 'maps' is not a list of dict"),
    *[(_replaced("t4", "f", f), "BadParams: instance field 'f' is not a string")
      for f in (5, None, True, [1], {})],
    (_replaced("t4", "f", "affine:nan,0"), "BadParams: affine parameter nan is not finite"),
    (_replaced("norm_chain", "specs", ["schatten:nan"]),
     "BadSpec: norm spec 'schatten:nan' is not kyfan:k (k an integer in 1..2), "
     "schatten:p (p finite, >= 1) or operator"),
    (_older_chain, "BadParams: instance has no field 'panels'"),
    (_replaced("t4", "quad_rtol", float("inf")), "BadParams: rtol must be in (0, 1), got inf"),
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


@pytest.mark.parametrize("n", [10**19, 3])
@pytest.mark.parametrize("theorem", ["t1", "t3", "jensen", "t4", "norm_chain"])
def test_replayed_identity_map_of_another_dimension_is_a_dim_mismatch(tmp_path, capsys,
                                                                      theorem, n):
    # the instance's matrices are 2x2; no identity of size n is built
    inst = {**_instance(theorem), "f": "power:2@0,inf", "map": {"kind": "identity", "n": n}}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst))
    assert cli.main(["replay", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        f"{theorem} seed=[0, 0]: fail margin=n/a DimMismatch: map expects dim {n}, got 2\n")
    assert captured.err == ""


# at n = 1 the trace chain is the scalar Hermite-Hadamard bound
def test_replayed_1x1_trace_quadrature_that_cannot_settle_is_a_failed_trial(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({**_instance("trace", n=1), "quad_nodes": 4, "quad_rtol": 1e-300}))
    assert cli.main(["replay", str(path)]) == 1
    assert capsys.readouterr().out.startswith(
        "trace seed=[0, 0]: fail margin=n/a NoConvergence: quadrature did not settle")


def test_1x1_trace_suite_honours_its_quadrature_options(capsys):
    args = ["verify", "--theorem", "trace", "--n", "1", "--f", "exp", "--interval", "0.5,2",
            "--trials", "3"]
    assert cli.main(args) == 0
    assert "trace: trials=3 passes=3 skips=0 failures=0" in capsys.readouterr().out
    # a pass can still settle bit for bit; the others hit the node cap
    assert cli.main(args + ["--quad-rtol", "1e-300"]) == 1
    assert "failures=0" not in capsys.readouterr().out


def test_verify_with_a_congruence_read_from_a_file(tmp_path, capsys, monkeypatch):
    # two 3x3 factors stacked into an isometry: a unital congruence sum
    rng = np.random.default_rng(7)
    stacked, _ = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    factors = [stacked[:3], stacked[3:]]
    path = tmp_path / "factors.json"
    path.write_text(json.dumps(instance_to_json([factor_to_json(x) for x in factors])))
    loads = []
    load = json.load
    monkeypatch.setattr(json, "load", lambda fh: loads.append(fh.name) or load(fh))
    phi = make_map(f"congruence:{path}", 3, rng)
    assert isinstance(phi, CongruenceSum)
    assert all(np.array_equal(x, y) for x, y in zip(phi.factors, factors, strict=True))
    assert cli.main(["verify", "--theorem", "t1", "--f", "exp", "--interval", "0.5,2",
                     "--n", "3", "--trials", "5", "--map", f"congruence:{path}"]) == 0
    assert "t1: trials=5 passes=5 skips=0 failures=0" in capsys.readouterr().out
    assert loads == [str(path)]  # read by make_map above, by no trial again


def test_verify_under_a_congruence_into_a_given_size_judges_every_trial(capsys):
    assert cli.main(["verify", "--theorem", "jensen", "--f", "exp", "--interval", "0.5,2",
                     "--map", "congruence:2,3", "--trials", "3"]) == 0
    assert " judged=3/3 " in capsys.readouterr().out


@pytest.mark.parametrize("content, message", [
    (None, "cannot read congruence factors from "),
    ("{not json", "cannot read congruence factors from "),
    ("5", "does not hold a list"),
])
def test_verify_with_an_unreadable_congruence_file_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "factors.json"
    if content is not None:
        path.write_text(content)
    code = cli.main(["verify", "--theorem", "t1", "--f", "exp", "--interval", "0.5,2",
                     "--trials", "5", "--map", f"congruence:{path}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1
    assert str(path) in captured.err and captured.out == ""


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


# it ended in a TypeError traceback and exit 1, the code of a violation
def test_replay_of_a_report_whose_failures_are_not_a_list_exits_2(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"failures": 5}))
    assert cli.main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: report field 'failures' is not a list of dict\n"
    assert captured.out == ""


# each ended in an AttributeError traceback from the line printing the outcome
@pytest.mark.parametrize("payload, what", [
    ({"instance": 5}, "replay input"),
    ({"instance": [1, 2]}, "replay input"),
    ({"failures": [{"instance": 7}]}, "failure entry"),
], ids=["number", "list", "failure-entry"])
def test_replay_of_an_instance_that_is_not_an_object_exits_2(tmp_path, capsys, payload, what):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {what} field 'instance' is not a JSON object\n"
    assert captured.out == ""


# each printed its result, then ended in a FileNotFoundError traceback and exit 1
@pytest.mark.parametrize("args", [
    ["verify", "--theorem", "t4", "--f", "exp", "--interval", "0.5,2", "--trials", "2"],
    ["counterexample"],
], ids=["verify", "counterexample"])
def test_a_json_file_that_cannot_be_written_exits_2(args, tmp_path, capsys):
    assert cli.main([*args, "--json", str(tmp_path / "missing" / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_alpha_prints_the_chord_ratio_constant(capsys):
    assert cli.main(["alpha", "--f", "exp", "--interval", "0.5,2"]) == 0
    assert capsys.readouterr().out == (
        "alpha=1.3137397067311165 argmax_t=1.0691746129448738 interval=[0.5,2]\n")


# 0.5,inf and 0.5,1e308 used to print alpha=nan and exit 0
@pytest.mark.parametrize("interval, message", [
    ("0.5,inf", "interval [0.5, inf] is not finite"),
    ("2,1", "empty interval [2.0, 1.0]"),
    ("nan,2", "empty interval [nan, 2.0]"),
    ("0.5,1e308", "the chord ratio of exp is not finite on [0.5, 1e+308]"),
])
def test_alpha_on_an_interval_that_is_not_one_exits_2(interval, message, capsys):
    assert cli.main(["alpha", "--f", "exp", "--interval", interval]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# 0 is no grid point of [-1, 1]: alpha used to be 3.6e25 and the exit 0
def test_alpha_on_an_interval_holding_a_zero_of_f_exits_2(capsys):
    assert cli.main(["alpha", "--f", "power:2", "--interval", "-1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: power:2(0) = 0 is not positive\n" and captured.out == ""


# a separate value starting with '-' used to read as an option
@pytest.mark.parametrize("interval", [["--interval", "-1,2"], ["--interval=-1,2"]],
                         ids=["separate", "attached"])
def test_an_interval_may_start_with_a_minus(interval, capsys):
    assert cli.main(["alpha", "--f", "exp", *interval]) == 0
    assert capsys.readouterr().out.endswith(" interval=[-1,2]\n")
    assert cli.main(["verify", "--theorem", "trace", *interval, "--trials", "3"]) == 0
    assert "trace: trials=3 passes=3 skips=0 failures=0 " in capsys.readouterr().out


def test_an_interval_option_without_a_value_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["alpha", "--f", "exp", "--interval"])
    assert info.value.code == 2
    assert "error: argument --interval: invalid _interval value: ''" in capsys.readouterr().err


def test_verify_writes_one_json_record_per_trial(tmp_path):
    # t3 under a random pinching: 4 passes and 2 trials whose uniform
    # unitary hypothesis fails
    path = tmp_path / "report.json"
    assert cli.main(["verify", "--theorem", "t3", "--f", "exp", "--interval", "0.5,2",
                     "--map", "pinch", "--n", "3", "--trials", "6", "--seed", "1",
                     "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["theorem"] == "t3"
    assert [(rec["trial"], rec["seed"]) for rec in report["records"]] == [
        (i, f"1:{i}") for i in range(6)]
    assert sorted(rec["verdict"] for rec in report["records"]) == ["pass"] * 4 + ["skip"] * 2
    for rec in report["records"]:
        assert (rec["margin"] is None) == (rec["verdict"] == "skip")


# the chain's panel count is one option, a report has one file format, and
# a map's target size is set by its descriptor
@pytest.mark.parametrize("args", [["--k", "2"], ["--p", "2"], ["--csv", "x"], ["--m", "2"]],
                         ids=["k", "p", "csv", "m"])
def test_removed_verify_options_exit_2(args, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--theorem", "chain", "--trials", "1", *args])
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(args)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main's exit code, stdout and stderr; argparse's usage error is its
    SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_exit_contract(argv: list[str], code: int, out: str, err: str):
    """Exit 0, 1 or 2 and no traceback; exit 2 prints exactly one error line."""
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out + err, argv
    if code == 2:
        assert sum("error: " in line for line in err.splitlines()) == 1, argv


# the parts of a verify command, well formed and not: intervals that are
# empty, reversed or not finite, descriptors that do not parse or do not fit
VERIFY_PARTS = {
    "theorem": (THEOREM_IDS, ["scalar", "power_norm"]),
    "function": ([*CATALOG_DESCRIPTORS, "power:400", "power:1.5@0,inf"],
                 ["power:abc", "power:", "power:inf", "affine:1", "exp@2,1", "power:2@0,nan",
                  "nope", ""]),
    "interval": (["0.5,2", "0,2", "-1,2", "0.1,3", "0,10", "0,1e308"],
                 ["2,1", "1,1", "nan,1", "0,inf", "-inf,0", "", ",", "x,1"]),
    "map": (["identity", "pinch", "congruence", "compress", "compress:2", "congruence:1,2",
             "congruence:2,3", "subcongruence"],
            ["compress:9", "identity:2", "congruence:0", "bogus", ""]),
}
VERIFY_OPTIONS = ([("--seed", "3"), ("--panels", "3"), ("--quad-nodes", "8"),
                   ("--quad-rtol", "1e-9")],
                  [("--seed", "-1"), ("--trials", "0"), ("--panels", "0"), ("--quad-nodes", "0"),
                   ("--quad-rtol", "1"), ("--quad-rtol", "nan")])


@st.composite
def verify_argv(draw) -> list[str]:
    """A verify command of size 1-6, well formed about half the time, else
    with one malformed part or option."""
    broken = draw(st.none() | st.sampled_from([*VERIFY_PARTS, "option"]))
    theorem, function, interval, map_desc = (
        draw(st.sampled_from(VERIFY_PARTS[part][part == broken])) for part in VERIFY_PARTS)
    options = draw(st.lists(st.sampled_from(VERIFY_OPTIONS[0]), max_size=2))
    if broken == "option":
        options.append(draw(st.sampled_from(VERIFY_OPTIONS[1])))
    return ["verify", "--theorem", theorem, "--f", function, "--interval", interval,
            "--n", str(draw(st.integers(1, 6))), "--map", map_desc, "--trials", "2",
            *[word for option in options for word in option]]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(verify_argv())
def test_any_verify_command_exits_0_1_or_2_with_no_traceback(argv):
    _assert_exit_contract(argv, *_run_cli(argv))


@functools.lru_cache(maxsize=None)
def _replay_documents() -> tuple[str, ...]:
    """Valid replay inputs, as JSON text: a bare instance of every theorem, a
    failure entry, and the report of a suite that fails."""
    instances = [instance_to_json(generate_instance(
        theorem, InstanceSpec(n=2, interval=(0.5, 2.0),
                              function="power:2" if theorem == "chain" else "exp"), 0))
        for theorem in THEOREM_IDS]
    report = harness.run_suite(InstanceSpec(n=2, interval=(0.0, 10.0), function="power:400",
                                            trials=1), "t1").to_jsonable()
    return tuple(json.dumps(doc) for doc in
                 [*instances, {"trial": 0, "instance": instances[0]}, report])


def _json_paths(doc, prefix=()) -> list[tuple]:
    """The key path of every value inside doc, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) \
        else ()
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        paths.extend(_json_paths(value, prefix + (key,)))
    return paths


# values of another type, and numbers that are not finite or do not fit a float
REPLACEMENTS = [None, True, 0, -1, 2.5, "x", "", [], {}, [[1.0]], {"re": [[1.0]]},
                math.nan, math.inf, -math.inf, 1e308, -1e308, 2**63, 10**400, -10**400]


@st.composite
def edited_replay_document(draw) -> str:
    """A valid replay document with one to three fields deleted, retyped,
    nested, or set to NaN or a huge number."""
    doc = json.loads(draw(st.sampled_from(_replay_documents())))
    for _ in range(draw(st.integers(1, 3))):
        paths = _json_paths(doc)
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = functools.reduce(lambda node, k: node[k], parents, doc)
        edit = draw(st.sampled_from(["delete", "nest", "replace"]))
        if edit == "delete":
            del parent[key]
        elif edit == "nest":
            parent[key] = draw(st.sampled_from([[parent[key]], {"v": parent[key]}]))
        else:
            parent[key] = draw(st.sampled_from(REPLACEMENTS))
    return json.dumps(doc)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(edited_replay_document())
def test_replay_of_any_edited_document_exits_0_1_or_2_with_no_traceback(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "edited.json"
    path.write_text(text)
    _assert_exit_contract([text], *_run_cli(["replay", str(path)]))


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(st.sampled_from(["missing directory", "directory", "new file", "existing file"]),
       st.sampled_from(["out.json", "ce", ".json"]))
def test_counterexample_json_to_any_path_exits_0_or_2_with_no_traceback(tmp_path_factory, kind,
                                                                         name):
    base = tmp_path_factory.mktemp("counterexample")
    path = {"missing directory": base / "missing" / name, "directory": base,
            "new file": base / name, "existing file": base / name}[kind]
    if kind == "existing file":
        path.write_text("older content, longer than nothing")
    code, out, err = _run_cli(["counterexample", "--json", str(path)])
    _assert_exit_contract([kind, name], code, out, err)
    assert code == (0 if kind.endswith("file") else 2), (kind, code)
    if code == 0:
        assert json.loads(path.read_text())["passes"] is True


# power:400 overflows on [0, 10], so each trial fails with NonFiniteEntries
def test_replay_of_a_failing_report_reproduces_each_failed_record(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert cli.main(["verify", "--theorem", "t1", "--f", "power:400", "--interval", "0,10",
                     "--trials", "3", "--json", str(path)]) == 1
    capsys.readouterr()
    report = json.loads(path.read_text())
    failed = [report["records"][fail["trial"]] for fail in report["failures"]]
    assert len(failed) == 3
    replayed = harness.replay(report)
    assert [(result.status, result.margin, result.detail) for _, result in replayed] == [
        (rec["verdict"], rec["margin"], rec.get("detail", "")) for rec in failed]
    assert cli.main(["replay", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        cli._outcome_line(fail["instance"], rec["verdict"], rec["margin"], rec.get("detail", ""))
        for fail, rec in zip(report["failures"], failed)]


# the one path through __main__ and cli.main(argv=None), which reads sys.argv
def test_python_m_hhmat_verifies_then_replays_its_report(tmp_path):
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}

    def hhmat(*args):
        return subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "hhmat", *args],
                              capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)

    verify = hhmat("verify", "--theorem", "t4", "--f", "exp", "--interval", "0.5,2",
                   "--trials", "3", "--json", "r.json")
    assert (verify.returncode, verify.stderr) == (0, "")
    assert verify.stdout.startswith("t4: trials=3 passes=3 skips=0 failures=0 judged=3/3 ")
    assert json.loads((tmp_path / "r.json").read_text())["passes"] == 3
    replay = hhmat("replay", "r.json")
    assert (replay.returncode, replay.stdout, replay.stderr) == (
        0, "no failed trials to replay\n", "")
