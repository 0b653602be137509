"""Exit codes and output of the command line interface.

0: every check passed or was hypothesis-skipped; 1: at least one inequality
violation (or a recorded failure on replay); 2: usage error.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from conftest import wide_factor_map
from hhmat import cli, hhcheck
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
    assert f"{theorem} seed=[0, 0]: fail margin=n/a DimMismatch" in capsys.readouterr().out


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


def test_a_margin_that_is_not_finite_fails_with_a_detail(tmp_path, capsys):
    # <x, A x>^2 overflows on both sides: the margin was NaN, recorded as a
    # bare NaN with no detail
    path = tmp_path / "jensen.json"
    code = cli.main(["verify", "--theorem", "jensen", "--f", "power:2@0,inf", "--interval",
                     "0,1e155", "--n", "3", "--trials", "2", "--json", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    detail = "NonFiniteEntries: the margin nan is not finite"
    assert f"  jensen seed=[0, 1]: fail margin=n/a {detail}\n" in out
    report = json.loads(path.read_text(), parse_constant=_refuse_constant)
    assert [(r["margin"], r["detail"]) for r in report["records"]] == [(None, detail)] * 2
    assert report["worst_margin"] is None


def test_power_norm_outside_the_domain_of_f_skips_and_exits_0(capsys):
    # spectra in [0, 5] leave [0, 3]: each trial used to fail with SpectrumOutOfDomain
    code = cli.main(["verify", "--theorem", "power_norm", "--f", "power:2@-1,3",
                     "--interval", "0,5", "--trials", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert " skips=3 failures=0 judged=0/3 " in out
    assert "\n  skipped: 3x spectrum of A leaves domain [0, 3] of power:2; " in out


def test_replay_of_a_passing_instance_exits_0(tmp_path):
    spec = InstanceSpec(n=3, interval=(0.5, 2.0), function="exp", trials=1, seed=0)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_json(generate_instance("t4", spec, 0))))
    assert cli.main(["replay", str(path)]) == 0


# the generator refuses it in the first trial, in a worker process too
@pytest.mark.parametrize("workers", ["1", "2"])
def test_power_norm_with_a_non_power_function_exits_2(workers, capsys):
    code = cli.main(["verify", "--theorem", "power_norm", "--f", "exp", "--trials", "3",
                     "--workers", workers])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "needs a power function" in captured.err
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


def test_counterexample_is_not_a_verify_theorem(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--theorem", "counterexample"])
    assert info.value.code == 2
    assert "invalid choice: 'counterexample'" in capsys.readouterr().err


# each ended in a traceback, or ran as something else, before it was refused
@pytest.mark.parametrize("args", [
    ["--map", "compress:abc"], ["--map", "pinch:a"], ["--map", "congruence:x"],
    ["--map", "congruence:2.5"], ["--map", "compress:0"], ["--map", "subcongruence:-1"],
    ["--n", "4", "--m", "9", "--map", "compress"],
    ["--theorem", "chain", "--f", "power:2", "--k", "0"],
    ["--n", "4", "--m", "2", "--map", "pinch"], ["--n", "4", "--m", "2", "--map", "identity"],
    ["--theorem", "trace", "--m", "3"], ["--n", "4", "--map", "compress:9"],
    ["--theorem", "chain", "--f", "power:2", "--k", "2", "--p", "70"],
    ["--theorem", "t4", "--quad-nodes", "600"], ["--theorem", "t4", "--interval", "0.5,inf"],
    ["--workers", "-2"], ["--workers", "0"],
], ids=["compress:abc", "pinch:a", "congruence:x", "congruence:2.5", "compress:0",
        "subcongruence:-1", "m>n", "k=0", "pinch-m", "identity-m", "map-free-m",
        "compress:9", "k**p>cap", "quad-nodes>cap/2", "interval-inf", "workers=-2",
        "workers=0"])
def test_malformed_verify_options_exit_2(args, capsys):
    code = cli.main(["verify", "--theorem", "t1", "--f", "exp", "--interval", "0.5,2",
                     "--trials", "3", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


MAP_FREE = ("scalar", "trace", "bourin", "chain")


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
    function = "power:2" if theorem == "power_norm" else "exp"  # power_norm needs a power
    spec = InstanceSpec(n=2, interval=(0.5, 2.0), function=function, trials=1, seed=0)
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
    (_replaced("scalar", "xy", [1.0]),
     "BadParams: instance field 'xy' is not a number grid of shape (2,)"),
    (_replaced("chain", "k", "x"), "BadParams: instance field 'k' is not a positive integer: 'x'"),
    (_replaced("bourin", "maps", 5), "BadParams: instance field 'maps' is not a list of dict"),
    *[(_replaced("t4", "f", f), "BadParams: instance field 'f' is not a string")
      for f in (5, None, True, [1], {})],
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
@pytest.mark.parametrize("theorem", ["t1", "t3", "jensen", "power_norm", "t4", "norm_chain"])
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


def test_replayed_scalar_quadrature_that_cannot_settle_is_a_failed_trial(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({**_instance("scalar"), "quad_nodes": 4, "quad_rtol": 1e-300}))
    assert cli.main(["replay", str(path)]) == 1
    assert capsys.readouterr().out.startswith(
        "scalar seed=[0, 0]: fail margin=n/a NoConvergence: quadrature did not settle")


def test_scalar_suite_honours_its_quadrature_options(capsys):
    args = ["verify", "--theorem", "scalar", "--f", "exp", "--interval", "0.5,2", "--trials", "3"]
    assert cli.main(args) == 0
    assert "scalar: trials=3 passes=3 skips=0 failures=0" in capsys.readouterr().out
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
    phi = make_map(f"congruence:{path}", 3, None, rng)
    assert isinstance(phi, CongruenceSum)
    assert all(np.array_equal(x, y) for x, y in zip(phi.factors, factors, strict=True))
    assert cli.main(["verify", "--theorem", "t1", "--f", "exp", "--interval", "0.5,2",
                     "--n", "3", "--trials", "5", "--map", f"congruence:{path}"]) == 0
    assert "t1: trials=5 passes=5 skips=0 failures=0" in capsys.readouterr().out
    assert loads == [str(path)]  # read by make_map above, by no trial again


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
    assert capsys.readouterr().err == "error: power:2(0) = 0 is not positive\n"


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
