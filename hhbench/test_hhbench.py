"""Tests of the benchmark itself: exact counters, span arithmetic, trace
robustness, the output check and the command's contract.

Run with ``python3 -m pytest -q hhbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import spans
import workloads
from workloads import FIRST_INDEX, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTERS = ("matcore.eig.calls", "segquad.segment_integral.nodes",
            "funcat.eval_array.points", "matcore.matrix_from_json.entries")
# Trials per traced test run, kept small so the suite stays quick.
SMALL = {"t4_exp_n4": 3, "norm_chain_exp_n48": 1, "bourin_exp_n48": 3}


def traced_run(name: str, seed: int) -> spans.Tracer:
    wl = WORKLOADS[name]
    harness, spec, _ = workloads.setup(wl, seed)
    tracer = spans.Tracer()
    for index in range(FIRST_INDEX, FIRST_INDEX + SMALL[name]):
        with tracer.installed(), tracer.trial(index):
            _, result = workloads.run_trial(harness, wl, spec, index)
        assert result.status == "pass"
    return tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_exactly_for_one_seed(name):
    first = spans.layer_metrics(traced_run(name, 5), 1.0)
    second = spans.layer_metrics(traced_run(name, 5), 1.0)
    for key in COUNTERS:
        assert first[key]["value"] == second[key]["value"], key
    assert first["matcore.eig.calls"]["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_sum_to_no_more_than_the_trial(name):
    for trial in traced_run(name, 6).trials:
        total_self = sum(spans.self_s(s) for s in trial.spans[1:])
        assert total_self <= trial.root.duration_s
        assert all(spans.self_s(s) >= 0.0 for s in trial.spans)


def test_quadrature_counts_match_the_default_rule():
    metrics = spans.layer_metrics(traced_run("t4_exp_n4", 2), 1.0)
    # one integral, a 16-node pass discarded and a 32-node pass kept
    assert metrics["segquad.segment_integral.calls"]["value"] == 1
    assert metrics["segquad.segment_integral.nodes"]["value"] == 48
    assert metrics["segquad.kept_node_share"]["value"] == pytest.approx(32 / 48)


def test_bourin_runs_no_quadrature():
    metrics = spans.layer_metrics(traced_run("bourin_exp_n48", 2), 1.0)
    assert metrics["segquad.segment_integral.calls"]["value"] == 0
    assert metrics["matcore.matrix_from_json.entries"]["value"] > 0


def test_tracing_restores_every_binding():
    from hhmat import hhcheck, matcore, segquad

    before = (matcore.eig, hhcheck.eig, segquad.apply_function)
    traced_run("t4_exp_n4", 1)
    assert (matcore.eig, hhcheck.eig, segquad.apply_function) == before


def test_deleted_function_is_reported_missing_not_zero(monkeypatch):
    import hhmat
    from hhmat import hhcheck, matcore

    # bourin never reaches ui_norm, so its trials still run without it
    for mod in (matcore, hhcheck, hhmat):
        monkeypatch.delattr(mod, "ui_norm")
    metrics = spans.layer_metrics(traced_run("bourin_exp_n48", 3), 1.0)
    for key in ("matcore.ui_norm.calls", "matcore.ui_norm.self_ms"):
        assert metrics[key] == {"value": None, "unit": metrics[key]["unit"], "missing": True}
    assert metrics["matcore.eig.calls"]["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_flags_a_wrong_margin_or_verdict(name):
    wl = WORKLOADS[name]
    harness, spec, _ = workloads.setup(wl, 3)
    inst = harness.generate_instance(wl.theorem, spec, FIRST_INDEX)
    result = harness.run_instance(inst)
    assert oracle.check(1, inst, result.status, result.margin).ok
    # an error of 1e-8 is far below every margin but well above the tolerance
    assert not oracle.check(1, inst, result.status, result.margin + 1e-8).ok
    assert not oracle.check(1, inst, "fail", result.margin).ok
    assert not oracle.check(1, inst, result.status, None).ok


def test_exp_chord_ratio_matches_a_dense_scan():
    import numpy as np

    t = np.linspace(0.5, 2.0, 200001)
    chord = np.exp(0.5) + (t - 0.5) * (np.exp(2.0) - np.exp(0.5)) / 1.5
    assert oracle.exp_chord_ratio(0.5, 2.0) == pytest.approx(np.max(chord / np.exp(t)), rel=1e-10)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "hhbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_declared_metric(trace, kind):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    done = _run(ROOT, "--workload", "t4_exp_n4", "--seed", "4", "--seconds", "0.1",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for line in ("fail_share", "skip_share"):
        assert any(row.split()[:3] == [line, "0", "share"] for row in done.stdout.splitlines())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "hhbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, "--workload", "t4_exp_n4", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert not any(row.startswith("{") for row in done.stdout.splitlines())
