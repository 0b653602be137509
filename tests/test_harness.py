"""Eigendecomposition caching, worker-count determinism of suites, and the
theorem registry."""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import hhmat
from conftest import make_rng, random_hermitian_raw
from hhmat import harness, hhcheck
from hhmat.errors import BadInterval, BadParams, UnknownTheorem
from hhmat.harness import (
    THEOREM_IDS,
    THEOREMS,
    InstanceSpec,
    Theorem,
    generate_instance,
    make_map,
    replay,
    run_instance,
    run_suite,
)
from hhmat.matcore import HermitianMatrix, eig
from hhmat.orders import OrderVerdict
from hhmat.plmaps import CongruenceSum


class TestEigenCache:
    def test_matrix_is_decomposed_once(self):
        h = random_hermitian_raw(4, make_rng(0))
        assert eig(h) is eig(h)

    def test_cached_decomposition_is_read_only(self):
        es = eig(random_hermitian_raw(3, make_rng(1)))
        with pytest.raises(ValueError):
            es.values[0] = 0.0
        with pytest.raises(ValueError):
            es.vectors[0, 0] = 0.0

    def test_derived_matrices_are_decomposed_afresh(self):
        rng = make_rng(2)
        h, k = random_hermitian_raw(4, rng), random_hermitian_raw(4, rng)
        es_h, es_k = eig(h), eig(k)
        for derived in (h + k, h * 2.5, 2.5 * h, h - k, -h, h / 4.0):
            es = eig(derived)
            assert es is not es_h and es is not es_k
            expected = np.linalg.eigvalsh(derived.entries)[::-1]
            np.testing.assert_allclose(es.values, expected, atol=1e-12)


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_suite_json_is_identical_across_worker_counts(theorem):
    # exp meets every hypothesis here except the operator convexity the chain needs
    function = "power:2" if theorem == "chain" else "exp"
    spec = InstanceSpec(n=4, interval=(0.5, 2.0), function=function, trials=8, seed=11)
    serial = run_suite(spec, theorem, workers=1)
    assert serial.passes == spec.trials
    assert serial.to_json() == run_suite(spec, theorem, workers=1).to_json()
    assert serial.to_json() == run_suite(spec, theorem, workers=2).to_json()


@pytest.mark.parametrize("theorem", ["t4", "norm_chain"])
def test_interval_outside_the_domain_skips_every_trial(theorem):
    # [0, 2] is not inside (0, inf], the domain of the inverse
    report = run_suite(InstanceSpec(n=6, seed=3, trials=20, function="inverse"), theorem)
    assert (report.skips, report.failure_count) == (20, 0)
    assert all("not inside domain" in rec["detail"] for rec in report.records)


# an instance recorded before the power-norm corollary became t1 on PSD powers
POWER_NORM_INSTANCE = {
    "theorem": "power_norm", "f": "power:2", "interval": [0.5, 2.0], "seed": [0, 0],
    "quad_nodes": 16, "quad_rtol": 1e-11, "map": {"kind": "identity", "n": 1},
    "a": {"n": 1, "re": [[0.6562052965369458]]}, "b": {"n": 1, "re": [[1.7567325732413939]]}}


def test_a_replayed_power_norm_instance_names_an_unknown_theorem():
    with pytest.raises(UnknownTheorem, match=r"^unknown theorem id 'power_norm'; "):
        replay(POWER_NORM_INSTANCE)


@pytest.mark.parametrize("theorem", ["t4", "chain"])
def test_malformed_function_descriptor_is_refused_up_front(theorem):
    with pytest.raises(BadParams, match="cannot parse function descriptor"):
        run_suite(InstanceSpec(n=3, trials=5, function="power:abc"), theorem)


def test_counterexample_is_not_a_suite():
    # hhmat counterexample reproduces it exactly, with no margin to report
    with pytest.raises(UnknownTheorem, match="unknown theorem id 'counterexample'"):
        run_suite(InstanceSpec(trials=1), "counterexample")


@pytest.mark.parametrize("panels", [0, 1025, 2 ** 70, 10 ** 30])
def test_chain_panel_counts_outside_1_to_the_node_cap_are_refused(panels):
    with pytest.raises(BadParams, match=rf"panel count must be in 1\.\.1024, got {panels}$"):
        InstanceSpec(panels=panels)


@pytest.mark.parametrize("panels", [1, 1024])
def test_chain_panel_counts_up_to_the_node_cap_are_accepted(panels):
    assert hhcheck.chain_panels(panels) == panels
    InstanceSpec(panels=panels)


def test_replayed_chain_beyond_the_node_cap_is_a_failed_trial():
    # the count is compared as a Python int, never formed into an array
    inst = generate_instance("chain", InstanceSpec(n=3, interval=(0.5, 2.0), trials=1), 0)
    result = run_instance({**inst, "panels": 10 ** 30})
    assert (result.status, result.margin) == ("fail", None)
    assert result.detail == f"BadParams: the chain's panel count must be in 1..1024, got {10 ** 30}"


def test_a_replayed_chain_with_k_and_p_fields_is_a_failed_trial():
    # an instance in the older (k, p) form is never read as another panel count
    inst = generate_instance("chain", InstanceSpec(n=3, interval=(0.5, 2.0), trials=1), 0)
    del inst["panels"]
    result = run_instance({**inst, "k": 2, "p": 2})
    assert (result.status, result.margin) == ("fail", None)
    assert result.detail == "BadParams: instance has no field 'panels'"


@pytest.mark.parametrize("interval", [(0.5, np.inf), (-np.inf, 2.0), (-np.inf, np.inf)])
def test_an_unbounded_suite_interval_is_refused(interval):
    lo, hi = interval
    with pytest.raises(BadInterval, match=rf"interval \[{lo}, {hi}\] is not finite"):
        InstanceSpec(interval=interval)


@pytest.mark.parametrize("workers", [0, -2])
def test_a_worker_count_below_1_is_refused(workers):
    with pytest.raises(BadParams, match=f"worker count must be >= 1, got {workers}"):
        run_suite(InstanceSpec(trials=1), "t1", workers=workers)


@pytest.mark.parametrize("cpus", [None, 1, 2, 64])  # None: this machine's own count
def test_the_worker_count_is_a_cap(cpus, monkeypatch):
    asked = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records the worker count asked
        for and runs the jobs in this process, so that no process starts."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    if cpus is not None:
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    most = min(3, harness._usable_cpus())
    spec = InstanceSpec(n=2, interval=(0.5, 2.0), function="exp", trials=3, seed=5)
    report = run_suite(spec, "t1", workers=10**6)
    assert report.passes == 3
    assert asked == ([most] if most > 1 else [])  # one process is the serial loop
    assert multiprocessing.active_children() == []
    assert report.to_json() == run_suite(spec, "t1", workers=1).to_json()


MALFORMED_NORM_SPECS = ["kyfan:abc", "schatten:x", "kyfan:0", "kyfan:4", "kyfan:2.5", "schatten:0.5",
                        "schatten:nan", "schatten:inf", "operator:1", "frobenius"]


def _bad_spec_detail(bad: str, dim: int) -> str:
    return (f"BadSpec: norm spec {bad!r} is not kyfan:k (k an integer in 1..{dim}), "
            "schatten:p (p finite, >= 1) or operator")


@pytest.mark.parametrize("bad", MALFORMED_NORM_SPECS)
def test_replayed_malformed_norm_spec_is_a_failed_trial(bad):
    spec = InstanceSpec(n=3, interval=(0.5, 2.0), function="exp", trials=1, seed=0)
    inst = generate_instance("norm_chain", spec, 0)
    assert run_instance(inst).status == "pass"
    inst["specs"] = inst["specs"][:1] + [bad]
    [(_, result)] = replay(inst)
    assert (result.status, result.margin) == ("fail", None)
    assert result.detail == _bad_spec_detail(bad, 3)


@pytest.mark.parametrize("bad", ["kyfan:9", *MALFORMED_NORM_SPECS])
def test_a_malformed_norm_spec_fails_whatever_the_hypotheses(bad):
    # power:2(0) = 0 is not positive, so this instance skips with good specs
    spec = InstanceSpec(n=3, interval=(0.0, 2.0), function="power:2", trials=1, seed=0)
    inst = generate_instance("norm_chain", spec, 0)
    assert run_instance(inst).status == "skip"
    result = run_instance({**inst, "specs": inst["specs"] + [bad]})
    assert (result.status, result.margin, result.detail) == ("fail", None, _bad_spec_detail(bad, 3))


def test_replayed_overflowing_norm_spec_is_a_failed_trial():
    # the chain's terms have singular values above exp(0.5) > 1
    spec = InstanceSpec(n=3, interval=(0.5, 2.0), function="exp", trials=1, seed=0)
    inst = generate_instance("norm_chain", spec, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_instance({**inst, "specs": ["schatten:1e308"]})
    assert (result.status, result.margin) == ("fail", None)
    assert result.detail == "BadSpec: norm spec 'schatten:1e308' gives inf on a 3x3 matrix"


def test_an_overflowing_integrand_fails_each_trial_with_no_warning():
    # power:2 of spectra near 1e155 overflows: no numpy warning leaves the
    # trial, and the quadrature fails at its first pass, not at NODE_CAP
    spec = InstanceSpec(n=3, interval=(0.0, 1e155), function="power:2", trials=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_suite(spec, "t1")
    detail = "NonFiniteEntries: the 16-node quadrature sum of power:2 is not finite"
    assert [(r["verdict"], r["margin"], r["detail"]) for r in report.records] == [
        ("fail", None, detail)] * 2


@pytest.mark.parametrize("norm", ["schatten:5000", "schatten:1100"])
def test_replayed_underflowing_norm_spec_is_a_failed_trial(norm):
    # the chain's terms have singular values below exp(-1) < 1
    spec = InstanceSpec(n=3, interval=(-3.0, -1.0), function="exp", trials=1, seed=0)
    inst = generate_instance("norm_chain", spec, 0)
    assert run_instance(inst).status == "pass"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_instance({**inst, "specs": [norm]})
    assert (result.status, result.margin) == ("fail", None)
    assert result.detail == f"BadSpec: norm spec {norm!r} underflows on a 3x3 matrix"


def test_replayed_instance_missing_a_field_is_a_failed_trial():
    [(_, result)] = replay({"theorem": "t4", "f": "exp"})
    assert (result.status, result.margin) == ("fail", None)
    assert result.detail == "BadParams: instance has no field 'map'"


def test_import_does_not_load_the_process_pool():
    src = Path(hhmat.__file__).resolve().parent.parent
    code = "import hhmat, sys; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_theorem_ids_are_the_registry_keys():
    assert THEOREM_IDS == tuple(THEOREMS)
    assert [f.name for f in fields(Theorem)] == ["generate", "run", "takes_map"]


@pytest.mark.parametrize("call", [
    lambda: generate_instance("t5", InstanceSpec(), 0),
    lambda: run_instance({"theorem": "t5", "f": "exp"}),
    lambda: run_suite(InstanceSpec(trials=1), "t5"),
    lambda: run_instance({"theorem": ["t4"]}),
])
def test_an_unknown_theorem_id_raises(call):
    with pytest.raises(UnknownTheorem, match="unknown theorem id"):
        call()


def test_runners_look_their_checker_up_at_call_time(monkeypatch):
    spec = InstanceSpec(n=3, interval=(0.5, 2.0), function="exp", trials=1, seed=0)
    inst = generate_instance("t4", spec, 0)
    monkeypatch.setattr(hhcheck, "check_theorem_t4",
                        lambda *args: OrderVerdict(holds=False, margin=-1.0))
    assert (run_instance(inst).status, run_instance(inst).margin) == ("fail", -1.0)


def test_replay_of_a_malformed_failures_entry_is_refused():
    with pytest.raises(BadParams, match="failure entry has no field 'instance'"):
        replay({"failures": [{"trial": 0}]})


@pytest.mark.parametrize("desc, target", [
    ("identity", 4), ("pinch", 4), ("pinch:1,3", 4), ("compress:2", 2), ("congruence", 4),
    ("congruence:2", 4), ("congruence:2,3", 3), ("congruence:1,4", 4), ("congruence:3,12", 12),
    ("subcongruence:2,3", 3), ("subcongruence:1,1", 1),
])
def test_the_descriptor_sets_the_target_size(desc, target):
    phi = make_map(desc, 4, make_rng(0))
    assert (phi.source_dim, phi.target_dim) == (4, target)


@pytest.mark.parametrize("desc, message", [
    ("congruence:2,3,1", "takes at most two counts, k and m"),
    ("subcongruence:1,1,1", "takes at most two counts, k and m"),
    ("congruence:2,9", "asks for m=9 > k*n=8: an isometry into C^8 has at most 8 columns"),
    ("subcongruence:1,5", "asks for m=5 > k*n=4: an isometry into C^4 has at most 4 columns"),
    ("congruence:2,0", "needs integer counts >= 1, got '0'"),
    ("congruence:,3", "needs integer counts >= 1, got ''"),
])
def test_a_third_count_or_an_m_beyond_k_n_names_the_descriptor(desc, message):
    with pytest.raises(BadParams) as err:
        make_map(desc, 4, make_rng(0))
    assert str(err.value) == f"map descriptor {desc!r} {message}"


def test_compress_beyond_n_columns_names_the_descriptor():
    with pytest.raises(BadParams) as err:
        make_map("compress:9", 4, make_rng(0))
    assert str(err.value) == ("map descriptor 'compress:9' asks for m=9 > n=4: "
                              "an isometry into C^4 has at most 4 columns")


def test_compress_is_a_one_factor_congruence_sum():
    phi = make_map("compress:2", 4, make_rng(0))
    assert isinstance(phi, CongruenceSum) and len(phi.factors) == 1
    assert phi.to_jsonable()["kind"] == "congruence"
    [v] = phi.factors
    a = random_hermitian_raw(4, make_rng(1))
    expected = HermitianMatrix(v.conj().T @ a.entries @ v)
    assert phi.apply(a).entries.tobytes() == expected.entries.tobytes()
