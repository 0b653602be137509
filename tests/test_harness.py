"""Eigendecomposition caching and worker-count determinism of suites."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hhmat
from conftest import make_rng, random_hermitian_raw
from hhmat.errors import BadParams
from hhmat.harness import InstanceSpec, generate_instance, replay, run_instance, run_suite
from hhmat.matcore import eig


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


@pytest.mark.parametrize("theorem", ["t4", "norm_chain"])
def test_suite_json_is_identical_across_worker_counts(theorem):
    spec = InstanceSpec(n=4, interval=(0.5, 2.0), function="exp", trials=8, seed=11)
    serial = run_suite(spec, theorem, workers=1)
    parallel = run_suite(spec, theorem, workers=2)
    assert serial.passes == spec.trials
    assert serial.to_json() == parallel.to_json()


@pytest.mark.parametrize("theorem", ["t4", "norm_chain"])
def test_interval_outside_the_domain_skips_every_trial(theorem):
    # [0, 2] is not inside (0, inf], the domain of the inverse
    report = run_suite(InstanceSpec(n=6, seed=3, trials=20, function="inverse"), theorem)
    assert (report.skips, report.failure_count) == (20, 0)
    assert all("not inside domain" in rec["detail"] for rec in report.records)


def test_power_norm_with_a_non_power_function_is_refused_up_front():
    with pytest.raises(BadParams, match="needs a power function"):
        run_suite(InstanceSpec(n=3, trials=5, function="exp"), "power_norm")


@pytest.mark.parametrize("theorem", ["t4", "chain", "power_norm"])
def test_malformed_function_descriptor_is_refused_up_front(theorem):
    with pytest.raises(BadParams, match="cannot parse function descriptor"):
        run_suite(InstanceSpec(n=3, trials=5, function="power:abc"), theorem)


def test_counterexample_suite_does_not_read_the_function():
    report = run_suite(InstanceSpec(trials=5, function="power:abc"), "counterexample")
    assert (report.trials, report.passes) == (1, 1)


@pytest.mark.parametrize("bad", ["kyfan:abc", "schatten:x"])
def test_replayed_malformed_norm_spec_is_a_failed_trial(bad):
    spec = InstanceSpec(n=3, interval=(0.5, 2.0), function="exp", trials=1, seed=0)
    inst = generate_instance("norm_chain", spec, 0)
    assert run_instance(inst).status == "pass"
    inst["specs"] = inst["specs"][:1] + [bad]
    [(_, result)] = replay(inst)
    assert (result.status, result.margin) == ("fail", None)
    assert result.detail == f"BadSpec: cannot parse norm spec {bad!r}"


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
