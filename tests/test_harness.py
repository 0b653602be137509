"""Eigendecomposition caching, worker-count determinism of suites, and the
theorem registry."""

from __future__ import annotations

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
from hhmat import hhcheck
from hhmat.errors import BadInterval, BadParams, UnknownTheorem
from hhmat.funcat import from_descriptor
from hhmat.harness import (
    THEOREM_IDS,
    THEOREMS,
    InstanceSpec,
    Theorem,
    TrialResult,
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


def test_power_norm_with_power_1_is_refused_up_front():
    # each trial used to fail with the checker's BadParams
    with pytest.raises(BadParams, match=r"^power norm comparison needs r > 1, got 1.0$"):
        run_suite(InstanceSpec(n=3, trials=5, function="power:1"), "power_norm")


# power_norm is t1 on psd_power(f), which is f itself when f's domain holds no negative point
@pytest.mark.parametrize("function", ["cube", "power:2@0,inf", "power:1.5"])
def test_power_norm_judges_the_loaded_function(monkeypatch, function):
    seen = []
    check = hhcheck.check_theorem_t1
    monkeypatch.setattr(hhcheck, "check_theorem_t1",
                        lambda f, *args: seen.append(f) or check(f, *args))
    spec = InstanceSpec(n=3, interval=(0.5, 2.0), function=function, trials=2)
    assert run_suite(spec, "power_norm").passes == 2
    assert seen == [from_descriptor(function)] * 2


@pytest.mark.parametrize("function, domain, power", [
    ("power:2", "[0, inf]", 2.0), ("power:4@-1,3", "[0, 3]", 4.0)])
def test_psd_power_restricts_a_power_to_the_psd_cone(function, domain, power):
    f = hhcheck.psd_power(from_descriptor(function))
    assert (str(f.domain), f.power) == (domain, power)
    assert f.flags.increasing and not from_descriptor(function).flags.increasing  # recomputed


def test_replayed_power_norm_with_a_non_power_function_is_a_failed_trial():
    spec = InstanceSpec(n=3, interval=(0.5, 2.0), function="power:2", trials=1)
    inst = {**generate_instance("power_norm", spec, 0), "f": "exp"}
    assert run_instance(inst) == TrialResult(
        "fail", None, "BadParams: power-norm suite needs a power function, got 'exp'")


@pytest.mark.parametrize("theorem", ["t4", "chain", "power_norm"])
def test_malformed_function_descriptor_is_refused_up_front(theorem):
    with pytest.raises(BadParams, match="cannot parse function descriptor"):
        run_suite(InstanceSpec(n=3, trials=5, function="power:abc"), theorem)


def test_counterexample_is_not_a_suite():
    # hhmat counterexample reproduces it exactly, with no margin to report
    with pytest.raises(UnknownTheorem, match="unknown theorem id 'counterexample'"):
        run_suite(InstanceSpec(trials=1), "counterexample")


@pytest.mark.parametrize("field", ["chain_k", "chain_p"])
def test_chain_counts_below_1_are_refused(field):
    with pytest.raises(BadParams, match="k and p must be >= 1"):
        InstanceSpec(**{field: 0})


@pytest.mark.parametrize("k, p", [(2, 11), (2, 70), (33, 2), (1025, 1)])
def test_chain_panels_beyond_the_node_cap_are_refused(k, p):
    with pytest.raises(BadParams, match=rf"k\*\*p panels must be at most 1024, got k={k}, p={p}"):
        InstanceSpec(chain_k=k, chain_p=p)


@pytest.mark.parametrize("k, p", [(2, 10), (32, 2), (1024, 1), (1, 10 ** 9)])
def test_chain_panels_up_to_the_node_cap_are_accepted(k, p):
    assert hhcheck.chain_panels(k, p) == k ** p <= 1024
    InstanceSpec(chain_k=k, chain_p=p)


@pytest.mark.parametrize("p", [70, 10 ** 30])
def test_replayed_chain_beyond_the_node_cap_is_a_failed_trial(p):
    # 2**70 panels used to end in numpy's "Maximum allowed size exceeded";
    # the bound is decided without forming 2**p
    inst = generate_instance("chain", InstanceSpec(n=3, interval=(0.5, 2.0), trials=1), 0)
    result = run_instance({**inst, "k": 2, "p": p})
    assert (result.status, result.margin) == ("fail", None)
    assert result.detail == f"BadParams: the chain's k**p panels must be at most 1024, got k=2, p={p}"


@pytest.mark.parametrize("interval", [(0.5, np.inf), (-np.inf, 2.0), (-np.inf, np.inf)])
def test_an_unbounded_suite_interval_is_refused(interval):
    lo, hi = interval
    with pytest.raises(BadInterval, match=rf"interval \[{lo}, {hi}\] is not finite"):
        InstanceSpec(interval=interval)


@pytest.mark.parametrize("workers", [0, -2])
def test_a_worker_count_below_1_is_refused(workers):
    with pytest.raises(BadParams, match=f"worker count must be >= 1, got {workers}"):
        run_suite(InstanceSpec(trials=1), "t1", workers=workers)


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


@pytest.mark.parametrize("desc, m, target", [
    ("identity", 2, 4), ("pinch", 2, 4), ("pinch:1,3", 3, 4), ("compress:2", 3, 2),
])
def test_a_map_that_cannot_honour_m_is_refused(desc, m, target):
    with pytest.raises(BadParams, match=rf"^map descriptor '{desc}' maps into C\^{target}, "
                                        rf"so it cannot honour m={m}$"):
        make_map(desc, 4, m, make_rng(0))


@pytest.mark.parametrize("desc, m", [
    ("identity", None), ("identity", 4), ("pinch", 4), ("compress:2", 2), ("compress", 3),
    ("congruence", 2), ("subcongruence:2", 3),
])
def test_a_map_that_honours_m_is_built(desc, m):
    phi = make_map(desc, 4, m, make_rng(0))
    assert (phi.source_dim, phi.target_dim) == (4, 4 if m is None else m)


def test_compress_beyond_n_columns_names_the_descriptor():
    with pytest.raises(BadParams) as err:
        make_map("compress:9", 4, None, make_rng(0))
    assert str(err.value) == ("map descriptor 'compress:9' asks for m=9 > n=4: "
                              "an isometry into C^4 has at most 4 columns")


def test_compress_is_a_one_factor_congruence_sum():
    phi = make_map("compress:2", 4, None, make_rng(0))
    assert isinstance(phi, CongruenceSum) and len(phi.factors) == 1
    assert phi.to_jsonable()["kind"] == "congruence"
    [v] = phi.factors
    a = random_hermitian_raw(4, make_rng(1))
    expected = HermitianMatrix(v.conj().T @ a.entries @ v)
    assert phi.apply(a).entries.tobytes() == expected.entries.tobytes()


@pytest.mark.parametrize("theorem", ["scalar", "trace", "bourin", "chain"])
def test_a_map_free_suite_refuses_an_m_other_than_n(theorem):
    with pytest.raises(BadParams, match=f"^the {theorem} suite takes no map, "
                                        "so m=3 cannot differ from n=4$"):
        run_suite(InstanceSpec(n=4, m=3, trials=1, function="power:2"), theorem)
    assert run_suite(InstanceSpec(n=4, m=4, trials=1, function="power:2"), theorem).trials == 1
