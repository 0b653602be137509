"""The chord-ratio memo, the hypotheses around it, the shared hypothesis
helpers, and the solver calls a checker makes."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from conftest import check_jensen, make_rng, random_psd
from hhmat import hhcheck, matcore, plmaps
from hhmat.errors import BadInterval, HypothesisUnmet
from hhmat.funcat import Interval, ScalarFunction, builtin, from_descriptor
from hhmat.harness import (
    InstanceSpec,
    TrialResult,
    generate_instance,
    instance_to_json,
    random_hermitian,
    run_instance,
    run_suite,
)
from hhmat.hhcheck import check_theorem_t4, mond_pecaric_alpha
from hhmat.matcore import HermitianMatrix, matrix_to_json
from hhmat.plmaps import CongruenceSum, IdentityMap
from hhmat.segquad import segment_integral


@pytest.mark.parametrize("desc, interval", [
    ("exp", (0.5, 2.0)), ("power:2", (0.25, 3.0)), ("inverse", (0.5, 4.0)),
    ("power:1.5", (0.1, 1.0)), ("affine:2,0.5", (0.0, 2.0)),
])
def test_memo_hit_returns_the_fresh_result(desc, interval):
    f = from_descriptor(desc)
    fresh = mond_pecaric_alpha.__wrapped__(f, *interval)
    first = mond_pecaric_alpha(f, *interval)
    again = mond_pecaric_alpha(f, *interval)
    assert again is first
    assert first == fresh  # every field, bit for bit


def test_power_descriptor_hits_the_memo_on_second_use():
    interval = (0.3125, 1.6875)  # used by no other test
    before = mond_pecaric_alpha.cache_info()
    first = mond_pecaric_alpha(from_descriptor("power:2"), *interval)
    middle = mond_pecaric_alpha.cache_info()
    second = mond_pecaric_alpha(from_descriptor("power:2"), *interval)
    after = mond_pecaric_alpha.cache_info()
    assert (middle.hits, middle.misses) == (before.hits, before.misses + 1)
    assert (after.hits, after.misses) == (middle.hits + 1, middle.misses)
    assert second is first


def test_errors_are_not_memoized():
    f = builtin("inverse")
    size = mond_pecaric_alpha.cache_info().currsize
    for _ in range(2):
        with pytest.raises(BadInterval):
            mond_pecaric_alpha(f, 0.0, 2.0)
    assert mond_pecaric_alpha.cache_info().currsize == size


# 0 is no grid point of these intervals, and alpha used to be about 3.6e25
@pytest.mark.parametrize("interval", [(-1.0, 1.0), (-0.5, 2.0)])
def test_an_interval_holding_a_zero_of_f_inside_has_no_alpha(interval):
    with pytest.raises(BadInterval, match=r"^power:2\(0\) = 0 is not positive$"):
        mond_pecaric_alpha(from_descriptor("power:2"), *interval)
    for theorem in ("t4", "norm_chain"):
        report = run_suite(InstanceSpec(interval=interval, seed=1, trials=5), theorem)
        assert (report.skips, report.failure_count) == (5, 0)
        assert {rec["detail"] for rec in report.records} == {"power:2(0) = 0 is not positive"}


def test_interval_outside_the_domain_is_an_unmet_hypothesis():
    rng = make_rng(5)
    a, b = random_psd(3, rng), random_psd(3, rng)
    # spectra sit inside [0, 40], but 0 is outside the domain of the inverse
    with pytest.raises(HypothesisUnmet, match="not inside domain"):
        check_theorem_t4(builtin("inverse"), IdentityMap(3), a, b, interval=(0.0, 40.0))


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_unital_bourin_trial_makes_k_plus_2_solver_calls(monkeypatch):
    # the solver decomposes each A_i, the argument sum and the sum of
    # Phi_i(f(A_i)); f(argument sum) takes its argument's decomposition and
    # the identity images, summing to I, none.  The A_i go to the solver in
    # one call, the other two one call each.
    spec = InstanceSpec(n=5, interval=(0.5, 2.0), function="exp", trials=1, seed=4)
    inst = generate_instance("bourin", spec, 0)
    assert len(inst["a_list"]) == 3
    eigh = _count_calls(monkeypatch, np.linalg, "eigh")
    derived = _count_calls(monkeypatch, matcore, "_derived_eigen")
    result = run_instance(inst)
    assert result.status == "pass"
    assert sum(len(stack) for (stack,) in eigh) == 3 + 2
    assert [len(stack) for (stack,) in eigh] == [3, 1, 1]
    assert len(derived) == 1


@pytest.mark.parametrize("map_desc, operands", [("identity", 2), ("congruence", 4)])
def test_t4_trial_makes_three_solver_calls_at_small_n(monkeypatch, map_desc, operands):
    # one for A, B, Phi(A) and Phi(B) (the identity map's images are A and
    # B themselves), one for all 16 + 32 nodes of the opening quadrature
    # pair and one for the gap of the Loewner comparison
    spec = InstanceSpec(n=4, interval=(0.5, 2.0), function="exp", map_desc=map_desc, seed=2)
    inst = generate_instance("t4", spec, 0)
    eigh = _count_calls(monkeypatch, np.linalg, "eigh")
    assert run_instance(inst).status == "pass"
    assert [len(stack) for (stack,) in eigh] == [operands, 16 + 32, 1]


@pytest.mark.parametrize("theorem, function, stack_sizes", [
    # t3: f(A) and f(B) in one stack (A and B were decomposed in one solver
    # call), the 33 grid points in another, then the opening quadrature pair
    ("t3", "exp", [2, 33, 48]),
    # the chain with 2 panels: the midpoint, the 2 midpoint Riemann nodes,
    # the quadrature pair, the 3 trapezoid nodes, then f(A) and f(B) in one
    # stack, as in t3
    ("chain", "inverse", [1, 2, 48, 3, 2]),
])
def test_every_segment_stream_is_mapped_a_stack_at_a_time(monkeypatch, theorem, function,
                                                           stack_sizes):
    spec = InstanceSpec(n=3, interval=(0.5, 2.0), function=function, seed=3)
    inst = generate_instance(theorem, spec, 0)
    mapped = _count_calls(monkeypatch, matcore, "map_stack")
    assert run_instance(inst).status == "pass"
    assert [values.shape[0] for _, values, _ in mapped] == stack_sizes


def test_t4_builds_no_decomposition_of_a_function_value(monkeypatch):
    rng = make_rng(6)
    a, b = (random_hermitian(4, 0.5, 2.0, rng) for _ in range(2))
    f = from_descriptor("exp")
    derived = _count_calls(monkeypatch, matcore, "_derived_eigen")
    segment_integral(f, a, b)
    assert check_theorem_t4(f, IdentityMap(4), a, b, interval=(0.5, 2.0)).holds
    assert derived == []


# -- the shared hypothesis helpers ------------------------------------------------

SUBUNITAL_SUITE = dict(n=4, interval=(0.5, 2.0), function="power:2",
                       map_desc="subcongruence", trials=40, seed=1)


def test_norm_chain_on_a_supplied_interval_tests_containment():
    # Phi(A) = s^2 A with s < 1 pushes spectra below omega = 0.5 in 37 of
    # these 40 trials; judged anyway, 33 used to fail.  The map is not
    # unital either, and each skip names every unmet hypothesis.
    report = run_suite(InstanceSpec(**SUBUNITAL_SUITE), "norm_chain")
    assert (report.failure_count, report.skips, report.passes) == (0, 40, 0)
    details = [rec["detail"] for rec in report.records]
    assert all("a unital map is needed" in detail for detail in details)
    assert sum("leaves [0.5, 2.0]" in detail for detail in details) == 37


def test_the_working_interval_stretches_as_a_domain_does():
    # [1, 1.5] is stretched by 1e-9 * 0.5 at each end, as spectra against a
    # domain of that width are: 3e-10 beyond Omega is inside, 7e-10 is not
    f, phi, b = from_descriptor("exp"), IdentityMap(2), HermitianMatrix(np.diag([1.1, 1.2]))
    inside = HermitianMatrix(np.diag([1.5 + 3e-10, 1.2]))
    assert check_theorem_t4(f, phi, inside, b, interval=(1.0, 1.5)).holds
    beyond = HermitianMatrix(np.diag([1.5 + 7e-10, 1.2]))
    with pytest.raises(HypothesisUnmet) as err:
        check_theorem_t4(f, phi, beyond, b, interval=(1.0, 1.5))
    assert str(err.value) == ("spectrum of A leaves [1.0, 1.5]; "
                              "spectrum of Phi(A) leaves [1.0, 1.5]")


# [0.5, inf] and [0.5, 1e308] used to fail with NonFiniteEntries (alpha was NaN)
@pytest.mark.parametrize("interval, detail", [
    ((2.0, 1.0), "empty interval [2.0, 1.0]"),
    ((float("nan"), 2.0), "empty interval [nan, 2.0]"),
    ((0.5, float("inf")), "interval [0.5, inf] is not finite"),
    ((0.5, 1e308), "the chord ratio of exp is not finite on [0.5, 1e+308]"),
], ids=["empty", "nan", "inf", "1e308"])
@pytest.mark.parametrize("theorem", ["t4", "norm_chain"])
def test_an_interval_that_is_not_one_is_a_skip(theorem, interval, detail):
    inst = generate_instance(theorem, InstanceSpec(n=3, interval=(0.5, 2.0), function="exp"), 0)
    assert run_instance({**inst, "interval": list(interval)}) == TrialResult("skip", None, detail)


def test_a_bad_interval_is_named_with_the_other_unmet_hypotheses():
    inst = generate_instance("t4", InstanceSpec(n=3, interval=(0.5, 2.0), function="exp"), 0)
    result = run_instance({**inst, "f": "power:3", "interval": [2.0, 1.0]})
    assert result == TrialResult("skip", None, "; ".join([
        "power:3 is not declared convex", "empty interval [2.0, 1.0]"]))


def test_norm_chain_needs_a_unital_map():
    # trial 9 keeps every spectrum inside [0.5, 2] with Phi(I) = 0.605 I; its
    # second link is the converse bound, and it used to fail by -0.458
    spec = InstanceSpec(n=4, interval=(0.5, 2.0), function="power:2",
                        map_desc="subcongruence", seed=3, trials=12)
    result = run_instance(generate_instance("norm_chain", spec, 9))
    assert (result.status, result.margin) == ("skip", None)
    assert result.detail == "Phi(I) is not I (distance 0.395); a unital map is needed"


def test_t4_needs_a_unital_map():
    # trial 1 keeps every spectrum inside [0.5, 2] and used to fail
    inst = generate_instance("t4", InstanceSpec(**SUBUNITAL_SUITE), 1)
    result = run_instance(inst)
    assert (result.status, result.margin) == ("skip", None)
    assert result.detail.startswith("Phi(I) is not I (distance ")
    assert result.detail.endswith("); a unital map is needed")
    rng = make_rng(7)
    a, b = (random_hermitian(3, 0.5, 2.0, rng) for _ in range(2))
    half = CongruenceSum((np.eye(3) / np.sqrt(2.0),))
    # Phi(A) = A/2 keeps its spectrum inside [0.25, 2]
    with pytest.raises(HypothesisUnmet, match=r"^Phi\(I\) is not I .*a unital map is needed$"):
        check_theorem_t4(from_descriptor("exp"), half, a, b, (0.25, 2.0))


def test_t4_with_a_factor_that_is_no_isometry_is_a_skip():
    # a compression is a one-factor congruence sum, judged by Phi(I) alone
    spec = InstanceSpec(n=3, interval=(0.5, 2.0), function="exp", map_desc="compress:2")
    inst = instance_to_json(generate_instance("t4", spec, 0))
    assert run_instance(inst).status == "pass"
    [factor] = inst["map"]["factors"]
    factor["re"] = (1.01 * np.array(factor["re"])).tolist()
    assert run_instance(json.loads(json.dumps(inst))) == TrialResult(
        "skip", None, "Phi(I) is not I (distance 0.0201); a unital map is needed")


def test_t4_with_overlapping_block_projections_is_a_skip():
    # a pinching is the congruence sum of its block projections; projections
    # onto {0, 1} and {1, 2} overlap, so Phi(I) = diag(1, 2, 1)
    spec = InstanceSpec(n=3, interval=(0.5, 2.0), function="exp")
    inst = instance_to_json(generate_instance("t4", spec, 0))
    inst["map"] = {"kind": "congruence", "factors": [
        {"rows": 3, "cols": 3, "re": np.diag(np.isin(range(3), block)).astype(float).tolist()}
        for block in ((0, 1), (1, 2))]}
    result = run_instance(json.loads(json.dumps(inst)))
    assert (result.status, result.margin) == ("skip", None)
    assert result.detail.startswith("Phi(I) is not I (distance 1); a unital map is needed")


def test_t1_on_a_psd_power_with_a_non_psd_input_is_a_skip():
    # the power-norm corollary is t1 on power:2 restricted to [0, inf)
    spec = InstanceSpec(n=3, interval=(0.5, 2.0), function="power:2@0,inf", trials=1, seed=0)
    inst = generate_instance("t1", spec, 0)
    assert run_instance(inst).status == "pass"
    inst["a"] = matrix_to_json(HermitianMatrix(np.diag([1.0, 0.5, -0.25])))
    result = run_instance(inst)
    assert (result.status, result.margin) == ("skip", None)
    assert result.detail == "spectrum of A leaves domain [0, inf] of power:2"


def test_norm_chain_with_no_norm_spec_is_a_skip():
    spec = InstanceSpec(n=3, interval=(0.5, 2.0), function="power:2", trials=1, seed=0)
    inst = {**generate_instance("norm_chain", spec, 0), "specs": []}
    result = run_instance(inst)
    assert (result.status, result.margin, result.detail) == ("skip", None, "no norm spec to judge")


@pytest.mark.parametrize("map_desc", ["identity", "pinch", "congruence"])
@pytest.mark.parametrize("n", [2, 9, 48])
def test_each_ky_fan_link_is_the_partial_sum_deficit_of_its_terms(monkeypatch, n, map_desc):
    # every term of the chain is PSD, so its Ky Fan k-norm is its k-th
    # eigenvalue partial sum (Ky Fan dominance decides every norm by these)
    terms, reports = [], []
    ui_norms, check = hhcheck.ui_norms, hhcheck.check_norm_chain_corollary
    monkeypatch.setattr(hhcheck, "ui_norms", lambda h, specs: terms.append(h) or ui_norms(h, specs))
    monkeypatch.setattr(hhcheck, "check_norm_chain_corollary",
                        lambda *args: reports.append(check(*args)) or reports[-1])
    spec = InstanceSpec(n=n, interval=(0.5, 2.0), function="exp", map_desc=map_desc, seed=11)
    for index in range(2):
        assert run_instance(generate_instance("norm_chain", spec, index)).status == "pass"
    assert len(terms) == 3 * len(reports) == 6
    for i, report in enumerate(reports):
        sums = [np.cumsum(matcore.eig(m).values) for m in terms[3 * i:3 * i + 3]]
        for k in range(1, n + 1):
            for link in (0, 1):
                lo, hi = sums[link][k - 1], sums[link + 1][k - 1]
                margin = report.links[f"kyfan:{k}:link{link}"].margin
                assert abs(margin - (hi - lo)) <= 1e-12 * max(1.0, lo, hi)


def test_unital_identity_image_needs_no_decomposition(monkeypatch):
    def refuse(image):
        raise AssertionError("unitality_status called on a unital image")

    monkeypatch.setattr(plmaps, "unitality_status", refuse)
    f = from_descriptor("exp")
    for phi in (IdentityMap(4), CongruenceSum((np.eye(4) / np.sqrt(2.0),) * 2)):
        assert hhcheck._map_case_reasons(f, phi.identity_image(), subunital_ok=False) == []


@pytest.mark.parametrize("check, message", [
    (lambda a, b: hhcheck.check_trace_corollary(from_descriptor("power:3"), a, b),
     "power:3 is not declared convex"),
    (lambda a, b: hhcheck.check_refinement_chain(from_descriptor("exp"), a, b, 2),
     "exp is not declared operator convex"),
], ids=["trace", "chain"])
def test_an_undeclared_flag_is_an_unmet_hypothesis(check, message):
    rng = make_rng(10)
    a, b = (random_hermitian(3, 0.5, 2.0, rng) for _ in range(2))
    with pytest.raises(HypothesisUnmet) as info:
        check(a, b)
    assert type(info.value) is HypothesisUnmet
    assert info.value.reasons == [message]


def test_map_case_reasons_name_each_unmet_condition():
    f = from_descriptor("exp")
    inflating = HermitianMatrix(np.diag([2.0, 1.0]))
    singular = HermitianMatrix(np.diag([1.0, 0.0]))
    quarter = HermitianMatrix(np.eye(2) / 4.0)  # Phi(I) <= I: case (ii)
    assert hhcheck._map_case_reasons(from_descriptor("power:2@0,inf"), quarter) == []
    assert hhcheck._map_case_reasons(f, quarter) == ["exp(0) = 1 is not <= 0"]
    assert hhcheck._map_case_reasons(f, inflating) == [
        "Phi(I) has top eigenvalue 2 > 1", "exp(0) = 1 is not <= 0"]
    assert hhcheck._map_case_reasons(from_descriptor("power:2"), singular) == []
    assert hhcheck._map_case_reasons(from_descriptor("inverse"), singular) == [
        "0 is outside the domain (0, inf] of inverse"]
    assert hhcheck._map_case_reasons(f, singular, subunital_ok=False) == [
        "Phi(I) is not I (distance 1); a unital map is needed"]


@pytest.mark.parametrize("n", [1, 4, 9])  # at n = 9 the Frobenius test fails, so eig decides
@pytest.mark.parametrize("excess, unital", [(5e-10, True), (2e-9, False)])
def test_unital_edge_is_the_judgement_tolerance(n, excess, unital):
    # Phi(I) = (1 + excess) I is I under orders.judge: excess <= DEFAULT_TOL * max(1, 1 + excess)
    image = HermitianMatrix((1.0 + excess) * np.eye(n))
    reasons = hhcheck._map_case_reasons(from_descriptor("exp"), image, subunital_ok=False)
    assert reasons == ([] if unital else
                       [f"Phi(I) is not I (distance {excess:.3g}); a unital map is needed"])


@pytest.mark.parametrize("desc", ["power:2@0,inf", "xlogx", "neg_sqrt", "affine:2,-0.5"])
def test_a_singular_subunital_map_is_judged_by_t1_and_jensen(desc):
    # Phi(I) = diag(1, 1, 0) <= I and f(0) <= 0: case (ii), with no strictly positive Phi(I)
    f = from_descriptor(desc)
    phi = CongruenceSum((np.diag([1.0, 1.0, 0.0]).astype(complex),))
    rng = make_rng(11)
    for _ in range(5):
        a, b = (random_hermitian(3, 0.1, 2.0, rng) for _ in range(2))
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert hhcheck.check_theorem_t1(f, phi, a, b).holds
        assert check_jensen(f, phi, a, x / np.linalg.norm(x)).holds
    # e_3 spans the kernel of Phi(I): psi(I) = 0, and the comparison reads f(0) <= 0
    verdict = check_jensen(f, phi, a, np.array([0.0, 0.0, 1.0]))
    assert verdict.holds and verdict.margin == -f(0.0)


@pytest.mark.parametrize("excess, unit", [(5e-10, True), (2e-9, False)])
def test_jensen_psi_of_i_edge_is_the_judgement_tolerance(excess, unit):
    # psi(I) = <x, x> = 1 + excess under the identity: 1 (case (i)) within DEFAULT_TOL, else > 1
    rng = make_rng(8)
    a = random_hermitian(3, 0.5, 2.0, rng)
    x = np.ones(3) * np.sqrt((1.0 + excess) / 3.0)
    f = from_descriptor("exp")  # f(0) > 0, so only case (i) can hold
    if unit:
        assert check_jensen(f, IdentityMap(3), a, x).holds
    else:
        with pytest.raises(HypothesisUnmet) as info:
            check_jensen(f, IdentityMap(3), a, x)
        assert info.value.reasons == ["sum of Phi_i(I) has top eigenvalue 1 > 1",
                                      "exp(0) = 1 is not <= 0"]


def test_jensen_with_a_short_vector_needs_case_ii():
    rng = make_rng(8)
    a = random_hermitian(3, 0.5, 2.0, rng)
    x = np.ones(3) / 3.0  # norm < 1
    with pytest.raises(HypothesisUnmet, match=r"^exp\(0\) = 1 is not <= 0$"):
        check_jensen(from_descriptor("exp"), IdentityMap(3), a, x)
    verdict = check_jensen(from_descriptor("power:2@0,inf"), IdentityMap(3), a, x)
    assert verdict.holds


def test_jensen_judges_a_long_vector_under_a_subunital_map_by_psi_of_i():
    # ||x|| = 1.5 and Phi(I) = I/4, so psi(I) = 0.5625: case (ii)
    rng = make_rng(8)
    a = random_hermitian(3, 0.5, 2.0, rng)
    phi = CongruenceSum((np.eye(3) / 2.0,))
    x = np.ones(3) * 1.5 / np.sqrt(3.0)
    verdict = check_jensen(from_descriptor("power:2@0,inf"), phi, a, x)
    assert verdict.holds and verdict.margin >= 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HypothesisUnmet) as info:
            check_jensen(from_descriptor("inverse@1e-12,2"), phi, a, x)
    assert info.value.reasons == ["inverse(0) = inf is not <= 0"]
    # the same vector under the identity has psi(I) = 2.25
    with pytest.raises(HypothesisUnmet, match=r"^sum of Phi_i\(I\) has top eigenvalue 2\.25 > 1$"):
        check_jensen(from_descriptor("power:2@0,inf"), IdentityMap(3), a, x)


def test_the_converse_bound_needs_a_unital_map():
    # Phi(X) = X/2, A = B = 2I on [0.5, 2]: Phi(f(A)) = 2I exceeds alpha f(Phi(A)) = 1.5625 I
    f = from_descriptor("power:2@0,inf")
    alpha = mond_pecaric_alpha(f, 0.5, 2.0).alpha
    assert alpha == pytest.approx(1.5625, abs=1e-12)
    phi = CongruenceSum((np.eye(2) / np.sqrt(2.0),))
    a = HermitianMatrix(2.0 * np.eye(2))
    gap = alpha * matcore.apply_function(f, phi.apply(a)) - phi.apply(matcore.apply_function(f, a))
    assert np.allclose(gap.entries, (1.5625 - 2.0) * np.eye(2))
    with pytest.raises(HypothesisUnmet, match=r"a unital map is needed$"):
        check_theorem_t4(f, phi, a, a, (0.5, 2.0))


def test_f0_is_read_with_numpy_warnings_off():
    # 0 is in the domain of inverse@1e-12,2 by the endpoint stretch, where 1/0 warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reasons = hhcheck._map_case_reasons(from_descriptor("inverse@1e-12,2"),
                                            HermitianMatrix(np.eye(2) / 2))
    assert reasons == ["inverse(0) = inf is not <= 0"]


def test_bourin_with_subunital_maps_needs_f0_nonpositive():
    rng = make_rng(9)
    maps = [CongruenceSum((np.eye(3) / 2.0,)), CongruenceSum((np.eye(3) / 2.0,))]
    a_list = [random_hermitian(3, 0.5, 2.0, rng) for _ in maps]
    with pytest.raises(HypothesisUnmet, match=r"^exp\(0\) = 1 is not <= 0$"):
        hhcheck.check_bourin_t2(from_descriptor("exp"), maps, a_list)
    report = hhcheck.check_bourin_t2(from_descriptor("power:2@0,inf"), maps, a_list)
    assert report.holds and report.margin >= 0.0


def test_f0_is_judged_on_a_domain_whose_lower_end_is_within_the_stretch_above_0():
    # 0 is in the domain of power:1.5@1e-12,2 by the endpoint stretch alone,
    # and f(0) = 0, so the subunital case (ii) is met
    spec = InstanceSpec(n=3, interval=(0.0, 2.0), function="power:1.5@1e-12,2",
                        map_desc="subcongruence", trials=4, seed=3)
    report = run_suite(spec, "t1")
    assert (report.passes, report.judged) == (4, 4)


def test_a_nan_f0_is_not_at_most_0():
    f = ScalarFunction("nan_at_0", lambda x: np.where(x == 0.0, np.nan, x * x),
                       Interval(0.0, 2.0), from_descriptor("power:2@0,2").flags)
    assert hhcheck._map_case_reasons(f, HermitianMatrix(np.eye(2) / 2.0)) == [
        "nan_at_0(0) = nan is not <= 0"]


@pytest.mark.parametrize("desc, below, above", [
    # on [0, 1]; below: integral - midpoint value, above: endpoint average - integral
    ("power:2", 1 / 3 - 1 / 4, 1 / 2 - 1 / 3),
    ("exp", np.e - 1.0 - np.exp(0.5), (1.0 + np.e) / 2.0 - (np.e - 1.0)),
], ids=["power:2", "exp"])
def test_the_1x1_trace_chain_is_the_scalar_bound_in_closed_form(desc, below, above):
    links = hhcheck.check_trace_corollary(from_descriptor(desc), HermitianMatrix([[1.0]]),
                                          HermitianMatrix([[0.0]])).links
    assert links["midpoint<=integral"].margin == pytest.approx(below, abs=1e-13)
    assert links["integral<=endpoint_average"].margin == pytest.approx(above, abs=1e-13)
