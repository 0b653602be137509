"""The chord-ratio memo, the hypotheses around it, and the solver calls a
checker makes."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_rng, random_psd
from hhmat import matcore
from hhmat.errors import BadInterval, HypothesisUnmet
from hhmat.funcat import builtin, from_descriptor
from hhmat.harness import InstanceSpec, generate_instance, random_hermitian, run_instance
from hhmat.hhcheck import check_theorem_t4, mond_pecaric_alpha
from hhmat.plmaps import IdentityMap
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


def test_unital_bourin_trial_makes_k_plus_3_solver_calls(monkeypatch):
    # one eigh for each A_i, one for the argument sum, one for the sum of
    # Phi_i(f(A_i)) and one for the witness gap; f(argument sum) takes its
    # argument's decomposition and the identity images, summing to I, none
    spec = InstanceSpec(n=5, interval=(0.5, 2.0), function="exp", trials=1, seed=4)
    inst = generate_instance("bourin", spec, 0)
    assert len(inst["a_list"]) == 3
    eigh = _count_calls(monkeypatch, np.linalg, "eigh")
    derived = _count_calls(monkeypatch, matcore, "_derived_eigen")
    result = run_instance(inst)
    assert result.status == "pass"
    assert len(eigh) == 3 + 3
    assert len(derived) == 1


def test_t4_builds_no_decomposition_of_a_function_value(monkeypatch):
    rng = make_rng(6)
    a, b = (random_hermitian(4, 0.5, 2.0, rng) for _ in range(2))
    f = from_descriptor("exp")
    derived = _count_calls(monkeypatch, matcore, "_derived_eigen")
    segment_integral(f, a, b)
    assert check_theorem_t4(f, IdentityMap(4), a, b, interval=(0.5, 2.0)).holds
    assert derived == []
