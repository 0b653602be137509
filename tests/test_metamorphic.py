"""Metamorphic relations: transforms of an instance that must leave its
verdict and margin unchanged, checked with no reference value.  Only
rounding may move the margin; each relation states its bound and the
largest move measured at n=6 over these parameters.

Swap: A <-> B maps the segment t -> tA + (1-t)B onto itself (t -> 1-t), so
the segment integral, the midpoint (A+B)/2 and the endpoint average are
unchanged, and so is every pair suite's verdict.  Largest move 3.6e-15.

Unitary covariance: with Phi = id, (A, B) -> (U* A U, U* B U) conjugates
every term of each pair suite by U (f(U* X U) = U* f(X) U), which keeps
every spectrum and so every margin.  Largest move 3.2e-14 (trace).

Reordering: a bourin instance's sums over (Phi_i, A_i) do not depend on
the order of the pairs.  Largest move 2.2e-15.

Phase: jensen reads x only through <Y x, x>, which x -> e^{i theta} x keeps.
Largest move 2.2e-15.
"""

from __future__ import annotations

import cmath

import numpy as np
import pytest

from conftest import conjugate_by, make_rng, random_unitary
from hhmat.harness import THEOREMS, InstanceSpec, generate_instance, run_instance
from hhmat.matcore import array_from_json, array_to_json, matrix_from_json, matrix_to_json

# A function each pair suite judges on [0.5, 2] (none skips there).
PAIR_SUITES = {"t1": "exp", "trace": "exp", "power_norm": "power:2", "t3": "exp",
               "t4": "exp", "chain": "inverse", "norm_chain": "exp"}
# The pair suites whose terms all move with A and B under a conjugation.
COVARIANT_SUITES = ["t1", "trace", "power_norm", "t4", "chain", "norm_chain"]
MARGIN_ATOL = 1e-12
N = 6


def _judged_alike(inst: dict, moved: dict):
    before, after = run_instance(inst), run_instance({**inst, **moved})
    assert before.status == after.status == "pass"
    assert abs(after.margin - before.margin) <= MARGIN_ATOL


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("theorem", list(PAIR_SUITES))
def test_swapping_a_and_b_keeps_the_verdict_and_margin(theorem, seed):
    spec = InstanceSpec(n=N, interval=(0.5, 2.0), function=PAIR_SUITES[theorem],
                        map_desc="congruence" if THEOREMS[theorem].takes_map else "identity",
                        seed=seed)
    for index in range(2):
        inst = generate_instance(theorem, spec, index)
        _judged_alike(inst, {"a": inst["b"], "b": inst["a"]})


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("theorem", COVARIANT_SUITES)
def test_conjugating_a_and_b_by_a_unitary_keeps_the_verdict_and_margin(theorem, seed):
    spec = InstanceSpec(n=N, interval=(0.5, 2.0), function=PAIR_SUITES[theorem], seed=seed)
    u = random_unitary(N, make_rng(100 + seed))
    for index in range(2):
        inst = generate_instance(theorem, spec, index)
        _judged_alike(inst, {key: matrix_to_json(conjugate_by(matrix_from_json(inst[key]), u))
                             for key in ("a", "b")})


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reordering_the_bourin_pairs_keeps_the_verdict_and_margin(seed):
    spec = InstanceSpec(n=N, interval=(0.5, 2.0), function="exp", seed=seed)
    sizes = []
    for index in range(4):
        inst = generate_instance("bourin", spec, index)
        order = np.roll(np.arange(len(inst["maps"])), 1)
        sizes.append(len(order))
        _judged_alike(inst, {"maps": [inst["maps"][i] for i in order],
                             "a_list": [inst["a_list"][i] for i in order]})
    assert max(sizes) >= 2  # some instance has pairs to reorder


@pytest.mark.parametrize("theta", [0.5, 2.0, np.pi])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_phase_on_the_jensen_vector_keeps_the_verdict_and_margin(seed, theta):
    spec = InstanceSpec(n=N, interval=(0.5, 2.0), function="exp", map_desc="congruence",
                        seed=seed)
    for index in range(2):
        inst = generate_instance("jensen", spec, index)
        x = array_from_json(inst["x"], (N,), "vector")
        _judged_alike(inst, {"x": array_to_json(cmath.exp(1j * theta) * x)})
