"""Metamorphic relations: transforms of an instance that must leave its
verdict and margin unchanged, checked with no reference value.

Swap: A <-> B maps the segment t -> tA + (1-t)B onto itself (t -> 1-t), so
the segment integral, the midpoint (A+B)/2 and the endpoint average are
unchanged, and so is every pair suite's verdict.  Only rounding may move
the margin: at n=6 the largest move over these parameters is 3.6e-15.
"""

from __future__ import annotations

import pytest

from hhmat.harness import THEOREMS, InstanceSpec, generate_instance, run_instance

# A function each pair suite judges on [0.5, 2] (none skips there).
PAIR_SUITES = {"t1": "exp", "trace": "exp", "power_norm": "power:2", "t3": "exp",
               "t4": "exp", "chain": "inverse", "norm_chain": "exp"}
SWAP_MARGIN_ATOL = 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("theorem", list(PAIR_SUITES))
def test_swapping_a_and_b_keeps_the_verdict_and_margin(theorem, seed):
    spec = InstanceSpec(n=6, interval=(0.5, 2.0), function=PAIR_SUITES[theorem],
                        map_desc="congruence" if THEOREMS[theorem].takes_map else "identity",
                        seed=seed)
    for index in range(2):
        inst = generate_instance(theorem, spec, index)
        before = run_instance(inst)
        after = run_instance({**inst, "a": inst["b"], "b": inst["a"]})
        assert before.status == after.status == "pass"
        assert abs(after.margin - before.margin) <= SWAP_MARGIN_ATOL
