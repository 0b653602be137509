"""Metamorphic relations: transforms of an instance that must leave its
verdict and margin unchanged, or scale the margin by a known factor,
checked with no reference value.  Only rounding may move the margin
otherwise; each relation states its bound and the largest move measured
over these parameters (at n=6 unless it says).

Swap: A <-> B maps the segment t -> tA + (1-t)B onto itself (t -> 1-t), so
the segment integral, the midpoint (A+B)/2 and the endpoint average are
unchanged, and so is every pair suite's verdict.  Largest move 3.6e-15.

Unitary covariance: with Phi = id, (A, B) -> (U* A U, U* B U) conjugates
every term of each pair suite by U (f(U* X U) = U* f(X) U), which keeps
every spectrum and every Loewner comparison (t3's uniform-unitary
hypothesis too), and so every margin.  Largest move 3.2e-14 (trace; t3's
1.1e-14).  Adding 1e-3 to the (0, 0) entry of t3's integral fails its
three cases.

Reordering: a bourin instance's sums over (Phi_i, A_i) do not depend on
the order of the pairs.  Largest move 2.2e-15.

Phase: jensen reads x only through <Y x, x>, which x -> e^{i theta} x keeps.
Largest move 2.2e-15.

Implication: with Phi = id, t1's n-th partial-sum deficit is the trace
chain's midpoint link, so t1's margin, its smallest deficit, is at most
that link's margin on the same pair.  Largest excess over 300 pairs (these
functions, n in {1, 3, 6}) 0.

Order implications: for any Hermitian pair of one size n, Weyl's
inequalities lambda_j(B) >= lambda_j(A) + lambda_min(B - A) put the
Loewner margin of A <= B at most the eigenvalue-dominance margin g, and
summing the first k dominance gaps puts the k-th weak-majorization deficit
at least k g, so the weak-majorization margin at least min(g, n g).  Bound
1e-12 n max(1, |lambda(A)|, |lambda(B)|); largest excess 0 over the pairs
tested (seeded pairs at n in {1, 3, 6, 16} and the two sides of t4
instances), where n=1 gives equality.  Taking the Loewner margin from the
gap's largest eigenvalue, or summing B's eigenvalues in ascending order for
weak majorization, fails every case but n=1.

Chain implication: with Phi = id, the chain's midpoint <= midpoint_riemann
and midpoint_riemann <= integral links are Loewner margins of the gaps
R - M and I - R, whose sum is I - M, so lambda_min(I - M) is at least
their sum s (Weyl).  The order implications above then put t1's margin,
the weak-majorization margin of M against I, at least min(s, n s).
Bound 1e-12 n max(1, |lambda(A)|, |lambda(B)|); largest excess 0 over 200
pairs (these operator convex functions, n in {1, 3, 6, 16}), where n=1
gives equality.  Taking the Loewner margin from the gap's largest
eigenvalue fails the relation.

Power homogeneity: for f = t^r on [0, inf) and PSD A, B, f(cX) = c^r f(X)
for every term, so (A, B) -> (cA, cB) with c > 0 scales t1's margin and both
trace links by c^r.  Bound 1e-12 c^r max(1, Tr f(A), Tr f(B)); largest move
2.9e-15 of that scale over 2,160 margins (these powers, n in {1, 3, 6}, c in
{0.5, 1.7, 3}, 20 pairs each, where the test draws 5).  Adding 1e-3 I to
t1's integral, a term of degree 0, fails every case.
"""

from __future__ import annotations

import cmath

import numpy as np
import pytest

from conftest import conjugate_by, make_rng, random_hermitian_raw, random_psd, random_unitary
from hhmat import hhcheck, orders
from hhmat.funcat import from_descriptor
from hhmat.harness import THEOREMS, InstanceSpec, generate_instance, run_instance
from hhmat.matcore import (apply_function, array_from_json, array_to_json, eig,
                           matrix_from_json, matrix_to_json, random_hermitian)
from hhmat.plmaps import IdentityMap

# A function each pair suite judges on [0.5, 2] (none skips there).
PAIR_SUITES = {"t1": "exp", "trace": "exp", "t3": "exp", "t4": "exp", "chain": "inverse",
               "norm_chain": "exp"}
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
@pytest.mark.parametrize("theorem", list(PAIR_SUITES))
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


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("desc, interval", [
    ("exp", (0.5, 2.0)), ("inverse", (0.2, 3.0)), ("power:2", (-1.0, 2.0)),
    ("xlogx", (0.1, 3.0)), ("power:4", (-1.0, 2.0))])
def test_t1_margin_is_at_most_the_trace_midpoint_margin(desc, interval, n):
    f = from_descriptor(desc)
    rng = make_rng(40 + n)
    for _ in range(4):
        a, b = random_hermitian(n, *interval, rng), random_hermitian(n, *interval, rng)
        t1 = hhcheck.check_theorem_t1(f, IdentityMap(n), a, b)
        link = hhcheck.check_trace_corollary(f, a, b).links["midpoint<=integral"]
        scale = max(1.0, abs(apply_function(f, a).trace), abs(apply_function(f, b).trace))
        assert t1.margin <= link.margin + MARGIN_ATOL * scale


@pytest.mark.parametrize("n", [1, 3, 6, 16])
@pytest.mark.parametrize("desc, interval", [
    ("inverse", (0.2, 3.0)), ("power:1.5", (0.5, 3.0)), ("xlogx", (0.1, 2.0)),
    ("power:2", (-1.0, 2.0)), ("neg_sqrt", (0.0, 2.0))])
def test_the_chain_midpoint_links_bound_t1_from_below(desc, interval, n):
    f = from_descriptor(desc)
    rng = make_rng(70 + n)
    for _ in range(10):
        a, b = random_hermitian(n, *interval, rng), random_hermitian(n, *interval, rng)
        links = hhcheck.check_refinement_chain(f, a, b, 2).links
        s = links["midpoint<=midpoint_riemann"].margin + links["midpoint_riemann<=integral"].margin
        t1 = hhcheck.check_theorem_t1(f, IdentityMap(n), a, b).margin
        scale = n * max(1.0, float(np.max(np.abs(eig(a).values))),
                        float(np.max(np.abs(eig(b).values))))
        assert t1 >= min(s, n * s) - MARGIN_ATOL * scale


def _check_order_implications(a, b):
    """Loewner margin <= g and weak-majorization margin >= min(g, n g) for
    a <= b: see Order implications above."""
    loewner = orders.loewner_leq(a, b).margin
    g = orders.eigen_dominance(a, b).margin
    weak = orders.weak_majorization(a, b).margin
    n = a.dim
    scale = n * max(1.0, float(np.max(np.abs(eig(a).values))),
                    float(np.max(np.abs(eig(b).values))))
    assert loewner <= g + MARGIN_ATOL * scale
    assert weak >= min(g, n * g) - MARGIN_ATOL * scale


@pytest.mark.parametrize("n", [1, 3, 6, 16])
def test_the_order_margins_imply_one_another_on_random_pairs(n):
    rng = make_rng(60 + n)
    for _ in range(10):
        a = random_hermitian_raw(n, rng)
        _check_order_implications(a, random_hermitian_raw(n, rng))
        # a <= b, where every margin is at least 0
        _check_order_implications(a, a + random_psd(n, rng))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_order_margins_imply_one_another_on_the_sides_of_t4(seed, monkeypatch):
    sides = []
    loewner_leq = orders.loewner_leq
    monkeypatch.setattr(orders, "loewner_leq",
                        lambda a, b: sides.append((a, b)) or loewner_leq(a, b))
    spec = InstanceSpec(n=N, interval=(0.5, 2.0), function="exp", map_desc="congruence",
                        seed=seed)
    for index in range(4):
        assert run_instance(generate_instance("t4", spec, index)).status == "pass"
    monkeypatch.undo()
    assert len(sides) == 4
    for a, b in sides:
        _check_order_implications(a, b)


def _homogeneous_margins(f, a, b) -> list[float]:
    """t1's margin with Phi = id and the margins of both trace links."""
    links = hhcheck.check_trace_corollary(f, a, b).links
    return [hhcheck.check_theorem_t1(f, IdentityMap(a.dim), a, b).margin,
            links["midpoint<=integral"].margin, links["integral<=endpoint_average"].margin]


@pytest.mark.parametrize("c", [0.5, 1.7, 3.0])
@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("desc, r", [
    ("power:1.5", 1.5), ("power:2@0,inf", 2.0), ("cube", 3.0), ("power:4@0,inf", 4.0)])
def test_scaling_a_and_b_scales_the_power_margins_by_c_to_the_r(desc, r, n, c):
    f = from_descriptor(desc)
    rng = make_rng(50 + n)
    for _ in range(5):
        a, b = random_hermitian(n, 0.0, 2.0, rng), random_hermitian(n, 0.0, 2.0, rng)
        scale = max(1.0, apply_function(f, a).trace, apply_function(f, b).trace)
        for before, after in zip(_homogeneous_margins(f, a, b),
                                 _homogeneous_margins(f, c * a, c * b)):
            assert abs(after - c ** r * before) <= MARGIN_ATOL * c ** r * scale
