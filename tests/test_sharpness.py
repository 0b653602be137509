"""Sharpness controls: the converse constant alpha is attained, and each
bound is an equality where it must be.

A random pass cannot show that a checker compares the paper's inequality
and not a weaker one.  These tests pin alpha to closed forms, judge an
instance at which the converse bound is an equality, and shrink alpha by a
relative 1e-6 to see the same comparison fail.  They also judge the
equality instances of the midpoint (whose power case is the power-norm
corollary), trace, Jensen and unitary-orbit bounds: A = B with Phi = id, x
an eigenvector of A, and a single unitary congruence; and of the
refinement chain, the trace chain (whose 1x1 case is the scalar bound) and
t3, at an increasing affine f.

Each bound also has a scaled control: one side of an equality instance,
moved by a relative 1e-6, must fail.  At A = B the integral, scaled by
1 -+ 1e-6, fails t1, t3, the trace chain's left or right link and the
refinement chain's link on either side of it; f(A), shrunk by 1e-6, fails
Jensen at each eigenvector and, on one side alone, the unitary-orbit bound.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from conftest import check_jensen, make_rng, random_unitary
from hhmat import hhcheck
from hhmat.funcat import from_descriptor
from hhmat.harness import default_norm_specs, make_map
from hhmat.matcore import HermitianMatrix, apply_function, eig, random_hermitian
from hhmat.plmaps import CongruenceSum, IdentityMap

INTERVALS = [(0.2, 3.0), (0.5, 2.0), (1.0, 5.0)]
# Margins of the equality instances measured 1.3e-15 at most.
EQUALITY_TOL = 1e-14
SHRINK = 1e-6


def exp_chord_ratio(lo: float, hi: float) -> float:
    """max over [lo, hi] of chord(t) / exp(t), where chord joins the
    endpoint values.  The derivative vanishes where chord(t) equals the
    chord's slope s, at t = lo + 1 - exp(lo) / s."""
    s = (math.exp(hi) - math.exp(lo)) / (hi - lo)
    t = min(max(lo + 1.0 - math.exp(lo) / s, lo), hi)
    return (math.exp(lo) + s * (t - lo)) / math.exp(t)


def kantorovich(lo: float, hi: float) -> float:
    return (lo + hi) ** 2 / (4.0 * lo * hi)


@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("desc, closed_form", [
    ("inverse", kantorovich), ("power:2", kantorovich), ("exp", exp_chord_ratio)])
def test_alpha_equals_its_closed_form(desc, closed_form, interval):
    alpha = hhcheck.mond_pecaric_alpha(from_descriptor(desc), *interval).alpha
    assert alpha == pytest.approx(closed_form(*interval), rel=1e-14)


# f is positive but small near an end: alpha is 5e7 and 1.7e13; the power's
# argmax sqrt(1e-8 * 2) is resolved to a relative 1.3e-11
@pytest.mark.parametrize("desc, closed_form, interval", [
    ("power:2", kantorovich, (1e-8, 2.0)), ("exp", exp_chord_ratio, (-30.0, 5.0))])
def test_alpha_near_a_zero_of_f_equals_its_closed_form(desc, closed_form, interval):
    alpha = hhcheck.mond_pecaric_alpha(from_descriptor(desc), *interval).alpha
    assert alpha == pytest.approx(closed_form(*interval), rel=1e-10)


def _equality_instance(desc: str, lo: float, hi: float):
    """(f, Phi, A) with A = diag(lo, hi) and Phi the compression to the unit
    vector (sqrt(p), sqrt(1-p)), p = (hi - t*) / (hi - lo), t* alpha's
    argmax: Phi(A) = t*, so the converse bound with B = A is an equality."""
    f = from_descriptor(desc)
    t_star = hhcheck.mond_pecaric_alpha(f, lo, hi).argmax_t
    p = (hi - t_star) / (hi - lo)
    phi = CongruenceSum((np.array([[math.sqrt(p)], [math.sqrt(1.0 - p)]]),))
    return f, phi, HermitianMatrix(np.diag([lo, hi]))


EQUALITY_CASES = [("exp", (0.5, 2.0)), ("inverse", (0.2, 3.0)), ("power:2", (0.5, 2.0))]


@pytest.mark.parametrize("desc, interval", EQUALITY_CASES)
def test_the_converse_bound_is_attained(desc, interval):
    f, phi, a = _equality_instance(desc, *interval)
    verdict = hhcheck.check_theorem_t4(f, phi, a, a, interval)
    assert verdict.holds and abs(verdict.margin) <= EQUALITY_TOL
    chain = hhcheck.check_norm_chain_corollary(f, phi, a, a, default_norm_specs(1), interval)
    link1 = {label: link.margin for label, link in chain.links.items() if label.endswith(":link1")}
    assert chain.holds and set(link1.values()) == {verdict.margin}
    assert len(link1) == len(default_norm_specs(1))


@pytest.mark.parametrize("desc, interval", EQUALITY_CASES)
def test_a_shrunk_alpha_fails_at_the_equality_instance(desc, interval, monkeypatch):
    f, phi, a = _equality_instance(desc, *interval)
    exact = hhcheck.mond_pecaric_alpha
    monkeypatch.setattr(hhcheck, "mond_pecaric_alpha", lambda f, lo, hi: dataclasses.replace(
        exact(f, lo, hi), alpha=exact(f, lo, hi).alpha * (1.0 - SHRINK)))
    verdict = hhcheck.check_theorem_t4(f, phi, a, a, interval)
    assert not verdict.holds and verdict.margin < -SHRINK / 2.0
    chain = hhcheck.check_norm_chain_corollary(f, phi, a, a, default_norm_specs(1), interval)
    assert not chain.holds and chain.margin == verdict.margin


# -- equality instances of the other bounds -------------------------------------

# Margins at these instances measured 3.1e-15 at most relative to max(1, max|f(lambda(A))|).
RELATIVE_EQUALITY_TOL = 1e-13
SIZES = [1, 3, 6]
CONVEX_CASES = [("exp", (0.5, 2.0)), ("inverse", (0.2, 3.0)), ("power:2", (0.5, 2.0)),
                ("xlogx", (0.1, 3.0))]


def _at_equality(desc: str, interval, n: int):
    """(f, A, the equality bound on |margin|) for a random A with spectrum
    inside the interval."""
    f = from_descriptor(desc)
    a = random_hermitian(n, *interval, make_rng(n))
    scale = max(1.0, max(abs(f(float(lam))) for lam in eig(a).values))
    return f, a, RELATIVE_EQUALITY_TOL * scale


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("desc, interval", CONVEX_CASES)
def test_the_midpoint_bounds_are_equalities_at_a_equal_b(desc, interval, n):
    # the segment from A to A is constant, so each side is f(A)
    f, a, tol = _at_equality(desc, interval, n)
    for verdict in (hhcheck.check_theorem_t1(f, IdentityMap(n), a, a),
                    hhcheck.check_trace_corollary(f, a, a)):
        assert verdict.holds and abs(verdict.margin) <= tol


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("desc, interval", CONVEX_CASES)
def test_jensen_is_an_equality_at_an_eigenvector(desc, interval, n):
    # <A x, x> = lambda and <f(A) x, x> = f(lambda)
    f, a, tol = _at_equality(desc, interval, n)
    for x in eig(a).vectors.T:
        verdict = check_jensen(f, IdentityMap(n), a, x)
        assert verdict.holds and abs(verdict.margin) <= tol


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("desc", ["exp", "power:2@0,inf"])
def test_bourin_is_an_equality_under_one_unitary_congruence(desc, n):
    # f(U* A U) = U* f(A) U: the two sides are unitarily similar
    f, a, tol = _at_equality(desc, (0.5, 2.0), n)
    phi = CongruenceSum((random_unitary(n, make_rng(10 + n)),))
    verdict = hhcheck.check_bourin_t2(f, [phi], [a])
    assert verdict.holds and abs(verdict.margin) <= tol


# An increasing affine f makes every link of the refinement chain, the trace
# chain and t3 an equality: the Riemann sums, the quadrature and the endpoint
# average of an affine integrand are exact, and f(Phi(X)) = Phi(f(X)) for a
# unital Phi.  Their margins measured 1.6e-15 at most relative to
# max(1, max|f(lambda)|) (the trace chain at n = 6).
AFFINE = "affine:2,0.5"


def _affine_pair(n: int):
    """(f, A, B, the equality bound on |margin|) for the affine f and a random
    pair with spectra in [-1, 2]."""
    f = from_descriptor(AFFINE)
    rng = make_rng(20 + n)
    a, b = random_hermitian(n, -1.0, 2.0, rng), random_hermitian(n, -1.0, 2.0, rng)
    scale = max(1.0, max(abs(f(float(lam))) for h in (a, b) for lam in eig(h).values))
    return f, a, b, RELATIVE_EQUALITY_TOL * scale


@pytest.mark.parametrize("n", SIZES)
def test_the_refinement_and_trace_chains_are_equalities_for_affine_f(n):
    f, a, b, tol = _affine_pair(n)
    for chain in (hhcheck.check_refinement_chain(f, a, b, 4),
                  hhcheck.check_trace_corollary(f, a, b)):
        assert chain.holds and all(abs(link.margin) <= tol for link in chain.links.values())


@pytest.mark.parametrize("n", SIZES)
def test_t3_is_an_equality_for_affine_f_under_a_unital_map(n):
    # the uniform hypothesis then holds with U = I as an equality at every t
    f, a, b, tol = _affine_pair(n)
    phi = make_map("congruence:2", n, make_rng(30 + n))
    verdict = hhcheck.check_theorem_t3(f, phi, a, b)
    assert verdict.holds and abs(verdict.margin) <= tol


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("desc, interval", EQUALITY_CASES)
@pytest.mark.parametrize("factor, failing, holding", [
    (1.0 - SHRINK, "midpoint<=integral", "integral<=endpoint_average"),
    (1.0 + SHRINK, "integral<=endpoint_average", "midpoint<=integral"),
], ids=["shrunk", "grown"])
def test_a_scaled_integral_fails_one_trace_link_at_a_equal_b(desc, interval, n, factor,
                                                              failing, holding, monkeypatch):
    # f is positive here, so scaling the integral by 1 -+ 1e-6 moves it below
    # the midpoint value or above the endpoint average by 1e-6 Tr f(A)
    f, a, _ = _at_equality(desc, interval, n)
    exact = hhcheck.segment_integral
    monkeypatch.setattr(hhcheck, "segment_integral",
                        lambda f, a, b, quad: factor * exact(f, a, b, quad))
    links = hhcheck.check_trace_corollary(f, a, a).links
    assert not links[failing].holds
    assert links[failing].margin < -SHRINK / 2.0 * apply_function(f, a).trace
    assert links[holding].holds


# -- scaled controls: an equality instance with one side moved fails ------------

# The least negative control margin measured -2.8e-7 (jensen, power:2 on [0.5, 2]).
CONTROL_MARGIN = -1e-7
# operator convex and positive, as the refinement chain needs
CHAIN_CASES = [("inverse", (0.2, 3.0)), ("power:2@0,inf", (0.5, 2.0))]
INCREASING = ["exp", "power:2@0,inf"]


def _scale(monkeypatch, name: str, factor: float, only=None):
    """Rebind hhcheck.<name>, which takes f and a matrix first, to factor
    times its exact value: for that matrix alone when `only` is given."""
    exact = getattr(hhcheck, name)
    monkeypatch.setattr(hhcheck, name, lambda f, h, *rest: (
        factor * exact(f, h, *rest) if only is None or h is only else exact(f, h, *rest)))


def _fails(verdict):
    assert not verdict.holds and verdict.margin < CONTROL_MARGIN


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("desc, interval", EQUALITY_CASES)
def test_a_shrunk_integral_fails_t1_at_a_equal_b(desc, interval, n, monkeypatch):
    f, a, _ = _at_equality(desc, interval, n)
    assert hhcheck.check_theorem_t1(f, IdentityMap(n), a, a).holds
    _scale(monkeypatch, "segment_integral", 1.0 - SHRINK)
    _fails(hhcheck.check_theorem_t1(f, IdentityMap(n), a, a))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("desc, interval", CHAIN_CASES)
@pytest.mark.parametrize("factor, failing", [
    (1.0 - SHRINK, "midpoint_riemann<=integral"), (1.0 + SHRINK, "integral<=trapezoid_riemann"),
], ids=["shrunk", "grown"])
def test_a_scaled_integral_fails_one_refinement_link_at_a_equal_b(desc, interval, n, factor,
                                                                   failing, monkeypatch):
    f, a, _ = _at_equality(desc, interval, n)
    assert hhcheck.check_refinement_chain(f, a, a, 4).holds
    _scale(monkeypatch, "segment_integral", factor)
    links = hhcheck.check_refinement_chain(f, a, a, 4).links
    assert [label for label, link in links.items() if not link.holds] == [failing]
    _fails(links[failing])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("desc", INCREASING)
def test_a_grown_integral_fails_t3_at_a_equal_b(desc, n, monkeypatch):
    f, a, _ = _at_equality(desc, (0.5, 2.0), n)
    assert hhcheck.check_theorem_t3(f, IdentityMap(n), a, a).holds
    _scale(monkeypatch, "segment_integral", 1.0 + SHRINK)
    _fails(hhcheck.check_theorem_t3(f, IdentityMap(n), a, a))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("desc, interval", EQUALITY_CASES)
def test_a_shrunk_f_of_a_fails_jensen_at_each_eigenvector(desc, interval, n, monkeypatch):
    f, a, _ = _at_equality(desc, interval, n)
    vectors = eig(a).vectors.T
    assert all(check_jensen(f, IdentityMap(n), a, x).holds for x in vectors)
    _scale(monkeypatch, "apply_function", 1.0 - SHRINK, only=a)  # f(A), not f(<A x, x>)
    for x in vectors:
        _fails(check_jensen(f, IdentityMap(n), a, x))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("desc", INCREASING)
def test_a_shrunk_f_of_a_fails_bourin_under_one_unitary_congruence(desc, n, monkeypatch):
    # f(A_1) on the right shrinks; f of the sum on the left does not
    f, a, _ = _at_equality(desc, (0.5, 2.0), n)
    phi = CongruenceSum((random_unitary(n, make_rng(10 + n)),))
    assert hhcheck.check_bourin_t2(f, [phi], [a]).holds
    _scale(monkeypatch, "apply_function", 1.0 - SHRINK, only=a)
    _fails(hhcheck.check_bourin_t2(f, [phi], [a]))
