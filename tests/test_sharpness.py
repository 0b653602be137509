"""Sharpness controls: the converse constant alpha is attained, and each
bound is an equality where it must be.

A random pass cannot show that a checker compares the paper's inequality
and not a weaker one.  These tests pin alpha to closed forms, judge an
instance at which the converse bound is an equality, and shrink alpha by a
relative 1e-6 to see the same comparison fail.  They also judge the
equality instances of the midpoint, trace, power-norm, Jensen and
unitary-orbit bounds: A = B with Phi = id, x an eigenvector of A, and a
single unitary congruence; and of the refinement chain, the scalar bound and
t3, at an increasing affine f.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from conftest import make_rng, random_unitary
from hhmat import hhcheck
from hhmat.funcat import from_descriptor
from hhmat.harness import default_norm_specs, make_map
from hhmat.matcore import HermitianMatrix, eig, random_hermitian
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
    verdicts = [hhcheck.check_theorem_t1(f, IdentityMap(n), a, a),
                hhcheck.check_trace_corollary(f, a, a)]
    if f.power is not None:  # the power_norm suite
        verdicts.append(hhcheck.check_theorem_t1(hhcheck.psd_power(f), IdentityMap(n), a, a))
    for verdict in verdicts:
        assert verdict.holds and abs(verdict.margin) <= tol


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("desc, interval", CONVEX_CASES)
def test_jensen_is_an_equality_at_an_eigenvector(desc, interval, n):
    # <A x, x> = lambda and <f(A) x, x> = f(lambda)
    f, a, tol = _at_equality(desc, interval, n)
    for x in eig(a).vectors.T:
        verdict = hhcheck.check_jensen_map(f, IdentityMap(n), a, x)
        assert verdict.holds and abs(verdict.margin) <= tol


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("desc", ["exp", "power:2@0,inf"])
def test_bourin_is_an_equality_under_one_unitary_congruence(desc, n):
    # f(U* A U) = U* f(A) U: the two sides are unitarily similar
    f, a, tol = _at_equality(desc, (0.5, 2.0), n)
    phi = CongruenceSum((random_unitary(n, make_rng(10 + n)),))
    verdict = hhcheck.check_bourin_t2(f, [phi], [a])
    assert verdict.holds and abs(verdict.margin) <= tol


# An increasing affine f makes every link of the chain, the scalar bound and
# t3 an equality: the Riemann sums, the quadrature and the endpoint average
# of an affine integrand are exact, and f(Phi(X)) = Phi(f(X)) for a unital Phi.
# Their margins measured 1.2e-15 at most relative to max(1, max|f(lambda)|).
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
def test_the_refinement_chain_is_an_equality_for_affine_f(n):
    f, a, b, tol = _affine_pair(n)
    chain = hhcheck.check_refinement_chain(f, a, b, 2, 2)
    assert chain.holds and all(abs(link.margin) <= tol for link in chain.links.values())


@pytest.mark.parametrize("n", SIZES)
def test_t3_is_an_equality_for_affine_f_under_a_unital_map(n):
    # the uniform hypothesis then holds with U = I as an equality at every t
    f, a, b, tol = _affine_pair(n)
    phi = make_map("congruence:2", n, None, make_rng(30 + n))
    verdict = hhcheck.check_theorem_t3(f, phi, a, b)
    assert verdict.holds and abs(verdict.margin) <= tol


# the scalar bound is the 1x1 case, so it takes an interval, not a size
@pytest.mark.parametrize("x, y", [(-1.0, 2.0), (0.25, 0.5), (-0.75, -0.5)])
def test_the_scalar_bound_is_an_equality_for_affine_f(x, y):
    f = from_descriptor(AFFINE)
    report = hhcheck.check_scalar_hh(f, x, y)
    tol = RELATIVE_EQUALITY_TOL * max(1.0, abs(f(x)), abs(f(y)))
    assert report.holds and all(abs(link.margin) <= tol for link in report.links.values())
