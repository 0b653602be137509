"""Sharpness controls for the converse bound: its constant alpha is attained.

A random pass cannot show that a checker compares the paper's inequality
and not a weaker one.  These tests pin alpha to closed forms, judge an
instance at which the converse bound is an equality, and shrink alpha by a
relative 1e-6 to see the same comparison fail.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from hhmat import hhcheck
from hhmat.funcat import from_descriptor
from hhmat.harness import default_norm_specs
from hhmat.matcore import HermitianMatrix
from hhmat.plmaps import CongruenceSum

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
