"""Executable checkers for two-sided mean-value matrix inequalities.

Every checker validates its hypotheses (declared flags, unitality, spectra)
before judging the conclusion and raises HypothesisUnmet when they fail, so
an inequality violation with hypotheses met is always a bug signal.  The
fixed 2x2 counterexample showing that the naive two-sided matrix bound for
t^3 fails is reproduced in exact rational arithmetic.

A checker returns the OrderVerdict of its one comparison (for t1, weak
majorization of the eigenvalue partial sums) or a ChainReport of labelled
verdicts for several; a harness reads only holds and margin.  Each verdict
comes from orders.judge.  No judged link means a skip: a checker left with
no comparison to judge raises HypothesisUnmet.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import orders, plmaps
from .errors import BadInterval, BadParams, HypothesisUnmet
from .funcat import ScalarFunction, working_interval
# eig is unused here but stays bound: the benchmark's tracing test restores hhcheck.eig
from .matcore import (HermitianMatrix, apply_function, eig, eig_many, norm_spec,  # noqa: F401
                      spectrum_outside, ui_norm)
from .orders import OrderVerdict
from .plmaps import PositiveLinearMap
from .segquad import (
    NODE_CAP,
    QuadratureSpec,
    poly_segment_oracle_exact,
    segment_integral,
    segment_points,
    segment_sum,
)

ALPHA_GRID_POINTS = 10_000
ALPHA_XTOL = 1e-12
# (f, omega, Omega) keys kept by the mond_pecaric_alpha memo.
ALPHA_MEMO_SIZE = 64


# -- report types --------------------------------------------------------------

@dataclass(frozen=True)
class ChainReport:
    """Labelled verdicts, never none: the links of an inequality chain, or
    one norm comparison per norm.  It holds when every link holds; its
    margin is the smallest link margin."""

    links: dict[str, OrderVerdict]

    @property
    def holds(self) -> bool:
        return all(link.holds for link in self.links.values())

    @property
    def margin(self) -> float:
        return min(link.margin for link in self.links.values())


@dataclass(frozen=True)
class AlphaResult:
    """Maximum of the chord-to-function ratio over the working interval."""

    alpha: float
    argmax_t: float
    omega: float
    Omega: float


# -- hypothesis helpers ---------------------------------------------------------

def _check_hypotheses(reasons: list[str]):
    """Raise HypothesisUnmet listing every failed hypothesis, if any failed."""
    if reasons:
        raise HypothesisUnmet(*reasons)


def _labels_outside(interval, mats: dict) -> list[str]:
    """The labels of the matrices whose spectra leave the interval, each
    distinct matrix tested once: the identity map's images are A and B
    themselves."""
    outside = {h: spectrum_outside(interval, h) for h in dict.fromkeys(mats.values())}
    return [label for label, h in mats.items() if outside[h]]


def _hypothesis_reasons(f: ScalarFunction, flags: tuple, mats: dict) -> list[str]:
    """A reason for each flag f is not declared, then one for each labelled
    matrix whose spectrum leaves the domain of f, the matrices decomposed in
    one eig_many call, which alone decides how they are stacked."""
    eig_many(list(mats.values()))
    return ([f"{f.name} is not declared {flag.replace('_', ' ')}"
             for flag in flags if not getattr(f.flags, flag)]
            + [f"spectrum of {label} leaves domain {f.domain} of {f.name}"
               for label in _labels_outside(f.domain, mats)])


def _map_case_reasons(
    f: ScalarFunction,
    image: HermitianMatrix,
    *,
    subunital_ok: bool = True,
    label: str = "Phi(I)",
) -> list[str]:
    """Empty list when the identity image Phi(I) (for a sum of maps, the sum
    of their identity images) meets case (i), Phi(I) = I, or case (ii),
    Phi(I) <= I with 0 in the domain of f and f(0) <= 0, read off f once
    with numpy's warnings off (a NaN value fails).  subunital_ok=False
    admits case (i) only.  Case (ii) is case (i) for
    Psi(X (+) y) = Phi(X) + y(I - Phi(I)), positive and unital on M_n (+) C
    as a Kraus sum has Phi(I) >= 0: at A (+) 0 and B (+) 0 its right side
    Psi(R (+) f(0)) = Phi(R) + f(0)(I - Phi(I)) is <= Phi(R).  The Loewner
    order keeps eigenvalue dominance (Weyl), so weak majorization; a 1x1
    Phi(I) = 0 forces Phi = 0, and the comparison reads f(0) <= 0.  Each
    comparison is orders.judge's at the scale of Phi(I)'s spectral radius; the
    Frobenius distance to I, a bound on the operator-norm one, is judged first
    at scale 1, so a unital Phi(I) needs no decomposition.
    """
    if orders.judge(-np.linalg.norm(image.entries - np.eye(image.dim)), 1.0).holds:
        return []
    rep = plmaps.unitality_status(image)
    scale = max(abs(rep.lambda_max), abs(rep.lambda_min))
    if orders.judge(-rep.identity_distance, scale).holds:
        return []
    if not subunital_ok:
        return [f"{label} is not I (distance {rep.identity_distance:.3g}); a unital map is needed"]
    reasons = []
    if not orders.judge(1.0 - rep.lambda_max, scale).holds:
        reasons.append(f"{label} has top eigenvalue {rep.lambda_max:.6g} > 1")
    if not f.domain.contains(0.0):
        return reasons + [f"0 is outside the domain {f.domain} of {f.name}"]
    with np.errstate(all="ignore"):
        f0 = f(0.0)
    return reasons + ([] if f0 <= 0.0 else [f"{f.name}(0) = {f0:g} is not <= 0"])


# -- midpoint bound: weak majorization, and the two-sided trace chain -------------

def check_theorem_t1(
    f: ScalarFunction,
    phi: PositiveLinearMap,
    a: HermitianMatrix,
    b: HermitianMatrix,
    quad: QuadratureSpec = QuadratureSpec(),
) -> OrderVerdict:
    """Eigenvalues of f((Phi(A)+Phi(B))/2) are weakly majorized by those of
    Phi(integral of f along the segment from B to A), for Phi(I) = I or for
    Phi(I) <= I with f(0) <= 0 (see _map_case_reasons): the verdict of
    orders.weak_majorization, witnessed by the index of the partial sum with
    the smallest deficit.  For PSD A, B and f = t^r on [0, inf) both sides
    are PSD, so by Ky Fan dominance (Bhatia, Matrix Analysis, Thm IV.2.2) it
    is the power-norm corollary |||((Phi(A)+Phi(B))/2)^r||| <= |||Phi(segment
    integral of t^r)||| in every unitarily invariant norm: run ``hhmat verify
    --theorem t1 --f power:r@0,<hi> --interval max(lo,0),hi``."""
    pa, pb = phi.apply(a), phi.apply(b)  # DimMismatch before Phi(I) is built
    _check_hypotheses(_hypothesis_reasons(f, ("convex",), {"A": a, "B": b})
                      + _map_case_reasons(f, phi.identity_image()))
    lhs = apply_function(f, (pa + pb) / 2.0)
    rhs = phi.apply(segment_integral(f, a, b, quad))
    return orders.weak_majorization(lhs, rhs)


def check_trace_corollary(
    f: ScalarFunction,
    a: HermitianMatrix,
    b: HermitianMatrix,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ChainReport:
    """Trace form of the two-sided bound: Tr f((A+B)/2) <= Tr of the segment
    integral <= Tr (f(A)+f(B))/2.  g(t) = Tr f(tA + (1-t)B) is convex for
    convex f (Carlen, Trace inequalities and quantum entropy, 2010, Thm
    2.10), so this is the classical Hermite-Hadamard chain of g on [0, 1],
    checked directly rather than through the partial sums.  At n = 1, with
    A = [y] and B = [x], it is the scalar bound on [x, y] divided by y - x."""
    _check_hypotheses(_hypothesis_reasons(f, ("convex",), {"A": a, "B": b}))
    mid = apply_function(f, (a + b) / 2.0).trace
    integral = segment_integral(f, a, b, quad).trace
    ends = (apply_function(f, a).trace + apply_function(f, b).trace) / 2.0
    return ChainReport({
        "midpoint<=integral": orders.judge(integral - mid, max(abs(mid), abs(integral))),
        "integral<=endpoint_average": orders.judge(ends - integral,
                                                   max(abs(integral), abs(ends)))})


# -- monotone-convex endpoint bound (unitary conjugate form) -----------------------

def check_bourin_t2(
    f: ScalarFunction,
    maps,
    a_list,
) -> OrderVerdict:
    """f(sum_i Phi_i(A_i)) <= U [sum_i Phi_i(f(A_i))] U* for some unitary U,
    for increasing convex f.  Such a U exists exactly when the eigenvalues
    are dominated (see orders), so the verdict is orders.eigen_dominance of
    the two sides; orders.unitary_witness constructs U.

    Into 1x1 matrices U is a phase: the comparison is Jensen's inequality
    for the functionals Phi_i (Choi, Illinois J. Math. 18, 1974), which asks
    f to be convex only.  The jensen suite is this case (plmaps.vector_state).
    """
    maps, a_list = list(maps), list(a_list)
    if len(maps) != len(a_list) or not maps:
        raise BadParams("need equally many maps and matrices, at least one each")
    # DimMismatch before Phi_i(I) is built: a map of another source or target size
    arg = functools.reduce(operator.add, (phi.apply(h) for phi, h in zip(maps, a_list)))
    reasons = _hypothesis_reasons(f, ("convex", "increasing") if arg.dim > 1 else ("convex",),
                                  {f"A_{i}": h for i, h in enumerate(a_list)})
    id_sum = functools.reduce(operator.add, (phi.identity_image() for phi in maps))
    _check_hypotheses(reasons + _map_case_reasons(f, id_sum, label="sum of Phi_i(I)"))
    val = functools.reduce(operator.add, (phi.apply(apply_function(f, h))
                                          for phi, h in zip(maps, a_list)))
    return orders.eigen_dominance(apply_function(f, arg), val)


# -- conditional endpoint bound with a supplied uniform unitary --------------------

def check_theorem_t3(
    f: ScalarFunction,
    phi: PositiveLinearMap,
    a: HermitianMatrix,
    b: HermitianMatrix,
    quad: QuadratureSpec = QuadratureSpec(),
) -> OrderVerdict:
    """If one unitary U satisfies f(t Phi(A) + (1-t) Phi(B)) <= U [t Phi(f(A))
    + (1-t) Phi(f(B))] U* along the whole segment, then the eigenvalues of the
    segment integral are dominated by those of the endpoint average.

    The uniform hypothesis is verified with U = I at 33 evenly spaced t; a
    failing point raises HypothesisUnmet rather than judging the conclusion.

    With U = I the conclusion follows from the hypothesis by integration:
    integrating the comparison over t in [0, 1] gives the Loewner order
    integral <= (Phi(f(A)) + Phi(f(B)))/2, and by Weyl's monotonicity
    principle the Loewner order implies eigenvalue dominance.  So, with its
    hypotheses met, this check can fail only where its 33-point grid misses
    a point of the segment or its quadrature errs.
    """
    pa, pb = phi.apply(a), phi.apply(b)  # DimMismatch before Phi(I) is built
    _check_hypotheses(_hypothesis_reasons(f, ("convex", "increasing"), {"A": a, "B": b})
                      + _map_case_reasons(f, phi.identity_image()))
    grid = np.linspace(0.0, 1.0, 33)
    pfa, pfb = phi.apply(apply_function(f, a)), phi.apply(apply_function(f, b))
    for t, point in zip(grid, segment_points(pa, pb, grid)):
        t = float(t)
        rhs_t = t * pfa + (1.0 - t) * pfb
        if not orders.loewner_leq(apply_function(f, point), rhs_t).holds:
            raise HypothesisUnmet(f"uniform-unitary comparison fails at t={t:.6g}")
    integral = segment_integral(f, pa, pb, quad)
    return orders.eigen_dominance(integral, (pfa + pfb) / 2.0)


# -- chord-ratio constant and the converse bound -----------------------------------

def _golden_max(g, lo: float, hi: float, xtol: float = ALPHA_XTOL) -> tuple[float, float]:
    """Golden-section maximization of a unimodal-enough g on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    gc, gd = g(c), g(d)
    while b - a > xtol:
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - inv_phi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + inv_phi * (b - a)
            gd = g(d)
    t = (a + b) / 2.0
    return t, g(t)


@functools.lru_cache(maxsize=ALPHA_MEMO_SIZE)
def mond_pecaric_alpha(f: ScalarFunction, omega: float, Omega: float) -> AlphaResult:
    """Maximum over [omega, Omega] of the chord value of f at t divided by
    f(t); this constant weights the endpoint average in the converse bound.

    [omega, Omega] must be a working interval (funcat.working_interval) in
    f's domain with f positive and the ratio finite on its grid, else
    BadInterval (numpy's own warnings are off).  A coarse grid scan locates
    the maximum and golden-section refinement narrows it below ALPHA_XTOL.

    f(0) is judged too when omega < 0 < Omega: a zero where f changes sign
    leaves a grid value <= 0, and in the catalog the one other zero is an
    even power's at 0, a grid point only when it ends the interval.

    Results are memoized on (f, omega, Omega): a suite passes its one
    interval to every trial, so only its first trial computes alpha.
    Errors are not memoized.
    """
    working_interval(omega, Omega)
    if not f.domain.contains_interval(omega, Omega):
        raise BadInterval(f"[{omega}, {Omega}] is not inside domain {f.domain} of {f.name}")
    grid = np.linspace(omega, Omega, ALPHA_GRID_POINTS)
    points = np.append(grid, 0.0) if omega < 0.0 < Omega else grid
    width = Omega - omega
    with np.errstate(all="ignore"):
        vals = f.eval_array(points)
        f_lo, f_hi = float(vals[0]), float(vals[len(grid) - 1])
        ratios = ((Omega - grid) * f_lo + (grid - omega) * f_hi) / (width * vals[:len(grid)])
    if np.min(vals) <= 0.0:
        t_bad = float(points[int(np.argmin(vals))])
        raise BadInterval(f"{f.name}({t_bad:.6g}) = {float(np.min(vals)):.3g} is not positive")
    if not np.isfinite(ratios).all():  # a NaN or infinite value of f makes a NaN ratio
        raise BadInterval(f"the chord ratio of {f.name} is not finite on [{omega}, {Omega}]")

    def g(t: float) -> float:
        return ((Omega - t) * f_lo + (t - omega) * f_hi) / (width * f(t))

    i = int(np.argmax(ratios))
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    t_star, g_star = _golden_max(g, lo, hi)
    # Keep the better of the grid scan and the refinement.
    if ratios[i] > g_star:
        t_star, g_star = float(grid[i]), float(ratios[i])
    return AlphaResult(alpha=float(g_star), argmax_t=float(t_star), omega=omega, Omega=Omega)


def _converse_hypotheses(
    f: ScalarFunction,
    phi: PositiveLinearMap,
    a: HermitianMatrix,
    b: HermitianMatrix,
    interval: tuple[float, float],
) -> tuple[HermitianMatrix, HermitianMatrix, float]:
    """(Phi(A), Phi(B), alpha) once the hypotheses of the converse bound
    hold: f convex, the spectra of A, B, Phi(A) and Phi(B) in its domain, Phi
    unital and the working interval [omega, Omega].

    The interval must be a working interval (funcat.working_interval) that
    contains those four spectra, judged as a domain is (see
    matcore.spectrum_outside), and on which alpha exists (see
    mond_pecaric_alpha).  Each is an unmet hypothesis.
    """
    pa, pb = phi.apply(a), phi.apply(b)
    mats = {"A": a, "B": b, "Phi(A)": pa, "Phi(B)": pb}
    reasons = _hypothesis_reasons(f, ("convex",), mats)
    reasons += _map_case_reasons(f, phi.identity_image(), subunital_ok=False)
    try:
        working = working_interval(*interval)
        reasons += [f"spectrum of {label} leaves [{working.lo}, {working.hi}]"
                    for label in _labels_outside(working, mats)]
        _check_hypotheses(reasons)
        return pa, pb, mond_pecaric_alpha(f, working.lo, working.hi).alpha
    except BadInterval as exc:  # reasons is empty past _check_hypotheses
        raise HypothesisUnmet(*reasons, str(exc)) from exc


def check_theorem_t4(
    f: ScalarFunction,
    phi: PositiveLinearMap,
    a: HermitianMatrix,
    b: HermitianMatrix,
    interval: tuple[float, float],
    quad: QuadratureSpec = QuadratureSpec(),
) -> OrderVerdict:
    """Converse bound: Phi(segment integral of f) <= alpha times the average
    of f(Phi(A)) and f(Phi(B)), with alpha the chord-ratio constant on the
    working interval.

    Phi must be unital, and the interval must contain the spectra of A, B,
    Phi(A) and Phi(B) (see _converse_hypotheses).
    """
    pa, pb, alpha = _converse_hypotheses(f, phi, a, b, interval)
    lhs = phi.apply(segment_integral(f, a, b, quad))
    rhs = alpha * 0.5 * (apply_function(f, pa) + apply_function(f, pb))
    return orders.loewner_leq(lhs, rhs)


def check_norm_chain_corollary(
    f: ScalarFunction,
    phi: PositiveLinearMap,
    a: HermitianMatrix,
    b: HermitianMatrix,
    specs: list[str],
    interval: tuple[float, float],
    quad: QuadratureSpec = QuadratureSpec(),
) -> ChainReport:
    """Three-term norm chain: |||f((Phi(A)+Phi(B))/2)||| <= |||Phi(segment
    integral)||| <= alpha |||(f(Phi(A))+f(Phi(B)))/2|||, two links per norm
    spec string, labelled "<spec>:link0" and "<spec>:link1".

    Each spec is read at Phi's target size (matcore.norm_spec) before any
    hypothesis, so a malformed one raises BadSpec whatever the hypotheses.
    The hypotheses are those of check_theorem_t4 (see _converse_hypotheses):
    the second link is the converse bound, which needs a unital map.  A
    chain with no norm spec is an unmet hypothesis.  Norm monotonicity needs
    PSD terms, and every term is positive definite: f is positive on the
    working interval (mond_pecaric_alpha), which holds every spectrum along
    both segments; a unital positive map keeps the integral so; alpha >= 1.

    By Ky Fan dominance the Ky Fan links alone decide every norm, as in
    check_theorem_t1's power-norm corollary.  The norm list stays because the
    benchmark pins it: its margin oracle recomputes each link from the
    instance's "specs", and its tests trace and delete matcore.ui_norm.
    """
    for spec in specs:
        norm_spec(spec, phi.target_dim)
    _check_hypotheses([] if specs else ["no norm spec to judge"])
    pa, pb, alpha = _converse_hypotheses(f, phi, a, b, interval)
    terms = (apply_function(f, (pa + pb) / 2.0),
             phi.apply(segment_integral(f, a, b, quad)),
             alpha * 0.5 * (apply_function(f, pa) + apply_function(f, pb)))
    norms = {spec: [ui_norm(m, spec) for m in terms] for spec in specs}
    return ChainReport({f"{spec}:link{k}": orders.judge(v[k + 1] - v[k], max(v[k], v[k + 1]))
                        for spec, v in norms.items() for k in (0, 1)})


# -- five-term refinement chain for operator convex functions ----------------------

def chain_panels(panels: int) -> int:
    """The refinement chain's panel count; BadParams unless
    1 <= panels <= NODE_CAP.  A replayed count is compared as a Python int,
    so however large it is refused without being formed into an array."""
    if not 1 <= panels <= NODE_CAP:
        raise BadParams(f"the chain's panel count must be in 1..{NODE_CAP}, got {panels}")
    return panels


def check_refinement_chain(
    f: ScalarFunction,
    a: HermitianMatrix,
    b: HermitianMatrix,
    panels: int,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ChainReport:
    """Five-term chain for operator convex f: the midpoint value, a midpoint
    Riemann sum over ``panels`` equal panels, the segment integral, the
    matching trapezoid sum, and the endpoint average, each below the next in
    the Loewner order.  The panel count is bounded as chain_panels documents.
    """
    mats = {"A": a, "B": b} if f.flags.operator_convex else {}  # else the flag is the one reason
    reasons = _hypothesis_reasons(f, ("operator_convex",), mats)
    n_panels = chain_panels(int(panels)) if mats else 0  # the panel count before the spectra
    _check_hypotheses(reasons)
    index = np.arange(n_panels)
    l0 = apply_function(f, 0.5 * a + 0.5 * b)
    mids = (2 * index + 1) / (2.0 * n_panels)
    l1 = segment_sum(f, a, b, mids, np.ones(n_panels)) / n_panels
    l2 = segment_integral(f, a, b, quad)
    # trapezoid: both endpoints once, every interior panel edge twice
    edges = np.concatenate(([0.0, 1.0], index[1:] / n_panels))
    edge_weights = np.concatenate(([1.0, 1.0], np.full(n_panels - 1, 2.0)))
    l3 = segment_sum(f, a, b, edges, edge_weights) / (2.0 * n_panels)
    l4 = (apply_function(f, a) + apply_function(f, b)) / 2.0
    terms = (l0, l1, l2, l3, l4)
    labels = ("midpoint", "midpoint_riemann", "integral", "trapezoid_riemann", "endpoint_average")
    return ChainReport({f"{labels[i]}<={labels[i + 1]}":
                        orders.loewner_leq(terms[i], terms[i + 1]) for i in range(4)})


# -- the fixed 2x2 counterexample ---------------------------------------------------

F = Fraction

COUNTEREXAMPLE_A = np.array([[F(2), F(1)], [F(1), F(1)]], dtype=object)
COUNTEREXAMPLE_B = np.array([[F(1), F(0)], [F(0), F(0)]], dtype=object)

EXPECTED_MID_CUBED = np.array([[F(17, 4), F(7, 4)], [F(7, 4), F(3, 4)]], dtype=object)
EXPECTED_SEGMENT_INTEGRAL = np.array([[F(31, 6), F(5, 2)], [F(5, 2), F(4, 3)]], dtype=object)
EXPECTED_ENDPOINT_AVG = np.array([[F(7), F(4)], [F(4), F(5, 2)]], dtype=object)


def _det2(m: np.ndarray) -> Fraction:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def reproduce_counterexample() -> dict:
    """Recompute, in exact rational arithmetic, the three displayed matrices
    for t^3 on the fixed 2x2 pair and certify that both sides of the naive
    two-sided Loewner bound fail.  Returns the JSON form, rationals as
    strings; "passes" is true when all three matrices match and both fail.

    Failure of each side is witnessed by a negative determinant of the 2x2
    gap (positive-semidefiniteness would force all principal minors to be
    nonnegative), so both one-sided inequalities are refuted exactly.
    """
    a, b = COUNTEREXAMPLE_A, COUNTEREXAMPLE_B
    mid = (a + b) * F(1, 2)
    mid_cubed = mid.dot(mid).dot(mid)
    integral = poly_segment_oracle_exact(3, a, b)
    endpoint = (a.dot(a).dot(a) + b.dot(b).dot(b)) * F(1, 2)
    left_det, right_det = _det2(integral - mid_cubed), _det2(endpoint - integral)
    matches = [bool(np.all(mid_cubed == EXPECTED_MID_CUBED)),
               bool(np.all(integral == EXPECTED_SEGMENT_INTEGRAL)),
               bool(np.all(endpoint == EXPECTED_ENDPOINT_AVG))]

    def grid(m):
        return [[str(x) for x in row] for row in m.tolist()]
    return {
        "mid_cubed": grid(mid_cubed),
        "segment_integral": grid(integral),
        "endpoint_average": grid(endpoint),
        "matches": matches,
        "left_gap_det": str(left_det),
        "right_gap_det": str(right_det),
        "left_fails": left_det < 0,
        "right_fails": right_det < 0,
        "passes": all(matches) and left_det < 0 and right_det < 0,
    }
