"""Executable checkers for two-sided mean-value matrix inequalities.

Every checker validates its hypotheses (declared flags, unitality, spectra)
before judging the conclusion and raises HypothesisUnmet when they fail, so
an inequality violation with hypotheses met is always a bug signal.  The
fixed 2x2 counterexample showing that the naive two-sided matrix bound for
t^3 fails is reproduced in exact rational arithmetic.

A checker returns the OrderVerdict of its one comparison, a ChainReport of
labelled verdicts for several, or (t1) the MajorizationReport of the
partial sums; a harness reads only holds and margin.  Each verdict comes
from orders.judge.  No judged link means a skip: a checker left with no
comparison to judge raises HypothesisUnmet.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import orders, plmaps
from .errors import (
    BadInterval,
    BadParams,
    HypothesisUnmet,
    NotConvexFlag,
    NotOperatorConvexFlag,
    NotPositive,
)
from .funcat import ScalarFunction, builtin
from .matcore import HermitianMatrix, apply_function, eig, spectrum_outside, ui_norm
from .orders import DEFAULT_TOL, MajorizationReport, OrderVerdict
from .plmaps import PositiveLinearMap
from .segquad import (
    QuadratureSpec,
    poly_segment_oracle_exact,
    scalar_segment_integral,
    segment_integral,
    segment_points,
    segment_sum,
)

UNITARY_TOL = 1e-9
ALPHA_GRID_POINTS = 10_000
ALPHA_XTOL = 1e-12
# (f, omega, Omega) keys kept by the mond_pecaric_alpha memo.
ALPHA_MEMO_SIZE = 64


# -- report types --------------------------------------------------------------

@dataclass(frozen=True)
class ChainReport:
    """Labelled verdicts, never none: the links of an inequality chain, one
    norm comparison per norm, or dominance and its witness.  It holds when
    every link holds; its margin is the smallest link margin."""

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

def _require_flag(f: ScalarFunction, flag: str, exc=None) -> list[str]:
    if getattr(f.flags, flag) is not True:
        reason = f"{f.name} is not declared {flag}"
        if exc is not None:
            raise exc(reason)
        return [reason]
    return []


def _check_hypotheses(reasons: list[str]):
    """Raise HypothesisUnmet listing every failed hypothesis, if any failed."""
    if reasons:
        raise HypothesisUnmet(*reasons)


def _spectra_reasons(f: ScalarFunction, mats: dict[str, HermitianMatrix]) -> list[str]:
    return [f"spectrum of {label} leaves domain {f.domain} of {f.name}"
            for label, h in mats.items() if spectrum_outside(f, h).size]


def _map_case_reasons(
    f: ScalarFunction,
    image: HermitianMatrix,
    *,
    strict_positive: bool = False,
    subunital_ok: bool = True,
    unital_ok: bool = True,
    label: str = "Phi(I)",
) -> list[str]:
    """Empty list when the identity image Phi(I) (for a sum of maps, the sum
    of their identity images) meets case (i), Phi(I) = I, or case (ii),
    Phi(I) <= I (and strictly positive when asked) with 0 in the domain of f
    and f(0) <= 0 declared.  subunital_ok=False admits case (i) only;
    unital_ok=False admits case (ii) only.

    Phi(I) within UNITAL_TOL of I in the Frobenius norm is unital with no
    decomposition: that norm bounds the operator-norm distance that
    unitality_status measures, so unitality_status runs only past this test.
    """
    if unital_ok and np.linalg.norm(image.entries - np.eye(image.dim)) <= plmaps.UNITAL_TOL:
        return []
    rep = plmaps.unitality_status(image)
    if unital_ok and rep.status == "Unital":
        return []
    if not subunital_ok:
        return [f"{label} is not I (distance {rep.identity_distance:.3g}); a unital map is needed"]
    reasons = []
    if rep.lambda_max > 1.0 + plmaps.UNITAL_TOL:
        reasons.append(f"{label} has top eigenvalue {rep.lambda_max:.6g} > 1")
    if strict_positive and rep.lambda_min <= plmaps.SUBUNITAL_POSITIVITY_TOL:
        reasons.append(f"{label} is not strictly positive")
    if not f.domain.contains(0.0):
        reasons.append(f"0 is outside the domain {f.domain} of {f.name}")
    elif f.flags.f0_nonpositive is not True:
        reasons.append(f"{f.name}(0) <= 0 is not declared")
    return reasons


def _norm_link(lhs_m: HermitianMatrix, rhs_m: HermitianMatrix, spec) -> OrderVerdict:
    """|||lhs_m||| <= |||rhs_m||| in the norm spec."""
    lhs, rhs = ui_norm(lhs_m, spec), ui_norm(rhs_m, spec)
    return orders.judge(rhs - lhs, max(lhs, rhs))


def _is_psd(h: HermitianMatrix) -> bool:
    es = eig(h)
    return orders.judge(float(es.values[-1]), es.spectral_radius).holds


# -- scalar two-sided bound ------------------------------------------------------

def check_scalar_hh(f: ScalarFunction, x: float, y: float) -> ChainReport:
    """Scalar two-sided mean-value bound for a convex function on [x, y]:
    (y-x) f((x+y)/2) <= integral of f over [x, y] <= (y-x) (f(x)+f(y))/2."""
    _require_flag(f, "convex", NotConvexFlag)
    if not y > x:
        raise BadInterval(f"need x < y, got [{x}, {y}]")
    if not f.domain.contains_interval(x, y):
        raise HypothesisUnmet(f"[{x}, {y}] is not inside domain {f.domain} of {f.name}")
    width = y - x
    t0 = width * f((x + y) / 2.0)
    t1 = scalar_segment_integral(f, x, y)
    t2 = width * (f(x) + f(y)) / 2.0
    scale = max(abs(t0), abs(t1), abs(t2))
    return ChainReport({"scaled_midpoint<=integral": orders.judge(t1 - t0, scale),
                        "integral<=scaled_endpoint_average": orders.judge(t2 - t1, scale)})


# -- quadratic-form comparison under a positive map --------------------------------

def check_jensen_map(
    f: ScalarFunction,
    phi: PositiveLinearMap,
    a: HermitianMatrix,
    x: np.ndarray,
) -> OrderVerdict:
    """f(<Phi(A)x, x>) <= <Phi(f(A))x, x> for convex f.

    Hypotheses: (i) Phi unital and x a unit vector, or (ii) ||x|| <= 1 with
    0 in the domain, f(0) <= 0, and 0 < Phi(I) <= I.
    """
    reasons = _require_flag(f, "convex") + _spectra_reasons(f, {"A": a})
    x = np.asarray(x, dtype=complex).ravel()
    norm = float(np.linalg.norm(x))
    if norm > 1.0 + UNITARY_TOL:
        reasons.append(f"||x|| = {norm:.6g} exceeds 1")
    # case (i) needs a unit vector; otherwise case (ii), even for a unital map
    reasons += _map_case_reasons(f, phi.identity_image(), strict_positive=True,
                                 unital_ok=abs(norm - 1.0) <= UNITARY_TOL)
    _check_hypotheses(reasons)
    pa = phi.apply(a)
    pfa = phi.apply(apply_function(f, a))
    lhs = f(float((x.conj() @ pa.entries @ x).real))
    rhs = float((x.conj() @ pfa.entries @ x).real)
    return orders.judge(rhs - lhs, max(abs(lhs), abs(rhs)))


# -- weak-majorization midpoint bound ----------------------------------------------

def check_theorem_t1(
    f: ScalarFunction,
    phi: PositiveLinearMap,
    a: HermitianMatrix,
    b: HermitianMatrix,
    quad: QuadratureSpec = QuadratureSpec(),
) -> MajorizationReport:
    """Eigenvalues of f((Phi(A)+Phi(B))/2) are weakly majorized by those of
    Phi(integral of f along the segment from B to A)."""
    reasons = _require_flag(f, "convex") + _spectra_reasons(f, {"A": a, "B": b})
    reasons += _map_case_reasons(f, phi.identity_image(), strict_positive=True)
    _check_hypotheses(reasons)
    lhs = apply_function(f, (phi.apply(a) + phi.apply(b)) / 2.0)
    rhs = phi.apply(segment_integral(f, a, b, quad))
    return orders.weak_majorization(lhs, rhs)


def check_trace_corollary(
    f: ScalarFunction,
    a: HermitianMatrix,
    b: HermitianMatrix,
    quad: QuadratureSpec = QuadratureSpec(),
) -> OrderVerdict:
    """Trace form of the midpoint bound: Tr f((A+B)/2) <= Tr of the segment
    integral.  Checked directly rather than through the partial sums."""
    _check_hypotheses(_require_flag(f, "convex") + _spectra_reasons(f, {"A": a, "B": b}))
    lhs = apply_function(f, (a + b) / 2.0).trace
    rhs = segment_integral(f, a, b, quad).trace
    return orders.judge(rhs - lhs, max(abs(lhs), abs(rhs)))


def check_power_norm_corollary(
    r: float,
    phi: PositiveLinearMap,
    a: HermitianMatrix,
    b: HermitianMatrix,
    specs,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ChainReport:
    """Unitarily invariant norm comparison for f(t) = t^r, r > 1, on PSD
    inputs: |||((Phi(A)+Phi(B))/2)^r||| <= |||Phi(segment integral of t^r)|||,
    one link per norm spec."""
    if not r > 1.0:
        raise BadParams(f"power norm comparison needs r > 1, got {r}")
    f = builtin("power", r)
    specs = list(specs)
    reasons = [f"{label} has negative eigenvalue {float(eig(h).values[-1]):.3e}"
               for label, h in (("A", a), ("B", b)) if not _is_psd(h)]
    reasons += _map_case_reasons(f, phi.identity_image())
    reasons += [] if specs else ["no norm spec to judge"]
    _check_hypotheses(reasons)
    lhs_m = apply_function(f, (phi.apply(a) + phi.apply(b)) / 2.0)
    rhs_m = phi.apply(segment_integral(f, a, b, quad))
    return ChainReport({str(spec): _norm_link(lhs_m, rhs_m, spec) for spec in specs})


# -- monotone-convex endpoint bound (unitary conjugate form) -----------------------

def check_bourin_t2(
    f: ScalarFunction,
    maps,
    a_list,
) -> ChainReport:
    """f(sum_i Phi_i(A_i)) is dominated, after a unitary conjugation, by
    sum_i Phi_i(f(A_i)) for increasing convex f.

    Existence of the conjugating unitary is equivalent to eigenvalue
    dominance, so the checker reports the "dominance" verdict and, when it
    holds, constructs the unitary and reports the Loewner check it passes,
    to ten times the tolerance, as the "witness" link.
    """
    maps, a_list = list(maps), list(a_list)
    if len(maps) != len(a_list) or not maps:
        raise BadParams("need equally many maps and matrices, at least one each")
    reasons = _require_flag(f, "convex") + _require_flag(f, "increasing")
    reasons += _spectra_reasons(f, {f"A_{i}": h for i, h in enumerate(a_list)})
    targets = {phi.target_dim for phi in maps}
    if len(targets) > 1:
        reasons.append(f"target dimensions differ: {sorted(targets)}")
    for i, (phi, h) in enumerate(zip(maps, a_list)):
        if phi.source_dim != h.dim:
            reasons.append(f"map {i} expects dim {phi.source_dim}, matrix has {h.dim}")
    _check_hypotheses(reasons)
    id_sum = maps[0].identity_image()
    for phi in maps[1:]:
        id_sum = id_sum + phi.identity_image()
    _check_hypotheses(_map_case_reasons(f, id_sum, label="sum of Phi_i(I)"))
    arg = maps[0].apply(a_list[0])
    val = maps[0].apply(apply_function(f, a_list[0]))
    for phi, h in zip(maps[1:], a_list[1:]):
        arg = arg + phi.apply(h)
        val = val + phi.apply(apply_function(f, h))
    lhs = apply_function(f, arg)
    links = {"dominance": orders.eigen_dominance(lhs, val)}
    if links["dominance"].holds:
        u = orders.unitary_witness(lhs, val).conj().T  # lhs <= U val U*
        links["witness"] = orders.loewner_leq(lhs, HermitianMatrix(u @ val.entries @ u.conj().T),
                                              DEFAULT_TOL * 10)
    return ChainReport(links)


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
    """
    reasons = _require_flag(f, "convex") + _require_flag(f, "increasing")
    reasons += _spectra_reasons(f, {"A": a, "B": b})
    reasons += _map_case_reasons(f, phi.identity_image())
    _check_hypotheses(reasons)
    grid = np.linspace(0.0, 1.0, 33)
    pa, pb = phi.apply(a), phi.apply(b)
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

    The function must be strictly positive on the interval.  A coarse grid
    scan locates the maximum and golden-section refinement narrows the
    argmax below ALPHA_XTOL.

    Results are memoized on (f, omega, Omega): a suite passes its one
    interval to every trial, so only its first trial computes alpha.
    Errors are not memoized.
    """
    if not omega < Omega:
        raise BadInterval(f"need omega < Omega, got [{omega}, {Omega}]")
    if not f.domain.contains_interval(omega, Omega):
        raise BadInterval(f"[{omega}, {Omega}] is not inside domain {f.domain} of {f.name}")
    grid = np.linspace(omega, Omega, ALPHA_GRID_POINTS)
    vals = f.eval_array(grid)
    if np.min(vals) <= 0.0:
        t_bad = float(grid[int(np.argmin(vals))])
        raise NotPositive(f"{f.name}({t_bad:.6g}) = {float(np.min(vals)):.3g} is not positive")
    f_lo, f_hi = float(vals[0]), float(vals[-1])
    width = Omega - omega

    def g(t: float) -> float:
        return ((Omega - t) * f_lo + (t - omega) * f_hi) / (width * f(t))

    ratios = ((Omega - grid) * f_lo + (grid - omega) * f_hi) / (width * vals)
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
    interval: tuple[float, float] | None,
) -> tuple[HermitianMatrix, HermitianMatrix, float]:
    """(Phi(A), Phi(B), alpha) once the hypotheses of the converse bound
    hold: f convex, the spectra of A, B, Phi(A) and Phi(B) in its domain, Phi
    unital and the working interval [omega, Omega].

    A supplied interval must contain those four spectra (to a 1e-9 relative
    pad); without one it is their spectral hull, widened by 0.5 each side if
    it is a point.  f must be defined and strictly positive on it, so an
    interval outside f's domain or a non-positive value of f is one unmet.
    """
    pa, pb = phi.apply(a), phi.apply(b)
    mats = {"A": a, "B": b, "Phi(A)": pa, "Phi(B)": pb}
    reasons = _require_flag(f, "convex") + _spectra_reasons(f, mats)
    reasons += _map_case_reasons(f, phi.identity_image(), subunital_ok=False)
    if interval is None:
        omega = min(float(eig(h).values[-1]) for h in mats.values())
        Omega = max(float(eig(h).values[0]) for h in mats.values())
        if not omega < Omega:
            omega, Omega = omega - 0.5, Omega + 0.5
    else:
        omega, Omega = float(interval[0]), float(interval[1])
        pad = 1e-9 * max(1.0, Omega - omega)
        reasons += [f"spectrum of {label} leaves [{omega}, {Omega}]"
                    for label, h in mats.items()
                    if eig(h).values[-1] < omega - pad or eig(h).values[0] > Omega + pad]
    _check_hypotheses(reasons)
    try:
        return pa, pb, mond_pecaric_alpha(f, omega, Omega).alpha
    except (BadInterval, NotPositive) as exc:
        raise HypothesisUnmet(str(exc)) from exc


def check_theorem_t4(
    f: ScalarFunction,
    phi: PositiveLinearMap,
    a: HermitianMatrix,
    b: HermitianMatrix,
    interval: tuple[float, float] | None = None,
    quad: QuadratureSpec = QuadratureSpec(),
) -> OrderVerdict:
    """Converse bound: Phi(segment integral of f) <= alpha times the average
    of f(Phi(A)) and f(Phi(B)), with alpha the chord-ratio constant on the
    working interval.

    Phi must be unital, and the interval must contain the spectra of A, B,
    Phi(A) and Phi(B); when omitted it defaults to their spectral hull (see
    _converse_hypotheses).
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
    specs,
    interval: tuple[float, float] | None = None,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ChainReport:
    """Three-term norm chain: |||f((Phi(A)+Phi(B))/2)||| <= |||Phi(segment
    integral)||| <= alpha |||(f(Phi(A))+f(Phi(B)))/2|||, two links per norm
    spec, labelled "<spec>:link0" and "<spec>:link1".

    The hypotheses are those of check_theorem_t4 (see _converse_hypotheses):
    the second link is the converse bound, which needs a unital map.  Norm
    monotonicity from the underlying matrix orders needs PSD displayed
    matrices, so a link with a non-PSD term is left out, and a chain with
    every link left out, or with no norm spec, is an unmet hypothesis.
    """
    _check_hypotheses([] if specs else ["no norm spec to judge"])
    pa, pb, alpha = _converse_hypotheses(f, phi, a, b, interval)
    m0 = apply_function(f, (pa + pb) / 2.0)
    m1 = phi.apply(segment_integral(f, a, b, quad))
    m2 = alpha * 0.5 * (apply_function(f, pa) + apply_function(f, pb))
    terms = (m0, m1, m2)
    psd = [_is_psd(m) for m in terms]
    links = {f"{spec}:link{link}": _norm_link(terms[i], terms[j], spec)
             for spec in specs for link, (i, j) in enumerate(((0, 1), (1, 2)))
             if psd[i] and psd[j]}
    if not links:
        raise HypothesisUnmet("all norm comparisons skipped (non-PSD terms)")
    return ChainReport(links)


# -- five-term refinement chain for operator convex functions ----------------------

def check_refinement_chain(
    f: ScalarFunction,
    a: HermitianMatrix,
    b: HermitianMatrix,
    k: int,
    p: int,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ChainReport:
    """Five-term chain for operator convex f: the midpoint value, a midpoint
    Riemann sum over k^p panels, the segment integral, the matching trapezoid
    sum, and the endpoint average, each below the next in the Loewner order.
    """
    if f.flags.operator_convex is not True:
        raise NotOperatorConvexFlag(f"{f.name} is not declared operator convex")
    if k < 1 or p < 1:
        raise BadParams(f"k and p must be positive integers, got k={k}, p={p}")
    _check_hypotheses(_spectra_reasons(f, {"A": a, "B": b}))
    n_panels = int(k) ** int(p)
    panels = np.arange(n_panels)
    l0 = apply_function(f, 0.5 * a + 0.5 * b)
    mids = (2 * panels + 1) / (2.0 * n_panels)
    l1 = HermitianMatrix(segment_sum(f, a, b, mids, np.ones(n_panels))) / n_panels
    l2 = segment_integral(f, a, b, quad)
    # trapezoid: both endpoints once, every interior panel edge twice
    edges = np.concatenate(([0.0, 1.0], panels[1:] / n_panels))
    edge_weights = np.concatenate(([1.0, 1.0], np.full(n_panels - 1, 2.0)))
    l3 = HermitianMatrix(segment_sum(f, a, b, edges, edge_weights)) / (2.0 * n_panels)
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


@dataclass(frozen=True)
class CounterexampleReport:
    mid_cubed: np.ndarray
    segment_integral: np.ndarray
    endpoint_average: np.ndarray
    matches_mid: bool
    matches_integral: bool
    matches_endpoint: bool
    left_gap: np.ndarray
    right_gap: np.ndarray
    left_gap_det: Fraction
    right_gap_det: Fraction
    left_fails: bool
    right_fails: bool

    @property
    def passes(self) -> bool:
        return (self.matches_mid and self.matches_integral and self.matches_endpoint
                and self.left_fails and self.right_fails)

    def to_jsonable(self) -> dict:
        def grid(m):
            return [[str(x) for x in row] for row in m.tolist()]
        return {
            "mid_cubed": grid(self.mid_cubed),
            "segment_integral": grid(self.segment_integral),
            "endpoint_average": grid(self.endpoint_average),
            "matches": [self.matches_mid, self.matches_integral, self.matches_endpoint],
            "left_gap_det": str(self.left_gap_det),
            "right_gap_det": str(self.right_gap_det),
            "left_fails": self.left_fails,
            "right_fails": self.right_fails,
            "passes": self.passes,
        }


def reproduce_counterexample() -> CounterexampleReport:
    """Recompute, in exact rational arithmetic, the three displayed matrices
    for t^3 on the fixed 2x2 pair and certify that both sides of the naive
    two-sided Loewner bound fail.

    Failure of each side is witnessed by a negative determinant of the 2x2
    gap (positive-semidefiniteness would force all principal minors to be
    nonnegative), so both one-sided inequalities are refuted exactly.
    """
    a, b = COUNTEREXAMPLE_A, COUNTEREXAMPLE_B
    mid = (a + b) * F(1, 2)
    mid_cubed = mid.dot(mid).dot(mid)
    integral = poly_segment_oracle_exact(3, a, b)
    endpoint = (a.dot(a).dot(a) + b.dot(b).dot(b)) * F(1, 2)
    left_gap = integral - mid_cubed
    right_gap = endpoint - integral
    left_det = _det2(left_gap)
    right_det = _det2(right_gap)
    return CounterexampleReport(
        mid_cubed=mid_cubed,
        segment_integral=integral,
        endpoint_average=endpoint,
        matches_mid=bool(np.all(mid_cubed == EXPECTED_MID_CUBED)),
        matches_integral=bool(np.all(integral == EXPECTED_SEGMENT_INTEGRAL)),
        matches_endpoint=bool(np.all(endpoint == EXPECTED_ENDPOINT_AVG)),
        left_gap=left_gap,
        right_gap=right_gap,
        left_gap_det=left_det,
        right_gap_det=right_det,
        left_fails=left_det < 0,
        right_fails=right_det < 0,
    )
