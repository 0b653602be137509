"""Executable checkers for two-sided mean-value matrix inequalities.

Every checker validates its hypotheses (declared flags, unitality, spectra)
before judging the conclusion and raises HypothesisUnmet when they fail, so
an inequality violation with hypotheses met is always a bug signal.  The
fixed 2x2 counterexample showing that the naive two-sided matrix bound for
t^3 fails is reproduced in exact rational arithmetic.
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
    NotPSD,
    NotUnitary,
)
from .funcat import ScalarFunction, builtin
from .matcore import HermitianMatrix, apply_function, eig, hermitian_from, ui_norm
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
    """Ordered inequality chain: terms t_0 <= t_1 <= ... judged link by link."""

    labels: tuple[str, ...]
    terms: tuple
    links: tuple[OrderVerdict, ...]
    holds: bool

    @property
    def min_margin(self) -> float:
        return min(link.margin for link in self.links)

    def to_jsonable(self) -> dict:
        return {
            "labels": list(self.labels),
            "links": [link.to_jsonable() for link in self.links],
            "holds": self.holds,
        }


@dataclass(frozen=True)
class AlphaResult:
    """Maximum of the chord-to-function ratio over the working interval."""

    alpha: float
    argmax_t: float
    omega: float
    Omega: float

    def to_jsonable(self) -> dict:
        return {"alpha": self.alpha, "argmax_t": self.argmax_t,
                "omega": self.omega, "Omega": self.Omega}


@dataclass(frozen=True)
class NormComparison:
    spec: str
    lhs: float
    rhs: float
    margin: float
    holds: bool
    skipped: bool = False

    def to_jsonable(self) -> dict:
        return {"spec": self.spec, "lhs": self.lhs, "rhs": self.rhs,
                "margin": self.margin, "holds": self.holds, "skipped": self.skipped}


@dataclass(frozen=True)
class NormReport:
    comparisons: tuple[NormComparison, ...]
    holds: bool

    @property
    def min_margin(self) -> float:
        margins = [c.margin for c in self.comparisons if not c.skipped]
        return min(margins) if margins else math.inf

    def to_jsonable(self) -> dict:
        return {"comparisons": [c.to_jsonable() for c in self.comparisons],
                "holds": self.holds}


@dataclass(frozen=True)
class BourinReport:
    """Eigenvalue dominance plus the constructed conjugating unitary."""

    dominance: OrderVerdict
    witness: np.ndarray | None
    witness_verdict: OrderVerdict | None

    @property
    def holds(self) -> bool:
        return self.dominance.holds

    def to_jsonable(self) -> dict:
        return {
            "dominance": self.dominance.to_jsonable(),
            "witness_found": self.witness is not None,
            "witness_verdict": None if self.witness_verdict is None
            else self.witness_verdict.to_jsonable(),
        }


# -- hypothesis helpers ---------------------------------------------------------

def _require_flag(f: ScalarFunction, flag: str, exc=None) -> list[str]:
    if getattr(f.flags, flag) is not True:
        reason = f"{f.name} is not declared {flag}"
        if exc is not None:
            raise exc(reason)
        return [reason]
    return []


def _spectra_reasons(f: ScalarFunction, mats: dict[str, HermitianMatrix]) -> list[str]:
    reasons = []
    for label, h in mats.items():
        if not np.all(f.domain.contains_array(eig(h).values)):
            reasons.append(f"spectrum of {label} leaves domain {f.domain} of {f.name}")
    return reasons


def _map_hypothesis_reasons(
    phi: PositiveLinearMap,
    f: ScalarFunction,
    *,
    strict_positive: bool,
    zero_value: str = "nonpositive",  # "nonpositive" | "zero"
) -> list[str]:
    """Empty list when the map satisfies case (i) unital, or case (ii)
    subunital with the required behavior of f at 0."""
    rep = plmaps.unitality_status(phi)
    if rep.status == "Unital":
        return []
    reasons = []
    if rep.lambda_max > 1.0 + plmaps.UNITAL_TOL:
        reasons.append(f"Phi(I) has top eigenvalue {rep.lambda_max:.6g} > 1")
    if strict_positive and rep.lambda_min <= plmaps.SUBUNITAL_POSITIVITY_TOL:
        reasons.append("Phi(I) is not strictly positive")
    if not f.domain.contains(0.0):
        reasons.append(f"0 is outside the domain {f.domain} of {f.name}")
        return reasons
    if zero_value == "zero":
        if abs(f(0.0)) > 1e-12:
            reasons.append(f"{f.name}(0) = {f(0.0):.3g} is not 0")
    elif f.flags.f0_nonpositive is not True:
        reasons.append(f"{f.name}(0) <= 0 is not declared")
    return reasons


def _sandwich(u: np.ndarray, h: HermitianMatrix) -> HermitianMatrix:
    """U H U* for unitary U."""
    return HermitianMatrix(u @ h.entries @ u.conj().T)


def _require_unitary(u: np.ndarray, m: int):
    u = np.asarray(u, dtype=complex)
    if u.shape != (m, m):
        raise NotUnitary(f"expected a {m}x{m} unitary, got shape {u.shape}")
    err = float(np.max(np.abs(u.conj().T @ u - np.eye(m))))
    if err > UNITARY_TOL:
        raise NotUnitary(f"U*U deviates from identity by {err:.3e}")
    return u


def _require_psd(h: HermitianMatrix, label: str, tol: float = DEFAULT_TOL):
    values = eig(h).values
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
    if float(values[-1]) < -tol * scale:
        raise NotPSD(f"{label} has negative eigenvalue {float(values[-1]):.3e}")


def _is_psd(h: HermitianMatrix, tol: float = DEFAULT_TOL) -> bool:
    values = eig(h).values
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
    return float(values[-1]) >= -tol * scale


# -- scalar two-sided bound ------------------------------------------------------

def check_scalar_hh(f: ScalarFunction, x: float, y: float, tol: float = DEFAULT_TOL) -> ChainReport:
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
    scale = max(1.0, abs(t0), abs(t1), abs(t2))
    links = (
        OrderVerdict(holds=t1 - t0 >= -tol * scale, margin=t1 - t0),
        OrderVerdict(holds=t2 - t1 >= -tol * scale, margin=t2 - t1),
    )
    return ChainReport(
        labels=("scaled_midpoint", "integral", "scaled_endpoint_average"),
        terms=(t0, t1, t2),
        links=links,
        holds=all(link.holds for link in links),
    )


# -- quadratic-form comparison under a positive map --------------------------------

def check_jensen_map(
    f: ScalarFunction,
    phi: PositiveLinearMap,
    a: HermitianMatrix,
    x: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> OrderVerdict:
    """f(<Phi(A)x, x>) <= <Phi(f(A))x, x> for convex f.

    Hypotheses: (i) Phi unital and x a unit vector, or (ii) ||x|| <= 1 with
    0 in the domain, f(0) <= 0, and 0 < Phi(I) <= I.
    """
    reasons = _require_flag(f, "convex")
    reasons += _spectra_reasons(f, {"A": a})
    x = np.asarray(x, dtype=complex).ravel()
    norm = float(np.linalg.norm(x))
    rep = plmaps.unitality_status(phi)
    if not (rep.status == "Unital" and abs(norm - 1.0) <= UNITARY_TOL):
        # case (ii): needs the f(0) condition even when the map is unital
        if norm > 1.0 + UNITARY_TOL:
            reasons.append(f"||x|| = {norm:.6g} exceeds 1")
        if not f.domain.contains(0.0):
            reasons.append(f"0 is outside the domain {f.domain} of {f.name}")
        elif f.flags.f0_nonpositive is not True:
            reasons.append(f"{f.name}(0) <= 0 is not declared")
        if rep.lambda_max > 1.0 + plmaps.UNITAL_TOL:
            reasons.append(f"Phi(I) has top eigenvalue {rep.lambda_max:.6g} > 1")
        if rep.lambda_min <= plmaps.SUBUNITAL_POSITIVITY_TOL:
            reasons.append("Phi(I) is not strictly positive")
    if reasons:
        raise HypothesisUnmet(*reasons)
    pa = phi.apply(a)
    pfa = phi.apply(apply_function(f, a))
    lhs = f(float((x.conj() @ pa.entries @ x).real))
    rhs = float((x.conj() @ pfa.entries @ x).real)
    margin = rhs - lhs
    scale = max(1.0, abs(lhs), abs(rhs))
    return OrderVerdict(holds=margin >= -tol * scale, margin=margin)


# -- weak-majorization midpoint bound ----------------------------------------------

def check_theorem_t1(
    f: ScalarFunction,
    phi: PositiveLinearMap,
    a: HermitianMatrix,
    b: HermitianMatrix,
    tol: float = DEFAULT_TOL,
    quad: QuadratureSpec = QuadratureSpec(),
) -> MajorizationReport:
    """Eigenvalues of f((Phi(A)+Phi(B))/2) are weakly majorized by those of
    Phi(integral of f along the segment from B to A)."""
    reasons = _require_flag(f, "convex")
    reasons += _spectra_reasons(f, {"A": a, "B": b})
    reasons += _map_hypothesis_reasons(phi, f, strict_positive=True)
    if reasons:
        raise HypothesisUnmet(*reasons)
    lhs = apply_function(f, (phi.apply(a) + phi.apply(b)) / 2.0)
    rhs = phi.apply(segment_integral(f, a, b, quad))
    return orders.weak_majorization(lhs, rhs, tol)


def check_trace_corollary(
    f: ScalarFunction,
    a: HermitianMatrix,
    b: HermitianMatrix,
    tol: float = DEFAULT_TOL,
    quad: QuadratureSpec = QuadratureSpec(),
) -> OrderVerdict:
    """Trace form of the midpoint bound: Tr f((A+B)/2) <= Tr of the segment
    integral.  Checked directly rather than through the partial sums."""
    reasons = _require_flag(f, "convex")
    reasons += _spectra_reasons(f, {"A": a, "B": b})
    if reasons:
        raise HypothesisUnmet(*reasons)
    lhs = apply_function(f, (a + b) / 2.0).trace
    rhs = segment_integral(f, a, b, quad).trace
    margin = rhs - lhs
    scale = max(1.0, abs(lhs), abs(rhs))
    return OrderVerdict(holds=margin >= -tol * scale, margin=margin)


def check_power_norm_corollary(
    r: float,
    phi: PositiveLinearMap,
    a: HermitianMatrix,
    b: HermitianMatrix,
    specs,
    tol: float = DEFAULT_TOL,
    quad: QuadratureSpec = QuadratureSpec(),
) -> NormReport:
    """Unitarily invariant norm comparison for f(t) = t^r, r > 1, on PSD
    inputs: |||((Phi(A)+Phi(B))/2)^r||| <= |||Phi(segment integral of t^r)|||."""
    if not r > 1.0:
        raise BadParams(f"power norm comparison needs r > 1, got {r}")
    _require_psd(a, "A", tol)
    _require_psd(b, "B", tol)
    f = builtin("power", r)
    reasons = _map_hypothesis_reasons(phi, f, strict_positive=False)
    if reasons:
        raise HypothesisUnmet(*reasons)
    lhs_m = apply_function(f, (phi.apply(a) + phi.apply(b)) / 2.0)
    rhs_m = phi.apply(segment_integral(f, a, b, quad))
    comparisons = []
    for spec in specs:
        lhs, rhs = ui_norm(lhs_m, spec), ui_norm(rhs_m, spec)
        margin = rhs - lhs
        scale = max(1.0, lhs, rhs)
        comparisons.append(NormComparison(
            spec=str(spec), lhs=lhs, rhs=rhs, margin=margin,
            holds=margin >= -tol * scale,
        ))
    return NormReport(comparisons=tuple(comparisons),
                      holds=all(c.holds for c in comparisons))


# -- monotone-convex endpoint bound (unitary conjugate form) -----------------------

def check_bourin_t2(
    f: ScalarFunction,
    maps,
    a_list,
    tol: float = DEFAULT_TOL,
) -> BourinReport:
    """f(sum_i Phi_i(A_i)) is dominated, after a unitary conjugation, by
    sum_i Phi_i(f(A_i)) for increasing convex f.

    Existence of the conjugating unitary is equivalent to eigenvalue
    dominance, so the checker reports the dominance verdict and constructs
    the witness when it holds.
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
    if reasons:
        raise HypothesisUnmet(*reasons)
    m = maps[0].target_dim
    id_sum = maps[0].identity_image()
    for phi in maps[1:]:
        id_sum = id_sum + phi.identity_image()
    dist = float(np.max(np.abs(id_sum.entries - np.eye(m))))
    if dist > plmaps.UNITAL_TOL:
        # case (ii): the identity images sum below I and f(0) <= 0
        sum_values = eig(id_sum).values
        if float(sum_values[0]) > 1.0 + plmaps.UNITAL_TOL:
            reasons.append(f"sum of Phi_i(I) has top eigenvalue {float(sum_values[0]):.6g} > 1")
        if not f.domain.contains(0.0):
            reasons.append(f"0 is outside the domain {f.domain} of {f.name}")
        elif f.flags.f0_nonpositive is not True:
            reasons.append(f"{f.name}(0) <= 0 is not declared")
        if reasons:
            raise HypothesisUnmet(*reasons)
    arg = maps[0].apply(a_list[0])
    val = maps[0].apply(apply_function(f, a_list[0]))
    for phi, h in zip(maps[1:], a_list[1:]):
        arg = arg + phi.apply(h)
        val = val + phi.apply(apply_function(f, h))
    lhs = apply_function(f, arg)
    dominance = orders.eigen_dominance(lhs, val, tol)
    witness = orders.unitary_witness(lhs, val, tol) if dominance.holds else None
    witness_verdict = None
    if witness is not None:
        witness_verdict = orders.loewner_leq(lhs, _sandwich(witness.conj().T, val), tol * 10)
    return BourinReport(dominance=dominance, witness=witness, witness_verdict=witness_verdict)


# -- conditional endpoint bound with a supplied uniform unitary --------------------

def check_theorem_t3(
    f: ScalarFunction,
    phi: PositiveLinearMap,
    a: HermitianMatrix,
    b: HermitianMatrix,
    u: np.ndarray | None = None,
    t_grid=None,
    tol: float = DEFAULT_TOL,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ChainReport:
    """If one unitary U satisfies f(t Phi(A) + (1-t) Phi(B)) <= U [t Phi(f(A))
    + (1-t) Phi(f(B))] U* along the whole segment, then the eigenvalues of the
    segment integral are dominated by those of the endpoint average.

    The uniform hypothesis is verified only at the supplied grid points with
    the supplied U (default: identity); a failing grid point raises
    HypothesisUnmet rather than judging the conclusion.
    """
    reasons = _require_flag(f, "convex") + _require_flag(f, "increasing")
    reasons += _spectra_reasons(f, {"A": a, "B": b})
    reasons += _map_hypothesis_reasons(phi, f, strict_positive=False)
    if reasons:
        raise HypothesisUnmet(*reasons)
    m = phi.target_dim
    u = _require_unitary(np.eye(m) if u is None else u, m)
    grid = np.linspace(0.0, 1.0, 33) if t_grid is None else np.asarray(t_grid, dtype=float)
    pa, pb = phi.apply(a), phi.apply(b)
    pfa, pfb = phi.apply(apply_function(f, a)), phi.apply(apply_function(f, b))
    for t, point in zip(grid, segment_points(pa, pb, grid)):
        t = float(t)
        rhs_t = _sandwich(u, t * pfa + (1.0 - t) * pfb)
        if not orders.loewner_leq(apply_function(f, point), rhs_t, tol).holds:
            raise HypothesisUnmet(f"uniform-unitary comparison fails at t={t:.6g}")
    integral = segment_integral(f, pa, pb, quad)
    average = (pfa + pfb) / 2.0
    verdict = orders.eigen_dominance(integral, average, tol)
    return ChainReport(
        labels=("segment_integral", "endpoint_average"),
        terms=(integral, average),
        links=(verdict,),
        holds=verdict.holds,
    )


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


def _working_alpha(f: ScalarFunction, omega: float, Omega: float) -> float:
    """alpha on the working interval.  That f is defined and strictly
    positive there is a hypothesis of the converse bound, so an interval
    outside f's domain or a non-positive value of f is one unmet."""
    try:
        return mond_pecaric_alpha(f, omega, Omega).alpha
    except (BadInterval, NotPositive) as exc:
        raise HypothesisUnmet(str(exc)) from exc


def check_theorem_t4(
    f: ScalarFunction,
    phi: PositiveLinearMap,
    a: HermitianMatrix,
    b: HermitianMatrix,
    interval: tuple[float, float] | None = None,
    tol: float = DEFAULT_TOL,
    quad: QuadratureSpec = QuadratureSpec(),
) -> OrderVerdict:
    """Converse bound: Phi(segment integral of f) <= alpha times the average
    of f(Phi(A)) and f(Phi(B)), with alpha the chord-ratio constant on the
    working interval.

    The interval must contain the spectra of A, B, Phi(A) and Phi(B); when
    omitted it defaults to their spectral hull.
    """
    reasons = _require_flag(f, "convex")
    pa, pb = phi.apply(a), phi.apply(b)
    mats = {"A": a, "B": b, "Phi(A)": pa, "Phi(B)": pb}
    reasons += _spectra_reasons(f, mats)
    if interval is None:
        lows = [float(eig(h).values[-1]) for h in mats.values()]
        highs = [float(eig(h).values[0]) for h in mats.values()]
        omega, Omega = min(lows), max(highs)
        if not omega < Omega:
            omega, Omega = omega - 0.5, Omega + 0.5
    else:
        omega, Omega = float(interval[0]), float(interval[1])
        pad = 1e-9 * max(1.0, Omega - omega)
        for label, h in mats.items():
            values = eig(h).values
            if float(values[-1]) < omega - pad or float(values[0]) > Omega + pad:
                reasons.append(f"spectrum of {label} leaves [{omega}, {Omega}]")
    if reasons:
        raise HypothesisUnmet(*reasons)
    alpha = _working_alpha(f, omega, Omega)
    lhs = phi.apply(segment_integral(f, a, b, quad))
    rhs = alpha * 0.5 * (apply_function(f, pa) + apply_function(f, pb))
    return orders.loewner_leq(lhs, rhs, tol)


def check_norm_chain_corollary(
    f: ScalarFunction,
    phi: PositiveLinearMap,
    a: HermitianMatrix,
    b: HermitianMatrix,
    specs,
    interval: tuple[float, float] | None = None,
    tol: float = DEFAULT_TOL,
    quad: QuadratureSpec = QuadratureSpec(),
) -> NormReport:
    """Three-term norm chain: |||f((Phi(A)+Phi(B))/2)||| <= |||Phi(segment
    integral)||| <= alpha |||(f(Phi(A))+f(Phi(B)))/2|||.

    Norm monotonicity from the underlying matrix orders needs PSD displayed
    matrices, so comparisons involving a non-PSD term are reported skipped.
    """
    reasons = _require_flag(f, "convex")
    pa, pb = phi.apply(a), phi.apply(b)
    mats = {"A": a, "B": b, "Phi(A)": pa, "Phi(B)": pb}
    reasons += _spectra_reasons(f, mats)
    reasons += _map_hypothesis_reasons(phi, f, strict_positive=True, zero_value="zero")
    if interval is None:
        omega = min(float(eig(h).values[-1]) for h in mats.values())
        Omega = max(float(eig(h).values[0]) for h in mats.values())
        if not omega < Omega:
            omega, Omega = omega - 0.5, Omega + 0.5
    else:
        omega, Omega = float(interval[0]), float(interval[1])
    if reasons:
        raise HypothesisUnmet(*reasons)
    alpha = _working_alpha(f, omega, Omega)
    m0 = apply_function(f, (pa + pb) / 2.0)
    m1 = phi.apply(segment_integral(f, a, b, quad))
    m2 = alpha * 0.5 * (apply_function(f, pa) + apply_function(f, pb))
    terms = (m0, m1, m2)
    psd = [_is_psd(m, tol) for m in terms]
    comparisons = []
    for spec in specs:
        for link, (i, j) in enumerate(((0, 1), (1, 2))):
            pair_psd = psd[i] and psd[j]
            lhs, rhs = ui_norm(terms[i], spec), ui_norm(terms[j], spec)
            margin = rhs - lhs
            scale = max(1.0, lhs, rhs)
            comparisons.append(NormComparison(
                spec=f"{spec}:link{link}",
                lhs=lhs, rhs=rhs, margin=margin,
                holds=(margin >= -tol * scale) if pair_psd else True,
                skipped=not pair_psd,
            ))
    return NormReport(comparisons=tuple(comparisons),
                      holds=all(c.holds for c in comparisons))


# -- five-term refinement chain for operator convex functions ----------------------

def check_refinement_chain(
    f: ScalarFunction,
    a: HermitianMatrix,
    b: HermitianMatrix,
    k: int,
    p: int,
    tol: float = DEFAULT_TOL,
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
    reasons = _spectra_reasons(f, {"A": a, "B": b})
    if reasons:
        raise HypothesisUnmet(*reasons)
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
    links = tuple(orders.loewner_leq(terms[i], terms[i + 1], tol) for i in range(4))
    return ChainReport(
        labels=("midpoint", "midpoint_riemann", "integral", "trapezoid_riemann",
                "endpoint_average"),
        terms=terms,
        links=links,
        holds=all(link.holds for link in links),
    )


# -- the fixed 2x2 counterexample ---------------------------------------------------

F = Fraction

COUNTEREXAMPLE_A = np.array([[F(2), F(1)], [F(1), F(1)]], dtype=object)
COUNTEREXAMPLE_B = np.array([[F(1), F(0)], [F(0), F(0)]], dtype=object)

EXPECTED_MID_CUBED = np.array([[F(17, 4), F(7, 4)], [F(7, 4), F(3, 4)]], dtype=object)
EXPECTED_SEGMENT_INTEGRAL = np.array([[F(31, 6), F(5, 2)], [F(5, 2), F(4, 3)]], dtype=object)
EXPECTED_ENDPOINT_AVG = np.array([[F(7), F(4)], [F(4), F(5, 2)]], dtype=object)


def counterexample_matrices() -> tuple[HermitianMatrix, HermitianMatrix]:
    """Float versions of the fixed counterexample pair."""
    return (
        hermitian_from(COUNTEREXAMPLE_A.astype(float)),
        hermitian_from(COUNTEREXAMPLE_B.astype(float)),
    )


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
