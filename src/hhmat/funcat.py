"""Catalog of scalar test functions with declared analytic flags.

Theorem checkers gate their hypotheses on the declared flags (convex,
increasing, operator convex); a value of f, such as f(0), is read off f
itself.  The catalog is fixed so the flag assignments stay auditable;
validate_flags tests the flags declared (or claimed) true on an interval by
deterministic grid and matrix tests, and refutes the first one that fails
with a witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import matcore, orders
from .errors import BadInterval, BadParams, FlagContradicted, UnknownName

# Relative endpoint stretch used for domain membership of computed spectra.
DOMAIN_STRETCH_RTOL = 1e-9
# Tolerance for the midpoint-convexity and monotonicity grid tests.
FLAG_TEST_RTOL = 1e-10
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class Interval:
    """Closed interval or half-line; an open lower endpoint is honored
    strictly.  The upper endpoint is closed, or infinite."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False

    def __post_init__(self):
        if not self.lo < self.hi:
            raise BadInterval(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def whole_line(self) -> bool:
        """True for the real line, where contains_array refuses only NaN."""
        return self.lo == -math.inf and self.hi == math.inf

    def contains(self, x: float) -> bool:
        return bool(self.contains_array(x))

    def contains_array(self, xs: np.ndarray) -> np.ndarray:
        """Elementwise membership of an array of points.

        Only finite endpoints are compared against, so on the real line
        this is a NaN test.
        """
        xs = np.asarray(xs, dtype=float)
        # Every comparison with NaN is False, so each test refuses NaN.
        if self.lo_open:
            inside = xs > self.lo
        elif self.lo > -math.inf:
            inside = xs >= self.lo - self._pad(xs)
        else:
            inside = xs == xs
        if self.hi < math.inf:
            inside &= xs <= self.hi + self._pad(xs)
        return inside

    def _pad(self, xs: np.ndarray) -> float | np.ndarray:
        # Numerically computed spectra may fall marginally outside closed
        # endpoints; stretch by a small amount relative to the interval
        # length (or to the point's own scale on half-lines, capped so that
        # an infinite point gets a finite stretch and stays outside).
        if self.bounded:
            return DOMAIN_STRETCH_RTOL * (self.hi - self.lo)
        return DOMAIN_STRETCH_RTOL * np.maximum(1.0, np.minimum(np.abs(xs), _FLOAT_MAX))

    def contains_interval(self, a: float, b: float) -> bool:
        lo_ok = a > self.lo if self.lo_open else a >= self.lo
        return lo_ok and b <= self.hi and a <= b

    def clip(self, xs: np.ndarray) -> np.ndarray:
        """Points admitted by contains_array, moved into [lo, hi]; the real
        line moves none."""
        if self.whole_line:
            return xs
        return np.minimum(np.maximum(xs, self.lo), self.hi)

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        return f"{left}{self.lo:g}, {self.hi:g}]"


def working_interval(lo: float, hi: float) -> Interval:
    """[lo, hi] as a working interval (of a suite or a converse bound):
    BadInterval unless non-empty (no NaN end) and of finite length."""
    working = Interval(float(lo), float(hi))
    if not math.isfinite(working.hi - working.lo):
        raise BadInterval(f"interval [{working.lo}, {working.hi}] is not finite")
    return working


@dataclass(frozen=True)
class Flags:
    """Analytic declarations, each True or False."""

    convex: bool
    increasing: bool
    operator_convex: bool


@dataclass(frozen=True)
class ScalarFunction:
    """A catalog function.  ``fn`` is its one formula, written with numpy
    operations so it maps a float array elementwise; the scalar call and
    ``eval_array`` both go through it."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    domain: Interval
    flags: Flags

    def __call__(self, x: float) -> float:
        return float(self.fn(np.float64(x)))

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        """f at every point of ``xs``; the result has the shape of ``xs``."""
        return np.asarray(self.fn(np.asarray(xs, dtype=float)), dtype=float)

    def __repr__(self) -> str:
        return f"ScalarFunction({self.name!r} on {self.domain})"


def _require_params(name: str, params: tuple, count: int):
    if len(params) != count:
        raise BadParams(f"{name} expects {count} parameter(s), got {len(params)}")


def _is_integral(r: float) -> bool:
    return math.isfinite(r) and r == round(r)


def _power_eval(r: float) -> Callable[[np.ndarray], np.ndarray]:
    if _is_integral(r):
        k = float(round(r))
        return lambda x: x ** k
    # Spectra admitted by the domain stretch may sit just below 0.
    return lambda x: np.maximum(x, 0.0) ** r


def _power_flags(r: float, dom: Interval) -> Flags:
    nonneg = dom.lo >= 0.0
    even = _is_integral(r) and int(round(r)) % 2 == 0
    odd = _is_integral(r) and int(round(r)) % 2 == 1
    return Flags(
        convex=True if (nonneg or even) else False,
        increasing=True if (nonneg or odd) else False,
        operator_convex=1.0 <= r <= 2.0,
    )


def _affine_flags(a: float) -> Flags:
    return Flags(convex=True, increasing=a >= 0.0, operator_convex=True)


def _xlogx(x: np.ndarray) -> np.ndarray:
    positive = x > 0.0
    return np.where(positive, x * np.log(np.where(positive, x, 1.0)), 0.0)


def _neg_sqrt(x: np.ndarray) -> np.ndarray:
    return -np.sqrt(np.maximum(x, 0.0))


def builtin(name: str, *params: float, domain: tuple[float, float] | None = None) -> ScalarFunction:
    """Construct a catalog function, optionally restricted to a subinterval.

    Supported names: power(r), exp, identity, cube, neg_sqrt, inverse,
    xlogx, affine(a, b).  Restricting the domain recomputes flags (e.g.
    power(2) is increasing on [0, inf) but not on all of R).
    """
    if name == "power":
        _require_params(name, params, 1)
        r = float(params[0])
        if not r >= 1.0:
            raise BadParams(f"power exponent must be >= 1 for guaranteed convexity, got {r}")
        natural = Interval() if _is_integral(r) else Interval(lo=0.0)
        dom = _restrict(natural, domain, name)
        label, fn, flags = f"power:{r:g}", _power_eval(r), _power_flags(r, dom)
    elif name == "cube":
        _require_params(name, params, 0)
        dom = _restrict(Interval(lo=0.0), domain, name)
        label, fn, flags = "cube", _power_eval(3.0), _power_flags(3.0, dom)
    elif name == "identity":
        _require_params(name, params, 0)
        dom = _restrict(Interval(), domain, name)
        label, fn, flags = "identity", np.positive, _affine_flags(1.0)
    elif name == "affine":
        _require_params(name, params, 2)
        a, b = float(params[0]), float(params[1])
        dom = _restrict(Interval(), domain, name)
        label, fn, flags = f"affine:{a:g},{b:g}", lambda x: a * x + b, _affine_flags(a)
    elif name == "exp":
        _require_params(name, params, 0)
        dom = _restrict(Interval(), domain, name)
        label, fn = "exp", np.exp
        flags = Flags(convex=True, increasing=True, operator_convex=False)
    elif name == "neg_sqrt":
        _require_params(name, params, 0)
        dom = _restrict(Interval(lo=0.0), domain, name)
        label, fn = "neg_sqrt", _neg_sqrt
        flags = Flags(convex=True, increasing=False, operator_convex=True)
    elif name == "inverse":
        _require_params(name, params, 0)
        dom = _restrict(Interval(lo=0.0, lo_open=True), domain, name)
        label, fn = "inverse", np.reciprocal
        flags = Flags(convex=True, increasing=False, operator_convex=True)
    elif name == "xlogx":
        _require_params(name, params, 0)
        dom = _restrict(Interval(lo=0.0), domain, name)
        label, fn = "xlogx", _xlogx
        flags = Flags(convex=True, increasing=False, operator_convex=True)
    else:
        raise UnknownName(f"no catalog entry named {name!r}")
    return ScalarFunction(label, fn, dom, flags)


def _restrict(natural: Interval, domain: tuple[float, float] | None, name: str) -> Interval:
    if domain is None:
        return natural
    lo, hi = float(domain[0]), float(domain[1])
    if not natural.contains_interval(lo, hi) and not (
        # Allow restriction sharing the natural open endpoint, e.g. (0, 2].
        lo == natural.lo and natural.lo_open and hi <= natural.hi
    ):
        raise BadParams(f"domain [{lo}, {hi}] is not inside the natural domain of {name}")
    return Interval(lo=lo, hi=hi, lo_open=natural.lo_open and lo == natural.lo)


@functools.lru_cache(maxsize=64)
def from_descriptor(text: str) -> ScalarFunction:
    """Parse CLI descriptors like "exp", "power:1.5" or "power:2@0,inf".

    Each descriptor string is parsed once and its function shared, so a
    cache keyed on the function (the mond_pecaric_alpha memo) hits from one
    trial to the next.  A number field that does not parse raises BadParams.
    """
    body, _, dom = text.partition("@")
    name, _, argstr = body.partition(":")
    try:
        params = tuple(float(a) for a in argstr.split(",")) if argstr else ()
        domain = None
        if dom:
            lo_s, _, hi_s = dom.partition(",")
            domain = (float(lo_s), float(hi_s))
    except ValueError as exc:
        raise BadParams(f"cannot parse function descriptor {text!r}: {exc}") from None
    return builtin(name, *params, domain=domain)


CATALOG_DESCRIPTORS = (
    "identity",
    "affine:2,0.5",
    "power:1.5",
    "power:2",
    "power:2@0,inf",
    "power:4",
    "cube",
    "exp",
    "neg_sqrt",
    "inverse",
    "xlogx",
)
"""Representative instances used by the validation test sweep."""


# -- numeric flag validation --------------------------------------------------

# Points of the grid tests.
FLAG_GRID_POINTS = 201
# Diagonal points of the operator-convexity star probe.
STAR_PROBE_POINTS = 4


def _midpoint_violation(f, A, B) -> dict | None:
    """The replayable witness {"a", "b", "margin"} when
    f((A + B)/2) <= (f(A) + f(B))/2 fails in the Loewner order, else None."""
    mid = matcore.apply_function(f, 0.5 * A + 0.5 * B)
    avg = 0.5 * matcore.apply_function(f, A) + 0.5 * matcore.apply_function(f, B)
    verdict = orders.loewner_leq(mid, avg)
    if verdict.holds:
        return None
    return {"a": matcore.matrix_to_json(A), "b": matcore.matrix_to_json(B),
            "margin": verdict.margin}


def _star_probe_violation(f, a: float, b: float) -> dict | None:
    """Midpoint test of the pairs A +- tH that decide operator convexity to
    second order.

    With points x_1..x_k inside [a, b], each x_0 among them gives
    A = diag(x_0, x_1, ..., x_k) and the star H = e_0 1* + 1 e_0* with zero
    diagonal.  By the Daleckii-Krein formula, the gap
    (f(A + tH) + f(A - tH))/2 - f(A) is t^2 [f[x_0, x_i, x_j]] + O(t^4) on
    indices 1..k, where f[., ., .] is the second divided difference.  Kraus
    (1936; Bhatia, Matrix Analysis, Ch. V) showed that f is operator convex
    on an interval exactly when that matrix is positive semidefinite for
    every choice of points.  So a function that is not operator convex shows
    a negative direction here, with no derivative and no random draw, while
    an operator convex one meets the midpoint inequality for every pair.
    ||H|| = sqrt(k), so t = delta / (2 sqrt(k)) keeps both spectra within
    delta/2 of the points, inside [a, b].
    """
    delta = 0.05 * (b - a)
    xs = np.linspace(a + delta, b - delta, STAR_PROBE_POINTS)
    star = np.zeros((STAR_PROBE_POINTS + 1,) * 2)
    star[0, 1:] = star[1:, 0] = delta / (2.0 * math.sqrt(STAR_PROBE_POINTS))
    for x0 in xs:
        diag = np.diag(np.concatenate(([x0], xs)))
        witness = _midpoint_violation(
            f, matcore.HermitianMatrix(diag + star), matcore.HermitianMatrix(diag - star))
        if witness is not None:
            return witness
    return None


def validate_flags(f: ScalarFunction, interval: tuple[float, float], *,
                   claims: dict | None = None) -> None:
    """Test on ``interval`` each flag of f that is declared true, or made
    true by ``claims`` (which overrides the declarations), and raise
    FlagContradicted with a witness for the first one a test refutes.  To
    get a witness against a flag declared false, claim it true.  The flags
    are convex, increasing and operator_convex; a claim that names none of
    them raises BadParams.

    The interval must be a working interval (see working_interval) inside
    the domain of f, on which f is finite (BadParams; numpy's own warnings
    are off while f is evaluated).  Convexity is the midpoint test on every
    pair of grid points, monotonicity the largest drop from a grid point to
    a later one, and operator convexity the star probe of
    _star_probe_violation.  A grid test's witness is its worst pair or
    point.  An operator-convexity witness {"a", "b", "margin"} holds the
    pair as matrix literals, which matrix_from_json reads back to the same
    matrices and so the same margin.
    """
    claimed = asdict(f.flags)
    unknown = sorted(set(claims or {}) - set(claimed))
    if unknown:
        raise BadParams(f"no flag named {', '.join(map(repr, unknown))}; "
                        f"the flags are {', '.join(claimed)}")
    claimed.update(claims or {})
    working = working_interval(*interval)
    a, b = working.lo, working.hi
    if not f.domain.contains_interval(a, b):
        raise BadParams(f"interval [{a}, {b}] not inside domain {f.domain} of {f.name}")
    grid = np.linspace(a, b, FLAG_GRID_POINTS)
    with np.errstate(all="ignore"):
        vals = f.eval_array(grid)
    if not np.all(np.isfinite(vals)):
        raise BadParams(f"{f.name} is not finite on [{a}, {b}]")
    tol = FLAG_TEST_RTOL * max(1.0, float(np.max(np.abs(vals))))

    def refute(flag: str, witness):
        if witness is not None:
            raise FlagContradicted(f"{f.name}: flag {flag!r} declared true but refuted",
                                   flag, witness)

    if claimed["convex"]:  # midpoint convexity on every pair of grid points
        i, j = np.triu_indices(len(grid), 1)
        # halves first, so that no sum overflows; halving is exact
        gaps = vals[i] / 2.0 + vals[j] / 2.0 - f.eval_array(grid[i] / 2.0 + grid[j] / 2.0)
        w = int(np.argmin(gaps))
        refute("convex", (float(grid[i[w]]), float(grid[j[w]]), float(gaps[w]))
               if gaps[w] < -tol else None)
    if claimed["increasing"]:  # the largest drop from a grid point to a later one
        drops = np.maximum.accumulate(vals)[:-1] - vals[1:]
        w = int(np.argmax(drops))
        top = float(grid[np.argmax(vals[:w + 1])])
        refute("increasing", (top, float(grid[w + 1]), float(drops[w])) if drops[w] > tol else None)
    if claimed["operator_convex"]:
        refute("operator_convex", _star_probe_violation(f, a, b))
