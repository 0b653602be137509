"""Integration of the matrix segment curve t -> f(tA + (1-t)B) over [0, 1].

Gauss-Legendre quadrature with node doubling, plus an independent
word-expansion oracle for integer powers: (tA + (1-t)B)^r expands into
noncommutative words in {A, B} whose scalar coefficients integrate exactly
as Beta integrals.  The oracle is exponential in r by design; it exists to
certify the quadrature at small sizes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadParams, DimMismatch, NoConvergence, RTooLarge
from .funcat import ScalarFunction
from .matcore import (HermitianMatrix, apply_function, eig_many, segment_matrices,
                      check_spectrum_in_domain as _check_spectrum_in_domain)

NODE_CAP = 1024  # refinement stops doubling at 2**10 nodes
WORD_CAP = 6  # 2**6 = 64 words
# Largest stack, in matrix entries, of segment points decomposed in one
# solver call.  The solver and its validation keep several temporaries the
# size of the stack, so an unbounded stack at large n shows up in peak
# memory; 4096 entries put every node of a small-n quadrature pass in one
# stack while a large-n pass goes one or a few matrices at a time.
STACK_ENTRY_BUDGET = 4096


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre starting node count and the rtol its doubling stops at."""

    nodes: int = 16
    rtol: float = 1e-11

    def __post_init__(self):
        if not 1 <= self.nodes <= NODE_CAP:
            raise BadParams(f"node count must be in 1..{NODE_CAP}, got {self.nodes}")
        if not self.rtol > 0.0:
            raise BadParams(f"rtol must be positive, got {self.rtol}")


def segment_points(a: HermitianMatrix, b: HermitianMatrix, ts: np.ndarray):
    """Yield the matrices tA + (1-t)B for t in ts, already decomposed.

    Consecutive points are decomposed together (see matcore.eig_many) in
    stacks of at most STACK_ENTRY_BUDGET entries, one stack at a time.
    """
    if a.dim != b.dim:
        raise DimMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    step = max(1, STACK_ENTRY_BUDGET // max(1, a.dim * a.dim))
    for start in range(0, len(ts), step):
        points = segment_matrices(a, b, ts[start:start + step])
        eig_many(points)
        yield from points


def segment_sum(
    f: ScalarFunction,
    a: HermitianMatrix,
    b: HermitianMatrix,
    ts: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Entries of the sum over j of weights[j] * f(ts[j] A + (1 - ts[j]) B)."""
    acc = np.zeros_like(a.entries)
    for weight, point in zip(weights, segment_points(a, b, ts)):
        acc += weight * apply_function(f, point).entries
    return acc


@functools.lru_cache(maxsize=16)
def _gauss_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [0, 1].  Computing a
    rule costs an eigenvalue solve, more than a small-n pass itself."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    ts, ws = (x + 1.0) / 2.0, w / 2.0
    ts.flags.writeable = False
    ws.flags.writeable = False
    return ts, ws


def _gauss_pass(f: ScalarFunction, a: HermitianMatrix, b: HermitianMatrix, nodes: int) -> np.ndarray:
    return segment_sum(f, a, b, *_gauss_rule(nodes))


def segment_integral(
    f: ScalarFunction,
    a: HermitianMatrix,
    b: HermitianMatrix,
    spec: QuadratureSpec = QuadratureSpec(),
) -> HermitianMatrix:
    """Integrate f(tA + (1-t)B) over t in [0, 1].

    Spectra are required to stay inside the domain of f; this is checked at
    the endpoints and at every quadrature node (the segment's spectral
    bounds are convex in t, so a dense check is unnecessary at these
    tolerances).  The node count doubles until successive results agree to
    rtol in relative max-entry norm, capped at NODE_CAP.

    A pass decomposes its nodes in stacks (see segment_points): one
    solver call per stack, with the reconstruction and orthonormality
    checks still applied to every node's matrix; f is then applied to each
    node by apply_function, which checks that node's spectrum against the
    domain.  A stack holds at most STACK_ENTRY_BUDGET entries because the
    solver's temporaries grow with the stack; the budget keeps a whole pass
    in one stack at small n and bounds peak memory at large n.
    """
    if a.dim != b.dim:
        raise DimMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    _check_spectrum_in_domain(f, a, "the t=1 endpoint")
    _check_spectrum_in_domain(f, b, "the t=0 endpoint")
    nodes = spec.nodes
    current = _gauss_pass(f, a, b, nodes)
    while True:
        if 2 * nodes > NODE_CAP:
            raise NoConvergence(
                f"quadrature did not settle to rtol={spec.rtol:g} below {NODE_CAP} nodes"
            )
        nodes *= 2
        refined = _gauss_pass(f, a, b, nodes)
        scale = max(1.0, float(np.max(np.abs(refined))))
        if float(np.max(np.abs(refined - current))) <= spec.rtol * scale:
            return HermitianMatrix((refined + refined.conj().T) / 2.0)
        current = refined


def _word_integral(a: np.ndarray, b: np.ndarray, r: int, exact: bool) -> np.ndarray:
    r = int(r)
    if r < 1:
        raise BadParams(f"power must be a positive integer, got {r}")
    if r > WORD_CAP:
        raise RTooLarge(f"word expansion capped at r={WORD_CAP}, got {r}")
    letters = (b, a)  # bit 1 selects A, bit 0 selects B
    acc = None
    for bits in itertools.product((0, 1), repeat=r):
        word = letters[bits[0]]
        for bit in bits[1:]:
            word = word.dot(letters[bit])
        j = sum(bits)
        coeff = Fraction(math.factorial(j) * math.factorial(r - j), math.factorial(r + 1))
        term = (coeff if exact else float(coeff)) * word
        acc = term if acc is None else acc + term
    return acc


def poly_segment_oracle(r: int, a: HermitianMatrix, b: HermitianMatrix) -> HermitianMatrix:
    """Exact-in-structure integral of (tA + (1-t)B)^r by word expansion.

    Each word w in {A, B}^r with j letters A contributes
    j! (r-j)! / (r+1)! times the matrix product w; no quadrature involved.
    """
    if a.dim != b.dim:
        raise DimMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    total = _word_integral(a.entries, b.entries, r, exact=False)
    return HermitianMatrix((total + total.conj().T) / 2.0)


def poly_segment_oracle_exact(r: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Word-expansion integral in exact rational arithmetic.

    Inputs are object arrays of Fractions (real symmetric); the result is an
    object array of Fractions.
    """
    return _word_integral(np.asarray(a, dtype=object), np.asarray(b, dtype=object), r, exact=True)


def scalar_segment_integral(f, x: float, y: float, rtol: float = 1e-12, nodes: int = 16) -> float:
    """Gauss-Legendre integral of a scalar function over [x, y], refined by
    node doubling until successive values agree to rtol."""
    if not y > x:
        raise BadParams(f"need x < y, got [{x}, {y}]")

    def one_pass(n: int) -> float:
        # halving is exact: these nodes and sums match the [-1, 1] rule's
        ts, ws = _gauss_rule(n)
        return float(sum(wi * f(t) for wi, t in zip(ws, x + ts * (y - x))) * (y - x))

    current = one_pass(nodes)
    while True:
        if 2 * nodes > NODE_CAP:
            raise NoConvergence(f"scalar quadrature did not settle below {NODE_CAP} nodes")
        nodes *= 2
        refined = one_pass(nodes)
        if abs(refined - current) <= rtol * max(1.0, abs(refined)):
            return refined
        current = refined
