"""Integration of the matrix segment curve t -> f(tA + (1-t)B) over [0, 1].

Gauss-Legendre quadrature with node doubling, plus an independent
word-expansion oracle for integer powers: (tA + (1-t)B)^r expands into
noncommutative words in {A, B} whose scalar coefficients integrate exactly
as Beta integrals.  The oracle is exponential in r by design; it exists to
certify the quadrature at small sizes.

Segment points reach f as a lazy stream (segment_points) of matrices built
and decomposed a stack at a time, at most STACK_ENTRY_BUDGET entries a
stack; every quadrature pass sums the stream it is handed.  Every integral
evaluates its first two rules, so one opening stream serves both: at small
n their nodes share one solver call, and at large n the stream still holds
one stack at a time.  Each later rule gets a stream of its own.

f reaches the nodes a stack at a time: the first apply_function call on a
node maps its whole stack (matcore.map_stack: one domain test, one
eval_array call and one stacked matmul), and each later node of the stack
reads its result from there.  Each node still makes its own apply_function
call, in rule order, and a node outside f's domain raises from its own
call.  A node is thin (its entries and its stack, see
matcore.segment_matrices): no pass asks for its decomposition, and a
node that leaves the domain names its eigenvalues from its stack row.
The integral and every weighted sum are real combinations of exactly
Hermitian images, built without the constructor's round trip.  A weighted
sum adds its images in rule order, a run of images at a time in one
np.cumsum, which adds in order and so gives the bits of adding one image
at a time; np.add.reduce would not, as it sums a run of 1x1 images
pairwise (see _weighted_sum).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadParams, NoConvergence, NonFiniteEntries, RTooLarge
from .funcat import ScalarFunction
from .matcore import (HermitianMatrix, _exact_hermitian, _hermitian_part, _stacked_images,
                      apply_function, check_same_dim, segment_matrices,
                      check_spectrum_in_domain as _check_spectrum_in_domain)

NODE_CAP = 1024  # refinement stops doubling at 2**10 nodes
WORD_CAP = 6  # 2**6 = 64 words
# Largest stack, in matrix entries, of segment points decomposed in one
# solver call.  The solver and its validation keep several temporaries the
# size of the stack, so an unbounded stack at large n shows up in peak
# memory; 4096 entries put every node of a small-n quadrature pass in one
# stack while a large-n pass goes one or a few matrices at a time.  A
# weighted sum adds its images in runs of at most as many entries.
STACK_ENTRY_BUDGET = 4096


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre starting node count and the rtol its doubling stops at.
    Every integral evaluates the starting rule and its double, so the start
    is at most NODE_CAP // 2.  An rtol of 1 or more would stop the doubling
    at its first comparison however far the two passes differ."""

    nodes: int = 16
    rtol: float = 1e-11

    def __post_init__(self):
        if not 1 <= self.nodes <= NODE_CAP // 2:
            raise BadParams(f"node count must be in 1..{NODE_CAP // 2}, got {self.nodes}")
        if not 0.0 < self.rtol < 1.0:
            raise BadParams(f"rtol must be in (0, 1), got {self.rtol}")


def _stack_length(n: int) -> int:
    """How many n x n matrices a stack of STACK_ENTRY_BUDGET entries holds,
    and at least one."""
    return max(1, STACK_ENTRY_BUDGET // max(1, n * n))


def segment_points(a: HermitianMatrix, b: HermitianMatrix, ts: np.ndarray):
    """Yield the matrices tA + (1-t)B for t in ts, already decomposed.

    Consecutive points are built and decomposed together (see
    matcore.segment_matrices) in stacks of at most STACK_ENTRY_BUDGET
    entries, one stack at a time: the next stack is made only once the
    consumer has taken every point of the last, so a stream over many
    large points holds few of them at once.
    """
    check_same_dim(a, b)
    step = _stack_length(a.dim)
    for start in range(0, len(ts), step):
        yield from segment_matrices(a, b, ts[start:start + step])


def _weighted_sum(f: ScalarFunction, weights: np.ndarray, points, like: np.ndarray) -> np.ndarray:
    """Entries of the sum over j of weights[j] * f(points[j]), drawing one
    point from the iterator `points` per weight and no more.

    Each point gets its own apply_function call, its domain verdict, in
    rule order.  The images are summed a run at a time, a run holding as
    many entries as a stack of segment_points at most, read as one array
    (see matcore._stacked_images).  The total is the per-point loop's
    ((0 + w_0 f_0) + w_1 f_1) + ... to the bit: the running sum is added to
    the first of the run's weighted images, and np.cumsum, which adds along
    its axis in order, carries it through the rest.  np.add.reduce would
    not do: along a contiguous axis, as a run of 1x1 images has, it sums
    pairwise, which rounds otherwise.  A run of one, every point at large
    n, is the loop's one in-place add."""
    run_length = _stack_length(like.shape[0])
    acc = np.zeros_like(like)
    for start in range(0, len(weights), run_length):
        run = weights[start:start + run_length]
        nodes = list(itertools.islice(points, len(run)))
        images = [apply_function(f, point).entries for point in nodes]
        if len(images) == 1:
            acc += float(run[0]) * images[0]
            continue
        terms = run[:, None, None] * _stacked_images(nodes, images)
        terms[0] += acc
        acc = np.cumsum(terms, axis=0, out=terms)[-1]
    return acc


def segment_sum(
    f: ScalarFunction,
    a: HermitianMatrix,
    b: HermitianMatrix,
    ts: np.ndarray,
    weights: np.ndarray,
) -> HermitianMatrix:
    """The sum over j of weights[j] * f(ts[j] A + (1 - ts[j]) B), a real
    combination of exactly Hermitian images; NonFiniteEntries when it
    overflows."""
    return _exact_hermitian(_weighted_sum(f, weights, segment_points(a, b, ts), a.entries))


@functools.lru_cache(maxsize=16)
def _gauss_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [0, 1].  Computing a
    rule costs an eigenvalue solve, more than a small-n pass itself."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    ts, ws = (x + 1.0) / 2.0, w / 2.0
    ts.flags.writeable = False
    ws.flags.writeable = False
    return ts, ws


def _gauss_pass(f: ScalarFunction, nodes: int, points, like: np.ndarray) -> np.ndarray:
    """The `nodes`-node Gauss-Legendre sum, its points drawn from `points`,
    a segment_points stream positioned at this rule's nodes.  A sum that is
    not finite raises NonFiniteEntries, as no later pass could settle."""
    total = _weighted_sum(f, _gauss_rule(nodes)[1], points, like)
    if not np.isfinite(total).all():
        raise NonFiniteEntries(f"the {nodes}-node quadrature sum of {f.name} is not finite")
    return total


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
    rtol in relative max-entry norm, capped at NODE_CAP; the first pass
    whose sum is not finite (f overflowing) raises NonFiniteEntries.

    Nodes are decomposed and mapped by f in stacks (see segment_points and
    matcore.apply_function); each node's apply_function call checks its
    spectrum against the domain.  The first two rules (QuadratureSpec keeps
    the second within NODE_CAP) draw from one opening stream over their
    concatenated nodes, so at small n one solver call decomposes both,
    while each pass still sums its own nodes in rule order; each later rule
    gets its own stream.
    """
    check_same_dim(a, b)
    _check_spectrum_in_domain(f, a, "the t=1 endpoint")
    _check_spectrum_in_domain(f, b, "the t=0 endpoint")
    nodes = spec.nodes
    opening = segment_points(a, b, np.concatenate([_gauss_rule(nodes)[0],
                                                   _gauss_rule(2 * nodes)[0]]))
    current = _gauss_pass(f, nodes, opening, a.entries)
    while True:
        nodes *= 2
        points = opening if nodes == 2 * spec.nodes else segment_points(a, b, _gauss_rule(nodes)[0])
        refined = _gauss_pass(f, nodes, points, a.entries)
        scale = max(1.0, float(np.max(np.abs(refined))))
        if float(np.max(np.abs(refined - current))) <= spec.rtol * scale:
            return _exact_hermitian(refined)
        if 2 * nodes > NODE_CAP:
            raise NoConvergence(
                f"quadrature did not settle to rtol={spec.rtol:g} below {NODE_CAP} nodes"
            )
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
    check_same_dim(a, b)
    return _hermitian_part(_word_integral(a.entries, b.entries, r, exact=False))


def poly_segment_oracle_exact(r: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Word-expansion integral in exact rational arithmetic.

    Inputs are object arrays of Fractions (real symmetric); the result is an
    object array of Fractions.
    """
    return _word_integral(np.asarray(a, dtype=object), np.asarray(b, dtype=object), r, exact=True)

