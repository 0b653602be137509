"""Dense Hermitian matrices: construction, random draws, eigendecomposition,
functional calculus and the unitarily invariant norms, each named by a spec
string whose one reading is norm_spec.

Values are immutable and every operation but random_hermitian is pure, so
everything here is safe to call from concurrent workers.  A matrix caches its
stack row and the EigenSystem made from it, and the stack it was decomposed
in the images and results of its matrices under f (see SpectralStack).
Each cache is one reference, filled whole: two workers racing to fill it
each use a whole result for their own arguments, so the race is harmless.

This module alone decides how matrices are stacked: every decomposed matrix
is a row of a SpectralStack, and _as_stack is the one way any matrix gets
its decomposition.  segment_matrices decomposes its points in one solver
call and one stack, eig_many (and eig, through it) makes one solver call
and one stack per size, and the decomposition derived for f(H) is a stack
of one.  f(H) has one formula, map_stack's, which maps a whole stack at
once, once per f; apply_function hands each matrix its row's result.

The HermitianMatrix constructor judges input from outside the package
(matrix literals, caller-supplied arrays): it compares the array with its
conjugate transpose, symmetrizes and copies.  Arrays the package computes
are exactly Hermitian by construction, as real combinations of Hermitian
matrices and R/2 + (R/2)* are, so the internal builder _exact_hermitian
(and _hermitian_part for a product), which plmaps, segquad and harness use
too, wraps them with a finiteness check and nothing more.  Segment points
and images of f are wrapped with no check at all (_wrap, used only here): a
point that is not finite fails its decomposition, and an image is judged
where it is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    BadInterval,
    BadParams,
    BadSpec,
    ConvergenceFailure,
    DimMismatch,
    ExcessAsymmetryError,
    NonFiniteEntries,
    NonSquareError,
    SpectrumOutOfDomain,
)

if TYPE_CHECKING:  # pragma: no cover
    from .funcat import Interval, ScalarFunction

# Relative bound on the skew part of raw input before construction is refused.
ASYMMETRY_RTOL = 1e-10
# Relative bounds for eigendecomposition self-checks.
EIG_RECON_RTOL = 1e-10
EIG_ORTHO_TOL = 1e-10
# random_hermitian shrinks the requested spectrum window by at least this
# fraction on each side, keeping boundary-domain errors away.
SPECTRUM_SHRINK = 0.1


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Square complex matrix with exact Hermitian symmetry.

    The constructor replaces the raw entries by their Hermitian part
    (M + M*)/2, which is exactly Hermitian in floating point, and records how
    far the raw input was from symmetric.  Inputs with a NaN or infinite
    entry, and inputs whose skew part exceeds
    ``ASYMMETRY_RTOL * max(1, max|entry|)``, are rejected.  Matrices the
    package computes skip the constructor (see _exact_hermitian).
    """

    entries: np.ndarray
    asymmetry_residual: float = 0.0
    # Filled from the matrix's stack row (see _row_eigen) the first time eig()
    # or eig_many() asks; entries are read-only, so it stays valid.
    _eigen: "EigenSystem | None" = field(default=None, init=False, repr=False)
    # Set by apply_function on f(H): (f of H's eigenvalues, H's eigenvectors),
    # from which eig() derives this matrix's decomposition without a solver.
    _spectral_pair: "tuple[np.ndarray, np.ndarray] | None" = field(
        default=None, init=False, repr=False)
    # Set by _as_stack when the matrix is decomposed: (the SpectralStack it
    # was decomposed in, its row there), from which apply_function reads f(H)
    # and _row_eigen its decomposition.
    _stack: "tuple[SpectralStack, int] | None" = field(default=None, init=False, repr=False)

    def __post_init__(self):
        raw = np.asarray(self.entries, dtype=complex)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise NonSquareError(f"expected a square grid, got shape {raw.shape}")
        if not np.isfinite(raw).all():
            raise NonFiniteEntries("matrix entries must be finite, got NaN or infinity")
        ct = raw.conj().T
        if (raw == ct).all():
            # Exactly Hermitian already, as real combinations of Hermitian
            # matrices are (h + k, 2.5 * h, ...): the Hermitian part is raw.
            herm, residual = raw.copy(), 0.0
        else:
            herm = (raw + ct) / 2.0
            residual = float(np.max(np.abs(raw - herm)))
            scale = max(1.0, float(np.max(np.abs(raw))))
            if residual > ASYMMETRY_RTOL * scale:
                raise ExcessAsymmetryError(
                    f"asymmetry residual {residual:.3e} exceeds "
                    f"{ASYMMETRY_RTOL:.0e} * {scale:.3e}"
                )
        herm.setflags(write=False)
        object.__setattr__(self, "entries", herm)
        object.__setattr__(self, "asymmetry_residual", residual)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    # Real linear combinations of Hermitian matrices stay Hermitian, so a
    # little arithmetic sugar keeps checker code close to the formulas.
    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        check_same_dim(self, other)
        return _exact_hermitian(self.entries + other.entries)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        check_same_dim(self, other)
        return _exact_hermitian(self.entries - other.entries)

    def __mul__(self, scalar: float) -> "HermitianMatrix":
        return _exact_hermitian(self.entries * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "HermitianMatrix":
        return _exact_hermitian(self.entries / float(scalar))

    def __neg__(self) -> "HermitianMatrix":
        return _exact_hermitian(-self.entries)

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim}, residual={self.asymmetry_residual:.2e})"


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenvalues in descending order with orthonormal eigenvectors.

    ``values[j]`` pairs with column ``vectors[:, j]``; the source matrix is
    ``vectors @ diag(values) @ vectors*``.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    @cached_property
    def singular_values(self) -> np.ndarray:
        """|values| in descending order, read-only; sorted once per
        decomposition, however many norms are read off it."""
        sigma = np.sort(np.abs(self.values))[::-1]
        sigma.setflags(write=False)
        return sigma


def check_same_dim(a: HermitianMatrix, b: HermitianMatrix):
    """DimMismatch naming both sizes, not numpy's broadcasting ValueError,
    when a and b differ in size; the one same-size check of the package."""
    if a.dim != b.dim:
        raise DimMismatch(f"dimensions differ: {a.dim} vs {b.dim}")


def random_hermitian(n: int, omega: float, Omega: float, seed) -> HermitianMatrix:
    """Random Hermitian matrix with spectrum strictly inside [omega, Omega].

    A complex Gaussian G is replaced by its Hermitian part G/2 + (G/2)*
    (see _symmetrize), then affinely rescaled so the extreme eigenvalues
    land a random 1-10% of the interval width inside each endpoint.
    ``seed`` may be an int or a Generator.

    The rescaling s*w + c of the eigenvalues w of H is s*H + c*I, so only
    the extreme eigenvalues are solved for.  s*H + c*I is exactly Hermitian,
    as H is with its real diagonal, so it has residual 0.
    """
    if not omega < Omega:
        raise BadInterval(f"need omega < Omega, got [{omega}, {Omega}]")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(int(seed))
    width = Omega - omega
    lo = omega + SPECTRUM_SHRINK * width * rng.uniform(0.1, 1.0)
    hi = Omega - SPECTRUM_SHRINK * width * rng.uniform(0.1, 1.0)
    if n == 1:
        return _exact_hermitian(np.array([[rng.uniform(lo, hi)]], dtype=complex))
    h = _symmetrize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w = np.linalg.eigvalsh(h)
    span = float(w[-1] - w[0])
    if span < 1e-12:
        return _exact_hermitian(np.diag(np.linspace(lo, hi, n)).astype(complex))
    s = (hi - lo) / span
    h *= s
    h[np.diag_indices(n)] += lo - s * w[0]
    return _exact_hermitian(h)


def _wrap(fields: dict) -> HermitianMatrix:
    """A HermitianMatrix whose instance dict is ``fields``: "entries", an
    array the caller has made read-only, used as it is, with residual 0 and
    no check at all, and "_spectral_pair" when the matrix has one; the
    class defaults serve the rest.  Only for arrays that are exactly
    Hermitian by construction and need no finiteness check, and only in
    this module: the segment points of segment_matrices (a point that is
    not finite fails its decomposition) and the images of apply_function
    (an image that overflows is judged where it is used)."""
    h = object.__new__(HermitianMatrix)
    h.__dict__.update(fields)  # the frozen class refuses attribute assignment
    return h


def _exact_hermitian(entries: np.ndarray) -> HermitianMatrix:
    """The one builder for square complex arrays the package computes that
    are exactly Hermitian by construction: real combinations of exactly
    Hermitian matrices (h + k, 2.5 * h, sH + cI, weighted sums of images of
    f), the identity and R/2 + (R/2)* (see _hermitian_part).

    The constructor judges input from outside the package; its exactness
    test always passes on such an array, so it is skipped, and so is the
    copy: the array itself becomes the read-only entries, with residual 0.
    Only finiteness is checked, as the constructor does: an array with a
    NaN or infinite entry (a sum or scaling that overflowed) raises
    NonFiniteEntries.
    """
    if not np.isfinite(entries).all():
        raise NonFiniteEntries("matrix entries must be finite, got NaN or infinity")
    entries.setflags(write=False)
    return _wrap({"entries": entries})


def _symmetrize(r: np.ndarray) -> np.ndarray:
    """R/2 + (R/2)* of every matrix in a stack (or of one matrix), in place,
    returning r, a complex array as the package computes it (each row
    contiguous).  The sum of a matrix and its conjugate transpose is exactly
    Hermitian whatever the rounding in R; halving first (exact but for
    subnormal entries) cannot overflow near the float max.  It is the
    constructor's (R + R*)/2, and R itself when R is exactly Hermitian, bit
    for bit but for subnormal entries and the signs of zeros.

    Each real and imaginary part is halved as a float: dividing by 2.0
    would run as complex division, which costs several times more and
    mixes each part with the other (re + im*0), so it gives other signs of
    zeros and other non-finite parts."""
    parts = r.view(float)
    parts *= 0.5
    r += _ct(r)
    return r


def _hermitian_part(r: np.ndarray) -> HermitianMatrix:
    """The Hermitian part of a square complex array the package computed,
    a product such as a congruence X* A X that rounding left a little off
    Hermitian: R/2 + (R/2)* formed in r's own memory (see _symmetrize) and
    built by _exact_hermitian."""
    return _exact_hermitian(_symmetrize(r))


class SpectralStack:
    """The validated decompositions of a stack of k Hermitian matrices,
    (values, vectors) as eig_stack returns them, and the images and results
    of its matrices under the last f applied to any of them (see
    apply_function).  Only _as_stack makes one, and each of its matrices
    holds its (stack, row).

    The cache ``mapped`` is one reference to a tuple (f, inside, images,
    results), replaced whole and never attribute by attribute: f,
    map_stack's domain verdicts and images for it, and f(H) of every row,
    built in the same pass (see _mapped).  A repeated call for f on one row
    returns the same result object.  A worker reads the cache once, so two
    workers racing to fill it, even for different functions, each use the
    tuple of their own f; the race costs at most a second kernel call.
    """

    __slots__ = ("values", "vectors", "mapped")

    def __init__(self, values: np.ndarray, vectors: np.ndarray):
        self.values, self.vectors, self.mapped = values, vectors, None


def _as_stack(hs: "list[HermitianMatrix]", values: np.ndarray, vectors: np.ndarray):
    """The one way a matrix gets its decomposition: make the matrices
    ``hs``, whose validated decompositions are the rows of (values,
    vectors), the rows of one SpectralStack, setting only each matrix's
    (stack, row).  Its EigenSystem is made from that row when first asked
    for (see _row_eigen)."""
    stack = SpectralStack(values, vectors)
    for i, h in enumerate(hs):
        object.__setattr__(h, "_stack", (stack, i))


def _row_eigen(h: HermitianMatrix) -> EigenSystem:
    """The EigenSystem of a matrix with a stack row, read-only views of that
    row, made and cached on h: no solver call and no copy."""
    stack, i = h._stack
    es = EigenSystem(values=stack.values[i], vectors=stack.vectors[i])
    object.__setattr__(h, "_eigen", es)
    return es


def segment_matrices(a: HermitianMatrix, b: HermitianMatrix, ts) -> list[HermitianMatrix]:
    """The matrices tA + (1-t)B for t in ts, built in one array expression
    and decomposed from that array in one solver call (see eig_stack).
    Each is a thin node: a read-only view of its entries and its
    (SpectralStack, index) from _as_stack, and nothing else.  apply_function
    maps a whole stack at once from there.

    Multiplying by a real scalar and adding act on real and imaginary parts
    separately and commute with conjugation, so these matrices are exactly
    Hermitian, as A and B are.
    """
    t = np.asarray(ts, dtype=float)[:, None, None]
    stack = t * a.entries + (1.0 - t) * b.entries
    values, vectors = eig_stack(stack)
    stack.setflags(write=False)  # and so every node's view of it
    nodes = [_wrap({"entries": m}) for m in stack]
    _as_stack(nodes, values, vectors)
    return nodes


def _ct(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack, as a transposed
    view of the conjugate: conjugating a contiguous array is the fast way."""
    return stack.conj().swapaxes(-1, -2)


def _reconstruction_errors(values: np.ndarray, vectors: np.ndarray, vectors_ct: np.ndarray,
                           stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(error, scale) of each matrix of a stack: the largest entry of
    |vectors[i] diag(values[i]) vectors[i]* - stack[i]| and max(1, its
    spectral radius), which EIG_RECON_RTOL is relative to; ``vectors_ct``
    is _ct(vectors)."""
    # initial= gives each maximum its floor (1 for the scale, 0 for the
    # error), which also serves 0x0 matrices, whose decomposition is empty.
    scale = np.maximum.reduce(np.abs(values), axis=1, initial=1.0)
    recon = (vectors * values[:, None, :]) @ vectors_ct
    recon -= stack
    return np.maximum.reduce(np.abs(recon), axis=(1, 2), initial=0.0), scale


def _check_reconstruction(recon_err: np.ndarray, scale: np.ndarray):
    """Raise ConvergenceFailure naming the first matrix whose reconstruction
    error exceeds EIG_RECON_RTOL * its scale (see _reconstruction_errors)."""
    # Negated <= so that a NaN error (a NaN from the solver) fails too.
    bad = np.flatnonzero(~(recon_err <= EIG_RECON_RTOL * scale))
    if bad.size:
        i = bad[0]
        raise ConvergenceFailure(
            f"eigendecomposition reconstruction error {recon_err[i]:.3e} "
            f"exceeds {EIG_RECON_RTOL:.0e} * {scale[i]:.3e}"
        )


@lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, made once per size: subtracting it
    from a stack of Gram matrices costs less than building it each time or
    subtracting 1 from each strided diagonal."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def eig_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a (k, n, n) stack of Hermitian matrices in one solver
    call.  Returns (values, vectors) of shapes (k, n) and (k, n, n), with
    eigenvalues descending and ``values[i, j]`` paired with ``vectors[i, :, j]``.

    Every matrix is validated as eig() documents: reconstruction to
    ``EIG_RECON_RTOL`` relative to max(1, its spectral radius) and
    orthonormality to ``EIG_ORTHO_TOL``.  One test of every matrix's two
    errors decides the stack; only when it fails are the errors read for
    the ConvergenceFailure, a reconstruction failure first, naming the first
    matrix that fails.  Both arrays are read-only.
    """
    try:
        w, v = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh failed: {exc}") from exc
    # eigh returns ascending order; a stable flip gives descending while
    # preserving solver order inside ties.
    values = np.ascontiguousarray(w[:, ::-1])
    vectors = np.ascontiguousarray(v[:, :, ::-1])
    vectors_ct = _ct(vectors)
    recon_err, scale = _reconstruction_errors(values, vectors, vectors_ct, stack)
    gram = vectors_ct @ vectors
    k, n = values.shape
    gram -= _identity(n)
    ortho_err = np.maximum.reduce(np.abs(gram), axis=(1, 2), initial=0.0)
    # A NaN error compares False, so it fails the test too.
    passed = (recon_err <= EIG_RECON_RTOL * scale) & (ortho_err <= EIG_ORTHO_TOL)
    if np.count_nonzero(passed) != k:
        _check_reconstruction(recon_err, scale)
        bad = np.flatnonzero(~(ortho_err <= EIG_ORTHO_TOL))
        if bad.size:
            raise ConvergenceFailure(f"eigenvectors not orthonormal: {ortho_err[bad[0]]:.3e}")
    values.setflags(write=False)
    vectors.setflags(write=False)
    return values, vectors


def _derived_eigen(h: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The decomposition of f(H) from the pair apply_function kept on it:
    f's values sorted descending (stable, so ties keep H's order) with H's
    eigenvectors permuted to match.  The reconstruction is checked against
    the stored entries; orthonormality is that of H's validated vectors."""
    fvals, vectors = h._spectral_pair
    order = np.argsort(-fvals, kind="stable")
    values, vectors = fvals[order], vectors[:, order]
    _check_reconstruction(*_reconstruction_errors(values[None], vectors[None], _ct(vectors[None]),
                                                  h.entries[None]))
    values.setflags(write=False)
    vectors.setflags(write=False)
    return values, vectors


def eig_many(hs: "list[HermitianMatrix]") -> list[EigenSystem]:
    """Eigendecompositions of matrices of any sizes, validated and cached as
    eig() documents, in the order listed.  A matrix with a stack row (a
    segment point, or one decomposed before) reads its decomposition from
    that row (see _row_eigen), and a result of apply_function takes its own
    from its argument's, as a stack of one (see eig).  The other matrices
    go to the solver one stack per size (see eig_stack), in the order their
    sizes first appear, each once however often it is listed, and each
    size's matrices become the rows of one SpectralStack."""
    solve = []
    for h in {id(h): h for h in hs if h._stack is None}.values():
        if h._spectral_pair is not None:
            values, vectors = _derived_eigen(h)
            _as_stack([h], values[None], vectors[None])
        else:
            solve.append(h)
    for dim in dict.fromkeys(h.dim for h in solve):
        same_size = [h for h in solve if h.dim == dim]
        _as_stack(same_size, *eig_stack(np.array([h.entries for h in same_size])))
    return [h._eigen or _row_eigen(h) for h in hs]


def eig(h: HermitianMatrix) -> EigenSystem:
    """Eigendecomposition with eigenvalues sorted in descending order.

    The solver output is validated: reconstruction must match the input to
    ``EIG_RECON_RTOL`` relative to max(1, spectral radius) and the eigenvector
    matrix must be orthonormal entrywise to ``EIG_ORTHO_TOL``.  The result is
    cached on ``h``, so each matrix is decomposed and validated once.  A 0x0
    matrix has the empty decomposition.  A matrix not yet decomposed goes
    to the solver through eig_many, as a stack of one, and becomes that
    SpectralStack's row.

    A matrix with a stack row, a segment point (see segment_matrices) among
    them, is not sent to the solver: its decomposition is its row of the
    stack it was decomposed in, validated there.

    A result R = f(H) of apply_function is not sent to the solver either:
    by the spectral mapping theorem its eigenvalues are f of H's, with H's
    eigenvectors.  The values are sorted descending (stably, so a decreasing
    or non-monotone f pairs them correctly) and the vectors permuted to
    match; the rebuilt matrix must match R's entries to ``EIG_RECON_RTOL``
    as above, or ConvergenceFailure is raised.  The vectors are H's, already
    checked orthonormal.  This decomposition is a stack of one too.
    """
    return h._eigen or eig_many([h])[0]


def spectrum_outside(interval: "Interval", h: HermitianMatrix) -> list[float]:
    """The eigenvalues of H outside the interval (a domain or a working
    interval), descending; [] when the spectrum fits.  The one membership
    rule for spectra: Interval.contains_array, stretch included, asked of
    every eigenvalue of the validated decomposition."""
    values = eig(h).values
    return values[~interval.contains_array(values)].tolist()


def check_spectrum_in_domain(f: "ScalarFunction", h: HermitianMatrix, label: str = "the argument"):
    """SpectrumOutOfDomain, naming H by `label` and listing the offending
    eigenvalues, unless the spectrum of H lies in the domain of f (see
    spectrum_outside)."""
    bad = spectrum_outside(f.domain, h)
    if bad:
        raise SpectrumOutOfDomain(
            f"eigenvalues {bad} of {label} lie outside domain {f.domain} of {f.name}",
            offending=bad,
        )


def map_stack(f: "ScalarFunction", values: np.ndarray,
              vectors: np.ndarray) -> tuple[list[bool], np.ndarray, np.ndarray]:
    """The one formula for f(H), applied to a whole stack of k Hermitian
    matrices from their validated decompositions (values and vectors of
    shapes (k, n) and (k, n, n), as eig_stack returns them).

    Returns (inside, fvals, images).  ``inside[i]`` tells whether the
    spectrum of matrix i lies in f's domain, by the one membership rule
    (see spectrum_outside) asked of every eigenvalue of the stack at once;
    the real line admits every validated spectrum unasked, and a stack all
    inside needs no per-matrix verdict.  ``fvals[i]`` is f of its
    eigenvalues, clipped into the domain, from one eval_array call over
    every matrix inside; a matrix outside gets zeros, so f is never
    evaluated off its domain.
    ``images[i]`` is V f(Lambda) V*, all from one stacked matmul, made
    exactly Hermitian as R/2 + (R/2)* (see _symmetrize); the images are
    read-only.
    """
    domain = f.domain
    # The real line refuses only NaN, which no validated decomposition holds.
    ends = None if domain.whole_line else domain.contains_array(values)
    if ends is None or np.count_nonzero(ends) == ends.size:  # all inside: no per-matrix verdict
        inside, fvals = [True] * len(values), f.eval_array(domain.clip(values))
    else:
        inside = ends.all(axis=1).tolist()
        fvals = np.zeros(values.shape)
        fvals[inside] = f.eval_array(domain.clip(values[inside]))
    images = _symmetrize((vectors * fvals[:, None, :]) @ _ct(vectors))
    images.setflags(write=False)
    return inside, fvals, images


def _mapped(f: "ScalarFunction", stack: SpectralStack) -> tuple:
    """The cache tuple (f, inside, images, results) of a stack under f (see
    SpectralStack): map_stack's verdicts and images, and the result of
    every row, a read-only view of its image keeping a reference to (f of
    the row's eigenvalues, its eigenvectors)."""
    inside, fvals, images = map_stack(f, stack.values, stack.vectors)
    results = [_wrap({"entries": image, "_spectral_pair": pair})
               for image, pair in zip(images, zip(fvals, stack.vectors))]
    return f, inside, images, results


def apply_function(f: "ScalarFunction", h: HermitianMatrix) -> HermitianMatrix:
    """Functional calculus f(H) via the spectral decomposition, by map_stack.

    Every decomposed matrix is a row of a SpectralStack (see eig), and a
    matrix not yet decomposed is decomposed first.  The first call for f on
    any row maps the whole stack and builds every row's result in that one
    pass; each call then gets its own row's domain verdict and result, and
    a repeated call on one row returns the same result object.  A spectrum
    outside the domain of f raises SpectrumOutOfDomain from
    check_spectrum_in_domain, naming H's offending eigenvalues.

    The result is a read-only view of its image, with no finiteness check:
    an f that overflows is judged where its image is used.  It keeps a
    reference to (f of H's eigenvalues, H's eigenvectors), which eig()
    turns into its decomposition, checked, if it is ever asked for; a
    result that is never decomposed pays nothing more.
    """
    if h._stack is None:
        eig(h)
    stack, i = h._stack
    mapped = stack.mapped
    if mapped is None or mapped[0] is not f:
        mapped = stack.mapped = _mapped(f, stack)
    _, inside, _, results = mapped
    if not inside[i]:
        check_spectrum_in_domain(f, h)
    return results[i]


def _stacked_images(points: "list[HermitianMatrix]", images: "list[np.ndarray]") -> np.ndarray:
    """``images``, the entries of apply_function's images of ``points``
    under one f, as one (k, n, n) array to read.  Points consecutive in one
    stack and in its order have their images in consecutive rows of the
    stack's image array, and the result is a view of those rows; for other
    points it is a new array."""
    first, last = points[0]._stack, points[-1]._stack  # set by apply_function
    if first[0] is last[0]:
        mapped = first[0].mapped[2]
        if images[0].base is mapped and last[1] - first[1] == len(points) - 1:
            return mapped[first[1]:last[1] + 1]
    return np.array(images)


@lru_cache(maxsize=1024)
def norm_spec(spec: str, dim: int) -> tuple[str, int | float | None]:
    """The one rule for what a norm spec string means at size dim x dim:
    "kyfan:k" is ("kyfan", k) for an integer 1 <= k <= dim, "schatten:p" is
    ("schatten", p) for a finite p >= 1 and "operator" is ("operator", None).
    Anything else raises BadSpec naming the spec.  Memoized, as a norm chain
    reads each spec once for each of its terms; a spec that raises is not
    kept, so it raises each time it is read."""
    kind, _, arg = spec.partition(":")
    try:
        if kind == "kyfan" and 1 <= int(arg) <= dim:
            return kind, int(arg)
        if kind == "schatten" and 1.0 <= float(arg) < np.inf:
            return kind, float(arg)
    except ValueError:  # a number field that does not parse
        pass
    if spec == "operator":
        return kind, None
    raise BadSpec(f"norm spec {spec!r} is not kyfan:k (k an integer in 1..{dim}), "
                  f"schatten:p (p finite, >= 1) or operator")


def ui_norms(h: HermitianMatrix, specs: "list[str]") -> list[float]:
    """The unitarily invariant norms of H that spec strings name (see
    norm_spec), in the order listed, read off one pass over its singular
    values: kyfan:k is the k-th entry of their running sum, the sum of the
    k largest; schatten:p is (sum of sigma_i^p)^(1/p); operator is the
    largest, kyfan:1.  Every spec is read before any norm is formed, so a
    malformed one raises BadSpec naming the first such spec.  A value that
    overflows (Schatten 1e308 on a singular value above 1), or a Schatten
    power sum of a nonzero H below the smallest normal float, raises BadSpec
    naming the first spec to give one, and numpy warns of nothing."""
    parsed = [norm_spec(spec, h.dim) for spec in specs]
    sigma = eig(h).singular_values
    values = []
    with np.errstate(over="ignore", under="ignore"):
        partial = np.cumsum(sigma).tolist()  # kyfan:k is partial[k - 1]
        for spec, (kind, arg) in zip(specs, parsed):
            if kind == "kyfan":
                value = partial[arg - 1]
            elif kind == "schatten":
                power_sum = np.sum(sigma ** arg)
                if power_sum < np.finfo(float).tiny and np.any(sigma):
                    raise BadSpec(f"norm spec {spec!r} underflows on a {h.dim}x{h.dim} matrix")
                value = float(power_sum ** (1.0 / arg))
            else:
                value = partial[0] if h.dim else 0.0
            if not math.isfinite(value):
                raise BadSpec(f"norm spec {spec!r} gives {value} on a {h.dim}x{h.dim} matrix")
            values.append(value)
    return values


def ui_norm(h: HermitianMatrix, spec: str) -> float:
    """The unitarily invariant norm of H that a spec string names: the one
    norm of ui_norms, with its BadSpec refusals."""
    return ui_norms(h, [spec])[0]


# -- array literal format ----------------------------------------------------
#
# {"re": grid, "im": grid} with "im" optional (zero when left out).  A grid
# is numbers (no strings) nested to exactly the literal's shape.  A matrix
# literal adds "n" for shape (n, n), a map-factor literal "rows" and "cols";
# a vector literal adds nothing.  In memory, array_to_json writes each grid
# as a read-only float array view, which harness.instance_to_json turns into
# nested lists where an instance leaves the process.

def json_field(obj, key: str, what: str = "instance"):
    """obj[key], or BadParams naming the field when obj, the `what` of a
    replayed instance, lacks it."""
    try:
        return obj[key]
    except (KeyError, TypeError):
        raise BadParams(f"{what} has no field {key!r}") from None


def str_field(obj, key: str, what: str = "instance") -> str:
    """obj[key] as a string; BadParams naming the field otherwise."""
    x = json_field(obj, key, what)
    if not isinstance(x, str):
        raise BadParams(f"{what} field {key!r} is not a string")
    return x


def count_field(obj, key: str, what: str = "instance") -> int:
    """obj[key] as a positive int; BadParams naming the field otherwise."""
    x = json_field(obj, key, what)
    if isinstance(x, bool) or not (isinstance(x, int) and x >= 1):
        raise BadParams(f"{what} field {key!r} is not a positive integer: {x!r}")
    return x


def list_field(obj, key: str, of: type, what: str = "instance") -> list:
    """obj[key] as a list of `of` values; BadParams naming the field otherwise."""
    x = json_field(obj, key, what)
    if not (isinstance(x, list) and all(isinstance(v, of) for v in x)):
        raise BadParams(f"{what} field {key!r} is not a list of {of.__name__}")
    return x


def number_field(obj, key: str, shape: tuple[int, ...], what: str = "instance") -> np.ndarray:
    """obj[key] as a new float array of exactly `shape`; BadParams naming the
    field when it is not numbers (ints, bools or floats) of that shape.
    numpy rounds each int, beyond int64 too, to the nearest float as float()
    does; + 0.0 maps -0.0 to 0.0."""
    try:
        out = np.array(json_field(obj, key, what))  # ValueError: ragged
        if out.shape == shape and (
                out.dtype.kind in "biuf" or all(isinstance(x, (int, float)) for x in out.flat)):
            return out.astype(float, copy=False) + 0.0  # OverflowError: int too large for a float
    except (ValueError, OverflowError):
        pass
    raise BadParams(f"{what} field {key!r} is not a number grid of shape {shape}")


def array_to_json(x: np.ndarray) -> dict:
    """The array literal of a read-only array: "re" and "im" are views of x;
    "im" is left out when x is real."""
    out: dict = {"re": x.real}
    if np.any(x.imag):
        out["im"] = x.imag
    return out


def array_from_json(obj, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The complex array of shape `shape` that an array literal holds.  A
    literal without "re", or with a grid that is not numbers of that shape,
    raises BadParams naming the `what` literal; a NaN or infinite entry
    raises NonFiniteEntries."""
    re = number_field(obj, "re", shape, f"{what} literal")
    im = number_field(obj, "im", shape, f"{what} literal") if obj.get("im") is not None else 0.0
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise NonFiniteEntries(f"{what} entries must be finite, got NaN or infinity")
    return re + 1j * im


def matrix_from_json(obj: dict) -> HermitianMatrix:
    """Load a HermitianMatrix from its literal (see array_from_json)."""
    n = count_field(obj, "n", "matrix literal")
    return HermitianMatrix(array_from_json(obj, (n, n), "matrix"))


def matrix_to_json(h: HermitianMatrix) -> dict:
    """The matrix literal of h, with "re" and "im" read-only views of h's
    entries; "im" is left out when every entry is real."""
    return {"n": h.dim, **array_to_json(h.entries)}
