"""Dense Hermitian matrices: construction, eigendecomposition, functional
calculus and the unitarily invariant norm family.

All values are immutable after construction and all operations are pure, so
everything here is safe to call from concurrent workers.  A matrix caches its
own eigendecomposition on first use; two workers racing to fill the cache
compute the same result, so the race is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    BadParams,
    BadSpec,
    ConvergenceFailure,
    ExcessAsymmetryError,
    NonFiniteEntries,
    NonSquareError,
    SpectrumOutOfDomain,
)

if TYPE_CHECKING:  # pragma: no cover
    from .funcat import ScalarFunction

# Relative bound on the skew part of raw input before construction is refused.
ASYMMETRY_RTOL = 1e-10
# Relative bounds for eigendecomposition self-checks.
EIG_RECON_RTOL = 1e-10
EIG_ORTHO_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Square complex matrix with exact Hermitian symmetry.

    The constructor replaces the raw entries by their Hermitian part
    (M + M*)/2, which is exactly Hermitian in floating point, and records how
    far the raw input was from symmetric.  Inputs with a NaN or infinite
    entry, and inputs whose skew part exceeds
    ``ASYMMETRY_RTOL * max(1, max|entry|)``, are rejected.
    """

    entries: np.ndarray
    asymmetry_residual: float = 0.0
    # Filled by eig() on first use; entries are read-only, so it stays valid.
    _eigen: "EigenSystem | None" = field(default=None, init=False, repr=False)
    # Set by apply_function on f(H): (f of H's eigenvalues, H's eigenvectors),
    # from which eig() derives this matrix's decomposition without a solver.
    _spectral_pair: "tuple[np.ndarray, np.ndarray] | None" = field(
        default=None, init=False, repr=False)

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
        herm.flags.writeable = False
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
        return HermitianMatrix(self.entries + other.entries)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix(self.entries - other.entries)

    def __mul__(self, scalar: float) -> "HermitianMatrix":
        return HermitianMatrix(self.entries * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "HermitianMatrix":
        return HermitianMatrix(self.entries / float(scalar))

    def __neg__(self) -> "HermitianMatrix":
        return HermitianMatrix(-self.entries)

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


@dataclass(frozen=True)
class NormSpec:
    """Selector for a unitarily invariant norm.

    kind is one of "kyfan" (needs k), "schatten" (needs p >= 1) or "operator".
    """

    kind: str
    k: int | None = None
    p: float | None = None

    @staticmethod
    def ky_fan(k: int) -> "NormSpec":
        return NormSpec("kyfan", k=k)

    @staticmethod
    def schatten(p: float) -> "NormSpec":
        return NormSpec("schatten", p=float(p))

    @staticmethod
    def operator() -> "NormSpec":
        return NormSpec("operator")

    @staticmethod
    def parse(text: str) -> "NormSpec":
        """Parse "kyfan:K", "schatten:P" or "operator"; BadSpec otherwise."""
        head, _, arg = text.partition(":")
        try:
            if head == "kyfan":
                return NormSpec.ky_fan(int(arg))
            if head == "schatten":
                return NormSpec.schatten(float(arg))
        except ValueError:  # a number field that does not parse
            pass
        if head == "operator" and not arg:
            return NormSpec.operator()
        raise BadSpec(f"cannot parse norm spec {text!r}")

    def __str__(self) -> str:
        if self.kind == "kyfan":
            return f"kyfan:{self.k}"
        if self.kind == "schatten":
            return f"schatten:{self.p:g}"
        return "operator"


def hermitian_from(raw) -> HermitianMatrix:
    """Build a HermitianMatrix from any square complex grid, symmetrizing."""
    return HermitianMatrix(np.asarray(raw, dtype=complex))


def _exact_hermitian(entries: np.ndarray, spectral_pair=None) -> HermitianMatrix:
    """Wrap a square complex array that is exactly Hermitian by construction.

    The constructor's exactness test always passes on such an array, so it
    is skipped, and so is the copy: the array itself becomes the read-only
    entries, with residual 0.  Only for (R + R*)/2 and for real combinations
    of exactly Hermitian matrices (see segment_matrices); anything else goes
    through the constructor.  ``spectral_pair`` is apply_function's
    (values, vectors) of the result, kept as a reference for eig().
    """
    entries.flags.writeable = False
    h = object.__new__(HermitianMatrix)
    object.__setattr__(h, "entries", entries)
    object.__setattr__(h, "asymmetry_residual", 0.0)
    object.__setattr__(h, "_eigen", None)
    object.__setattr__(h, "_spectral_pair", spectral_pair)
    return h


def segment_matrices(a: HermitianMatrix, b: HermitianMatrix, ts) -> list[HermitianMatrix]:
    """The matrices tA + (1-t)B for t in ts, built in one array expression.

    Multiplying by a real scalar and adding act on real and imaginary parts
    separately and commute with conjugation, so these matrices are exactly
    Hermitian, as A and B are.
    """
    t = np.asarray(ts, dtype=float)[:, None, None]
    return [_exact_hermitian(m) for m in t * a.entries + (1.0 - t) * b.entries]


def _ct(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return np.conj(np.swapaxes(stack, -1, -2))


def _check_reconstruction(values: np.ndarray, vectors: np.ndarray, stack: np.ndarray):
    """Raise ConvergenceFailure unless each vectors[i] diag(values[i])
    vectors[i]* matches stack[i] to EIG_RECON_RTOL relative to max(1, its
    spectral radius)."""
    # initial=0.0 leaves every maximum of absolute values unchanged and
    # gives 0 for 0x0 matrices, whose decomposition is empty.
    scale = np.maximum(1.0, np.max(np.abs(values), axis=1, initial=0.0))
    recon = (vectors * values[:, None, :]) @ _ct(vectors) - stack
    recon_err = np.max(np.abs(recon), axis=(1, 2), initial=0.0)
    # Negated <= so that a NaN error (a NaN from the solver) fails too.
    bad = np.flatnonzero(~(recon_err <= EIG_RECON_RTOL * scale))
    if bad.size:
        i = bad[0]
        raise ConvergenceFailure(
            f"eigendecomposition reconstruction error {recon_err[i]:.3e} "
            f"exceeds {EIG_RECON_RTOL:.0e} * {scale[i]:.3e}"
        )


def eig_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a (k, n, n) stack of Hermitian matrices in one solver
    call.  Returns (values, vectors) of shapes (k, n) and (k, n, n), with
    eigenvalues descending and ``values[i, j]`` paired with ``vectors[i, :, j]``.

    Every matrix is validated as eig() documents: reconstruction to
    ``EIG_RECON_RTOL`` relative to max(1, its spectral radius) and
    orthonormality to ``EIG_ORTHO_TOL``.  The first matrix that fails raises
    ConvergenceFailure.
    """
    try:
        w, v = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh failed: {exc}") from exc
    # eigh returns ascending order; a stable flip gives descending while
    # preserving solver order inside ties.
    values = np.ascontiguousarray(w[:, ::-1].astype(float))
    vectors = np.ascontiguousarray(v[:, :, ::-1])
    n = values.shape[1]
    _check_reconstruction(values, vectors, stack)
    ortho_err = np.max(np.abs(_ct(vectors) @ vectors - np.eye(n)), axis=(1, 2),
                       initial=0.0)
    bad = np.flatnonzero(~(ortho_err <= EIG_ORTHO_TOL))
    if bad.size:
        raise ConvergenceFailure(f"eigenvectors not orthonormal: {ortho_err[bad[0]]:.3e}")
    return values, vectors


def _derived_eigen(h: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The decomposition of f(H) from the pair apply_function kept on it:
    f's values sorted descending (stable, so ties keep H's order) with H's
    eigenvectors permuted to match.  The reconstruction is checked against
    the stored entries; orthonormality is that of H's validated vectors."""
    fvals, vectors = h._spectral_pair
    order = np.argsort(-fvals, kind="stable")
    values, vectors = fvals[order], vectors[:, order]
    _check_reconstruction(values[None], vectors[None], h.entries[None])
    values.flags.writeable = False
    vectors.flags.writeable = False
    return values, vectors


def eig_many(hs: "list[HermitianMatrix]") -> list[EigenSystem]:
    """Eigendecompositions of same-size matrices, validated and cached as
    eig() documents.  A result of apply_function takes its decomposition
    from its argument's (see eig); the other matrices not yet decomposed go
    to the solver together, as one stack (see eig_stack)."""
    todo = [h for h in hs if h._eigen is None]
    found = [(h, *_derived_eigen(h)) for h in todo if h._spectral_pair is not None]
    solve = [h for h in todo if h._spectral_pair is None]
    if solve:
        values, vectors = eig_stack(np.stack([h.entries for h in solve]))
        values.flags.writeable = False
        vectors.flags.writeable = False
        found += zip(solve, values, vectors)
    for h, w, v in found:
        object.__setattr__(h, "_eigen", EigenSystem(values=w, vectors=v))
    return [h._eigen for h in hs]


def eig(h: HermitianMatrix) -> EigenSystem:
    """Eigendecomposition with eigenvalues sorted in descending order.

    The solver output is validated: reconstruction must match the input to
    ``EIG_RECON_RTOL`` relative to max(1, spectral radius) and the eigenvector
    matrix must be orthonormal entrywise to ``EIG_ORTHO_TOL``.  The result is
    cached on ``h``, so each matrix is decomposed and validated once.  A 0x0
    matrix has the empty decomposition.

    A result R = f(H) of apply_function is not sent to the solver: by the
    spectral mapping theorem its eigenvalues are f of H's, with H's
    eigenvectors.  The values are sorted descending (stably, so a decreasing
    or non-monotone f pairs them correctly) and the vectors permuted to
    match; the rebuilt matrix must match R's entries to ``EIG_RECON_RTOL``
    as above, or ConvergenceFailure is raised.  The vectors are H's, already
    checked orthonormal.
    """
    if h._eigen is not None:
        return h._eigen
    return eig_many([h])[0]


def spectrum_outside(f: "ScalarFunction", h: HermitianMatrix) -> np.ndarray:
    """The eigenvalues of H outside the domain of f, descending; empty when
    the spectrum fits (endpoints are stretched by a small relative
    tolerance, see funcat.Interval.contains)."""
    values = eig(h).values
    return values[~f.domain.contains_array(values)]


def check_spectrum_in_domain(f: "ScalarFunction", h: HermitianMatrix, label: str = "the argument"):
    """SpectrumOutOfDomain, naming H by `label` and listing the offending
    eigenvalues, unless the spectrum of H lies in the domain of f (see
    spectrum_outside)."""
    bad = spectrum_outside(f, h).tolist()
    if bad:
        raise SpectrumOutOfDomain(
            f"eigenvalues {bad} of {label} lie outside domain {f.domain} of {f.name}",
            offending=bad,
        )


def apply_function(f: "ScalarFunction", h: HermitianMatrix) -> HermitianMatrix:
    """Functional calculus f(H) via the spectral decomposition.

    Requires the spectrum of H to lie in the domain of f; SpectrumOutOfDomain
    otherwise (see check_spectrum_in_domain).

    The result keeps a reference to (f of H's eigenvalues, H's eigenvectors),
    which eig() turns into its decomposition, checked, if it is ever asked
    for; a result that is never decomposed pays nothing more.
    """
    check_spectrum_in_domain(f, h)
    es = eig(h)
    fvals = f.eval_array(f.domain.clip(es.values))
    result = (es.vectors * fvals) @ es.vectors.conj().T
    # (R + R*)/2 is exactly Hermitian whatever the rounding in R.
    result += result.conj().T
    result /= 2.0
    return _exact_hermitian(result, (fvals, es.vectors))


def singular_values(h: HermitianMatrix) -> np.ndarray:
    """Singular values of a Hermitian matrix: |eigenvalues|, descending."""
    return np.sort(np.abs(eig(h).values))[::-1]


def ui_norm(h: HermitianMatrix, spec: NormSpec) -> float:
    """Evaluate a unitarily invariant norm of a Hermitian matrix.

    kyfan:k  sum of the k largest singular values
    schatten:p  (sum of sigma_i^p)^(1/p), p >= 1
    operator  largest singular value
    """
    n = h.dim
    if spec.kind == "kyfan":
        if spec.k is None or not (1 <= int(spec.k) <= n):
            raise BadSpec(f"Ky Fan k must be in 1..{n}, got {spec.k}")
        sigma = singular_values(h)
        return float(np.sum(sigma[: int(spec.k)]))
    if spec.kind == "schatten":
        if spec.p is None or spec.p < 1.0:
            raise BadSpec(f"Schatten p must be >= 1, got {spec.p}")
        sigma = singular_values(h)
        return float(np.sum(sigma ** spec.p) ** (1.0 / spec.p))
    if spec.kind == "operator":
        return float(singular_values(h)[0]) if n else 0.0
    raise BadSpec(f"unknown norm kind {spec.kind!r}")


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
    return hermitian_from(array_from_json(obj, (n, n), "matrix"))


def matrix_to_json(h: HermitianMatrix) -> dict:
    """The matrix literal of h, with "re" and "im" read-only views of h's
    entries; "im" is left out when every entry is real."""
    return {"n": h.dim, **array_to_json(h.entries)}
