"""Order relations between Hermitian matrices, and the one tolerance rule.

Three nested orders: the Loewner order (difference is PSD), entrywise
dominance of descending eigenvalue vectors, and weak majorization of the
eigenvalue partial sums.

Every comparison in the package, these orders and the scalar, trace, norm
and PSD comparisons of the checkers alike, reduces to a signed margin and a
magnitude scale of its operands and is judged by judge(): it holds when
margin >= -tol * max(1, scale).  That rule is written nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch
from .matcore import HermitianMatrix, eig

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of a single comparison, as judge() gives it.

    margin is signed: the smallest eigenvalue of the gap (Loewner), the
    smallest entrywise surplus (dominance), or rhs - lhs of a scalar or norm
    comparison.  holds is margin >= -tol * max(1, scale), scale being the
    magnitude of the operands.  witness, kept only when the comparison
    fails, locates the failure.
    """

    holds: bool
    margin: float
    witness: object | None = None


def judge(margin: float, scale: float, tol: float = DEFAULT_TOL, witness=None) -> OrderVerdict:
    """The one tolerance rule: margin >= -tol * max(1, scale)."""
    holds = bool(margin >= -tol * max(1.0, scale))
    return OrderVerdict(holds=holds, margin=margin, witness=None if holds else witness)


@dataclass(frozen=True)
class MajorizationReport:
    """Partial-sum comparison of two descending eigenvalue vectors."""

    partial_sums_a: np.ndarray
    partial_sums_b: np.ndarray
    deficits: np.ndarray
    holds: bool

    @property
    def margin(self) -> float:
        return float(np.min(self.deficits))


def _check_same_dim(a: HermitianMatrix, b: HermitianMatrix):
    if a.dim != b.dim:
        raise DimMismatch(f"dimensions differ: {a.dim} vs {b.dim}")


def loewner_leq(a: HermitianMatrix, b: HermitianMatrix, tol: float = DEFAULT_TOL) -> OrderVerdict:
    """Is a <= b in the Loewner order, i.e. is b - a PSD up to tolerance?"""
    _check_same_dim(a, b)
    gap = eig(b - a)
    return judge(float(gap.values[-1]), gap.spectral_radius, tol, witness=gap.vectors[:, -1])


def eigen_dominance(a: HermitianMatrix, b: HermitianMatrix) -> OrderVerdict:
    """Is lambda_j(a) <= lambda_j(b) for every j (descending order)?"""
    _check_same_dim(a, b)
    la, lb = eig(a).values, eig(b).values
    gaps = lb - la
    j = int(np.argmin(gaps))
    scale = max(float(np.max(np.abs(la))), float(np.max(np.abs(lb))))
    return judge(float(gaps[j]), scale, witness=j)


def weak_majorization(a: HermitianMatrix, b: HermitianMatrix) -> MajorizationReport:
    """Compare all top-k eigenvalue partial sums of a against b."""
    _check_same_dim(a, b)
    psa = np.cumsum(eig(a).values)
    psb = np.cumsum(eig(b).values)
    deficits = psb - psa
    scale = max(float(np.max(np.abs(psa))), float(np.max(np.abs(psb))))
    holds = judge(float(np.min(deficits)), scale).holds
    for arr in (psa, psb, deficits):
        arr.flags.writeable = False
    return MajorizationReport(partial_sums_a=psa, partial_sums_b=psb, deficits=deficits, holds=holds)


def unitary_witness(a: HermitianMatrix, b: HermitianMatrix) -> np.ndarray | None:
    """A unitary U with a <= U* b U, or None when eigenvalue dominance fails.

    Pairing eigenvectors by descending eigenvalue gives U = V_b V_a*; then
    U* b U = V_a diag(lambda(b)) V_a*, which dominates a exactly when the
    sorted eigenvalues do.  Any orthonormal choice inside degenerate
    eigenspaces works since only the sorted values matter.
    """
    _check_same_dim(a, b)
    if not eigen_dominance(a, b).holds:
        return None
    va = eig(a).vectors
    vb = eig(b).vectors
    return vb @ va.conj().T
