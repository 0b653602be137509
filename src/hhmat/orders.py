"""Order relations between Hermitian matrices.

Three nested orders: the Loewner order (difference is PSD), entrywise
dominance of descending eigenvalue vectors, and weak majorization of the
eigenvalue partial sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch
from .matcore import HermitianMatrix, eig

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of a single order comparison.

    margin is signed: the smallest eigenvalue of the gap (Loewner) or the
    smallest entrywise surplus (dominance).  holds is margin >= -tol * scale
    with scale = max(1, magnitude of the operands).
    """

    holds: bool
    margin: float
    witness: object | None = None


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
    margin = float(gap.values[-1])
    scale = max(1.0, gap.spectral_radius)
    holds = margin >= -tol * scale
    witness = None if holds else gap.vectors[:, -1]
    return OrderVerdict(holds=holds, margin=margin, witness=witness)


def eigen_dominance(a: HermitianMatrix, b: HermitianMatrix, tol: float = DEFAULT_TOL) -> OrderVerdict:
    """Is lambda_j(a) <= lambda_j(b) for every j (descending order)?"""
    _check_same_dim(a, b)
    la, lb = eig(a).values, eig(b).values
    gaps = lb - la
    j = int(np.argmin(gaps))
    margin = float(gaps[j])
    scale = max(1.0, float(np.max(np.abs(la))), float(np.max(np.abs(lb))))
    holds = margin >= -tol * scale
    return OrderVerdict(holds=holds, margin=margin, witness=None if holds else j)


def weak_majorization(a: HermitianMatrix, b: HermitianMatrix, tol: float = DEFAULT_TOL) -> MajorizationReport:
    """Compare all top-k eigenvalue partial sums of a against b."""
    _check_same_dim(a, b)
    psa = np.cumsum(eig(a).values)
    psb = np.cumsum(eig(b).values)
    deficits = psb - psa
    scale = max(1.0, float(np.max(np.abs(psa))), float(np.max(np.abs(psb))))
    holds = bool(np.min(deficits) >= -tol * scale)
    for arr in (psa, psb, deficits):
        arr.flags.writeable = False
    return MajorizationReport(partial_sums_a=psa, partial_sums_b=psb, deficits=deficits, holds=holds)


def unitary_witness(a: HermitianMatrix, b: HermitianMatrix, tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """A unitary U with a <= U* b U, or None when eigenvalue dominance fails.

    Pairing eigenvectors by descending eigenvalue gives U = V_b V_a*; then
    U* b U = V_a diag(lambda(b)) V_a*, which dominates a exactly when the
    sorted eigenvalues do.  Any orthonormal choice inside degenerate
    eigenspaces works since only the sorted values matter.
    """
    _check_same_dim(a, b)
    if not eigen_dominance(a, b, tol).holds:
        return None
    va = eig(a).vectors
    vb = eig(b).vectors
    return vb @ va.conj().T
