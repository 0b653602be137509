"""Order relations between Hermitian matrices, and the one tolerance rule.

Three nested orders: the Loewner order (difference is PSD), entrywise
dominance of descending eigenvalue vectors, which holds exactly when
a <= U* b U for some unitary U (Weyl's monotonicity principle; Bhatia,
Matrix Analysis, Ch. III), and weak majorization of the partial sums.

Every comparison in the package, these orders, the trace, Jensen and norm
comparisons of the checkers, and their map hypotheses (Phi(I) = I and
Phi(I) <= I) alike, reduces to a signed margin and a magnitude scale of its
operands and is judged by judge(): it holds when
margin >= -tolerance(scale) = -DEFAULT_TOL * max(1, scale).  The same
slack judges spectrum membership (Interval.contains_array admits points
within tolerance(|end|) beyond a closed end) and funcat.validate_flags'
grid tests.  That rule and its one tolerance are written nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEntries
from .matcore import HermitianMatrix, check_same_dim, eig

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of a single comparison, as judge() gives it.

    margin is signed: the smallest eigenvalue of the gap (Loewner), the
    smallest entrywise surplus (dominance), the smallest partial-sum deficit
    (weak majorization), or rhs - lhs of a scalar or norm comparison.
    holds is margin >= -tolerance(scale), scale being the magnitude of the
    operands.  witness, kept only when the comparison fails, locates the
    failure.
    """

    holds: bool
    margin: float
    witness: object | None = None


def tolerance(scale: float) -> float:
    """The slack of a comparison whose operands have magnitude ``scale``:
    DEFAULT_TOL * max(1, scale), infinite for an infinite scale."""
    return DEFAULT_TOL * max(1.0, scale)


def judge(margin: float, scale: float, witness=None) -> OrderVerdict:
    """The one tolerance rule: margin >= -tolerance(scale).  A margin that
    is not finite is no verdict: NonFiniteEntries."""
    if not math.isfinite(margin):
        raise NonFiniteEntries(f"the margin {margin} is not finite")
    holds = bool(margin >= -tolerance(scale))
    return OrderVerdict(holds=holds, margin=margin, witness=None if holds else witness)


def loewner_leq(a: HermitianMatrix, b: HermitianMatrix) -> OrderVerdict:
    """Is a <= b in the Loewner order: is b - a PSD to a tolerance scaled by the
    larger of the gap's spectral radius and the largest entry of |a| and |b|?"""
    check_same_dim(a, b)
    gap = eig(b - a)
    scale = max(gap.spectral_radius, float(np.max(np.abs(a.entries))),
                float(np.max(np.abs(b.entries))))
    return judge(float(gap.values[-1]), scale, witness=gap.vectors[:, -1])


def eigen_dominance(a: HermitianMatrix, b: HermitianMatrix) -> OrderVerdict:
    """Is lambda_j(a) <= lambda_j(b) for every j (descending order)?"""
    check_same_dim(a, b)
    la, lb = eig(a).values, eig(b).values
    gaps = lb - la
    j = int(np.argmin(gaps))
    scale = max(float(np.max(np.abs(la))), float(np.max(np.abs(lb))))
    return judge(float(gaps[j]), scale, witness=j)


def weak_majorization(a: HermitianMatrix, b: HermitianMatrix) -> OrderVerdict:
    """Is every top-k eigenvalue partial sum of a at most that of b?  The
    margin is the smallest deficit; the witness is its 0-based index."""
    check_same_dim(a, b)
    psa = np.cumsum(eig(a).values)
    psb = np.cumsum(eig(b).values)
    deficits = psb - psa
    i = int(np.argmin(deficits))
    scale = max(float(np.max(np.abs(psa))), float(np.max(np.abs(psb))))
    return judge(float(deficits[i]), scale, witness=i)


def unitary_witness(a: HermitianMatrix, b: HermitianMatrix) -> np.ndarray | None:
    """A unitary U with a <= U* b U, or None when eigenvalue dominance fails:
    the constructive form of eigen_dominance, which the checkers judge.

    Pairing eigenvectors by descending eigenvalue gives U = V_b V_a*; then
    U* b U = V_a diag(lambda(b)) V_a*, which dominates a exactly when the
    sorted eigenvalues do.  Any orthonormal choice inside degenerate
    eigenspaces works since only the sorted values matter.
    """
    check_same_dim(a, b)
    if not eigen_dominance(a, b).holds:
        return None
    va = eig(a).vectors
    vb = eig(b).vectors
    return vb @ va.conj().T
