"""Positive linear maps between matrix algebras.

A map is the identity or a congruence sum A -> sum_i X_i* A X_i, the Kraus
form every positive linear map used here takes (Choi, Linear Algebra Appl.
10, 1975), so application is exact and cheap; no dense superoperator form
is kept.  A compression A -> V* A V to an isometry V is the one-factor sum
(V,); a pinching A -> sum_b P_b A P_b is the sum of its block projections.
No map is judged at construction: whether one is unital or subunital is
read off its identity image Phi(I) by the checkers
(hhcheck._map_case_reasons), so a factor that is not an isometry, or
overlapping projections, make a map whose hypotheses fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, DimMismatch
from .matcore import (HermitianMatrix, _exact_hermitian, _hermitian_part, array_from_json,
                      array_to_json, count_field, eig, list_field)


class PositiveLinearMap:
    """Base class; subclasses implement apply() on Hermitian inputs."""

    source_dim: int
    target_dim: int

    def apply(self, a: HermitianMatrix) -> HermitianMatrix:
        raise NotImplementedError

    def identity_image(self) -> HermitianMatrix:
        return self.apply(_exact_hermitian(np.eye(self.source_dim, dtype=complex)))

    def check_source(self, a: HermitianMatrix):
        if a.dim != self.source_dim:
            raise DimMismatch(f"map expects dim {self.source_dim}, got {a.dim}")

    def to_jsonable(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class IdentityMap(PositiveLinearMap):
    n: int

    def __post_init__(self):
        object.__setattr__(self, "source_dim", self.n)
        object.__setattr__(self, "target_dim", self.n)

    def apply(self, a: HermitianMatrix) -> HermitianMatrix:
        self.check_source(a)
        return a

    def to_jsonable(self) -> dict:
        return {"kind": "identity", "n": self.n}


@dataclass(frozen=True, eq=False)
class CongruenceSum(PositiveLinearMap):
    """A -> sum_i X_i* A X_i for factors X_i of shape n x m; one factor V
    with orthonormal columns is the compression A -> V* A V."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        factors = tuple(np.asarray(x, dtype=complex) for x in self.factors)
        if not factors:
            raise DimMismatch("congruence sum needs at least one factor")
        n, m = factors[0].shape
        for x in factors:
            if x.shape != (n, m):
                raise DimMismatch(f"factor shapes differ: {x.shape} vs {(n, m)}")
            x.flags.writeable = False
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "source_dim", n)
        object.__setattr__(self, "target_dim", m)

    def apply(self, a: HermitianMatrix) -> HermitianMatrix:
        self.check_source(a)
        acc = np.zeros((self.target_dim, self.target_dim), dtype=complex)
        for x in self.factors:
            acc += x.conj().T @ a.entries @ x
        return _hermitian_part(acc)

    def to_jsonable(self) -> dict:
        return {"kind": "congruence", "factors": [factor_to_json(x) for x in self.factors]}


@dataclass(frozen=True)
class UnitalityReport:
    """The extreme eigenvalues of Phi(I) and its operator-norm distance to I."""

    identity_distance: float
    lambda_min: float
    lambda_max: float


def unitality_status(image: HermitianMatrix) -> UnitalityReport:
    """Measure an identity image Phi(I) (for a sum of maps, the sum of their
    identity images) from its one decomposition.  Phi(I) - I has the
    eigenvalues lambda_i - 1, so its operator norm, the identity distance,
    is the larger of |lambda_max - 1| and |lambda_min - 1|."""
    values = eig(image).values
    lam_min, lam_max = float(values[-1]), float(values[0])
    return UnitalityReport(identity_distance=max(abs(lam_max - 1.0), abs(lam_min - 1.0)),
                           lambda_min=lam_min, lambda_max=lam_max)


# -- serialization for replay files -------------------------------------------

def factor_to_json(x: np.ndarray) -> dict:
    """The factor literal of a read-only factor: its array literal (see
    matcore.array_to_json) with "rows" and "cols"."""
    return {"rows": x.shape[0], "cols": x.shape[1], **array_to_json(x)}


def factor_from_json(obj) -> np.ndarray:
    """The factor a factor literal holds (see matcore.array_from_json)."""
    shape = (count_field(obj, "rows", "factor literal"), count_field(obj, "cols", "factor literal"))
    return array_from_json(obj, shape, "factor")


def map_from_json(obj) -> PositiveLinearMap:
    """Load a map literal; one without a field its kind needs, or with a
    field of the wrong type or shape, raises BadParams naming the field."""
    if not isinstance(obj, dict):
        raise BadParams(f"map literal {obj!r} is not an object")
    kind = obj.get("kind")
    what = f"{kind} map literal"
    if kind == "identity":
        return IdentityMap(count_field(obj, "n", what))
    if kind == "congruence":
        return CongruenceSum(tuple(map(factor_from_json, list_field(obj, "factors", dict, what))))
    raise BadParams(f"unknown map kind {kind!r}")
