"""Positive linear maps between matrix algebras.

Maps are represented structurally by their factors (congruence sums,
pinchings, compressions and the identity), so application is exact and
cheap; no dense superoperator form is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, DimMismatch, NotOrthonormal
from .matcore import (HermitianMatrix, array_from_json, array_to_json, count_field, eig,
                      hermitian_from, json_field, list_field)

UNITAL_TOL = 1e-10
SUBUNITAL_POSITIVITY_TOL = 1e-12
ISOMETRY_TOL = 1e-8


class PositiveLinearMap:
    """Base class; subclasses implement apply() on Hermitian inputs."""

    source_dim: int
    target_dim: int

    def apply(self, a: HermitianMatrix) -> HermitianMatrix:
        raise NotImplementedError

    def identity_image(self) -> HermitianMatrix:
        return self.apply(hermitian_from(np.eye(self.source_dim)))

    def _check_source(self, a: HermitianMatrix):
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
        self._check_source(a)
        return a

    def to_jsonable(self) -> dict:
        return {"kind": "identity", "n": self.n}


@dataclass(frozen=True, eq=False)
class Compression(PositiveLinearMap):
    """A -> V* A V for an isometry V (columns orthonormal)."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        n, m = v.shape
        err = float(np.max(np.abs(v.conj().T @ v - np.eye(m))))
        if err > ISOMETRY_TOL:
            raise NotOrthonormal(f"compression columns not orthonormal: {err:.3e}")
        v.flags.writeable = False
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "source_dim", n)
        object.__setattr__(self, "target_dim", m)

    def apply(self, a: HermitianMatrix) -> HermitianMatrix:
        self._check_source(a)
        return HermitianMatrix(self.v.conj().T @ a.entries @ self.v)

    def to_jsonable(self) -> dict:
        return {"kind": "compression", "v": factor_to_json(self.v)}


@dataclass(frozen=True, eq=False)
class Pinching(PositiveLinearMap):
    """Block-diagonal truncation along a partition of the index set."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        flat = sorted(i for b in blocks for i in b)
        n = len(flat)
        if flat != list(range(n)) or any(len(b) == 0 for b in blocks):
            raise DimMismatch(f"blocks {blocks} are not a partition of 0..{n - 1}")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "source_dim", n)
        object.__setattr__(self, "target_dim", n)

    def apply(self, a: HermitianMatrix) -> HermitianMatrix:
        self._check_source(a)
        out = np.zeros_like(a.entries)
        for b in self.blocks:
            idx = np.ix_(b, b)
            out[idx] = a.entries[idx]
        return HermitianMatrix(out)

    def to_jsonable(self) -> dict:
        return {"kind": "pinching", "blocks": [list(b) for b in self.blocks]}


@dataclass(frozen=True, eq=False)
class CongruenceSum(PositiveLinearMap):
    """A -> sum_i X_i* A X_i for factors X_i of shape n x m."""

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
        self._check_source(a)
        acc = np.zeros((self.target_dim, self.target_dim), dtype=complex)
        for x in self.factors:
            acc += x.conj().T @ a.entries @ x
        return HermitianMatrix(acc)

    def to_jsonable(self) -> dict:
        return {"kind": "congruence", "factors": [factor_to_json(x) for x in self.factors]}


@dataclass(frozen=True)
class UnitalityReport:
    """Classification of Phi(I): Unital, Subunital (0 < Phi(I) <= I), Neither."""

    status: str
    identity_distance: float
    lambda_min: float
    lambda_max: float


def unitality_status(phi: PositiveLinearMap | HermitianMatrix) -> UnitalityReport:
    """Classify Phi(I), given the map or Phi(I) itself (for a sum of maps,
    the sum of their identity images), from its one decomposition.
    Phi(I) - I has the eigenvalues lambda_i - 1, so its operator norm, the
    identity distance, is the larger of |lambda_max - 1| and |lambda_min - 1|."""
    image = phi if isinstance(phi, HermitianMatrix) else phi.identity_image()
    values = eig(image).values
    lam_min, lam_max = float(values[-1]), float(values[0])
    dist = max(abs(lam_max - 1.0), abs(lam_min - 1.0))
    if dist <= UNITAL_TOL:
        status = "Unital"
    elif lam_max <= 1.0 + UNITAL_TOL and lam_min > SUBUNITAL_POSITIVITY_TOL:
        status = "Subunital"
    else:
        status = "Neither"
    return UnitalityReport(status=status, identity_distance=dist,
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
    if kind == "compression":
        return Compression(factor_from_json(json_field(obj, "v", what)))
    if kind == "pinching":
        return Pinching(tuple(tuple(b) for b in list_field(obj, "blocks", list, what)))
    if kind == "congruence":
        return CongruenceSum(tuple(map(factor_from_json, list_field(obj, "factors", dict, what))))
    raise BadParams(f"unknown map kind {kind!r}")
