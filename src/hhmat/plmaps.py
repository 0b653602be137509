"""Positive linear maps between matrix algebras.

Maps are represented structurally by their factors (congruence sums,
pinchings, compressions, identity, and block-diagonal sums of maps), so
application is exact and cheap; no dense superoperator form is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotOrthonormal, TargetDimMismatch
from .matcore import HermitianMatrix, eig, hermitian_from

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
        return {"kind": "compression", "v": _cplx_to_json(self.v)}


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
        return {"kind": "congruence", "factors": [_cplx_to_json(x) for x in self.factors]}


@dataclass(frozen=True, eq=False)
class DiagBlockSum(PositiveLinearMap):
    """Psi(diag(A_1, ..., A_k)) = sum_i Phi_i(A_i) on block-diagonal inputs.

    General inputs are pinched to their diagonal blocks first, which keeps
    the composite a positive linear map.
    """

    maps: tuple[PositiveLinearMap, ...]

    def __post_init__(self):
        maps = tuple(self.maps)
        if not maps:
            raise TargetDimMismatch("need at least one component map")
        m = maps[0].target_dim
        for phi in maps:
            if phi.target_dim != m:
                raise TargetDimMismatch(
                    f"component target dims differ: {phi.target_dim} vs {m}"
                )
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "source_dim", sum(p.source_dim for p in maps))
        object.__setattr__(self, "target_dim", m)

    def apply(self, a: HermitianMatrix) -> HermitianMatrix:
        self._check_source(a)
        acc = np.zeros((self.target_dim, self.target_dim), dtype=complex)
        offset = 0
        for phi in self.maps:
            n_i = phi.source_dim
            block = HermitianMatrix(a.entries[offset:offset + n_i, offset:offset + n_i])
            acc += phi.apply(block).entries
            offset += n_i
        return HermitianMatrix(acc)

    def to_jsonable(self) -> dict:
        return {"kind": "diag_block", "maps": [p.to_jsonable() for p in self.maps]}


def apply_map(phi: PositiveLinearMap, a: HermitianMatrix) -> HermitianMatrix:
    return phi.apply(a)


@dataclass(frozen=True)
class UnitalityReport:
    """Classification of Phi(I): Unital, Subunital (0 < Phi(I) <= I), Neither."""

    status: str
    identity_distance: float
    lambda_min: float
    lambda_max: float

    def to_jsonable(self) -> dict:
        return {
            "status": self.status,
            "identity_distance": self.identity_distance,
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
        }


def unitality_status(phi: PositiveLinearMap) -> UnitalityReport:
    """Classify Phi(I) from its one decomposition.  Phi(I) - I has the
    eigenvalues lambda_i - 1, so its operator norm, the identity distance,
    is the larger of |lambda_max - 1| and |lambda_min - 1|."""
    values = eig(phi.identity_image()).values
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


def diag_block_map(*maps: PositiveLinearMap) -> PositiveLinearMap:
    """Combine maps with a common target into one acting on block diagonals."""
    if len(maps) == 1:
        return maps[0]
    return DiagBlockSum(tuple(maps))


# -- serialization for replay files -------------------------------------------

def _cplx_to_json(x: np.ndarray) -> dict:
    """The literal of a read-only factor: "re" and "im" are views of x, which
    harness.instance_to_json turns into nested lists for JSON; "im" is left
    out when x is real."""
    out = {"rows": x.shape[0], "cols": x.shape[1], "re": x.real}
    if np.any(x.imag):
        out["im"] = x.imag
    return out


def _cplx_from_json(obj: dict) -> np.ndarray:
    re = np.array(obj["re"], dtype=float)
    x = re.astype(complex)
    if obj.get("im") is not None:
        x = x + 1j * np.array(obj["im"], dtype=float)
    return x.reshape(int(obj["rows"]), int(obj["cols"]))


def map_from_json(obj: dict) -> PositiveLinearMap:
    kind = obj["kind"]
    if kind == "identity":
        return IdentityMap(int(obj["n"]))
    if kind == "compression":
        return Compression(_cplx_from_json(obj["v"]))
    if kind == "pinching":
        return Pinching(tuple(tuple(b) for b in obj["blocks"]))
    if kind == "congruence":
        return CongruenceSum(tuple(_cplx_from_json(x) for x in obj["factors"]))
    if kind == "diag_block":
        return DiagBlockSum(tuple(map_from_json(p) for p in obj["maps"]))
    raise TargetDimMismatch(f"unknown map kind {kind!r}")
