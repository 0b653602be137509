"""Shared helpers: independent small oracles and random generators."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from hhmat.matcore import HermitianMatrix, hermitian_from


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    # normalize phases so the factorization is unique
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian_raw(n: int, rng: np.random.Generator, scale: float = 1.0) -> HermitianMatrix:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_from(scale * (g + g.conj().T) / 2.0)


def random_psd(n: int, rng: np.random.Generator, scale: float = 1.0) -> HermitianMatrix:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_from(scale * (g @ g.conj().T) / n)


def wide_factor_map(tmp_path: Path) -> str:
    """A map descriptor for a unital congruence from C^4 to C^3, which no
    3x3 input fits, so every t4 trial at n=3 fails with DimMismatch."""
    path = tmp_path / "factor.json"
    path.write_text(json.dumps([{"rows": 4, "cols": 3, "re": np.eye(4, 3).tolist()}]))
    return f"congruence:{path}"


def eig2x2(m) -> tuple[float, float]:
    """Quadratic-formula eigenvalues of a 2x2 Hermitian matrix, descending.

    Independent of the numpy eigensolver: uses only trace and determinant.
    """
    m = np.asarray(m, dtype=complex)
    tr = float((m[0, 0] + m[1, 1]).real)
    det = float((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real)
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return (tr + disc) / 2.0, (tr - disc) / 2.0
