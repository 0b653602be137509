"""Shared helpers: independent small oracles and random generators."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from hhmat import hhcheck
from hhmat.matcore import SPECTRUM_SHRINK, EigenSystem, HermitianMatrix
from hhmat.plmaps import vector_state


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    # normalize phases so the factorization is unique
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def check_jensen(f, phi, a: HermitianMatrix, x):
    """Jensen's inequality f(<Phi(A)x, x>) <= <Phi(f(A))x, x> as the jensen
    suite judges it: bourin's comparison into 1x1 matrices, for the
    functional plmaps.vector_state(Phi, x)."""
    return hhcheck.check_bourin_t2(f, [vector_state(phi, x)], [a])


def random_hermitian_raw(n: int, rng: np.random.Generator, scale: float = 1.0) -> HermitianMatrix:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix(scale * (g + g.conj().T) / 2.0)


def random_hermitian_reference(n: int, omega: float, Omega: float,
                               rng: np.random.Generator) -> HermitianMatrix:
    """matcore.random_hermitian's draw built from the full eigensystem: the
    same random numbers, with the GUE matrix's eigenvalues w moved into the
    window one by one and the matrix rebuilt as V diag(w') V*."""
    width = Omega - omega
    lo = omega + SPECTRUM_SHRINK * width * rng.uniform(0.1, 1.0)
    hi = Omega - SPECTRUM_SHRINK * width * rng.uniform(0.1, 1.0)
    if n == 1:
        return HermitianMatrix([[rng.uniform(lo, hi)]])
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    span = float(w[-1] - w[0])
    if span < 1e-12:
        w = np.linspace(lo, hi, n)
    else:
        w = lo + (w - w[0]) * ((hi - lo) / span)
    return HermitianMatrix((v * w) @ v.conj().T)


def random_psd(n: int, rng: np.random.Generator, scale: float = 1.0) -> HermitianMatrix:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix(scale * (g @ g.conj().T) / n)


def conjugate_by(h: HermitianMatrix, u: np.ndarray) -> HermitianMatrix:
    """U* H U for a square matrix U (unitary in all uses here)."""
    return HermitianMatrix(u.conj().T @ h.entries @ u)


def reconstruct(es: EigenSystem) -> np.ndarray:
    """vectors @ diag(values) @ vectors*, the matrix es decomposes."""
    return (es.vectors * es.values) @ es.vectors.conj().T


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
