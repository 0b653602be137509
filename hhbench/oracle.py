"""Independent recomputation of a trial's judged margin with plain numpy.

Nothing here imports hhmat: instances are read straight from their JSON
form, matrix functions use ``np.linalg.eigh``, the segment integral uses a
fixed 64-node Gauss-Legendre rule, and the chord-ratio constant for exp has
a closed form.  Only f = exp is supported, which is all the workloads use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The checkers' judgement tolerance (hhmat's orders.DEFAULT_TOL).
JUDGE_TOL = 1e-9
# A program margin agrees with the oracle when they differ by at most this
# much relative to max(1, largest |eigenvalue| or norm of the terms whose
# comparison sets the margin).
MARGIN_RTOL = 1e-10
GAUSS_NODES = 64


@dataclass(frozen=True)
class Check:
    index: int
    status: str
    program_margin: float | None
    oracle_margin: float
    scale: float
    ok: bool
    detail: str = ""


def _cplx(obj: dict) -> np.ndarray:
    x = np.array(obj["re"], dtype=float).astype(complex)
    if obj.get("im") is not None:
        x = x + 1j * np.array(obj["im"], dtype=float)
    return x


def _herm(x: np.ndarray) -> np.ndarray:
    return (x + x.conj().T) / 2.0


def _apply_map(obj: dict, h: np.ndarray) -> np.ndarray:
    kind = obj["kind"]
    if kind == "identity":
        return h
    if kind == "congruence":
        factors = [_cplx(x) for x in obj["factors"]]
        return _herm(sum(x.conj().T @ h @ x for x in factors))
    raise ValueError(f"oracle has no map kind {kind!r}")


def _exp_of(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return _herm((v * np.exp(w)) @ v.conj().T)


def _segment_integral(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x, w = np.polynomial.legendre.leggauss(GAUSS_NODES)
    ts, ws = (x + 1.0) / 2.0, w / 2.0
    return _herm(sum(wi * _exp_of(t * a + (1.0 - t) * b) for t, wi in zip(ts, ws)))


def exp_chord_ratio(lo: float, hi: float) -> float:
    """max over [lo, hi] of chord(t) / exp(t), where chord joins the
    endpoint values.  The derivative vanishes where chord(t) equals the
    chord's slope s, at t = lo + 1 - exp(lo) / s."""
    s = (math.exp(hi) - math.exp(lo)) / (hi - lo)
    t = min(max(lo + 1.0 - math.exp(lo) / s, lo), hi)
    return (math.exp(lo) + s * (t - lo)) / math.exp(t)


def _eigs_desc(h: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(h)[::-1]


def _ui_norm(h: np.ndarray, spec: str) -> float:
    sigma = np.sort(np.abs(np.linalg.eigvalsh(h)))[::-1]
    head, _, arg = spec.partition(":")
    if head == "kyfan":
        return float(np.sum(sigma[: int(arg)]))
    if head == "schatten":
        p = float(arg)
        return float(np.sum(sigma ** p) ** (1.0 / p))
    if head == "operator":
        return float(sigma[0])
    raise ValueError(f"oracle has no norm {spec!r}")


def _is_psd(h: np.ndarray) -> bool:
    w = np.linalg.eigvalsh(h)
    return w[0] >= -JUDGE_TOL * max(1.0, float(np.max(np.abs(w))))


def _t4(inst: dict) -> tuple[float, bool, float]:
    a, b = _cplx(inst["a"]), _cplx(inst["b"])
    phi = inst["map"]
    pa, pb = _apply_map(phi, a), _apply_map(phi, b)
    alpha = exp_chord_ratio(*inst["interval"])
    lhs = _apply_map(phi, _segment_integral(a, b))
    rhs = alpha * 0.5 * (_exp_of(pa) + _exp_of(pb))
    gap = np.linalg.eigvalsh(_herm(rhs - lhs))
    margin = float(gap[0])
    holds = margin >= -JUDGE_TOL * max(1.0, float(np.max(np.abs(gap))))
    scale = max(1.0, float(np.max(np.abs(_eigs_desc(lhs)))), float(np.max(np.abs(_eigs_desc(rhs)))))
    return margin, holds, scale


def _norm_chain(inst: dict) -> tuple[float, bool, float]:
    a, b = _cplx(inst["a"]), _cplx(inst["b"])
    phi = inst["map"]
    pa, pb = _apply_map(phi, a), _apply_map(phi, b)
    alpha = exp_chord_ratio(*inst["interval"])
    terms = (
        _exp_of((pa + pb) / 2.0),
        _apply_map(phi, _segment_integral(a, b)),
        alpha * 0.5 * (_exp_of(pa) + _exp_of(pb)),
    )
    psd = [_is_psd(t) for t in terms]
    comparisons = []  # (margin, scale) of each judged comparison
    for spec in inst["specs"]:
        for i, j in ((0, 1), (1, 2)):
            if psd[i] and psd[j]:
                lhs, rhs = _ui_norm(terms[i], spec), _ui_norm(terms[j], spec)
                comparisons.append((rhs - lhs, max(1.0, lhs, rhs)))
    holds = all(m >= -JUDGE_TOL * scale for m, scale in comparisons)
    # the margin is compared on the scale of the comparison that sets it
    margin, scale = min(comparisons)
    return margin, holds, scale


def _bourin(inst: dict) -> tuple[float, bool, float]:
    arg = val = 0.0
    for phi, obj in zip(inst["maps"], inst["a_list"]):
        h = _cplx(obj)
        arg = arg + _apply_map(phi, h)
        val = val + _apply_map(phi, _exp_of(h))
    la, lb = _eigs_desc(_exp_of(arg)), _eigs_desc(_herm(val))
    gaps = lb - la
    margin = float(np.min(gaps))
    scale = max(1.0, float(np.max(np.abs(la))), float(np.max(np.abs(lb))))
    return margin, margin >= -JUDGE_TOL * scale, scale


_MARGINS = {"t4": _t4, "norm_chain": _norm_chain, "bourin": _bourin}


def check(index: int, inst: dict, status: str, margin: float | None) -> Check:
    """Recompute the margin of one trial and compare it with the program's.

    ``ok`` needs both the verdict and the margin to agree.
    """
    if inst["f"] != "exp":
        raise ValueError(f"oracle supports f=exp only, got {inst['f']!r}")
    oracle_margin, holds, scale = _MARGINS[inst["theorem"]](inst)
    expected = "pass" if holds else "fail"
    if status != expected:
        return Check(index, status, margin, oracle_margin, scale, False,
                     f"verdict {status!r}, oracle says {expected!r}")
    if margin is None or not abs(margin - oracle_margin) <= MARGIN_RTOL * scale:
        return Check(index, status, margin, oracle_margin, scale, False,
                     f"margin {margin!r} differs from oracle {oracle_margin!r} "
                     f"by more than {MARGIN_RTOL:g} * {scale:.4g}")
    return Check(index, status, margin, oracle_margin, scale, True)
