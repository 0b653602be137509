import numpy as np
import pytest

from conftest import (
    conjugate_by,
    eig2x2,
    make_rng,
    random_hermitian_raw,
    random_psd,
    random_unitary,
)
from hhmat.errors import DimMismatch
from hhmat.matcore import HermitianMatrix, eig, ui_norm
from hhmat.orders import (
    DEFAULT_TOL,
    eigen_dominance,
    loewner_leq,
    unitary_witness,
    weak_majorization,
)
from hhmat.plmaps import CongruenceSum

SEGMENT_INTEGRAL_CUBE = HermitianMatrix([[31 / 6, 5 / 2], [5 / 2, 4 / 3]])
ENDPOINT_AVG_CUBE = HermitianMatrix([[7.0, 4.0], [4.0, 5 / 2]])


class TestLoewner:
    def test_rounding_in_large_operands_is_not_a_violation(self):
        # b rebuilds a from its eigensystem; the gap is rounding, about 1e-16
        # of entries near 1e8, and is judged on that scale
        g = make_rng(0).standard_normal((4, 4))
        a = HermitianMatrix(1e8 * (g + g.T) / 2.0)
        es = eig(a)
        b = HermitianMatrix((es.vectors * es.values) @ es.vectors.conj().T)
        verdict = loewner_leq(a, b)
        assert verdict.margin < -DEFAULT_TOL
        assert verdict.holds

    def test_zero_below_identity(self):
        verdict = loewner_leq(HermitianMatrix(np.zeros((2, 2))), HermitianMatrix(np.eye(2)))
        assert verdict.holds and verdict.margin == pytest.approx(1.0, abs=1e-14)

    def test_cube_gap_fails(self):
        # gap [[11/6, 3/2], [3/2, 7/6]] has determinant -1/9 < 0
        verdict = loewner_leq(SEGMENT_INTEGRAL_CUBE, ENDPOINT_AVG_CUBE)
        assert not verdict.holds
        lam_min_oracle = eig2x2([[11 / 6, 3 / 2], [3 / 2, 7 / 6]])[1]
        assert verdict.margin == pytest.approx(lam_min_oracle, abs=1e-12)
        assert verdict.witness is not None

    def test_reflexive(self):
        h = random_hermitian_raw(3, make_rng(0))
        verdict = loewner_leq(h, h)
        assert verdict.holds and abs(verdict.margin) <= 1e-14

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            loewner_leq(HermitianMatrix(np.eye(2)), HermitianMatrix(np.eye(3)))


class TestEigenDominance:
    def test_diagonal_example(self):
        verdict = eigen_dominance(HermitianMatrix(np.diag([1.0, 0.0])),
                                  HermitianMatrix(np.diag([2.0, 1.0])))
        assert verdict.holds and verdict.margin == pytest.approx(1.0, abs=1e-14)

    def test_fails_at_second_index(self):
        b = HermitianMatrix([[1.0, 1.0], [1.0, -0.5]])
        # quadratic-formula oracle: trace 0.5 and det -1.5 give (1.5, -1.0)
        lam = eig2x2(b.entries)
        np.testing.assert_allclose(lam, [1.5, -1.0], atol=1e-14)
        verdict = eigen_dominance(HermitianMatrix(np.zeros((2, 2))), b)
        assert not verdict.holds
        assert verdict.witness == 1
        assert verdict.margin == pytest.approx(-1.0, abs=1e-12)

    def test_equal_matrices(self):
        h = random_hermitian_raw(4, make_rng(1))
        verdict = eigen_dominance(h, h)
        assert verdict.holds and abs(verdict.margin) <= 1e-12


class TestWeakMajorization:
    def test_entrywise_dominated(self):
        # deficits [0, 1]
        verdict = weak_majorization(HermitianMatrix(np.diag([3.0, 1.0])),
                                    HermitianMatrix(np.diag([3.0, 2.0])))
        assert verdict.holds and verdict.witness is None
        assert verdict.margin == pytest.approx(0.0, abs=1e-14)

    def test_top_sum_exceeds(self):
        # deficits [-1, 1]
        verdict = weak_majorization(HermitianMatrix(np.diag([4.0, 0.0])),
                                    HermitianMatrix(np.diag([3.0, 2.0])))
        assert not verdict.holds
        assert verdict.margin == pytest.approx(-1.0)
        assert verdict.witness == 0

    def test_witness_is_the_index_of_the_smallest_deficit(self):
        # partial sums [3, 6, 6] against [3, 5, 7]: deficits [0, -1, 1]
        verdict = weak_majorization(HermitianMatrix(np.diag([3.0, 3.0, 0.0])),
                                    HermitianMatrix(np.diag([3.0, 2.0, 2.0])))
        assert not verdict.holds
        assert verdict.margin == pytest.approx(-1.0, abs=1e-14)
        assert verdict.witness == 1

    def test_equal_matrices(self):
        h = random_hermitian_raw(5, make_rng(2))
        verdict = weak_majorization(h, h)
        assert verdict.holds
        assert abs(verdict.margin) <= 1e-12


class TestUnitaryWitness:
    def test_aligned_diagonals(self):
        a = HermitianMatrix(np.diag([1.0, 0.0]))
        b = HermitianMatrix(np.diag([2.0, 1.0]))
        u = unitary_witness(a, b)
        assert u is not None
        assert loewner_leq(a, conjugate_by(b, u)).holds

    def test_permutation_case(self):
        a = HermitianMatrix(np.diag([1.0, 0.0]))
        b = HermitianMatrix([[0.0, 0.0], [0.0, 2.0]])
        u = unitary_witness(a, b)
        conj = conjugate_by(b, u)
        np.testing.assert_allclose(conj.entries.real, np.diag([2.0, 0.0]), atol=1e-12)
        assert loewner_leq(a, conj).holds

    def test_no_witness_when_dominance_fails(self):
        a = HermitianMatrix(np.diag([4.0, 0.0]))
        b = HermitianMatrix(np.diag([3.0, 2.0]))
        assert unitary_witness(a, b) is None

    def test_soundness_on_random_dominance_pairs(self):
        rng = make_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = random_hermitian_raw(n, rng)
            # dominating partner: same sorted spectrum plus nonnegative shifts
            # in an unrelated eigenbasis
            shifts = np.sort(rng.uniform(0.0, 2.0, n))[::-1]
            from hhmat.matcore import eig
            values = eig(a).values + shifts
            u0 = random_unitary(n, rng)
            b = HermitianMatrix((u0 * values) @ u0.conj().T)
            u = unitary_witness(a, b)
            assert u is not None
            assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-9
            assert loewner_leq(a, conjugate_by(b, u)).holds


def top_k_frame_sum(h, frame) -> float:
    """Sum of <H x_j, x_j> over the columns x_j of an orthonormal frame: the
    trace of the compression of H to the frame."""
    return CongruenceSum((np.asarray(frame, dtype=complex),)).apply(h).trace


class TestFrameSum:
    """Ky Fan's maximum principle: a k-frame sum of quadratic forms never
    exceeds the sum of the k largest eigenvalues."""

    def test_eigenvector_frame_attains_maximum(self):
        h = HermitianMatrix(np.diag([3.0, 2.0, 1.0]))
        frame = np.eye(3)[:, :2]
        assert top_k_frame_sum(h, frame) == pytest.approx(5.0, abs=1e-13)

    def test_suboptimal_frame(self):
        h = HermitianMatrix(np.diag([3.0, 2.0, 1.0]))
        frame = np.eye(3)[:, 1:]
        assert top_k_frame_sum(h, frame) == pytest.approx(3.0, abs=1e-13)

    def test_never_exceeds_top_k_sum(self):
        rng = make_rng(4)
        from hhmat.matcore import eig
        for _ in range(300):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n + 1))
            h = random_hermitian_raw(n, rng, scale=float(rng.uniform(0.1, 4.0)))
            g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            frame, _ = np.linalg.qr(g)
            value = top_k_frame_sum(h, frame[:, :k])
            bound = float(np.sum(eig(h).values[:k]))
            assert value <= bound + 1e-8 * max(1.0, abs(bound))


def ky_fan_scan(a, b):
    """(weak-majorization verdict, Ky Fan norm margins, per-k agreement of
    the partial-sum verdict with the Ky Fan norm verdict)."""
    psa, psb = np.cumsum(eig(a).values), np.cumsum(eig(b).values)
    scale = max(1.0, float(np.max(np.abs(psa))), float(np.max(np.abs(psb))))
    margins = np.array([ui_norm(b, f"kyfan:{k}") - ui_norm(a, f"kyfan:{k}")
                        for k in range(1, a.dim + 1)])
    agreement = (margins >= -DEFAULT_TOL * scale) == (psb - psa >= -DEFAULT_TOL * scale)
    return weak_majorization(a, b), margins, agreement


class TestKyFanScan:
    """On PSD matrices the Ky Fan k-norm is the k-th eigenvalue partial sum,
    so the norm comparisons the norm-chain checker makes agree with weak
    majorization; on indefinite ones they need not."""

    def test_ordered_diagonals_agree(self):
        # partial sums [1, 2] against [2, 2.5]
        verdict, margins, agreement = ky_fan_scan(HermitianMatrix(np.diag([1.0, 1.0])),
                                                  HermitianMatrix(np.diag([2.0, 0.5])))
        assert verdict.holds and agreement.all()
        np.testing.assert_allclose(margins, [1.0, 0.5])
        assert verdict.margin == pytest.approx(0.5)

    def test_equal_matrices(self):
        h = random_psd(3, make_rng(5))
        assert ky_fan_scan(h, h)[2].all()

    def test_consistent_failure(self):
        report, margins, agreement = ky_fan_scan(HermitianMatrix(np.diag([4.0, 0.0])),
                                                 HermitianMatrix(np.diag([3.0, 2.0])))
        assert not report.holds
        assert margins[0] < 0
        assert agreement.all()  # both views fail at k=1 together

    def test_indefinite_inputs_can_disagree(self):
        # partial sums say diag(0, -3) is majorized by I; the k=1 norms disagree
        _, margins, agreement = ky_fan_scan(HermitianMatrix(np.diag([0.0, -3.0])),
                                            HermitianMatrix(np.eye(2)))
        assert margins[0] == pytest.approx(-2.0)
        assert not agreement.all()

    def test_agreement_on_random_psd_pairs(self):
        rng = make_rng(6)
        for _ in range(150):
            n = int(rng.integers(2, 6))
            a, b = random_psd(n, rng), random_psd(n, rng)
            assert ky_fan_scan(a, b)[2].all()


class TestOrderChain:
    def test_loewner_implies_dominance_implies_majorization(self):
        rng = make_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            a = random_hermitian_raw(n, rng)
            b = a + random_psd(n, rng)
            assert loewner_leq(a, b).holds
            assert eigen_dominance(a, b).holds
            assert weak_majorization(a, b).holds

    def test_dominance_implies_majorization_without_loewner(self):
        rng = make_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = random_hermitian_raw(n, rng)
            shifts = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
            from hhmat.matcore import eig
            u0 = random_unitary(n, rng)
            b = HermitianMatrix((u0 * (eig(a).values + shifts)) @ u0.conj().T)
            assert eigen_dominance(a, b).holds
            assert weak_majorization(a, b).holds
