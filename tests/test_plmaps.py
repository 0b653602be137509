import json

import numpy as np
import pytest

from conftest import make_rng, random_hermitian_raw, random_psd
from hhmat.errors import BadParams, DimMismatch
from hhmat.harness import make_map
from hhmat.matcore import HermitianMatrix, eig
from hhmat.orders import loewner_leq
from hhmat.plmaps import (
    CongruenceSum,
    IdentityMap,
    factor_from_json,
    factor_to_json,
    map_from_json,
    unitality_status,
)


def _sample_maps(n, rng):
    stacked = np.linalg.qr(rng.standard_normal((2 * n, n))
                           + 1j * rng.standard_normal((2 * n, n)))[0][:, :n]
    return {
        "identity": IdentityMap(n),
        "compression": CongruenceSum((np.linalg.qr(
            rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1)))[0],)),
        "pinching": make_map(f"pinch:1,{n - 1}", n, rng),
        "congruence": CongruenceSum((stacked[:n], stacked[n:])),
    }


class TestApply:
    def test_identity_map(self):
        a = HermitianMatrix([[2.0, 1.0], [1.0, 1.0]])
        assert IdentityMap(2).apply(a) is a

    def test_corner_compression(self):
        a = HermitianMatrix([[2.0, 1.0], [1.0, 1.0]])
        phi = CongruenceSum((np.array([[1.0], [0.0]], dtype=complex),))
        out = phi.apply(a)
        assert out.dim == 1
        assert out.entries[0, 0] == pytest.approx(2.0)

    def test_resolution_of_identity_congruence(self):
        a = HermitianMatrix([[2.0, 1.0], [1.0, 1.0]])
        x = np.eye(2, dtype=complex) / np.sqrt(2.0)
        phi = CongruenceSum((x, x))
        np.testing.assert_allclose(phi.apply(a).entries, a.entries, atol=1e-14)

    def test_pinching_is_the_congruence_sum_of_its_block_projections(self):
        rng = make_rng(0)
        a = random_hermitian_raw(4, rng)
        phi = make_map("pinch:2,2", 4, rng)
        assert isinstance(phi, CongruenceSum) and phi.to_jsonable()["kind"] == "congruence"
        expected = np.zeros_like(a.entries)
        for block in (slice(0, 2), slice(2, 4)):
            expected[block, block] = a.entries[block, block]
        assert phi.apply(a).entries.tobytes() == expected.tobytes()

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            IdentityMap(3).apply(HermitianMatrix(np.eye(2)))


class TestUnitality:
    def test_identity_unital(self):
        assert unitality_status(IdentityMap(3).identity_image()).identity_distance == 0.0

    def test_compression_unital(self):
        rng = make_rng(1)
        v = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0][:, :2]
        report = unitality_status(CongruenceSum((v,)).identity_image())
        assert report.identity_distance <= 1e-14  # V*V = I to rounding

    def test_halved_identity_subunital(self):
        # Phi(I) = I/4: 0 < Phi(I) <= I
        phi = CongruenceSum((np.eye(2, dtype=complex) / 2.0,))
        report = unitality_status(phi.identity_image())
        assert report.lambda_max == pytest.approx(0.25, abs=1e-12)
        assert report.lambda_min == pytest.approx(0.25, abs=1e-12)
        assert report.identity_distance == pytest.approx(0.75, abs=1e-12)

    def test_inflating_congruence_neither(self):
        # Phi(I) = 2I is above I
        phi = CongruenceSum((np.sqrt(2.0) * np.eye(2, dtype=complex),))
        report = unitality_status(phi.identity_image())
        assert report.lambda_max == pytest.approx(2.0, abs=1e-12)
        assert report.identity_distance == pytest.approx(1.0, abs=1e-12)

    def test_rank_deficient_identity_image_neither(self):
        # Phi(I) PSD but singular: not strictly positive
        phi = CongruenceSum((np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),))
        report = unitality_status(phi.identity_image())
        assert (report.lambda_min, report.lambda_max) == (0.0, 1.0)
        assert report.identity_distance == 1.0

    def test_identity_distance_is_the_operator_norm_of_the_gap(self):
        rng = make_rng(9)
        for trial in range(40):
            n = int(rng.integers(1, 6))
            s = float(rng.uniform(0.2, 1.5)) if trial % 2 else 1.0
            phi = CongruenceSum((s * _sample_maps(max(n, 2), rng)["congruence"].factors[0],))
            gap = phi.identity_image().entries - np.eye(phi.target_dim)
            expected = float(np.max(np.abs(np.linalg.eigvalsh(gap))))
            report = unitality_status(phi.identity_image())
            assert report.identity_distance == pytest.approx(expected, abs=1e-14)

    def test_one_solver_call(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        maps = _sample_maps(4, make_rng(10))
        for phi in maps.values():
            image = phi.identity_image()
            calls.clear()
            unitality_status(image)
            assert len(calls) == 1


class TestMapProperties:
    def test_positivity_on_random_psd(self):
        rng = make_rng(4)
        maps = _sample_maps(4, rng)
        for name, phi in maps.items():
            for _ in range(125):
                a = random_psd(phi.source_dim, rng)
                out = phi.apply(a)
                lam_min = float(eig(out).values[-1])
                scale = max(1.0, float(eig(out).values[0]))
                assert lam_min >= -1e-9 * scale, name

    def test_linearity_probe(self):
        rng = make_rng(5)
        for name, phi in _sample_maps(4, rng).items():
            for _ in range(25):
                a = random_hermitian_raw(phi.source_dim, rng)
                b = random_hermitian_raw(phi.source_dim, rng)
                alpha, beta = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
                lhs = phi.apply(alpha * a + beta * b).entries
                rhs = alpha * phi.apply(a).entries + beta * phi.apply(b).entries
                assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs))), name

    def test_kadison_smoke_for_unital_maps(self):
        # Phi(A)^2 <= Phi(A^2) for unital positive maps
        rng = make_rng(6)
        from hhmat.funcat import builtin
        from hhmat.matcore import apply_function
        square = builtin("power", 2)
        maps = _sample_maps(4, rng)
        for name in ("identity", "compression", "pinching", "congruence"):
            phi = maps[name]
            for _ in range(50):
                a = random_hermitian_raw(phi.source_dim, rng)
                lhs = apply_function(square, phi.apply(a))
                rhs = phi.apply(apply_function(square, a))
                assert loewner_leq(lhs, rhs).holds, name


class TestSerialization:
    def test_roundtrip_all_kinds(self):
        rng = make_rng(7)
        maps = _sample_maps(3, rng)
        a = random_hermitian_raw(3, rng)
        for phi in maps.values():
            again = map_from_json(phi.to_jsonable())
            np.testing.assert_allclose(
                again.apply(a).entries, phi.apply(a).entries, atol=1e-14)

    @pytest.mark.parametrize("real", [False, True])
    def test_factor_literal_round_trips_bit_for_bit(self, real):
        rng = make_rng(8)
        x = rng.standard_normal((4, 2)) + 1j * (0.0 if real else rng.standard_normal((4, 2)))
        x.flags.writeable = False
        literal = factor_to_json(x)
        assert (literal["rows"], literal["cols"], "im" in literal) == (4, 2, not real)
        for grid in (literal[key] for key in ("re", "im") if key in literal):  # views of x
            assert not grid.flags.writeable and np.shares_memory(grid, x)
        as_json = json.loads(json.dumps({key: value.tolist() if key in ("re", "im") else value
                                         for key, value in literal.items()}))
        for obj in (literal, as_json):
            assert factor_from_json(obj).tobytes() == x.tobytes()
        with pytest.raises(BadParams, match=r"factor literal field 're' is not a number grid "
                                            r"of shape \(3, 2\)"):
            factor_from_json({**literal, "rows": 3})

    @pytest.mark.parametrize("obj", [{"kind": "diag_block", "maps": []}, {"n": 2},
                                     {"kind": "compression", "v": factor_to_json(np.eye(2, 1))},
                                     {"kind": "pinching", "blocks": [[0], [1]]}])
    def test_unknown_kind_raises_bad_params(self, obj):
        with pytest.raises(BadParams, match="unknown map kind"):
            map_from_json(obj)
