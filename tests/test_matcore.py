import json
import math

import numpy as np
import pytest

from conftest import (
    conjugate_by,
    eig2x2,
    make_rng,
    random_hermitian_raw,
    random_psd,
    random_unitary,
    reconstruct,
)
from hhmat import funcat, matcore
from hhmat.errors import (
    BadParams,
    BadSpec,
    ConvergenceFailure,
    ExcessAsymmetryError,
    NonFiniteEntries,
    NonSquareError,
    SpectrumOutOfDomain,
)
from hhmat.matcore import (
    HermitianMatrix,
    NormSpec,
    apply_function,
    array_from_json,
    array_to_json,
    eig,
    hermitian_from,
    matrix_from_json,
    matrix_to_json,
    segment_matrices,
    ui_norm,
)


class TestConstruction:
    def test_hermitian_input_kept_verbatim(self):
        h = hermitian_from([[2.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(h.entries, np.array([[2, 1], [1, 1]], dtype=complex))
        assert h.asymmetry_residual == 0.0

    def test_zero_matrix(self):
        h = hermitian_from(np.zeros((2, 2)))
        assert h.asymmetry_residual == 0.0
        assert h.trace == 0.0

    def test_complex_hermitian_fixed_point(self):
        raw = np.array([[1.0, 1j], [-1j, 1.0]])
        h = hermitian_from(raw)
        np.testing.assert_array_equal(h.entries, raw)

    def test_small_asymmetry_symmetrized_and_recorded(self):
        raw = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        h = hermitian_from(raw)
        assert 0.0 < h.asymmetry_residual < 1e-11
        np.testing.assert_array_equal(h.entries, h.entries.conj().T)

    def test_excess_asymmetry_rejected(self):
        with pytest.raises(ExcessAsymmetryError):
            hermitian_from([[0.0, 1.0], [0.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            hermitian_from([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(NonFiniteEntries):
            eig(hermitian_from([[bad, 0], [0, 1]]))

    def test_entries_immutable(self):
        h = hermitian_from(np.eye(2))
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0


class TestEig:
    def test_diagonal_sorted_descending(self):
        es = eig(hermitian_from(np.diag([1.0, 3.0, 2.0])))
        np.testing.assert_allclose(es.values, [3.0, 2.0, 1.0], atol=1e-14)

    def test_two_by_two_against_quadratic_formula(self):
        h = hermitian_from([[1.5, 0.5], [0.5, 0.5]])
        expected = eig2x2(h.entries)  # (2 +- sqrt(2)) / 2
        np.testing.assert_allclose(eig(h).values, expected, atol=1e-13)
        np.testing.assert_allclose(expected, [(2 + math.sqrt(2)) / 2, (2 - math.sqrt(2)) / 2])

    def test_identity_spectrum(self):
        es = eig(hermitian_from(np.eye(4)))
        np.testing.assert_allclose(es.values, np.ones(4), atol=1e-14)

    def test_reconstruction_and_orthonormality_random(self):
        rng = make_rng(42)
        for trial in range(1000):
            n = int(rng.integers(1, 13))
            h = random_hermitian_raw(n, rng, scale=float(rng.uniform(0.1, 10.0)))
            es = eig(h)
            assert np.all(np.diff(es.values) <= 1e-14)
            scale = max(1.0, es.spectral_radius)
            assert np.max(np.abs(reconstruct(es) - h.entries)) <= 1e-10 * scale
            assert np.max(np.abs(es.vectors.conj().T @ es.vectors - np.eye(n))) <= 1e-10


    @staticmethod
    def _patch_eigh(monkeypatch, spoil):
        """Make np.linalg.eigh return spoil(values, vectors), both copies."""
        eigh = np.linalg.eigh

        def spoiled(stack):
            w, v = eigh(stack)
            w, v = w.copy(), v.copy()
            spoil(w, v)
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", spoiled)

    def test_nan_eigenvalue_fails_the_reconstruction_check(self, monkeypatch):
        def spoil(w, v):
            w[..., 0] = np.nan

        self._patch_eigh(monkeypatch, spoil)
        with pytest.raises(ConvergenceFailure, match="reconstruction error nan"):
            eig(random_hermitian_raw(3, make_rng(5)))

    def test_nan_eigenvector_fails_the_orthonormality_check(self, monkeypatch):
        # Skip the reconstruction check, which the NaN would fail first.
        monkeypatch.setattr(matcore, "_check_reconstruction", lambda *args: None)

        def spoil(w, v):
            v[..., 0, 0] = np.nan

        self._patch_eigh(monkeypatch, spoil)
        with pytest.raises(ConvergenceFailure, match="not orthonormal: nan"):
            eig(random_hermitian_raw(3, make_rng(5)))

    def test_empty_matrix_has_the_empty_decomposition(self):
        es = eig(HermitianMatrix(np.zeros((0, 0))))
        assert es.values.shape == (0,)
        assert es.vectors.shape == (0, 0)
        assert es.spectral_radius == 0.0


def _exactly_hermitian(m: np.ndarray) -> bool:
    # The constructor's own exactness test.
    return bool((m == m.conj().T).all())


class TestExactHermitianByConstruction:
    """Node matrices and apply_function results skip the constructor's
    exactness test; these check that the test would always pass on them."""

    def test_segment_matrices_are_exactly_hermitian(self):
        rng = make_rng(21)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            scale = float(10.0 ** rng.uniform(-6, 6))
            a = random_hermitian_raw(n, rng, scale=scale)
            b = random_hermitian_raw(n, rng, scale=float(rng.uniform(0.1, 10.0)))
            ts = rng.uniform(-0.5, 1.5, size=int(rng.integers(1, 9)))
            for t, m in zip(ts, segment_matrices(a, b, ts)):
                assert _exactly_hermitian(m.entries)
                assert m.asymmetry_residual == 0.0 and not m.entries.flags.writeable
                # the values the constructor would have kept, bit for bit
                expected = HermitianMatrix(t * a.entries + (1.0 - t) * b.entries)
                assert expected.asymmetry_residual == 0.0
                np.testing.assert_array_equal(m.entries, expected.entries)

    def test_apply_function_results_are_exactly_hermitian(self):
        rng = make_rng(22)
        fs = [funcat.builtin(name) for name in ("exp", "identity", "cube")]
        fs.append(funcat.builtin("power", 2.5))
        for trial in range(300):
            n = int(rng.integers(1, 9))
            h = random_psd(n, rng, scale=float(rng.uniform(0.1, 3.0)))  # inside every domain
            out = apply_function(fs[trial % len(fs)], h)
            assert _exactly_hermitian(out.entries)
            assert out.asymmetry_residual == 0.0 and not out.entries.flags.writeable


class TestApplyFunction:
    def test_identity_function_is_noop(self):
        rng = make_rng(1)
        h = random_hermitian_raw(5, rng)
        out = apply_function(funcat.builtin("identity"), h)
        np.testing.assert_allclose(out.entries, h.entries, atol=1e-12)

    def test_cube_of_midpoint_matches_fixed_value(self):
        a = hermitian_from([[2.0, 1.0], [1.0, 1.0]])
        b = hermitian_from([[1.0, 0.0], [0.0, 0.0]])
        mid = (a + b) / 2.0
        out = apply_function(funcat.builtin("cube"), mid)
        np.testing.assert_allclose(
            out.entries.real, [[17 / 4, 7 / 4], [7 / 4, 3 / 4]], atol=1e-13)

    def test_square_on_diagonal(self):
        out = apply_function(funcat.builtin("power", 2), hermitian_from(np.diag([-1.0, 2.0])))
        np.testing.assert_allclose(out.entries.real, np.diag([1.0, 4.0]), atol=1e-13)

    def test_spectrum_out_of_domain(self):
        h = hermitian_from(np.diag([-1.0, 2.0]))
        with pytest.raises(SpectrumOutOfDomain) as err:
            apply_function(funcat.builtin("cube"), h)
        assert any(x < 0 for x in err.value.offending)

    def test_spectrum_outside_lists_the_offending_eigenvalues(self):
        h = hermitian_from(np.diag([-1.0, 2.0, -3.0]))
        cube = funcat.builtin("cube")  # domain [0, inf)
        assert matcore.spectrum_outside(cube, h).tolist() == [-1.0, -3.0]
        assert matcore.spectrum_outside(funcat.builtin("exp"), h).size == 0
        with pytest.raises(SpectrumOutOfDomain) as err:
            apply_function(cube, h)
        assert err.value.offending == [-1.0, -3.0]
        assert str(err.value) == ("eigenvalues [-1.0, -3.0] of the argument lie outside "
                                  "domain [0, inf] of cube")

    def test_spectral_mapping_property(self):
        rng = make_rng(7)
        fs = [funcat.builtin("exp"), funcat.builtin("power", 2), funcat.builtin("affine", -1.5, 0.25)]
        for trial in range(60):
            f = fs[trial % len(fs)]
            h = random_hermitian_raw(int(rng.integers(1, 7)), rng)
            image = eig(apply_function(f, h)).values
            direct = np.sort(f.eval_array(eig(h).values))[::-1]
            np.testing.assert_allclose(image, direct, atol=1e-9 * max(1.0, np.max(np.abs(direct))))

    def test_conjugation_equivariance(self):
        rng = make_rng(11)
        f = funcat.builtin("exp")
        for _ in range(30):
            n = int(rng.integers(2, 7))
            h = random_hermitian_raw(n, rng)
            u = random_unitary(n, rng)
            lhs = apply_function(f, conjugate_by(h, u)).entries
            rhs = (u.conj().T @ apply_function(f, h).entries @ u)
            scale = max(1.0, float(np.max(np.abs(rhs))))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def _with_spectrum(values, rng) -> HermitianMatrix:
    u = random_unitary(len(values), rng)
    return hermitian_from((u * np.asarray(values, dtype=float)) @ u.conj().T)


class TestDecompositionOfFunctionValues:
    """eig of f(H) comes from H's decomposition, not from the solver."""

    @pytest.mark.parametrize("desc, spectrum", [
        ("exp", [1.9, 1.2, 1.2, 0.3, -0.8, -1.5]),
        # decreasing on (0, inf): the order of H's eigenvalues reverses
        ("inverse", [4.0, 2.5, 1.0, 1.0, 0.5, 0.125]),
        # not monotone: the spectrum crosses 0 and the squares interleave
        ("power:2", [1.5, 0.7, 0.2, -0.3, -1.2, -1.6]),
    ])
    def test_matches_a_fresh_solver_decomposition(self, desc, spectrum):
        rng = make_rng(31)
        f = funcat.from_descriptor(desc)
        for _ in range(20):
            h = _with_spectrum(spectrum, rng)
            out = apply_function(f, h)
            es = eig(out)
            scale = max(1.0, es.spectral_radius)
            fresh = np.linalg.eigvalsh(out.entries)[::-1]
            assert np.max(np.abs(es.values - fresh)) <= 1e-12 * scale
            assert np.all(np.diff(es.values) <= 0.0)
            # each value sits with its own vector
            assert np.max(np.abs(reconstruct(es) - out.entries)) <= 1e-12 * scale
            assert np.max(np.abs(out.entries @ es.vectors - es.vectors * es.values)) <= 1e-12 * scale
            # H's vectors, permuted: no solver call made them
            hv = eig(h).vectors
            assert all(any(np.array_equal(col, hv[:, j]) for j in range(h.dim))
                       for col in es.vectors.T)
            assert not es.values.flags.writeable and not es.vectors.flags.writeable

    def test_is_built_once_and_reused(self, monkeypatch):
        calls = []
        derive = matcore._derived_eigen
        monkeypatch.setattr(matcore, "_derived_eigen", lambda h: calls.append(h) or derive(h))
        out = apply_function(funcat.builtin("exp"), random_hermitian_raw(4, make_rng(32)))
        assert calls == []  # nothing is built until the decomposition is asked for
        assert matcore.eig_many([out])[0] is eig(out)
        assert calls == [out]

    def test_altered_entries_fail_the_reconstruction_check(self):
        out = apply_function(funcat.builtin("exp"), random_hermitian_raw(4, make_rng(33)))
        altered = out.entries.copy()
        altered[0, 0] += 1e-6
        object.__setattr__(out, "entries", altered)
        with pytest.raises(ConvergenceFailure, match="reconstruction"):
            eig(out)
        assert out._eigen is None

    def test_matrices_built_from_results_go_to_the_solver(self):
        f = funcat.builtin("exp")
        out = apply_function(f, random_hermitian_raw(3, make_rng(34)))
        for other in (out + out, 2.0 * out, out - out, HermitianMatrix(out.entries)):
            assert other._spectral_pair is None
            fresh = np.linalg.eigvalsh(other.entries)[::-1]
            np.testing.assert_allclose(eig(other).values, fresh, atol=1e-12)


class TestNorms:
    def test_ky_fan_example(self):
        h = hermitian_from(np.diag([3.0, 1.0, -2.0]))
        assert ui_norm(h, NormSpec.ky_fan(2)) == pytest.approx(5.0, abs=1e-13)

    def test_trace_norm_example(self):
        h = hermitian_from(np.diag([3.0, 1.0, -2.0]))
        assert ui_norm(h, NormSpec.schatten(1)) == pytest.approx(6.0, abs=1e-13)

    def test_operator_norm_example(self):
        h = hermitian_from(np.diag([3.0, 1.0, -2.0]))
        assert ui_norm(h, NormSpec.operator()) == pytest.approx(3.0, abs=1e-13)

    def test_bad_specs(self):
        h = hermitian_from(np.eye(3))
        with pytest.raises(BadSpec):
            ui_norm(h, NormSpec.ky_fan(4))
        with pytest.raises(BadSpec):
            ui_norm(h, NormSpec.ky_fan(0))
        with pytest.raises(BadSpec):
            ui_norm(h, NormSpec.schatten(0.5))
        with pytest.raises(BadSpec):
            ui_norm(h, NormSpec("frobenius"))
        with pytest.raises(BadSpec):
            NormSpec.parse("nuclear:1")
        for text in ("kyfan:abc", "kyfan:1.5", "kyfan:", "schatten:x", "operator:2"):
            with pytest.raises(BadSpec, match="cannot parse norm spec"):
                NormSpec.parse(text)

    def test_parse_roundtrip(self):
        for text in ("kyfan:2", "schatten:1", "schatten:2", "operator"):
            assert str(NormSpec.parse(text)) == text

    def test_unitary_invariance(self):
        rng = make_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            h = random_hermitian_raw(n, rng, scale=float(rng.uniform(0.1, 5.0)))
            u = random_unitary(n, rng)
            hu = conjugate_by(h, u)
            specs = [NormSpec.ky_fan(k) for k in range(1, n + 1)]
            specs += [NormSpec.schatten(1), NormSpec.schatten(2), NormSpec.operator()]
            for spec in specs:
                base = ui_norm(h, spec)
                rotated = ui_norm(hu, spec)
                assert abs(base - rotated) <= 1e-9 * max(1.0, base)


class TestMatrixLiteral:
    def test_roundtrip_complex(self):
        rng = make_rng(3)
        h = random_hermitian_raw(4, rng)
        again = matrix_from_json(matrix_to_json(h))
        np.testing.assert_allclose(again.entries, h.entries, atol=1e-15)

    def test_im_defaults_to_zero(self):
        h = matrix_from_json({"n": 1, "re": [[2]]})
        assert h.entries[0, 0] == 2.0 + 0.0j

    @staticmethod
    def _per_entry(obj):
        """Entries built one Fraction at a time, as the format defines them."""
        from fractions import Fraction
        n = obj["n"]
        raw = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                im = obj.get("im")
                raw[i, j] = (float(Fraction(obj["re"][i][j]))
                             + (1j * float(Fraction(im[i][j])) if im else 0.0))
        return hermitian_from(raw).entries

    def test_float_grids_match_the_per_entry_rationals_bit_for_bit(self):
        rng = make_rng(11)
        specials = [0.0, -0.0, 1.5, -2.25, 5e-324, -1e-300, 1e300]
        for trial in range(60):
            n = int(rng.integers(1, 6))
            re = rng.choice(specials, (n, n)) if trial % 3 == 0 else rng.standard_normal((n, n))
            im = rng.choice(specials, (n, n)) if trial % 3 == 0 else rng.standard_normal((n, n))
            obj = {"n": n, "re": ((re + re.T) / 2).tolist()}
            if trial % 2:
                obj["im"] = ((im - im.T) / 2).tolist()
            assert matrix_from_json(obj).entries.tobytes() == self._per_entry(obj).tobytes()

    def test_string_entries_are_bad_params(self):
        # no writer emits strings, and a float cannot keep a rational exact
        for obj in ({"n": 2, "re": [["1.75", "31/6"], ["31/6", "0.5"]]},
                    {"n": 2, "re": [[-0.0, "1/3"], ["1/3", 2]]},
                    {"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, "-1.5"], ["1.5", 0.0]]}):
            with pytest.raises(BadParams, match="is not a number grid of shape"):
                matrix_from_json(obj)

    @pytest.mark.parametrize("re, im", [
        ([[1, 2.5], [2.5, -3]], [[0, -0.5], [0.5, 0]]),  # ints and floats
        ([[True, 0.25], [0.25, False]], None),  # bools and floats
        ([[1, 2], [2, 7]], [[0, -1], [1, 0]]),  # ints only
        ([[2 ** 53 + 1, 0.5], [0.5, -(2 ** 63)]], None),  # ints that round
        ([[2 ** 64 + 1, 0.5], [0.5, -(2 ** 90) - 1]], None),  # beyond int64
        ([[-0.0, -0.0], [-0.0, -0.0]], [[-0.0, 0.0], [0.0, -0.0]]),
    ])
    def test_number_grids_match_the_per_entry_rationals_bit_for_bit(self, re, im):
        obj = {"n": 2, "re": re} if im is None else {"n": 2, "re": re, "im": im}
        assert matrix_from_json(obj).entries.tobytes() == self._per_entry(obj).tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entries_are_refused(self, bad):
        with pytest.raises(NonFiniteEntries):
            matrix_from_json({"n": 1, "re": [[bad]]})
        with pytest.raises(NonFiniteEntries):
            matrix_from_json({"n": 1, "re": [[1.0]], "im": [[bad]]})

    @pytest.mark.parametrize("obj, message", [
        ({"re": [[1.0]]}, "matrix literal has no field 'n'"),
        ({"n": 1}, "matrix literal has no field 're'"),
        ({"n": 1, "re": [["one"]]}, "number grid"),
        ({"n": 1, "re": [[None]]}, "number grid"),
    ])
    def test_malformed_literals_raise_bad_params(self, obj, message):
        with pytest.raises(BadParams, match=message):
            matrix_from_json(obj)

    def test_ragged_float_grid_is_not_square(self):
        with pytest.raises(BadParams, match=r"'re' is not a number grid of shape \(2, 2\)"):
            matrix_from_json({"n": 2, "re": [[1.0, 2.0], [2.0]]})

    @pytest.mark.parametrize("real", [False, True])
    def test_vector_literal_round_trips_bit_for_bit(self, real):
        rng = make_rng(12)
        x = rng.standard_normal(5) + 1j * (0.0 if real else rng.standard_normal(5))
        x.flags.writeable = False
        literal = array_to_json(x)
        assert sorted(literal) == (["re"] if real else ["im", "re"])
        for grid in literal.values():  # read-only views of x
            assert not grid.flags.writeable and np.shares_memory(grid, x)
        as_json = json.loads(json.dumps({key: grid.tolist() for key, grid in literal.items()}))
        for obj in (literal, as_json):
            assert array_from_json(obj, (5,), "vector").tobytes() == x.tobytes()
        with pytest.raises(BadParams, match=r"vector literal field 're' is not a number grid"):
            array_from_json(literal, (4,), "vector")
