import json
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from conftest import (
    conjugate_by,
    eig2x2,
    make_rng,
    random_hermitian_raw,
    random_hermitian_reference,
    random_psd,
    random_unitary,
    reconstruct,
)
from hhmat import funcat, matcore, orders, segquad
from hhmat.errors import (
    BadParams,
    BadSpec,
    ConvergenceFailure,
    DimMismatch,
    ExcessAsymmetryError,
    NonFiniteEntries,
    NonSquareError,
    SpectrumOutOfDomain,
)
from hhmat.harness import default_norm_specs, make_map
from hhmat.matcore import (
    SPECTRUM_SHRINK,
    HermitianMatrix,
    apply_function,
    array_from_json,
    array_to_json,
    eig,
    matrix_from_json,
    matrix_to_json,
    norm_spec,
    random_hermitian,
    segment_matrices,
    ui_norm,
    ui_norms,
)
from hhmat.plmaps import CongruenceSum, IdentityMap


class TestConstruction:
    def test_hermitian_input_kept_verbatim(self):
        h = HermitianMatrix([[2.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(h.entries, np.array([[2, 1], [1, 1]], dtype=complex))
        assert h.asymmetry_residual == 0.0

    def test_zero_matrix(self):
        h = HermitianMatrix(np.zeros((2, 2)))
        assert h.asymmetry_residual == 0.0
        assert h.trace == 0.0

    def test_complex_hermitian_fixed_point(self):
        raw = np.array([[1.0, 1j], [-1j, 1.0]])
        h = HermitianMatrix(raw)
        np.testing.assert_array_equal(h.entries, raw)

    def test_small_asymmetry_symmetrized_and_recorded(self):
        raw = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        h = HermitianMatrix(raw)
        assert 0.0 < h.asymmetry_residual < 1e-11
        np.testing.assert_array_equal(h.entries, h.entries.conj().T)

    def test_excess_asymmetry_rejected(self):
        with pytest.raises(ExcessAsymmetryError):
            HermitianMatrix([[0.0, 1.0], [0.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            HermitianMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(NonFiniteEntries):
            eig(HermitianMatrix([[bad, 0], [0, 1]]))

    # Every entry point that pairs two matrices raises the one same-size
    # error, matcore.check_same_dim's, before numpy sees the shapes.
    PAIRED = {
        "__add__": lambda a, b: a + b,
        "__sub__": lambda a, b: a - b,
        "loewner_leq": lambda a, b: orders.loewner_leq(a, b),
        "eigen_dominance": lambda a, b: orders.eigen_dominance(a, b),
        "weak_majorization": lambda a, b: orders.weak_majorization(a, b),
        "unitary_witness": lambda a, b: orders.unitary_witness(a, b),
        "segment_points": lambda a, b: list(segquad.segment_points(a, b, np.array([0.5]))),
        "segment_integral": lambda a, b: segquad.segment_integral(funcat.builtin("exp"), a, b),
        "poly_segment_oracle": lambda a, b: segquad.poly_segment_oracle(2, a, b),
    }

    @pytest.mark.parametrize("op", PAIRED)
    def test_sizes_that_differ_are_a_dim_mismatch(self, op, monkeypatch):
        calls = []
        check = matcore.check_same_dim
        for module in (matcore, orders, segquad):
            monkeypatch.setattr(module, "check_same_dim",
                                lambda a, b: calls.append((a.dim, b.dim)) or check(a, b))
        a, b = HermitianMatrix(np.eye(3)), HermitianMatrix(np.eye(2))
        with pytest.raises(DimMismatch) as err:
            self.PAIRED[op](a, b)
        assert str(err.value) == "dimensions differ: 3 vs 2"
        assert calls == [(3, 2)]

    def test_entries_immutable(self):
        h = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0


class TestEig:
    def test_diagonal_sorted_descending(self):
        es = eig(HermitianMatrix(np.diag([1.0, 3.0, 2.0])))
        np.testing.assert_allclose(es.values, [3.0, 2.0, 1.0], atol=1e-14)

    def test_two_by_two_against_quadratic_formula(self):
        h = HermitianMatrix([[1.5, 0.5], [0.5, 0.5]])
        expected = eig2x2(h.entries)  # (2 +- sqrt(2)) / 2
        np.testing.assert_allclose(eig(h).values, expected, atol=1e-13)
        np.testing.assert_allclose(expected, [(2 + math.sqrt(2)) / 2, (2 - math.sqrt(2)) / 2])

    def test_identity_spectrum(self):
        es = eig(HermitianMatrix(np.eye(4)))
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

    @staticmethod
    def _stack48():
        rng = make_rng(6)
        return np.stack([random_hermitian_raw(4, rng).entries for _ in range(48)])

    def test_a_stack_reports_the_first_reconstruction_failure_before_any_other(self, monkeypatch):
        # Row 5 fails orthonormality alone (V S with diag(w / s^2) still
        # rebuilds H), rows 20 and 30 fail reconstruction by 1e-6 and 1e-3:
        # the one test of the stack fails, and the text names row 20's error.
        def spoil(w, v):
            s = 1.0 + 1e-6
            v[5, :, 0] *= s
            w[5, 0] /= s * s
            w[20, 0] += 1e-6
            w[30, 0] += 1e-3

        self._patch_eigh(monkeypatch, spoil)
        with pytest.raises(ConvergenceFailure, match="^eigendecomposition reconstruction error") as err:
            matcore.eig_stack(self._stack48())
        figure = float(str(err.value).split()[3])
        assert 1e-7 < figure < 1e-5
        # with reconstruction unchecked, row 5's orthonormality is reported
        monkeypatch.setattr(matcore, "_check_reconstruction", lambda *args: None)
        with pytest.raises(ConvergenceFailure, match="^eigenvectors not orthonormal: "):
            matcore.eig_stack(self._stack48())

    @pytest.mark.parametrize("part, text", [("values", "reconstruction error nan"),
                                            ("vectors", "not orthonormal: nan")])
    def test_a_nan_in_one_row_of_a_stack_fails(self, monkeypatch, part, text):
        def spoil(w, v):
            (w if part == "values" else v)[17, 0] = np.nan

        self._patch_eigh(monkeypatch, spoil)
        if part == "vectors":  # a NaN vector fails reconstruction first
            monkeypatch.setattr(matcore, "_check_reconstruction", lambda *args: None)
        with pytest.raises(ConvergenceFailure, match=text):
            matcore.eig_stack(self._stack48())

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
        a = HermitianMatrix([[2.0, 1.0], [1.0, 1.0]])
        b = HermitianMatrix([[1.0, 0.0], [0.0, 0.0]])
        mid = (a + b) / 2.0
        out = apply_function(funcat.builtin("cube"), mid)
        np.testing.assert_allclose(
            out.entries.real, [[17 / 4, 7 / 4], [7 / 4, 3 / 4]], atol=1e-13)

    def test_square_on_diagonal(self):
        out = apply_function(funcat.builtin("power", 2), HermitianMatrix(np.diag([-1.0, 2.0])))
        np.testing.assert_allclose(out.entries.real, np.diag([1.0, 4.0]), atol=1e-13)

    def test_spectrum_out_of_domain(self):
        h = HermitianMatrix(np.diag([-1.0, 2.0]))
        with pytest.raises(SpectrumOutOfDomain) as err:
            apply_function(funcat.builtin("cube"), h)
        assert any(x < 0 for x in err.value.offending)

    def test_spectrum_outside_lists_the_offending_eigenvalues(self):
        h = HermitianMatrix(np.diag([-1.0, 2.0, -3.0]))
        cube = funcat.builtin("cube")  # domain [0, inf)
        assert matcore.spectrum_outside(cube.domain, h) == [-1.0, -3.0]
        assert matcore.spectrum_outside(funcat.builtin("exp").domain, h) == []
        with pytest.raises(SpectrumOutOfDomain) as err:
            apply_function(cube, h)
        assert err.value.offending == [-1.0, -3.0]
        assert str(err.value) == ("eigenvalues [-1.0, -3.0] of the argument lie outside "
                                  "domain [0, inf] of cube")

    @pytest.mark.parametrize("desc", funcat.CATALOG_DESCRIPTORS + ("power:2@0.5,2",))
    def test_extreme_eigenvalues_decide_as_the_whole_spectrum(self, desc):
        # Spectra with points on, just inside and just outside each finite
        # endpoint, within and beyond its slack: spectrum_outside lists
        # what a whole-spectrum membership test lists, and apply_function
        # refuses exactly those spectra, naming the same points.
        f = funcat.from_descriptor(desc)
        rng = make_rng(13)
        ends = [x for x in (f.domain.lo, f.domain.hi) if math.isfinite(x)]
        near = [x + d * max(1.0, abs(x)) for x in ends for d in (0.0, -1e-10, 1e-10, -1e-6, 1e-6)]
        for _ in range(40):
            pool = near + list(rng.uniform(-3.0, 3.0, size=4))
            h = HermitianMatrix(np.diag(rng.choice(pool, size=int(rng.integers(1, 6)))))
            values = eig(h).values
            outside = matcore.spectrum_outside(f.domain, h)
            assert outside == values[~f.domain.contains_array(values)].tolist()
            if outside:
                with pytest.raises(SpectrumOutOfDomain) as err:
                    apply_function(f, h)
                assert err.value.offending == outside
            else:
                apply_function(f, h)

    def test_spectrum_outside_a_working_interval_narrower_than_1(self):
        # each end of [0.5, 0.9] admits orders.tolerance(|end|) = 1e-9 beyond
        # it, as a domain's end does, not a share of the width
        working = funcat.Interval(0.5, 0.9)
        for ends, outside in [((0.5, 0.9), []), ((0.5 - 8e-10, 0.9 + 8e-10), []),
                              ((0.5 - 1.2e-9, 0.7), [0.5 - 1.2e-9]),
                              ((0.7, 0.9 + 1.2e-9), [0.9 + 1.2e-9]),
                              ((0.4, 1.0), [1.0, 0.4])]:
            h = HermitianMatrix(np.diag([ends[0], 0.7, ends[1]]))
            assert matcore.spectrum_outside(working, h) == outside
        assert matcore.spectrum_outside(working, HermitianMatrix(np.zeros((0, 0)))) == []

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
    return HermitianMatrix((u * np.asarray(values, dtype=float)) @ u.conj().T)


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

    def test_mixed_sizes_make_one_solver_call_per_size(self, monkeypatch):
        real_eigh, real_stack = np.linalg.eigh, matcore.eig_stack
        stacks, solved = [], []

        def recording(stack):
            stacks.append(stack.shape)
            return real_eigh(stack)

        rng = make_rng(35)
        hs = [random_hermitian_raw(n, rng) for n in (3, 2, 3, 4, 2)]
        monkeypatch.setattr(matcore.np.linalg, "eigh", recording)
        monkeypatch.setattr(matcore, "eig_stack", lambda s: solved.append(real_stack(s)) or solved[-1])
        found = matcore.eig_many(hs + [hs[0]])
        # sizes in the order they first appear, each matrix decomposed once
        assert stacks == [(2, 3, 3), (2, 2, 2), (1, 4, 4)]
        assert [es is h._eigen for es, h in zip(found, hs + [hs[0]])] == [True] * 6
        for h, es in zip(hs, found):
            scale = max(1.0, es.spectral_radius)
            assert np.max(np.abs(reconstruct(es) - h.entries)) <= 1e-12 * scale
        # each size's matrices are the rows, in listing order, of one
        # SpectralStack over that size's one solver call, and read views of it
        for (values, vectors), same_size in zip(solved, ([hs[0], hs[2]], [hs[1], hs[4]], [hs[3]])):
            stack = same_size[0]._stack[0]
            assert [h._stack for h in same_size] == [(stack, i) for i in range(len(same_size))]
            assert stack.values is values and stack.vectors is vectors
            for h in same_size:
                assert h._eigen.values.base is values and h._eigen.vectors.base is vectors

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


def _lone(node: HermitianMatrix) -> HermitianMatrix:
    """The same matrix with the same decomposition, in a stack of one."""
    es, lone = eig(node), matcore._exact_hermitian(node.entries)
    matcore._as_stack([lone], es.values[None], es.vectors[None])
    return lone


def _in_domain_pair(f, n: int, seed: int):
    lo = 0.2 if f.domain.lo >= 0.0 else -1.0
    return random_hermitian(n, lo, 2.0, seed), random_hermitian(n, lo, 2.0, seed + 1)


class TestStackKernel:
    """apply_function maps a stack of segment points in one map_stack call;
    a lone matrix is a stack of one, so both give the same bits."""

    @pytest.mark.parametrize("n", [1, 4, 6])
    @pytest.mark.parametrize("desc", funcat.CATALOG_DESCRIPTORS)
    def test_node_images_equal_lone_images_bit_for_bit(self, desc, n):
        f = funcat.from_descriptor(desc)
        a, b = _in_domain_pair(f, n, 41)
        ts = np.concatenate([[1.0, 0.0], make_rng(42).uniform(0.0, 1.0, size=7)])
        for node in segment_matrices(a, b, ts):
            image, lone = apply_function(f, node), apply_function(f, _lone(node))
            assert image.entries.tobytes() == lone.entries.tobytes()
            for x, y in zip(image._spectral_pair, lone._spectral_pair):
                assert x.tobytes() == y.tobytes()
            assert not image.entries.flags.writeable and image.asymmetry_residual == 0.0
            assert _exactly_hermitian(image.entries)

    def test_a_stack_is_mapped_once_per_function(self, monkeypatch):
        calls = []
        real = matcore.map_stack
        monkeypatch.setattr(matcore, "map_stack",
                            lambda f, w, v: calls.append((f.name, w.shape[0])) or real(f, w, v))
        exp, square = funcat.builtin("exp"), funcat.builtin("power", 2)
        a, b = _in_domain_pair(exp, 3, 43)
        nodes = segment_matrices(a, b, np.linspace(0.0, 1.0, 5))
        for f in (exp, square):
            for node in nodes:
                apply_function(f, node)
        apply_function(exp, a)
        assert calls == [("exp", 5), ("power:2", 5), ("exp", 1)]

    def test_images_belong_to_the_function_that_made_them(self):
        # two functions taking turns on one stack: each call gets its own f's image
        fs = [funcat.from_descriptor(d) for d in ("exp", "inverse", "exp", "power:2")]
        a, b = _in_domain_pair(fs[1], 4, 44)
        nodes = segment_matrices(a, b, np.linspace(0.0, 1.0, 6))
        for i, node in enumerate(nodes):
            for f in fs[i % 2:] + fs[:i % 2]:
                assert (apply_function(f, node).entries.tobytes()
                        == apply_function(f, _lone(node)).entries.tobytes())

    def test_a_fill_for_another_function_during_a_fill_is_harmless(self, monkeypatch):
        # A worker filling the cache for g while another fills it for f: the
        # cache is one reference, so each keeps its own f's images, and the
        # stack never pairs one function with another's images.
        f, g = funcat.builtin("exp"), funcat.builtin("power", 2)
        a, b = _in_domain_pair(f, 3, 45)
        nodes = segment_matrices(a, b, np.linspace(0.0, 1.0, 4))
        real = matcore.map_stack
        during = []

        def racing(h, w, v):
            out = real(h, w, v)
            if h is f and not during:
                during.append(apply_function(g, nodes[1]))
            return out

        monkeypatch.setattr(matcore, "map_stack", racing)
        first = apply_function(f, nodes[0])
        expected = [(f, nodes[0], first), (g, nodes[1], during[0]),
                    (g, nodes[2], apply_function(g, nodes[2])),
                    (f, nodes[3], apply_function(f, nodes[3]))]
        for h, node, image in expected:
            assert image.entries.tobytes() == apply_function(h, _lone(node)).entries.tobytes()

    def test_threads_sharing_a_stack_each_get_their_own_functions_images(self):
        # more threads than cores, switching often, two functions on one
        # stack: a lost or mixed cache update would hand a thread the other
        # function's image
        fs = (funcat.builtin("exp"), funcat.builtin("power", 2))
        a, b = _in_domain_pair(fs[0], 3, 46)
        nodes = segment_matrices(a, b, np.linspace(0.0, 1.0, 8))
        expected = {(j, i): apply_function(f, _lone(node)).entries.tobytes()
                    for j, f in enumerate(fs) for i, node in enumerate(nodes)}
        wrong, done = [], []

        def work(k):
            for step in range(300):
                j, i = (k + step) % 2, step % len(nodes)
                if apply_function(fs[j], nodes[i]).entries.tobytes() != expected[j, i]:
                    wrong.append((k, step))
            done.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == list(range(6)) and wrong == []

    @pytest.mark.parametrize("desc", ["inverse", "neg_sqrt"])
    def test_a_later_node_outside_the_domain_raises_for_itself(self, desc):
        # tA + (1-t)B = diag(2t - 1, 1): the last node's eigenvalue -0.5 leaves
        # [0, inf) and (0, inf); no warning escapes from f at that node, and
        # the nodes before it still return their images
        f = funcat.from_descriptor(desc)
        a, b = HermitianMatrix(np.diag([1.0, 1.0])), HermitianMatrix(np.diag([-1.0, 1.0]))
        nodes = segment_matrices(a, b, [1.0, 0.75, 0.25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for node, diag in zip(nodes, ([1.0, 1.0], [0.5, 1.0])):
                image = apply_function(f, node)
                np.testing.assert_allclose(image.entries, np.diag(f.eval_array(diag)), atol=1e-15)
            with pytest.raises(SpectrumOutOfDomain) as err:
                apply_function(f, nodes[2])
        assert err.value.offending == [-0.5]
        assert str(err.value) == (f"eigenvalues [-0.5] of the argument lie outside "
                                  f"domain {f.domain} of {f.name}")

    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_either_extreme_eigenvalue_outside_refuses_the_node(self, end):
        # [0.5, 2] admits 1e-9 below 0.5 and 2e-9 above 2: a node 1e-6 beyond
        # one end is refused, whichever end it crosses, and its neighbours
        # inside are mapped
        f = funcat.from_descriptor("power:2@0.5,2")
        beyond = 0.5 - 1e-6 if end == "lo" else 2.0 + 1e-6
        a = HermitianMatrix(np.diag([1.0, 1.5, 1.2]))
        b = HermitianMatrix(np.diag([1.0, 1.5, 1.2]) + np.diag([beyond - 1.0, 0.0, 0.0]))
        nodes = segment_matrices(a, b, [1.0, 0.0])
        apply_function(f, nodes[0])
        with pytest.raises(SpectrumOutOfDomain) as err:
            apply_function(f, nodes[1])
        assert err.value.offending == [pytest.approx(beyond, abs=1e-15)]


class TestThinNodes:
    """A node of segment_matrices is its entries view and its (SpectralStack,
    index); eig() makes its EigenSystem from its stack row when first asked."""

    def test_a_node_is_not_decomposed_until_asked(self):
        f = funcat.builtin("exp")
        a, b = _in_domain_pair(f, 4, 61)
        nodes = segment_matrices(a, b, np.linspace(0.0, 1.0, 5))
        assert [node._eigen for node in nodes] == [None] * 5
        for node in nodes:
            apply_function(f, node)  # mapping reads the stack, not the node's decomposition
        assert [node._eigen for node in nodes] == [None] * 5
        es = eig(nodes[2])
        assert nodes[2]._eigen is es and eig(nodes[2]) is es
        assert [node._eigen is None for node in nodes] == [True, True, False, True, True]

    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_a_nodes_decomposition_is_its_stack_row_bit_for_bit(self, n):
        a, b = _in_domain_pair(funcat.builtin("exp"), n, 62)
        ts = make_rng(63).uniform(0.0, 1.0, size=7)
        for i, node in enumerate(segment_matrices(a, b, ts)):
            stack, index = node._stack
            es = eig(node)
            assert index == i
            assert es.values.tobytes() == stack.values[i].tobytes()
            assert es.vectors.tobytes() == stack.vectors[i].tobytes()
            # read-only views of the stack's arrays, not copies
            assert np.shares_memory(es.values, stack.values)
            assert np.shares_memory(es.vectors, stack.vectors)
            assert not es.values.flags.writeable and not es.vectors.flags.writeable
            # and the decomposition of this node, not of a neighbour
            scale = max(1.0, es.spectral_radius)
            assert np.max(np.abs(reconstruct(es) - node.entries)) <= 1e-12 * scale

    def test_eig_many_over_one_stacks_nodes_calls_no_solver(self, monkeypatch):
        a, b = _in_domain_pair(funcat.builtin("exp"), 3, 64)
        nodes = segment_matrices(a, b, np.linspace(0.0, 1.0, 6))
        calls = []
        real = matcore.eig_stack
        monkeypatch.setattr(matcore, "eig_stack", lambda s: calls.append(s.shape) or real(s))
        listed = nodes + nodes[:2]
        found = matcore.eig_many(listed)
        assert calls == []
        assert [es is node._eigen for es, node in zip(found, listed)] == [True] * 8
        # a matrix from outside the stack still goes to the solver, alone
        matcore.eig_many(nodes + [random_hermitian_raw(3, make_rng(65))])
        assert calls == [(1, 3, 3)]

    def test_a_node_outside_the_domain_names_its_own_eigenvalues(self, monkeypatch):
        # tA + (1-t)B = diag(2t - 1, 4t - 2): the nodes at t = 0.25 and 0.4
        # leave [0, inf), each with its own eigenvalues, and naming them
        # takes no solver call
        f = funcat.from_descriptor("neg_sqrt")
        a, b = HermitianMatrix(np.diag([1.0, 2.0])), HermitianMatrix(np.diag([-1.0, -2.0]))
        nodes = segment_matrices(a, b, [0.9, 0.25, 0.4])
        calls = []
        real = matcore.eig_stack
        monkeypatch.setattr(matcore, "eig_stack", lambda s: calls.append(s.shape) or real(s))
        apply_function(f, nodes[0])
        for node, offending in ((nodes[1], [-0.5, -1.0]), (nodes[2], [-0.2, -0.4])):
            with pytest.raises(SpectrumOutOfDomain) as err:
                apply_function(f, node)
            assert err.value.offending == [pytest.approx(x, abs=1e-15) for x in offending]
            assert node._eigen is not None
        assert nodes[0]._eigen is None and calls == []


class TestExactBuilder:
    """Matrices the package builds skip the constructor's comparison and copy
    (matcore._exact_hermitian) but keep its finiteness check; the constructor
    still judges input from outside."""

    @staticmethod
    def _built(rng):
        """(label, result, what the constructor makes of the same raw array)."""
        h, k = random_hermitian(4, 0.5, 2.0, rng), random_hermitian(4, 0.5, 2.0, rng)
        out = [("h + k", h + k, h.entries + k.entries),
               ("h - k", h - k, h.entries - k.entries),
               ("2.5 * h", 2.5 * h, h.entries * 2.5),
               ("h * 3", h * 3, h.entries * 3.0),
               ("h / 3", h / 3.0, h.entries / 3.0),
               ("-h", -h, -h.entries),
               ("identity image", IdentityMap(4).identity_image(), np.eye(4))]
        for desc in ("congruence", "compress", "pinch", "subcongruence", "congruence:2,3"):
            phi = make_map(desc, 4, rng)
            for label, arg in ((desc, h), (f"{desc} identity image", HermitianMatrix(np.eye(4)))):
                raw = sum(x.conj().T @ arg.entries @ x for x in phi.factors)
                image = phi.apply(arg) if arg is h else phi.identity_image()
                out.append((label, image, raw))
        f = funcat.builtin("exp")
        integral = segquad.segment_integral(f, h, k)
        out.append(("segment_integral", integral, integral.entries.copy()))
        total = segquad.segment_sum(f, h, k, np.array([0.25, 0.75]), np.array([0.5, 0.5]))
        out.append(("segment_sum", total, total.entries.copy()))
        oracle = segquad.poly_segment_oracle(3, h, k)
        words = segquad._word_integral(h.entries, k.entries, 3, exact=False)
        out.append(("poly_segment_oracle", oracle, words))
        for n in (1, 4):
            out.append((f"random_hermitian n={n}", random_hermitian(n, -1.0, 3.0, rng), None))
        return out

    def test_every_built_result_is_exactly_hermitian_and_read_only(self):
        rng = make_rng(71)
        for _ in range(20):
            for label, m, raw in self._built(rng):
                assert _exactly_hermitian(m.entries), label
                assert not m.entries.flags.writeable, label
                assert m.asymmetry_residual == 0.0, label
                assert m._spectral_pair is None and m._stack is None, label
                if raw is not None:
                    # the bits the constructor would have kept
                    assert m.entries.tobytes() == HermitianMatrix(raw).entries.tobytes(), label

    def test_halving_keeps_the_real_and_imaginary_parts_apart(self):
        # Each part is halved as a float: a part beside an infinite one stays
        # finite, where complex division by 2 makes (3 + inf*0) / 2 a NaN, and
        # a zero keeps its sign.
        r = np.array([[1.0, complex(3.0, math.inf)], [complex(3.0, -math.inf), complex(-0.0, 0.0)]])
        expected = np.array([[1.0, complex(3.0, math.inf)],
                             [complex(3.0, -math.inf), complex(-0.0, 0.0)]])
        assert matcore._symmetrize(r) is r
        assert r.tobytes() == expected.tobytes()

    def test_unital_images_of_the_identity_are_the_identity(self):
        for desc in ("congruence", "compress:4", "pinch"):
            image = make_map(desc, 4, make_rng(72)).identity_image()
            np.testing.assert_allclose(image.entries, np.eye(4), atol=1e-14)

    def test_a_result_that_overflows_raises(self):
        h = HermitianMatrix([[2.0, 1.0j], [-1.0j, 3.0]])
        big = HermitianMatrix(np.diag([1e308, 1.0]))
        tiny = 1e-308
        with np.errstate(all="ignore"):
            for build in (lambda: h * 1e308, lambda: 1e308 * h, lambda: h / tiny,
                          lambda: big + big, lambda: big - (-big), lambda: -(big * 10.0),
                          lambda: CongruenceSum((1e200 * np.eye(2),)).apply(h),
                          lambda: CongruenceSum((np.eye(2), 1e200 * np.eye(2))).apply(h),
                          lambda: CongruenceSum((1e200 * np.eye(2),)).identity_image()):
                with pytest.raises(NonFiniteEntries, match="must be finite"):
                    build()

    def test_outside_input_is_still_judged(self):
        with pytest.raises(ExcessAsymmetryError):
            HermitianMatrix([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ExcessAsymmetryError):
            matrix_from_json({"n": 2, "re": [[1.0, 2.0], [0.0, 1.0]]})
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteEntries):
                HermitianMatrix([[bad, 0.0], [0.0, 1.0]])
            with pytest.raises(NonFiniteEntries):
                matrix_from_json({"n": 1, "re": [[1.0]], "im": [[bad]]})
        # a caller's nearly Hermitian array is symmetrized, and a copy kept
        raw = np.array([[1.0, 2.0 + 1e-12], [2.0, 1.0]], dtype=complex)
        h = HermitianMatrix(raw)
        assert h.asymmetry_residual > 0.0 and not np.shares_memory(h.entries, raw)
        assert raw.flags.writeable


class TestRandomHermitian:
    """The draw shifts and scales the GUE matrix, s*H + c*I, instead of
    rebuilding it from its eigensystem (conftest's reference)."""

    @pytest.mark.parametrize("omega, Omega", [(0.5, 2.0), (-3.0, 100.0)])
    @pytest.mark.parametrize("n", [1, 2, 4, 48])
    def test_matches_the_eigenvector_construction(self, n, omega, Omega):
        floor = SPECTRUM_SHRINK * 0.1 * (Omega - omega)  # the least shrink: 1%
        for seed in range(6):
            rng, ref_rng = make_rng(seed), make_rng(seed)
            h = random_hermitian(n, omega, Omega, rng)
            ref = random_hermitian_reference(n, omega, Omega, ref_rng)
            scale = max(1.0, float(np.max(np.abs(ref.entries))))
            assert np.max(np.abs(h.entries - ref.entries)) <= 1e-13 * scale
            assert h.asymmetry_residual == 0.0
            values = eig(h).values
            assert omega + floor <= values[-1] and values[0] <= Omega - floor
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_a_flat_spectrum_is_spread_over_the_window(self, monkeypatch):
        # a GUE draw never has a flat spectrum: solvers that report one
        # send both constructions down their diag(linspace(lo, hi, n)) path
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: np.zeros(len(h)))
        monkeypatch.setattr(np.linalg, "eigh", lambda h: (np.zeros(len(h)), np.eye(len(h))))
        rng, ref_rng = make_rng(3), make_rng(3)
        h = random_hermitian(4, 0.5, 2.0, rng)
        ref = random_hermitian_reference(4, 0.5, 2.0, ref_rng)
        np.testing.assert_array_equal(h.entries, ref.entries)
        assert np.all(np.diff(np.diag(h.entries).real) > 0)
        assert h.asymmetry_residual == 0.0
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _at_each_position(spec: str) -> list[list[str]]:
    """spec alone, then first, between and last among norms that read well."""
    good = ["kyfan:1", "schatten:2", "operator"]
    return [[spec]] + [good[:i] + [spec] + good[i:] for i in range(len(good) + 1)]


class TestNorms:
    def test_singular_values_are_sorted_once_per_decomposition(self, monkeypatch):
        # from k = 8 on, numpy's unrolled np.sum can round apart from the
        # running sum; kyfan:k is the running sum's k-th entry, bit for bit
        sort = np.sort
        for n in (6, 9):
            h = random_hermitian_raw(n, make_rng(24))
            specs = [f"kyfan:{k}" for k in range(1, n + 1)] + ["schatten:1", "schatten:2.5",
                                                               "operator"]
            sigma = sort(np.abs(eig(h).values))[::-1]
            expected = np.cumsum(sigma).tolist()
            expected += [float(np.sum(sigma ** p) ** (1.0 / p)) for p in (1.0, 2.5)]
            expected += [float(sigma[0])]
            sorts = []
            monkeypatch.setattr(np, "sort", lambda *a, **k: sorts.append(1) or sort(*a, **k))
            assert [ui_norm(h, spec) for spec in specs * 3] == expected * 3  # bit for bit
            assert ui_norms(h, specs * 3) == expected * 3
            assert len(sorts) == 1
            monkeypatch.undo()

    def test_ky_fan_example(self):
        h = HermitianMatrix(np.diag([3.0, 1.0, -2.0]))
        assert ui_norm(h, "kyfan:2") == pytest.approx(5.0, abs=1e-13)

    def test_trace_norm_example(self):
        h = HermitianMatrix(np.diag([3.0, 1.0, -2.0]))
        assert ui_norm(h, "schatten:1") == pytest.approx(6.0, abs=1e-13)

    def test_operator_norm_example(self):
        h = HermitianMatrix(np.diag([3.0, 1.0, -2.0]))
        assert ui_norm(h, "operator") == pytest.approx(3.0, abs=1e-13)

    def test_norm_spec_reads_each_form(self):
        assert norm_spec("kyfan:3", 3) == ("kyfan", 3)
        assert norm_spec("schatten:2.5", 3) == ("schatten", 2.5)
        assert norm_spec("operator", 3) == ("operator", None)

    @pytest.mark.parametrize("spec", [
        "kyfan:0", "kyfan:4", "kyfan:abc", "kyfan:2.5", "kyfan:", "schatten:0.5", "schatten:nan",
        "schatten:inf", "schatten:x", "operator:1", "frobenius", "nuclear:1"])
    def test_a_spec_outside_the_rule_raises_bad_spec_naming_it(self, spec):
        h = HermitianMatrix(np.eye(3))
        message = (f"norm spec {spec!r} is not kyfan:k (k an integer in 1..3), "
                   "schatten:p (p finite, >= 1) or operator")
        reads = [lambda: norm_spec(spec, 3), lambda: ui_norm(h, spec)]
        reads += [lambda at=at: ui_norms(h, at) for at in _at_each_position(spec)]
        for read in reads:
            with pytest.raises(BadSpec) as err:
                read()
            assert str(err.value) == message

    def test_an_overflowing_norm_raises_bad_spec_and_no_warning(self):
        h = HermitianMatrix(np.diag([3.0, 1.0, -2.0]))
        for specs in _at_each_position("schatten:1e308"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(BadSpec) as err:
                    ui_norms(h, specs)
            assert str(err.value) == "norm spec 'schatten:1e308' gives inf on a 3x3 matrix"

    def test_an_underflowing_schatten_sum_raises_bad_spec_and_no_warning(self):
        # 0.5**2000 and 0.25**2000 are 0 in floating point, not the norm 0.5
        h = HermitianMatrix(np.diag([0.5, 0.25]))
        for specs in _at_each_position("schatten:2000"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(BadSpec) as err:
                    ui_norms(h, specs)
                assert ui_norm(HermitianMatrix(np.zeros((2, 2))), "schatten:2000") == 0.0
            assert str(err.value) == "norm spec 'schatten:2000' underflows on a 2x2 matrix"

    def test_unitary_invariance(self):
        rng = make_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            h = random_hermitian_raw(n, rng, scale=float(rng.uniform(0.1, 5.0)))
            u = random_unitary(n, rng)
            hu = conjugate_by(h, u)
            for spec in default_norm_specs(n):
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
        return HermitianMatrix(raw).entries

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
