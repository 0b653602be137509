import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_rng, random_hermitian_raw, random_psd
from hhmat import matcore, segquad
from hhmat.errors import (
    BadParams,
    ConvergenceFailure,
    NoConvergence,
    NonFiniteEntries,
    RTooLarge,
    SpectrumOutOfDomain,
)
from hhmat.funcat import CATALOG_DESCRIPTORS, ScalarFunction, builtin, from_descriptor
from hhmat.matcore import HermitianMatrix, apply_function
from hhmat.segquad import (
    QuadratureSpec,
    poly_segment_oracle,
    poly_segment_oracle_exact,
    segment_integral,
)

A_FIXED = HermitianMatrix([[2.0, 1.0], [1.0, 1.0]])
B_FIXED = HermitianMatrix([[1.0, 0.0], [0.0, 0.0]])


class TestSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.nodes == 16 and spec.rtol == 1e-11

    def test_validation(self):
        with pytest.raises(BadParams):
            QuadratureSpec(nodes=0)
        # a start above NODE_CAP // 2 has no double to compare with
        assert QuadratureSpec(nodes=512).nodes == segquad.NODE_CAP // 2
        with pytest.raises(BadParams, match=r"node count must be in 1\.\.512, got 513"):
            QuadratureSpec(nodes=513)
        with pytest.raises(BadParams):
            QuadratureSpec(rtol=0.0)
        # an rtol of 1 or more stops the doubling at its first comparison; NaN orders with nothing
        for rtol in (1.0, 1e300, float("inf"), float("nan")):
            with pytest.raises(BadParams, match=re.escape(f"rtol must be in (0, 1), got {rtol}")):
                QuadratureSpec(rtol=rtol)


class TestSegmentIntegral:
    def test_linear_integrand_gives_midpoint(self):
        rng = make_rng(0)
        a, b = random_hermitian_raw(4, rng), random_hermitian_raw(4, rng)
        out = segment_integral(builtin("identity"), a, b)
        np.testing.assert_allclose(out.entries, ((a + b) / 2.0).entries, atol=1e-12)

    def test_cube_on_fixed_pair(self):
        out = segment_integral(builtin("cube"), A_FIXED, B_FIXED)
        np.testing.assert_allclose(
            out.entries.real, [[31 / 6, 5 / 2], [5 / 2, 4 / 3]], atol=1e-12)

    def test_square_matches_word_formula(self):
        rng = make_rng(1)
        f = builtin("power", 2)
        for _ in range(25):
            a, b = random_hermitian_raw(3, rng), random_hermitian_raw(3, rng)
            am, bm = a.entries, b.entries
            expected = am @ am / 3.0 + (am @ bm + bm @ am) / 6.0 + bm @ bm / 3.0
            out = segment_integral(f, a, b)
            assert np.max(np.abs(out.entries - expected)) <= 1e-11 * max(1.0, np.max(np.abs(expected)))

    def test_swap_symmetry(self):
        rng = make_rng(2)
        f = builtin("exp")
        a, b = random_hermitian_raw(3, rng), random_hermitian_raw(3, rng)
        lhs = segment_integral(f, a, b).entries
        rhs = segment_integral(f, b, a).entries
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(lhs)))

    def test_equal_endpoints_collapse_for_whole_catalog(self):
        rng = make_rng(3)
        for desc in CATALOG_DESCRIPTORS:
            f = from_descriptor(desc)
            lo = f.domain.lo if math.isfinite(f.domain.lo) else -1.0
            a = random_psd(3, rng) + (lo + 0.3) * HermitianMatrix(np.eye(3))
            out = segment_integral(f, a, a)
            expected = apply_function(f, a)
            scale = max(1.0, float(np.max(np.abs(expected.entries))))
            assert np.max(np.abs(out.entries - expected.entries)) <= 1e-10 * scale, desc

    def test_output_exactly_hermitian(self):
        rng = make_rng(4)
        a, b = random_hermitian_raw(3, rng), random_hermitian_raw(3, rng)
        out = segment_integral(builtin("exp"), a, b)
        assert out.asymmetry_residual == 0.0

    def test_domain_violation_raises(self):
        indefinite = HermitianMatrix(np.diag([1.0, -1.0]))
        pd = HermitianMatrix(np.diag([1.0, 2.0]))
        with pytest.raises(SpectrumOutOfDomain):
            segment_integral(builtin("inverse"), indefinite, pd)

    def test_domain_error_names_the_endpoint_and_its_eigenvalues(self):
        indefinite = HermitianMatrix(np.diag([1.0, -1.0]))
        pd = HermitianMatrix(np.diag([1.0, 2.0]))
        for a, b, label in ((indefinite, pd, "t=1"), (pd, indefinite, "t=0")):
            with pytest.raises(SpectrumOutOfDomain) as err:
                segment_integral(builtin("inverse"), a, b)
            assert err.value.offending == [-1.0]
            assert str(err.value) == (f"eigenvalues [-1.0] of the {label} endpoint lie outside "
                                      "domain (0, inf] of inverse")

    def test_unreachable_rtol_hits_node_cap(self):
        rng = make_rng(5)
        a, b = random_hermitian_raw(2, rng), random_hermitian_raw(2, rng)
        with pytest.raises(NoConvergence):
            segment_integral(builtin("exp"), a, b, QuadratureSpec(nodes=4, rtol=1e-300))

    def test_a_sum_that_is_not_finite_stops_after_the_first_pass(self, monkeypatch):
        # squares of eigenvalues near 1e155 overflow; a NaN pass never settles,
        # so doubling on would only reach NoConvergence at NODE_CAP
        calls = []

        def counted(f, h):
            calls.append(h)
            return apply_function(f, h)

        monkeypatch.setattr(segquad, "apply_function", counted)
        a, b = HermitianMatrix(np.diag([1e155, 2e155])), HermitianMatrix(np.diag([3e155, 5e154]))
        with np.errstate(all="ignore"), pytest.raises(
                NonFiniteEntries, match="^the 16-node quadrature sum of power:2 is not finite$"):
            segment_integral(from_descriptor("power:2"), a, b)
        assert len(calls) == QuadratureSpec().nodes


def _eigh_spoiling_one_matrix(monkeypatch, spoil):
    """Patch numpy's eigh, as matcore calls it, so that for every stack of
    more than one matrix the middle matrix's (w, v) pass through spoil."""
    real_eigh = np.linalg.eigh

    def fake(stack):
        w, v = real_eigh(stack)
        if w.ndim == 2 and w.shape[0] > 1:
            w, v = w.copy(), v.copy()
            i = w.shape[0] // 2
            w[i], v[i] = spoil(w[i], v[i])
        return w, v

    monkeypatch.setattr(matcore.np.linalg, "eigh", fake)


class TestBatchedChecks:
    """Stacking the quadrature nodes keeps every per-matrix check."""

    def _pair(self):
        rng = make_rng(7)
        return random_hermitian_raw(3, rng), random_hermitian_raw(3, rng)

    def test_bad_reconstruction_of_one_node_raises(self, monkeypatch):
        a, b = self._pair()

        def shift_eigenvalue(w, v):
            w[0] += 1e-6
            return w, v

        _eigh_spoiling_one_matrix(monkeypatch, shift_eigenvalue)
        with pytest.raises(ConvergenceFailure, match="reconstruction error"):
            segment_integral(builtin("exp"), a, b)

    def test_non_orthonormal_vectors_of_one_node_raise(self, monkeypatch):
        a, b = self._pair()

        def stretch_column(w, v):
            # V S diag(w / s^2) S V* reconstructs H, but V S is not unitary
            s = 1.0 + 1e-6
            v[:, 0] *= s
            w[0] /= s * s
            return w, v

        _eigh_spoiling_one_matrix(monkeypatch, stretch_column)
        with pytest.raises(ConvergenceFailure, match="not orthonormal"):
            segment_integral(builtin("exp"), a, b)

    def test_unspoiled_solver_passes(self, monkeypatch):
        a, b = self._pair()
        expected = segment_integral(builtin("exp"), a, b).entries
        _eigh_spoiling_one_matrix(monkeypatch, lambda w, v: (w, v))
        np.testing.assert_array_equal(segment_integral(builtin("exp"), a, b).entries, expected)

    def test_node_spectrum_outside_domain_raises_with_offending(self, monkeypatch):
        # Skip the endpoint checks: the node check alone must catch the
        # nodes t < 1/2, where tA + (1-t)B = diag(2t - 1, 1) leaves (0, inf).
        monkeypatch.setattr(segquad, "_check_spectrum_in_domain", lambda *args: None)
        a = HermitianMatrix(np.diag([1.0, 1.0]))
        b = HermitianMatrix(np.diag([-1.0, 1.0]))
        with pytest.raises(SpectrumOutOfDomain, match="outside domain") as err:
            segment_integral(builtin("inverse"), a, b, QuadratureSpec(nodes=16))
        # the first node, t0 = (1 + x0) / 2, is the first to fail
        t0 = (1.0 + np.polynomial.legendre.leggauss(16)[0][0]) / 2.0
        assert err.value.offending == [pytest.approx(2.0 * t0 - 1.0)]


class TestThinNodes:
    """The quadrature's nodes carry their stack and nothing else: no pass
    asks for a node's decomposition, and naming a node's eigenvalues reads
    them from its stack row."""

    @pytest.mark.parametrize("n", [4, 48])
    def test_no_node_is_decomposed_by_the_integral(self, monkeypatch, n):
        made = []
        build = segquad.segment_matrices

        def building(a, b, ts):
            nodes = build(a, b, ts)
            made.extend(nodes)
            return nodes

        monkeypatch.setattr(segquad, "segment_matrices", building)
        rng = make_rng(12)
        a, b = random_psd(n, rng), random_psd(n, rng)
        out = segment_integral(builtin("exp"), a, b, QuadratureSpec(nodes=16, rtol=1e-6))
        assert len(made) == 48 and [node._eigen for node in made] == [None] * 48
        assert all(node._stack is not None for node in made)
        # the integral is built exactly Hermitian and read-only
        assert bool((out.entries == out.entries.conj().T).all())
        assert not out.entries.flags.writeable and out.asymmetry_residual == 0.0

    def test_a_node_outside_the_domain_names_its_eigenvalues_from_its_stack(self, monkeypatch):
        # as above, but the error is raised with no further solver call: the
        # failing node's eigenvalues are its row of the opening stack
        monkeypatch.setattr(segquad, "_check_spectrum_in_domain", lambda *args: None)
        stacks = []
        real = matcore.eig_stack
        monkeypatch.setattr(matcore, "eig_stack", lambda s: stacks.append(len(s)) or real(s))
        a = HermitianMatrix(np.diag([1.0, 1.0]))
        b = HermitianMatrix(np.diag([-1.0, 1.0]))
        with pytest.raises(SpectrumOutOfDomain) as err:
            segment_integral(builtin("inverse"), a, b, QuadratureSpec(nodes=16))
        t0 = (1.0 + np.polynomial.legendre.leggauss(16)[0][0]) / 2.0
        assert err.value.offending == [pytest.approx(2.0 * t0 - 1.0)]
        assert stacks == [16 + 32]


@pytest.mark.parametrize("n, stack_sizes", [(4, [48]), (48, [1] * 48)])
def test_stacks_stay_within_the_entry_budget(monkeypatch, n, stack_sizes):
    real_eigh = np.linalg.eigh
    seen = []

    def recording(stack):
        seen.append(stack.shape[0])
        return real_eigh(stack)

    rng = make_rng(8)
    a, b = random_hermitian_raw(n, rng), random_hermitian_raw(n, rng)
    matcore.eig(a), matcore.eig(b)
    monkeypatch.setattr(matcore.np.linalg, "eigh", recording)
    segment_integral(builtin("exp"), a, b, QuadratureSpec(nodes=16, rtol=1e-6))
    # the 16 + 32 nodes of the opening pair fit one stack at small n; at
    # large n they go one matrix at a time
    assert seen == stack_sizes
    assert max(seen) * n * n <= max(segquad.STACK_ENTRY_BUDGET, n * n)


@pytest.mark.parametrize("n, stack_sizes", [(4, [48]), (48, [1] * 48)])
def test_f_is_applied_once_per_stack(monkeypatch, n, stack_sizes):
    # one map_stack call, one eval_array call, per stack of nodes; each node
    # still makes its own apply_function call
    mapped, evaluated, applied = [], [], []
    real_map, real_eval = matcore.map_stack, ScalarFunction.eval_array
    monkeypatch.setattr(matcore, "map_stack",
                        lambda f, w, v: mapped.append(w.shape[0]) or real_map(f, w, v))
    monkeypatch.setattr(ScalarFunction, "eval_array",
                        lambda f, xs: evaluated.append(xs.shape) or real_eval(f, xs))
    monkeypatch.setattr(segquad, "apply_function",
                        lambda f, h: applied.append(h) or apply_function(f, h))
    rng = make_rng(8)
    a, b = random_hermitian_raw(n, rng), random_hermitian_raw(n, rng)
    segment_integral(builtin("exp"), a, b, QuadratureSpec(nodes=16, rtol=1e-6))
    assert mapped == stack_sizes
    assert evaluated == [(size, n) for size in stack_sizes]
    assert len(applied) == 48


def _loop_sum(f, weights, points, like):
    """The reference sum: acc += weights[j] * f(points[j]), one image at a
    time in rule order."""
    acc = np.zeros_like(like)
    for weight, point in zip(weights.tolist(), points):
        acc += weight * apply_function(f, point).entries
    return acc


def _lone(node: HermitianMatrix) -> HermitianMatrix:
    """The same matrix with the same decomposition, in a stack of one."""
    es, lone = matcore.eig(node), matcore._exact_hermitian(node.entries)
    matcore._as_stack([lone], es.values[None], es.vectors[None])
    return lone


@pytest.mark.parametrize("n", [1, 2, 4, 10, 48])
def test_quadrature_sums_equal_the_per_node_loop_bit_for_bit(n):
    # The opening pair's passes, 16 then 32 nodes drawn from one stream (a
    # stack holds 40 points at n=10, so there the 32-node pass spans two
    # stacks), give the loop's bits, for segment points and for the same
    # points as lone matrices, each mapped as a stack of one.  A pairwise
    # sum, such as np.add.reduce over a run of 1x1 images, rounds otherwise.
    rng = make_rng(11 + n)
    a, b = random_psd(n, rng), random_psd(n, rng)
    (ts16, ws16), (ts32, ws32) = segquad._gauss_rule(16), segquad._gauss_rule(32)
    for desc in CATALOG_DESCRIPTORS:
        f = from_descriptor(desc)
        nodes = list(segquad.segment_points(a, b, np.concatenate([ts16, ts32])))
        lone = [_lone(h) for h in nodes]
        for points in (nodes, lone):
            stream = iter(points)
            sums = [segquad._weighted_sum(f, ws, stream, a.entries) for ws in (ws16, ws32)]
            loops = [_loop_sum(f, ws16, points[:16], a.entries),
                     _loop_sum(f, ws32, points[16:], a.entries)]
            assert [s.tobytes() for s in sums] == [x.tobytes() for x in loops], desc


def test_large_points_are_decomposed_one_stack_at_a_time(monkeypatch):
    # The opening pair's stream is lazy: while f is applied to a node, no
    # other stack of decomposed points is still alive.
    made, alive = [], []
    build, apply = segquad.segment_matrices, segquad.apply_function

    def building(*args):
        points = build(*args)
        made.append([weakref.ref(p) for p in points])
        return points

    def applying(f, point):
        alive.append(sum(any(ref() is not None for ref in stack) for stack in made))
        return apply(f, point)

    monkeypatch.setattr(segquad, "segment_matrices", building)
    monkeypatch.setattr(segquad, "apply_function", applying)
    rng = make_rng(9)
    a, b = random_hermitian_raw(48, rng), random_hermitian_raw(48, rng)
    segment_integral(builtin("exp"), a, b, QuadratureSpec(nodes=16, rtol=1e-6))
    assert [len(stack) for stack in made] == [1] * 48
    assert alive == [1] * 48


def test_each_pass_sums_the_stream_it_is_handed(monkeypatch):
    # exp from a one-node start needs several doublings: the first two
    # passes share the opening stream, each later pass gets its own, and
    # every pass draws exactly its rule's nodes from it
    passes = []
    real_pass = segquad._gauss_pass

    def recording(f, nodes, points, like):
        drawn = []

        def tap():
            for point in points:
                drawn.append(point)
                yield point

        out = real_pass(f, nodes, tap(), like)
        passes.append((nodes, len(drawn), points))
        return out

    monkeypatch.setattr(segquad, "_gauss_pass", recording)
    rng = make_rng(10)
    a, b = random_hermitian_raw(3, rng), random_hermitian_raw(3, rng)
    out = segment_integral(builtin("exp"), a, b, QuadratureSpec(nodes=1))
    rules = [nodes for nodes, _, _ in passes]
    assert len(rules) >= 3 and rules == [2 ** i for i in range(len(rules))]
    assert [drawn for _, drawn, _ in passes] == rules
    streams = [points for _, _, points in passes]
    assert streams[0] is streams[1]
    assert len({id(points) for points in streams[1:]}) == len(streams) - 1
    monkeypatch.undo()
    reference = segment_integral(builtin("exp"), a, b, QuadratureSpec(nodes=64))
    assert np.max(np.abs(out.entries - reference.entries)) <= 1e-10


class TestWordOracle:
    def test_r_one_is_midpoint(self):
        out = poly_segment_oracle(1, A_FIXED, B_FIXED)
        np.testing.assert_allclose(out.entries, ((A_FIXED + B_FIXED) / 2.0).entries, atol=1e-15)

    def test_r_three_fixed_pair(self):
        out = poly_segment_oracle(3, A_FIXED, B_FIXED)
        np.testing.assert_allclose(
            out.entries.real, [[31 / 6, 5 / 2], [5 / 2, 4 / 3]], atol=1e-13)

    def test_equal_identity_inputs(self):
        eye = HermitianMatrix(np.eye(2))
        out = poly_segment_oracle(2, eye, eye)
        np.testing.assert_allclose(out.entries, np.eye(2), atol=1e-15)

    def test_r_bounds(self):
        with pytest.raises(RTooLarge):
            poly_segment_oracle(7, A_FIXED, B_FIXED)
        with pytest.raises(BadParams):
            poly_segment_oracle(0, A_FIXED, B_FIXED)

    def test_exact_variant_fixed_pair(self):
        a = np.array([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]], dtype=object)
        b = np.array([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]], dtype=object)
        out = poly_segment_oracle_exact(3, a, b)
        assert out[0, 0] == Fraction(31, 6)
        assert out[0, 1] == Fraction(5, 2)
        assert out[1, 1] == Fraction(4, 3)

    def test_exact_r_one(self):
        a = np.array([[Fraction(2)]], dtype=object)
        b = np.array([[Fraction(0)]], dtype=object)
        assert poly_segment_oracle_exact(1, a, b)[0, 0] == Fraction(1)


class TestOracleEquivalence:
    def test_quadrature_matches_words_sampled(self):
        # exactness: an n-node rule integrates degree 2n-1, so nodes=4 covers r<=6
        rng = make_rng(6)
        spec = QuadratureSpec(nodes=4)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = random_hermitian_raw(n, rng)
            b = random_hermitian_raw(n, rng)
            for r in range(1, 7):
                f = builtin("power", r)
                quad = segment_integral(f, a, b, spec)
                words = poly_segment_oracle(r, a, b)
                scale = max(1.0, float(np.max(np.abs(words.entries))))
                assert np.max(np.abs(quad.entries - words.entries)) <= 1e-11 * scale

