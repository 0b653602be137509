import math

import numpy as np
import pytest

from conftest import make_rng
from hhmat import funcat
from hhmat.errors import BadParams, FlagContradicted, UnknownName
from hhmat.funcat import CATALOG_DESCRIPTORS, Interval, builtin, from_descriptor, validate_flags


class TestInterval:
    def test_contains_with_endpoint_stretch(self):
        j = Interval(0.0, 2.0)
        assert j.contains(0.0) and j.contains(2.0)
        assert j.contains(-1e-10)  # inside the stretch
        assert not j.contains(-1e-6)

    def test_open_endpoint_is_strict(self):
        j = Interval(0.0, math.inf, lo_open=True)
        assert j.contains(1e-300)
        assert not j.contains(0.0)
        assert not j.contains(-1e-12)

    def test_half_line_pad_scales_with_point(self):
        j = Interval(lo=0.0)
        assert j.contains(-1e-10)
        assert j.contains(1e12)

    def test_half_line_pad_scales_at_a_far_endpoint(self):
        j = Interval(lo=100.0)
        below = [100.0 - 5e-8, 100.0 - 2e-7]  # the pad here is about 1e-7
        assert j.contains_array(np.array(below)).tolist() == [True, False]
        assert [j.contains(x) for x in below] == [True, False]

    def test_half_line_excludes_the_infinity_beyond_its_finite_end(self):
        lower, upper = Interval(lo=0.0), Interval(hi=0.0)
        assert not lower.contains(-math.inf) and lower.contains(math.inf)
        assert not upper.contains(math.inf) and upper.contains(-math.inf)
        assert lower.contains_array(np.array([-math.inf, math.inf])).tolist() == [False, True]
        assert upper.contains_array(np.array([-math.inf, math.inf])).tolist() == [True, False]

    def test_real_line_clips_nothing(self):
        xs = np.array([-1e300, 0.0, 1e300])
        assert Interval().clip(xs) is xs
        assert Interval(lo=0.0).clip(xs).tolist() == [0.0, 0.0, 1e300]

    def test_empty_interval_rejected(self):
        with pytest.raises(BadParams):
            Interval(2.0, 1.0)

    # Membership of POINTS, one digit per point, under the stretched rule.
    @pytest.mark.parametrize("interval, expected", [
        (Interval(0.0, 2.0), "0111111100000"),
        (Interval(lo=0.0), "0011111111010"),
        (Interval(0.0, math.inf, lo_open=True), "0000111111010"),
        (Interval(), "1111111111110"),
    ])
    def test_contains_array_applies_the_stretched_rule(self, interval, expected):
        points = [-1e-6, -2e-9, -1e-10, 0.0, 1e-300, 1.0, 2.0, 2.0 + 1e-9, 3.0,
                  3.0 - 1e-15, -1e12, 1e12, math.nan]
        got = interval.contains_array(np.array(points[:12]).reshape(3, 4))
        assert got.shape == (3, 4)
        assert "".join("1" if x else "0" for x in got.ravel()) == expected[:12]
        assert "".join("1" if interval.contains(x) else "0" for x in points) == expected


class TestCatalog:
    def test_identity_flags(self):
        f = builtin("identity")
        assert f.flags.convex and f.flags.operator_convex
        assert f.flags.increasing
        assert f.flags.f0_nonpositive  # f(0) = 0
        assert f(3.5) == 3.5

    def test_cube_flags(self):
        f = builtin("cube")
        assert f.domain.lo == 0.0
        assert f.flags.convex and f.flags.increasing
        assert f.flags.operator_convex is False
        assert f.flags.f0_nonpositive
        assert f(2.0) == 8.0

    def test_power_two_is_operator_convex(self):
        f = builtin("power", 2)
        assert f.flags.operator_convex is True
        assert f.flags.convex is True
        assert f.flags.increasing is False  # on all of R
        assert f(-3.0) == 9.0

    def test_power_restriction_changes_monotonicity(self):
        f = builtin("power", 2, domain=(0.0, math.inf))
        assert f.flags.increasing is True

    def test_power_between_one_and_two(self):
        f = builtin("power", 1.5)
        assert f.domain.lo == 0.0
        assert f.flags.operator_convex is True

    def test_power_below_one_rejected(self):
        with pytest.raises(BadParams):
            builtin("power", 0.5)

    def test_odd_power_on_real_line_not_convex(self):
        f = builtin("power", 3)
        assert f.flags.convex is False
        assert f.flags.increasing is True

    def test_exp_flags(self):
        f = builtin("exp")
        assert f.flags.convex and f.flags.increasing and f.flags.positive
        assert f.flags.operator_convex is False
        assert f.flags.f0_nonpositive is False

    def test_inverse_flags(self):
        f = builtin("inverse")
        assert f.domain.lo_open
        assert f.flags.operator_convex and f.flags.convex and f.flags.positive
        assert f.flags.increasing is False
        assert f(4.0) == 0.25

    def test_neg_sqrt_flags(self):
        f = builtin("neg_sqrt")
        assert f.flags.operator_convex and f.flags.convex
        assert f.flags.increasing is False and f.flags.positive is False
        assert f(4.0) == -2.0

    def test_xlogx_flags_and_zero_limit(self):
        f = builtin("xlogx")
        assert f.flags.operator_convex and f.flags.convex
        assert f(0.0) == 0.0
        assert f(1.0) == 0.0
        assert f(math.e) == pytest.approx(math.e)

    def test_affine_flags(self):
        f = builtin("affine", 2.0, 0.5)
        assert f.flags.convex and f.flags.operator_convex and f.flags.increasing
        g = builtin("affine", -1.0, 0.0)
        assert g.flags.increasing is False
        assert g.flags.f0_nonpositive is True

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            builtin("sigmoid")

    def test_bad_param_count(self):
        with pytest.raises(BadParams):
            builtin("affine", 1.0)

    def test_domain_restriction_must_nest(self):
        with pytest.raises(BadParams):
            builtin("cube", domain=(-1.0, 1.0))

    def test_descriptor_parsing(self):
        f = from_descriptor("power:2@0,inf")
        assert f.domain.lo == 0.0 and f.flags.increasing
        g = from_descriptor("affine:1,-0.5")
        assert g(2.0) == 1.5
        assert from_descriptor("exp").name == "exp"

    @pytest.mark.parametrize("text", ["power:abc", "exp@0", "power:2@0,x", "affine:1,"])
    def test_malformed_number_in_descriptor(self, text):
        with pytest.raises(BadParams, match="cannot parse function descriptor"):
            from_descriptor(text)

    def test_descriptor_functions_are_shared(self):
        assert from_descriptor("power:2") is from_descriptor("power:2")
        assert from_descriptor("power:2") is not from_descriptor("power:2@0,inf")
        assert from_descriptor("affine:2,0.5") == from_descriptor("affine:2,0.5")


INTERVALS = {
    "identity": (-2.0, 2.0),
    "affine:2,0.5": (-1.0, 1.0),
    "power:1.5": (0.0, 2.0),
    "power:2": (-2.0, 2.0),
    "power:2@0,inf": (0.0, 3.0),
    "power:4": (-2.0, 2.0),
    "cube": (0.0, 3.0),
    "exp": (-1.0, 1.0),
    "neg_sqrt": (0.0, 2.0),
    "inverse": (0.25, 2.0),
    "xlogx": (0.0, 2.0),
}


class TestValidateFlags:
    def test_cube_convexity_confirmed(self):
        report = validate_flags(builtin("cube"), (0.0, 2.0), 101, rng=make_rng(0))
        assert report.checks["convex"].status == "confirmed"
        assert report.checks["increasing"].status == "confirmed"

    def test_exp_confirmed(self):
        report = validate_flags(builtin("exp"), (-1.0, 1.0), 101, rng=make_rng(1))
        assert report.checks["convex"].status == "confirmed"
        assert report.checks["increasing"].status == "confirmed"
        assert report.checks["positive"].status == "confirmed"

    def test_cube_operator_convexity_witnessed_false(self):
        report = validate_flags(builtin("cube"), (0.0, 3.0), 101, rng=make_rng(2))
        assert report.checks["operator_convex"].status == "witnessed_false"
        assert report.checks["operator_convex"].witness is not None

    def test_claiming_cube_operator_convex_raises_with_witness(self):
        with pytest.raises(FlagContradicted) as err:
            validate_flags(builtin("cube"), (0.0, 3.0), 101, rng=make_rng(3),
                           claims={"operator_convex": True})
        assert err.value.flag == "operator_convex"
        assert err.value.witness is not None

    def test_false_claim_without_witness_is_reported_not_raised(self):
        # claiming exp is not increasing finds no refuting witness (it is),
        # and the incomplete search is reported honestly
        report = validate_flags(builtin("exp"), (-1.0, 1.0), 101, rng=make_rng(4),
                                claims={"increasing": False})
        assert report.checks["increasing"].status == "no_witness"

    def test_declared_true_positivity_contradicted(self):
        with pytest.raises(FlagContradicted) as err:
            validate_flags(builtin("identity"), (-1.0, 1.0), 101, rng=make_rng(5),
                           claims={"positive": True})
        assert err.value.flag == "positive"

    def test_interval_outside_domain_rejected(self):
        with pytest.raises(BadParams):
            validate_flags(builtin("cube"), (-1.0, 1.0), 101)

    def test_whole_catalog_validates(self):
        # every declared-true flag passes; declared-false flags either find
        # a witness or are honestly reported unwitnessed
        rng = make_rng(99)
        for desc in CATALOG_DESCRIPTORS:
            f = from_descriptor(desc)
            report = validate_flags(f, INTERVALS[desc], 151, rng=rng, matrix_trials=25)
            for flag, declared in f.flags.as_dict().items():
                if declared is True:
                    assert report.checks[flag].status == "confirmed", (desc, flag)

    def test_operator_convex_entries_pass_sampling(self):
        rng = make_rng(17)
        for desc in ("power:1.5", "power:2", "inverse", "neg_sqrt", "xlogx"):
            f = from_descriptor(desc)
            report = validate_flags(f, INTERVALS[desc], 101, rng=rng, matrix_trials=30)
            assert report.checks["operator_convex"].status == "confirmed", desc


# The per-point formulas the catalog used before its entries were written as
# numpy array functions; the array forms must reproduce them.
SCALAR_REFERENCE = {
    "identity": lambda x: x,
    "affine:2,0.5": lambda x: 2.0 * x + 0.5,
    "power:1.5": lambda x: max(x, 0.0) ** 1.5,
    "power:2": lambda x: x ** 2,
    "power:2@0,inf": lambda x: x ** 2,
    "power:4": lambda x: x ** 4,
    "cube": lambda x: x ** 3,
    "exp": math.exp,
    "neg_sqrt": lambda x: -math.sqrt(max(x, 0.0)),
    "inverse": lambda x: 1.0 / x,
    "xlogx": lambda x: 0.0 if x <= 0.0 else x * math.log(x),
}
MAX_ULP = 4


def _domain_grid(f, lo: float, hi: float) -> np.ndarray:
    """Points over [lo, hi] with both endpoints, 0 when f admits it, and a
    point just below a closed lower endpoint inside the domain stretch."""
    points = list(np.linspace(lo, hi, 201))
    if f.domain.contains(0.0):
        points.append(0.0)
    if not f.domain.lo_open and math.isfinite(f.domain.lo):
        below = f.domain.lo - 1e-10
        assert f.domain.contains(below)
        points.append(below)
    return np.array(points)


@pytest.mark.parametrize("desc", CATALOG_DESCRIPTORS)
def test_array_form_matches_scalar_call_and_reference(desc):
    assert set(SCALAR_REFERENCE) == set(CATALOG_DESCRIPTORS)
    f = from_descriptor(desc)
    grid = _domain_grid(f, *INTERVALS[desc])
    array = f.eval_array(grid)
    scalar = np.array([f(x) for x in grid])
    reference = np.array([SCALAR_REFERENCE[desc](float(x)) for x in grid])
    np.testing.assert_array_max_ulp(array, scalar, maxulp=MAX_ULP)
    np.testing.assert_array_max_ulp(array, reference, maxulp=MAX_ULP)
    assert f.eval_array(grid.reshape(-1, 1)).shape == (grid.size, 1)
