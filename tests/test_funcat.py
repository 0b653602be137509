import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from hhmat import funcat
from hhmat.errors import BadInterval, BadParams, FlagContradicted, UnknownName
from hhmat.funcat import (CATALOG_DESCRIPTORS, Interval, builtin, from_descriptor, validate_flags,
                          working_interval)
from hhmat.harness import instance_to_json
from hhmat.matcore import apply_function, matrix_from_json
from hhmat.orders import loewner_leq


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
        with pytest.raises(BadInterval, match=r"^empty interval \[2.0, 1.0\]$"):
            Interval(2.0, 1.0)

    # one text per defect: empty (a NaN end included), or not of finite length
    @pytest.mark.parametrize("lo, hi, message", [
        (2.0, 1.0, "empty interval [2.0, 1.0]"),
        (1.0, 1.0, "empty interval [1.0, 1.0]"),
        (math.nan, 2.0, "empty interval [nan, 2.0]"),
        (0.5, math.inf, "interval [0.5, inf] is not finite"),
        (-math.inf, 2.0, "interval [-inf, 2.0] is not finite"),
        (-1e308, 1e308, "interval [-1e+308, 1e+308] is not finite"),
    ])
    def test_working_interval_names_its_defect(self, lo, hi, message):
        with pytest.raises(BadInterval) as info:
            working_interval(lo, hi)
        assert str(info.value) == message

    def test_working_interval_is_the_closed_interval(self):
        assert working_interval(0, 2) == Interval(0.0, 2.0)

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

    @pytest.mark.parametrize("desc, power", [
        ("power:1.5", 1.5), ("power:2@0,inf", 2.0), ("cube", 3.0), ("exp", None),
        ("identity", None), ("affine:2,0.5", None),
    ])
    def test_power_is_the_exponent_of_a_power(self, desc, power):
        assert from_descriptor(desc).power == power

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
    @pytest.mark.parametrize("desc, interval", [("cube", (0.0, 2.0)), ("exp", (-1.0, 1.0))])
    def test_declared_flags_hold(self, desc, interval):
        assert validate_flags(from_descriptor(desc), interval) is None

    def test_claiming_cube_operator_convex_raises_with_witness(self):
        with pytest.raises(FlagContradicted) as err:
            validate_flags(builtin("cube"), (0.0, 3.0), claims={"operator_convex": True})
        assert err.value.flag == "operator_convex"
        assert err.value.witness is not None

    def test_a_flag_claimed_false_is_not_tested(self):
        # exp is increasing, and claiming it is not finds no witness
        assert validate_flags(builtin("exp"), (-1.0, 1.0), claims={"increasing": False}) is None

    def test_declared_true_positivity_contradicted(self):
        with pytest.raises(FlagContradicted) as err:
            validate_flags(builtin("identity"), (-1.0, 1.0), claims={"positive": True})
        assert err.value.flag == "positive"

    def test_identity_on_a_wide_interval_is_operator_convex(self):
        # the star probe's gaps carry rounding of operands near 1e8
        assert validate_flags(builtin("identity"), (-1e8, 1e8)) is None

    def test_interval_outside_domain_rejected(self):
        with pytest.raises(BadParams):
            validate_flags(builtin("cube"), (-1.0, 1.0))

    @pytest.mark.parametrize("desc", CATALOG_DESCRIPTORS)
    def test_every_declared_flag_of_the_catalog_holds(self, desc):
        assert validate_flags(from_descriptor(desc), INTERVALS[desc]) is None

    @pytest.mark.parametrize("interval, error, message", [
        ((0.5, math.inf), BadInterval, "interval [0.5, inf] is not finite"),
        ((1.0, 1.0), BadInterval, "empty interval [1.0, 1.0]"),
        ((0.5, 1e308), BadParams, "exp is not finite on [0.5, 1e+308]"),
    ])
    def test_a_non_working_interval_raises_one_error_and_no_warning(self, interval, error,
                                                                    message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as err:
                validate_flags(from_descriptor("exp"), interval)
        assert str(err.value) == message

    def test_grid_tests_near_the_float_max_raise_no_warning(self):
        # f reaches 1e308 here, so the midpoint test must halve before it adds
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_flags(from_descriptor("power:2"), (0.0, 1e154),
                                  claims={"operator_convex": None}) is None

    # power:3 is not convex on [-1, 1] and power:2 not increasing there
    @pytest.mark.parametrize("desc, flag", [("power:3", "convex"), ("power:2", "increasing")])
    def test_grid_witness_is_the_worst_pair(self, desc, flag):
        f = from_descriptor(desc)
        assert validate_flags(f, (-1.0, 1.0)) is None  # declared false, so not tested
        grid = np.linspace(-1.0, 1.0, funcat.FLAG_GRID_POINTS)
        pairs = [(s, t) for k, s in enumerate(grid) for t in grid[k + 1:]]
        if flag == "convex":
            worst = min(pairs, key=lambda p: (f(p[0]) + f(p[1])) / 2.0 - f((p[0] + p[1]) / 2.0))
            excess = (f(worst[0]) + f(worst[1])) / 2.0 - f((worst[0] + worst[1]) / 2.0)
        else:
            worst = max(pairs, key=lambda p: f(p[0]) - f(p[1]))
            excess = f(worst[0]) - f(worst[1])
        with pytest.raises(FlagContradicted) as err:
            validate_flags(f, (-1.0, 1.0), claims={flag: True})
        assert err.value.flag == flag
        assert err.value.witness[:2] == worst
        assert err.value.witness[2] == pytest.approx(excess, rel=1e-12)


NOT_OPERATOR_CONVEX = [d for d in CATALOG_DESCRIPTORS
                       if from_descriptor(d).flags.operator_convex is False]
PROBE_INTERVALS = [(0.0, 2.0), (0.25, 2.0), (0.5, 2.0)]


def _replay_operator_convexity_witness(f, witness, interval):
    """Margin of the midpoint inequality on the witness pair, read back from
    its JSON text; both matrices have their spectra inside the interval."""
    pair = json.loads(json.dumps(instance_to_json(witness)))
    A, B = matrix_from_json(pair["a"]), matrix_from_json(pair["b"])
    for h in (A, B):
        spectrum = np.linalg.eigvalsh(h.entries)
        assert interval[0] <= spectrum[0] and spectrum[-1] <= interval[1]
    verdict = loewner_leq(apply_function(f, 0.5 * A + 0.5 * B),
                          0.5 * apply_function(f, A) + 0.5 * apply_function(f, B))
    assert not verdict.holds
    return verdict.margin


@pytest.mark.parametrize("interval", PROBE_INTERVALS + [(0.0, 3.0)])
@pytest.mark.parametrize("desc", NOT_OPERATOR_CONVEX + ["power:3@0,inf", "power:2.5"])
def test_operator_convexity_witness_replays_to_the_same_margin(desc, interval):
    f = from_descriptor(desc)
    assert validate_flags(f, interval) is None  # declared false, so not tested
    with pytest.raises(FlagContradicted) as err:
        validate_flags(f, interval, claims={"operator_convex": True})
    replayed = _replay_operator_convexity_witness(f, err.value.witness, interval)
    assert replayed.hex() == err.value.witness["margin"].hex()


# Flags of each catalog entry, and of its restrictions to [0, 2] and [0.5, 2],
# as they were when each entry wrote f0_nonpositive by hand: convex,
# increasing, positive, operator_convex, f0_nonpositive as T, F or - (None).
HAND_WRITTEN_FLAGS = {
    "identity": "TTFTT", "identity@0,2": "TTFTT", "identity@0.5,2": "TTTT-",
    "affine:2,0.5": "TTFTF", "affine:2,0.5@0,2": "TTTTF", "affine:2,0.5@0.5,2": "TTTT-",
    "power:1.5": "TTFTT", "power:1.5@0,2": "TTFTT", "power:1.5@0.5,2": "TTTT-",
    "power:2": "TFFTT", "power:2@0,2": "TTFTT", "power:2@0.5,2": "TTTT-",
    "power:2@0,inf": "TTFTT",
    "power:4": "TFFFT", "power:4@0,2": "TTFFT", "power:4@0.5,2": "TTTF-",
    "cube": "TTFFT", "cube@0,2": "TTFFT", "cube@0.5,2": "TTTF-",
    "exp": "TTTFF", "exp@0,2": "TTTFF", "exp@0.5,2": "TTTFF",
    "neg_sqrt": "TFFTT", "neg_sqrt@0,2": "TFFTT", "neg_sqrt@0.5,2": "TFFT-",
    "inverse": "TFTT-", "inverse@0,2": "TFTT-", "inverse@0.5,2": "TFTT-",
    "xlogx": "TFFTT", "xlogx@0,2": "TFFTT", "xlogx@0.5,2": "TFFT-",
}


def test_f0_nonpositive_rule_keeps_every_flag_but_exp_off_zero():
    restricted = {d.partition("@")[0] + dom
                  for d in CATALOG_DESCRIPTORS for dom in ("@0,2", "@0.5,2")}
    assert set(HAND_WRITTEN_FLAGS) == set(CATALOG_DESCRIPTORS) | restricted
    code = {True: "T", False: "F", None: "-"}
    changed = {}
    for desc, before in HAND_WRITTEN_FLAGS.items():
        now = "".join(code[v] for v in asdict(from_descriptor(desc).flags).values())
        if now != before:
            changed[desc] = (before, now)
    # exp(0) = 1 > 0 is no fact about f on [0.5, 2], which holds no 0
    assert changed == {"exp@0.5,2": ("TTTFF", "TTTF-")}


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
