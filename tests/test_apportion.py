from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from surgcurate.apportion import (
    as_fraction,
    format_points,
    largest_remainder,
    proportional_split,
    round_half_away_from_zero,
    round_to_points,
    waterfill_equal_split,
)


class TestAsFraction:
    def test_decimal_float_literals(self):
        assert as_fraction(0.15) == Fraction(3, 20)
        assert as_fraction(0.70) == Fraction(7, 10)
        assert as_fraction(0.405) == Fraction(81, 200)

    def test_strings(self):
        assert as_fraction("0.10") == Fraction(1, 10)
        assert as_fraction("3/20") == Fraction(3, 20)
        with pytest.raises(ValueError, match="zero denominator"):
            as_fraction("1/0")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            as_fraction(True)


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(1, 2), 1),
            (Fraction(-1, 2), -1),
            (Fraction(640 * 320, 480), 427),
            (Fraction(1920 * 320, 1080), 569),
            (Fraction(3), 3),
        ],
    )
    def test_half_away_from_zero(self, value, expected):
        assert round_half_away_from_zero(value) == expected

    def test_round_to_points(self):
        assert round_to_points(Fraction(300, 7)) == Fraction(4286, 100)
        assert round_to_points(Fraction(33225, 1000)) == Fraction(3323, 100)  # .5 up
        assert round_to_points(Fraction(-33225, 1000)) == Fraction(-3323, 100)

    def test_format_points(self):
        assert format_points(Fraction(300, 7)) == "42.86"
        assert format_points(Fraction(87, 10), signed=True) == "+8.70"
        assert format_points(Fraction(-392, 100), signed=True) == "-3.92"
        assert format_points(0) == "0.00"


class TestLargestRemainder:
    def test_split_ratio_anchors(self):
        assert largest_remainder([Fraction(7), Fraction(2), Fraction(1)], 10) == [7, 2, 1]
        quotas = [Fraction(r, 10) * 15 for r in (7, 2, 1)]
        assert largest_remainder(quotas, 15) == [11, 3, 1]

    def test_tie_goes_to_earlier_index(self):
        # remainders 0.5 / 0.0 / 0.5: one extra unit, first index wins
        assert largest_remainder([Fraction(21, 2), Fraction(3), Fraction(3, 2)], 15) == [11, 3, 1]

    def test_batch_composition(self):
        assert largest_remainder([Fraction(7, 10) * 64, Fraction(3, 10) * 64], 64) == [45, 19]

    def test_rejects_mismatched_total(self):
        with pytest.raises(ValueError):
            largest_remainder([Fraction(1), Fraction(1)], 3)

    @given(
        st.integers(1, 30).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 50), min_size=1, max_size=8))
        )
    )
    def test_properties(self, case):
        total, weights = case
        if sum(weights) == 0:
            return
        quotas = [Fraction(total * w, sum(weights)) for w in weights]
        out = largest_remainder(quotas, total)
        assert sum(out) == total
        for got, quota in zip(out, quotas):
            assert abs(Fraction(got) - quota) < 1


class TestWaterfill:
    def test_surplus_flows_to_uncapped_sibling(self):
        assert waterfill_equal_split(40, [100, 10]) == [30, 10]

    def test_no_caps_binding(self):
        assert waterfill_equal_split(100, [40, 40, 40, 280]) == [25, 25, 25, 25]

    def test_budget_equals_capacity(self):
        assert waterfill_equal_split(16, [4, 4, 4, 4]) == [4, 4, 4, 4]

    def test_cascading_caps(self):
        # equal share 5; cap 1 pins, then share 19/3; cap 4 pins, then 15/2
        assert waterfill_equal_split(20, [1, 4, 8, 100]) == [1, 4, 8, 7]

    def test_fractional_share_ties_to_lowest_index(self):
        assert waterfill_equal_split(10, [50, 50, 50]) == [4, 3, 3]

    def test_rejects_overfull_budget(self):
        with pytest.raises(ValueError):
            waterfill_equal_split(11, [5, 5])

    @given(
        st.lists(st.integers(0, 40), min_size=1, max_size=10).flatmap(
            lambda caps: st.tuples(st.just(caps), st.integers(0, sum(caps)))
        )
    )
    def test_properties(self, case):
        caps, budget = case
        out = waterfill_equal_split(budget, caps)
        assert sum(out) == budget
        assert all(0 <= got <= cap for got, cap in zip(out, caps))
        # uncapped children differ by at most one unit
        uncapped = [got for got, cap in zip(out, caps) if got < cap]
        if uncapped:
            assert max(uncapped) - min(uncapped) <= 1


class TestProportional:
    def test_exact(self):
        assert proportional_split(10, [60, 30, 10]) == [6, 3, 1]

    @given(
        st.lists(st.integers(0, 40), min_size=1, max_size=8).flatmap(
            lambda w: st.tuples(st.just(w), st.integers(0, sum(w)))
        )
    )
    def test_properties(self, case):
        weights, budget = case
        if sum(weights) == 0:
            return
        out = proportional_split(budget, weights)
        assert sum(out) == budget
        assert all(got <= w for got, w in zip(out, weights))
