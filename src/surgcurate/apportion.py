"""Exact-arithmetic rounding and quota apportionment helpers.

Everything here works on :class:`fractions.Fraction` so that integer
allocations are reproducible bit-for-bit and never drift with float error.
All tie-breaking rules are positional (earlier index wins), which callers
exploit by ordering their inputs (Train before Val before Test, lower
cluster index first, and so on).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

Rational = Union[int, float, str, Fraction]


def as_fraction(value: Rational) -> Fraction:
    """Coerce a number to an exact Fraction.

    Floats are interpreted through their shortest decimal repr, so
    ``as_fraction(0.15) == Fraction(3, 20)`` rather than the binary float
    expansion. Strings may be decimal ("0.15") or ratio ("3/20") literals;
    a zero denominator ("1/0") is a ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational quantity")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def round_half_away_from_zero(value: Rational) -> int:
    """Round to the nearest integer, ties away from zero.

    Exact for Fraction input; this is the single rounding rule used across
    the package (image geometry, budgets, display scores).
    """
    f = as_fraction(value)
    if f < 0:
        return -round_half_away_from_zero(-f)
    # floor(f + 1/2) for non-negative f
    return (2 * f.numerator + f.denominator) // (2 * f.denominator)


def round_to_points(value: Rational) -> Fraction:
    """Round a score to two decimal places, ties away from zero.

    Returns a Fraction with denominator dividing 100 so further exact
    arithmetic (deltas, means) stays possible after rounding.
    """
    return Fraction(round_half_away_from_zero(as_fraction(value) * 100), 100)


def format_points(value: Rational, signed: bool = False) -> str:
    """Render a score at two decimals using the house rounding rule."""
    f = round_to_points(value)
    sign = "-" if f < 0 else ("+" if signed else "")
    units, frac = divmod(abs(f.numerator) * 100 // f.denominator, 100)
    return f"{sign}{units}.{frac:02d}"


def largest_remainder(quotas: Sequence[Rational], total: int) -> list[int]:
    """Integerize real-valued quotas so they sum exactly to `total`.

    Each quota is floored; the leftover units go to the largest fractional
    remainders, earlier index winning ties. Quotas must sum to `total`
    exactly (callers construct them that way, e.g. ratios scaled by n).
    """
    fracs = [as_fraction(q) for q in quotas]
    if any(q < 0 for q in fracs):
        raise ValueError("quotas must be non-negative")
    if sum(fracs) != total:
        raise ValueError(f"quotas sum to {sum(fracs)}, expected {total}")
    floors = [q.numerator // q.denominator for q in fracs]
    remainders = [q - fl for q, fl in zip(fracs, floors)]
    extras = total - sum(floors)
    # stable sort: descending remainder, ascending index on ties
    order = sorted(range(len(fracs)), key=lambda i: (-remainders[i], i))
    out = list(floors)
    for i in order[:extras]:
        out[i] += 1
    return out


def waterfill_equal_split(budget: int, capacities: Sequence[int]) -> list[int]:
    """Split an integer budget equally among children, respecting capacities.

    Children whose capacity falls at or below the current equal share are
    pinned to their capacity; the freed surplus is re-split equally among
    the remaining children until the split is stable. The final fractional
    share is integerized largest-remainder style; since every uncapped
    child holds the same share, ties resolve to the lowest index.

    Requires budget <= sum(capacities).
    """
    caps = [int(c) for c in capacities]
    if any(c < 0 for c in caps):
        raise ValueError("capacities must be non-negative")
    if budget > sum(caps):
        raise ValueError(f"budget {budget} exceeds total capacity {sum(caps)}")
    if budget < 0:
        raise ValueError("budget must be non-negative")

    alloc = [0] * len(caps)
    uncapped = list(range(len(caps)))
    remaining = budget
    while uncapped:
        share = Fraction(remaining, len(uncapped))
        pinned = [i for i in uncapped if caps[i] <= share]
        if not pinned:
            break
        for i in pinned:
            alloc[i] = caps[i]
            remaining -= caps[i]
        uncapped = [i for i in uncapped if caps[i] > share]

    if uncapped:
        base = remaining // len(uncapped)
        extras = remaining - base * len(uncapped)
        for rank, i in enumerate(uncapped):  # already in ascending index order
            alloc[i] = base + (1 if rank < extras else 0)
    return alloc


def proportional_split(budget: int, weights: Sequence[int]) -> list[int]:
    """Split an integer budget proportionally to integer weights.

    Used by the proportional allocation mode; capacities equal the weights
    (subtree sizes), so quotas can never exceed them when budget <= sum.
    """
    total_w = sum(weights)
    if total_w <= 0:
        raise ValueError("weights must sum to a positive value")
    if budget > total_w:
        raise ValueError(f"budget {budget} exceeds total weight {total_w}")
    quotas = [Fraction(budget * w, total_w) for w in weights]
    return largest_remainder(quotas, budget)
