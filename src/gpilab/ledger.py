"""Exact rational bookkeeping of the regularity-threshold argument.

Everything here is Fraction arithmetic; no floats.  The four increment
exponents are affine in (1 - s), in the fixed display order

    -1 + 4(1-s),  -1 + 2(1-s),  -2 + 6(1-s),  -5/2 + 5(1-s),

with the epsilon decorations ("+", "-") dropped: the ledger certifies
strict inequalities only away from the boundary s = 5/6, matching the
open threshold condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "ExponentLedger", "dominant_increment", "gwp_condition",
    "step_law_exponent", "gwp_threshold", "ledger_table",
]

# (constant term, coefficient of (1 - s)) per increment term, display order
_INCREMENT_TERMS = (
    (Fraction(-1), Fraction(4)),
    (Fraction(-1), Fraction(2)),
    (Fraction(-2), Fraction(6)),
    (Fraction(-5, 2), Fraction(5)),
)

_HALF = Fraction(1, 2)
_ONE = Fraction(1)


def _check_s(s) -> Fraction:
    s = Fraction(s)
    if not (_HALF < s < _ONE):
        raise ValueError(f"s must lie strictly in (1/2, 1), got {s}")
    return s


@dataclass(frozen=True)
class ExponentLedger:
    """All exponents of the iteration scheme at one exact regularity s."""

    s: Fraction
    increment_exponents: tuple
    step_exponent: Fraction      # delta ~ N^{-step_exponent}; T/delta segments
    energy_exponent: Fraction    # modified energy ~ N^{energy_exponent}

    @classmethod
    def at(cls, s) -> "ExponentLedger":
        s = _check_s(s)
        eps = _ONE - s
        terms = tuple(c0 + c1 * eps for c0, c1 in _INCREMENT_TERMS)
        return cls(s=s, increment_exponents=terms,
                   step_exponent=4 * eps, energy_exponent=2 * eps)


def dominant_increment(s) -> tuple:
    """(index, exponent) of the largest increment term; ties to lower index.

    The first term always wins on (1/2, 1): the pairwise gaps are
    2(1-s), 1 - 2(1-s) and 3/2 - (1-s), each positive there.
    """
    return max(enumerate(ExponentLedger.at(s).increment_exponents), key=lambda ie: ie[1])


def gwp_condition(s) -> tuple:
    """Whether the dominant increment plus the step exponent stays below the
    energy exponent of ExponentLedger.at(s); returns (verdict, slack).

    slack = 2(1-s) - (-1 + 4(1-s) + 4(1-s)) = 1 - 6(1-s); positive iff s > 5/6.
    """
    ledger = ExponentLedger.at(s)
    slack = ledger.energy_exponent - (max(ledger.increment_exponents)
                                      + ledger.step_exponent)
    return slack > 0, slack


def step_law_exponent(s, a) -> Fraction:
    """Exact exponent of N in delta_step's delta when g = N^a.

    Term by term, min(1, d1, d2, d3) becomes
        min(0, (2(1-s) - a)/(s - 1/2), 2((1-s) - a)/s, -2a).
    The d2 term is never strictly the least: e1 - e2 = (1-s)(1-a)/(s(s-1/2))
    and e3 - e2 = 2(1-s)(a-1)/s.  So the cap binds for a <= 0, -2a for
    0 < a < 1 and d1 for a > 1; all three terms tie at -2 when a = 1.
    """
    s, a = _check_s(s), Fraction(a)
    eps = _ONE - s
    return min(Fraction(0), (2 * eps - a) / (s - _HALF), 2 * (eps - a) / s, -2 * a)


def gwp_threshold(max_denominator: int = 10 ** 6) -> Fraction:
    """Locate the verdict flip of gwp_condition by rational bisection.

    Bisects midpoints over (1/2, 1) until the bracket is narrow enough
    that limit_denominator must return the true flip point (any rational
    with denominator <= max_denominator is recovered once the midpoint is
    within 1/(2 * max_denominator^2) of it); the result is exactly 5/6.
    """
    lo, hi = Fraction(51, 100), Fraction(99, 100)
    if gwp_condition(lo)[0] or not gwp_condition(hi)[0]:
        raise RuntimeError("bisection bracket does not straddle the threshold")
    while hi - lo > Fraction(1, max_denominator) ** 2:
        mid = (lo + hi) / 2
        if gwp_condition(mid)[0]:
            hi = mid
        else:
            lo = mid
    return ((lo + hi) / 2).limit_denominator(max_denominator)


def ledger_table(s_grid) -> list:
    """One row of exact exponents and the verdict per requested s."""
    rows = []
    for s in s_grid:
        ledger = ExponentLedger.at(s)
        idx, exponent = dominant_increment(s)
        verdict, slack = gwp_condition(s)
        rows.append({
            "s": str(ledger.s),
            "increment_exponents": [str(e) for e in ledger.increment_exponents],
            "dominant_index": idx,
            "dominant_exponent": str(exponent),
            "step_exponent": str(ledger.step_exponent),
            "energy_exponent": str(ledger.energy_exponent),
            "gwp": verdict,
            "slack": str(slack),
        })
    return rows
