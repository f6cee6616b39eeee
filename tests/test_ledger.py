"""Exact-arithmetic checks of the exponent ledger."""

from fractions import Fraction

import pytest

from gpilab.ledger import (ExponentLedger, dominant_increment, gwp_condition,
                           gwp_threshold, ledger_table, step_law_exponent)


def rational_grid(count=10 ** 4):
    # interior rationals k/(count+1) scaled into (1/2, 1)
    denom = count + 1
    return [Fraction(1, 2) + Fraction(k, 2 * denom) for k in range(1, denom)]


def test_ledger_fields_are_exact():
    led = ExponentLedger.at(Fraction(3, 4))
    assert all(isinstance(e, Fraction) for e in led.increment_exponents)
    assert led.increment_exponents == (Fraction(0), Fraction(-1, 2),
                                       Fraction(-1, 2), Fraction(-5, 4))
    assert led.step_exponent == Fraction(1)
    assert led.energy_exponent == Fraction(1, 2)


def test_domain_validation():
    for bad in (Fraction(1, 2), Fraction(1), Fraction(1, 4), Fraction(3, 2)):
        with pytest.raises(ValueError):
            dominant_increment(bad)
        with pytest.raises(ValueError):
            gwp_condition(bad)
        with pytest.raises(ValueError):
            step_law_exponent(bad, 1)


def test_dominant_increment_examples():
    idx, e = dominant_increment(Fraction(3, 4))
    assert (idx, e) == (0, Fraction(0))
    idx, e = dominant_increment(Fraction(9, 10))
    assert (idx, e) == (0, Fraction(-3, 5))


def test_first_term_dominates_on_dense_grid():
    for s in rational_grid():
        idx, e = dominant_increment(s)
        assert idx == 0
        assert e == -1 + 4 * (1 - s)


def test_gwp_condition_examples():
    assert gwp_condition(Fraction(5, 6)) == (False, Fraction(0))
    assert gwp_condition(Fraction(9, 10)) == (True, Fraction(2, 5))
    assert gwp_condition(Fraction(3, 4)) == (False, Fraction(-1, 2))


def test_threshold_follows_the_increment_table(monkeypatch):
    # a first increment of -1 + 5(1-s) still dominates, and the condition
    # -1 + 9(1-s) < 2(1-s) flips at s = 6/7: the verdict reads the table
    import gpilab.ledger as ledger
    terms = ((Fraction(-1), Fraction(5)),) + ledger._INCREMENT_TERMS[1:]
    monkeypatch.setattr(ledger, "_INCREMENT_TERMS", terms)
    assert gwp_threshold() == Fraction(6, 7)


def test_gwp_condition_monotone_on_grid():
    verdicts = [gwp_condition(s)[0] for s in rational_grid(2000)]
    # once true, stays true
    first_true = verdicts.index(True)
    assert all(verdicts[first_true:])
    assert not any(verdicts[:first_true])


def test_iteration_count_examples_and_consistency():
    # T/delta segments on [0, T]: the segment count grows like N^{step_exponent}
    assert ExponentLedger.at(Fraction(5, 6)).step_exponent == Fraction(2, 3)
    for s in rational_grid(500):
        led = ExponentLedger.at(s)
        _, dom = dominant_increment(s)
        lhs = dom + led.step_exponent
        verdict, _ = gwp_condition(s)
        assert (lhs < led.energy_exponent) == verdict


def test_step_law_exponent_binding_terms():
    s = Fraction(3, 4)
    for a in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):   # -2a binds
        assert step_law_exponent(s, a) == -2 * a
    assert step_law_exponent(s, 2) == -6                         # d1 binds
    for s in (Fraction(3, 4), Fraction(5, 6), Fraction(9, 10)):
        a = Fraction(5, 2)
        assert step_law_exponent(s, a) == (2 * (1 - s) - a) / (s - Fraction(1, 2))
        assert step_law_exponent(s, 1) == -2                     # three-way tie
        for a in (0, Fraction(-1, 3), -2):                       # the cap binds
            assert step_law_exponent(s, a) == 0
    assert isinstance(step_law_exponent(Fraction(3, 4), Fraction(1, 2)), Fraction)


def test_step_law_d2_term_never_strictly_least():
    """e1 - e2 = (1-s)(1-a)/(s(s-1/2)) and e3 - e2 = 2(1-s)(a-1)/s have
    opposite signs off a = 1 and vanish at a = 1, so d2 never binds alone."""
    a_grid = [Fraction(k, 8) for k in range(-8, 48)]
    for s in rational_grid(104):
        for a in a_grid:
            e1 = (2 * (1 - s) - a) / (s - Fraction(1, 2))
            e2 = 2 * ((1 - s) - a) / s
            e3 = -2 * a
            assert e1 - e2 == (1 - s) * (1 - a) / (s * (s - Fraction(1, 2)))
            assert e3 - e2 == 2 * (1 - s) * (a - 1) / s
            assert not (e2 < e1 and e2 < e3)
            assert step_law_exponent(s, a) == min(0, e1, e3)


def test_threshold_bisection_is_exact():
    assert gwp_threshold() == Fraction(5, 6)
    assert gwp_threshold(max_denominator=10 ** 4) == Fraction(5, 6)


def test_ledger_table_rows():
    rows = ledger_table([Fraction(3, 4), Fraction(5, 6), Fraction(9, 10)])
    assert [r["gwp"] for r in rows] == [False, False, True]
    assert rows[0]["dominant_index"] == 0
    assert rows[1]["slack"] == "0"
    # everything stringly exact, no floats anywhere
    assert rows[2]["increment_exponents"][0] == "-3/5"
