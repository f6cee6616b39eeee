"""Log-log regression oracle tests."""

import numpy as np
import pytest

from gpilab.fitting import loglog_fit


def test_recovers_exact_power_law():
    xs = [2, 4, 8, 16]
    ys = [3.0 * x ** -1.5 for x in xs]
    fit = loglog_fit(xs, ys)
    assert abs(fit.slope + 1.5) < 1e-12
    assert abs(np.exp(fit.intercept) - 3.0) < 1e-12
    assert fit.residual < 1e-12


def test_residual_reflects_scatter():
    rng = np.random.default_rng(0)
    xs = np.geomspace(1, 100, 20)
    ys = xs ** 2.0 * np.exp(rng.normal(0, 0.1, size=20))
    fit = loglog_fit(xs, ys)
    assert abs(fit.slope - 2.0) < 0.1
    assert 0.0 < fit.residual < 0.3


def test_needs_two_points():
    with pytest.raises(ValueError):
        loglog_fit([1.0], [1.0])


def test_needs_two_distinct_x():
    # a repeated frequency leaves one point to fit: no slope, not a verdict
    with pytest.raises(ValueError, match="two distinct x"):
        loglog_fit([4, 4], [0.3, 0.4])
    with pytest.raises(ValueError, match="two distinct x"):
        loglog_fit([4.0, 4, 4.0], [1.0, 2.0, 3.0])
    assert loglog_fit([4, 4, 8], [1.0, 1.0, 2.0]).slope > 0
