"""Log-log regression shared by every scaling bench."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ExponentFit", "loglog_fit"]


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    residual: float    # rms of log deviations


def loglog_fit(xs, ys) -> ExponentFit:
    """Least-squares fit of log y against log x."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if lx.size < 2 or (lx == lx[0]).all():
        raise ValueError("need at least two distinct x for a fit")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return ExponentFit(slope=float(slope), intercept=float(intercept), residual=resid)
