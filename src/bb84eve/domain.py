"""The one parameter check shared by every module.

Every physical parameter (mean photon number, transmissions, strengths, error
rates, probabilities) is a finite real number in an interval.  Checking that
in one place keeps the domains the same in every module and rejects NaN and
infinities everywhere, including for parameters bounded only below.
"""

from __future__ import annotations

import math


def check_range(
    name: str, value: float, lo: float, hi: float = math.inf, *, open_lo: bool = False
) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and in ``[lo, hi]``.

    ``open_lo`` excludes ``lo`` itself.
    """
    if math.isfinite(value) and (lo < value if open_lo else lo <= value) and value <= hi:
        return
    left = "(" if open_lo else "["
    right = ")" if hi == math.inf else "]"
    raise ValueError(f"{name} must be finite and in {left}{lo:g}, {hi:g}{right}, got {value!r}")
