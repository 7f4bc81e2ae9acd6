"""Working precision and the Taylor coefficients of log Gamma(1+x).

Importing this module sets mpmath's default working precision to 40
significant digits.  No mpmath number is frozen here: pi, Euler's constant
and zeta(k) are read from mpmath when they are used, so inside
``mp.workdps(60)`` they carry 60 digits too."""

from __future__ import annotations

import mpmath
from mpmath import mp, mpf

mp.dps = 40


def log_gamma_coeffs(order: int) -> list:
    """Taylor coefficients of log Gamma(1+x) up to x^order (index = power),
    at the current working precision."""
    coeffs = [mpf(0), -mp.euler]
    for k in range(2, order + 1):
        coeffs.append((-1) ** k * mpmath.zeta(k) / k)
    return coeffs
