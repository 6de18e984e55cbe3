"""50-digit steady-state reference for accuracy claims.

The reference starts from the off-diagonal transfer rates of the
package's `rate_matrix` (each a sum of positive terms, so accurate to a few
ulps even at 1e-30) and never uses its double-precision diagonal: that
diagonal is a cancelling column sum that already loses the smallest rates
(at T = 1/0.05/0.05 it turns rho77 into about -6e-26).  The stationary
vector is found by Grassmann-Taksar-Heyman state reduction, which involves
no subtraction, carried out in mpmath at `DIGITS` significant digits.
"""

from __future__ import annotations

import mpmath
import numpy as np

DIGITS = 50
DARK = 3


def _gth(rates: list[list]) -> list:
    """Stationary vector of the chain with rates[i][j] = rate j -> i."""
    n = len(rates)
    A = [row[:] for row in rates]
    out = [None] * n
    for k in range(n - 1, 0, -1):
        out[k] = mpmath.fsum(A[i][k] for i in range(k))
        if out[k] == 0:
            raise ValueError(f"state {k} has no outflow to states below it")
        for i in range(k):
            if A[i][k] == 0:
                continue
            f = A[i][k] / out[k]
            for j in range(k):
                if j != i:
                    A[i][j] += f * A[k][j]
    p = [mpmath.mpf(1)] + [None] * (n - 1)
    for k in range(1, n):
        p[k] = mpmath.fsum(p[i] * A[k][i] for i in range(k)) / out[k]
    total = mpmath.fsum(p)
    return [x / total for x in p]


def reference_populations(W: np.ndarray, rho44_init: float | None = None) -> np.ndarray:
    """Eight steady populations, rounded to double from a DIGITS-digit solve.

    With rho44_init the dark state (index 3) is pinned at that value and the
    other seven states share the rest, as `steady_state` defines it.
    """
    keep = [k for k in range(8) if rho44_init is None or k != DARK]
    with mpmath.workdps(DIGITS):
        rates = [[mpmath.mpf(float(W[i, j])) if i != j else mpmath.mpf(0) for j in keep]
                 for i in keep]
        q = _gth(rates)
        scale = 1 if rho44_init is None else 1 - mpmath.mpf(rho44_init)
        p = np.zeros(8)
        for k, x in zip(keep, q):
            p[k] = float(x * scale)
        if rho44_init is not None:
            p[DARK] = rho44_init
    return p
