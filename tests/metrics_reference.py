"""The scalar two-sided test that ``metrics._two_sample_tests`` replaced, kept as a reference.

``two_sided_test`` tests one cell in Python floats: ``math.erfc`` for the z
test, and ``scipy.stats.t.sf`` for Welch's test with the Welch-Satterthwaite
degrees of freedom squared by ``**``. Those squares raise ``OverflowError``
where the variance's square passes float range and ``ZeroDivisionError``
where every square underflows to 0. Wherever it returns, the array kernel
must give the same statistic and p-value, bit for bit.
"""

import math

from openbounded.metrics import TestKind


def two_sided_test(
    delta: float, variance: float, vt: float, n_t: int, vc: float, n_c: int, test: TestKind
) -> tuple[float, float]:
    if variance <= 0.0:
        # Deterministic outcomes: any nonzero difference is certain.
        if delta == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, delta), 0.0
    statistic = delta / math.sqrt(variance)
    if test is TestKind.Z:
        p_value = math.erfc(abs(statistic) / math.sqrt(2.0))
    else:
        from scipy import stats

        df = variance**2 / ((vt / n_t) ** 2 / (n_t - 1) + (vc / n_c) ** 2 / (n_c - 1))
        p_value = 2.0 * float(stats.t.sf(abs(statistic), df))
    return statistic, min(max(p_value, 0.0), 1.0)
