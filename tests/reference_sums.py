"""Reference evaluators and checks the tests compare the package against."""

from fractions import Fraction

from padicmhs.arith import INFINITY
from padicmhs.oracle import (
    NumericReport,
    PrimeWindow,
    check_numeric,
    eval_quantity,
    eval_series_terms,
)
from padicmhs.quantities import QuantitySpec, parse
from padicmhs.series import MhsSeries


def quantity(text: str) -> QuantitySpec:
    """The quantity an atom's text names, e.g. ``quantity("hres(2)")``."""
    return parse(text).payload


def check_expansion(
    q: QuantitySpec, series: MhsSeries, window: PrimeWindow, required=None
) -> NumericReport:
    """The oracle's check that ``series`` expands ``q`` at every prime of the window.

    ``required`` defaults to the series order, and to an exactly zero
    difference for an exact series.  A prime dividing a coefficient
    denominator of the series is skipped.
    """
    if required is None:
        required = INFINITY if series.order is None else series.order
    dens = [c.denominator for c in series.terms.values()]

    def diff(p):
        if any(d % p == 0 for d in dens):
            return None
        return eval_quantity(q, p) - eval_series_terms(series, p)

    return check_numeric(diff, window, required)


def eval_polylog_sum(N: int, exps: tuple[int, ...], zs: tuple) -> Fraction:
    """sum over N >= n_1 > ... > n_k >= 1 of prod z_i^(n_i) / n_i^(s_i).

    With every z_i = -1 and k = 1 this is the alternating sum behind ``alt``.
    """
    if len(exps) != len(zs):
        raise ValueError("eval_polylog_sum: exps and zs must have equal length")
    k = len(exps)
    if k == 0:
        return Fraction(1)
    zs = tuple(Fraction(z) for z in zs)
    D = [Fraction(1)] + [Fraction(0)] * k
    zpow = [Fraction(1)] * k  # zpow[i] = zs[i] ** n, updated per n
    for n in range(1, N + 1):
        for i in range(k):
            zpow[i] *= zs[i]
        for j in range(min(k, n), 0, -1):
            if D[j - 1]:
                i = k - j
                D[j] += D[j - 1] * zpow[i] * Fraction(1, n ** exps[i])
    return D[k]
