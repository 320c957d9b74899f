"""Reference evaluators the tests compare the package against."""

from fractions import Fraction


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
