"""Independent numeric verification at concrete primes.

Everything here computes exact rational values by *direct* summation,
binomial arithmetic or, for the curious sums, a generating-function identity
evaluated by binary splitting — never through the symbolic series expansions
that it is used to check.  ``check_numeric`` evaluates a claimed congruence or
expansion at every prime of a window and reports the achieved p-adic
valuations against the required one.

Work on potentially huge direct sums (the "curious" compositional sums,
power sums with p^r-sized bounds) is metered by an explicit budget; when a
single evaluation would exceed it, the oracle refuses loudly instead of
silently skipping.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Union

from .arith import INFINITY, binomial, eval_poly, padic_valuation
from .compositions import Comp, check_int
from .quantities import QuantitySpec
from .series import CongruenceStatement, MhsSeries

__all__ = [
    "DEFAULT_WORK_BUDGET",
    "WorkBudgetExceeded",
    "PrimeWindow",
    "NumericReport",
    "primes_in",
    "eval_mhs",
    "eval_power_sum",
    "eval_polylog_sum",
    "eval_quantity",
    "eval_series_terms",
    "apery_number",
    "check_numeric",
]

DEFAULT_WORK_BUDGET = 10**8


class WorkBudgetExceeded(Exception):
    """An exact evaluation would exceed the configured work budget."""


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi] (inclusive)."""
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % q for q in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


class PrimeWindow:
    """Inclusive prime range lo..hi (ints, lo <= hi) for spot checks (default 11..97)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int = 11, hi: int = 97) -> None:
        self.lo = check_int(lo, "prime window lower bound")
        self.hi = check_int(hi, "prime window upper bound")
        if lo > hi:
            raise ValueError(f"prime window needs lo <= hi, got {lo}..{hi}")

    def primes(self) -> list[int]:
        return primes_in(self.lo, self.hi)


# ---------------------------------------------------------------------------
# exact evaluators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def eval_mhs(N: int, s: Comp) -> Fraction:
    """H_N(s) = sum over N >= n_1 > ... > n_k >= 1 of prod n_i^(-s_i).

    This is ``eval_power_sum(N, 0, s)``, memoized.
    """
    if not s:
        return Fraction(1)
    if N < len(s):
        return Fraction(0)
    return eval_power_sum(N, 0, s)


def eval_power_sum(
    N: int, M: int, exps: tuple[int, ...], restricted_at: int | None = None
) -> Fraction:
    """S_{N,M}(exps): sum over N >= n_1 > ... > n_k >= M+1 of prod n_i^(-e_i).

    Exponents may be arbitrary integers.  With ``restricted_at=p``, indices
    divisible by p are skipped (the S^{(p)} variant).

    A dynamic program over prefixes on integers scaled by one fixed common
    denominator K = lcm(M+1..N)^P, P the sum of the positive exponents.
    K times a prefix sum stays divisible by n^e for each positive exponent
    e still to come, so that step is the exact ``D[j-1] // n**e``; any
    other exponent multiplies by n^(-e).  One reduction at the end.
    """
    if not (N >= M >= 0):
        raise ValueError(f"eval_power_sum requires N >= M >= 0, got N={N}, M={M}")
    k = len(exps)
    if k == 0:
        return Fraction(1)
    P = sum(e for e in exps if e > 0)
    K = _lcm_range(M + 1, N) ** P if P else 1
    D = [K] + [0] * k
    for n in range(M + 1, N + 1):
        if restricted_at is not None and n % restricted_at == 0:
            continue
        for j in range(k, 0, -1):
            prev = D[j - 1]
            if prev:
                e = exps[k - j]
                D[j] += prev // n**e if e > 0 else prev * n ** (-e)
    return Fraction(D[k], K)


@lru_cache(maxsize=64)
def _lcm_range(lo: int, hi: int) -> int:
    """lcm of the integers lo..hi, for lo >= 1 (1 when the range is empty).

    Each prime q <= B = min(sqrt(hi), hi - lo) of a sieve enters with its
    highest power that has a multiple in the range and is divided out of
    every n.  A prime above B divides no n twice (B = sqrt(hi)) or no two
    n (B = hi - lo), so the distinct cofactors left over complete the lcm.
    Memory grows with the length of the range, not with hi.  Memoized:
    the evaluators of one run ask for the same few ranges again and again.
    """
    if hi < lo:
        return 1
    bound = min(math.isqrt(hi), hi - lo)
    composite = bytearray(bound + 1)
    rest = list(range(lo, hi + 1))
    factors: set[int] = set()
    for q in range(2, bound + 1):
        if composite[q]:
            continue
        composite[q * q :: q] = b"\1" * len(range(q * q, bound + 1, q))
        f = 1
        while hi // (f * q) * (f * q) >= lo:  # a multiple of f*q is in range
            f *= q
        factors.add(f)
        for i in range(-lo % q, len(rest), q):
            while rest[i] % q == 0:
                rest[i] //= q
    factors.update(rest)
    return math.prod(factors)


def eval_polylog_sum(
    N: int, exps: tuple[int, ...], zs: tuple[Union[int, Fraction], ...]
) -> Fraction:
    """sum over N >= n_1 > ... > n_k >= 1 of prod z_i^(n_i) / n_i^(s_i)."""
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


def apery_number(n: int) -> int:
    """b_n = sum_k C(n,k)^2 * C(n+k,k)^2, computed directly."""
    return sum(math.comb(n, k) ** 2 * math.comb(n + k, k) ** 2 for k in range(n + 1))


def eval_quantity(
    q: QuantitySpec, p: int, work_budget: int = DEFAULT_WORK_BUDGET
) -> Fraction:
    """Exact value of a named quantity at the prime p, by direct computation.

    Never routes through the symbolic series expansions it is used to
    verify, and trusts ``q``, which checked its arguments when it was
    built.  Raises :class:`WorkBudgetExceeded` when the direct computation
    would exceed ``work_budget`` elementary summation steps, and
    ``ValueError`` for quantities with no single-prime rational value
    (``zetap``).
    """
    name, args = q.name, q.args
    if name == "binp":
        a, b, r = args
        return Fraction(math.comb(a * p**r, b * p**r))
    if name == "binpoly":
        f, g = args
        # integer polynomials (the spec checked them), so the values are integers
        return binomial(eval_poly(f, p).numerator, eval_poly(g, p).numerator)
    if name == "apery":
        return Fraction(apery_number(p - 1))
    if name == "zetap":
        raise ValueError(
            "zetap(k) is a p-adic limit with no exact rational value at a "
            "single prime; verify congruences involving it at the level of "
            "their fully expanded series instead"
        )
    if name == "psum":
        f, g, exps, restricted = args
        N, M = eval_poly(f, p).numerator, eval_poly(g, p).numerator
        _charge((N - M) * max(1, len(exps)), work_budget, q)
        return eval_power_sum(N, M, exps, restricted_at=p if restricted else None)
    if name == "hres":
        (r,) = args
        N = p**r - 1
        _charge(N, work_budget, q)
        return eval_power_sum(N, 0, (1,), restricted_at=p)
    if name == "curious":
        r, k = args
        return _eval_curious(r, k, p, work_budget)
    if name == "sumpoly":
        P, s = args
        return _eval_sumpoly(P, s, p)
    if name == "half":
        (k,) = args
        return Fraction(p) ** k * eval_mhs((p - 1) // 2, (k,))
    if name == "alt":
        (k,) = args
        return Fraction(p) ** k * eval_polylog_sum(p - 1, (k,), (Fraction(-1),))
    if name == "rat":
        num, den = args
        d = eval_poly(den, p)
        if d == 0:
            raise ZeroDivisionError(f"rat denominator vanishes at p={p}")
        return eval_poly(num, p) / d
    raise ValueError(f"unknown quantity {name!r}")


def _charge(cost: int, budget: int, q: QuantitySpec) -> None:
    if cost > budget:
        raise WorkBudgetExceeded(
            f"evaluating {q} needs ~{cost} summation steps, over the budget of {budget}"
        )


def _eval_sumpoly(P: tuple[Fraction, ...], s: Comp, p: int) -> Fraction:
    """sum_{m=1}^{p-1} P(m) * H_m(s), sharing one MHS dynamic program."""
    k = len(s)
    D = [Fraction(1)] + [Fraction(0)] * k
    total = Fraction(0)
    for m in range(1, p):
        for j in range(min(k, m), 0, -1):
            D[j] += D[j - 1] * Fraction(1, m ** s[k - j])
        total += eval_poly(P, m) * D[k]
    return total


def _eval_curious(r: int, k: int, p: int, budget: int) -> Fraction:
    """C_{r,k,p} = sum of 1/(n_1*...*n_k) over n_1+...+n_k = p^r, p | no n_i.

    With N = p^r, M = p^(r-1) and f(x) = sum over p not dividing n of
    x^n/n = -log(1-x) + log(1-x^p)/p, C is [x^N] f^k, that is

        C = k! [x^N z^k] exp(z f) = k! [x^N z^k] (1-x)^(-z) (1-x^p)^(z/p)
          = k! [z^k] sum_{m=0}^{M} G_m(z) F_{N-pm}(z),

    where G_m = prod_{j<m} (pj - z)/(p(j+1)) and F_n = prod_{i<n} (i+z)/(i+1)
    are the binomial series coefficients.  The end terms m = 0 and m = M
    give k!/N e_{k-1}(N-1) and (-1/p)^k k!/M e_{k-1}(M-1), e_j(n) the
    elementary symmetric function of 1/1, ..., 1/n; the inner terms give
    -(k!/p) sum_{m=1}^{M-1} [z^(k-2)] A_m(-z/p) B_m(z) / (m(N-pm)) with
    A_m = prod_{1<=j<m} (1+z/j) and B_m = prod_{1<=n<N-pm} (1+z/n).

    Over the denominator D = p^M M! N! the m-th term is the integer
    polynomial prod_{j<m} P_j * prod_{m<=j<M} Q_j, where

        P_j = c_j (pj - z),   c_j = product of the integers in (N-p(j+1), N-pj],
        Q_j = p(j+1) prod_{N-p(j+1) <= n < N-pj} (n + z).

    The sum is one binary-splitting pass over j: a node [l, r) holds
    P = prod P_j, Q = prod Q_j and T = the sum over l <= m < r of
    prod_{l<=j<m} P_j prod_{m<=j<r} Q_j; halves merge as P_L P_R, Q_L Q_R
    and T_L Q_R + P_L T_R, and the whole sum is T + P of the root.  P_0
    and Q_{M-1} both carry the factor z; with it divided out, inner terms
    need [z^(k-2)] and end terms [z^(k-1)], so P and Q are kept mod z^k and
    T mod z^(k-1).  P is held as the integer prod c_j times a polynomial
    with small coefficients, and the products of linear factors n + z are
    product trees with sequential leaves (``_rising``).

    The work is O(log M) levels of multiplications of integers of up to
    about N log2(N) bits.  k! X / D is divided exactly onto N K, K =
    lcm(1..N-1)^(k-1), a multiple of the value's denominator, so the
    reduction of the returned Fraction is the only gcd.

    For k = 1 the only composition is (p^r) itself, which the coprimality
    constraint excludes, so the sum is empty and the value is 0.
    """
    if k == 1:
        return Fraction(0)
    L = k - 1
    top = p**r
    _charge(L * (top - 1), budget, QuantitySpec("curious", (r, k)))
    M = top // p

    def leaf(j: int) -> tuple[int, list[int], list[int], list[int]]:
        lo, hi = top - p * (j + 1), top - p * j
        a = [p * j, -1] + [0] * (k - 2) if j else [-1] + [0] * L  # P_0 / z
        Q = [p * (j + 1) * x for x in _rising(max(lo, 1), hi, k)]  # Q_{M-1} / z
        return math.prod(range(lo + 1, hi + 1)), a, Q, Q[:L]

    def split(lo: int, hi: int) -> tuple[int, list[int], list[int], list[int]]:
        if hi - lo == 1:
            return leaf(lo)
        mid = (lo + hi) // 2
        cL, aL, QL, TL = split(lo, mid)
        cR, aR, QR, TR = split(mid, hi)
        T = [x + cL * y for x, y in zip(_poly_mul(TL, QR, L), _poly_mul(aL, TR, L))]
        return cL * cR, _poly_mul(aL, aR, k), _poly_mul(QL, QR, k), T

    # the root merge, reduced to the two coefficients it needs
    one = [1] + [0] * L
    cL, aL, QL, TL = split(0, M // 2) if M > 1 else (1, one, one, [0] * L)
    cR, aR, QR, TR = split(M // 2, M)
    X = sum((TL[i] - QL[i]) * QR[L - 1 - i] for i in range(L))
    X += cL * sum(aL[i] * TR[L - 1 - i] for i in range(L))
    X += sum(QL[i] * QR[L - i] for i in range(k))
    X += cL * cR * sum(aL[i] * aR[L - i] for i in range(k))
    den = top * _lcm_range(1, top - 1) ** L
    D = p**M * math.factorial(M) * math.factorial(top)
    num, rem = divmod(math.factorial(k) * X * den, D)
    if rem:
        raise ArithmeticError(f"curious({r},{k}) at p={p}: inexact division onto N*K")
    return Fraction(num, den)


def _poly_mul(a: list[int], b: list[int], n: int) -> list[int]:
    """The first n coefficients of a*b (coefficient lists of length >= n)."""
    return [sum(a[i] * b[t - i] for i in range(t + 1)) for t in range(n)]


def _rising(lo: int, hi: int, n: int) -> list[int]:
    """prod_{lo <= m < hi} (m + z) mod z^n: a product tree, 32-factor leaves."""
    if hi - lo > 32:
        mid = (lo + hi) // 2
        return _poly_mul(_rising(lo, mid, n), _rising(mid, hi, n), n)
    c = [1] + [0] * (n - 1)
    for m in range(lo, hi):
        for i in range(n - 1, 0, -1):
            c[i] = c[i] * m + c[i - 1]
        c[0] *= m
    return c


def eval_series_terms(series: MhsSeries, p: int) -> Fraction:
    """Value at p of the explicit terms: sum of c * p^b * H_{p-1}(s)."""
    total = Fraction(0)
    for (b, s), c in series.terms.items():
        total += c * Fraction(p) ** b * eval_mhs(p - 1, s)
    return total


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _fmt_val(v: Union[int, float, None]) -> str:
    if v is None:
        return "refused"
    if v is INFINITY:
        return "inf"
    return str(v)


def _verdict(req: Union[int, float], got: Union[int, float, None]) -> str:
    """REFUSED, PASS or FAIL for one (required, achieved) record."""
    if got is None:
        return "REFUSED"
    return "PASS" if got >= req else "FAIL"


class NumericReport:
    """Per-prime valuation records for one claimed congruence/expansion.

    A record is (prime, required, achieved); ``achieved`` is an integer
    valuation, INFINITY for an exact zero difference, or None when the
    evaluation was refused by the work budget.
    """

    def __init__(
        self,
        records: list[tuple[int, Union[int, float], Union[int, float, None]]],
        skipped: list[int] | None = None,
    ) -> None:
        self.records = records
        self.skipped = skipped or []

    @property
    def passed(self) -> bool:
        return bool(self.records) and all(
            _verdict(req, got) == "PASS" for (_p, req, got) in self.records
        )

    @property
    def refused(self) -> list[int]:
        return [p for (p, _req, got) in self.records if got is None]

    def render(self) -> str:
        header = f"{'prime':>6}  {'required':>8}  {'achieved':>8}  verdict"
        rows = [header, "-" * len(header)]
        for p, req, got in self.records:
            rows.append(
                f"{p:>6}  {_fmt_val(req):>8}  {_fmt_val(got):>8}  {_verdict(req, got)}"
            )
        rows.append(f"summary: {'PASS' if self.passed else 'FAIL'}")
        if self.skipped:
            rows.append(
                "skipped (prime divides a coefficient denominator): "
                + ", ".join(str(p) for p in self.skipped)
            )
        return "\n".join(rows)

    def __repr__(self) -> str:
        return f"<NumericReport {'PASS' if self.passed else 'FAIL'} {len(self.records)} primes>"


Subject = Union[
    CongruenceStatement,
    tuple[QuantitySpec, MhsSeries],
    Callable[[int], Optional[Fraction]],
]


def _series_denominator_primes(series: MhsSeries, primes: list[int]) -> set[int]:
    """The primes of the list that divide a coefficient denominator of the series."""
    return {p for c in series.terms.values() for p in primes if c.denominator % p == 0}


def check_numeric(
    subject: Subject,
    window: PrimeWindow | None = None,
    required: Union[int, float, None] = None,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> NumericReport:
    """Evaluate a claim at every prime of the window and report valuations.

    ``subject`` may be:

    - a ``CongruenceStatement``: checks v_p(value of lhs_minus_rhs) >=
      modulus_power;
    - a ``(QuantitySpec, MhsSeries)`` pair: checks v_p(quantity - series
      terms) >= series.order (or >= ``required`` when given; an exact series
      requires an exactly zero difference);
    - a callable ``p -> Fraction`` difference, with ``required`` mandatory;
      it returns None at a prime where the claim is not p-integral.

    Such primes are skipped and listed in the report; for the first two
    forms they are the primes dividing a coefficient denominator of the
    series.
    """
    primes = (window or PrimeWindow()).primes()
    skipped: list[int] = []

    if isinstance(subject, CongruenceStatement):
        series = subject.lhs_minus_rhs
        req = subject.modulus_power if required is None else required
        diff = lambda p: eval_series_terms(series, p)  # noqa: E731
        bad = _series_denominator_primes(series, primes)
    elif isinstance(subject, tuple):
        qspec, series = subject
        if required is not None:
            req = required
        elif series.order is not None:
            req = series.order
        else:
            req = INFINITY  # exact claim: difference must vanish
        diff = lambda p: eval_quantity(qspec, p, work_budget) - eval_series_terms(  # noqa: E731
            series, p
        )
        bad = _series_denominator_primes(series, primes)
    elif callable(subject):
        if required is None:
            raise ValueError("check_numeric with a callable needs required=")
        req = required
        diff = subject
        bad = set()
    else:
        raise TypeError(f"unsupported subject {subject!r}")

    records: list[tuple[int, Union[int, float], Union[int, float, None]]] = []
    for p in primes:
        if p in bad:
            skipped.append(p)
            continue
        try:
            d = diff(p)
        except WorkBudgetExceeded:
            records.append((p, req, None))
            continue
        if d is None:
            skipped.append(p)
            continue
        records.append((p, req, padic_valuation(d, p)))
    return NumericReport(records, skipped)
