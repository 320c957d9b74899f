"""Independent numeric verification at concrete primes.

Everything here computes exact rational values by *direct* summation,
binomial arithmetic or, for the curious sums, a generating-function identity
— never through the symbolic series expansions that it is used to check.
With k = 2 or 3 parts that identity is an elementary symmetric function of
the harmonic sums over the nonzero residue classes mod p; with more parts it
is evaluated by binary splitting.  ``eval_at_prime`` gives the value of a
parsed expression at a prime, ``check_numeric`` evaluates a claimed
congruence, given as a difference callable, at every prime of a window
and reports the achieved p-adic valuations against the required one.

Work that grows with p (the curious sums, power sums with p^r-sized bounds,
binomials of p^r-sized arguments, Apery numbers) is metered by an explicit
budget; when a single evaluation would exceed it, the oracle refuses loudly,
before it allocates, instead of silently skipping.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence, Union

from .arith import INFINITY, binomial, eval_poly, padic_valuation
from .compositions import Comp, check_int
from .quantities import BINARY_OPS, ExprAst, Poly, QuantitySpec, _fold
from .series import MhsSeries

__all__ = [
    "DEFAULT_WORK_BUDGET",
    "NoValueAtPrime",
    "WorkBudgetExceeded",
    "PrimeWindow",
    "NumericReport",
    "primes_in",
    "eval_mhs",
    "eval_power_sum",
    "eval_quantity",
    "eval_series_terms",
    "eval_at_prime",
    "apery_number",
    "check_numeric",
]

DEFAULT_WORK_BUDGET = 10**8


class WorkBudgetExceeded(Exception):
    """An exact evaluation would exceed the configured work budget."""


class NoValueAtPrime(ValueError):
    """No value at this prime: a power sum's range reaches the index 0 or below, or
    p divides a coefficient denominator.  :func:`check_numeric` skips and lists it."""


_DENOMINATOR_REASON = "prime divides a coefficient denominator"


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------


#: Miller-Rabin with the 13 prime bases 2..41 is exact below this bound
#: (Sorenson and Webster, 2015); a prime window may not reach it.
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < PRIME_TEST_BOUND."""
    if n < 2 or any(n % q == 0 for q in _BASES):
        return n in _BASES
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _BASES:  # strong test: a^d = 1, or some a^(d*2^r) = -1 with r < s
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi] (inclusive), for hi < PRIME_TEST_BOUND."""
    return [n for n in range(max(lo, 2), hi + 1) if _is_prime(n)]


class PrimeWindow:
    """Inclusive prime range lo..hi (ints, lo <= hi) for spot checks (default 11..97)."""

    __slots__ = ("lo", "hi", "_primes")

    def __init__(self, lo: int = 11, hi: int = 97) -> None:
        self.lo = check_int(lo, "prime window lower bound")
        self.hi = check_int(hi, "prime window upper bound")
        if lo > hi:
            raise ValueError(f"prime window needs lo <= hi, got {lo}..{hi}")
        if hi >= PRIME_TEST_BOUND:
            raise ValueError(f"prime window needs hi < {PRIME_TEST_BOUND}, got {hi}")
        self._primes: list[int] | None = None

    def primes(self) -> list[int]:
        if self._primes is None:  # listed on first use, once per window
            self._primes = primes_in(self.lo, self.hi)
        return self._primes


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
    divisible by p are skipped (the S^{(p)} variant).  A range with N <= M is
    empty, as in the expansion layer: the sum is 0 (1 for no exponents).
    Any other range needs M >= 0, else :class:`NoValueAtPrime` is raised.

    A dynamic program over prefixes on integers scaled by a denominator
    that grows with the prefix: before index n joins, the row is multiplied
    by f_n^P, f_n = lcm(M+1..n) / lcm(M+1..n-1), P the sum of the positive
    exponents.  K = lcm(M+1..n)^P times a prefix sum stays divisible by n^e
    for each positive exponent e still to come, so that step is the exact
    ``D[j-1] // n**e``; any other exponent multiplies by n^(-e).  One
    reduction at the end.  A range of fewer than 100 indices starts from the
    whole K = lcm(M+1..N)^P: there growth costs more than it saves.
    """
    k = len(exps)
    if k == 0:
        return Fraction(1)
    if N <= M:
        return Fraction(0)
    if M < 0:
        raise NoValueAtPrime("a power-sum range needs a lower bound M >= 0")
    P = sum(e for e in exps if e > 0)
    short = N - M < 100  # then K starts whole: one lcm, no growth steps
    grow = dict(zip(*_lcm_steps(M + 1, N))) if P and not short else {}
    D = [math.lcm(*range(M + 1, N + 1)) ** P if short else 1] + [0] * k  # D[0] is K
    for n in range(M + 1, N + 1):
        if n in grow:
            f = grow[n] ** P
            D = [d * f for d in D]
        if restricted_at is not None and n % restricted_at == 0:
            continue
        for j in range(k, 0, -1):
            prev = D[j - 1]
            if prev:
                e = exps[k - j]
                D[j] += prev // n**e if e > 0 else prev * n ** (-e)
    return Fraction(D[k], D[0])


@lru_cache(maxsize=64)
def _lcm_steps(lo: int, hi: int) -> tuple[Sequence[int], Sequence[int]]:
    """The n in lo..hi (lo >= 1) where f_n = lcm(lo..n) / lcm(lo..n-1) > 1, and those f_n.

    Each prime q <= B = min(sqrt(hi), hi - lo) of a sieve joins once more at
    the first n divisible by each of q, q^2, ..., and is divided out of every
    n.  A prime above B divides no n twice (B = sqrt(hi)) or no two n
    (B = hi - lo), so each distinct cofactor left over joins at its first n.
    Memory grows with the length of the range, not with hi.  Memoized: the
    evaluators of one run ask for the same few ranges again and again.
    """
    if hi < lo:
        return (), ()
    bound = min(math.isqrt(hi), hi - lo)
    composite = bytearray(bound + 1)
    rest = list(range(lo, hi + 1))
    steps: dict[int, int] = {}
    for q in range(2, bound + 1):
        if composite[q]:
            continue
        composite[q * q :: q] = b"\1" * len(range(q * q, bound + 1, q))
        f = q
        while (i := -lo % f) < len(rest):  # the first multiple of f in range
            steps[lo + i] = steps.get(lo + i, 1) * q
            for j in range(i, len(rest), f):
                rest[j] //= q
            f *= q
    # each distinct cofactor with its first n: written from hi down, the earliest wins
    for c, n in dict(zip(reversed(rest), range(hi, lo - 1, -1))).items():
        if c > 1:
            steps[n] = steps.get(n, 1) * c

    def pack(v):  # 8 bytes a number while hi fits (f_n divides n), as the memo keeps them
        return memoryview(struct.pack(f"{len(v)}q", *v)).cast("q") if hi < 1 << 63 else list(v)

    return pack(steps), pack(steps.values())


def _lcm_range(lo: int, hi: int) -> int:
    """lcm of the integers lo..hi, for lo >= 1 (1 when the range is empty)."""
    return math.prod(_lcm_steps(lo, hi)[1])


def apery_number(n: int) -> int:
    """b_n = sum_k C(n,k)^2 * C(n+k,k)^2, computed directly."""
    return sum(math.comb(n, k) ** 2 * math.comb(n + k, k) ** 2 for k in range(n + 1))


def eval_quantity(
    q: QuantitySpec, p: int, work_budget: int = DEFAULT_WORK_BUDGET
) -> Fraction:
    """Exact value of a named quantity at the prime p, by direct computation.

    Never routes through the symbolic series expansions it is used to verify,
    and trusts ``q``, which checked its arguments when it was built.  Raises
    ``ValueError`` for quantities with no single-prime rational value
    (``zetap``), and :class:`WorkBudgetExceeded`, before any big allocation,
    when a charge exceeds ``work_budget``: binp costs a*p^r, binpoly the larger
    of |f(p)| and g(p), apery p (the sizes of the integers they multiply), psum
    (N - M) times its depth, hres p^r - 1, curious (k-1)(p^r - 1), sumpoly
    (p - 1)(2 len(s) + 1) per nonzero coefficient (its power sums' indices
    times their depths), half (p-1)/2 and alt (p-1)/2 + p - 1 summation steps.
    """
    name, args = q.name, q.args
    if name == "binp":
        a, b, r = args
        _charge(a * p**r, work_budget, q)
        return Fraction(math.comb(a * p**r, b * p**r))
    if name == "binpoly":
        # integer polynomials (the spec checked them), so the values are integers
        n, m = (eval_poly(f, p).numerator for f in args)
        _charge(max(abs(n), m), work_budget, q)
        return binomial(n, m)
    if name == "apery":
        _charge(p, work_budget, q)
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
        # sum_m m^i H_m(s) = S_{p-1,0}((-i, s)) + S_{p-1,0}((s_1 - i, s_2, ..)), n_1 < m or = m
        P, s = args
        _charge((p - 1) * (2 * len(s) + 1) * sum(1 for c in P if c), work_budget, q)
        total = Fraction(0)
        for i, c in enumerate(P):
            if c:
                chains = [(-i, *s), (s[0] - i, *s[1:])] if s else [(-i,)]
                total += c * sum(eval_power_sum(p - 1, 0, e) for e in chains)
        return total
    if name == "half":
        (k,) = args
        _charge((p - 1) // 2, work_budget, q)
        return Fraction(p) ** k * eval_mhs((p - 1) // 2, (k,))
    if name == "alt":
        (k,) = args
        # sum (-1)^n / n^k is twice the even n, 2^(-k) H_{(p-1)/2}(k), minus H_{p-1}(k)
        _charge((p - 1) // 2 + p - 1, work_budget, q)
        half, full = (eval_power_sum(N, 0, (k,)) for N in ((p - 1) // 2, p - 1))
        return Fraction(p) ** k * (Fraction(2, 2**k) * half - full)
    num, den = args  # rat, the last name a spec admits
    d = eval_poly(den, p)
    if d == 0:
        raise ZeroDivisionError(f"rat denominator vanishes at p={p}")
    return eval_poly(num, p) / d


def _charge(cost: int, budget: int, q: QuantitySpec) -> None:
    if cost > budget:
        raise WorkBudgetExceeded(
            f"evaluating {q} needs ~{cost} steps of work, over the budget of {budget}"
        )


def _eval_curious(r: int, k: int, p: int, budget: int) -> Fraction:
    """C_{r,k,p} = sum of 1/(n_1*...*n_k) over n_1+...+n_k = p^r, p | no n_i.

    With N = p^r, M = p^(r-1) and f(x) = sum over p not dividing n of
    x^n/n, C is [x^N] f^k.  As x f' = sum over p not dividing n of x^n,
    comparing [x^m] in x (f^j)' = j f^(j-1) x f' gives

        m [x^m] f^j = j * sum over a < m, p not dividing m - a, of [x^a] f^(j-1).

    Applied twice with p | N, and with P_s the sum of 1/n over the n < N
    with n = s mod p, it gives C_{r,2} = (2/N) e_1(P) and C_{r,3} =
    (6/N) e_2(P): the k = 3 sum runs over N > m > a >= 1 with m and a in
    two different nonzero classes, and a pair of classes {s, s'} meets each
    element of class s times class s' once, in one order or the other.  So
    for k <= 3 each class is summed once by binary splitting over its M
    terms (``_class_sum``) and divided exactly onto W = lcm(1..N-1): with
    X_s = W P_s, C_2 = 2 sum X_s / (N W) and C_3 = 3 ((sum X_s)^2 - sum
    X_s^2) / (N W^2), on integers about the size of W.

    For k >= 4 a chain N > m_1 > m_2 > m_3 may have a middle index divisible
    by p, or m_1 = m_3 mod p, so there is no such product form, and with
    f(x) = -log(1-x) + log(1-x^p)/p, C = [x^N] f^k is

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
    with small coefficients, each leaf's product of p linear factors n + z
    is built one factor at a time (``_rising``), and every product of two
    polynomials is a Karatsuba short product (``_poly_mul``).

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
    if k <= 3:
        W = _lcm_range(1, top - 1)
        X = []
        for s in range(1, p):
            num, den = _class_sum(s, p, 0, M)
            x, rem = divmod(W * num, den)
            if rem:
                raise ArithmeticError(f"curious({r},{k}) at p={p}: inexact division onto W")
            X.append(x)
        S = sum(X)
        if k == 2:
            return Fraction(2 * S, top * W)
        return Fraction(3 * (S * S - sum(x * x for x in X)), top * W * W)
    den = top * _lcm_range(1, top - 1) ** L

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

    # the root merge, reduced to the two coefficients it needs:
    # X = [z^L] (QL + z (TL - QL)) QR + cL ([z^(L-1)] aL TR + cR [z^L] aL aR)
    one = [1] + [0] * L
    cL, aL, QL, TL = split(0, M // 2) if M > 1 else (1, one, one, [0] * L)
    cR, aR, QR, TR = split(M // 2, M)
    U = QL[:1] + [QL[i] + TL[i - 1] - QL[i - 1] for i in range(1, k)]
    X = sum(U[i] * QR[L - i] for i in range(k)) + cL * (
        sum(aL[i] * TR[L - 1 - i] for i in range(L))
        + cR * sum(aL[i] * aR[L - i] for i in range(k))
    )
    D = p**M * math.factorial(M) * cL * cR  # cL cR = prod c_j = N!
    num, rem = divmod(math.factorial(k) * X * den, D)
    if rem:
        raise ArithmeticError(f"curious({r},{k}) at p={p}: inexact division onto N*K")
    return Fraction(num, den)


def _class_sum(s: int, p: int, lo: int, hi: int) -> tuple[int, int]:
    """Numerator and denominator of the sum of 1/(s + p j) over lo <= j < hi,
    by binary splitting; the denominator is the product of the terms."""
    if hi - lo == 1:
        return 1, s + p * lo
    mid = (lo + hi) // 2
    a, b = _class_sum(s, p, lo, mid)
    c, d = _class_sum(s, p, mid, hi)
    return a * d + c * b, b * d


def _poly_mul(a: list[int], b: list[int], n: int) -> list[int]:
    """The first n coefficients of a*b (coefficient lists of length >= n), as a
    Karatsuba short product: a_i b_j + a_j b_i = (a_i + a_j)(b_i + b_j) - a_i b_i
    - a_j b_j, so n = 3 takes 5 multiplications and n = 4 takes 8, not 6 and 10."""
    d = [a[i] * b[i] for i in range(n)]
    return [
        sum((a[i] + a[t - i]) * (b[i] + b[t - i]) - d[i] - d[t - i] for i in range((t + 1) // 2))
        + (d[t // 2] if t % 2 == 0 else 0)
        for t in range(n)
    ]


def _rising(lo: int, hi: int, n: int) -> list[int]:
    """prod_{lo <= m < hi} (m + z) mod z^n, one factor at a time: at a leaf's
    p factors, small-integer steps beat a product tree of polynomial products."""
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


def _check_denominator(num: Poly, den: Poly, p: int) -> None:
    """Refuse p when it divides the lowest nonzero coefficient of ``den``,
    once num/den has integer coefficients with no common factor."""
    m = math.lcm(*(c.denominator for c in num + den))
    content = math.gcd(*(int(c * m) for c in num + den))
    if int(next(c for c in den if c) * m) // content % p == 0:
        raise NoValueAtPrime(_DENOMINATOR_REASON)


def eval_at_prime(ast: ExprAst, p: int, work_budget: int | None = None) -> Fraction:
    """Exact value of an expression node at the prime p, by this module alone.

    No series expansion is involved: an ``H(s)`` atom is the power sum
    ``psum(p-1;0;s)`` and every quantity atom goes through
    :func:`eval_quantity`, which raises ``WorkBudgetExceeded`` when its
    charge is over ``work_budget`` (None: ``DEFAULT_WORK_BUDGET``).
    A prime that divides a coefficient denominator has no value
    (``NoValueAtPrime``): a literal's, a sumpoly coefficient's, or the lowest
    nonzero one of a nonzero rat's or folded inv's (:func:`_check_denominator`).
    """
    if work_budget is None:
        work_budget = DEFAULT_WORK_BUDGET
    kind = ast.kind
    if kind == "lit":
        if ast.payload.denominator % p == 0:
            raise NoValueAtPrime(_DENOMINATOR_REASON)
        return ast.payload
    if kind == "p":
        return Fraction(p) ** ast.payload
    if kind == "H":  # psum(p-1;0;s), charged as that power sum
        psum = QuantitySpec("psum", ((-1, 1), (), ast.payload, False))
        return eval_quantity(psum, p, work_budget)
    if kind == "quantity":
        q = ast.payload
        if q.name == "sumpoly" and any(c.denominator % p == 0 for c in q.args[0]):
            raise NoValueAtPrime(_DENOMINATOR_REASON)
        value = eval_quantity(q, p, work_budget)
        if q.name == "rat" and value:
            _check_denominator(*q.args, p)
        return value
    values = [eval_at_prime(child, p, work_budget) for child in ast.children]
    if kind in BINARY_OPS:
        return BINARY_OPS[kind](*values)
    if kind == "neg":
        return -values[0]
    if kind == "inv":
        try:
            den, num = _fold(ast.children[0])
        except ValueError:  # not a rational function of p
            den = ()
        if values[0] and den and den[0]:
            _check_denominator(num, den, p)
        if padic_valuation(values[0], p) != 0:
            raise ValueError(f"inv of a value that is not a p-adic unit at p={p}")
        return 1 / values[0]
    raise ValueError(f"no value at a prime for {kind!r} nodes")


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
    evaluation was refused by the work budget.  ``skip_reasons`` maps each
    prime with no record to the reason it was skipped.
    """

    def __init__(
        self,
        records: list[tuple[int, Union[int, float], Union[int, float, None]]],
        skipped: dict[int, str],
    ) -> None:
        self.records = records
        self.skip_reasons = skipped

    @property
    def verdict(self) -> str:
        """FAIL if a prime fails; otherwise UNDECIDED if a prime was refused or
        no prime has a record; otherwise PASS."""
        verdicts = {_verdict(req, got) for (_p, req, got) in self.records}
        if "FAIL" in verdicts:
            return "FAIL"
        return "UNDECIDED" if "REFUSED" in verdicts or not verdicts else "PASS"

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    @property
    def refused(self) -> list[int]:
        return [p for (p, _req, got) in self.records if got is None]

    def render(self) -> str:
        width = max([6] + [len(str(p)) for (p, _req, _got) in self.records])
        header = f"{'prime':>{width}}  {'required':>8}  {'achieved':>8}  verdict"
        rows = [header, "-" * len(header)]
        for p, req, got in self.records:
            rows.append(
                f"{p:>{width}}  {_fmt_val(req):>8}  {_fmt_val(got):>8}  {_verdict(req, got)}"
            )
        rows.append(f"summary: {self.verdict}")
        for reason in dict.fromkeys(self.skip_reasons.values()):
            primes = (str(p) for p, why in self.skip_reasons.items() if why == reason)
            rows.append(f"skipped ({reason}): " + ", ".join(primes))
        return "\n".join(rows)

    def __repr__(self) -> str:
        return f"<NumericReport {self.verdict} {len(self.records)} primes>"


def check_numeric(
    diff: Callable[[int], Fraction],
    window: PrimeWindow,
    required: Union[int, float],
) -> NumericReport:
    """Evaluate a claimed difference at every prime of the window and report valuations.

    ``diff(p)`` is the exact difference of the claim at the prime p.  A prime
    where ``diff`` raises :class:`NoValueAtPrime` is skipped and listed in the
    report with its reason, and one where it raises
    :class:`WorkBudgetExceeded` is recorded as refused.  Each difference
    must reach valuation ``required`` (INFINITY: it must vanish exactly).
    """
    records: list[tuple[int, Union[int, float], Union[int, float, None]]] = []
    skipped: dict[int, str] = {}
    for p in window.primes():
        try:
            d = diff(p)
        except WorkBudgetExceeded:
            records.append((p, required, None))
            continue
        except NoValueAtPrime as exc:
            skipped[p] = str(exc)
            continue
        records.append((p, required, padic_valuation(d, p)))
    return NumericReport(records, skipped)
