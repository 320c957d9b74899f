"""Exact rational arithmetic helpers.

Everything in this package works over exact rationals (``fractions.Fraction``);
no floating point is used anywhere.  This module collects the shared
number-theoretic primitives:

* Bernoulli numbers ``bernoulli(n)`` in the convention with B_1 = -1/2,
  i.e. the exponential generating function x / (e^x - 1).
* The generalized binomial coefficient ``binomial(a, k)`` for rational ``a``
  and integer ``k >= 0``.
* Power-sum polynomials: ``power_sum_poly(d)`` is the polynomial G_d with
  G_d(x) = sum_{a=0}^{x-1} a^d (Faulhaber's formula).
* Dense ascending-coefficient polynomials: ``eval_poly`` (Horner),
  ``strip_poly`` (drop trailing zeros), ``int_poly`` (integer coefficients,
  stripped) and ``poly_sub``.
* ``LaurentPoly``: the result of ``laurent_expand``, sparse coefficients of
  a Laurent polynomial in p with an optional truncation order.
* ``laurent_expand``: the p-adically valid Laurent expansion of a ratio of
  integer polynomials around p -> infty (formally, around 1/p -> 0).
* ``padic_valuation``: the p-adic valuation of a rational, with ``INFINITY``
  as the sentinel for 0.

The memo tables used here are plain dicts that are only ever appended to;
under CPython this is safe for the single-writer usage in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

__all__ = [
    "INFINITY",
    "IntPoly",
    "LaurentPoly",
    "bernoulli",
    "binomial",
    "eval_poly",
    "int_poly",
    "laurent_expand",
    "padic_valuation",
    "poly_sub",
    "power_sum_poly",
    "strip_poly",
]

#: Sentinel for an infinite p-adic valuation (the valuation of 0).  It is
#: only ever compared against integers, never used in arithmetic.
INFINITY = float("inf")

_bernoulli_memo: dict[int, Fraction] = {0: Fraction(1)}


def bernoulli(n: int) -> Fraction:
    """Return the Bernoulli number B_n (convention B_1 = -1/2).

    Computed by the recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 and memoized.
    """
    if n < 0:
        raise ValueError("Bernoulli numbers are indexed by n >= 0")
    known = _bernoulli_memo.get(n)
    if known is not None:
        return known
    for m in range(1, n + 1):
        if m in _bernoulli_memo:
            continue
        acc = Fraction(0)
        for k in range(m):
            acc += comb(m + 1, k) * _bernoulli_memo[k]
        _bernoulli_memo[m] = -acc / (m + 1)
    return _bernoulli_memo[n]


def binomial(a: Fraction | int, k: int) -> Fraction:
    """Generalized binomial coefficient C(a, k) = a(a-1)...(a-k+1) / k!.

    ``a`` may be any rational (in particular negative); C(a, k) = 0 for
    k < 0, matching the usual convention so sums over k need no guards.
    """
    if k < 0:
        return Fraction(0)
    if isinstance(a, int):
        if a >= 0:
            return Fraction(comb(a, k))
        return Fraction((-1) ** k * comb(k - a - 1, k))  # C(-m, k) = (-1)^k C(m+k-1, k)
    from math import factorial

    num = Fraction(1)
    a = Fraction(a)
    for i in range(k):
        num *= a - i
    return num / factorial(k)


_power_sum_memo: dict[int, tuple[Fraction, ...]] = {}


def power_sum_poly(d: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the polynomial G_d(x) = sum_{a=0}^{x-1} a^d.

    G_d has degree d + 1 and zero constant term.  Faulhaber's formula:
    G_d(x) = (1/(d+1)) * sum_{j=0}^{d} C(d+1, j) B_j x^(d+1-j).
    """
    if d < 0:
        raise ValueError("power_sum_poly requires d >= 0")
    cached = _power_sum_memo.get(d)
    if cached is not None:
        return cached
    coeffs = [Fraction(0)] * (d + 2)
    for j in range(d + 1):
        coeffs[d + 1 - j] = Fraction(comb(d + 1, j)) * bernoulli(j) / (d + 1)
    result = tuple(coeffs)
    _power_sum_memo[d] = result
    return result


#: Integer polynomial as a tuple of ascending coefficients; () is zero.
IntPoly = tuple[int, ...]


def eval_poly(coeffs: tuple[Fraction, ...], x: Fraction | int) -> Fraction:
    """Evaluate a dense ascending-coefficient polynomial at ``x`` (Horner)."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def strip_poly(f) -> tuple:
    """``f`` as a tuple without trailing zero coefficients."""
    n = len(f)
    while n and f[n - 1] == 0:
        n -= 1
    return tuple(f[:n])


def int_poly(coeffs, name: str = "polynomial") -> IntPoly:
    """Integer coefficient tuple of ``coeffs`` (stripped); ValueError on a non-integer."""
    out = []
    for c in coeffs:
        c = Fraction(c)
        if c.denominator != 1:
            raise ValueError(f"{name} needs integer coefficients, got {c}")
        out.append(c.numerator)
    return strip_poly(out)


def poly_sub(f: IntPoly, g: IntPoly) -> IntPoly:
    """``f - g`` with trailing zeros stripped."""
    n = max(len(f), len(g))
    return strip_poly(
        [(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)]
    )


class LaurentPoly:
    """Sparse Laurent polynomial in p with Fraction coefficients.

    The value type returned by :func:`laurent_expand`; it holds terms only
    and has no arithmetic.

    ``order`` is the truncation order: the object stands for the stored
    terms plus O(p^order).  ``order=None`` means the polynomial is exact.
    No term with exponent >= order is stored.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: dict[int, Fraction] | None = None, order: int | None = None):
        clean: dict[int, Fraction] = {}
        for e, c in (coeffs or {}).items():
            c = Fraction(c)
            if c != 0 and (order is None or e < order):
                clean[e] = c
        self.coeffs = clean
        self.order = order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs and self.order == other.order

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.order))

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            body = " + ".join(
                f"{c}*p^{e}" for e, c in sorted(self.coeffs.items())
            )
        if self.order is not None:
            body += f" + O(p^{self.order})"
        return f"LaurentPoly({body})"


def _poly_valuation(coeffs: list[Fraction]) -> int | None:
    for i, c in enumerate(coeffs):
        if c != 0:
            return i
    return None


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    """Exact polynomial division: returns (quotient, remainder) over Q."""
    num = list(num)
    dendeg = len(den) - 1
    while dendeg >= 0 and den[dendeg] == 0:
        dendeg -= 1
    if dendeg < 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(num) - dendeg, 1)
    for i in range(len(num) - 1, dendeg - 1, -1):
        if num[i] == 0:
            continue
        f = num[i] / den[dendeg]
        q[i - dendeg] = f
        for j in range(dendeg + 1):
            num[i - dendeg + j] -= f * den[j]
    return q, num


def laurent_expand(
    num: list[int] | list[Fraction],
    den: list[int] | list[Fraction],
    order: int,
) -> LaurentPoly:
    """p-adic Laurent expansion of num(p)/den(p), truncated at ``order``.

    Higher powers of p are p-adically small, so the expansion proceeds in
    ascending powers of p around the lowest-degree term of the denominator:
    for example 1/(1 - p) = 1 + p + p^2 + ...  Finitely many negative
    exponents arise when the denominator is divisible by a power of p.  The
    identity holds for every prime p not dividing the trailing coefficient
    data (all but finitely many primes).

    When the division is exact the result is an exact Laurent polynomial
    (order None); otherwise terms with exponent < order are returned and the
    rest is absorbed into O(p^order).
    """
    nco = [Fraction(c) for c in num]
    dco = [Fraction(c) for c in den]
    v_den = _poly_valuation(dco)
    if v_den is None:
        raise ZeroDivisionError("laurent_expand: zero denominator")
    v_num = _poly_valuation(nco)
    if v_num is None:
        return LaurentPoly({}, None)

    n = nco[v_num:]
    d = dco[v_den:]
    shift = v_num - v_den

    q, r = _poly_divmod(list(n), d)
    if all(c == 0 for c in r):
        return LaurentPoly({i + shift: c for i, c in enumerate(q) if c != 0}, None)

    # Ascending power series of n/d (d has nonzero constant term) by the
    # standard coefficient recursion, then shifted by p^shift.
    nterms = max(order - shift, 0)
    series: list[Fraction] = []
    for i in range(nterms):
        acc = n[i] if i < len(n) else Fraction(0)
        for j in range(1, min(i, len(d) - 1) + 1):
            acc -= d[j] * series[i - j]
        series.append(acc / d[0])
    coeffs = {i + shift: c for i, c in enumerate(series) if c != 0}
    return LaurentPoly(coeffs, order)


def padic_valuation(q: Fraction | int, p: int):
    """p-adic valuation of a rational; returns INFINITY for q == 0."""
    if p < 2:
        raise ValueError("padic_valuation requires p >= 2")
    q = Fraction(q)
    if q == 0:
        return INFINITY

    def _ival(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return _ival(abs(q.numerator)) - _ival(q.denominator)
