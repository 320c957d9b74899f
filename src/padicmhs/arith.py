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
  ``strip_poly`` (drop trailing zeros), ``poly_sub``, ``poly_mul`` and
  ``_poly_divmod`` (exact division over Q).
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
    "bernoulli",
    "binomial",
    "eval_poly",
    "padic_valuation",
    "poly_mul",
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


def poly_sub(f: IntPoly, g: IntPoly) -> IntPoly:
    """``f - g`` with trailing zeros stripped."""
    n = max(len(f), len(g))
    return strip_poly(
        [(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)]
    )


def poly_mul(f, g) -> tuple:
    """``f * g`` with trailing zeros stripped."""
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return strip_poly(out)


def _poly_divmod(num, den) -> tuple[list[Fraction], list[Fraction]]:
    """Polynomial division over Q: (quotient, remainder); ``den``'s last coefficient is nonzero."""
    num = [Fraction(c) for c in num]
    dendeg = len(den) - 1
    q = [Fraction(0)] * max(len(num) - dendeg, 1)
    for i in range(len(num) - 1, dendeg - 1, -1):
        f = num[i] / den[dendeg]
        if f:
            q[i - dendeg] = f
            for j in range(dendeg + 1):
                num[i - dendeg + j] -= f * den[j]
    return q, num


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
