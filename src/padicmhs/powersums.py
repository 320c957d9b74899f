"""Truncated p-adic expansions of bounded multiple power sums.

This module expands

    S_{N,M}(s_1,...,s_k) = sum_{N >= n_1 > ... > n_k >= M+1} prod_i n_i^(-s_i)

into :class:`~padicmhs.series.MhsSeries`, where the bounds ``N``, ``M`` are
integer polynomials evaluated at the prime ``p``, the exponents ``s_i`` are
arbitrary integers, and the *restricted* variant keeps only indices coprime
to ``p``.  The reduction chain:

* :func:`full_sum` (general polynomial lower bound) splits each chain at the
  lower bound, leaving products of sums with lower bound zero;
* :func:`poly_sum` (upper bound ``f(p)``, lower bound zero) peels the leading
  monomial ``a*x^r`` of ``f`` and splits ``[1, f(p)]`` into ``[1, a*p^r]``
  plus or minus a remainder interval of smaller degree, which is expanded
  geometrically; recursion is on the degree.  A monomial bound ``a*p^r``
  splits ``[1, a*p^r]`` into ``a`` consecutive blocks of length ``p^r``;
* :func:`block_sum` (one block) substitutes ``n = a*p - j``: the ``a``-chains
  are a block sum one level down, the ``j``-chains are ascending chains in
  ``[0, p-1]`` grouped by runs of equal ``a``'s (independent runs multiply
  via the stuffle product), and each factor ``(a*p - j)^(-s)`` is expanded
  geometrically with an explicit truncation bound; the leaves' j-parts are
  summed per a-part profile, so each a-part is computed once and each
  profile takes one product;
* an unrestricted sum with a zero or negative exponent, over ``[1, p-1]``
  (:func:`signed_mhs`), over one block or below a polynomial bound, is not
  expanded: one rule, :func:`_eliminate`, sums that exponent out exactly
  with Faulhaber's power-sum polynomials into shorter chains over the same
  interval.

Every function takes an explicit truncation order and returns a series
correct to ``O(p^order)`` for all but finitely many primes; results that
happen to be exact (constants, eliminated signed sums) keep ``order=None``.
Truncation of the geometric expansions is driven by valuation lower bounds:
a sum over an interval ``(L, U]`` with ``U ~ p^d`` lies in valuation
``>= -d * sum_i max(s_i, 0)``, and ``>= 0`` when restricted.  The same
floors set the orders of a chain split: to know a product ``X * Y`` to
``O(p^order)``, each factor is computed to ``order`` less the other's floor,
and never below its own floor.  Below its floor a factor is zero, and a zero
series stamped with a lower order would understate the product's order.

:func:`block_sum`, :func:`poly_sum` and :func:`full_sum` share one memo
keyed by the sum without its order.  It keeps each sum at the highest
order computed so far and serves a lower order by truncation: below that
order the terms are the same whichever higher order the sum was computed
at.  An exact result is served only at the order it was computed for.
:func:`padicmhs.clear_caches` empties it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterable

from .arith import INFINITY, IntPoly, poly_mul, poly_sub, power_sum_poly, strip_poly
from .compositions import bounded_tuples, compositions_of
from .series import (
    IntTerms,
    MhsSeries,
    _add_over,
    _integer_terms,
    _over,
    _rescale,
    _stuffle_into,
)

__all__ = [
    "signed_mhs",
    "block_sum",
    "poly_sum",
    "full_sum",
    "positive_exponent_sum",
    "valuation_bound",
]

Exps = tuple[int, ...]

_ONE = MhsSeries._trusted({(0, ()): Fraction(1)}, None)
_ZERO = MhsSeries._trusted({}, None)


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _parity_sign(n: int) -> int:
    return -1 if n % 2 else 1


def _binom_neg(s: int, n: int) -> int:
    """C(-s, n) for integers s and n >= 0."""
    if s <= 0:
        return comb(-s, n)
    return _parity_sign(n) * comb(n + s - 1, n)


def _exact_constant(c: Fraction) -> MhsSeries:
    """The exact constant series c (the empty series when c is zero)."""
    return MhsSeries._trusted({(0, ()): c} if c else {}, None)


#: sum key -> (order, series): each bounded sum at the highest order so far
_memo: dict[tuple, tuple[int, MhsSeries]] = {}


def _memoized(key: tuple, order: int, compute: Callable[[], MhsSeries]) -> MhsSeries:
    """The sum ``key`` to O(p^order), from the memo or by ``compute()``.

    Below ``order`` a truncated expansion has the same terms whichever
    higher order it was computed at, so a result kept at a higher order is
    served truncated.  A truncation carries the cut of the int form the
    kept result holds (over the same denominator), so :func:`_eliminate`
    converts each sum to int numerators once.  An exact result is served
    only at the order it was computed for.  The memo keeps the highest
    order computed so far.
    """
    hit = _memo.get(key)
    if hit is not None:
        at, series = hit
        if at == order:
            return series
        if at > order and series.order is not None:
            cut = series.truncate(order)
            nums, den = series._integer_form()
            cut._ints = [(k, n) for k, n in nums if k[0] < order], den
            return cut
    series = compute()
    if hit is None or order > hit[0]:
        _memo[key] = (order, series)
    return series


def positive_exponent_sum(exps: Exps) -> int:
    """sum_i max(s_i, 0), the quantity controlling negative valuations."""
    return sum(e for e in exps if e > 0)


def valuation_bound(upper_degree: int, exps: Exps, restricted: bool) -> int:
    """Guaranteed valuation lower bound for a power sum over ``(L, U]``.

    ``upper_degree`` bounds v_p(n) for every index n of the interval (for
    all but finitely many p).  Restricted sums are p-integral outright.
    """
    if restricted:
        return 0
    return -upper_degree * positive_exponent_sum(exps)


def _split_orders(
    order: int, restricted: bool, pref: Exps, pref_degree: int, suf: Exps, suf_degree: int
) -> tuple[int, int]:
    """The orders at which to compute X(pref) and Y(suf) to know X*Y to O(p^order).

    Each is ``max(order - lb_other, lb_own)``, ``lb`` the
    :func:`valuation_bound` of the factor over an interval of that degree.
    """
    lb_pref = valuation_bound(pref_degree, pref, restricted)
    lb_suf = valuation_bound(suf_degree, suf, restricted)
    return max(order - lb_suf, lb_pref), max(order - lb_pref, lb_suf)


def _const_chain_sum(c: int, exps: Exps) -> Fraction:
    """S_{c,0}(exps) for a constant bound: chains c >= n_1 > ... > n_k >= 1.

    A constant rational, independent of p; for all but finitely many primes
    the restriction p | no n_i is vacuous here, so it is ignored.
    """
    k = len(exps)
    D = [Fraction(1)] + [Fraction(0)] * k
    for n in range(1, max(c, 0) + 1):
        for j in range(k, 0, -1):
            if D[j - 1]:
                D[j] += D[j - 1] * Fraction(n) ** (-exps[k - j])
    return D[k]


# ---------------------------------------------------------------------------
# chains over [1, p-1] with exponents of either sign
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def signed_mhs(exps: Exps) -> MhsSeries:
    """Exact MhsSeries for S_{p-1,0}(exps), exponents of either sign.

    For all-positive exponents this is the single term H(exps).  Otherwise
    :func:`_eliminate` sums out the first nonpositive exponent over
    (0, p-1]; each step removes one chain position, so the recursion
    terminates and the result is exact.
    """
    if all(e >= 1 for e in exps):
        return MhsSeries._trusted({(0, exps): Fraction(1)}, None)
    return _eliminate(exps, (-1, 1), (), lambda chain, _o: signed_mhs(chain), None)


@lru_cache(maxsize=1024)
def _ghat_at(d: int, bound: IntPoly) -> tuple[Fraction, ...]:
    """p-coefficients of Ghat_d(bound(p)) = sum_{0 < a <= bound(p)} a^d (0^0 = 1)."""
    ghat = list(power_sum_poly(d))
    ghat[d] += 1
    nums, den = _integer_terms(dict(enumerate(ghat)))
    acc: list[int] = []
    for _, n in reversed(nums):  # Horner in the polynomial bound, on int numerators
        acc = list(poly_mul(acc, bound)) or [0]
        acc[0] += n
    return tuple(Fraction(n, den) for n in strip_poly(acc))


def _eliminate(
    exps: Exps, upper: IntPoly, lower: IntPoly, sub: Callable, order: int | None
) -> MhsSeries:
    """The unrestricted S_{upper(p), lower(p)}(exps) to O(p^order) (None: exactly).

    The first nonpositive exponent -d, at position i, is summed out:
    summing n_i^d over the gap between its neighbours is G_d(n_(i-1)) -
    Ghat_d(n_(i+1)), with G_d(x) = sum_{a<x} a^d and Ghat_d = G_d + x^d.
    An outer neighbour is a bound: Ghat_d(upper(p)) when i is first,
    Ghat_d(lower(p)) when i is last, both explicit powers of p.  Each
    monomial x^j of an index neighbour lowers that neighbour's exponent by
    j.  ``sub(chain, o)`` is the shorter sum over the same interval to
    O(p^o); each piece c * p^m * sub(chain) is asked to O(p^(order - m))
    and summed as int numerators, in the int form each sub-sum keeps.
    """
    i = next(idx for idx, e in enumerate(exps) if e <= 0)
    d = -exps[i]
    rest = exps[:i] + exps[i + 1 :]
    # pieces (c, chain, m) of the sum of c * p^m * sub(chain)
    if i:  # G_d(n_(i-1)), the coefficients of G_d itself
        g = power_sum_poly(d)
        pieces = [(c, rest[: i - 1] + (rest[i - 1] - j,) + rest[i:], 0) for j, c in enumerate(g)]
    else:
        pieces = [(c, rest, m) for m, c in enumerate(_ghat_at(d, upper))]
    if i < len(rest):  # Ghat_d(n_(i+1)), the coefficients of Ghat_d itself
        ghat = _ghat_at(d, (0, 1))
        pieces += [(-c, rest[:i] + (rest[i] - j,) + rest[i + 1 :], 0) for j, c in enumerate(ghat)]
    else:
        pieces += [(-c, rest, m) for m, c in enumerate(_ghat_at(d, lower))]
    acc: dict[tuple[int, Exps], int] = {}
    den = 1
    for c, chain, m in pieces:
        if c:
            nums, d_sub = sub(chain, None if order is None else order - m)._integer_form()
            nums = [((b + m, s), n) for (b, s), n in nums] if m else nums
            den = _add_over(acc, den, nums, d_sub * c.denominator, c.numerator)
    below = {key: n for key, n in acc.items() if order is None or key[0] < order}
    return MhsSeries._trusted(_over(below, den), order)


# ---------------------------------------------------------------------------
# one block: S_{b p^r, (b-1) p^r}
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _chain_product(chains: tuple[Exps, ...]) -> tuple[MhsSeries, IntTerms, int, int | float]:
    """The stuffle product of ``signed_mhs(u)`` over the chains ``u``, left to right.

    Returned with its scaled form, the ``(key, numerator)`` pairs over the
    lcm of its denominators and that lcm, and with its min-valuation.
    """
    if not chains:
        series = _ONE
    else:
        series = _chain_product(chains[:-1])[0] * signed_mhs(chains[-1])
    nums, d = _integer_terms(series._terms)
    return series, nums, d, series.min_valuation()


def block_sum(b: int, r: int, exps: Exps, restricted: bool, order: int) -> MhsSeries:
    """MhsSeries for S_{b p^r, (b-1) p^r}(exps) (restricted: S^{(p)}) to O(p^order).

    Substituting n = a*p - j maps the block bijectively onto the rectangle
    a in ((b-1)p^(r-1), b*p^(r-1)], j in [0, p-1]; the chain condition
    n_1 > ... > n_k becomes: a's weakly decreasing, with j's strictly
    increasing along each run of equal a's.  Runs are enumerated as ordered
    compositions of k; j = 0 (i.e. p | n) can occur only at the first
    position of a run and is excluded when restricted.  Each (a*p - j)^(-s)
    with j >= 1 is expanded geometrically; the j-chains reduce to
    :func:`signed_mhs` (independent runs multiply by stuffle) and the
    a-chains form a block sum at level r-1.

    Every leaf of that expansion is coeff * chains * p^p_power * a-part,
    where the a-part depends only on the exponents ``e`` of the a-chain.
    The leaves' coeff * chains are summed per profile (e, p_power) first,
    each a-part is computed once at the largest order its leaves need, and
    each profile takes one product; by distributivity the result is the
    same as one product per leaf.  The profile sums are accumulated as int
    numerators, and :func:`_profile_products` sums the profile products.
    An unrestricted sum with a nonpositive exponent is :func:`_eliminate`'s.
    """
    if not exps:
        return _ONE
    if r == 0:
        # single index n = b
        if len(exps) == 1:
            return _exact_constant(Fraction(b) ** (-exps[0]))
        return _ZERO
    key = ("block", b, r, exps, restricted)
    if restricted or min(exps) > 0:
        return _memoized(key, order, lambda: _block_sum(b, r, exps, restricted, order))
    upper, lower = (0,) * r + (b,), strip_poly((0,) * r + (b - 1,))
    sub = lambda chain, o: block_sum(b, r, chain, False, o)  # noqa: E731
    return _memoized(key, order, lambda: _eliminate(exps, upper, lower, sub, order))


def _block_sum(b: int, r: int, exps: Exps, restricted: bool, order: int) -> MhsSeries:
    k = len(exps)
    # profile (e, p_power) -> [int numerators of the summed coeff * chains,
    # their common denominator]
    profiles: dict[tuple[Exps, int], list] = {}
    a_orders: dict[Exps, int] = {}
    for structure in compositions_of(k):
        blocks: list[Exps] = []
        pos = 0
        for size in structure:
            blocks.append(exps[pos : pos + size])
            pos += size
        nruns = len(structure)
        for flags_mask in range(1 if restricted else 1 << nruns):
            j0 = [bool(flags_mask >> t & 1) for t in range(nruns)]
            base_p = -sum(blocks[t][0] for t in range(nruns) if j0[t])
            caps = [max(blocks[t][0], 0) if j0[t] else 0 for t in range(nruns)]
            lb_a = 0 if r == 1 else -(r - 1) * sum(caps)
            # positions expanded geometrically: (run index, exponent)
            geoms = [
                (t, sigma)
                for t, block in enumerate(blocks)
                for q, sigma in enumerate(block)
                if not (j0[t] and q == 0)
            ]
            # a term with total geometric degree n has valuation at least
            # base_p + sum(n) + lb_a, so only sum(n) < order - base_p - lb_a
            # can be visible
            max_degree = order - base_p - lb_a - 1
            # (a*p - j)^(-sigma) = sum_n C(-sigma, n) (-1)^(sigma+n) (a*p)^n j^(-sigma-n)
            coeff_rows = [
                [_binom_neg(sigma, n) * _parity_sign(sigma + n) for n in range(max_degree + 1)]
                for _t, sigma in geoms
            ]
            e_start = [blocks[t][0] if j0[t] else 0 for t in range(nruns)]
            for assign in bounded_tuples(len(geoms), max_degree):
                coeff = 1
                for row, n in zip(coeff_rows, assign):
                    coeff *= row[n]
                if coeff == 0:
                    continue
                e = list(e_start)
                chain_exps: list[list[int]] = [[] for _ in range(nruns)]
                for (t, sigma), n in zip(geoms, assign):
                    e[t] -= n
                    chain_exps[t].append(sigma + n)
                _, nums, d, chain_val = _chain_product(
                    tuple(tuple(reversed(u)) for u in chain_exps if u)
                )
                if chain_val is INFINITY:
                    continue
                p_power = base_p + sum(assign)
                order_a = order - p_power - chain_val
                lb_actual = 0 if r == 1 else -(r - 1) * sum(x for x in e if x > 0)
                if order_a <= lb_actual:
                    continue  # the a-part alone pushes the term past the order
                e_key = tuple(e)
                _raise_order(a_orders, e_key, order_a)
                profile = profiles.setdefault((e_key, p_power), [{}, 1])
                profile[1] = _add_over(profile[0], profile[1], nums, d, coeff)

    return _profile_products(
        (
            (e, p_power, [(key, n) for key, n in summed.items() if n], chain_den)
            for (e, p_power), (summed, chain_den) in profiles.items()
        ),
        a_orders,
        lambda e, a_order: block_sum(b, r - 1, e, False, a_order),
        order,
    )


def _raise_order(a_orders: dict, a_key: tuple, order: int) -> None:
    """Record that the a-part ``a_key`` is needed to O(p^order); keep the highest."""
    a_orders[a_key] = max(a_orders.get(a_key, order), order)


def _profile_products(
    profiles: Iterable[tuple], a_orders: dict, a_part: Callable, order: int
) -> MhsSeries:
    """Sum of ``p^shift * chains * a_part(a_key)`` over the profiles, to O(p^order).

    ``profiles`` yields ``(a_key, shift, chains, den)``, the summed chains
    as ``(key, numerator)`` pairs over ``den``.  Each a-part is computed
    once, as ``a_part(a_key, a_orders[a_key])``.  The products are summed as
    int numerators over one running common denominator, and a Fraction is
    built once per output term.  Shared by :func:`block_sum` and the
    curious-sum expansion.
    """
    a_parts = {a_key: a_part(a_key, a_order) for a_key, a_order in a_orders.items()}
    acc: dict = {}
    den = 1
    for a_key, shift, chains, chain_den in profiles:
        if not chains:
            continue
        # a-part terms at or above this order meet no chain term below ``order``
        a_terms = a_parts[a_key].truncate(order - shift - min(key[0] for key, _ in chains))
        a_nums, a_den = _integer_terms(a_terms._terms)
        d = chain_den * a_den
        den = _rescale(acc, den, d)
        _stuffle_into(acc, chains, a_nums, shift, order, den // d)
    return MhsSeries._trusted(_over(acc, den), order)


# ---------------------------------------------------------------------------
# S_{f(p), 0} for a general polynomial bound
# ---------------------------------------------------------------------------

def poly_sum(f, exps: Exps, restricted: bool, order: int) -> MhsSeries:
    """MhsSeries for S_{f(p), 0}(exps) (restricted: S^{(p)}) to O(p^order).

    ``f`` is an ascending-coefficient integer polynomial, stripped here of
    trailing zeros.  A constant bound is summed directly.  Otherwise write
    f = a*x^r + g with deg g < r and a > 0.  When g is zero, chains over
    [1, a*p^r] split at the block boundary (a-1)*p^r:

        S_{a p^r, 0}(s) = sum_i S_{a p^r, (a-1) p^r}(s_1..s_i)
                                 * S_{(a-1) p^r, 0}(s_{i+1}..s_k),

    the first factor a :func:`block_sum`.  When g is eventually positive,
    chains over [1, f(p)] split at a*p^r, and the part above a*p^r is
    expanded geometrically around a*p^r into sums bounded by g.  When g is
    eventually negative (f = a*x^r - h), chains over [1, a*p^r] split at
    f(p) instead, and the strip (f(p), a*p^r] is expanded geometrically
    into sums bounded by h - 1; the recursion is on deg f and chain depth.
    An unrestricted sum with a nonpositive exponent is :func:`_eliminate`'s.
    """
    f = strip_poly(f)
    if not exps:
        return _ONE
    if len(f) <= 1:
        c = f[0] if f else 0
        return _exact_constant(_const_chain_sum(c, exps))
    key = ("poly", f, exps, restricted)
    if restricted or min(exps) > 0:
        return _memoized(key, order, lambda: _poly_sum(f, exps, restricted, order))
    sub = lambda chain, o: poly_sum(f, chain, False, o)  # noqa: E731
    return _memoized(key, order, lambda: _eliminate(exps, f, (), sub, order))


def _poly_sum(f: IntPoly, exps: Exps, restricted: bool, order: int) -> MhsSeries:
    r = len(f) - 1
    a = f[-1]
    rest = strip_poly(f[:-1])
    lead = (0,) * r + (a,)

    if not rest:
        below = (0,) * r + (a - 1,)
        acc = MhsSeries._trusted({}, order)
        for i in range(len(exps) + 1):
            pref, suf = exps[:i], exps[i:]
            o_pref, o_suf = _split_orders(order, restricted, pref, r, suf, r)
            block = block_sum(a, r, pref, restricted, o_pref)
            acc = acc + block * poly_sum(below, suf, restricted, o_suf)
        return acc.truncate(order)
    if rest[-1] > 0:
        # f = a*x^r + g with g eventually positive: split chains at a*p^r
        acc = MhsSeries._trusted({}, order)
        for i in range(len(exps) + 1):
            pref, suf = exps[:i], exps[i:]
            o_pref, o_suf = _split_orders(order, restricted, pref, len(rest) - 1, suf, r)
            upper = _geometric_tail(a, r, rest, pref, restricted, o_pref, minus=False)
            acc = acc + upper * poly_sum(lead, suf, restricted, o_suf)
        return acc.truncate(order)
    # f = a*x^r - h with h eventually positive: split chains over
    # [1, a*p^r] at f(p) and move the strip (f(p), a*p^r] to the left:
    # S_{f,0}(s) = S_{a p^r,0}(s) - sum_{i>=1} S_{a p^r, f}(s_1..s_i)
    #                                          * S_{f,0}(s_{i+1}..s_k)
    h = tuple(-c for c in rest)
    acc = poly_sum(lead, exps, restricted, order)
    for i in range(1, len(exps) + 1):
        pref, suf = exps[:i], exps[i:]
        o_pref, o_suf = _split_orders(order, restricted, pref, r, suf, r)
        strip = _upper_minus(a, r, h, pref, restricted, o_pref)
        acc = acc - strip * poly_sum(f, suf, restricted, o_suf)
    return acc.truncate(order)


def _geometric_tail(
    a: int, r: int, g: IntPoly, sigma: Exps, restricted: bool, order: int, minus: bool
) -> MhsSeries:
    """Chains n_1 > ... > n_k with n = a*p^r + m (``minus``: a*p^r - m), m in [1, g(p)].

    To O(p^order); deg g < r and g is eventually nonnegative.  Each factor
    expands as (a*p^r +- m)^(-s) = sum_t C(-s,t) (+-1)^(s+t) a^t p^(rt) m^(-s-t),
    so each t-tuple contributes a sum bounded by g in the shifted exponents,
    with the exponents reversed for ``minus``, whose m-chains ascend.  For
    large p no m is divisible by p^(d+1), d = deg g (d = 0 when restricted,
    as the sums are then p-integral), so a term of total degree T has
    valuation >= (r - d)*T - d*(positive exponent mass of sigma), which
    truncates the t-enumeration.
    """
    if not sigma:
        return _ONE
    d = 0 if restricted else max(len(g) - 1, 0)
    max_total = (order - 1 + d * positive_exponent_sum(sigma)) // (r - d)
    acc = MhsSeries._trusted({}, order)
    for t in bounded_tuples(len(sigma), max_total):
        coeff = 1
        for s_l, t_l in zip(sigma, t):
            coeff *= _binom_neg(s_l, t_l) * a**t_l
        if coeff == 0:
            continue
        st = sum(t)
        shifted = tuple(s + u for s, u in zip(sigma, t))
        if minus:
            coeff *= _parity_sign(sum(shifted))
            shifted = shifted[::-1]
        inner = poly_sum(g, shifted, restricted, order - r * st)
        acc = acc + inner.scale(coeff).shift(r * st)
    return acc.truncate(order)


def _upper_minus(
    a: int, r: int, h: IntPoly, sigma: Exps, restricted: bool, order: int
) -> MhsSeries:
    """S_{a p^r, a p^r - h(p)}(sigma) to O(p^order), deg h < r, h eventually positive.

    Indices are n = a*p^r - m with m in [0, h(p)-1].  The chains with every
    m >= 1 are the geometric tail with bound h - 1; m = 0 (i.e. n = a*p^r)
    can only occupy the first position and is dropped when restricted.
    ``sigma`` is nonempty.
    """
    hm1 = poly_sub(h, (1,))
    result = _geometric_tail(a, r, hm1, sigma, restricted, order, minus=True)
    if not restricted:
        # m = 0 term: n_1 = a*p^r exactly
        s1 = sigma[0]
        tail = _geometric_tail(a, r, hm1, sigma[1:], restricted, order + r * s1, minus=True)
        result = result + tail.scale(Fraction(a) ** (-s1)).shift(-r * s1)
    return result.truncate(order)


# ---------------------------------------------------------------------------
# S_{f(p), g(p)} for general polynomial bounds
# ---------------------------------------------------------------------------

def full_sum(f, g, exps: Exps, restricted: bool, order: int) -> MhsSeries:
    """MhsSeries for S_{f(p), g(p)}(exps) (restricted: S^{(p)}) to O(p^order).

    ``f`` and ``g`` are integer polynomials without trailing zeros.  If
    f - g is eventually nonpositive the interval is eventually empty and the
    sum is exactly 0 (or 1 for the empty chain).  Otherwise ``g`` is zero
    (lower bound 1) or eventually positive, and chains over [1, f(p)] split
    at g(p):

        S_{f,g}(s) = S_{f,0}(s) - sum_{i=0}^{k-1} S_{f,g}(s_1..s_i)
                                                   * S_{g,0}(s_{i+1}..s_k),

    recursing on chain depth.
    """
    if not exps:
        return _ONE
    diff = poly_sub(f, g)
    if not diff or diff[-1] < 0:
        return _ZERO
    if not g:
        return poly_sum(f, exps, restricted, order)
    return _memoized(
        ("full", f, g, exps, restricted), order, lambda: _full_sum(f, g, exps, restricted, order)
    )


def _full_sum(f: IntPoly, g: IntPoly, exps: Exps, restricted: bool, order: int) -> MhsSeries:
    acc = poly_sum(f, exps, restricted, order)
    for i in range(len(exps)):
        pref, suf = exps[:i], exps[i:]
        o_pref, o_suf = _split_orders(order, restricted, pref, len(f) - 1, suf, len(g) - 1)
        part = full_sum(f, g, pref, restricted, o_pref)
        acc = acc - part * poly_sum(g, suf, restricted, o_suf)
    return acc if acc.order is None else acc.truncate(order)
