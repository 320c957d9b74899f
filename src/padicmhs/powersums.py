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
  geometrically; recursion is on the degree;
* :func:`top_sum` (upper bound ``b*p^r``) splits ``[1, b*p^r]`` into ``b``
  consecutive blocks of length ``p^r``;
* :func:`block_sum` (one block) substitutes ``n = a*p - j``: the ``a``-chains
  are a block sum one level down, the ``j``-chains are ascending chains in
  ``[0, p-1]`` grouped by runs of equal ``a``'s (independent runs multiply
  via the stuffle product), and each factor ``(a*p - j)^(-s)`` is expanded
  geometrically with an explicit truncation bound;
* :func:`signed_mhs` handles chains over ``[1, p-1]`` whose exponents may be
  zero or negative, eliminating them with power-sum polynomials.

Every function takes an explicit truncation order and returns a series
correct to ``O(p^order)`` for all but finitely many primes; results that
happen to be exact (constants, eliminated signed sums) keep ``order=None``.
Truncation of the geometric expansions is driven by valuation lower bounds:
a sum over an interval ``(L, U]`` with ``U ~ p^d`` lies in valuation
``>= -d * sum_i max(s_i, 0)``, and ``>= 0`` when restricted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import INFINITY, IntPoly, binomial, int_poly, poly_sub, power_sum_poly, strip_poly
from .compositions import bounded_tuples, compositions_of
from .series import MhsSeries

__all__ = [
    "signed_mhs",
    "block_sum",
    "top_sum",
    "poly_sum",
    "full_sum",
    "positive_exponent_sum",
    "valuation_bound",
]

Exps = tuple[int, ...]


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _parity_sign(n: int) -> int:
    return -1 if n % 2 else 1


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
    the first nonpositive exponent -d is eliminated: summing n^d over the
    gap between its neighbours is G_d(upper) - Ghat_d(lower) with
    G_d(x) = sum_{a<x} a^d and Ghat_d = G_d + x^d, and each monomial of
    those polynomials is absorbed into the neighbouring chain entry (or
    becomes an explicit power of p at the ends).  Each step removes one
    chain position, so the recursion terminates; the result is exact.
    """
    if all(e >= 1 for e in exps):
        return MhsSeries.term(1, 0, exps)
    k = len(exps)
    i = next(idx for idx, e in enumerate(exps) if e <= 0)
    d = -exps[i]
    g = power_sum_poly(d)
    ghat = list(g)
    ghat[d] += 1
    acc = MhsSeries.zero()
    if k == 1:
        # sum_{n=1}^{p-1} n^d = G_d(p) - [d == 0]
        acc = MhsSeries({(j, ()): c for j, c in enumerate(g)})
        if d == 0:
            acc = acc - MhsSeries.constant(1)
        return acc
    if i == 0:
        # sum over n_1 in (n_2, p-1]: G_d(p) - Ghat_d(n_2)
        rest = exps[1:]
        s_rest = signed_mhs(rest)
        for j, c in enumerate(g):
            if c:
                acc = acc + s_rest.shift(j).scale(c)
        for j, c in enumerate(ghat):
            if c:
                acc = acc - signed_mhs((rest[0] - j,) + rest[1:]).scale(c)
        return acc
    if i == k - 1:
        # sum over n_k in [1, n_{k-1}): G_d(n_{k-1}) - [d == 0]
        head = exps[:-1]
        for j, c in enumerate(g):
            if c:
                acc = acc + signed_mhs(head[:-1] + (head[-1] - j,)).scale(c)
        if d == 0:
            acc = acc - signed_mhs(head)
        return acc
    # interior: sum over n_i in (n_{i+1}, n_{i-1}): G_d(n_{i-1}) - Ghat_d(n_{i+1})
    for j, c in enumerate(g):
        if c:
            acc = acc + signed_mhs(exps[: i - 1] + (exps[i - 1] - j,) + exps[i + 1 :]).scale(c)
    for j, c in enumerate(ghat):
        if c:
            acc = acc - signed_mhs(exps[:i] + (exps[i + 1] - j,) + exps[i + 2 :]).scale(c)
    return acc


# ---------------------------------------------------------------------------
# one block: S_{b p^r, (b-1) p^r}
# ---------------------------------------------------------------------------

_block_cache: dict[tuple, MhsSeries] = {}


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
    """
    if b < 1 or r < 0:
        raise ValueError(f"block_sum requires b >= 1, r >= 0, got b={b}, r={r}")
    if not exps:
        return MhsSeries.constant(1)
    if r == 0:
        # single index n = b
        if len(exps) == 1:
            return MhsSeries.constant(Fraction(b) ** (-exps[0]))
        return MhsSeries.zero()
    key = (b, r, exps, restricted, order)
    cached = _block_cache.get(key)
    if cached is not None:
        return cached

    k = len(exps)
    acc = MhsSeries.zero(order)
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
            for assign in bounded_tuples(len(geoms), order - base_p - lb_a - 1):
                coeff = Fraction(1)
                p_power = base_p
                e = [blocks[t][0] if j0[t] else 0 for t in range(nruns)]
                chain_exps: list[list[int]] = [[] for _ in range(nruns)]
                for ((t, sigma), n) in zip(geoms, assign):
                    coeff *= binomial(-sigma, n) * _parity_sign(sigma + n)
                    p_power += n
                    e[t] -= n
                    chain_exps[t].append(sigma + n)
                if coeff == 0:
                    continue
                chains = MhsSeries.constant(1)
                for u in chain_exps:
                    if u:
                        chains = chains * signed_mhs(tuple(reversed(u)))
                chain_val = chains.min_valuation()
                if chain_val is INFINITY:
                    continue
                order_a = order - p_power - chain_val
                lb_actual = 0 if r == 1 else -(r - 1) * sum(x for x in e if x > 0)
                if order_a <= lb_actual:
                    continue  # the a-part alone pushes the term past the order
                a_part = block_sum(b, r - 1, tuple(e), False, order_a)
                acc = acc + (chains * a_part).scale(coeff).shift(p_power)
    result = acc.truncate(order)
    _block_cache[key] = result
    return result


# ---------------------------------------------------------------------------
# S_{b p^r, 0} by splitting into b blocks
# ---------------------------------------------------------------------------

_top_cache: dict[tuple, MhsSeries] = {}


def top_sum(b: int, r: int, exps: Exps, restricted: bool, order: int) -> MhsSeries:
    """MhsSeries for S_{b p^r, 0}(exps) (restricted: S^{(p)}) to O(p^order).

    Chains over [1, b*p^r] split at the block boundary (b-1)*p^r:

        S_{b p^r, 0}(s) = sum_i S_{b p^r, (b-1) p^r}(s_1..s_i)
                                 * S_{(b-1) p^r, 0}(s_{i+1}..s_k).
    """
    if b < 0 or r < 0:
        raise ValueError(f"top_sum requires b >= 0, r >= 0, got b={b}, r={r}")
    if not exps:
        return MhsSeries.constant(1)
    if b == 0:
        return MhsSeries.zero()
    if r == 0:
        return MhsSeries.constant(_const_chain_sum(b, exps))
    key = (b, r, exps, restricted, order)
    cached = _top_cache.get(key)
    if cached is not None:
        return cached

    k = len(exps)
    acc = MhsSeries.zero(order)
    for i in range(k + 1):
        pref, suf = exps[:i], exps[i:]
        lb_pref = valuation_bound(r, pref, restricted)
        lb_suf = valuation_bound(r, suf, restricted)
        x = block_sum(b, r, pref, restricted, order - lb_suf)
        y = top_sum(b - 1, r, suf, restricted, order - lb_pref)
        acc = acc + x * y
    result = acc.truncate(order)
    _top_cache[key] = result
    return result


# ---------------------------------------------------------------------------
# S_{f(p), 0} for a general polynomial bound
# ---------------------------------------------------------------------------

_poly_cache: dict[tuple, MhsSeries] = {}


def poly_sum(f, exps: Exps, restricted: bool, order: int) -> MhsSeries:
    """MhsSeries for S_{f(p), 0}(exps) (restricted: S^{(p)}) to O(p^order).

    ``f`` is an ascending-coefficient integer polynomial.  A constant bound
    is summed directly.  Otherwise write f = a*x^r + g with deg g < r; the
    leading coefficient a must be positive.  When g is eventually positive,
    chains over [1, f(p)] split at a*p^r, and the part above a*p^r is
    expanded geometrically around a*p^r into sums bounded by g.  When g is
    eventually negative (f = a*x^r - h), chains over [1, a*p^r] split at
    f(p) instead, and the strip (f(p), a*p^r] is expanded geometrically
    into sums bounded by h - 1; the recursion is on deg f and chain depth.
    """
    f = int_poly(f, "power-sum bound")
    if not exps:
        return MhsSeries.constant(1)
    if len(f) <= 1:
        c = f[0] if f else 0
        return MhsSeries.constant(_const_chain_sum(c, exps))
    key = (f, exps, restricted, order)
    cached = _poly_cache.get(key)
    if cached is not None:
        return cached

    r = len(f) - 1
    a = f[-1]
    if a <= 0:
        raise ValueError(
            f"poly_sum: upper-bound polynomial must have a positive leading coefficient, got {f}"
        )
    rest = strip_poly(f[:-1])
    k = len(exps)

    if not rest:
        result = top_sum(a, r, exps, restricted, order)
    elif rest[-1] > 0:
        # f = a*x^r + g with g eventually positive: split chains at a*p^r
        dg = len(rest) - 1
        acc = MhsSeries.zero(order)
        for i in range(k + 1):
            pref, suf = exps[:i], exps[i:]
            lb_pref = valuation_bound(dg, pref, restricted)
            lb_suf = valuation_bound(r, suf, restricted)
            u = _upper_plus(a, r, rest, pref, restricted, order - lb_suf)
            t = top_sum(a, r, suf, restricted, order - lb_pref)
            acc = acc + u * t
        result = acc.truncate(order)
    else:
        # f = a*x^r - h with h eventually positive: split chains over
        # [1, a*p^r] at f(p) and move the strip (f(p), a*p^r] to the left:
        # S_{f,0}(s) = S_{a p^r,0}(s) - sum_{i>=1} S_{a p^r, f}(s_1..s_i)
        #                                          * S_{f,0}(s_{i+1}..s_k)
        h = tuple(-c for c in rest)
        acc = top_sum(a, r, exps, restricted, order)
        for i in range(1, k + 1):
            pref, suf = exps[:i], exps[i:]
            lb_pref = valuation_bound(r, pref, restricted)
            lb_suf = valuation_bound(r, suf, restricted)
            u = _upper_minus(a, r, h, pref, restricted, order - lb_suf)
            s2 = poly_sum(f, suf, restricted, order - lb_pref)
            acc = acc - u * s2
        result = acc.truncate(order)
    _poly_cache[key] = result
    return result


def _upper_plus(
    a: int, r: int, g: IntPoly, sigma: Exps, restricted: bool, order: int
) -> MhsSeries:
    """S_{a p^r + g(p), a p^r}(sigma) to O(p^order), deg g < r, g eventually positive.

    Indices are n = a*p^r + m with m in [1, g(p)];
    (a*p^r + m)^(-s) = sum_t C(-s,t) a^t p^(rt) m^(-s-t), so each t-tuple
    contributes a sum bounded by g in the shifted exponents.  The interval
    contains no index divisible by p^(deg g + 1) for large p, so a term
    with total geometric degree T has valuation >= r*T - deg(g) * (positive
    exponent mass), which truncates the t-enumeration.
    """
    if not sigma:
        return MhsSeries.constant(1)
    dg = len(g) - 1
    possum = positive_exponent_sum(sigma)
    if restricted:
        maxtotal = (order - 1) // r if order >= 1 else -1
    else:
        # visible while (r - dg) * total - dg * (possum + total) ... bounded by
        # r*total - dg*(possum + total) < order
        maxtotal = -1
        total = 0
        while (r - dg) * total - dg * possum < order:
            maxtotal = total
            total += 1
    acc = MhsSeries.zero(order)
    for t in bounded_tuples(len(sigma), maxtotal):
        coeff = Fraction(1)
        for s_l, t_l in zip(sigma, t):
            coeff *= binomial(-s_l, t_l)
        if coeff == 0:
            continue
        st = sum(t)
        inner = poly_sum(g, tuple(s + u for s, u in zip(sigma, t)), restricted, order - r * st)
        acc = acc + inner.scale(coeff * a**st).shift(r * st)
    return acc.truncate(order)


def _upper_minus(
    a: int, r: int, h: IntPoly, sigma: Exps, restricted: bool, order: int
) -> MhsSeries:
    """S_{a p^r, a p^r - h(p)}(sigma) to O(p^order), deg h < r, h eventually positive.

    Indices are n = a*p^r - m with m in [0, h(p)-1], so descending n-chains
    are ascending m-chains; m = 0 (i.e. n = a*p^r) can only occupy the first
    position and is dropped when restricted.  For m >= 1,
    (a*p^r - m)^(-s) = sum_t C(-s,t) (-1)^(s+t) a^t p^(rt) m^(-s-t), and the
    ascending m-chains with bound h(p)-1 are sums with reversed exponents.
    """
    if not sigma:
        return MhsSeries.constant(1)
    hm1 = poly_sub(h, (1,))

    def chain_tail(tau: Exps, order_t: int) -> MhsSeries:
        # ascending chains 1 <= m_1 < ... < m_j <= h(p)-1 with factors m_l^(-tau_l)
        if not tau:
            return MhsSeries.constant(1)
        dh = max(len(hm1) - 1, 0)
        possum = positive_exponent_sum(tau)
        maxtotal = -1
        total = 0
        bound = (lambda T: r * T) if restricted else (lambda T: (r - dh) * T - dh * possum)
        while bound(total) < order_t:
            maxtotal = total
            total += 1
        acc = MhsSeries.zero(order_t)
        for t in bounded_tuples(len(tau), maxtotal):
            coeff = Fraction(1)
            for s_l, t_l in zip(tau, t):
                coeff *= binomial(-s_l, t_l) * _parity_sign(s_l + t_l) * a**t_l
            if coeff == 0:
                continue
            st = sum(t)
            rev = tuple(reversed([s + u for s, u in zip(tau, t)]))
            inner = poly_sum(hm1, rev, restricted, order_t - r * st)
            acc = acc + inner.scale(coeff).shift(r * st)
        return acc.truncate(order_t)

    result = chain_tail(sigma, order)
    if not restricted:
        # m = 0 term: n_1 = a*p^r exactly
        s1 = sigma[0]
        c0 = Fraction(a) ** (-s1)
        tail = chain_tail(sigma[1:], order + r * s1)
        result = result + tail.scale(c0).shift(-r * s1)
    return result.truncate(order)


# ---------------------------------------------------------------------------
# S_{f(p), g(p)} for general polynomial bounds
# ---------------------------------------------------------------------------

_full_cache: dict[tuple, MhsSeries] = {}


def full_sum(f, g, exps: Exps, restricted: bool, order: int) -> MhsSeries:
    """MhsSeries for S_{f(p), g(p)}(exps) (restricted: S^{(p)}) to O(p^order).

    ``g`` may be the zero polynomial (lower bound 1); otherwise chains over
    [1, f(p)] split at g(p):

        S_{f,g}(s) = S_{f,0}(s) - sum_{i=0}^{k-1} S_{f,g}(s_1..s_i)
                                                   * S_{g,0}(s_{i+1}..s_k),

    recursing on chain depth.  If f - g is eventually nonpositive the
    interval is eventually empty and the sum is exactly 0 (or 1 for the
    empty chain).
    """
    f = int_poly(f, "power-sum bound")
    g = int_poly(g, "power-sum bound")
    if not exps:
        return MhsSeries.constant(1)
    if not g:
        return poly_sum(f, exps, restricted, order)
    diff = poly_sub(f, g)
    if not diff or diff[-1] < 0:
        return MhsSeries.zero()
    key = (f, g, exps, restricted, order)
    cached = _full_cache.get(key)
    if cached is not None:
        return cached

    df = len(f) - 1
    dg = len(g) - 1
    k = len(exps)
    acc = poly_sum(f, exps, restricted, order)
    for i in range(k):
        pref, suf = exps[:i], exps[i:]
        lb_pref = valuation_bound(df, pref, restricted)
        lb_suf = valuation_bound(dg, suf, restricted)
        part = full_sum(f, g, pref, restricted, order - lb_suf)
        low = poly_sum(g, suf, restricted, order - lb_pref)
        acc = acc - part * low
    result = acc if acc.order is None else acc.truncate(order)
    _full_cache[key] = result
    return result
