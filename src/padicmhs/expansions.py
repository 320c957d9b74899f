"""Expansions of prime-indexed quantities into p-adic MHS series.

:func:`expand_quantity` is the one public entry point: it expresses a
parsed quantity (a :class:`~padicmhs.quantities.QuantitySpec`, which checked
its arguments when it was built) as an :class:`~padicmhs.series.MhsSeries`:
a finite combination ``sum_i c_i * p^b_i * H_{p-1}(s_i)``, either exact
(``order=None``) or truncated with an explicit tail ``O(p^order)``.  It
checks the order once and dispatches to one private routine per quantity:

* rational functions of p (``rat``),
* binomial coefficients with polynomial arguments (``binp``, ``binpoly``),
  through factorial ratios,
* Apery numbers ``b_{p-1}`` (``apery``),
* p-adic zeta values ``p^k * zeta_p(k)`` (``zetap``),
* bounded multiple power sums (``psum``, :func:`~padicmhs.powersums.full_sum`),
* p-restricted harmonic numbers (``hres``),
* "curious" sums over coprime compositions of ``p^r`` (``curious``),
* polynomial-weighted sums of harmonic numbers (``sumpoly``),
* half-range and alternating harmonic numbers (``half``, ``alt``).

Conventions:

* polynomials are ascending coefficient tuples in the prime variable;
* every truncated expansion is sound for all sufficiently large primes:
  the dropped tail has p-adic valuation at least the stamped order;
* all arithmetic is exact rational.

The Apery and curious expansions are put into canonical form by
:func:`padicmhs.prover.canonicalize`, which reduces them
modulo the relation span.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .arith import (
    IntPoly,
    _poly_divmod,
    bernoulli,
    binomial,
    poly_sub,
    power_sum_poly,
    strip_poly,
)
from .compositions import Comp, bounded_tuples, check_int, compositions_of, stuffle
from .powersums import (
    _chain_product,
    _profile_products,
    _raise_order,
    full_sum,
    poly_sum,
    signed_mhs,
    valuation_bound,
)
from .prover import canonicalize
from .quantities import QuantitySpec
from .series import MhsSeries

__all__ = ["expand_quantity"]


# ---------------------------------------------------------------------------
# rational functions of p
# ---------------------------------------------------------------------------


def _expand_rational(num: IntPoly, den: IntPoly, order: int) -> MhsSeries:
    """Laurent expansion of ``num(p)/den(p)`` as a series in powers of p.

    ``num`` and ``den`` are integer polynomials, ``den`` nonzero.  With the
    powers of p split off, ``num = p^a N`` and ``den = p^b D``, the result
    is ``p^(a-b) N`` times the series inverse of the unit ``D``:
    ``1/(1 - p) = 1 + p + ...`` for every prime not dividing ``D(0)``.  It
    has empty compositions only, and is exact when ``D`` divides ``N``,
    else truncated at ``order``.
    """
    if not num:
        return MhsSeries.zero(None)
    a, b = (next(i for i, c in enumerate(f) if c) for f in (num, den))
    n, d, shift = num[a:], den[b:], a - b
    q, rem = _poly_divmod(n, d)
    if not any(rem):
        return MhsSeries({(i + shift, ()): c for i, c in enumerate(q)}, None)
    M = order - shift
    if M <= 0:
        return MhsSeries.zero(order)
    N, D = (MhsSeries({(i, ()): c for i, c in enumerate(f)}, M) for f in (n, d))
    return (N * D.invert_unit()).shift(shift)


# ---------------------------------------------------------------------------
# p-adic zeta values
# ---------------------------------------------------------------------------


def _expand_zeta_p(k: int, order: int) -> MhsSeries:
    """``p^k * zeta_p(k)`` as a weighted series of depth-one sums.

    Uses the classical Bernoulli-coefficient series

        p^k zeta_p(k) = sum_{n >= k-1} (-1)^(k+n+1)/(k-1)
                        * C(n-1, k-2) * B_{n+1-k} * p^n H(n),

    truncated to ``n < order`` (the dropped rows have valuation >= n).
    """
    terms: dict[tuple[int, Comp], Fraction] = {}
    for n in range(k - 1, max(order, k - 1)):
        sign = -1 if (k + n + 1) % 2 else 1
        c = Fraction(sign, k - 1) * binomial(n - 1, k - 2) * bernoulli(n + 1 - k)
        if c:
            terms[(n, (n,))] = c
    return MhsSeries(terms, order)


# ---------------------------------------------------------------------------
# half-range and alternating harmonic numbers
# ---------------------------------------------------------------------------


def _expand_half_harmonic(k: int, order: int) -> MhsSeries:
    """``p^k * H_{(p-1)/2}(k)`` as a combination of zeta-value series.

    With Z_m denoting the series for p^m zeta_p(m),

        p^k H_{(p-1)/2}(k) = Z_k + sum_{j >= 0} C(-k, j)
                             * (1 - 2^(k+j))/2^j * Z_{k+j};

    the j-th summand starts at p^(k+j-1), so terms with
    ``k + j - 1 >= order`` are empty.
    """
    acc = _expand_zeta_p(k, order)
    for j in range(0, max(order - k + 1, 0)):
        coeff = binomial(-k, j) * Fraction(1 - 2 ** (k + j), 2**j)
        if coeff:
            acc = acc + _expand_zeta_p(k + j, order).scale(coeff)
    return acc


def _expand_alternating(k: int, order: int) -> MhsSeries:
    """``p^k * sum_{n=1}^{p-1} (-1)^n / n^k``.

    Splitting even and odd indices gives
    ``2^(1-k) * p^k H_{(p-1)/2}(k) - p^k H(k)``.
    """
    half = _expand_half_harmonic(k, order).scale(Fraction(1, 2 ** (k - 1)))
    return half - MhsSeries.term(1, k, (k,), order)


# ---------------------------------------------------------------------------
# restricted harmonic numbers
# ---------------------------------------------------------------------------


def _expand_restricted_harmonic(r: int, order: int) -> MhsSeries:
    """Sum of ``1/n`` over ``n <= p^r`` with p not dividing n.

    * ``r = 1``: exactly ``H(1)``.
    * ``r = 2``: the double series
      ``sum_m (-1)^m p^m G_m(p) H(m+1)`` where ``G_m(x) = sum_{a<x} a^m``
      (Faulhaber), truncated at ``order``; the m-th row starts at
      ``p^(m+1)``.
    * ``r > 2``: the general restricted power-sum expansion.
    """
    if r == 1:
        return MhsSeries.term(1, 0, (1,), None)
    if r == 2:
        # each (m, e) gives its own key; the constructor drops zeros and b >= order
        terms = {
            (m + e, (m + 1,)): (-1) ** m * c
            for m in range(max(order - 1, 0))
            for e, c in enumerate(power_sum_poly(m))
        }
        return MhsSeries(terms, order)
    return poly_sum((0,) * r + (1,), (1,), True, order)


# ---------------------------------------------------------------------------
# polynomial-weighted sums of multiple harmonic sums
# ---------------------------------------------------------------------------


def _expand_sum_poly_mhs(P: Sequence[int | Fraction], s: Comp) -> MhsSeries:
    """``sum_{k=1}^{p-1} P(k) * H_k(s)`` as an exact MHS combination.

    Splitting off the top index, ``H_k(s) = H_{k-1}(s) + k^(-s_1) H_{k-1}(s_2, ...)``,
    gives for each monomial ``k^j`` of P

        sum_k k^j H_k(s) = S_{p-1,0}(-j, s) + S_{p-1,0}(s_1 - j, s_2, ..., s_r),

    two sums with a possibly nonpositive first exponent that
    :func:`signed_mhs` eliminates exactly; for empty ``s`` only the first
    remains.  The result is exact.
    """
    series = MhsSeries.zero()
    for j, c in enumerate(P):
        if c:
            part = signed_mhs((-j,) + s)
            if s:
                part = part + signed_mhs((s[0] - j,) + s[1:])
            series = series + part.scale(c)
    return series


# ---------------------------------------------------------------------------
# binomial coefficients via factorial ratios
# ---------------------------------------------------------------------------


def _factorial_ratio(pairs: Sequence[tuple[IntPoly, int]], order: int) -> MhsSeries:
    """Series for ``prod_i (P_i(p)!)^(eps_i)`` with ``eps_i = +-1``.

    Each ``P_i`` is an integer polynomial that is zero or has a positive
    leading coefficient, and the signed sum ``sum_i eps_i P_i`` is constant,
    which makes the ratio a p-adic unit for large p.  The reduction keeps
    both properties, so the signed leading coefficients cancel at each
    degree and every leftover constant is nonnegative.  It peels leading
    monomials: for ``P = c x^d + h`` with ``d >= 1``,

    * ``P(p)! = (c p^d)! * h(p)! * U`` when ``h`` is eventually positive,
      where ``U = sum_n c^n p^(dn) S_{h(p),0}(1^n)`` is a unit;
    * ``P(p)! = (c p^d)! / (c p^d * (-1)^(H-1) * (H-1)! * U')`` when ``h``
      is eventually negative, with ``H = -h(p)`` and
      ``U' = sum_n (-c)^n p^(dn) S_{H-1,0}(1^n)``;
    * ``(c p^d)!`` itself splits into ``c`` blocks of length ``p^d``:
      the p-divisible indices contribute ``(c p^(d-1))!`` one level down,
      and the rest contribute restricted units
      ``V_a = sum_n (a p^d)^n S^(p)_{p^d,0}(1^n)`` for ``a = 1..c-1``
      (the block-independent factors cancel because the signed leading
      coefficients at each degree sum to zero).

    Degree-zero leftovers are exact factorials.  The result is the scalar
    prefactor times the product of unit factors, truncated at ``order``
    (exact when no unit factors remain).
    """
    pending = [(poly, eps) for poly, eps in pairs if poly]
    scalar = Fraction(1)
    p_exp = 0
    atoms: dict[tuple, int] = {}

    while pending:
        d = max(len(poly) for poly, _ in pending) - 1
        if d == 0:
            for poly, eps in pending:
                scalar *= Fraction(factorial(poly[0])) ** eps
            break
        level = [(poly, eps) for poly, eps in pending if len(poly) > d]
        pending = [(poly, eps) for poly, eps in pending if len(poly) <= d]
        for poly, eps in level:
            c = poly[-1]
            h = strip_poly(poly[:-1])
            # the (c p^d)! part: restricted units plus one level down
            for a in range(1, c):
                atoms[("V", d, a)] = atoms.get(("V", d, a), 0) + eps
            pending.append(((0,) * (d - 1) + (c,), eps))
            if not h:
                continue
            if h[-1] > 0:
                atoms[("U", d, c, h)] = atoms.get(("U", d, c, h), 0) + eps
                pending.append((h, eps))
            else:
                m = poly_sub((-1,), h)  # -h - 1, leading coefficient > 0
                # P(p)! = (c p^d)! / (c p^d * (-1)^(H-1) * (H-1)! * U')
                h_at_1 = sum(h)
                if (h_at_1 + 1) % 2:
                    scalar = -scalar
                scalar *= Fraction(1, c) ** eps
                p_exp -= eps * d
                if m:
                    atoms[("U", d, -c, m)] = atoms.get(("U", d, -c, m), 0) - eps
                    pending.append((m, -eps))

    atoms = {key: n for key, n in atoms.items() if n}
    if not atoms:
        return MhsSeries.term(scalar, p_exp, (), None)
    M = order - p_exp
    if M <= 0:
        return MhsSeries.zero(order)
    prod = MhsSeries.constant(1, M)
    for key in sorted(atoms):
        n_exp = atoms[key]
        if key[0] == "V":
            _, d, a = key
            unit = MhsSeries.constant(1, M)
            n = 1
            while d * n < M:
                if d == 1:
                    # S^(p)_{p,0}(1^n) = H_{p-1}(1^n) exactly
                    inner = MhsSeries.term(1, 0, (1,) * n, None)
                else:
                    inner = poly_sum((0,) * d + (1,), (1,) * n, True, M - d * n)
                unit = unit + inner.scale(Fraction(a) ** n).shift(d * n).truncate(M)
                n += 1
        else:
            _, d, c, h = key
            e = len(h) - 1
            unit = MhsSeries.constant(1, M)
            n = 1
            while (d - e) * n < M:
                inner = poly_sum(h, (1,) * n, False, M - d * n)
                unit = unit + inner.scale(Fraction(c) ** n).shift(d * n).truncate(M)
                n += 1
        prod = prod * (unit if n_exp > 0 else unit.invert_unit()) ** abs(n_exp)
    return prod.shift(p_exp).scale(scalar)


def _expand_binomial_poly(f: IntPoly, g: IntPoly, order: int) -> MhsSeries:
    """Series for the binomial coefficient ``C(f(p), g(p))``.

    ``f`` and ``g`` are integer polynomials, and ``f`` has a positive
    leading coefficient unless ``g = 0``.  Degenerate shapes resolve to
    exact constants: ``g = 0`` or ``f = g`` give 1; if ``g`` or ``f - g``
    is eventually negative, or ``deg f < deg g``, the coefficient is 0 for
    all large p.  Otherwise the result is the factorial ratio
    ``f! / (g! (f-g)!)``.
    """
    if not g:
        return MhsSeries.constant(1, None)
    if g[-1] < 0 or len(f) < len(g):
        return MhsSeries.zero(None)
    h = poly_sub(f, g)
    if not h:
        return MhsSeries.constant(1, None)
    if h[-1] < 0:
        return MhsSeries.zero(None)
    return _factorial_ratio([(f, 1), (g, -1), (h, -1)], order)


# ---------------------------------------------------------------------------
# Apery numbers
# ---------------------------------------------------------------------------


def _expand_apery(order: int, *, cache_dir=None) -> MhsSeries:
    """Apery number ``b_{p-1} = sum_k C(p-1,k)^2 C(p-1+k,k)^2`` as a
    canonical weighted series.

    Pairing the two square factors term by term gives the exact identity

        b_{p-1} = 1 + sum_{k=1}^{p-1} (p^4/k^4 - 2 p^3/k^3 + p^2/k^2)
                  * ( sum_{i>=0} (-1)^i p^(2i) H_{k-1}(2^i) )^2.

    The square expands by the stuffle product; multiplying by ``p^a/k^a``
    and summing over k turns ``H_{k-1}(w)`` into ``H_{p-1}((a,) + w)``.
    Every term is weighted, so the series is canonicalized at ``order``.
    """
    terms: dict[tuple[int, Comp], Fraction] = {}
    if order > 0:
        terms[(0, ())] = Fraction(1)
    for a, ca in ((2, 1), (3, -2), (4, 1)):
        i = 0
        while a + 2 * i < order:
            j = 0
            while a + 2 * i + 2 * j < order:
                sign = -1 if (i + j) % 2 else 1
                b = a + 2 * i + 2 * j
                for w, mult in stuffle((2,) * i, (2,) * j).items():
                    comp = (a,) + w
                    key = (b, comp)
                    terms[key] = terms.get(key, Fraction(0)) + Fraction(ca * sign * mult)
                j += 1
            i += 1
    return canonicalize(MhsSeries(terms, order), order, cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# curious sums over coprime compositions of p^r
# ---------------------------------------------------------------------------


def _expand_curious(r: int, k: int, order: int, *, cache_dir=None) -> MhsSeries:
    """Sum of ``1/(n_1 ... n_k)`` over compositions ``n_1 + ... + n_k = p^r``
    with every part coprime to p.

    * ``k = 1``: the only candidate part is ``p^r`` itself, which is not
      coprime to p, so the sum is empty: exactly 0.
    * ``r = 1``: symmetrizing over orderings gives exactly
      ``k!/p * H(1^(k-1))``.
    * ``r, k >= 2``: symmetrize to chains of partial sums
      ``p^r = m_1 > ... > m_k >= 1`` with consecutive differences and the
      last entry coprime to p, write ``m_i = a_i p - j_i``, and expand;
      see :func:`_expand_curious_general`.  The result is canonicalized.
    """
    if k == 1:
        return MhsSeries.zero(None)
    if r == 1:
        return MhsSeries.term(factorial(k), -1, (1,) * (k - 1), None)
    raw = _expand_curious_general(r, k, order)
    return canonicalize(raw, order, cache_dir=cache_dir)


def _expand_curious_general(r: int, k: int, order: int) -> MhsSeries:
    """Expansion of the curious sum for ``r, k >= 2``, truncated at ``order``.

    After symmetrizing, the sum runs over ``p^(r-1) = a_1 >= ... >= a_k >= 1``
    and digits ``j_i`` with ``m_i = a_i p - j_i``, subject to: ``j_1 = 0``,
    ``j_k != 0``, ``j_i < j_(i+1)`` whenever ``a_i = a_(i+1)``, and
    ``j_i != j_(i+1)`` throughout.  Equal-a runs form strictly decreasing
    a-chains below ``p^(r-1)``; the j-inequalities across run boundaries
    are handled by inclusion-exclusion over the boundary subsets forced to
    be equal, which glues adjacent runs into longer strictly increasing
    j-chains whose junction slots collect both exponents.  Chains of
    distinct blocks multiply via the stuffle product; each factor
    ``(a p - j)^(-1)`` with ``j >= 1`` expands geometrically as
    ``-sum_n (a p)^n j^(-1-n)``, while ``j = 0`` slots contribute
    ``(a p)^(-1)`` directly.

    Every leaf of that expansion is a j-part (a product of MHS at p^0)
    times an a-part that depends only on the leaf's profile ``(shift,
    svec)``: ``p^shift`` times the a-chain sum ``S_{p^(r-1)-1,0}(svec)``.
    The signed j-parts are summed per profile first, and each a-part is
    computed once per ``svec`` at the largest order its profiles need, so
    there is one product per profile instead of one per leaf.  For
    ``r = 2`` the a-chains run over ``[1, p-1]`` and their sum is exactly
    :func:`signed_mhs`; it differs from the geometric expansion of
    :func:`poly_sum` only by reversal relations, which canonicalization
    removes.  For ``r >= 3`` the a-part is :func:`poly_sum`.

    Each shape's geometric degrees come from :func:`bounded_tuples`, and a
    leaf's j-part is :func:`~padicmhs.powersums._chain_product` of its
    chains, a product of H's with int coefficients added into its profile;
    :func:`~padicmhs.powersums._profile_products` sums the profile products.
    """
    kfact = factorial(k)
    pinned_exp = r - 1  # a_1 = p^(r-1)
    a_poly = (-1,) + (0,) * (r - 2) + (1,)  # x^(r-1) - 1
    # k! times the signed j-parts, summed per profile (shift, svec) as int
    # maps {(0, composition): coefficient} of terms at p^0
    j_sums: dict[tuple[int, tuple[int, ...]], dict[tuple, int]] = {}

    for runs in compositions_of(k):
        t = len(runs)
        run_of: list[int] = []
        for ri, size in enumerate(runs):
            run_of.extend([ri] * size)
        run_positions: list[list[int]] = [[] for _ in range(t)]
        for pos, ri in enumerate(run_of):
            run_positions[ri].append(pos)
        for e_mask in range(1 << (t - 1)):
            glued = [bool(e_mask >> i & 1) for i in range(t - 1)]
            e_size = sum(glued)
            # blocks of consecutive runs joined by glued boundaries
            blocks: list[list[int]] = [[0]]
            for i in range(1, t):
                if glued[i - 1]:
                    blocks[-1].append(i)
                else:
                    blocks.append([i])
            # slots: one per position, except glued junctions share a slot
            block_slots: list[list[list[int]]] = []
            for block in blocks:
                slots: list[list[int]] = []
                for ri in block:
                    for idx, pos in enumerate(run_positions[ri]):
                        if idx == 0 and ri != block[0]:
                            slots[-1].append(pos)
                        else:
                            slots.append([pos])
                block_slots.append(slots)
            last_block = len(blocks) - 1
            if last_block == 0 and len(block_slots[0]) == 1:
                continue  # j_1 = 0 and j_k != 0 cannot both hold
            # blocks other than the first may place their lowest slot at j = 0,
            # except a single-slot final block (its slot is j_k != 0)
            optional = [
                bi
                for bi in range(1, len(blocks))
                if not (bi == last_block and len(block_slots[bi]) == 1)
            ]
            for z_mask in range(1 << len(optional)):
                zero_blocks = {0} | {
                    optional[i] for i in range(len(optional)) if z_mask >> i & 1
                }
                zero_positions: set[int] = set()
                for bi in zero_blocks:
                    zero_positions.update(block_slots[bi][0])
                geom = [pos for pos in range(k) if pos not in zero_positions]
                nj0 = [0] * t
                for pos in zero_positions:
                    nj0[run_of[pos]] += 1
                scale = kfact * (-1 if (len(geom) + e_size) % 2 else 1)

                # the j-chains of each block, as the slots their exponents sum
                sigma_slots = [
                    slots[1:] if bi in zero_blocks else slots
                    for bi, slots in enumerate(block_slots)
                ]
                sigma_slots = [slots[::-1] for slots in sigma_slots if slots]
                # a leaf's valuation floor is shift + valuation_bound(svec),
                # and every geometric degree raises it by at least 1: the
                # all-zero leaf's floor bounds the total degree
                floor0 = valuation_bound(pinned_exp, tuple(nj0[1:]), False)
                floor0 -= len(zero_positions) + pinned_exp * nj0[0]
                for degrees in bounded_tuples(len(geom), order - 1 - floor0):
                    e = list(nj0)
                    for pos, n in zip(geom, degrees):
                        e[run_of[pos]] -= n
                    shift = sum(degrees) - len(zero_positions) - pinned_exp * e[0]
                    svec = tuple(e[1:])
                    if shift + valuation_bound(pinned_exp, svec, False) >= order:
                        continue  # dropping the leaf is sound
                    n_at = dict(zip(geom, degrees))
                    # the stuffle product commutes: sorted, leaves share products
                    sigmas = tuple(sorted(
                        tuple(sum(1 + n_at[pos] for pos in slot) for slot in slots)
                        for slots in sigma_slots
                    ))
                    # every exponent is positive, so the j-part's denominator is 1
                    j_sum = j_sums.setdefault((shift, svec), {})
                    for key, c in _chain_product(sigmas)[1]:
                        j_sum[key] = j_sum.get(key, 0) + scale * c

    a_orders: dict[tuple[int, ...], int] = {}
    for shift, svec in j_sums:
        _raise_order(a_orders, svec, order - shift)
    return _profile_products(
        (
            (svec, shift, [(key, c) for key, c in j_sum.items() if c], 1)
            for (shift, svec), j_sum in j_sums.items()
        ),
        a_orders,
        lambda svec, a_order: (
            signed_mhs(svec) if r == 2 else poly_sum(a_poly, svec, False, a_order)
        ),
        order,
    )


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def expand_quantity(spec: QuantitySpec, order: int, *, cache_dir=None) -> MhsSeries:
    """Expand a parsed quantity description at the given order.

    The one public expansion: ``order`` is checked here, and ``spec``
    checked its arguments when it was built.  Inherently exact quantities
    (rational functions, polynomial-weighted harmonic sums, the r = 1
    restricted harmonic number, degenerate binomial shapes) come back exact
    and ignore the order.  A power sum ``psum(f;g;exps)`` is
    :func:`~padicmhs.powersums.full_sum`; the negative p-powers it can
    reach are bounded below by ``-deg(f) * sum_i max(exps_i, 0)`` (0 when
    restricted).
    """
    order = check_int(order, "order")
    name, args = spec.name, spec.args
    if name == "binp":  # C(a p^r, b p^r)
        a, b, r = args
        f, g = (strip_poly((0,) * r + (c,)) for c in (a, b))
        return _expand_binomial_poly(f, g, order)
    if name == "binpoly":
        return _expand_binomial_poly(*args, order)
    if name == "apery":
        return _expand_apery(order, cache_dir=cache_dir)
    if name == "zetap":
        return _expand_zeta_p(*args, order)
    if name == "psum":
        return full_sum(*args, order)
    if name == "hres":
        return _expand_restricted_harmonic(*args, order)
    if name == "curious":
        return _expand_curious(*args, order, cache_dir=cache_dir)
    if name == "sumpoly":
        return _expand_sum_poly_mhs(*args)
    if name == "half":
        return _expand_half_harmonic(*args, order)
    if name == "alt":
        return _expand_alternating(*args, order)
    return _expand_rational(*args, order)  # rat, the last name a spec admits
