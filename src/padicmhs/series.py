"""Truncated p-adic series of multiple harmonic sums.

The central value type is :class:`MhsSeries`: a finite Q-linear combination
of terms ``c * p^b * H_{p-1}(s)`` together with an explicit error order
``O(p^N)``.  Such a series denotes, for each sufficiently large prime ``p``,
a rational number known up to a p-adic error of valuation at least ``N``.

``order=None`` means the series is *exact*: it carries no error tail and
denotes its value on the nose (e.g. the expansion of a rational function of
``p`` whose denominator divides a power of ``p``).  An exact series renders
without an ``O(p^N)`` tail.

A congruence is a series and a modulus power ``n``: it asserts that the
series vanishes modulo ``p^n`` for all but finitely many primes.  The prover
(:mod:`padicmhs.prover`) takes the pair as it is and splits it into
*weighted* parts, in which every term's p-exponent equals the weight of its
composition.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Union

from .arith import INFINITY
from .compositions import Comp, _stuffle_cached, check_comp, check_int, format_comp, weight

__all__ = ["MhsSeries"]

Order = Union[int, None]
Key = tuple[int, Comp]  # (p_exponent, composition)

RationalLike = Union[int, Fraction, str]


def _min_order(a: Order, b: Order) -> Order:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _mul_order(oa, ob, va, vb):
    """Truncation order of a product, given operand orders and min-valuations.

    The O(p^oa) tail of the first factor meets every term of the second, so
    it contributes O(p^(oa + vb)); symmetrically for the other tail, and the
    two tails multiply to O(p^(oa + ob)).  ``None`` means exact (no tail).
    """
    candidates = []
    if oa is not None and vb is not INFINITY:
        candidates.append(oa + vb)
    if ob is not None and va is not INFINITY:
        candidates.append(ob + va)
    if oa is not None and ob is not None:
        candidates.append(oa + ob)
    return min(candidates) if candidates else None


class MhsSeries:
    """Finite sum ``sum_i c_i * p^(b_i) * H_{p-1}(s_i) + O(p^order)``.

    Terms are stored deduplicated on ``(p_exponent, composition)`` with
    nonzero coefficients; any term with ``p_exponent >= order`` is absorbed
    into the error tail at construction time.  Instances are immutable.

    The constructor validates and normalizes its input.  Ring operations
    build their results from operands that are already normalized, so they
    go through :meth:`_trusted` instead and are not checked again.
    """

    __slots__ = ("_terms", "_order", "_ints")

    def __init__(
        self,
        terms: Mapping[Key, RationalLike] | Iterable[tuple[Key, RationalLike]] = (),
        order: Order = None,
    ) -> None:
        if order is not None and type(order) is not int:
            raise TypeError(f"order must be an int or None, got {order!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Key, Fraction] = {}
        for (b, s), c in items:
            if type(b) is not int:
                raise TypeError(f"p-exponent must be an int, got {b!r}")
            check_comp(s)
            c = Fraction(c)
            if c == 0:
                continue
            if order is not None and b >= order:
                continue  # absorbed into O(p^order)
            key = (b, s)
            c = acc.get(key, Fraction(0)) + c
            if c == 0:
                acc.pop(key, None)
            else:
                acc[key] = c
        self._terms = acc
        self._order = order
        self._ints = None

    @classmethod
    def _trusted(cls, terms: dict[Key, Fraction], order: Order) -> "MhsSeries":
        """Wrap a normalized term dict without checking it (and without copying).

        The caller guarantees what ``__init__`` would establish: every
        coefficient is a nonzero Fraction, every composition is valid, and
        every p-exponent is below ``order``.
        """
        out = object.__new__(cls)
        out._terms = terms
        out._order = order
        out._ints = None
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: Order = None) -> "MhsSeries":
        return cls((), order)

    @classmethod
    def constant(cls, c: RationalLike, order: Order = None) -> "MhsSeries":
        return cls({(0, ()): Fraction(c)}, order)

    @classmethod
    def term(cls, c: RationalLike, b: int, s: Comp, order: Order = None) -> "MhsSeries":
        """The single-term series ``c * p^b * H(s) + O(p^order)``."""
        return cls({(b, s): Fraction(c)}, order)

    # -- accessors -----------------------------------------------------

    @property
    def terms(self) -> dict[Key, Fraction]:
        """Term map ``(p_exponent, composition) -> coefficient`` (a copy)."""
        return dict(self._terms)

    @property
    def order(self) -> Order:
        return self._order

    def constant_coefficient(self) -> Fraction:
        return self._terms.get((0, ()), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def min_valuation(self) -> int | float:
        """Guaranteed lower bound for the p-adic valuation of the value.

        ``min(min_i b_i, order)``; INFINITY for an exact zero.  (Unweighted
        ``H_{p-1}(s)`` values are p-integral, so each term has valuation at
        least its p-exponent.)
        """
        vals: list[int] = [b for (b, _s) in self._terms]
        if self._order is not None:
            vals.append(self._order)
        return min(vals) if vals else INFINITY

    def sorted_terms(self) -> list[tuple[Key, Fraction]]:
        """Terms in canonical order: by p-exponent, then weight, then lexicographic."""
        return sorted(
            self._terms.items(), key=lambda kv: (kv[0][0], weight(kv[0][1]), kv[0][1])
        )

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "MhsSeries") -> "MhsSeries":
        if not isinstance(other, MhsSeries):
            return NotImplemented
        return self._merge(other, 1)

    def __neg__(self) -> "MhsSeries":
        return MhsSeries._trusted(
            {key: -c for key, c in self._terms.items()}, self._order
        )

    def __sub__(self, other: "MhsSeries") -> "MhsSeries":
        if not isinstance(other, MhsSeries):
            return NotImplemented
        return self._merge(other, -1)

    def _merge(self, other: "MhsSeries", sign: int) -> "MhsSeries":
        """``self + sign * other`` with each coefficient added once."""
        order = _min_order(self._order, other._order)
        merged = self._terms_below(order)
        for key, c in other._terms.items():
            if order is not None and key[0] >= order:
                continue
            if sign < 0:
                c = -c
            prev = merged.get(key)
            if prev is None:
                merged[key] = c
            else:
                c += prev
                if c:
                    merged[key] = c
                else:
                    del merged[key]
        return MhsSeries._trusted(merged, order)

    def _integer_form(self) -> tuple[IntTerms, int]:
        """:func:`_integer_terms` of this series, computed on first use and kept."""
        if self._ints is None:
            self._ints = _integer_terms(self._terms)
        return self._ints

    def _terms_below(self, N: Order) -> dict[Key, Fraction]:
        """A copy of the terms with p-exponent below ``N`` (all when ``N`` is None)."""
        if N is None or (self._order is not None and self._order <= N):
            return dict(self._terms)
        return {key: c for key, c in self._terms.items() if key[0] < N}

    def scale(self, c: RationalLike) -> "MhsSeries":
        c = Fraction(c)
        if c == 0:
            return MhsSeries._trusted({}, self._order)
        return MhsSeries._trusted(
            {key: c * v for key, v in self._terms.items()}, self._order
        )

    def shift(self, k: int) -> "MhsSeries":
        """Multiply by the exact power ``p^k``."""
        if type(k) is not int:
            raise TypeError(f"p-exponent must be an int, got {k!r}")
        order = None if self._order is None else self._order + k
        return MhsSeries._trusted(
            {(b + k, s): c for (b, s), c in self._terms.items()}, order
        )

    def __mul__(self, other: object) -> "MhsSeries":
        """Stuffle product, with the truncation order of :func:`_mul_order`.

        Each operand is scaled once to int numerators over the lcm ``d1``,
        ``d2`` of its denominators; the products ``n1 * n2 * mult`` are
        summed as ints per output key (:func:`_stuffle_into`), and one
        Fraction over ``d1 * d2`` is built per nonzero output term.
        """
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MhsSeries):
            return NotImplemented
        order = _mul_order(
            self._order, other._order, self.min_valuation(), other.min_valuation()
        )
        nums1, d1 = _integer_terms(self._terms)
        nums2, d2 = _integer_terms(other._terms)
        acc: dict[Key, int] = {}
        _stuffle_into(acc, nums1, nums2, 0, order, 1)
        return MhsSeries._trusted(_over(acc, d1 * d2), order)

    def __rmul__(self, other: object) -> "MhsSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "MhsSeries":
        check_int(n, "series power", 0)
        result = MhsSeries.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def invert_unit(self) -> "MhsSeries":
        """Inverse of a unit series ``c + x``, ``x`` supported in p-exponents >= 1.

        Layer by layer: with ``x_j`` the part of ``x`` at ``p^j``, the part at
        ``p^b < p^order`` is ``y_0 = 1/c``, ``y_b = -(1/c) sum_j x_j y_(b-j)``.
        """
        c = self.constant_coefficient()
        if c == 0:
            raise ValueError("invert_unit: constant term is zero (not a unit)")
        bad = [key for key in self._terms if key != (0, ()) and key[0] <= 0]
        if bad:
            raise ValueError(
                "invert_unit: non-constant term with p-exponent <= 0: "
                f"{sorted(bad)}"
            )
        if self._order is None:
            if len(self._terms) > 1:
                raise ValueError(
                    "invert_unit: exact series with a non-constant part "
                    "has no finite exact inverse; truncate it first"
                )
            return MhsSeries.constant(1 / c)
        layers: dict[int, dict[Key, Fraction]] = {}
        for key, v in self._terms.items():
            if key[0]:  # all but the constant
                layers.setdefault(key[0], {})[key] = v
        x = [(j, MhsSeries._trusted(t, None)) for j, t in layers.items()]
        y = [MhsSeries.constant(1 / c)]
        for b in range(1, self._order):  # c != 0, so the order is >= 1
            y.append(sum((xj * y[b - j] for j, xj in x if j <= b), MhsSeries.zero()).scale(-1 / c))
        return MhsSeries._trusted({k: v for yb in y for k, v in yb._terms.items()}, self._order)

    def truncate(self, N: int) -> "MhsSeries":
        """Weaken to ``O(p^N)``; rejects ``N`` beyond the known order."""
        if type(N) is not int:
            raise TypeError(f"order must be an int, got {N!r}")
        if self._order is not None and N > self._order:
            raise ValueError(
                f"truncate: cannot strengthen O(p^{self._order}) to O(p^{N})"
            )
        return MhsSeries._trusted(self._terms_below(N), N)

    # -- comparison / rendering -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MhsSeries):
            return NotImplemented
        return self._order == other._order and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((frozenset(self._terms.items()), self._order))

    def render(self) -> str:
        """Canonical text form, e.g. ``2 + 2 * p * H(1) + 2 * p^2 * H(1,1) + O(p^3)``.

        Parsed back bit-exactly by the CLI expression grammar.
        """
        items = self.sorted_terms()
        if not items:
            return "0" if self._order is None else f"O(p^{self._order})"
        chunks: list[str] = []
        for i, ((b, s), c) in enumerate(items):
            body = _render_term(abs(c), b, s)
            if i == 0:
                chunks.append(("-" if c < 0 else "") + body)
            else:
                chunks.append((" - " if c < 0 else " + ") + body)
        if self._order is not None:
            chunks.append(f" + O(p^{self._order})")
        return "".join(chunks)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<MhsSeries {self.render()}>"


def _render_term(ac: Fraction, b: int, s: Comp) -> str:
    factors: list[str] = []
    if ac != 1 or (b == 0 and not s):
        factors.append(str(ac))
    if b == 1:
        factors.append("p")
    elif b != 0:
        factors.append(f"p^{b}")
    if s:
        factors.append("H" + format_comp(s))
    return " * ".join(factors)


# Int numerators over a common denominator: the ring operations and the
# powersums hot loops accumulate these and build Fractions once, per output
# term (``_over``).
IntTerms = list[tuple[Key, int]]


def _integer_terms(terms: dict[Key, Fraction]) -> tuple[IntTerms, int]:
    """``(key, numerator)`` pairs over the lcm ``d`` of the denominators, and ``d``."""
    d = 1
    for c in terms.values():
        d = lcm(d, c.denominator)
    return [(key, c.numerator * (d // c.denominator)) for key, c in terms.items()], d


def _rescale(acc: dict, den: int, d: int) -> int:
    """Rescale the numerators ``acc`` over ``den`` to a multiple of ``d``; return it."""
    if den % d:
        new_den = lcm(den, d)
        up = new_den // den
        for key in acc:
            acc[key] *= up
        den = new_den
    return den


def _add_over(acc: dict, den: int, nums: Iterable[tuple], d: int, c: int) -> int:
    """``acc / den += c * nums / d`` on int numerators; returns the new ``den``."""
    den = _rescale(acc, den, d)
    c *= den // d
    for key, n in nums:
        acc[key] = acc.get(key, 0) + n * c
    return den


def _stuffle_into(
    acc: dict[Key, int], nums1: IntTerms, nums2: IntTerms, shift: int, below: Order, c: int
) -> None:
    """``acc += c * p^shift * nums1 * nums2`` (stuffle), keeping p-exponents below ``below``."""
    for (b1, s1), n1 in nums1:
        n1 *= c
        for (b2, s2), n2 in nums2:
            b = b1 + b2 + shift
            if below is None or b < below:
                n = n1 * n2
                for s, mult in _stuffle_cached(s1, s2):
                    key = (b, s)
                    acc[key] = acc.get(key, 0) + n * mult


def _over(nums: dict[Key, int], d: int) -> dict[Key, Fraction]:
    """The nonzero ``n / d`` of an int numerator map, as Fractions."""
    return {key: Fraction(n, d) for key, n in nums.items() if n}
