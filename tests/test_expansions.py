"""Tests for the quantity-to-series expansions.

Every expansion is checked two ways: pinned symbolic forms (exact
coefficient maps or canonical renderings) and numeric soundness against
the exact-rational oracle at concrete primes.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction as F

import pytest

import padicmhs
from padicmhs.arith import bernoulli, padic_valuation, strip_poly
from padicmhs.expansions import (
    _expand_curious_general,
    _factorial_ratio,
    canonicalize,
    expand_quantity,
)
from padicmhs.oracle import (
    PrimeWindow,
    check_numeric,
    eval_mhs,
    eval_quantity,
    eval_series_terms,
)
from padicmhs.quantities import QuantitySpec
from padicmhs.series import MhsSeries
from reference_sums import check_expansion, quantity
from test_powersums import term_digest

W_SMALL = PrimeWindow(11, 31)
W_MID = PrimeWindow(11, 61)


def expand(name, *args, order=8):
    """The series of the quantity ``name(*args)``, by the public entry point."""
    return expand_quantity(QuantitySpec(name, args), order)


def assert_numeric(diff, window, required):
    report = check_numeric(diff, window, required)
    assert report.passed, report.render()


def assert_expands(q, series, window):
    report = check_expansion(q, series, window)
    assert report.passed, report.render()


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class TestRational:
    def test_geometric(self):
        s = expand("rat", (1,), (1, 1), order=3)
        assert s.render() == "1 - p + p^2 + O(p^3)"

    def test_monomial_exact(self):
        s = expand("rat", (0, 0, 0, 1), (1,), order=9)
        assert s.render() == "p^3"
        assert s.order is None

    def test_affine_exact(self):
        s = expand("rat", (-1, 2), (3,), order=9)
        assert s.render() == "-1/3 + 2/3 * p"
        assert s.order is None

    def test_matches_values(self):
        s = expand("rat", (1, 2), (3, 0, 1), order=7)
        for p in (11, 13, 17):
            got = eval_series_terms(s, p)
            want = F(1 + 2 * p, 3 + p * p)
            assert (got - want).numerator % p**7 == 0

    def test_inverse_of_one_minus_p(self):
        s = expand("rat", (1,), (1, -1), order=5)
        assert s.order == 5
        assert s.terms == {(e, ()): F(1) for e in range(5)}

    def test_exact_monomial_numerator(self):
        s = expand("rat", (0, 0, 1), (1,), order=9)
        assert s.order is None
        assert s.terms == {(2, ()): F(1)}

    def test_exact_inverse_monomial(self):
        s = expand("rat", (1,), (0, 1), order=9)
        assert s.order is None
        assert s.terms == {(-1, ()): F(1)}

    def test_exact_division_detected(self):
        # (1 - p^2)/(1 + p) = 1 - p exactly
        s = expand("rat", (1, 0, -1), (1, 1), order=10)
        assert s.order is None
        assert s.terms == {(0, ()): F(1), (1, ()): F(-1)}

    def test_negative_valuation_series(self):
        # 1/(p - p^2) = p^(-1) (1 + p + p^2 + ...)
        s = expand("rat", (1,), (0, 1, -1), order=3)
        assert s.order == 3
        assert s.terms == {(e, ()): F(1) for e in range(-1, 3)}
        assert s.render() == "p^-1 + 1 + p + p^2 + O(p^3)"

    def test_agreement_with_evaluation(self):
        # truncated at order n, the series agrees with the exact value mod p^n
        num, den, n = (2, 3), (1, -1, 5), 7
        s = expand("rat", num, den, order=n)
        for p in (3, 5, 7, 11, 13):
            diff = F(num[0] + num[1] * p, den[0] + den[1] * p + den[2] * p * p)
            diff -= eval_series_terms(s, p)
            assert diff == 0 or padic_valuation(diff, p) >= n, p

    def test_zero_numerator(self):
        s = expand("rat", (0,), (1, 2), order=6)
        assert s.terms == {}
        assert s.order is None

    def test_denominator_zero_rejected(self):
        with pytest.raises(ValueError):
            expand("rat", (1,), (0,), order=4)

    def test_order_at_or_below_the_shift_is_empty(self):
        s = expand("rat", (0, 0, 1), (1, 1), order=2)  # p^2/(1 + p)
        assert s.terms == {} and s.order == 2

    @pytest.mark.parametrize("num,den", [((F(1, 2),), (1,)), ((1,), (1, 1.0))])
    def test_non_integer_coefficients_rejected(self, num, den):
        with pytest.raises(ValueError):
            expand("rat", num, den, order=3)

    def test_random_grid_against_oracle(self):
        # integer num/den with a lowest den coefficient prime to the window,
        # orders -3..9, each checked against the oracle's exact rat value
        rng = random.Random(20160823)
        for _ in range(60):
            num = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 4)))
            v_den = rng.randint(0, 2)
            low = rng.choice([c for c in range(-6, 7) if c])
            rest = tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 3)))
            den = (0,) * v_den + (low,) + rest
            order = rng.randint(-3, 9)
            series = expand("rat", num, den, order=order)
            assert_expands(QuantitySpec("rat", (num, den)), series, W_SMALL)


# ---------------------------------------------------------------------------
# p-adic zeta values
# ---------------------------------------------------------------------------


class TestZeta:
    def test_pinned_k2(self):
        s = expand("zetap", 2, order=4)
        assert s.terms == {(1, (1,)): F(1), (2, (2,)): F(1, 2), (3, (3,)): F(1, 6)}
        assert s.order == 4

    def test_pinned_k3(self):
        s = expand("zetap", 3, order=7)
        assert s.terms == {
            (2, (2,)): F(1, 2),
            (3, (3,)): F(1, 2),
            (4, (4,)): F(1, 4),
            (6, (6,)): F(-1, 12),
        }

    def test_low_order_empty(self):
        assert expand("zetap", 4, order=2).is_zero()

    def test_validation(self):
        with pytest.raises(ValueError):
            expand("zetap", 1, order=5)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_bernoulli_congruence(self, k):
        # p^k * zeta_p(k) = p^k * B_{p-k}/k mod p^(k+1) for p >= k+2
        series = expand("zetap", k, order=k + 3)

        def diff(p):
            return eval_series_terms(series, p) - F(p) ** k * bernoulli(p - k) / k

        assert_numeric(diff, W_MID, required=k + 1)


# ---------------------------------------------------------------------------
# half-range and alternating harmonic numbers
# ---------------------------------------------------------------------------


class TestHalfAlternating:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_half_numeric(self, k):
        assert_expands(QuantitySpec("half", (k,)), expand("half", k, order=6), W_MID)

    @pytest.mark.parametrize("k", [2, 3])
    def test_alternating_numeric(self, k):
        assert_expands(QuantitySpec("alt", (k,)), expand("alt", k, order=6), W_MID)

    def test_alternating_classical_form(self):
        # p^2 * sum (-1)^n/n^2 = (3/4) p^2 H(2) mod p^5
        q = QuantitySpec("alt", (2,))

        def diff(p):
            return eval_quantity(q, p) - F(3, 4) * p * p * eval_mhs(p - 1, (2,))

        assert_numeric(diff, W_MID, required=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            expand("half", 1, order=5)
        with pytest.raises(ValueError):
            expand("alt", 1, order=5)


# ---------------------------------------------------------------------------
# bounded power sums
# ---------------------------------------------------------------------------


class TestPowerSums:
    def test_full_interval_is_harmonic(self):
        # S_{p-1, 0}(2,1) equals H(2,1) (as a value; the expansion may
        # legitimately use a different but congruent support)
        s = expand("psum", (-1, 1), (), (2, 1), False, order=6)

        def diff(p):
            return eval_series_terms(s, p) - eval_mhs(p - 1, (2, 1))

        assert_numeric(diff, W_SMALL, required=6)

    def test_negative_valuation_case(self):
        # S_{p^2, p}(1) reaches p-exponent -2 (bounded by -deg(f), not -deg(g))
        s = expand("psum", (0, 0, 1), (0, 1), (1,), False, order=4)
        assert s.min_valuation() == -2
        assert_expands(QuantitySpec("psum", _psum_args((0, 0, 1), (0, 1), (1,), False)), s, W_MID)

    def test_empty_interval_exact_zero(self):
        s = expand("psum", (0, 1), (0, 1), (1,), False, order=5)
        assert s.is_zero() and s.order is None

    @pytest.mark.parametrize(
        "f,g,exps,restricted,order",
        [
            ((0, 1), (), (1,), False, 6),
            ((0, 1), (), (-1, 1), False, 5),
            ((0, 0, 1), (), (2, 1), True, 5),
            ((1, 1), (), (1, 2), False, 5),
            ((0, 0, 1), (0, 1), (1, 1), True, 4),
            ((0, 0, 1), (0, 2), (2,), False, 4),
        ],
    )
    def test_numeric(self, f, g, exps, restricted, order):
        s = expand("psum", f, g, exps, restricted, order=order)
        q = QuantitySpec("psum", _psum_args(f, g, exps, restricted))
        assert_expands(q, s, W_SMALL)

    def test_validation(self):
        with pytest.raises(ValueError):
            expand("psum", (F(1, 2),), (), (1,), False, order=4)


def _psum_args(f, g, exps, restricted):
    return (
        tuple(F(c) for c in f),
        tuple(F(c) for c in g),
        tuple(exps),
        restricted,
    )


# ---------------------------------------------------------------------------
# restricted harmonic numbers
# ---------------------------------------------------------------------------


class TestRestrictedHarmonic:
    def test_r1_exact(self):
        s = expand("hres", 1, order=9)
        assert s.render() == "H(1)"
        assert s.order is None

    def test_r2_pinned(self):
        s = expand("hres", 2, order=6)
        assert s.terms == {
            (1, (1,)): F(1),
            (2, (2,)): F(1, 2),
            (3, (2,)): F(-1, 2),
            (3, (3,)): F(1, 6),
            (4, (3,)): F(-1, 2),
            (5, (3,)): F(1, 3),
            (5, (4,)): F(-1, 4),
            (5, (5,)): F(-1, 30),
        }

    @pytest.mark.parametrize("r,order,window", [(1, 6, W_MID), (2, 6, W_MID), (3, 5, W_SMALL)])
    def test_numeric(self, r, order, window):
        assert_expands(QuantitySpec("hres", (r,)), expand("hres", r, order=order), window)

    def test_validation(self):
        with pytest.raises(ValueError):
            expand("hres", 0, order=5)
        with pytest.raises(ValueError):
            expand("hres", True, order=3)


# ---------------------------------------------------------------------------
# polynomial-weighted sums of harmonic numbers
# ---------------------------------------------------------------------------


class TestSumPolyMhs:
    def test_constant_weight_empty_comp(self):
        assert expand("sumpoly", (1,), ()).render() == "-1 + p"

    def test_depth_one(self):
        assert expand("sumpoly", (1,), (2,)).render() == "-H(1) + p * H(2)"

    def test_classical_combination(self):
        # 2*sum H_k(1,1) + sum H_k(2) = 2p - 2 + (1-2p)H(1) + pH(2) + 2pH(1,1)
        s = expand("sumpoly", (1,), (1, 1)).scale(2) + expand("sumpoly", (1,), (2,))
        assert s.terms == {
            (0, ()): F(-2),
            (1, ()): F(2),
            (0, (1,)): F(1),
            (1, (1,)): F(-2),
            (1, (2,)): F(1),
            (1, (1, 1)): F(2),
        }
        assert s.order is None

    @pytest.mark.parametrize(
        "P,s",
        [
            ((1,), ()),
            ((0, 1), ()),
            ((1,), (1,)),
            ((1,), (2, 1)),
            ((0, 1), (1, 1)),
            ((F(1, 2), 0, 1), (2,)),
            ((0, 0, 1), (3, 1)),
        ],
    )
    def test_exact_numeric(self, P, s):
        series = expand("sumpoly", P, s)
        assert series.order is None
        q = QuantitySpec("sumpoly", (tuple(F(c) for c in P), tuple(s)))
        assert_expands(q, series, W_SMALL)  # exact: requires zero difference

    def test_validation(self):
        with pytest.raises(ValueError):
            expand("sumpoly", (1,), (0, 1))


# ---------------------------------------------------------------------------
# binomial coefficients
# ---------------------------------------------------------------------------


class TestBinomials:
    def test_central_binomial_pinned(self):
        s = expand("binp", 2, 1, 1, order=6)
        assert s.terms == {(n, (1,) * n): F(2) for n in range(6)}
        assert s.order == 6

    def test_three_one_pinned(self):
        s = expand("binp", 3, 1, 1, order=6)
        assert s.terms == {(n, (1,) * n): F(3 * 2**n) for n in range(6)}

    def test_exact_edge_cases(self):
        assert expand("binp", 1, 1, 3, order=8).render() == "1"
        assert expand("binp", 3, 0, 2, order=8).render() == "1"
        assert expand("binp", 5, 2, 0, order=8).render() == "10"
        assert expand("binpoly", (0, 1), (0, 2), order=6).is_zero()  # C(p, 2p) = 0
        assert expand("binpoly", (0, 1), (), order=6).render() == "1"  # C(p, 0)
        assert expand("binpoly", (0, 1), (0, 1), order=6).render() == "1"  # C(p, p)
        assert expand("binpoly", (0, 1), (-1, 2), order=6).is_zero()  # C(p, 2p-1) = 0
        assert expand("binpoly", (0, 1), (1, 0, 1), order=6).is_zero()  # deg f < deg g

    @pytest.mark.parametrize(
        "a,b,r", [(a, b, r) for a in range(6) for b in range(a + 1) for r in range(4)]
    )
    def test_pp_grid(self, a, b, r):
        # r = 0, b = 0 and b = a give the exact constant C(a, b) at every order
        for order in range(7):
            s = expand("binp", a, b, r, order=order)
            if r == 0 or b in (0, a):
                assert s.order is None and s.render() == str(math.comb(a, b))
            else:
                assert s.order == order
                assert_expands(QuantitySpec("binp", (a, b, r)), s, PrimeWindow(11, 13))

    def test_poly_equals_pp_route(self):
        for order in range(1, 9):
            a = expand("binpoly", (0, 2), (0, 1), order=order)
            b = expand("binp", 2, 1, 1, order=order)
            assert a.terms == b.terms and a.order == b.order

    @pytest.mark.parametrize(
        "a,b,r,order,window",
        [
            (2, 1, 1, 6, PrimeWindow(7, 97)),
            (3, 1, 1, 5, W_MID),
            (5, 2, 1, 4, W_MID),
            (3, 1, 2, 4, W_SMALL),
            (2, 1, 2, 5, W_SMALL),
        ],
    )
    def test_pp_numeric(self, a, b, r, order, window):
        q = QuantitySpec("binp", (a, b, r))
        assert_expands(q, expand("binp", a, b, r, order=order), window)

    @pytest.mark.parametrize(
        "f,g,order,window",
        [
            ((0, 0, 1), (0, 1), 5, W_SMALL),  # C(p^2, p)
            ((0, 3), (0, 2), 5, W_MID),  # C(3p, 2p)
            ((1, 1), (0, 1), 4, W_MID),  # C(p+1, p) = p+1
            ((2, 2), (1, 1), 4, W_MID),  # C(2p+2, p+1)
            ((0, 1, 1), (0, 0, 1), 4, W_SMALL),  # C(p^2+p, p^2)
        ],
    )
    def test_poly_numeric(self, f, g, order, window):
        q = QuantitySpec("binpoly", _poly_args(f, g))
        assert_expands(q, expand("binpoly", f, g, order=order), window)

    def test_validation(self):
        with pytest.raises(ValueError):
            expand("binpoly", (), (0, 1), order=5)
        with pytest.raises(ValueError):
            expand("binpoly", (0, -1), (0, 1), order=5)
        with pytest.raises(ValueError):
            expand("binp", 1, 2, 1, order=5)

    @pytest.mark.parametrize(
        "text,order,rendered",
        [
            ("binpoly(p-2;1)", 4, "-2 + p + O(p^4)"),  # h = -2, h(1) even: the sign flips
            ("binpoly(p;p-1)", 4, "p"),  # exactly p: no unit factor is left
            ("binpoly(p;-1)", 4, "0"),  # an eventually negative g: exactly 0
            ("binp(2,1,1)", 0, "O(p^0)"),  # order 0: no term below the tail
        ],
    )
    def test_rare_branches_match_the_oracle(self, text, order, rendered):
        q = quantity(text)
        s = expand_quantity(q, order)
        assert s.render() == rendered
        assert_expands(q, s, PrimeWindow(11, 41))

    def test_every_small_binpoly_the_spec_accepts_expands_soundly(self):
        # _factorial_ratio and _expand_binomial_poly check no argument: every
        # binpoly(f;g) with deg <= 2 and coefficients in -2..2 that the spec
        # accepts expands without error and agrees with the oracle
        polys = {strip_poly(c) for c in itertools.product(range(-2, 3), repeat=3)}
        accepted = 0
        for f, g in itertools.product(sorted(polys), repeat=2):
            try:
                q = QuantitySpec("binpoly", (f, g))
            except ValueError:
                continue
            accepted += 1
            assert_expands(q, expand_quantity(q, 4), PrimeWindow(31, 37))
        assert accepted == 7813

    @pytest.mark.parametrize("order", [3, 5])
    def test_factorial_ratio_squared_unit(self, order):
        # (2p)!/((p+1)!)^2: the unit factor of (p+1)! enters with exponent -2
        series = _factorial_ratio([((0, 2), 1), ((1, 1), -1), ((1, 1), -1)], order)
        for p in (11, 13, 17, 19):
            exact = F(math.factorial(2 * p), math.factorial(p + 1) ** 2)
            diff = exact - eval_series_terms(series, p)
            assert diff == 0 or padic_valuation(diff, p) >= order, p


def _poly_args(f, g):
    return (tuple(F(c) for c in f), tuple(F(c) for c in g))


# ---------------------------------------------------------------------------
# Apery numbers
# ---------------------------------------------------------------------------


class TestApery:
    def test_pinned_order8(self):
        s = expand("apery", order=8)
        assert s.terms == {
            (0, ()): F(1),
            (3, (2, 1)): F(2, 3),
            (5, (4, 1)): F(-59, 15),
            (6, (4, 1, 1)): F(-22, 45),
            (7, (6, 1)): F(-11953, 2520),
        }
        assert s.order == 8

    def test_numeric(self):
        assert_expands(QuantitySpec("apery", ()), expand("apery", order=6), W_MID)

    def test_numeric_high_order(self):
        assert_expands(QuantitySpec("apery", ()), expand("apery", order=8), PrimeWindow(11, 17))


# ---------------------------------------------------------------------------
# curious sums
# ---------------------------------------------------------------------------


class TestCurious:
    def test_k1_exact_zero(self):
        for r in (1, 2, 3):
            s = expand("curious", r, 1, order=6)
            assert s.is_zero() and s.order is None

    def test_r1_exact_form(self):
        s = expand("curious", 1, 3, order=6)
        assert s.terms == {(-1, (1, 1)): F(6)}
        assert s.order is None

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_r1_exact_numeric(self, k):
        q = QuantitySpec("curious", (1, k))
        assert_expands(q, expand("curious", 1, k, order=6), W_MID)  # exact claim: zero difference

    def test_pinned_displays(self):
        assert (
            expand("curious", 3, 3, order=5).render()
            == "-2 * p^2 * H(2,1) + 2 * p^4 * H(4,1) + O(p^5)"
        )
        assert expand("curious", 2, 3, order=6).terms == {
            (1, (2, 1)): F(-2),
            (3, (4, 1)): F(2),
            (5, (4, 1)): F(-11, 5),
            (5, (6, 1)): F(-69, 35),
        }
        assert expand("curious", 2, 4, order=4).terms == {
            (2, (4, 1)): F(-24, 5),
            (3, (4, 1, 1)): F(28, 15),
        }
        assert expand("curious", 3, 4, order=5).terms == {
            (3, (4, 1)): F(-24, 5),
            (4, (4, 1, 1)): F(28, 15),
        }

    @pytest.mark.parametrize(
        "r,k,order,window",
        [
            (2, 2, 6, W_MID),
            (2, 3, 6, W_MID),
            (2, 4, 4, W_MID),
            (3, 3, 6, PrimeWindow(11, 13)),
            (3, 4, 5, PrimeWindow(11, 13)),
        ],
    )
    def test_numeric(self, r, k, order, window):
        q = QuantitySpec("curious", (r, k))
        assert_expands(q, expand("curious", r, k, order=order), window)

    def test_validation(self):
        with pytest.raises(ValueError):
            expand("curious", 0, 2, order=5)
        with pytest.raises(ValueError):
            expand("curious", 2, 0, order=5)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_leading_term_closed_form(self, r):
        # Zhao (2007), Wang & Cai (2014): curious(r,3) = -2 p^(r-1) B_{p-3}
        # mod p^r, and H_{p-1}(2,1) = B_{p-3} mod p
        lead = "-2 * p * H(2,1)" if r == 2 else f"-2 * p^{r - 1} * H(2,1)"
        assert expand("curious", r, 3, order=r).render() == f"{lead} + O(p^{r})"


class TestCuriousProfiles:
    """The per-profile expansion of ``_expand_curious_general``.

    For r = 2 the a-chains are summed exactly, so the raw series changes
    by reversal relations only: canonical forms are pinned by digest and
    the raw series is checked against the oracle.  For r >= 3 the a-parts
    come from ``poly_sum`` as before, so the raw term maps are pinned.
    """

    CANONICAL_SHA256 = {
        (2, 2, 6): "beef7f752bb51f75cead486d953ec85af6d041c125945d8a03268d265cb5da97",
        (2, 3, 7): "e360aa3da8f0af46e28c8acc35828d535717f54670d95f26bb0f37c1686ec8cf",
        (2, 4, 5): "87ca750347b68edb02d69133b5c5dd3b4a421a42c39249bf1e3a276c91635681",
        (3, 3, 6): "ed52ad04001d87be0950123a487489445e5bfbdff1b4e29d3ad154817a69a84b",
        (4, 3, 5): "284994e1450aa7cf207d443814f01511f0d10bf5abfe10342a8af5534848ed93",
    }

    RAW_TERMS = {
        (3, 2, 6): {
            (-1, (1,)): F(-2),
            (0, (2,)): F(-1),
            (1, (3,)): F(-1, 3),
            (2, (2,)): F(-1),
            (3, (3,)): F(-1),
            (3, (5,)): F(1, 15),
            (4, (4,)): F(-1, 2),
            (5, (3,)): F(-2, 3),
            (5, (7,)): F(-1, 21),
        },
        (4, 2, 5): {
            (-1, (1,)): F(-2),
            (0, (2,)): F(-1),
            (1, (3,)): F(-1, 3),
            (3, (2,)): F(-1),
            (3, (5,)): F(1, 15),
            (4, (3,)): F(-1),
        },
        (3, 3, 6): {
            (1, (1, 1)): F(6),
            (2, (1, 2)): F(3),
            (2, (2, 1)): F(3),
            (3, (1, 3)): F(1),
            (3, (2, 2)): F(3, 2),
            (3, (3, 1)): F(1),
            (4, (1, 2)): F(3),
            (4, (2, 1)): F(3),
            (4, (2, 3)): F(1, 2),
            (4, (3, 2)): F(1, 2),
            (5, (1, 3)): F(3),
            (5, (1, 5)): F(-1, 5),
            (5, (2, 2)): F(3),
            (5, (3, 1)): F(3),
            (5, (3, 3)): F(1, 6),
            (5, (5, 1)): F(-1, 5),
        },
        (4, 3, 5): {
            (2, (1, 1)): F(6),
            (3, (1, 2)): F(3),
            (3, (2, 1)): F(3),
            (4, (1, 3)): F(1),
            (4, (2, 2)): F(3, 2),
            (4, (3, 1)): F(1),
        },
    }

    # term_digest of the raw series as the geometric expansion of the
    # a-parts built them; the exact elimination of nonpositive exponents
    # keeps them
    RAW_DIGESTS = {
        (3, 5, 5): "e035e2294b7c5111",
        (3, 4, 6): "13269ca409f92a7f",
        (4, 3, 6): "963bc25f189f6208",
        (4, 4, 5): "2e768b6455f00b53",
    }

    @pytest.mark.parametrize("r,k,order", sorted(RAW_DIGESTS))
    def test_raw_digest_r3_up(self, r, k, order):
        padicmhs.clear_caches()
        assert term_digest(_expand_curious_general(r, k, order)) == self.RAW_DIGESTS[(r, k, order)]

    @pytest.mark.parametrize("r,k,order", sorted(CANONICAL_SHA256))
    def test_canonical_digest(self, r, k, order):
        text = expand("curious", r, k, order=order).render()
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.CANONICAL_SHA256[(r, k, order)], text

    @pytest.mark.parametrize("k,order", [(3, 6), (4, 5)])
    def test_raw_r2_numeric(self, k, order):
        raw = _expand_curious_general(2, k, order)
        assert raw.order == order
        assert_expands(QuantitySpec("curious", (2, k)), raw, PrimeWindow(11, 19))

    @pytest.mark.parametrize("r,k,order", sorted(RAW_TERMS))
    def test_raw_terms_r3_up(self, r, k, order):
        raw = _expand_curious_general(r, k, order)
        assert raw.order == order
        assert raw.terms == self.RAW_TERMS[(r, k, order)]


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------


class TestCanonicalize:
    def test_idempotent(self):
        s = expand("apery", order=6)
        again = canonicalize(s, 6)
        assert again.terms == s.terms and again.order == s.order

    def test_constants_pass_through(self):
        s = expand("rat", (1,), (1, 1), order=4)
        c = canonicalize(s, 4)
        assert c.terms == s.terms

    def test_value_preserved(self):
        raw = expand("binp", 2, 1, 1, order=5)
        canon = canonicalize(raw, 5)
        assert canon.terms != raw.terms  # the reduction does something
        q = QuantitySpec("binp", (2, 1, 1))
        assert_expands(q, canon, W_SMALL)

    def test_needs_order(self):
        with pytest.raises(ValueError):
            canonicalize(MhsSeries.term(1, 0, (1,), None))

    def test_one_function(self):
        # reduction modulo the span lives in the prover; expansions imports it
        assert canonicalize is padicmhs.prover.canonicalize


# ---------------------------------------------------------------------------
# argument checks that no exact shortcut skips
# ---------------------------------------------------------------------------


class TestShortcutArguments:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: expand("binpoly", (0, True), (0, 1), order=3),
            lambda: expand("rat", (True,), (1,), order=3),
            # binpoly(2p; p) reaches _factorial_ratio, which checks nothing:
            # the bool in g must be refused at the door
            lambda: expand("binpoly", (0, 2), (0, True), order=3),
        ],
        ids=["binpoly", "rational", "factorial_ratio"],
    )
    def test_bool_coefficients_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: expand("curious", 2, 1, order="x"),
            lambda: expand("curious", 1, 3, order="x"),
            lambda: expand("hres", 1, order=None),
            lambda: expand("binp", 2, 1, 0, order="x"),
        ],
        ids=["curious-k1", "curious-r1", "hres-r1", "binp-r0"],
    )
    def test_order_checked_before_exact_shortcut(self, call):
        with pytest.raises(ValueError):
            call()


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


class TestDispatcher:
    CASES = [
        ("binp", "2,1", False),
        ("binpoly", "3*p; 2*p", False),
        ("binpoly", "p; 2*p", True),  # exact zero
        ("apery", "", False),
        ("zetap", "3", False),
        ("psum", "p^2; p; 1", False),
        ("psum", "p - 1; 0; 2,1", False),
        ("hres", "1", True),
        ("hres", "2", False),
        ("curious", "2,2", False),
        ("curious", "1,3", True),
        ("curious", "2,1", True),
        ("sumpoly", "p^2; 2", True),
        ("half", "2", False),
        ("alt", "3", False),
        ("rat", "p^3", True),
        ("rat", "1/(1 + p)", False),
    ]

    @pytest.mark.parametrize("name,inner,exact", CASES)
    def test_exactness_policy(self, name, inner, exact):
        q = quantity(f"{name}({inner})")
        s = expand_quantity(q, 5)
        if exact:
            assert s.order is None
        else:
            assert s.order == 5

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            expand_quantity(QuantitySpec("nope", ()), 5)

    @pytest.mark.parametrize(
        "name,inner",
        [
            ("binp", "2,1"),
            ("psum", "p^2; p; 1"),
            ("hres", "2"),
            ("curious", "2,2"),
            ("sumpoly", "1; 1,1"),
            ("half", "2"),
            ("alt", "2"),
            ("rat", "(2*p - 1)/3"),
        ],
    )
    def test_dispatcher_numeric(self, name, inner):
        q = quantity(f"{name}({inner})")
        s = expand_quantity(q, 4)
        assert_expands(q, s, W_SMALL)
