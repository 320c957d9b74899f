"""Exact-arithmetic helpers: Bernoulli numbers, binomials, power-sum
polynomials, integer polynomials, p-adic valuation.

Oracle strategy: every table-driven value is recomputed here by an
independent method (explicit formulas or brute-force sums) rather than
trusting the implementation under test.
"""

import math
from fractions import Fraction

import pytest

from padicmhs.arith import (
    INFINITY,
    bernoulli,
    binomial,
    eval_poly,
    int_poly,
    padic_valuation,
    power_sum_poly,
)

F = Fraction


def bernoulli_reference(n: int) -> Fraction:
    """Independent Bernoulli via the double-sum formula
    B_n = sum_{k=0}^{n} 1/(k+1) sum_{r=0}^{k} (-1)^r C(k,r) r^n.
    (Convention with B_1 = -1/2.)
    """
    import math

    total = F(0)
    for k in range(n + 1):
        inner = sum(F((-1) ** r * math.comb(k, r)) * (r**n) for r in range(k + 1))
        total += inner / (k + 1)
    return total


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == F(-1, 2)
        assert bernoulli(2) == F(1, 6)
        assert bernoulli(4) == F(-1, 30)
        assert bernoulli(6) == F(1, 42)
        assert bernoulli(12) == F(-691, 2730)

    def test_odd_vanish(self):
        for n in range(3, 30, 2):
            assert bernoulli(n) == 0

    def test_against_independent_formula(self):
        for n in range(0, 20):
            assert bernoulli(n) == bernoulli_reference(n), n


class TestBinomial:
    def test_integer_cases(self):
        import math

        for a in range(0, 9):
            for k in range(0, 9):
                assert binomial(a, k) == math.comb(a, k)

    def test_negative_upper(self):
        assert binomial(-1, 3) == -1
        assert binomial(-2, 3) == -4
        assert binomial(F(-2), 2) == 3

    def test_rational_upper(self):
        assert binomial(F(1, 2), 2) == F(-1, 8)
        assert binomial(F(5, 2), 3) == F(5, 16)

    def test_negative_k_is_zero(self):
        assert binomial(5, -1) == 0

    @staticmethod
    def _product_formula(a, k):
        if k < 0:
            return F(0)
        num = F(1)
        for i in range(k):
            num *= F(a) - i
        return num / math.factorial(k)

    def test_integer_upper_matches_product_formula(self):
        for a in range(-12, 13):
            for k in range(-1, 13):
                got = binomial(a, k)
                assert type(got) is Fraction
                assert got == self._product_formula(a, k), (a, k)

    def test_fraction_upper_matches_product_formula(self):
        for a in [F(n) for n in range(-12, 13)] + [F(1, 2), F(-7, 3), F(22, 5)]:
            for k in range(-1, 13):
                assert binomial(a, k) == self._product_formula(a, k), (a, k)

    def test_pascal(self):
        for a in range(-6, 7):
            for k in range(1, 8):
                assert binomial(a, k) == binomial(a - 1, k) + binomial(a - 1, k - 1)


class TestPowerSumPoly:
    @pytest.mark.parametrize("d", range(0, 13))
    def test_matches_direct_sum(self, d):
        coeffs = power_sum_poly(d)
        for x in list(range(0, 20)) + [50]:
            direct = sum(F(a) ** d for a in range(x)) if d > 0 else F(x)
            # d = 0 counts each a in [0, x) once, including a = 0.
            if d == 0:
                direct = F(x)
            assert eval_poly(coeffs, F(x)) == direct, (d, x)

    def test_no_constant_term(self):
        for d in range(0, 10):
            assert power_sum_poly(d)[0] == 0


class TestIntPoly:
    @pytest.mark.parametrize("coeffs", [(True,), (0, False), (F(1, 2),), (1.0,), ("1",)])
    def test_refuses_non_integers(self, coeffs):
        with pytest.raises(ValueError):
            int_poly(coeffs)


class TestPadicValuation:
    def test_examples(self):
        assert padic_valuation(F(50, 3), 5) == 2
        assert padic_valuation(F(3, 25), 5) == -2
        assert padic_valuation(F(7), 7) == 1
        assert padic_valuation(F(1), 7) == 0

    def test_zero(self):
        assert padic_valuation(F(0), 5) == INFINITY

    def test_ultrametric(self):
        vals = [F(50, 3), F(3, 25), F(7, 2), F(-10)]
        for a in vals:
            for b in vals:
                if a + b == 0:
                    continue
                va, vb = padic_valuation(a, 5), padic_valuation(b, 5)
                assert padic_valuation(a + b, 5) >= min(va, vb)
