"""Tests for the numeric oracle: exact evaluators, pinned values, invariants,
and valuation reports.  Reference values come from independent brute-force
summation, never from the code under test."""

import hashlib
import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest

from padicmhs import oracle
from padicmhs.arith import INFINITY, padic_valuation
from padicmhs.compositions import enumerate_compositions, stuffle
from padicmhs.oracle import (
    DEFAULT_WORK_BUDGET,
    NumericReport,
    PrimeWindow,
    WorkBudgetExceeded,
    _eval_curious,
    _lcm_range,
    _lcm_steps,
    apery_number,
    check_numeric,
    eval_mhs,
    eval_power_sum,
    eval_quantity,
    eval_series_terms,
    primes_in,
)
from padicmhs.quantities import QuantitySpec
from padicmhs.series import MhsSeries
from reference_sums import check_expansion, eval_polylog_sum, quantity

F = Fraction

#: The quantity 0: ``check_expansion(ZERO, series, ...)`` checks that the series vanishes.
ZERO = quantity("rat(0)")


def mhs_brute(N, s):
    """Independent brute-force H_N(s) over descending index tuples."""
    k = len(s)
    total = F(0)
    for tup in combinations(range(1, N + 1), k):
        desc = tup[::-1]
        term = F(1)
        for n, e in zip(desc, s):
            term *= F(1, n**e)
        total += term
    return total


class TestPrimes:
    def test_primes_in(self):
        assert primes_in(11, 31) == [11, 13, 17, 19, 23, 29, 31]
        assert primes_in(2, 10) == [2, 3, 5, 7]
        assert primes_in(90, 96) == []

    @pytest.mark.parametrize("lo,hi", [(True, 13), (11, 13.0), (97, 11)])
    def test_window_bounds_checked(self, lo, hi):
        with pytest.raises(ValueError):
            PrimeWindow(lo, hi)

    def test_window_defaults(self):
        w = PrimeWindow()
        assert w.lo == 11 and w.hi == 97
        ps = w.primes()
        assert ps[0] == 11 and ps[-1] == 97 and len(ps) == 21


class TestEvalMhs:
    def test_pinned_values(self):
        assert eval_mhs(4, (1,)) == F(25, 12)
        assert eval_mhs(4, (2, 1)) == F(17, 32)
        assert eval_mhs(0, (1,)) == 0
        assert eval_mhs(0, (2, 1)) == 0
        assert eval_mhs(5, ()) == 1

    def test_short_chains_vanish(self):
        assert eval_mhs(2, (1, 1, 1)) == 0
        assert eval_mhs(3, (1, 1, 1)) == F(1, 6)

    def test_matches_brute_force(self):
        for s in [(1,), (2,), (1, 1), (3, 1), (2, 1, 1), (1, 2)]:
            for N in [1, 3, 7, 10]:
                assert eval_mhs(N, s) == mhs_brute(N, s)

    def test_stuffle_law_exhaustive(self):
        """H_N(s) * H_N(t) = sum of stuffle-expanded H_N(u), weights <= 5, N <= 25."""
        comps = [c for c in enumerate_compositions(5) if c]
        pairs = [
            (s, t)
            for s in comps
            for t in comps
            if sum(s) + sum(t) <= 5 and s <= t
        ]
        assert len(pairs) > 20
        for N in [1, 2, 3, 5, 8, 13, 25]:
            for s, t in pairs:
                lhs = eval_mhs(N, s) * eval_mhs(N, t)
                rhs = sum(
                    (mult * eval_mhs(N, u) for u, mult in stuffle(s, t).items()),
                    F(0),
                )
                assert lhs == rhs, (N, s, t)

    def test_reversal_congruence(self):
        """v_p(H_{p-1}(s) - (-1)^{|s|} H_{p-1}(reversed s)) >= 1, weight <= 4."""
        comps = [c for c in enumerate_compositions(4) if c]
        for p in PrimeWindow().primes():
            for s in comps:
                diff = eval_mhs(p - 1, s) - F(-1) ** sum(s) * eval_mhs(p - 1, s[::-1])
                assert padic_valuation(diff, p) >= 1, (p, s)


class TestEvalPowerSum:
    def test_pinned(self):
        assert eval_power_sum(4, 2, (1,)) == F(7, 12)  # 1/3 + 1/4
        assert eval_power_sum(9, 0, (1,), restricted_at=3) == sum(
            (F(1, n) for n in range(1, 10) if n % 3), F(0)
        )

    def test_matches_mhs_when_unrestricted_from_zero(self):
        for s in [(1,), (2, 1), (1, 1, 1)]:
            for N in [0, 1, 4, 9]:
                assert eval_power_sum(N, 0, s) == eval_mhs(N, s)

    def test_negative_exponents(self):
        assert eval_power_sum(3, 0, (-2,)) == 1 + 4 + 9
        assert eval_power_sum(3, 0, (-1, 1)) == F(3, 1) + F(2, 1) + F(3, 2)
        # n1 > n2: (2,1): 2/1; (3,1): 3/1; (3,2): 3/2

    def test_empty_exponents(self):
        assert eval_power_sum(5, 2, ()) == 1

    def test_empty_range(self):
        assert eval_power_sum(3, 3, (1,)) == 0

    def test_range_ending_below_its_start_is_empty(self):
        # psum(p-1;p;1,2) at p: no index in p+1..p-1, as its expansion 0 says
        assert eval_power_sum(10, 11, (1, 2)) == 0
        assert eval_power_sum(10, 11, (1,), restricted_at=11) == 0
        assert eval_power_sum(2, 3, ()) == 1
        q = quantity("psum(p-1;p;1,2)")
        report = check_expansion(q, MhsSeries.zero(2), PrimeWindow(11, 13))
        assert report.passed and [got for (_p, _r, got) in report.records] == [INFINITY] * 2

    def test_bad_bounds(self):
        with pytest.raises(ValueError, match="M >= 0"):
            eval_power_sum(2, -1, (1,))

    def test_brute_force_cross_check(self):
        # S_{N,M}(s): descending chains in [M+1, N]
        def brute(N, M, s, p=None):
            total = F(0)
            pool = [n for n in range(M + 1, N + 1) if p is None or n % p]
            for tup in combinations(pool, len(s)):
                term = F(1)
                for n, e in zip(tup[::-1], s):
                    term *= F(n) ** (-e)
                total += term
            return total

        for N, M, s in [(8, 3, (1,)), (8, 3, (2, 1)), (10, 0, (-1, 2)), (6, 1, (1, 1))]:
            assert eval_power_sum(N, M, s) == brute(N, M, s)
            assert eval_power_sum(N, M, s, restricted_at=3) == brute(N, M, s, 3)


class TestEvalPolylogSum:
    def test_all_z_one_matches_mhs(self):
        for s in [(1,), (2, 1)]:
            for N in [3, 6]:
                assert eval_polylog_sum(N, s, (1,) * len(s)) == eval_mhs(N, s)

    def test_alternating_pinned(self):
        # at p=5: -1 + 1/2 - 1/3 + 1/4
        assert eval_polylog_sum(4, (1,), (-1,)) == F(-7, 12)

    def test_eq2_two_power(self):
        # 2^p = 2 - p * sum (-1)^n/n mod p^2 at p = 7
        p = 7
        val = 2**p - (2 - p * eval_polylog_sum(p - 1, (1,), (-1,)))
        assert padic_valuation(F(val), p) >= 2

    def test_two_power_truncations(self):
        """2^p - 2 - sum_{k<K} (-1)^{k+1} p^{k+1} H((1,1^k);(-1,1^k)) has v_p >= K+1."""
        for p in PrimeWindow().primes():
            for K in (0, 1, 2):
                acc = F(2**p - 2)
                for k in range(K):
                    exps = (1,) * (k + 1)
                    zs = (-1,) + (1,) * k
                    acc -= F(-1) ** (k + 1) * F(p) ** (k + 1) * eval_polylog_sum(
                        p - 1, exps, zs
                    )
                assert padic_valuation(acc, p) >= K + 1, (p, K)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            eval_polylog_sum(4, (1, 2), (1,))

    def test_rational_z(self):
        assert eval_polylog_sum(2, (1,), (F(1, 2),)) == F(1, 2) + F(1, 8)


class TestApery:
    def test_small_values(self):
        assert apery_number(0) == 1
        assert apery_number(1) == 5
        assert apery_number(2) == 73
        assert apery_number(4) == 33001

    def test_recurrence(self):
        # n^3 b_n = (34n^3 - 51n^2 + 27n - 5) b_{n-1} - (n-1)^3 b_{n-2}
        b = [apery_number(n) for n in range(31)]
        for n in range(2, 31):
            lhs = F(n**3) * b[n]
            rhs = F(34 * n**3 - 51 * n**2 + 27 * n - 5) * b[n - 1] - F(
                (n - 1) ** 3
            ) * b[n - 2]
            assert lhs == rhs, n


class TestEvalQuantity:
    def test_binp(self):
        q = quantity("binp(2,1,1)")
        assert eval_quantity(q, 7) == math.comb(14, 7) == 3432
        assert eval_quantity(quantity("binp(3,1)"), 5) == math.comb(15, 5)
        assert eval_quantity(quantity("binp(2,1,2)"), 3) == math.comb(18, 9)

    def test_binpoly(self):
        q = quantity("binpoly(p^2;p)")
        assert eval_quantity(q, 5) == math.comb(25, 5)
        q = quantity("binpoly(2*p;p)")
        assert eval_quantity(q, 7) == math.comb(14, 7)

    def test_apery(self):
        q = quantity("apery()")
        assert eval_quantity(q, 5) == apery_number(4) == 33001

    def test_zetap_refuses(self):
        with pytest.raises(ValueError, match="p-adic"):
            eval_quantity(quantity("zetap(3)"), 7)

    def test_psum(self):
        q = quantity("psum(p^2-1;0;2,1)")
        assert eval_quantity(q, 5) == eval_power_sum(24, 0, (2, 1))
        q = quantity("psum(p^2;0;1;restricted)")
        assert eval_quantity(q, 5) == eval_power_sum(25, 0, (1,), restricted_at=5)
        q = quantity("psum(2*p;p;1)")
        assert eval_quantity(q, 7) == eval_power_sum(14, 7, (1,))

    def test_hres(self):
        q = quantity("hres(2)")
        expected = sum((F(1, n) for n in range(1, 25) if n % 5), F(0))
        assert eval_quantity(q, 5) == expected
        assert eval_quantity(quantity("hres(1)"), 7) == eval_mhs(6, (1,))

    def test_sumpoly(self):
        q = quantity("sumpoly(1;1)")
        # sum_{m=1}^{4} H_m(1) = 1 + 3/2 + 11/6 + 25/12
        assert eval_quantity(q, 5) == F(1) + F(3, 2) + F(11, 6) + F(25, 12)
        q = quantity("sumpoly(p^2;2,1)")
        expected = sum((F(m**2) * eval_mhs(m, (2, 1)) for m in range(1, 7)), F(0))
        assert eval_quantity(q, 7) == expected

    def test_half_alt(self):
        assert eval_quantity(quantity("half(2)"), 5) == F(25) * (1 + F(1, 4))
        expected = F(125) * sum((F(-1) ** n / F(n) ** 3 for n in range(1, 5)), F(0))
        assert eval_quantity(quantity("alt(3)"), 5) == expected

    def test_rat(self):
        assert eval_quantity(quantity("rat(p^2)"), 7) == 49
        assert eval_quantity(quantity("rat((2*p-1)/3)"), 5) == 3
        assert eval_quantity(quantity("rat(1/(1-p))"), 3) == F(-1, 2)

    def test_rat_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            eval_quantity(quantity("rat(1/(p-3))"), 3)


class TestCurious:
    @staticmethod
    def brute(r, k, p):
        """Direct sum over compositions of p^r into k coprime-to-p parts."""
        target = p**r
        total = F(0)
        # compositions via stars and bars on cut points
        for cuts in combinations(range(1, target), k - 1):
            parts = []
            prev = 0
            for c in cuts + (target,):
                parts.append(c - prev)
                prev = c
            if all(part % p for part in parts):
                term = F(1)
                for part in parts:
                    term *= F(1, part)
                total += term
        return total

    def test_k_one_is_empty_sum(self):
        for r in (1, 2, 3):
            assert eval_quantity(quantity(f"curious({r},1)"), 5) == 0

    def test_pinned_value(self):
        assert eval_quantity(quantity("curious(1,2)"), 5) == F(5, 6)

    def test_brute_force_cross_check(self):
        cases = [(1, 2, 3), (1, 2, 5), (1, 3, 5), (1, 4, 5), (2, 2, 3), (2, 3, 3), (1, 3, 7), (2, 2, 5)]
        for r, k, p in cases:
            q = quantity(f"curious({r},{k})")
            assert eval_quantity(q, p) == self.brute(r, k, p), (r, k, p)

    def test_depth_identity_r_one(self):
        # C_{1,k,p} = k!/p * H_{p-1}(1,...,1) with k-1 ones
        for k in (2, 3, 4):
            for p in (5, 7, 11):
                q = quantity(f"curious(1,{k})")
                expected = F(math.factorial(k), p) * eval_mhs(p - 1, (1,) * (k - 1))
                assert eval_quantity(q, p) == expected, (k, p)

    def test_work_budget_refusal(self):
        q = quantity("curious(3,3)")
        with pytest.raises(WorkBudgetExceeded):
            eval_quantity(q, 11, work_budget=100)


def power_sum_reference(N, M, exps, restricted_at=None):
    """S_{N,M}(exps) by a plain Fraction dynamic program (no common denominator)."""
    k = len(exps)
    D = [F(1)] + [F(0)] * k
    for n in range(M + 1, N + 1):
        if restricted_at is not None and n % restricted_at == 0:
            continue
        for j in range(k, 0, -1):
            D[j] += D[j - 1] * F(n) ** (-exps[k - j])
    return D[k]


def curious_brute(r, k, p):
    """Sum of 1/(n_1*...*n_k) over the compositions of p^r into k parts prime to p.

    The compositions are enumerated one part at a time, never choosing a
    part divisible by p; compositions that end in the same remainder share
    the sum over their remaining parts.  This sums over the compositions
    directly, not through the symmetrized chain form the oracle uses.
    """

    @lru_cache(maxsize=None)
    def walk(rest, parts):
        if parts == 1:
            return F(1, rest) if rest % p else F(0)
        return sum(
            (F(1, a) * walk(rest - a, parts - 1) for a in range(1, rest - parts + 2) if a % p),
            F(0),
        )

    return walk(p**r, k)


def curious_chain_reference(r, k, p):
    """C_{r,k,p} by the symmetrized chain form, an O(k p^r)-step integer DP.

    With m_i the suffix sums of a composition, the sum equals k!/p^r times
    the sum over p^r > l_1 > ... > l_{k-1} >= 1 of prod 1/l_i, subject to
    p not dividing l_1 or l_{k-1} and no two consecutive l's congruent mod
    p.  The DP ascends over n with per-residue prefix sums on the common
    denominator K = lcm(1..p^r-1)^(k-1); each step is one exact division.
    """
    if k == 1:
        return F(0)
    L = k - 1
    top = p**r
    K = _lcm_range(1, top - 1) ** L
    # tot[j] = sum of K*T_j(m) over m < n; res[j][c] = same, restricted to m = c mod p
    tot = [0] * (L + 1)
    res = [[0] * p for _ in range(L + 1)]
    total = 0  # K * D
    for n in range(1, top):
        rn = n % p
        tvals = [0] * (L + 1)
        tvals[L] = K // n if rn else 0
        for j in range(L - 1, 0, -1):
            acc = tot[j + 1] - res[j + 1][rn]
            if acc:
                tvals[j] = acc // n
        if rn:
            total += tvals[1]
        for j in range(1, L + 1):
            tj = tvals[j]
            if tj:
                tot[j] += tj
                res[j][rn] += tj
    return F(math.factorial(k) * total, top * K)


class TestCuriousBinarySplitting:
    """The curious sum (residue classes for k <= 3, binary splitting above)
    against the chain DP and pinned values."""

    MODULI = (
        [(2, p) for p in primes_in(2, 31)] + [(3, p) for p in primes_in(2, 11)] + [(4, 5), (5, 3)]
    )

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_against_chain_reference(self, k):
        for r, p in self.MODULI:
            assert _eval_curious(r, k, p, DEFAULT_WORK_BUDGET) == curious_chain_reference(
                r, k, p
            ), (r, k, p)

    # SHA-256 of hex(numerator), hex(denominator), as the chain DP computed them
    PINNED = {
        (3, 4, 23): (
            "c3d507c261f89709e6f29975875494426e89adf0258ad10eab9dba50c21dc482",
            "5b425c1e51a2260cdac406d6743f8b42d944d2739d45177ebfed87aafb393a48",
        ),
        (3, 3, 23): (
            "4be309fe6d00b4cf0dd871f21afab27d37addf26fe46c7803100b771e6d32e77",
            "a8ebf358a2c5f8795872cdc88a7ccdfd6912a078be793a406153bd3fc2f6130d",
        ),
        (2, 4, 61): (
            "998574b5ec95039bf348a2e041abc9ba9c747535bef53b14788f582242d55e04",
            "ffc8e2ef8d3871b81e97bdee9a4ceabce33303b5e2f5d2ed5cda5038f4da4eb6",
        ),
        (2, 3, 61): (
            "107a0151487c28fcae12b1e0de35bdbc4e27df1b12ed5f1ebf6292f850ffa53d",
            "07467a4857f0432b7a7be8d4f40fcfbdb4d63f46a5f0dcfe70a37f0d3cbaeb7f",
        ),
    }

    @pytest.mark.parametrize("r,k,p", sorted(PINNED))
    def test_pinned_digests(self, r, k, p):
        value = _eval_curious(r, k, p, DEFAULT_WORK_BUDGET)
        digests = tuple(
            hashlib.sha256(hex(n).encode()).hexdigest()
            for n in (value.numerator, value.denominator)
        )
        assert digests == self.PINNED[(r, k, p)]

    @pytest.mark.parametrize("k", [2, 3])
    def test_residue_classes_need_no_splitting_helper(self, monkeypatch, k):
        def refuse(*args):
            raise AssertionError("a k >= 4 binary-splitting helper ran")

        monkeypatch.setattr(oracle, "_rising", refuse)
        monkeypatch.setattr(oracle, "_poly_mul", refuse)
        for r, p in [(1, 2), (3, 2), (1, 7), (2, 5), (3, 3)]:
            assert _eval_curious(r, k, p, DEFAULT_WORK_BUDGET) == curious_brute(r, k, p), (r, p)

    @pytest.mark.parametrize("r,k,p", [(2, 3, 5), (2, 4, 7), (3, 2, 3)])
    def test_budget_boundary(self, r, k, p):
        cost = (k - 1) * (p**r - 1)
        q = quantity(f"curious({r},{k})")
        assert eval_quantity(q, p, work_budget=cost) == curious_brute(r, k, p)
        with pytest.raises(WorkBudgetExceeded):
            eval_quantity(q, p, work_budget=cost - 1)


class TestFixedDenominator:
    """The integer dynamic programs agree exactly with Fraction references."""

    CURIOUS_MODULI = [
        (p, r) for p in primes_in(2, 49) for r in range(1, 6) if p**r <= 49
    ]

    def test_lcm_range(self):
        for lo in range(1, 12):
            for hi in range(lo - 1, 40):
                assert _lcm_range(lo, hi) == math.lcm(*range(lo, hi + 1)), (lo, hi)
        for lo in (10**12, 97**9 - 40, 2**61 - 20):
            for length in (0, 1, 2, 7, 30):
                hi = lo + length - 1
                assert _lcm_range(lo, hi) == math.lcm(*range(lo, hi + 1)), (lo, hi)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_curious_against_compositions(self, k):
        for p, r in self.CURIOUS_MODULI:
            assert _eval_curious(r, k, p, DEFAULT_WORK_BUDGET) == curious_brute(
                r, k, p
            ), (r, k, p)

    def test_power_sum_against_fraction_reference(self):
        rng = random.Random(20261018)
        for _ in range(600):
            k = rng.randint(1, 4)
            exps = [rng.randint(-3, 4) for _ in range(k)]
            exps[rng.randrange(k)] = rng.choice([0, -1, -2])  # a zero or negative entry
            exps = tuple(exps)
            N = rng.randint(0, 40)
            M = rng.randint(1, N) if N and rng.random() < 0.6 else 0
            restricted_at = rng.choice([None, None, 2, 3, 5, 7])
            assert eval_power_sum(N, M, exps, restricted_at) == power_sum_reference(
                N, M, exps, restricted_at
            ), (N, M, exps, restricted_at)

    def test_power_sum_positive_exponents(self):
        rng = random.Random(7)
        for _ in range(200):
            exps = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            N = rng.randint(0, 60)
            M = rng.randint(0, N)
            restricted_at = rng.choice([None, 3, 5])
            assert eval_power_sum(N, M, exps, restricted_at) == power_sum_reference(
                N, M, exps, restricted_at
            ), (N, M, exps, restricted_at)

    def test_eval_mhs_is_the_power_sum_from_zero(self):
        rng = random.Random(11)
        for _ in range(100):
            s = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            N = rng.randint(len(s), 50)
            assert eval_mhs(N, s) == eval_power_sum(N, 0, s) == power_sum_reference(N, 0, s)
        assert eval_mhs(3, ()) == 1
        assert eval_mhs(2, (1, 1, 1)) == 0


class TestRefusalBeforeAllocation:
    """An over-budget evaluation is refused before its denominator is built."""

    @pytest.mark.parametrize(
        "name,args",
        [("curious", "5,7"), ("psum", "p^5;0;2,1"), ("hres", "6"), ("binp", "2,1,4")],
    )
    def test_refused_at_once(self, name, args):
        t0 = time.perf_counter()
        with pytest.raises(WorkBudgetExceeded):
            eval_quantity(quantity(f"{name}({args})"), 97)
        assert time.perf_counter() - t0 < 1.0

    def test_short_range_far_from_one(self):
        # two summation steps: the denominator depends on the range, not on p^9
        t0 = time.perf_counter()
        q = quantity("psum(p^9;p^9-2;1,-1)")
        N = 97**9
        assert eval_quantity(q, 97) == F(N - 1, N)
        assert time.perf_counter() - t0 < 1.0


class TestGrowingDenominator:
    """The power-sum DP whose denominator grows with the prefix, and the
    quantities it serves, against pinned values and Fraction references."""

    # SHA-256 of hex(numerator), hex(denominator) at p = 61, as the DP on the
    # fixed denominator lcm(M+1..N)^P and the Fraction sumpoly loop computed them
    PINNED = {
        ("psum", "p^2-1;0;2,1"): (
            "9fb66a02d0f7f7061e7a393a9b8514ac765c9bf58cf688d2a96f5659526c34e5",
            "199199d29b97afe048e418698a46956430077b28607fab018c62681b4c44e341",
        ),
        ("hres", "2"): (
            "7fef54d42b6d010ba85facdfa074eff9161638590fccd0f3e1ec353d06bc640e",
            "a881c7244529a0f23f5d28c029fd3b077ce5352bc6d291657c91e4c94c8f0219",
        ),
        ("sumpoly", "p^2;1,1"): (
            "c2ff329f47c7a8f37edb3e776e451a302c3e24081bcad8a4b0e9a749942b8b28",
            "5dedc4560125aec9e786bc6f7f06e080bae4bbe4b78993f079ab4e4420204f43",
        ),
    }

    @pytest.mark.parametrize("name,args", sorted(PINNED))
    def test_pinned_digests(self, name, args):
        value = eval_quantity(quantity(f"{name}({args})"), 61)
        digests = tuple(
            hashlib.sha256(hex(n).encode()).hexdigest()
            for n in (value.numerator, value.denominator)
        )
        assert digests == self.PINNED[(name, args)]

    def test_lcm_steps_are_the_ratios(self):
        for lo in range(1, 30):
            for hi in range(lo - 1, 80):
                ratios = {
                    n: math.lcm(*range(lo, n + 1)) // math.lcm(*range(lo, n))
                    for n in range(lo, hi + 1)
                }
                ns, fs = _lcm_steps(lo, hi)
                assert dict(zip(ns, fs)) == {n: f for n, f in ratios.items() if f > 1}, (lo, hi)

    def test_power_sums_with_prime_powers_mid_range(self):
        rng = random.Random(20261019)
        for _ in range(24):
            M = rng.randint(1, 200)
            N = rng.randint(M, 2000)
            exps = tuple(rng.randint(-1, 3) for _ in range(rng.randint(1, 2)))
            for restricted_at in (None, rng.choice([2, 3, 5, 7])):
                assert eval_power_sum(N, M, exps, restricted_at) == power_sum_reference(
                    N, M, exps, restricted_at
                ), (N, M, exps, restricted_at)

    @pytest.mark.parametrize("length", [99, 100])
    @pytest.mark.parametrize("M", [0, 23, 120])
    def test_either_side_of_the_short_range_start(self, length, M, monkeypatch):
        # below 100 indices the row starts from the whole lcm, at 100 it grows
        steps = []
        real = oracle._lcm_steps
        monkeypatch.setattr(oracle, "_lcm_steps", lambda *a: steps.append(a) or real(*a))
        N = M + length
        for exps in [(1,), (2, 1), (3, -1, 2), (0, 2), (-2,)]:
            for restricted_at in (None, 7):
                assert eval_power_sum(N, M, exps, restricted_at) == power_sum_reference(
                    N, M, exps, restricted_at
                ), (N, M, exps, restricted_at)
        assert bool(steps) == (length >= 100)

    def test_sumpoly_against_double_sum(self):
        rng = random.Random(31)
        for _ in range(60):
            p = rng.choice(primes_in(2, 31))
            s = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
            P = tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(1, 4)))
            expected = sum(
                (
                    sum((c * m**i for i, c in enumerate(P)), F(0)) * power_sum_reference(m, 0, s)
                    for m in range(1, p)
                ),
                F(0),
            )
            assert eval_quantity(QuantitySpec("sumpoly", (P, s)), p) == expected, (p, P, s)

    def test_alt_is_the_alternating_sum(self):
        for p in primes_in(2, 61):
            for k in range(2, 6):
                expected = F(p) ** k * eval_polylog_sum(p - 1, (k,), (-1,))
                assert eval_quantity(quantity(f"alt({k})"), p) == expected, (p, k)


class TestBudgetCharges:
    """binp, binpoly and apery are charged by the size of what they multiply."""

    @pytest.mark.parametrize(
        "name,args,p,cost",
        [
            ("binp", "2,1,2", 5, 50),
            ("binp", "3,1", 7, 21),
            ("binpoly", "p^2;p", 5, 25),
            ("binpoly", "-p;3", 7, 7),
            ("binpoly", "p;2*p", 3, 6),
            ("apery", "", 11, 11),
        ],
    )
    def test_charge_boundary(self, name, args, p, cost):
        q = quantity(f"{name}({args})")
        assert eval_quantity(q, p, work_budget=cost) == eval_quantity(q, p)
        with pytest.raises(WorkBudgetExceeded):
            eval_quantity(q, p, work_budget=cost - 1)


class TestEvalSeriesTerms:
    def test_basic(self):
        s = MhsSeries({(0, ()): 2, (1, (1,)): 2}, 3)
        assert eval_series_terms(s, 5) == 2 + 10 * F(25, 12)

    def test_negative_exponent(self):
        s = MhsSeries({(-1, (1,)): 1})
        assert eval_series_terms(s, 5) == F(25, 12) / 5

    def test_empty(self):
        assert eval_series_terms(MhsSeries.zero(4), 7) == 0


class TestCheckNumeric:
    def test_known_binomial_congruence(self):
        """12 - 9*C(2p,p) + 2*C(3p,p) = 24 p^3 H_{p-1}(3) mod p^6 for p >= 7."""

        def diff(p):
            return (
                12
                - 9 * math.comb(2 * p, p)
                + 2 * math.comb(3 * p, p)
                - 24 * F(p) ** 3 * eval_mhs(p - 1, (3,))
            )

        report = check_numeric(diff, PrimeWindow(7, 97), required=6)
        assert report.passed
        assert len(report.records) == 22

    def test_wolstenholme_statement(self):
        series = MhsSeries({(1, (1,)): 1, (2, (1, 1)): 1}, 3)
        report = check_expansion(ZERO, series, PrimeWindow(5, 97))
        assert report.passed

    def test_negative_control_fails_everywhere(self):
        def diff(p):
            return (
                12
                - 9 * math.comb(2 * p, p)
                + 2 * math.comb(3 * p, p)
                - 25 * F(p) ** 3 * eval_mhs(p - 1, (3,))
            )

        report = check_numeric(diff, PrimeWindow(7, 97), required=6)
        assert not report.passed
        # sporadic per-prime passes are possible for a false statement; the
        # overwhelming majority must fail
        failures = sum(1 for (_p, _req, got) in report.records if got < 6)
        assert failures >= 0.9 * len(report.records)

    def test_quantity_series_pair_exact(self):
        q = quantity("rat((2*p-1)/3)")
        series = MhsSeries({(0, ()): F(-1, 3), (1, ()): F(2, 3)})
        report = check_expansion(q, series, PrimeWindow(11, 31))
        assert report.passed
        assert all(got is INFINITY for (_p, _req, got) in report.records)

    def test_quantity_series_pair_truncated(self):
        # C(2p,p) = 2 + 2pH(1) + 2p^2 H(1,1) + O(p^3)
        q = quantity("binp(2,1,1)")
        series = MhsSeries(
            {(0, ()): 2, (1, (1,)): 2, (2, (1, 1)): 2}, 3
        )
        report = check_expansion(q, series, PrimeWindow(11, 61))
        assert report.passed

    def test_denominator_primes_skipped(self):
        series = MhsSeries({(1, (1,)): F(1, 11)}, 2)
        report = check_expansion(ZERO, series, PrimeWindow(11, 31), required=1)
        assert 11 in report.skipped
        assert all(p != 11 for (p, _r, _g) in report.records)

    def test_window_primes_listed_once(self):
        calls = []

        class CountingWindow(PrimeWindow):
            def primes(self):
                calls.append(1)
                return super().primes()

        terms = {(1, (1,)): F(1, 11), (1, (2,)): F(1, 13), (2, (1, 1)): 1, (2, (3,)): 1}
        report = check_expansion(ZERO, MhsSeries(terms, 2), CountingWindow(11, 31), required=1)
        assert calls == [1]
        assert report.skipped == [11, 13]

    def test_refusal_recorded(self):
        q = quantity("curious(3,3)")
        report = check_numeric(lambda p: eval_quantity(q, p, 10), PrimeWindow(11, 13), 1)
        assert not report.passed
        assert report.refused == [11, 13]
        rows = report.render().splitlines()[2:4]
        assert [row.split() for row in rows] == [
            ["11", "1", "refused", "REFUSED"],
            ["13", "1", "refused", "REFUSED"],
        ]

    def test_machine_line_format(self):
        series = MhsSeries({(1, (1,)): 1, (2, (1, 1)): 1}, 3)
        report = check_expansion(ZERO, series, PrimeWindow(11, 13))
        lines = report.render().splitlines()
        assert len(lines) == 5
        assert lines[2].split()[:2] == ["11", "3"]
        assert lines[2].endswith("PASS")
        assert lines[4] == "summary: PASS"

    def test_render_table(self):
        text = check_expansion(ZERO, MhsSeries({(1, (1,)): 1}, 2), PrimeWindow(11, 13)).render()
        assert "prime" in text and "required" in text and "verdict" in text
        assert "summary: PASS" in text

    def test_callable_requires_required(self):
        with pytest.raises(TypeError):
            check_numeric(lambda p: F(0), PrimeWindow(11, 13))

    def test_empty_window_fails(self):
        report = check_numeric(lambda p: F(0), PrimeWindow(90, 96), required=1)
        assert not report.passed

    def test_callable_skips_a_prime_with_none(self):
        report = check_numeric(
            lambda p: None if p == 13 else F(p), PrimeWindow(11, 17), required=1
        )
        assert report.passed and report.skipped == [13]
        assert [p for (p, _r, _g) in report.records] == [11, 17]
