"""Oracle-driven tests for the bounded multiple power sum expansions.

Every expansion here is checked against direct exact summation at concrete
primes: exact series must match on the nose, truncated series must agree to
the claimed p-adic order.  Primes dividing a coefficient denominator of a
truncated series are skipped, as the series only claims validity away from
them.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

import padicmhs
from padicmhs import arith, certificate, compositions, oracle, powersums, prover
from padicmhs.arith import padic_valuation
from padicmhs.expansions import _expand_curious_general, expand_quantity
from padicmhs.oracle import (
    PrimeWindow,
    eval_mhs,
    eval_power_sum,
    eval_series_terms,
    primes_in,
)
from padicmhs.powersums import (
    block_sum,
    full_sum,
    poly_sum,
    positive_exponent_sum,
    signed_mhs,
    valuation_bound,
)
from padicmhs.quantities import QuantitySpec
from padicmhs.series import MhsSeries
from reference_sums import check_expansion, quantity


def assert_series_matches(series, value_fn, primes):
    """Exact series must equal value_fn(p); truncated must agree to the order."""
    checked = 0
    for p in primes:
        if series.order is not None and any(
            c.denominator % p == 0 for c in series.terms.values()
        ):
            continue  # series is not p-integral at p; claim excludes such primes
        diff = value_fn(p) - eval_series_terms(series, p)
        if series.order is None:
            assert diff == 0, f"p={p}: exact series off by {diff}"
        else:
            v = padic_valuation(diff, p)
            assert v >= series.order, f"p={p}: valuation {v} < order {series.order}"
        checked += 1
    assert checked > 0, "no prime survived the denominator skip"


class TestSignedMhs:
    def test_positive_exponents_pass_through(self):
        assert signed_mhs((2, 1)) == MhsSeries.term(1, 0, (2, 1))
        assert signed_mhs((5,)) == MhsSeries.term(1, 0, (5,))
        assert signed_mhs(()) == MhsSeries.constant(1)

    def test_counting_chain(self):
        # sum over p-1 >= n >= 1 of n^0 = p - 1
        assert signed_mhs((0,)) == MhsSeries({(1, ()): F(1), (0, ()): F(-1)})

    def test_mixed_chain_closed_form(self):
        # sum over n > m of m^-1 = (p-1)*H(1) - (p-1)
        expect = MhsSeries(
            {(1, (1,)): F(1), (0, (1,)): F(-1), (1, ()): F(-1), (0, ()): F(1)}
        )
        assert signed_mhs((0, 1)) == expect

    @pytest.mark.parametrize(
        "exps",
        [
            (0,),
            (-1,),
            (-2,),
            (-3,),
            (0, 1),
            (1, 0),
            (0, 0),
            (2, -1),
            (-1, 2),
            (-2, -1),
            (1, 1, -1),
            (1, -1, 1),
            (-1, 1, 1),
            (3, -2),
            (0, 1, 2),
            (2, 0, 1),
            (0, -1, 0),
        ],
    )
    def test_exact_against_direct_summation(self, exps):
        series = signed_mhs(exps)
        assert series.order is None
        for p in (7, 11, 13):
            direct = eval_power_sum(p - 1, 0, exps)
            assert eval_series_terms(series, p) == direct, f"p={p}, exps={exps}"

    def test_results_are_cached(self):
        assert signed_mhs((0, 1)) is signed_mhs((0, 1))


BLOCK_CASES = [
    (1, 1, (1,), False),
    (1, 1, (1,), True),
    (1, 1, (2, 1), False),
    (2, 1, (1, 1), False),
    (2, 1, (2,), True),
    (3, 1, (1,), False),
    (1, 1, (-1, 2), False),
    (1, 1, (0,), False),
    (1, 2, (1,), False),
    (1, 2, (1,), True),
    (1, 2, (2, 1), True),
    (2, 2, (1, 1), False),
    (2, 2, (3,), True),
]


class TestBlockSum:
    @pytest.mark.parametrize("b,r,exps,restricted", BLOCK_CASES)
    def test_against_direct_summation(self, b, r, exps, restricted):
        order = 5
        series = block_sum(b, r, exps, restricted, order)
        assert_series_matches(
            series,
            lambda p: eval_power_sum(
                b * p**r, (b - 1) * p**r, exps, restricted_at=p if restricted else None
            ),
            (11, 13),
        )

    @pytest.mark.parametrize("b,r,exps,restricted", BLOCK_CASES)
    def test_valuation_lower_bound(self, b, r, exps, restricted):
        series = block_sum(b, r, exps, restricted, 5)
        assert series.min_valuation() >= valuation_bound(r, exps, restricted)

    def test_empty_exps_is_one(self):
        assert block_sum(4, 2, (), False, 6) == MhsSeries.constant(1)

    def test_length_one_block(self):
        # r = 0: the block (b-1, b] contains only n = b
        assert block_sum(3, 0, (2,), False, 5) == MhsSeries.constant(F(1, 9))
        assert block_sum(3, 0, (1, 1), False, 5) == MhsSeries.zero()
        assert block_sum(2, 0, (-2,), False, 5) == MhsSeries.constant(4)


class TestTopSum:
    """poly_sum with a monomial bound b*p^r, summed block by block."""

    @pytest.mark.parametrize(
        "b,r,exps,restricted",
        [
            (1, 1, (1,), False),
            (2, 1, (2, 1), False),
            (3, 1, (1,), True),
            (2, 1, (1, 1), True),
            (1, 2, (1,), True),
            (2, 2, (1,), False),
        ],
    )
    def test_against_direct_summation(self, b, r, exps, restricted):
        order = 5
        series = poly_sum((0,) * r + (b,), exps, restricted, order)
        assert_series_matches(
            series,
            lambda p: eval_power_sum(
                b * p**r, 0, exps, restricted_at=p if restricted else None
            ),
            (11, 13),
        )

    def test_empty_exps_is_one(self):
        assert poly_sum((0, 0, 0, 5), (), True, 4) == MhsSeries.constant(1)

    def test_zero_blocks(self):
        assert poly_sum((0, 0), (1,), False, 4) == MhsSeries.zero()


class TestPolySum:
    def test_reproduces_plain_mhs(self):
        # upper bound p - 1: the sum is H_{p-1}(s) itself
        series = poly_sum((-1, 1), (2, 1), False, 7)
        assert_series_matches(
            series, lambda p: eval_mhs(p - 1, (2, 1)), primes_in(11, 31)
        )

    def test_restricted_full_window_equals_plain(self):
        # upper bound p, restricted: n = p is dropped, so again H_{p-1}(s)
        series = poly_sum((0, 1), (1, 1), True, 6)
        assert_series_matches(series, lambda p: eval_mhs(p - 1, (1, 1)), (11, 13, 17))

    def test_sum_to_p_keeps_endpoint(self):
        # upper bound p inclusive: the n_1 = p chain contributes p^-2 * H(1)
        series = poly_sum((0, 1), (2, 1), False, 6)
        assert series.min_valuation() == -2
        assert_series_matches(
            series, lambda p: eval_power_sum(p, 0, (2, 1)), primes_in(11, 61)
        )

    def test_restricted_square_window(self):
        series = poly_sum((0, 0, 1), (1,), True, 6)
        assert series.min_valuation() >= 0
        assert_series_matches(
            series,
            lambda p: eval_power_sum(p**2, 0, (1,), restricted_at=p),
            primes_in(11, 31),
        )

    def test_minus_remainder_case(self):
        series = poly_sum((-1, 0, 1), (2, 1), False, 6)
        assert_series_matches(
            series, lambda p: eval_power_sum(p**2 - 1, 0, (2, 1)), (11, 13)
        )

    def test_plus_remainder_case(self):
        series = poly_sum((0, 1, 1), (1,), False, 5)
        assert_series_matches(
            series, lambda p: eval_power_sum(p**2 + p, 0, (1,)), (11, 13, 17)
        )

    def test_plus_constant_remainder(self):
        series = poly_sum((1, 2), (1, 1), False, 5)
        assert_series_matches(
            series, lambda p: eval_power_sum(2 * p + 1, 0, (1, 1)), (11, 13, 17)
        )

    def test_minus_with_negative_exponent(self):
        series = poly_sum((-2, 1), (-1, 1), False, 5)
        assert_series_matches(
            series, lambda p: eval_power_sum(p - 2, 0, (-1, 1)), (11, 13)
        )

    def test_constant_bound_is_exact(self):
        series = poly_sum((4,), (1,), False, 9)
        assert series == MhsSeries.constant(F(25, 12))
        assert poly_sum((0,), (1,), False, 5) == MhsSeries.zero()

    def test_empty_exps_is_one(self):
        assert poly_sum((0, 0, 1), (), True, 5) == MhsSeries.constant(1)


class TestFullSum:
    def test_strip_between_p_and_p_squared(self):
        series = full_sum((0, 0, 1), (0, 1), (1,), False, 4)
        # the endpoint n = p^2 contributes 1/p^2: the sharp lower valuation
        # is governed by the degree of the *upper* bound polynomial
        assert series.min_valuation() == -2
        assert_series_matches(
            series, lambda p: eval_power_sum(p**2, p, (1,)), (11, 13, 17)
        )

    def test_strip_depth_two(self):
        series = full_sum((0, 0, 1), (0, 1), (2, 1), False, 4)
        assert_series_matches(
            series, lambda p: eval_power_sum(p**2, p, (2, 1)), (11, 13)
        )

    def test_restricted_strip(self):
        series = full_sum((0, 0, 1), (0, 1), (1, 1), True, 5)
        assert series.min_valuation() >= 0
        assert_series_matches(
            series,
            lambda p: eval_power_sum(p**2, p, (1, 1), restricted_at=p),
            (11, 13),
        )

    def test_zero_lower_bound_delegates(self):
        assert full_sum((0, 1), (), (1,), False, 5) == poly_sum((0, 1), (1,), False, 5)

    def test_eventually_empty_interval(self):
        assert full_sum((0, 1), (0, 1), (1,), False, 5) == MhsSeries.zero()
        assert full_sum((0, 1), (0, 2), (1,), False, 5) == MhsSeries.zero()
        assert full_sum((5,), (7,), (1,), False, 5) == MhsSeries.zero()

    def test_empty_exps_is_one(self):
        assert full_sum((0, 1), (0, 1), (), False, 5) == MhsSeries.constant(1)

    def test_constant_bounds(self):
        series = full_sum((9,), (4,), (1,), False, 5)
        assert series == MhsSeries.constant(F(1, 5) + F(1, 6) + F(1, 7) + F(1, 8) + F(1, 9))


def test_positive_exponent_sum():
    assert positive_exponent_sum((2, -1, 0, 3)) == 5
    assert positive_exponent_sum(()) == 0


def test_power_sum_poly_values():
    from padicmhs.arith import eval_poly, power_sum_poly

    for p in primes_in(2, 50):
        for m in range(0, 13):
            direct = sum(F(a) ** m for a in range(p))
            assert eval_poly(power_sum_poly(m), p) == direct


# ---------------------------------------------------------------------------
# the order-free memo
# ---------------------------------------------------------------------------


def term_digest(series):
    """First 16 hex digits of the SHA-256 of the sorted raw term map and order."""
    data = repr((sorted((b, s, str(c)) for (b, s), c in series.terms.items()), series.order))
    return hashlib.sha256(data.encode()).hexdigest()[:16]


# raw term maps computed with one memo entry per (sum, order)
PINNED_DIGESTS = [
    (full_sum, ((-1, 0, 1), (), (2, 1), False, 11), "c3e1327fd96b8759"),
    (full_sum, ((-1, 0, 0, 1), (), (1, 2), False, 7), "21e24b83d61cfb26"),
    (full_sum, ((0, 1, 2), (0, 1), (2, 1), False, 6), "4c593a665124212c"),
    (full_sum, ((0, 0, 1), (), (1, 1, 1), True, 6), "10b9e721ad38873a"),
    (full_sum, ((-1, 0, 1), (), (1, -1, 2), False, 6), "01f0fb862f7fd0e6"),
    (block_sum, (2, 2, (1, 2), False, 6), "74269570354bec6f"),
    (poly_sum, ((0, 0, 3), (2, 1, 1), True, 5), "0e21d512a0946a08"),
    (_expand_curious_general, (3, 4, 5), "07ca0a1f6798bfd6"),
]


class TestOrderMemo:
    """Each sum is kept at the highest order computed and truncated on demand."""

    @pytest.mark.parametrize("direction", ["listed", "reversed"])
    def test_pinned_term_maps(self, direction):
        cases = PINNED_DIGESTS if direction == "listed" else PINNED_DIGESTS[::-1]
        padicmhs.clear_caches()
        for fn, args, digest in cases:
            assert term_digest(fn(*args)) == digest, f"{fn.__name__}{args}"

    @pytest.mark.parametrize(
        "fn,args",
        [
            (block_sum, (2, 2, (1, 2), False)),
            (block_sum, (1, 3, (1, 1), False)),
            (poly_sum, ((0, 0, 2), (2, 1), True)),
            (poly_sum, ((-1, 0, 1), (2, 1), False)),
            (poly_sum, ((1, 0, 1), (1, 2), False)),
            (full_sum, ((0, 1, 2), (0, 1), (2, 1), False)),
        ],
    )
    def test_fresh_equals_truncated_higher_order(self, fn, args):
        for order in (3, 4):
            padicmhs.clear_caches()
            fresh = fn(*args, order)
            padicmhs.clear_caches()
            higher = fn(*args, order + 2)
            assert higher.truncate(order) == fresh
            assert fn(*args, order) == fresh  # served from the memo

    def test_exact_result_stays_exact_at_every_order(self):
        padicmhs.clear_caches()
        at_six = full_sum((7,), (2,), (1, -1, 2), False, 6)
        assert at_six.order is None
        for order in (4, 6, 8):
            assert full_sum((7,), (2,), (1, -1, 2), False, order) == at_six


# raw term maps as the Fraction-accumulating expansion layer built them; the
# int-numerator accumulation of products, profiles and j-parts keeps them
INTEGER_ACCUMULATION_DIGESTS = [
    (_expand_curious_general, (2, 3, 6), "a31c5eceaba7fe1e"),
    (_expand_curious_general, (2, 4, 4), "824ef4d8a55d0aa4"),
    (_expand_curious_general, (2, 4, 5), "757dcc58fef10bfe"),
    (_expand_curious_general, (3, 3, 6), "cc02c2f20cd8d9d0"),
    (signed_mhs, ((2, -1, 3),), "9dd828a1917801aa"),
    (signed_mhs, ((1, 0, 2),), "97c7a36f1cd3d1f2"),
    (signed_mhs, ((-2, 3),), "3876c4034d07b1ed"),
    (signed_mhs, ((3, -2, -1, 2),), "835d82b6f5cdc654"),
    # one nonpositive exponent at each boundary: alone, first, last, interior
    (signed_mhs, ((0,),), "06d303a64bd95a6d"),
    (signed_mhs, ((-2,),), "6f148f922edd7ebe"),
    (signed_mhs, ((2, -1),), "85d797c7dc1d8dce"),
    (signed_mhs, ((1, 2, 0),), "62b9beff8d3e4fee"),
    (signed_mhs, ((-1, -1),), "a5c95333107ca957"),
    (signed_mhs, ((0, 3, -2),), "20dda124fdc13fbc"),
]


@pytest.mark.parametrize("fn,args,digest", INTEGER_ACCUMULATION_DIGESTS)
def test_integer_accumulation_keeps_raw_term_maps(fn, args, digest):
    padicmhs.clear_caches()
    assert term_digest(fn(*args)) == digest


class TestSplitOrderFloor:
    """Each factor of a chain split is computed at no less than its valuation floor.

    Below its floor a factor is zero; stamped with a lower order it once
    understated the order of the product, which then could not be truncated
    to the order asked for, depending on what the memo held.
    """

    PSUM = ((0, -1, 1), (), (1, -2), False)  # psum(p^2-p;0;1,-2)

    def test_minus_remainder_from_an_empty_memo(self):
        padicmhs.clear_caches()
        series = full_sum(*self.PSUM, 3)
        assert series.render() == "1/36 * p - 1/9 * p^2 + O(p^3)"
        assert term_digest(series) == "7f11d5c5ac0b2dd0"
        spec = quantity("psum(p^2-p;0;1,-2)")
        report = check_expansion(spec, series, PrimeWindow(11, 29))
        assert report.passed, report.render()

    def test_fresh_equals_served_after_a_higher_order(self):
        padicmhs.clear_caches()
        fresh = full_sum(*self.PSUM, 3)
        padicmhs.clear_caches()
        assert full_sum(*self.PSUM, 8).truncate(3) == fresh
        assert full_sum(*self.PSUM, 3) == fresh

    def test_grid_never_raises_and_fresh_equals_warm(self):
        # p^2-p, p^2-p+1, 2p-1, p-1 and p^2-1 over (0, f] and (p-1, f]; 74 of
        # these 360 calls used to raise, from an empty memo or a filled one
        uppers = [(0, -1, 1), (1, -1, 1), (-1, 2), (-1, 1), (-1, 0, 1)]
        lowers = [(), (-1, 1)]
        cases = [
            (f, g, exps, restricted, order)
            for f in uppers
            for g in lowers
            for exps in [(1, -2), (0, 1), (2, 1)]
            for restricted in (False, True)
            for order in range(-2, 4)
        ]
        fresh = []
        for case in cases:
            padicmhs.clear_caches()
            fresh.append(full_sum(*case))
        padicmhs.clear_caches()
        warm = [full_sum(*case) for case in cases]
        assert warm == fresh


class TestElimination:
    """Unrestricted block and polynomial-bound sums with a nonpositive
    exponent are summed out exactly (``_eliminate``), not geometrically."""

    @staticmethod
    def cases(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            exps = tuple(rng.randint(-2, 3) for _ in range(rng.randint(1, 3)))
            if min(exps) > 0:
                exps = exps[:-1] + (rng.randint(-2, 0),)
            yield exps, rng.randint(1, 6)

    def test_block_sum_equals_the_geometric_expansion(self):
        padicmhs.clear_caches()
        for i, (exps, order) in enumerate(self.cases(25, 60)):
            b, r = 1 + i % 3, 1 + i // 3 % 2
            assert block_sum(b, r, exps, False, order) == powersums._block_sum(
                b, r, exps, False, order
            ), (b, r, exps, order)

    def test_poly_sum_equals_the_geometric_expansion(self):
        padicmhs.clear_caches()
        bounds = [(0, 1), (-1, 1), (0, 2), (0, 0, 1), (0, -1, 1), (1, 0, 1), (0, 0, 3)]
        for i, (exps, order) in enumerate(self.cases(26, 60)):
            f = bounds[i % len(bounds)]
            assert poly_sum(f, exps, False, order) == powersums._poly_sum(
                f, exps, False, order
            ), (f, exps, order)

    def test_curious_expansion_expands_no_nonpositive_exponent(self, monkeypatch):
        calls = []
        for name in ("_block_sum", "_poly_sum"):
            real = getattr(powersums, name)
            monkeypatch.setattr(
                powersums,
                name,
                lambda *a, real=real: calls.append((a[-3], a[-2])) or real(*a),
            )
        padicmhs.clear_caches()
        _expand_curious_general(3, 3, 6)
        padicmhs.clear_caches()
        assert calls
        assert [c for c in calls if not c[1] and min(c[0]) <= 0] == []


def memo_table_sizes():
    """Entry counts of every in-process memo table of the package."""
    lru_tables = {
        "powersums.signed_mhs": powersums.signed_mhs,
        "powersums._chain_product": powersums._chain_product,
        "powersums._ghat_at": powersums._ghat_at,
        "compositions._shuffle_cached": compositions._shuffle_cached,
        "compositions._stuffle_cached": compositions._stuffle_cached,
        "certificate._jarossay_identity": certificate._jarossay_identity,
        "certificate._jarossay_tail": certificate._jarossay_tail,
        "oracle.eval_mhs": oracle.eval_mhs,
        "oracle._lcm_steps": oracle._lcm_steps,
    }
    sizes = {name: fn.cache_info().currsize for name, fn in lru_tables.items()}
    sizes["powersums._memo"] = len(powersums._memo)
    sizes["arith._power_sum_memo"] = len(arith._power_sum_memo)
    sizes["arith._bernoulli_memo"] = len(arith._bernoulli_memo) - 1  # B_0 is its seed
    sizes["prover._PROCESS_BASIS"] = int(prover._PROCESS_BASIS is not None)
    sizes["prover._PROCESS_BASIS._prefixes"] = len(getattr(prover._PROCESS_BASIS, "_prefixes", ()))
    return sizes


def test_clear_caches_empties_every_table(tmp_path):
    spec = QuantitySpec("curious", (3, 3))
    series = expand_quantity(spec, 5, cache_dir=tmp_path)
    eval_series_terms(series, 13)
    oracle.eval_quantity(spec, 13)
    assert all(memo_table_sizes().values()), memo_table_sizes()
    padicmhs.clear_caches()
    assert not any(memo_table_sizes().values()), memo_table_sizes()
    assert arith._bernoulli_memo == {0: F(1)}
    assert expand_quantity(spec, 5, cache_dir=tmp_path) == series
