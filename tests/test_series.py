"""Tests for the MHS-series algebra: arithmetic, truncation, inversion,
congruence statements, and weighted decomposition."""

import random
from fractions import Fraction

import pytest

from padicmhs.arith import INFINITY
from padicmhs.compositions import stuffle, weight
from padicmhs.series import (
    CongruenceStatement,
    MhsSeries,
    decompose_weighted,
)

F = Fraction


def S(terms, order=None):
    return MhsSeries(terms, order)


# ---------------------------------------------------------------------------
# construction / normalization
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        a = S({(1, (1,)): 0, (2, (2,)): 3}, 5)
        assert a.terms == {(2, (2,)): F(3)}

    def test_terms_at_or_beyond_order_absorbed(self):
        a = S({(2, (1,)): 1, (3, (1,)): 7, (5, ()): 2}, 3)
        assert a.terms == {(2, (1,)): F(1)}
        assert a.order == 3

    def test_duplicate_keys_accumulate(self):
        a = MhsSeries([((1, (1,)), 2), ((1, (1,)), 3), ((1, (2,)), 1)], 9)
        assert a.terms == {(1, (1,)): F(5), (1, (2,)): F(1)}

    def test_cancellation_to_zero(self):
        a = MhsSeries([((1, (1,)), 2), ((1, (1,)), -2)], 4)
        assert a.is_zero()
        assert a.order == 4

    def test_invalid_composition_rejected(self):
        with pytest.raises(ValueError):
            S({(1, (0,)): 1}, 3)
        with pytest.raises(ValueError):
            S({(1, "x"): 1}, 3)  # type: ignore[dict-item]
        with pytest.raises(ValueError):
            S({(1, (2, -1)): 1}, 3)
        with pytest.raises(ValueError):
            S({(0, (True,)): 1})  # would render as H(True)

    def test_invalid_exponent_rejected(self):
        with pytest.raises(TypeError):
            S({(F(1, 2), ()): 1}, 3)  # type: ignore[dict-item]
        with pytest.raises(TypeError):
            S({(True, (1,)): 1}, 3)  # would keep the key (True, (1,))

    def test_invalid_order_rejected(self):
        with pytest.raises(TypeError):
            S({}, F(3, 2))  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            S({(0, (1,)): 1}, True)  # would render as O(p^True)

    def test_constructors(self):
        assert MhsSeries.constant(F(2, 3), 5).terms == {(0, ()): F(2, 3)}
        assert MhsSeries.term(4, 2, (3, 1)).terms == {(2, (3, 1)): F(4)}
        assert MhsSeries.term(1, -2, (), None).terms == {(-2, ()): F(1)}
        assert MhsSeries.zero(7).is_zero()

    def test_negative_exponents_admitted(self):
        a = S({(-1, (1, 1)): F(1, 2)}, 2)
        assert a.terms == {(-1, (1, 1)): F(1, 2)}
        assert a.min_valuation() == -1

    def test_terms_property_returns_copy(self):
        a = S({(1, (1,)): 1}, 3)
        a.terms[(9, ())] = F(1)
        assert a.terms == {(1, (1,)): F(1)}


# ---------------------------------------------------------------------------
# addition
# ---------------------------------------------------------------------------


class TestAdd:
    def test_add_zero_identity(self):
        a = S({(1, (2, 1)): F(1, 3)}, 6)
        assert a + MhsSeries.zero() == a

    def test_exact_cancellation_weaker_order_wins(self):
        a = S({(1, (1,)): 1}, 3)
        b = S({(1, (1,)): -1}, 4)
        out = a + b
        assert out.is_zero()
        assert out.order == 3

    def test_order_min_rule(self):
        a = S({(0, ()): 2}, 5)
        b = S({(2, (2,)): 3}, 4)
        out = a + b
        assert out.terms == {(0, ()): F(2), (2, (2,)): F(3)}
        assert out.order == 4

    def test_exact_plus_truncated(self):
        a = MhsSeries.constant(1)  # exact
        b = S({(1, (1,)): 1}, 3)
        assert (a + b).order == 3

    def test_sub_and_neg(self):
        a = S({(1, (1,)): 2}, 5)
        assert (a - a).is_zero()
        assert (-a).terms == {(1, (1,)): F(-2)}
        assert (-a).order == 5


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


class TestMul:
    def test_stuffle_square_exact(self):
        a = MhsSeries.term(1, 1, (1,))
        out = a * a
        assert out.order is None
        assert out.terms == {(2, (1, 1)): F(2), (2, (2,)): F(1)}

    def test_mul_by_one(self):
        a = S({(1, (2,)): F(5, 7), (0, ()): 3}, 6)
        assert a * MhsSeries.constant(1) == a

    def test_order_bookkeeping(self):
        a = S({(1, (2,)): 1}, 3)
        b = S({(1, (3,)): 1}, 3)
        out = a * b
        assert out.terms == {
            (2, (2, 3)): F(1),
            (2, (3, 2)): F(1),
            (2, (5,)): F(1),
        }
        assert out.order == 4  # min(3+1, 3+1, 3+3)

    def test_order_uses_series_min_valuation(self):
        a = S({(-1, (1,)): 1}, 3)  # min valuation -1
        b = S({(2, ()): 1}, 5)
        assert (a * b).order == 4  # min(3+2, 5-1, 3+5)

    def test_exact_zero_annihilates(self):
        a = S({(1, (1,)): 1}, 3)
        out = a * MhsSeries.zero()
        assert out.is_zero() and out.order is None

    def test_zero_with_order_keeps_tail(self):
        a = S({(0, ()): 1}, 3)
        out = a * MhsSeries.zero(4)
        assert out.is_zero()
        assert out.order == 4  # O(p^4) * (1 + O(p^3)) = O(p^4)

    def test_scalar_multiplication(self):
        a = S({(1, (1,)): 1}, 3)
        assert (3 * a).terms == {(1, (1,)): F(3)}
        assert (a * F(1, 2)).terms == {(1, (1,)): F(1, 2)}
        assert (a * 0).is_zero()

    def test_mul_term(self):
        a = S({(1, (1,)): 1, (0, ()): 2}, 4)
        out = a * MhsSeries.term(3, 1, (1,))
        assert out.terms == {
            (2, (1, 1)): F(6),
            (2, (2,)): F(3),
            (1, (1,)): F(6),
        }
        assert out.order == 5  # O(p^4) tail times an exact term of valuation 1 see below

    def test_mul_term_order_rule(self):
        # multiplying by an exact term of valuation v shifts the tail by v
        a = S({(0, ()): 1}, 4)
        assert (a * MhsSeries.term(1, 2, ())).order == 6
        assert (a * MhsSeries.term(1, 0, (1,))).order == 4

    def test_pow(self):
        a = S({(0, ()): 1, (1, (1,)): 1}, 4)
        assert a**2 == a * a
        assert a**3 == a * a * a
        assert (a**0) == MhsSeries.constant(1)
        assert a**1 == a
        with pytest.raises(ValueError):
            a ** (-1)

    def test_ring_laws_sampled(self):
        samples = [
            MhsSeries.constant(2),
            S({(0, ()): 1, (1, (1,)): F(1, 2)}, 4),
            S({(1, (2,)): -1, (2, (1, 1)): 3}, 5),
            S({(-1, (1,)): 1}, 2),
            MhsSeries.zero(3),
        ]
        for a in samples:
            for b in samples:
                assert a + b == b + a
                assert a * b == b * a
                for c in samples:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    # distributivity compares terms; orders may differ between
                    # (a+b)*c and a*c + b*c only when cancellation in a+b hides
                    # valuation, so compare at the weaker common order
                    lhs = (a + b) * c
                    rhs = a * c + b * c
                    if lhs.order is None and rhs.order is None:
                        assert lhs == rhs
                    else:
                        n = min(
                            x for x in (lhs.order, rhs.order) if x is not None
                        )
                        assert lhs.truncate(n) == rhs.truncate(n)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


class TestInvertUnit:
    def test_invert_one(self):
        assert MhsSeries.constant(1).invert_unit() == MhsSeries.constant(1)

    def test_invert_rational_constant(self):
        out = S({(0, ()): 2}, 4).invert_unit()
        assert out.terms == {(0, ()): F(1, 2)}
        assert out.order == 4

    def test_invert_geometric_example(self):
        a = S({(0, ()): 1, (1, (1,)): 1}, 3)
        out = a.invert_unit()
        assert out.terms == {
            (0, ()): F(1),
            (1, (1,)): F(-1),
            (2, (1, 1)): F(2),
            (2, (2,)): F(1),
        }
        assert out.order == 3

    def test_invert_with_leading_constant(self):
        a = S({(0, ()): 3, (1, (1,)): 1}, 3)
        out = a.invert_unit()
        # 1/3 * (1 - u + u^2 - ...) with u = (1/3) p H(1)
        assert out.terms == {
            (0, ()): F(1, 3),
            (1, (1,)): F(-1, 9),
            (2, (1, 1)): F(2, 27),
            (2, (2,)): F(1, 27),
        }

    def test_multiply_back_gives_one(self):
        samples = [
            S({(0, ()): 1, (1, (1,)): 1}, 3),
            S({(0, ()): F(2, 3), (1, (1,)): -1, (2, (3,)): F(5, 7)}, 5),
            S({(0, ()): -4, (3, (1, 1)): 9}, 6),
        ]
        for a in samples:
            prod = a * a.invert_unit()
            assert prod.truncate(a.order) == MhsSeries.constant(1, a.order)

    def test_rejects_zero_constant(self):
        with pytest.raises(ValueError):
            S({(1, (1,)): 1}, 3).invert_unit()

    def test_rejects_nonpositive_exponent_unit_part(self):
        with pytest.raises(ValueError):
            S({(0, ()): 1, (0, (1,)): 1}, 3).invert_unit()
        with pytest.raises(ValueError):
            S({(0, ()): 1, (-1, (1,)): 1}, 3).invert_unit()

    def test_exact_constant_inverts_exactly(self):
        out = MhsSeries.constant(F(3, 4)).invert_unit()
        assert out == MhsSeries.constant(F(4, 3))

    def test_exact_with_unit_part_rejected(self):
        with pytest.raises(ValueError):
            S({(0, ()): 1, (1, (1,)): 1}).invert_unit()


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


class TestTruncate:
    def test_drop_high_terms(self):
        a = S({(0, ()): 2, (1, (1,)): 1, (2, (1, 1)): 1}, 5)
        out = a.truncate(2)
        assert out.terms == {(0, ()): F(2), (1, (1,)): F(1)}
        assert out.order == 2

    def test_truncate_at_own_order_is_identity(self):
        a = S({(1, (1,)): 1}, 4)
        assert a.truncate(4) == a

    def test_geometric_binomial_shape(self):
        # 2 * sum_n p^n H(1^n) truncated at 3
        full = S(
            {(0, ()): 2, (1, (1,)): 2, (2, (1, 1)): 2, (3, (1, 1, 1)): 2, (4, (1, 1, 1, 1)): 2},
            5,
        )
        out = full.truncate(3)
        assert out.terms == {(0, ()): F(2), (1, (1,)): F(2), (2, (1, 1)): F(2)}
        assert out.order == 3

    def test_cannot_strengthen(self):
        a = S({(1, (1,)): 1}, 3)
        with pytest.raises(ValueError):
            a.truncate(4)

    def test_exact_truncates_to_any_order(self):
        a = MhsSeries.constant(5)
        out = a.truncate(2)
        assert out.terms == {(0, ()): F(5)}
        assert out.order == 2
        assert a.truncate(-1).is_zero()


# ---------------------------------------------------------------------------
# valuation bounds and predicates
# ---------------------------------------------------------------------------


def _offsets(series):
    """The offsets weight(s) - b of the terms, read off the public term map."""
    return {weight(s) - b for b, s in series.terms}


class TestValuation:
    def test_min_valuation_terms_and_order(self):
        assert S({(2, (1,)): 1}, 5).min_valuation() == 2
        assert S({(2, (1,)): 1}, 1).min_valuation() == 1
        assert S({(-3, (1,)): 1}, 5).min_valuation() == -3

    def test_min_valuation_zero_series(self):
        assert MhsSeries.zero(4).min_valuation() == 4
        assert MhsSeries.zero().min_valuation() is INFINITY

    def test_is_weighted(self):
        # weighted: every term's p-exponent equals the weight of its composition
        assert _offsets(S({(2, (1, 1)): 1, (1, (1,)): 2}, 4)) == {0}
        assert _offsets(S({(1, (1, 1)): 1}, 4)) == {1}

    def test_is_weighted_constant(self):
        # a constant is c * p^0 * H(()) with weight 0, so it is weighted
        assert _offsets(MhsSeries.constant(3)) == {0}
        assert _offsets(MhsSeries.term(1, 1, (), None)) == {-1}

    def test_is_exact(self):
        assert MhsSeries.constant(1).order is None
        assert MhsSeries.constant(1, 5).order is not None


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


class TestRender:
    def test_exact_monomial(self):
        assert MhsSeries.term(1, 2, ()).render() == "p^2"

    def test_exact_rational_expansion_style(self):
        a = S({(0, ()): F(-1, 3), (1, ()): F(2, 3)})
        assert a.render() == "-1/3 + 2/3 * p"

    def test_zero_forms(self):
        assert MhsSeries.zero().render() == "0"
        assert MhsSeries.zero(3).render() == "O(p^3)"

    def test_full_series(self):
        a = S({(0, ()): 2, (1, (1,)): 2, (2, (1, 1)): 2}, 3)
        assert a.render() == "2 + 2 * p * H(1) + 2 * p^2 * H(1,1) + O(p^3)"

    def test_sign_folding(self):
        a = S({(0, ()): 1, (1, (1,)): -1, (2, (2,)): F(-1, 3)}, 4)
        assert a.render() == "1 - p * H(1) - 1/3 * p^2 * H(2) + O(p^4)"

    def test_leading_negative(self):
        a = S({(2, (2, 1)): -2, (4, (4, 1)): 2}, 5)
        assert a.render() == "-2 * p^2 * H(2,1) + 2 * p^4 * H(4,1) + O(p^5)"

    def test_unit_coefficient_omitted(self):
        assert MhsSeries.term(1, 0, (3,)).render() == "H(3)"
        assert MhsSeries.term(-1, 1, (1,), 3).render() == "-p * H(1) + O(p^3)"

    def test_negative_exponent(self):
        assert MhsSeries.term(2, -1, (1, 1)).render() == "2 * p^-1 * H(1,1)"

    def test_canonical_ordering_same_exponent(self):
        # weight ascending, then lexicographic within a weight
        a = S({(2, (2,)): 1, (2, (1, 1)): 2, (1, (1,)): -1, (0, ()): 1}, 3)
        assert a.render() == "1 - p * H(1) + 2 * p^2 * H(1,1) + p^2 * H(2) + O(p^3)"

    def test_canonical_ordering_weight_five(self):
        a = S({(2, (5,)): 1, (2, (3, 2)): 1, (2, (2, 3)): 1}, 4)
        assert (
            a.render()
            == "p^2 * H(2,3) + p^2 * H(3,2) + p^2 * H(5) + O(p^4)"
        )


# ---------------------------------------------------------------------------
# congruence statements
# ---------------------------------------------------------------------------


def weighted_series(coeffs, order):
    """Build sum c * p^{|s|} H(s) from {comp: coeff}."""
    from padicmhs.compositions import weight as w

    return S({(w(s), s): c for s, c in coeffs.items()}, order)


class TestCongruenceStatement:
    def test_weighted_kind(self):
        stmt = CongruenceStatement(
            weighted_series({(1,): 1, (1, 1): 1}, 3), 3
        )
        assert stmt.kind == "weighted"

    def test_mixed_kind(self):
        # offsets 0 and 1 (a term with b < |s|)
        a = S({(0, (1,)): 3, (1, (1,)): -2, (2, (2, 1)): F(1, 3)}, 4)
        assert CongruenceStatement(a, 4).kind == "mixed"

    def test_general_kind(self):
        # a term with b > |s| (negative offset), e.g. a constant times p
        a = S({(1, ()): 1, (1, (1,)): 1}, 3)
        assert CongruenceStatement(a, 3).kind == "general"

    def test_empty_statement_accepted(self):
        stmt = CongruenceStatement(MhsSeries.zero(5), 5)
        assert stmt.kind == "weighted"

    def test_modulus_beyond_order_rejected(self):
        with pytest.raises(ValueError):
            CongruenceStatement(S({(1, (1,)): 1}, 3), 4)

    def test_bool_modulus_rejected(self):
        # a bool modulus would print as "modulus True" in a certificate
        with pytest.raises(TypeError):
            CongruenceStatement(MhsSeries.term(1, 1, (1,)), True)

    def test_exact_series_any_modulus(self):
        stmt = CongruenceStatement(MhsSeries.term(1, 1, (1,)), 9)
        assert stmt.modulus_power == 9

    def test_negative_modulus_allowed(self):
        stmt = CongruenceStatement(MhsSeries.zero(0), -1)
        assert stmt.kind == "weighted"


class TestDecomposeWeighted:
    def test_weighted_input_single_group(self):
        stmt = CongruenceStatement(weighted_series({(1, 1): 1}, 3), 3)
        out = decompose_weighted(stmt)
        assert set(out) == {0}
        assert out[0].lhs_minus_rhs == stmt.lhs_minus_rhs
        assert out[0].modulus_power == 3

    def test_mixed_two_offsets(self):
        # offset-1 part 3h(1)+h(2)+2h(1,1)+(1/3)h(2,1) mod p^5 and
        # offset-0 part -2h(1)-(2/3)h(2,1) mod p^4
        a = S(
            {
                (0, (1,)): 3,
                (1, (2,)): 1,
                (1, (1, 1)): 2,
                (2, (2, 1)): F(1, 3),
                (1, (1,)): -2,
                (3, (2, 1)): F(-2, 3),
            },
            4,
        )
        out = decompose_weighted(CongruenceStatement(a, 4))
        assert set(out) == {0, 1}
        assert out[0].modulus_power == 4
        assert out[0].lhs_minus_rhs.terms == {
            (1, (1,)): F(-2),
            (3, (2, 1)): F(-2, 3),
        }
        assert out[1].modulus_power == 5
        assert out[1].lhs_minus_rhs.terms == {
            (1, (1,)): F(3),
            (2, (2,)): F(1),
            (2, (1, 1)): F(2),
            (3, (2, 1)): F(1, 3),
        }
        assert all(st.kind == "weighted" for st in out.values())

    def test_general_negative_offsets(self):
        # weighted parts mod p^6 (k=0), p^5 (k=-1), p^4 (k=-2)
        a = S(
            {
                # k = 0
                (1, (1,)): 1,
                (2, (2,)): F(1, 2),
                (3, (3,)): F(1, 6),
                (5, (5,)): F(-1, 30),
                # k = -1
                (2, (1,)): -1,
                (3, (2,)): F(-1, 2),
                (4, (3,)): F(-1, 2),
                (5, (4,)): F(-1, 4),
                # k = -2
                (5, (3,)): F(1, 3),
            },
            6,
        )
        out = decompose_weighted(CongruenceStatement(a, 6))
        assert set(out) == {-2, -1, 0}
        assert out[0].modulus_power == 6
        assert out[-1].modulus_power == 5
        assert out[-2].modulus_power == 4
        assert out[-1].lhs_minus_rhs.terms == {
            (1, (1,)): F(-1),
            (2, (2,)): F(-1, 2),
            (3, (3,)): F(-1, 2),
            (4, (4,)): F(-1, 4),
        }
        assert out[-2].lhs_minus_rhs.terms == {(3, (3,)): F(1, 3)}

    def test_constant_terms_land_at_negative_b_offset(self):
        # constant c at p^0 has offset 0; c*p has offset -1
        a = S({(0, ()): F(-4, 9), (1, ()): F(79, 108)}, 3)
        out = decompose_weighted(CongruenceStatement(a, 3))
        assert set(out) == {-1, 0}
        assert out[0].lhs_minus_rhs.terms == {(0, ()): F(-4, 9)}
        assert out[-1].lhs_minus_rhs.terms == {(0, ()): F(79, 108)}
        assert out[-1].modulus_power == 2

    def test_reassembly_invariant(self):
        a = S(
            {
                (0, (1,)): 3,
                (1, (1,)): -2,
                (2, (2, 1)): F(1, 3),
                (1, ()): 5,
                (4, (1, 1)): F(7, 2),
            },
            5,
        )
        stmt = CongruenceStatement(a, 5)
        out = decompose_weighted(stmt)
        total = MhsSeries.zero()
        for k, sub in out.items():
            total = total + sub.lhs_minus_rhs.shift(-k)
        assert total.terms == a.terms

    def test_empty_statement(self):
        assert decompose_weighted(CongruenceStatement(MhsSeries.zero(4), 4)) == {}

    def test_high_weight_terms_survive_decomposition(self):
        # a term whose weight reaches the sub-statement modulus must not
        # be silently absorbed (the sub-series order exceeds it)
        a = S({(7, (7,)): 1, (1, (1,)): 1}, 8)
        out = decompose_weighted(CongruenceStatement(a, 6))
        assert out[0].lhs_minus_rhs.terms == {(7, (7,)): F(1), (1, (1,)): F(1)}


# ---------------------------------------------------------------------------
# equality / hashing
# ---------------------------------------------------------------------------


class TestEquality:
    def test_eq_and_hash(self):
        a = S({(1, (1,)): 1}, 3)
        b = MhsSeries([((1, (1,)), F(1))], 3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != S({(1, (1,)): 1}, 4)
        assert a != S({(1, (1,)): 1})
        assert S({}, None) != S({}, 3)

    def test_statement_equality(self):
        a = CongruenceStatement(S({(1, (1,)): 1}, 3), 3)
        b = CongruenceStatement(S({(1, (1,)): 1}, 3), 3)
        assert a == b and hash(a) == hash(b)


def test_series_mul_operator():
    a = S({(1, (1,)): 1}, 3)
    assert a * a == a * MhsSeries.term(1, 1, (1,))


# ---------------------------------------------------------------------------
# ring operations build results without re-validation: check they are normal
# ---------------------------------------------------------------------------


_COMPS = [(), (1,), (2,), (1, 1), (2, 1), (1, 2), (3,)]
_COEFFS = [F(1), F(-1), F(2), F(-3, 2), F(5, 7), F(1, 3)]


def _random_series(rng, order=None, min_exp=-2):
    terms = {
        (rng.randint(min_exp, 4), rng.choice(_COMPS)): rng.choice(_COEFFS)
        for _ in range(rng.randint(0, 4))
    }
    return S(terms, order)


def _random_pair(rng):
    orders = [None, -1, 0, 1, 2, 3, 4, 5, 6]
    a = _random_series(rng, rng.choice(orders))
    b = _random_series(rng, rng.choice(orders))
    if rng.random() < 0.5:
        # share some of a's terms with the opposite sign so that sums cancel
        shared = [(k, -c) for k, c in a.terms.items() if rng.random() < 0.7]
        b = S(list(b.terms.items()) + shared, b.order)
    return a, b


def _assert_normalized(r):
    assert r == MhsSeries(r.terms, r.order)
    for (b, _s), c in r.terms.items():
        assert type(c) is Fraction
        assert c != 0
        assert r.order is None or b < r.order


class TestTrustedResults:
    """Every ring operation returns what the validating constructor would build."""

    def test_random_operations_are_normalized(self):
        rng = random.Random(20261018)
        for _ in range(300):
            a, b = _random_pair(rng)
            known = [o for o in (a.order, b.order) if o is not None]
            order = min(known) if known else None
            a_items = list(a.terms.items())
            total = a + b
            _assert_normalized(total)
            assert total == S(a_items + list(b.terms.items()), order)
            diff = a - b
            _assert_normalized(diff)
            assert diff == S(a_items + [(k, -c) for k, c in b.terms.items()], order)
            _assert_normalized(-a)
            for c in (0, 1, F(-2, 3)):
                _assert_normalized(a.scale(c))
            _assert_normalized(a.shift(rng.randint(-2, 2)))
            prod = a * b
            _assert_normalized(prod)
            reference = [
                ((b1 + b2, s3), c1 * c2 * mult)
                for (b1, s1), c1 in a.terms.items()
                for (b2, s2), c2 in b.terms.items()
                for s3, mult in stuffle(s1, s2).items()
            ]
            assert prod == S(reference, prod.order)
            c = rng.choice(_COEFFS + [F(0)])
            _assert_normalized(a * MhsSeries.term(c, rng.randint(-1, 2), rng.choice(_COMPS)))
            top = 6 if a.order is None else a.order
            _assert_normalized(a.truncate(rng.randint(-2, top)))

    def test_random_inverses_are_normalized(self):
        rng = random.Random(20261019)
        for _ in range(200):
            order = rng.randint(1, 5)
            terms = _random_series(rng, order, min_exp=1).terms
            terms[(0, ())] = rng.choice(_COEFFS)
            unit = S(terms, order)
            inv = unit.invert_unit()
            _assert_normalized(inv)
            assert (unit * inv).truncate(order) == MhsSeries.constant(1, order)
        _assert_normalized(MhsSeries.constant(F(-3, 5)).invert_unit())

    def test_non_integer_exponents_rejected(self):
        a = S({(1, (1,)): 1})
        with pytest.raises(TypeError):
            a.shift(F(1, 2))
        with pytest.raises(TypeError):
            MhsSeries.term(1, 0.5, (1,))
        with pytest.raises(TypeError):
            a.truncate(2.5)
        for flag in (True, False):
            with pytest.raises(TypeError):
                a.shift(flag)
            with pytest.raises(TypeError):
                MhsSeries.term(1, flag, (1,))
            with pytest.raises(TypeError):
                a.truncate(flag)


# ---------------------------------------------------------------------------
# products on int numerators against a plain-Fraction reference
# ---------------------------------------------------------------------------


_MIXED_COEFFS = [F(1), F(-1), F(3), F(-3, 2), F(5, 7), F(1, 3), F(-7, 12), F(11, 30), F(13, 1024)]


def _reference_product(a_terms, b_terms, order):
    """Stuffle product with one Fraction multiply-add per term pair, zeros dropped."""
    acc = {}
    for (b1, s1), c1 in a_terms.items():
        for (b2, s2), c2 in b_terms.items():
            if order is None or b1 + b2 < order:
                for s, mult in stuffle(s1, s2).items():
                    key = (b1 + b2, s)
                    acc[key] = acc.get(key, F(0)) + c1 * c2 * mult
    return {key: c for key, c in acc.items() if c}


def _mixed_series(rng, order):
    terms = {
        (rng.randint(-3, 4), rng.choice(_COMPS)): rng.choice(_MIXED_COEFFS)
        for _ in range(rng.randint(0, 5))
    }
    return S(terms, order)


class TestIntegerProducts:
    """``__mul__`` sums int numerators; the term maps must not change."""

    def test_random_products_match_reference(self):
        rng = random.Random(20261020)
        orders = [None, None, -2, 0, 1, 3, 5]
        for _ in range(400):
            a = _mixed_series(rng, rng.choice(orders))
            b = _mixed_series(rng, rng.choice(orders))
            prod = a * b
            _assert_normalized(prod)
            assert prod.terms == _reference_product(a.terms, b.terms, prod.order)

    def test_random_mul_term_matches_reference(self):
        rng = random.Random(20261021)
        for _ in range(400):
            a = _mixed_series(rng, rng.choice([None, -1, 2, 4]))
            c = rng.choice(_MIXED_COEFFS + [F(0)])
            b, s = rng.randint(-2, 2), rng.choice(_COMPS)
            out = a * MhsSeries.term(c, b, s)
            _assert_normalized(out)
            # an exact zero factor makes the product exactly zero
            assert out.order == (None if a.order is None or not c else a.order + b)
            single = {(b, s): c} if c else {}
            assert out.terms == _reference_product(a.terms, single, out.order)

    def test_exact_times_truncated(self):
        a = S({(-2, (1,)): F(1, 3), (0, (2,)): F(-5, 7), (1, ()): F(7, 12)})
        b = S({(0, ()): F(2, 5), (1, (1, 1)): F(-1, 6)}, 2)
        prod = a * b
        assert prod.order == 0  # the O(p^2) tail meets the p^-2 term of a
        assert prod.terms == _reference_product(a.terms, b.terms, 0)
        assert prod.terms  # the p^-2 and p^-1 terms survive

    def test_zero_operands(self):
        a = S({(1, (2,)): F(3, 4), (-1, ()): F(-2, 9)}, 4)
        for zero in (MhsSeries.zero(), MhsSeries.zero(3)):
            for prod in (a * zero, zero * a):
                assert prod.is_zero()
                _assert_normalized(prod)
        assert (a * MhsSeries.term(0, 1, (1,))).terms == {}

    def test_cancelling_products_drop_their_keys(self):
        # (H(1) + H(2)) * (H(1) - H(2)) = H(1)^2 - H(2)^2: the cross terms
        # H(1,2), H(2,1) and H(3) cancel exactly and must be absent
        x = S({(0, (1,)): F(1, 3), (1, (2,)): F(2, 5)})
        y = S({(0, (1,)): F(1, 3), (1, (2,)): F(-2, 5)})
        prod = x * y
        assert prod.terms == {
            (0, (1, 1)): F(2, 9),
            (0, (2,)): F(1, 9),
            (2, (2, 2)): F(-8, 25),
            (2, (4,)): F(-4, 25),
        }
        assert prod.terms == _reference_product(x.terms, y.terms, None)
        # (H(1,1) - H(2)) * H(1) = 3 H(1,1,1) - H(3): H(2,1) and H(1,2) cancel
        h = S({(0, (1, 1)): F(1, 3), (0, (2,)): F(-1, 3)})
        out = h * MhsSeries.term(F(3, 4), 1, (1,))
        assert out.terms == {(1, (1, 1, 1)): F(3, 4), (1, (3,)): F(-1, 4)}
        assert out.terms == _reference_product(h.terms, {(1, (1,)): F(3, 4)}, None)
