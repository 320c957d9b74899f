"""Tests for the quantity-spec grammar: polynomials, ratios, atom parsing."""

from fractions import Fraction

import pytest

from padicmhs.arith import eval_poly
from padicmhs.expansions import expand_quantity
from padicmhs.oracle import eval_quantity
from padicmhs.quantities import (
    QUANTITY_NAMES,
    QuantitySpec,
    format_poly,
    format_quantity,
    parse_poly,
    parse_poly_ratio,
    parse_quantity,
)

F = Fraction


class TestParsePoly:
    def test_simple(self):
        assert parse_poly("p^2-1") == (F(-1), F(0), F(1))
        assert parse_poly("34") == (F(34),)
        assert parse_poly("p") == (F(0), F(1))
        assert parse_poly("2*p") == (F(0), F(2))
        assert parse_poly("-p^3+2*p") == (F(0), F(2), F(0), F(-1))

    def test_large(self):
        assert parse_poly("34*p^3-51*p^2+27*p-5") == (F(-5), F(27), F(-51), F(34))

    def test_rational_coefficients(self):
        assert parse_poly("1/2*p^2+p") == (F(0), F(1), F(1, 2))
        assert parse_poly("3/4") == (F(3, 4),)

    def test_integer_mode_rejects_rationals(self):
        with pytest.raises(ValueError):
            parse_poly("1/2*p", integer=True)
        assert parse_poly("2*p-1", integer=True) == (F(-1), F(2))

    def test_cancellation_and_zero(self):
        assert parse_poly("p-p") == ()
        assert parse_poly("0") == ()

    def test_whitespace(self):
        assert parse_poly(" p^2 - 1 ") == (F(-1), F(0), F(1))

    def test_repeated_terms_accumulate(self):
        assert parse_poly("p+p+1") == (F(1), F(2))

    def test_errors(self):
        for bad in ["", "p^-1", "p*", "*p", "p^", "q", "1+", "p^2^3"]:
            with pytest.raises(ValueError):
                parse_poly(bad)

    def test_implicit_product_leniency(self):
        # "2p" is accepted as 2*p
        assert parse_poly("2p") == (F(0), F(2))

    def test_eval_poly(self):
        f = parse_poly("p^2-1")
        assert eval_poly(f, 7) == 48
        assert eval_poly((), 5) == 0
        assert eval_poly(parse_poly("1/2*p^2+p"), 4) == 12


class TestPolyRatio:
    def test_plain_polynomial(self):
        num, den = parse_poly_ratio("p^2")
        assert num == (F(0), F(0), F(1))
        assert den == (F(1),)

    def test_paren_ratio(self):
        num, den = parse_poly_ratio("(2*p-1)/3")
        assert num == (F(-1), F(2))
        assert den == (F(3),)

    def test_one_over_poly(self):
        num, den = parse_poly_ratio("1/(1-p)")
        assert num == (F(1),)
        assert den == (F(1), F(-1))

    def test_both_parenthesized(self):
        num, den = parse_poly_ratio("(p^2-1)/(p+1)")
        assert num == (F(-1), F(0), F(1))
        assert den == (F(1), F(1))

    def test_multiple_slashes_rejected(self):
        with pytest.raises(ValueError):
            parse_poly_ratio("1/2/3")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            parse_poly_ratio("p/(p-p)")


class TestFormatPoly:
    def test_round_trip(self):
        for text in ["p^2-1", "34*p^3-51*p^2+27*p-5", "2*p", "7", "-p^2+1", "0"]:
            coeffs = parse_poly(text)
            assert parse_poly(format_poly(coeffs)) == coeffs

    def test_examples(self):
        assert format_poly(parse_poly("p^2-1")) == "p^2-1"
        assert format_poly(()) == "0"
        assert format_poly(parse_poly("-p+2")) == "-p+2"


class TestParseQuantity:
    def test_binp_full_and_sugar(self):
        assert parse_quantity("binp", "2,1,1") == QuantitySpec("binp", (2, 1, 1))
        assert parse_quantity("binp", "2,1") == QuantitySpec("binp", (2, 1, 1))
        assert parse_quantity("binp", "3,1,2") == QuantitySpec("binp", (3, 1, 2))

    def test_binp_validation(self):
        with pytest.raises(ValueError):
            parse_quantity("binp", "1,2")  # a < b
        with pytest.raises(ValueError):
            parse_quantity("binp", "2,1,-1")
        with pytest.raises(ValueError):
            parse_quantity("binp", "2")

    def test_binpoly(self):
        q = parse_quantity("binpoly", "p^2;p")
        assert q.args == ((F(0), F(0), F(1)), (F(0), F(1)))

    def test_apery(self):
        assert parse_quantity("apery", "") == QuantitySpec("apery", ())
        with pytest.raises(ValueError):
            parse_quantity("apery", "3")

    def test_zetap(self):
        assert parse_quantity("zetap", "3").args == (3,)
        with pytest.raises(ValueError):
            parse_quantity("zetap", "1")

    def test_psum(self):
        q = parse_quantity("psum", "p^2-1;0;2,1")
        assert q.args == ((F(-1), F(0), F(1)), (), (2, 1), False)
        q = parse_quantity("psum", "p^2;0;1;restricted")
        assert q.args[3] is True
        q = parse_quantity("psum", "p;0;-2,1")
        assert q.args[2] == (-2, 1)

    def test_hres_curious(self):
        assert parse_quantity("hres", "2").args == (2,)
        assert parse_quantity("curious", "3,3").args == (3, 3)
        with pytest.raises(ValueError):
            parse_quantity("curious", "0,3")

    def test_sumpoly(self):
        q = parse_quantity("sumpoly", "1;1,1")
        assert q.args == ((F(1),), (1, 1))
        q = parse_quantity("sumpoly", "p^2;2")
        assert q.args == ((F(0), F(0), F(1)), (2,))
        with pytest.raises(ValueError):
            parse_quantity("sumpoly", "1;0,1")

    def test_half_alt(self):
        assert parse_quantity("half", "2").args == (2,)
        assert parse_quantity("alt", "3").args == (3,)
        with pytest.raises(ValueError):
            parse_quantity("half", "1")

    def test_rat(self):
        q = parse_quantity("rat", "(2*p-1)/3")
        assert q.args == ((F(-1), F(2)), (F(3),))

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_quantity("zeta", "3")

    def test_format_round_trip(self):
        samples = [
            ("binp", "2,1,1"),
            ("binpoly", "p^2;p"),
            ("apery", ""),
            ("zetap", "3"),
            ("psum", "p^2-1;0;2,1"),
            ("psum", "p^2;0;1;restricted"),
            ("hres", "2"),
            ("curious", "3,3"),
            ("sumpoly", "1/2*p^2+p;1,1"),
            ("half", "2"),
            ("alt", "2"),
            ("rat", "(2*p-1)/3"),
            ("rat", "p^2"),
        ]
        for name, inner in samples:
            q = parse_quantity(name, inner)
            text = format_quantity(q)
            name2, inner2 = text.split("(", 1)
            assert parse_quantity(name2, inner2[:-1]) == q


# one valid atom per quantity, cheap to expand at order 3 and evaluate at 11
VALID_ATOMS = {
    "binp": "2,1",
    "binpoly": "p^2;p",
    "apery": "",
    "zetap": "3",
    "psum": "p^2-1;0;2,1",
    "hres": "2",
    "curious": "2,3",
    "sumpoly": "1/2*p^2+p;1,1",
    "half": "2",
    "alt": "3",
    "rat": "(2*p-1)/3",
}

INVALID_SPECS = [
    ("curious", (0, 2)),
    ("hres", (0,)),
    ("binp", (1, 2, 1)),
    ("alt", (1,)),
    ("curious", (True, 2)),
    ("half", (True,)),
    ("binp", (2, 1)),
    ("psum", ((F(1, 2),), (), (1,), False)),
    ("sumpoly", ((F(1),), (0, 1))),
    ("rat", ((F(1),), ())),
    ("zeta", (3,)),
]


class TestSpecBoundary:
    """A spec checks its arguments when built; both routes then accept it."""

    def test_every_quantity_has_a_valid_atom(self):
        assert sorted(VALID_ATOMS) == sorted(QUANTITY_NAMES)

    @pytest.mark.parametrize("name", QUANTITY_NAMES)
    def test_valid_spec_round_trips_and_is_accepted(self, name, tmp_path):
        q = parse_quantity(name, VALID_ATOMS[name])
        name2, inner2 = format_quantity(q).split("(", 1)
        assert parse_quantity(name2, inner2[:-1]) == q
        expand_quantity(q, 3, cache_dir=tmp_path)
        if name == "zetap":
            # a p-adic limit: the oracle refuses it for what it is, not its argument
            with pytest.raises(ValueError, match="p-adic limit"):
                eval_quantity(q, 11)
        else:
            eval_quantity(q, 11)

    @pytest.mark.parametrize("name,args", INVALID_SPECS)
    def test_invalid_spec_raises_when_built(self, name, args):
        with pytest.raises(ValueError):
            QuantitySpec(name, args)
