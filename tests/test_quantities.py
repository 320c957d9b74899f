"""Tests for the quantity-spec grammar: polynomials, ratios, atom parsing."""

import random
from fractions import Fraction

import pytest

from padicmhs.arith import eval_poly, strip_poly
from padicmhs.cli import eval_series
from padicmhs.expansions import expand_quantity
from padicmhs.oracle import eval_quantity
from padicmhs.quantities import (
    QUANTITY_NAMES,
    ExprAst,
    QuantitySpec,
    format_poly,
    format_quantity,
    parse,
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

    def test_implicit_product_rejected(self):
        # a product needs its '*': "2p" is a syntax error, not 2*p
        with pytest.raises(ValueError):
            parse_poly("2p")

    def test_products_quotients_and_parentheses(self):
        assert parse_poly("2*(p+1)") == (F(2), F(2))
        assert parse_poly("(p^2-1)/2") == (F(-1, 2), F(0), F(1, 2))
        assert parse_poly("(p+1)*(p-1)") == (F(-1), F(0), F(1))
        assert parse_poly("p/3/4") == (F(0), F(1, 12))
        with pytest.raises(ValueError, match="rational function"):
            parse_poly("p/(p+1)")

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

    def test_repeated_slashes_divide(self):
        # '/' is a left-associative term operator: 1/2/3 is 1/6
        assert parse_poly_ratio("1/2/3") == ((F(1),), (F(6),))
        assert parse_poly_ratio("p/2/p") == ((F(0), F(1)), (F(0), F(2)))

    def test_usual_precedence(self):
        # 1/2*p is p/2, not 1/(2p); p^2-1/(p+1) is p^2 - 1/(p+1)
        assert parse_poly_ratio("1/2*p") == ((F(0), F(1)), (F(2),))
        assert parse_poly_ratio("p^2-1/(p+1)") == ((F(-1), F(0), F(1), F(1)), (F(1), F(1)))

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


# ---------------------------------------------------------------------------
# seeded grids: random rational-function texts and random formatted specs
# ---------------------------------------------------------------------------

GRID_PRIMES = (11, 13, 17, 19, 23, 29, 31)

# binding strength of each binary operator; a negation binds at 3, atoms at 4
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _random_tree(rng, depth):
    """A random tree: ("p", k), ("lit", c), ("neg", x) or (op, left, right)."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.4:
            return ("p", rng.randint(0, 3))
        if roll < 0.8:
            return ("lit", F(rng.randint(0, 5)))
        return ("lit", F(rng.randint(1, 5), rng.randint(2, 5)))
    if rng.random() < 0.1:
        return ("neg", _random_tree(rng, depth - 1))
    return (rng.choice("+-*/"), _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _render(node, need=0):
    """Text of a tree by the usual precedence, parenthesized only where needed."""
    kind = node[0]
    if kind == "p":
        text, prec = ("p" if node[1] == 1 else f"p^{node[1]}"), 4
    elif kind == "lit":
        # a literal a/b is read as one number, but binds like a quotient
        text, prec = str(node[1]), (4 if node[1].denominator == 1 else 2)
    elif kind == "neg":
        text, prec = "-" + _render(node[1], 3), 3
    else:  # left-associative: the right operand binds one level tighter
        prec = _PREC[kind]
        text = _render(node[1], prec) + kind + _render(node[2], prec + 1)
    return f"({text})" if prec < need else text


def _value(node, p):
    """Exact value of a tree at p; ZeroDivisionError when a divisor vanishes."""
    kind = node[0]
    if kind == "p":
        return F(p) ** node[1]
    if kind == "lit":
        return node[1]
    if kind == "neg":
        return -_value(node[1], p)
    a, b = _value(node[1], p), _value(node[2], p)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    return a * b if kind == "*" else a / b


def _rational_grid(count=200, seed=20261018):
    """``count`` (text, values at GRID_PRIMES) pairs with no vanishing divisor."""
    rng = random.Random(seed)
    grid = []
    while len(grid) < count:
        tree = _random_tree(rng, 3)
        try:
            values = [_value(tree, p) for p in GRID_PRIMES]
        except ZeroDivisionError:
            continue
        grid.append((_render(tree), values))
    return grid


def _random_poly(rng, rational=False):
    dens = (1, 2, 3, 7) if rational else (1,)
    return strip_poly(
        tuple(F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(rng.randint(0, 4)))
    )


def _random_ints(rng, low, count):
    return tuple(rng.randint(low, 4) for _ in range(count))


def _random_spec(rng):
    name = rng.choice(QUANTITY_NAMES)
    if name == "binp":
        b = rng.randint(0, 5)
        args = (b + rng.randint(0, 5), b, rng.randint(0, 3))
    elif name == "binpoly":
        args = (_random_poly(rng), _random_poly(rng))
    elif name == "psum":
        exps = _random_ints(rng, -3, rng.randint(0, 3))
        args = (_random_poly(rng), _random_poly(rng), exps, rng.random() < 0.5)
    elif name == "sumpoly":
        args = (_random_poly(rng, rational=True), _random_ints(rng, 1, rng.randint(0, 3)))
    elif name == "rat":
        den = ()
        while not den:
            den = _random_poly(rng)
        args = (_random_poly(rng), den)
    elif name in ("hres", "curious"):
        args = _random_ints(rng, 1, 1 if name == "hres" else 2)
    else:  # apery takes none, zetap/half/alt take k >= 2
        args = () if name == "apery" else _random_ints(rng, 2, 1)
    return QuantitySpec(name, args)


class TestRationalGrid:
    """rat(X) for about 200 random texts X of literals, p^k, + - * / and parentheses."""

    def test_rat_matches_independent_evaluation(self):
        for text, values in _rational_grid():
            q = parse_quantity("rat", text)
            assert [eval_quantity(q, p) for p in GRID_PRIMES] == values, text

    def test_rat_expansion_matches_series_evaluation(self):
        compared = 0
        for text, _ in _rational_grid():
            try:
                direct = eval_series(parse(text), 6)
            except ValueError:
                continue  # an inverted subexpression is not a unit
            assert eval_series(parse(f"rat({text})"), 6).truncate(6) == direct.truncate(6), text
            compared += 1
        assert compared >= 100


class TestSameSpecGrid:
    """Formatted specs and polynomials read back to what was formatted."""

    def test_formatted_specs_parse_back(self):
        rng = random.Random(20261019)
        seen = set()
        while len(seen) < 600:  # distinct texts
            q = _random_spec(rng)
            text = format_quantity(q)
            seen.add(text)
            name, inner = text.split("(", 1)
            assert parse_quantity(name, inner[:-1]) == q, text
            assert parse(text) == ExprAst("quantity", q), text

    def test_formatted_polys_parse_back(self):
        rng = random.Random(20261020)
        seen = set()
        while len(seen) < 600:
            f = _random_poly(rng, rational=True)
            seen.add(format_poly(f))
            assert parse_poly(format_poly(f)) == f, format_poly(f)
