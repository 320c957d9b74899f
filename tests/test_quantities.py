"""Tests for the quantity-spec grammar: polynomials, ratios, atom parsing."""

import copy
import random
from fractions import Fraction

import pytest

from padicmhs.arith import eval_poly, strip_poly
from padicmhs.cli import eval_series
from padicmhs.expansions import expand_quantity
from padicmhs.oracle import eval_quantity
from padicmhs.quantities import (
    _SIGNATURES,
    ExprAst,
    ExprSyntaxError,
    QuantitySpec,
    format_poly,
    format_quantity,
    parse,
)
from padicmhs.series import MhsSeries
from reference_sums import quantity

F = Fraction


def _poly(text):
    """The polynomial P that ``sumpoly(text;1)`` reads."""
    return quantity(f"sumpoly({text};1)").args[0]


def _int_poly(text):
    """The integer polynomial f that ``binpoly(text;0)`` reads."""
    return quantity(f"binpoly({text};0)").args[0]


def _ratio(text):
    """The integer (numerator, denominator) that ``rat(text)`` reads."""
    return quantity(f"rat({text})").args


class TestParsePoly:
    def test_simple(self):
        assert _poly("p^2-1") == (F(-1), F(0), F(1))
        assert _poly("34") == (F(34),)
        assert _poly("p") == (F(0), F(1))
        assert _poly("2*p") == (F(0), F(2))
        assert _poly("-p^3+2*p") == (F(0), F(2), F(0), F(-1))

    def test_large(self):
        assert _poly("34*p^3-51*p^2+27*p-5") == (F(-5), F(27), F(-51), F(34))

    def test_rational_coefficients(self):
        assert _poly("1/2*p^2+p") == (F(0), F(1), F(1, 2))
        assert _poly("3/4") == (F(3, 4),)

    def test_integer_mode_rejects_rationals(self):
        with pytest.raises(ValueError):
            _int_poly("1/2*p")
        assert _int_poly("2*p-1") == (F(-1), F(2))

    def test_cancellation_and_zero(self):
        assert _poly("p-p") == ()
        assert _poly("0") == ()

    def test_whitespace(self):
        assert _poly(" p^2 - 1 ") == (F(-1), F(0), F(1))

    def test_repeated_terms_accumulate(self):
        assert _poly("p+p+1") == (F(1), F(2))

    def test_errors(self):
        for bad in ["", "p^-1", "p*", "*p", "p^", "q", "1+", "p^2^3"]:
            with pytest.raises(ValueError):
                _poly(bad)

    def test_implicit_product_rejected(self):
        # a product needs its '*': "2p" is a syntax error, not 2*p
        with pytest.raises(ValueError):
            _poly("2p")

    def test_products_quotients_and_parentheses(self):
        assert _poly("2*(p+1)") == (F(2), F(2))
        assert _poly("(p^2-1)/2") == (F(-1, 2), F(0), F(1, 2))
        assert _poly("(p+1)*(p-1)") == (F(-1), F(0), F(1))
        assert _poly("p/3/4") == (F(0), F(1, 12))
        with pytest.raises(ValueError, match="rational function"):
            _poly("p/(p+1)")

    def test_eval_poly(self):
        f = _poly("p^2-1")
        assert eval_poly(f, 7) == 48
        assert eval_poly((), 5) == 0
        assert eval_poly(_poly("1/2*p^2+p"), 4) == 12


class TestPolyRatio:
    def test_plain_polynomial(self):
        num, den = _ratio("p^2")
        assert num == (F(0), F(0), F(1))
        assert den == (F(1),)

    def test_paren_ratio(self):
        num, den = _ratio("(2*p-1)/3")
        assert num == (F(-1), F(2))
        assert den == (F(3),)

    def test_one_over_poly(self):
        num, den = _ratio("1/(1-p)")
        assert num == (F(1),)
        assert den == (F(1), F(-1))

    def test_both_parenthesized(self):
        num, den = _ratio("(p^2-1)/(p+1)")
        assert num == (F(-1), F(0), F(1))
        assert den == (F(1), F(1))

    def test_repeated_slashes_divide(self):
        # '/' is a left-associative term operator: 1/2/3 is 1/6
        assert _ratio("1/2/3") == ((F(1),), (F(6),))
        assert _ratio("p/2/p") == ((F(0), F(1)), (F(0), F(2)))

    def test_usual_precedence(self):
        # 1/2*p is p/2, not 1/(2p); p^2-1/(p+1) is p^2 - 1/(p+1)
        assert _ratio("1/2*p") == ((F(0), F(1)), (F(2),))
        assert _ratio("p^2-1/(p+1)") == ((F(-1), F(0), F(1), F(1)), (F(1), F(1)))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            _ratio("p/(p-p)")


class TestFormatPoly:
    def test_round_trip(self):
        for text in ["p^2-1", "34*p^3-51*p^2+27*p-5", "2*p", "7", "-p^2+1", "0"]:
            coeffs = _poly(text)
            assert _poly(format_poly(coeffs)) == coeffs

    def test_examples(self):
        assert format_poly(_poly("p^2-1")) == "p^2-1"
        assert format_poly(()) == "0"
        assert format_poly(_poly("-p+2")) == "-p+2"


class TestParseQuantity:
    def test_binp_full_and_sugar(self):
        assert quantity("binp(2,1,1)") == QuantitySpec("binp", (2, 1, 1))
        assert quantity("binp(2,1)") == QuantitySpec("binp", (2, 1, 1))
        assert quantity("binp(3,1,2)") == QuantitySpec("binp", (3, 1, 2))

    def test_binp_validation(self):
        with pytest.raises(ValueError):
            quantity("binp(1,2)")  # a < b
        with pytest.raises(ValueError):
            quantity("binp(2,1,-1)")
        with pytest.raises(ValueError):
            quantity("binp(2)")

    def test_binpoly(self):
        q = quantity("binpoly(p^2;p)")
        assert q.args == ((F(0), F(0), F(1)), (F(0), F(1)))

    def test_apery(self):
        assert quantity("apery()") == QuantitySpec("apery", ())
        with pytest.raises(ValueError):
            quantity("apery(3)")

    def test_zetap(self):
        assert quantity("zetap(3)").args == (3,)
        with pytest.raises(ValueError):
            quantity("zetap(1)")

    def test_psum(self):
        q = quantity("psum(p^2-1;0;2,1)")
        assert q.args == ((F(-1), F(0), F(1)), (), (2, 1), False)
        q = quantity("psum(p^2;0;1;restricted)")
        assert q.args[3] is True
        q = quantity("psum(p;0;-2,1)")
        assert q.args[2] == (-2, 1)

    def test_hres_curious(self):
        assert quantity("hres(2)").args == (2,)
        assert quantity("curious(3,3)").args == (3, 3)
        with pytest.raises(ValueError):
            quantity("curious(0,3)")

    def test_sumpoly(self):
        q = quantity("sumpoly(1;1,1)")
        assert q.args == ((F(1),), (1, 1))
        q = quantity("sumpoly(p^2;2)")
        assert q.args == ((F(0), F(0), F(1)), (2,))
        with pytest.raises(ValueError):
            quantity("sumpoly(1;0,1)")

    def test_half_alt(self):
        assert quantity("half(2)").args == (2,)
        assert quantity("alt(3)").args == (3,)
        with pytest.raises(ValueError):
            quantity("half(1)")

    def test_rat(self):
        q = quantity("rat((2*p-1)/3)")
        assert q.args == ((F(-1), F(2)), (F(3),))

    def test_unknown(self):
        with pytest.raises(ValueError):
            quantity("zeta(3)")

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
            q = quantity(f"{name}({inner})")
            assert quantity(format_quantity(q)) == q


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
        assert sorted(VALID_ATOMS) == sorted(_SIGNATURES)

    @pytest.mark.parametrize("name", tuple(_SIGNATURES))
    def test_valid_spec_round_trips_and_is_accepted(self, name, tmp_path):
        q = quantity(f"{name}({VALID_ATOMS[name]})")
        assert quantity(format_quantity(q)) == q
        expand_quantity(q, 3, cache_dir=tmp_path)
        if name == "zetap":
            # a p-adic limit: the oracle refuses it for what it is, not its argument
            with pytest.raises(ValueError, match="p-adic limit"):
                eval_quantity(q, 11)
        else:
            eval_quantity(q, 11)

    @pytest.mark.parametrize(
        "name,args,stripped",
        [
            ("sumpoly", ((0,), (1,)), ((), (1,))),
            ("binpoly", ((0, 2, 0), (0, 1, 0)), ((0, 2), (0, 1))),
            ("psum", ((-1, 0, 1, 0), (0,), (2, 1), False), ((-1, 0, 1), (), (2, 1), False)),
            ("rat", ((1, 0), (1, 1, 0)), ((1,), (1, 1))),
        ],
    )
    def test_trailing_zeros_are_dropped_when_built(self, name, args, stripped):
        # equal quantities are equal specs, so a spec equals its own round trip
        spec = QuantitySpec(name, args)
        assert spec.args == stripped
        assert parse(format_quantity(spec)).payload == spec
        assert hash(parse(format_quantity(spec)).payload) == hash(spec)

    @pytest.mark.parametrize("name,args", INVALID_SPECS)
    def test_invalid_spec_raises_when_built(self, name, args):
        with pytest.raises(ValueError):
            QuantitySpec(name, args)


class TestDomainRules:
    """binpoly's and psum's domains are decided at the door: the expansions
    and the oracle refuse no argument of their own."""

    @pytest.mark.parametrize("coeffs", [(True,), (0, False), (F(1, 2),), (1.0,), ("1",)])
    def test_integer_polynomials_refuse_non_integers(self, coeffs):
        for name, args in [
            ("binpoly", (coeffs, (1,))),
            ("binpoly", ((0, 1), coeffs)),
            ("psum", (coeffs, (), (1,), False)),
            ("psum", ((0, 1), coeffs, (1,), False)),
            ("rat", (coeffs, (1,))),
            ("rat", ((1,), coeffs)),
        ]:
            with pytest.raises(ValueError, match="must be a tuple of integer coefficients"):
                QuantitySpec(name, args)

    def test_integer_polynomials_are_stored_as_ints(self):
        specs = [quantity("binpoly(2*p;p+1)"), quantity("psum(p^2;p;1)"), quantity("rat((p+1)/(2-p))")]
        specs.append(QuantitySpec("binpoly", ((F(0), F(2)), (F(1), F(0)))))
        for q in specs:
            assert all(type(c) is int for arg in q.args if type(arg) is tuple for c in arg), q
        assert specs[-1].args == ((0, 2), (1,))

    def test_fractional_bound_is_refused_at_parse(self):
        with pytest.raises(ExprSyntaxError, match="^psum argument f must be a tuple of integer"):
            parse("psum(1/2+p;0;1)")

    @pytest.mark.parametrize("text", ["binpoly(-p;1)", "binpoly(0;p)", "binpoly(p-2*p^2;1)"])
    def test_binpoly_numerator_needs_a_positive_leading_coefficient(self, text):
        with pytest.raises(ExprSyntaxError, match="^binpoly argument f must have a positive leading"):
            parse(text)

    @pytest.mark.parametrize("text", ["binpoly(-p;0)", "binpoly(0;0)"])
    def test_binpoly_with_zero_g_is_one_for_any_numerator(self, text):
        q = quantity(text)
        assert expand_quantity(q, 4) == MhsSeries.constant(1)
        assert eval_quantity(q, 11) == 1

    @pytest.mark.parametrize("text", ["psum(p;-p;1)", "psum(p;-1;1)", "psum(p^2;p-p^2;1,-2)"])
    def test_psum_needs_an_eventually_nonnegative_lower_bound(self, text):
        with pytest.raises(ExprSyntaxError, match="^psum argument g must be eventually nonnegative"):
            parse(text)

    @pytest.mark.parametrize(
        "text",
        ["psum(1-p;0;1)", "psum(-2*p^2;0;1)", "psum(-p;1;1)", "psum(-2*p;-p;1)", "psum(p-1;p;1,2)"],
    )
    def test_eventually_empty_range_reads_zero_in_both_layers(self, text):
        q = quantity(text)
        assert expand_quantity(q, 4) == MhsSeries.zero()
        assert [eval_quantity(q, p) for p in (11, 13)] == [0, 0]

    def test_empty_chain_is_one_over_any_range(self):
        q = quantity("psum(p;-p;)")
        assert expand_quantity(q, 4) == MhsSeries.constant(1)
        assert eval_quantity(q, 11) == 1


# for each argument kind, a value of another kind; an int kind gets a bool
WRONG_KIND = {
    "ipoly": (F(1, 2),),  # a rational coefficient
    "qpoly": (0.5,),
    "ints": (F(1, 2),),
    "comp": (-1,),  # signed integers
    "flag": 1,
}

SIGNATURE_ARGS = [
    (name, position, what)
    for name, sig in _SIGNATURES.items()
    for position, (what, _) in enumerate(sig)
]


class TestRecords:
    """A spec and an expression node are immutable values."""

    RECORDS = {
        "QuantitySpec": lambda: QuantitySpec("sumpoly", ((F(1), F(0)), (1,))),
        "ExprAst": lambda: parse("binp(2,1) + p^2*H(1)"),
    }
    FIELDS = {"QuantitySpec": ("name", "args"), "ExprAst": ("kind", "payload", "children")}

    @pytest.mark.parametrize("name", RECORDS)
    def test_equal_records_hash_equal(self, name):
        a, b = self.RECORDS[name](), self.RECORDS[name]()
        assert a is not b and a == b and hash(a) == hash(b)
        assert copy.deepcopy(a) == a

    def test_a_normalized_spec_equals_its_normal_form(self):
        a, b = QuantitySpec("sumpoly", ((F(1), F(0)), (1,))), QuantitySpec("sumpoly", ((1,), (1,)))
        assert a == b and hash(a) == hash(b) and a.args == ((F(1),), (1,))
        assert a != QuantitySpec("sumpoly", ((1,), (2,)))
        assert ExprAst("lit", F(1)) != ExprAst("lit", F(2))

    @pytest.mark.parametrize("name", RECORDS)
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        record = self.RECORDS[name]()
        for field in self.FIELDS[name]:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_bad_constructor_input_raises(self):
        with pytest.raises(ValueError, match="binp requires a >= b"):
            QuantitySpec("binp", (1, 2, 1))
        with pytest.raises(ValueError, match="unknown quantity"):
            QuantitySpec("nope", ())
        with pytest.raises(TypeError):
            ExprAst("lit", F(1), (), None)


class TestSignatures:
    """Every argument of every quantity is checked by its kind in the table."""

    @pytest.mark.parametrize(
        "name,position,what", SIGNATURE_ARGS, ids=[f"{n}-{w}" for n, _, w in SIGNATURE_ARGS]
    )
    def test_wrong_kind_names_the_argument(self, name, position, what):
        args = quantity(f"{name}({VALID_ATOMS[name]})").args
        kind = _SIGNATURES[name][position][1]
        wrong = True if type(kind) is int else WRONG_KIND[kind]
        bad = args[:position] + (wrong,) + args[position + 1 :]
        with pytest.raises(ValueError, match=f"^{name} argument {what} must be "):
            QuantitySpec(name, bad)

    def test_every_kind_has_a_wrong_value(self):
        kinds = {kind for sig in _SIGNATURES.values() for _, kind in sig}
        assert {k for k in kinds if type(k) is not int} == set(WRONG_KIND)

    def test_parser_error_names_the_argument(self):
        with pytest.raises(ValueError, match="^sumpoly argument s must be a tuple of positive"):
            parse("sumpoly(1;0,1)")

    def test_vanishing_rat_denominator_names_the_argument(self):
        with pytest.raises(ValueError, match="^rat argument den must be a nonzero polynomial"):
            QuantitySpec("rat", ((F(1),), ()))


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
    """A random spec; a draw that binpoly's or psum's domain rule refuses is drawn again."""
    while True:
        try:
            return QuantitySpec(*_random_args(rng))
        except ValueError as exc:
            assert str(exc).startswith(("binpoly argument f ", "psum argument g ")), exc


def _random_args(rng):
    name = rng.choice(tuple(_SIGNATURES))
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
    return name, args


class TestRationalGrid:
    """rat(X) for about 200 random texts X of literals, p^k, + - * / and parentheses."""

    def test_rat_matches_independent_evaluation(self):
        for text, values in _rational_grid():
            q = quantity(f"rat({text})")
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
            assert parse(text) == ExprAst("quantity", q), text

    def test_formatted_polys_parse_back(self):
        rng = random.Random(20261020)
        seen = set()
        while len(seen) < 600:
            f = _random_poly(rng, rational=True)
            seen.add(format_poly(f))
            assert _poly(format_poly(f)) == f, format_poly(f)
