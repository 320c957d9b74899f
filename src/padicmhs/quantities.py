"""Named prime-indexed quantities and the expression grammar that reads them.

A :class:`QuantitySpec` is a symbolic handle for a family of rational
numbers indexed by a prime ``p`` (a binomial coefficient with prime-power
arguments, an Apery number, a power sum with polynomial bounds, ...).  The
oracle evaluates a spec exactly at a concrete prime; the expansions module
turns the same spec into an :class:`~padicmhs.series.MhsSeries`.  Keeping
the two routes behind one shared value type is what makes the numeric
cross-checks meaningful.  A spec checks its arguments when it is built
(:func:`check_quantity`, the one home of the argument rules), so both
routes trust it and refuse the same inputs.

This module also holds the one parser of the package: :func:`parse` reads
the CLI's expressions and congruences (grammar in :mod:`padicmhs.cli`), and
the same parser reads the arguments of the quantity atoms::

    binp(a,b[,r])          C(a*p^r, b*p^r), r defaults to 1
    binpoly(f;g)           C(f(p), g(p)) for integer polynomials f, g
    apery()                b_{p-1}, the (p-1)-st Apery number
    zetap(k)               p^k * zeta_p(k)   (k >= 2)
    psum(f;g;s1,...,sk[;restricted])
                           S_{f(p),g(p)}(s1,...,sk), optionally restricted
                           to indices coprime to p
    hres(r)                sum of 1/n over n < p^r with p not dividing n
    curious(r,k)           sum of 1/(n_1...n_k) over compositions
                           n_1+...+n_k = p^r with p dividing no n_i
    sumpoly(P;s1,...,sk)   sum_{m=1}^{p-1} P(m) * H_m(s1,...,sk)
    half(k)                p^k * H_{(p-1)/2}(k)
    alt(k)                 p^k * sum_{n=1}^{p-1} (-1)^n / n^k
    rat(f)                 f(p) for a rational function f of p

Integer arguments are written as integers.  A polynomial argument is an
expression built from numbers, ``p^k`` with k >= 0, ``+ - * /`` and
parentheses whose denominator is a constant, e.g. ``p^2-1``,
``34*p^3-51*p^2+27*p-5`` or ``1/2*p^2`` (rational coefficients only in
``sumpoly``'s P).  ``rat`` takes any such expression, e.g. ``(p^2-1)/(p+1)``
or ``p^2-1/(p+1)``, read by the usual precedence: ``1/2*p`` is p/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, TypeVar

from .arith import poly_mul, poly_sub, strip_poly
from .compositions import check_comp, check_int

__all__ = [
    "ExprAst",
    "ExprSyntaxError",
    "QuantitySpec",
    "Poly",
    "check_quantity",
    "parse",
    "parse_poly",
    "parse_poly_ratio",
    "format_poly",
    "parse_quantity",
    "format_quantity",
    "QUANTITY_NAMES",
]

# ascending coefficient tuple; () is the zero polynomial
Poly = tuple[Fraction, ...]

# the argument names of each quantity, in order
_PARAMS = {
    "binp": ("a", "b", "r"),
    "binpoly": ("f", "g"),
    "apery": (),
    "zetap": ("k",),
    "psum": ("f", "g", "exps", "restricted"),
    "hres": ("r",),
    "curious": ("r", "k"),
    "sumpoly": ("P", "s"),
    "half": ("k",),
    "alt": ("k",),
    "rat": ("num", "den"),
}

QUANTITY_NAMES = tuple(_PARAMS)


@dataclass(frozen=True)
class QuantitySpec:
    """A named prime-indexed quantity with normalized arguments.

    Building a spec runs :func:`check_quantity`, so invalid arguments raise
    ``ValueError`` here and never reach the oracle or the expansions.
    """

    name: str
    args: tuple

    def __post_init__(self) -> None:
        check_quantity(self.name, self.args)

    def __str__(self) -> str:
        return format_quantity(self)


def check_quantity(name: str, args: tuple) -> None:
    """Raise ValueError unless ``args`` are valid arguments of the quantity ``name``.

    The one home of the argument rules, shared by :class:`QuantitySpec` and
    the public ``expand_*`` functions: integers are ints (not bools); binp
    needs a >= b >= 0 and r >= 0; zetap, half and alt need k >= 2; hres
    needs r >= 1; curious needs r, k >= 1; polynomials are tuples of ints
    or Fractions, with integer coefficients except sumpoly's P; psum's
    exponents are integers of either sign and ``restricted`` is a bool;
    sumpoly's composition has positive parts; rat's denominator is nonzero.
    """
    params = _PARAMS.get(name)
    if params is None:
        raise ValueError(f"unknown quantity {name!r}")
    if not isinstance(args, tuple) or len(args) != len(params):
        raise ValueError(f"{name} takes ({','.join(params)}), got {args!r}")
    if name == "binp":
        a, b, r = (check_int(v, f"binp argument {what}", 0) for what, v in zip(params, args))
        if a < b:
            raise ValueError(f"binp requires a >= b >= 0, got {a},{b}")
    elif name in ("zetap", "half", "alt"):
        check_int(args[0], f"{name} argument k", 2)
    elif name in ("hres", "curious"):
        for what, v in zip(params, args):
            check_int(v, f"{name} argument {what}", 1)
    elif name == "sumpoly":
        _check_poly(args[0], "sumpoly polynomial P", integer=False)
        check_comp(args[1], name="sumpoly composition")
    elif name in ("binpoly", "psum", "rat"):  # two integer polynomials first
        for what, v in zip(params[:2], args):
            _check_poly(v, f"{name} polynomial {what}", integer=True)
        if name == "psum":
            exps, restricted = args[2:]
            if not isinstance(exps, tuple):
                raise ValueError(f"psum exponents must be a tuple, got {exps!r}")
            for e in exps:
                check_int(e, "psum exponent")
            if type(restricted) is not bool:
                raise ValueError(f"psum restricted flag must be a bool, got {restricted!r}")
        if name == "rat" and not any(args[1]):
            raise ValueError("rat denominator must be a nonzero polynomial")


def _check_poly(f: object, what: str, integer: bool) -> None:
    if not isinstance(f, tuple) or not all(
        type(c) is int or (type(c) is Fraction and (c.denominator == 1 or not integer))
        for c in f
    ):
        kind = "integer" if integer else "rational"
        raise ValueError(f"{what} must be a tuple of {kind} coefficients, got {f!r}")


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------


class ExprSyntaxError(ValueError):
    """Syntax error in an expression, with a character position."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class ExprAst:
    """Expression tree node.

    ``kind`` is one of ``lit`` (payload: Fraction), ``p`` (payload: int
    exponent), ``H`` (payload: composition), ``quantity`` (payload:
    QuantitySpec), ``add``/``sub``/``mul`` (two children), ``neg``/``inv``
    (one child), or ``cong`` (payload: modulus power, children: lhs, rhs).
    ``a / b`` is ``mul(a, inv(b))``.
    """

    kind: str
    payload: object = None
    children: tuple["ExprAst", ...] = ()


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.i = 0

    # -- low-level scanning -------------------------------------------------

    def _ws(self) -> None:
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        self._ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.i += 1
            return True
        return False

    def expect(self, ch: str) -> None:
        if not self.take(ch):
            raise ExprSyntaxError(f"expected {ch!r}", self.i)

    def _int(self, signed: bool = False) -> int:
        """An integer literal; with ``signed``, a '-' may directly precede its digits."""
        self._ws()
        start = self.i
        if signed and self.text.startswith("-", start):
            self.i += 1
        digits = self.i
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
        if self.i == digits:
            raise ExprSyntaxError("expected an integer", start)
        return int(self.text[start : self.i])

    def _signed_int(self) -> int:
        if self.take("-"):
            return -self._int()
        self.take("+")
        return self._int()

    def _name(self) -> str:
        self._ws()
        start = self.i
        while self.i < len(self.text) and (
            self.text[self.i].isalnum() or self.text[self.i] == "_"
        ):
            self.i += 1
        return self.text[start : self.i]

    def _keyword(self, word: str) -> None:
        self._ws()
        pos = self.i
        if self._name() != word:
            raise ExprSyntaxError(f"expected {word!r}", pos)

    def _ints(self) -> tuple[int, ...]:
        """Comma-separated signed integers; none before ')', ';' or the end."""
        if self.peek() in (")", ";", ""):
            return ()
        out = [self._int(signed=True)]
        while self.take(","):
            out.append(self._int(signed=True))
        return tuple(out)

    # -- grammar -------------------------------------------------------------

    def parse_statement(self) -> ExprAst:
        lhs = self.parse_expression()
        if self.peek() != "=":
            return lhs
        self.i += 1
        rhs = self.parse_expression()
        self._keyword("mod")
        self._keyword("p")
        self.expect("^")
        return ExprAst("cong", self._signed_int(), (lhs, rhs))

    def parse_expression(self) -> ExprAst:
        node = self.parse_term()
        while True:
            c = self.peek()
            if c == "+":
                self.i += 1
                node = ExprAst("add", None, (node, self.parse_term()))
            elif c == "-":
                self.i += 1
                node = ExprAst("sub", None, (node, self.parse_term()))
            else:
                return node

    def parse_term(self) -> ExprAst:
        node = self.parse_factor()
        while True:
            if self.take("*"):
                node = ExprAst("mul", None, (node, self.parse_factor()))
            elif self.take("/"):
                divisor = self.parse_factor(divisor=True)
                node = ExprAst("mul", None, (node, ExprAst("inv", None, (divisor,))))
            else:
                return node

    def parse_factor(self, divisor: bool = False) -> ExprAst:
        if self.take("-"):
            return ExprAst("neg", None, (self.parse_factor(divisor),))
        if self.take("+"):
            return self.parse_factor(divisor)
        return self.parse_atom(divisor)

    def parse_atom(self, divisor: bool = False) -> ExprAst:
        """One atom; a divisor's integer takes no '/' (``p/3/4`` is p/12)."""
        c = self.peek()
        pos = self.i
        if c == "(":
            self.i += 1
            node = self.parse_expression()
            self.expect(")")
            return node
        if c.isdigit():
            num = self._int()
            save = self.i
            if not divisor and self.take("/"):
                if self.peek().isdigit():
                    den = self._int()
                    if den == 0:
                        raise ExprSyntaxError("division by zero in literal", save)
                    return ExprAst("lit", Fraction(num, den))
                self.i = save  # not a rational literal
            return ExprAst("lit", Fraction(num))
        name = self._name()
        if not name:
            raise ExprSyntaxError("expected an atom", pos)
        if name == "p":
            if self.take("^"):
                return ExprAst("p", self._signed_int())
            return ExprAst("p", 1)
        if name not in ("H", "inv") and name not in _PARAMS:
            raise ExprSyntaxError(
                f"unknown atom {name!r}; known atoms: p, H, inv, " + ", ".join(sorted(_PARAMS)),
                pos,
            )
        self.expect("(")
        if name == "inv":
            node = ExprAst("inv", None, (self.parse_expression(),))
        elif name == "H":
            node = ExprAst("H", self._ints())
            if any(s < 1 for s in node.payload):
                raise ExprSyntaxError(f"H parts must be positive integers, got {node.payload}", pos)
        else:
            args = self.quantity_args(name)
            try:
                node = ExprAst("quantity", QuantitySpec(name, args))
            except ValueError as exc:
                raise ExprSyntaxError(str(exc), pos) from exc
        self.expect(")")
        return node

    def quantity_args(self, name: str) -> tuple:
        """The argument tuple of the quantity atom ``name``, read up to its ')'."""
        if name == "rat":
            return self._poly_arg(ratio=True)
        if name not in ("binpoly", "psum", "sumpoly"):
            args = self._ints()
            if name == "binp" and len(args) == 2:
                args += (1,)  # binp(a,b) sugar for binp(a,b,1)
            return args
        f = self._poly_arg()
        self.expect(";")
        if name == "sumpoly":
            return f, self._ints()
        g = self._poly_arg()
        if name == "binpoly":
            return f, g
        self.expect(";")
        exps = self._ints()
        restricted = self.take(";")
        if restricted:
            self._keyword("restricted")
        return f, g, exps, restricted

    def _poly_arg(self, ratio: bool = False):
        """A polynomial (constant denominator) as its coefficients, or with
        ``ratio`` a rational function of p as integer (numerator, denominator)."""
        self._ws()
        start = self.i
        node = self.parse_expression()
        try:
            num, den = _fold(node)
            if ratio:
                m = lcm(*(c.denominator for c in num + den))
                return tuple(c * m for c in num), tuple(c * m for c in den)
            if len(den) > 1:
                raise ValueError("expected a polynomial in p, got a rational function")
            return tuple(c / den[0] for c in num)
        except ValueError as exc:
            raise ExprSyntaxError(str(exc), start) from exc


_ONE: Poly = (Fraction(1),)


def _fold(node: ExprAst) -> tuple[Poly, Poly]:
    """``node`` as a rational function of p: (numerator, denominator) coefficient tuples.

    Numbers, ``p^k`` with k >= 0, ``+ - *`` and ``inv`` (so ``/``) fold; any
    other node, or an inverse of zero, raises ValueError.  Nothing cancels,
    so ``(f)/(g)`` folds to exactly (f, g).
    """
    kind = node.kind
    if kind == "lit":
        return strip_poly((node.payload,)), _ONE
    if kind == "p" and node.payload >= 0:
        return (Fraction(0),) * node.payload + _ONE, _ONE
    if kind not in ("add", "sub", "mul", "neg", "inv"):
        what = f"p^{node.payload}" if kind == "p" else "H" if kind == "H" else node.payload.name
        raise ValueError(
            f"polynomial arguments take numbers, p^k with k >= 0, + - * / and inv, not {what}"
        )
    (f, g), *rest = (_fold(child) for child in node.children)
    if kind == "neg":
        return poly_sub((), f), g
    if kind == "inv":
        if not f:
            raise ValueError("zero denominator polynomial")
        return g, f
    ((h, k),) = rest
    if kind == "mul":
        return poly_mul(f, h), poly_mul(g, k)
    if kind == "add":
        h = poly_sub((), h)
    return poly_sub(poly_mul(f, k), poly_mul(h, g)), poly_mul(g, k)


_T = TypeVar("_T")


def _read_all(text: str, read: Callable[[_Parser], _T]) -> _T:
    """``read`` run by a parser over ``text``, which it must consume entirely."""
    parser = _Parser(text)
    value = read(parser)
    parser._ws()
    if parser.i != len(text):
        raise ExprSyntaxError("trailing input", parser.i)
    return value


def parse(text: str) -> ExprAst:
    """Parse an expression or congruence statement."""
    return _read_all(text, _Parser.parse_statement)


# ---------------------------------------------------------------------------
# polynomial and quantity parsing / formatting
# ---------------------------------------------------------------------------


def parse_poly(text: str, *, integer: bool = False) -> Poly:
    """Coefficients of a polynomial in ``p``, e.g. ``"p^2-1"`` or ``"(p^2+2*p)/2"``.

    The text is an expression with a constant denominator.  With
    ``integer=True``, rational coefficients are rejected.
    """
    f = _read_all(text, _Parser._poly_arg)
    if integer and any(c.denominator != 1 for c in f):
        raise ValueError(f"rational coefficient not allowed in integer polynomial {text!r}")
    return f


def parse_poly_ratio(text: str) -> tuple[Poly, Poly]:
    """Integer numerator and denominator of a rational function of p, e.g. ``"(2*p-1)/3"``."""
    return _read_all(text, lambda parser: parser._poly_arg(ratio=True))


def format_poly(coeffs: Poly) -> str:
    if not any(coeffs):
        return "0"
    chunks: list[str] = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if c == 0:
            continue
        mag = abs(c)
        if deg == 0:
            body = str(mag)
        else:
            pw = "p" if deg == 1 else f"p^{deg}"
            body = pw if mag == 1 else f"{mag}*{pw}"
        if not chunks:
            chunks.append(("-" if c < 0 else "") + body)
        else:
            chunks.append(("-" if c < 0 else "+") + body)
    return "".join(chunks)


def parse_quantity(name: str, inner: str) -> QuantitySpec:
    """Turn an atom's name and argument text into a QuantitySpec.

    Only the text is checked here; the spec checks its arguments when built.
    """
    if name not in _PARAMS:
        raise ValueError(f"unknown quantity {name!r}")
    return QuantitySpec(name, _read_all(inner, lambda parser: parser.quantity_args(name)))


def format_quantity(q: QuantitySpec) -> str:
    n, a = q.name, q.args
    if n == "binp":
        return f"binp({a[0]},{a[1]},{a[2]})"
    if n == "binpoly":
        return f"binpoly({format_poly(a[0])};{format_poly(a[1])})"
    if n == "apery":
        return "apery()"
    if n in ("zetap", "hres", "half", "alt"):
        return f"{n}({a[0]})"
    if n == "psum":
        s = ",".join(str(e) for e in a[2])
        tail = ";restricted" if a[3] else ""
        return f"psum({format_poly(a[0])};{format_poly(a[1])};{s}{tail})"
    if n == "curious":
        return f"curious({a[0]},{a[1]})"
    if n == "sumpoly":
        s = ",".join(str(e) for e in a[1])
        return f"sumpoly({format_poly(a[0])};{s})"
    if n == "rat":
        num, den = a
        if den == (Fraction(1),):
            return f"rat({format_poly(num)})"
        return f"rat(({format_poly(num)})/({format_poly(den)}))"
    raise ValueError(f"unknown quantity {n!r}")
