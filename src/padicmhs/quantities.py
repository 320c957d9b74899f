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

Each quantity is declared once, as a ``_SIGNATURES`` row of argument names
and kinds that drives checking, reading and formatting; binp (a >= b,
``binp(a,b)`` sugar), binpoly and psum (their domains) and rat (a ratio,
nonzero denominator) add their own rules.  A new quantity is one row plus
its expansion and oracle evaluation.

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

A quantity whose arguments are all integers takes one comma list; any
other separates its arguments by ``;``.  A polynomial argument is an
expression built from numbers, ``p^k`` with k >= 0, ``+ - * /`` and
parentheses whose denominator is a constant, e.g. ``p^2-1``,
``34*p^3-51*p^2+27*p-5`` or ``1/2*p^2`` (rational coefficients only in
``sumpoly``'s P).  ``rat`` takes any such expression, e.g. ``(p^2-1)/(p+1)``
or ``p^2-1/(p+1)``, read by the usual precedence: ``1/2*p`` is p/2.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm

from .arith import poly_mul, poly_sub, strip_poly
from .compositions import check_int

__all__ = [
    "BINARY_OPS",
    "ExprAst",
    "ExprSyntaxError",
    "QuantitySpec",
    "Poly",
    "check_quantity",
    "parse",
    "format_poly",
    "format_quantity",
]

# ascending coefficient tuple; () is the zero polynomial
Poly = tuple[Fraction, ...]

# each quantity's arguments in order, as (name, kind): an int kind is an
# integer with that lower bound, "ipoly"/"qpoly" a polynomial with integer /
# rational coefficients, "ints" signed integers, "comp" a composition and
# "flag" the optional ";restricted"
_SIGNATURES = {
    "binp": (("a", 0), ("b", 0), ("r", 0)),
    "binpoly": (("f", "ipoly"), ("g", "ipoly")),
    "apery": (),
    "zetap": (("k", 2),),
    "psum": (("f", "ipoly"), ("g", "ipoly"), ("exps", "ints"), ("restricted", "flag")),
    "hres": (("r", 1),),
    "curious": (("r", 1), ("k", 1)),
    "sumpoly": (("P", "qpoly"), ("s", "comp")),
    "half": (("k", 2),),
    "alt": (("k", 2),),
    "rat": (("num", "ipoly"), ("den", "ipoly")),
}

# the element test and description of each tuple kind
_TUPLE_KINDS = {
    "ipoly": (lambda c: type(c) is int or type(c) is Fraction and c.denominator == 1,
              "integer coefficients"),
    "qpoly": (lambda c: type(c) in (int, Fraction), "rational coefficients"),
    "ints": (lambda e: type(e) is int, "integers"),
    "comp": (lambda e: type(e) is int and e >= 1, "positive integers"),
}

# the kinds written as a comma list of integers
_INT_LISTS = ("ints", "comp")


def _int_only(sig: tuple) -> bool:
    """Whether a signature has integer arguments only (read as one comma list)."""
    return all(type(kind) is int for _, kind in sig)


class _Record:
    """Base of the immutable value records :class:`QuantitySpec` and :class:`ExprAst`.

    A subclass names its fields in ``__slots__`` and sets them once, in
    ``__init__``, through ``object.__setattr__``.  Records of one class are
    equal, and hash alike, when their fields are; setting or deleting a
    field afterwards raises AttributeError.
    """

    __slots__ = ()

    def __reduce__(self):  # by class and fields: copies are rebuilt, and records compared
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        same = type(other) is type(self)
        return self.__reduce__() == other.__reduce__() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.__reduce__()[1]!r}"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class QuantitySpec(_Record):
    """A named prime-indexed quantity with normalized arguments.

    Building a spec runs :func:`check_quantity` and keeps the arguments it
    returns, so invalid arguments raise ``ValueError`` here and never reach
    the oracle or the expansions, and equal quantities are equal specs.
    """

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", check_quantity(name, args))

    def __str__(self) -> str:
        return format_quantity(self)


def check_quantity(name: str, args: tuple) -> tuple:
    """``args`` as the normalized arguments of the quantity ``name``, or ValueError.

    The one home of the argument rules, run by :class:`QuantitySpec` when it
    is built, so the expansions and the oracle trust every spec and refuse
    no argument of their own:

    * each argument fits its kind in ``_SIGNATURES``: integers are ints, not
      bools, at least their bound; polynomials are tuples of ints or
      Fractions, integral for integer polynomials; the flag is a bool;
    * binp needs a >= b;
    * binpoly(f;g) needs f to have a positive leading coefficient unless g
      is 0 (then C(f(p), 0) = 1);
    * psum(f;g;s) reads 0 when its range (g(p), f(p)] is eventually empty,
      and otherwise, with s not empty, needs g eventually nonnegative (zero
      or with a positive leading coefficient): an index 0 has no value;
    * rat needs a nonzero denominator.

    Polynomials come back without trailing zeros, integer ones with int
    coefficients.
    """
    sig = _SIGNATURES.get(name)
    if sig is None:
        raise ValueError(f"unknown quantity {name!r}")
    if not isinstance(args, tuple) or len(args) != len(sig):
        raise ValueError(f"{name} takes ({','.join(what for what, _ in sig)}), got {args!r}")
    out = []
    for (what, kind), v in zip(sig, args):
        label = f"{name} argument {what}"
        if type(kind) is int:
            check_int(v, label, kind)
        elif kind == "flag":
            if type(v) is not bool:
                raise ValueError(f"{label} must be a bool, got {v!r}")
        elif not isinstance(v, tuple) or not all(map(_TUPLE_KINDS[kind][0], v)):
            raise ValueError(f"{label} must be a tuple of {_TUPLE_KINDS[kind][1]}, got {v!r}")
        elif kind == "ipoly":
            v = tuple(map(int, strip_poly(v)))
        elif kind == "qpoly":
            v = strip_poly(v)
        out.append(v)
    args = tuple(out)
    if name == "binp" and args[0] < args[1]:
        raise ValueError(f"binp requires a >= b >= 0, got {args[0]},{args[1]}")
    if name == "binpoly" and args[1] and (not args[0] or args[0][-1] < 0):
        raise ValueError(
            "binpoly argument f must have a positive leading coefficient unless g is 0,"
            f" got {format_poly(args[0])}"
        )
    if name == "psum":
        f, g, exps, _ = args
        width = poly_sub(f, g)
        if exps and g and g[-1] < 0 and width and width[-1] > 0:
            raise ValueError(
                "psum argument g must be eventually nonnegative unless the range"
                f" (g(p), f(p)] is eventually empty, got {format_poly(g)}"
            )
    if name == "rat" and not args[1]:
        raise ValueError("rat argument den must be a nonzero polynomial")
    return args


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------


class ExprSyntaxError(ValueError):
    """Syntax error in an expression, with a character position."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ExprAst(_Record):
    """Expression tree node.

    ``kind`` is one of ``lit`` (payload: Fraction), ``p`` (payload: int
    exponent), ``H`` (payload: composition), ``quantity`` (payload:
    QuantitySpec), ``add``/``sub``/``mul`` (two children), ``neg``/``inv``
    (one child), or ``cong`` (payload: modulus power, children: lhs, rhs).
    ``a / b`` is ``mul(a, inv(b))``.
    """

    __slots__ = ("kind", "payload", "children")

    def __init__(self, kind: str, payload: object = None, children: tuple = ()) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "children", children)


#: The binary operator nodes, for series and for values at a prime alike.
BINARY_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


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

    def _int_list(self) -> tuple[int, ...]:
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
        self._ws()
        pos = self.i
        n = self._signed_int()
        if n < 1:
            raise ExprSyntaxError(f"modulus power n must be >= 1, got {n}", pos)
        return ExprAst("cong", n, (lhs, rhs))

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
        if name not in ("H", "inv") and name not in _SIGNATURES:
            raise ExprSyntaxError(
                f"unknown atom {name!r}; known atoms: p, H, inv, " + ", ".join(sorted(_SIGNATURES)),
                pos,
            )
        self.expect("(")
        if name == "inv":
            node = ExprAst("inv", None, (self.parse_expression(),))
        elif name == "H":
            node = ExprAst("H", self._int_list())
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
        """The argument tuple of the quantity atom ``name``, read up to its ')'.

        A signature of integers only is one comma list; any other is read
        as ';'-separated groups, one per argument.
        """
        if name == "rat":
            return self._poly_arg(ratio=True)
        sig = _SIGNATURES[name]
        if _int_only(sig):
            args = self._int_list()
            if name == "binp" and len(args) == 2:
                args += (1,)  # binp(a,b) sugar for binp(a,b,1)
            return args
        args = []
        for i, (what, kind) in enumerate(sig):
            if kind == "flag":  # present as ';<name>'
                flag = self.take(";")
                if flag:
                    self._keyword(what)
                args.append(flag)
            else:
                if i:
                    self.expect(";")
                args.append(self._int_list() if kind in _INT_LISTS else self._poly_arg())
        return tuple(args)

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


def parse(text: str) -> ExprAst:
    """Parse an expression or congruence statement, which must fill ``text``."""
    parser = _Parser(text)
    ast = parser.parse_statement()
    parser._ws()
    if parser.i != len(text):
        raise ExprSyntaxError("trailing input", parser.i)
    return ast


# ---------------------------------------------------------------------------
# polynomial and quantity formatting
# ---------------------------------------------------------------------------


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


def format_quantity(q: QuantitySpec) -> str:
    """The atom text of ``q``, written by the rule :meth:`_Parser.quantity_args` reads."""
    n, a = q.name, q.args
    if n == "rat":
        num, den = a
        if den == (Fraction(1),):
            return f"rat({format_poly(num)})"
        return f"rat(({format_poly(num)})/({format_poly(den)}))"
    sig = _SIGNATURES[n]
    if _int_only(sig):
        return f"{n}({','.join(map(str, a))})"
    parts = []
    for (what, kind), v in zip(sig, a):
        if kind != "flag":
            parts.append(",".join(map(str, v)) if kind in _INT_LISTS else format_poly(v))
        elif v:
            parts.append(what)
    return f"{n}({';'.join(parts)})"
