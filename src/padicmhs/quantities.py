"""Named prime-indexed quantities and their text grammar.

A :class:`QuantitySpec` is a symbolic handle for a family of rational
numbers indexed by a prime ``p`` (a binomial coefficient with prime-power
arguments, an Apery number, a power sum with polynomial bounds, ...).  The
oracle evaluates a spec exactly at a concrete prime; the expansions module
turns the same spec into an :class:`~padicmhs.series.MhsSeries`.  Keeping
the two routes behind one shared value type is what makes the numeric
cross-checks meaningful.  A spec checks its arguments when it is built
(:func:`check_quantity`, the one home of the argument rules), so both
routes trust it and refuse the same inputs.

Atom grammar (shared with the CLI)::

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
    rat(f[/g])             f(p)/g(p) for integer polynomials f, g

Polynomials are written in the variable ``p`` with ``^`` powers and ``*``
products, e.g. ``p^2-1`` or ``34*p^3-51*p^2+27*p-5``; ``sumpoly``'s first
argument admits rational coefficients (``1/2*p^2``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .compositions import check_comp, check_int

__all__ = [
    "QuantitySpec",
    "Poly",
    "check_quantity",
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
# polynomial text grammar
# ---------------------------------------------------------------------------

_POLY_TOKEN = re.compile(r"\s*(\d+|[p^*/+-])")


def _tokenize_poly(text: str) -> list[str]:
    out: list[str] = []
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _POLY_TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"polynomial syntax error at position {pos} in {text!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _add_term(coeffs: dict[int, Fraction], deg: int, c: Fraction) -> None:
    c = coeffs.get(deg, Fraction(0)) + c
    if c == 0:
        coeffs.pop(deg, None)
    else:
        coeffs[deg] = c


def parse_poly(text: str, *, integer: bool = False) -> Poly:
    """Parse a polynomial in ``p``, e.g. ``"p^2-1"`` or ``"1/2*p^2+p"``.

    With ``integer=True``, rational coefficients are rejected.
    """
    toks = _tokenize_poly(text)
    if not toks:
        raise ValueError("empty polynomial")
    coeffs: dict[int, Fraction] = {}
    i = 0
    first = True
    while i < len(toks):
        sign = Fraction(1)
        if toks[i] in "+-":
            if toks[i] == "-":
                sign = Fraction(-1)
            i += 1
            if i >= len(toks):
                raise ValueError(f"dangling sign at end of {text!r}")
        elif not first:
            raise ValueError(f"expected '+' or '-' before {toks[i]!r} in {text!r}")
        first = False
        # term: number [/ number] [* p [^ exp]]  |  p [^ exp]
        coeff = Fraction(1)
        have_coeff = False
        if i < len(toks) and toks[i].isdigit():
            coeff = Fraction(int(toks[i]))
            have_coeff = True
            i += 1
            if i + 1 < len(toks) and toks[i] == "/" and toks[i + 1].isdigit():
                if integer:
                    raise ValueError(
                        f"rational coefficient not allowed in integer polynomial {text!r}"
                    )
                coeff /= int(toks[i + 1])
                i += 2
        deg = 0
        if i < len(toks) and toks[i] == "*":
            if not have_coeff:
                raise ValueError(f"dangling '*' in {text!r}")
            i += 1
            if i >= len(toks) or toks[i] != "p":
                raise ValueError(f"expected 'p' after '*' in {text!r}")
        if i < len(toks) and toks[i] == "p":
            i += 1
            deg = 1
            if i < len(toks) and toks[i] == "^":
                i += 1
                neg = False
                if i < len(toks) and toks[i] == "-":
                    neg = True
                    i += 1
                if i >= len(toks) or not toks[i].isdigit():
                    raise ValueError(f"expected integer exponent in {text!r}")
                deg = int(toks[i])
                if neg:
                    raise ValueError(f"negative exponent in polynomial {text!r}")
                i += 1
        elif not have_coeff:
            raise ValueError(f"expected a term at {toks[i]!r} in {text!r}")
        _add_term(coeffs, deg, sign * coeff)
    if not coeffs:
        return ()
    top = max(coeffs)
    return tuple(coeffs.get(d, Fraction(0)) for d in range(top + 1))


def parse_poly_ratio(text: str) -> tuple[Poly, Poly]:
    """Parse ``f``, ``f/g``, ``(f)/(g)`` with integer polynomials f, g."""

    def strip_parens(s: str) -> str:
        s = s.strip()
        while s.startswith("(") and s.endswith(")"):
            depth = 0
            for idx, ch in enumerate(s):
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0 and idx != len(s) - 1:
                        return s  # outer parens do not wrap the whole string
            s = s[1:-1].strip()
        return s

    # split on a '/' at paren depth zero that is not part of a coefficient;
    # integer polynomials contain no '/', so any top-level '/' is the divider
    depth = 0
    split_at = None
    for idx, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            if split_at is not None:
                raise ValueError(f"multiple '/' in rational function {text!r}")
            split_at = idx
    if split_at is None:
        num, den = text, "1"
    else:
        num, den = text[:split_at], text[split_at + 1 :]
    fnum = parse_poly(strip_parens(num), integer=True)
    fden = parse_poly(strip_parens(den), integer=True)
    if not any(fden):
        raise ValueError("zero denominator polynomial")
    return fnum, fden


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


# ---------------------------------------------------------------------------
# quantity parsing / formatting
# ---------------------------------------------------------------------------


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers; blank text gives ()."""
    parts = [t.strip() for t in text.split(",")] if text.strip() else []
    for t in parts:
        if not re.fullmatch(r"-?\d+", t):
            raise ValueError(f"expected an integer for {what}, got {t!r}")
    return tuple(int(t) for t in parts)


def parse_quantity(name: str, inner: str) -> QuantitySpec:
    """Turn an atom's name and argument text into a QuantitySpec.

    Only the text is checked here; the spec checks its arguments when built.
    """
    if name not in _PARAMS:
        raise ValueError(f"unknown quantity {name!r}")
    inner = inner.strip()
    if name == "binpoly":
        parts = _split_semicolons(inner)
        if len(parts) != 2:
            raise ValueError("binpoly takes (f;g)")
        return QuantitySpec(name, (parse_poly(parts[0]), parse_poly(parts[1])))
    if name == "sumpoly":
        parts = _split_semicolons(inner)
        if len(parts) != 2:
            raise ValueError("sumpoly takes (P;s1,...,sk)")
        return QuantitySpec(name, (parse_poly(parts[0]), _parse_ints(parts[1], "sumpoly part")))
    if name == "psum":
        parts = _split_semicolons(inner)
        restricted = False
        if parts and parts[-1] == "restricted":
            restricted = True
            parts = parts[:-1]
        if len(parts) != 3:
            raise ValueError("psum takes (f;g;s1,...,sk[;restricted])")
        f, g = parse_poly(parts[0]), parse_poly(parts[1])
        return QuantitySpec(name, (f, g, _parse_ints(parts[2], "psum exponent"), restricted))
    if name == "rat":
        return QuantitySpec(name, parse_poly_ratio(inner))
    args = _parse_ints(inner, f"{name} argument")
    if name == "binp" and len(args) == 2:
        args += (1,)  # binp(a,b) sugar for binp(a,b,1)
    return QuantitySpec(name, args)


def _split_semicolons(text: str) -> list[str]:
    return [t for t in (s.strip() for s in text.split(";"))]


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
