"""Named prime-indexed quantities and their text grammar.

A :class:`QuantitySpec` is a symbolic handle for a family of rational
numbers indexed by a prime ``p`` (a binomial coefficient with prime-power
arguments, an Apery number, a power sum with polynomial bounds, ...).  The
oracle evaluates a spec exactly at a concrete prime; the expansions module
turns the same spec into an :class:`~padicmhs.series.MhsSeries`.  Keeping
the two routes behind one shared value type is what makes the numeric
cross-checks meaningful.

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
from typing import Union

__all__ = [
    "QuantitySpec",
    "Poly",
    "parse_poly",
    "parse_poly_ratio",
    "format_poly",
    "parse_quantity",
    "format_quantity",
    "QUANTITY_NAMES",
]

# ascending coefficient tuple; () is the zero polynomial
Poly = tuple[Fraction, ...]

QUANTITY_NAMES = (
    "binp",
    "binpoly",
    "apery",
    "zetap",
    "psum",
    "hres",
    "curious",
    "sumpoly",
    "half",
    "alt",
    "rat",
)


@dataclass(frozen=True)
class QuantitySpec:
    """A named prime-indexed quantity with normalized arguments."""

    name: str
    args: tuple

    def __str__(self) -> str:
        return format_quantity(self)


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


def _parse_int(text: str, what: str) -> int:
    text = text.strip()
    if not re.fullmatch(r"-?\d+", text):
        raise ValueError(f"expected an integer for {what}, got {text!r}")
    return int(text)


def _parse_comp(text: str, what: str) -> tuple[int, ...]:
    parts = [t.strip() for t in text.split(",")] if text.strip() else []
    return tuple(_parse_int(t, what) for t in parts)


def parse_quantity(name: str, inner: str) -> QuantitySpec:
    """Build a validated QuantitySpec from an atom's name and argument text."""
    inner = inner.strip()
    if name == "binp":
        parts = _parse_comp(inner, "binp argument")
        if len(parts) == 2:
            parts = parts + (1,)  # binp(a,b) sugar for binp(a,b,1)
        if len(parts) != 3:
            raise ValueError("binp takes (a,b) or (a,b,r)")
        a, b, r = parts
        if not (a >= b >= 0):
            raise ValueError(f"binp requires a >= b >= 0, got {a},{b}")
        if r < 0:
            raise ValueError(f"binp requires r >= 0, got {r}")
        return QuantitySpec("binp", (a, b, r))
    if name == "binpoly":
        parts = _split_semicolons(inner)
        if len(parts) != 2:
            raise ValueError("binpoly takes (f;g)")
        f = parse_poly(parts[0], integer=True)
        g = parse_poly(parts[1], integer=True)
        return QuantitySpec("binpoly", (f, g))
    if name == "apery":
        if inner:
            raise ValueError("apery takes no arguments")
        return QuantitySpec("apery", ())
    if name == "zetap":
        k = _parse_int(inner, "zetap argument")
        if k < 2:
            raise ValueError(f"zetap requires k >= 2, got {k}")
        return QuantitySpec("zetap", (k,))
    if name == "psum":
        parts = _split_semicolons(inner)
        restricted = False
        if parts and parts[-1].strip() == "restricted":
            restricted = True
            parts = parts[:-1]
        if len(parts) != 3:
            raise ValueError("psum takes (f;g;s1,...,sk[;restricted])")
        f = parse_poly(parts[0], integer=True)
        g = parse_poly(parts[1], integer=True)
        exps = _parse_comp(parts[2], "psum exponent")
        return QuantitySpec("psum", (f, g, exps, restricted))
    if name == "hres":
        r = _parse_int(inner, "hres argument")
        if r < 1:
            raise ValueError(f"hres requires r >= 1, got {r}")
        return QuantitySpec("hres", (r,))
    if name == "curious":
        parts = _parse_comp(inner, "curious argument")
        if len(parts) != 2:
            raise ValueError("curious takes (r,k)")
        r, k = parts
        if r < 1 or k < 1:
            raise ValueError(f"curious requires r,k >= 1, got {r},{k}")
        return QuantitySpec("curious", (r, k))
    if name == "sumpoly":
        parts = _split_semicolons(inner)
        if len(parts) != 2:
            raise ValueError("sumpoly takes (P;s1,...,sk)")
        P = parse_poly(parts[0])
        s = _parse_comp(parts[1], "sumpoly composition part")
        if any(e < 1 for e in s):
            raise ValueError("sumpoly composition parts must be positive")
        return QuantitySpec("sumpoly", (P, s))
    if name in ("half", "alt"):
        k = _parse_int(inner, f"{name} argument")
        if k < 2:
            raise ValueError(f"{name} requires k >= 2, got {k}")
        return QuantitySpec(name, (k,))
    if name == "rat":
        num, den = parse_poly_ratio(inner)
        return QuantitySpec("rat", (num, den))
    raise ValueError(f"unknown quantity {name!r}")


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
