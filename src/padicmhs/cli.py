"""Command-line front end for the p-adic MHS engine.

Subcommands:

* ``expand``  — evaluate an expression in the truncated series algebra and
  print its canonical rendering;
* ``valuation`` — print the lowest p-power of an expression's canonical
  form, proved once (the working order when the series is identically zero);
* ``prove`` — decide a congruence by exact reduction against generated
  double-shuffle relations; emits a replayable certificate; exit code 0
  when proved, 1 when not, 2 on errors;
* ``verify`` — evaluate a congruence at every prime of a window with the
  exact-rational oracle and print a PASS/FAIL table;
* ``identities`` — generate and dump the relation basis at a modulus;
* ``verify-certificate`` — arithmetically replay a dumped certificate.

Expression grammar (ASCII, whitespace-insensitive)::

    statement := expr [ "=" expr "mod" "p" "^" SINT ]
    expr      := term (("+" | "-") term)*
    term      := factor (("*" | "/") factor)*   a / b is a * inv(b)
    factor    := ("+" | "-") factor | atom
    atom      := INT [ "/" INT ]          rational literal, except after "/":
                                          1/2/3 is 1/6 and p/3/4 is p/12
               | "p" [ "^" SINT ]         power of the prime
               | "H" "(" parts ")"        multiple harmonic sum H_{p-1}(s)
               | "inv" "(" expr ")"       inverse of a unit series
               | NAME "(" args ")"        named quantity (binp, apery, ...)
               | "(" expr ")"

The parser lives in :mod:`padicmhs.quantities`, which also lists the
quantity atoms.  Their polynomial arguments are expressions of this same
grammar, e.g. ``binpoly(2*p;p)`` or ``rat((p^2-1)/(p+1))``.

``prove`` and ``verify`` accept either an inline congruence or a path to a
statement file (one congruence per line, ``#`` comments).  ``prove`` expands
quantity atoms at the congruence's modulus power unless ``--order`` asks for
more; ``verify`` never expands them and evaluates every atom at each prime
with the oracle.

Each subcommand imports the engine layers it runs when it runs: ``expand``,
``valuation``, ``prove`` and ``identities`` the expansions and the prover,
``verify`` the oracle, ``prove`` and ``verify-certificate`` the certificate
core, which is all that ``verify-certificate`` loads besides the parser.
``argparse`` is imported when :func:`main` first builds the parser.
"""

from __future__ import annotations

import contextlib
import operator
import os
import sys
import types
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

from . import __version__
from .arith import INFINITY, padic_valuation
from .quantities import ExprAst, _fold, parse

if TYPE_CHECKING:
    import argparse

    from .oracle import PrimeWindow
    from .series import MhsSeries

__all__ = [
    "eval_at_prime",
    "eval_series",
    "eval_statement",
    "main",
]

# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


#: The binary operator nodes, for series and for values at a prime alike.
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def eval_series(ast: ExprAst, order: int, cache_dir=None) -> MhsSeries:
    """Evaluate an expression node in the series algebra at ``order``."""
    from .series import MhsSeries

    kind = ast.kind
    if kind == "lit":
        return MhsSeries.constant(ast.payload, None)
    if kind == "p":
        return MhsSeries.term(1, ast.payload, (), None)
    if kind == "H":
        return MhsSeries.term(1, 0, ast.payload, None)
    if kind == "quantity":
        from .expansions import expand_quantity

        return expand_quantity(ast.payload, order, cache_dir=cache_dir)
    if kind in _BINARY:
        left, right = (eval_series(child, order, cache_dir) for child in ast.children)
        return _BINARY[kind](left, right)
    if kind == "neg":
        return eval_series(ast.children[0], order, cache_dir).scale(-1)
    if kind == "inv":
        s = eval_series(ast.children[0], order, cache_dir)
        if s.order is None and any(key != (0, ()) for key in s.terms):
            s = s.truncate(order)  # exact units may have infinite inverses
        return s.invert_unit()
    if kind == "cong":
        raise ValueError("a congruence is a statement, not a series expression")
    raise ValueError(f"unknown AST node {kind!r}")


def eval_statement(
    ast: ExprAst, cache_dir=None, order: int | None = None
) -> tuple[MhsSeries, int]:
    """Evaluate a congruence node ``lhs = rhs mod p^n``: ((lhs - rhs) to O(p^n), n).

    Quantity atoms are expanded at the modulus power, or at ``order`` when
    that is larger.  A side known only below p^n says nothing modulo p^n
    and is refused with ValueError.
    """
    if ast.kind != "cong":
        raise ValueError("expected a congruence '<expr> = <expr> mod p^<n>'")
    n = ast.payload
    work = n if order is None else max(n, order)
    lhs, rhs = (eval_series(side, work, cache_dir) for side in ast.children)
    for name, side in (("lhs", lhs), ("rhs", rhs)):
        if side.order is not None and side.order < n:
            raise ValueError(f"{name} is only known to O(p^{side.order}), cannot assert mod p^{n}")
    return (lhs - rhs).truncate(n), n


def _nodes(ast: ExprAst):
    """Every node of an expression tree, the root first."""
    yield ast
    for child in ast.children:
        yield from _nodes(child)


def eval_at_prime(ast: ExprAst, p: int, work_budget: int | None = None) -> Fraction:
    """Exact value of an expression node at the prime p, by the oracle alone.

    No series expansion is involved: ``H`` atoms are summed directly and
    quantity atoms go through :func:`padicmhs.oracle.eval_quantity`, which
    raises ``WorkBudgetExceeded`` when the direct sum is over
    ``work_budget`` (None: the oracle's ``DEFAULT_WORK_BUDGET``).
    """
    from .oracle import DEFAULT_WORK_BUDGET, eval_mhs, eval_quantity

    if work_budget is None:
        work_budget = DEFAULT_WORK_BUDGET
    kind = ast.kind
    if kind == "lit":
        return ast.payload
    if kind == "p":
        return Fraction(p) ** ast.payload
    if kind == "H":
        return eval_mhs(p - 1, ast.payload)
    if kind == "quantity":
        return eval_quantity(ast.payload, p, work_budget)
    values = [eval_at_prime(child, p, work_budget) for child in ast.children]
    if kind in _BINARY:
        return _BINARY[kind](*values)
    if kind == "neg":
        return -values[0]
    if kind == "inv":
        if padic_valuation(values[0], p) != 0:
            raise ValueError(f"inv of a value that is not a p-adic unit at p={p}")
        return 1 / values[0]
    raise ValueError(f"no value at a prime for {kind!r} nodes")


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _load_statements(arg: str) -> list[str]:
    """Inline congruence text, or the lines of a statement file."""
    if os.path.isfile(arg):
        lines = []
        with open(arg, "r", encoding="ascii") as fh:
            for raw in fh:
                line = raw.strip()
                if line and not line.startswith("#"):
                    lines.append(line)
        if not lines:
            raise ValueError(f"statement file {arg!r} contains no statements")
        return lines
    return [arg]


def _parse_window(text: str) -> PrimeWindow:
    """argparse type: a prime window ``lo..hi`` of integers with lo <= hi."""
    import argparse

    from .oracle import PrimeWindow

    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdigit() or not hi.isdigit():
        raise argparse.ArgumentTypeError(f"expected 'lo..hi' with integers lo <= hi, got {text!r}")
    try:
        return PrimeWindow(int(lo), int(hi))
    except ValueError as exc:  # lo > hi
        raise argparse.ArgumentTypeError(str(exc)) from exc


DEFAULT_ORDER = 8


def _int_at_least(low: int):
    """argparse type: an int >= ``low`` (anything else is a usage error)."""

    def convert(text: str) -> int:
        import argparse

        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return convert


def cmd_expand(args) -> int:
    ast = parse(args.expr)
    if ast.kind == "cong":
        raise ValueError("expand takes an expression; use prove/verify for congruences")
    order = DEFAULT_ORDER if args.order is None else args.order
    series = eval_series(ast, order, args.cache_dir)
    print(series.render())
    return 0


def cmd_valuation(args) -> int:
    from .prover import provable_valuation

    ast = parse(args.expr)
    if ast.kind == "cong":
        raise ValueError("valuation takes an expression, not a congruence")
    order = DEFAULT_ORDER if args.order is None else args.order
    series = eval_series(ast, order, args.cache_dir)
    v = provable_valuation(series, cache_dir=args.cache_dir)
    # an exact zero series is provable to the full working order
    print(order if v is INFINITY else v)
    return 0


def cmd_prove(args) -> int:
    from .certificate import all_proved, dump_certificates
    from .prover import prove_mixed

    statements = _load_statements(args.congruence)
    every_proved = True
    parts = []  # the certificate parts of every proved statement
    for text in statements:
        series, n = eval_statement(parse(text), args.cache_dir, args.order)
        certs = prove_mixed(series, n, args.cache_dir)
        proved = all_proved(certs)
        every_proved = every_proved and proved
        print(f"{'PROVED' if proved else 'UNPROVEN'}: {text}")
        for cert in certs:
            print(
                f"  part modulus p^{cert.modulus_power}: {cert.verdict}"
                f" ({len(cert.combination)} relation(s))"
            )
        if proved:
            parts += certs
    dump = dump_certificates(parts) if parts else ""
    if args.dump and not dump:
        print(f"no statement proved; nothing written to {args.dump}")
    elif args.dump:
        with open(args.dump, "w", encoding="ascii") as fh:
            fh.write(dump)
        print(f"certificates written to {args.dump}")
    elif dump and args.show_certificates:
        print(dump, end="")
    return 0 if every_proved else 1


def cmd_verify(args) -> int:
    from .oracle import PrimeWindow, check_numeric

    statements = _load_statements(args.congruence)
    window = PrimeWindow() if args.primes is None else args.primes
    ok = True
    for text in statements:
        ast = parse(text)
        if ast.kind != "cong":
            raise ValueError("expected a congruence '<expr> = <expr> mod p^<n>'")
        nodes = list(_nodes(ast))
        if any(node.kind == "quantity" and node.payload.name == "zetap" for node in nodes):
            raise ValueError(
                "verify evaluates every atom at each prime, and zetap(k) is a "
                "p-adic limit with no exact value at a single prime; use prove"
            )
        # a prime is skipped where a literal is not p-integral or a nonzero
        # constant divisor (an inv argument with no p, H or quantity) is not
        # a p-adic unit
        dens = [node.payload.denominator for node in nodes if node.kind == "lit"]
        for node in nodes:
            if node.kind == "inv" and all(
                sub.kind not in ("p", "H", "quantity") for sub in _nodes(node.children[0])
            ):
                try:
                    num, den = _fold(node.children[0])
                except ValueError:  # an inverse of zero inside; evaluation reports it
                    continue
                if num:
                    value = num[0] / den[0]
                    dens += [value.numerator, value.denominator]
        lhs, rhs = ast.children

        def diff(p):
            if any(d % p == 0 for d in dens):
                return None  # a literal is not p-integral
            return eval_at_prime(lhs, p, args.work_budget) - eval_at_prime(
                rhs, p, args.work_budget
            )

        report = check_numeric(diff, window, required=ast.payload)
        print(f"verify: {text}")
        print(report.render())
        ok = ok and report.passed
    return 0 if ok else 1


def cmd_identities(args) -> int:
    from .prover import generate_relations

    basis = generate_relations(args.modulus, cache_dir=args.cache_dir)
    print(
        f"relation basis at modulus p^{args.modulus}: "
        f"rank {basis.rank} over {len(basis.columns)} compositions"
    )
    if args.dump:
        with open(args.dump, "w", encoding="ascii") as fh:
            fh.write(basis.dump())
        print(f"basis written to {args.dump}")
    else:
        print(basis.dump(), end="")
    return 0


def cmd_verify_certificate(args) -> int:
    from .certificate import verify_certificate_text

    with open(args.path, "r", encoding="ascii") as fh:
        text = fh.read()
    ok, message = verify_certificate_text(text)
    print(message)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not change it.

    Each subcommand takes only the options it reads: ``--order`` and
    ``--cache-dir`` for the commands that expand, ``--cache-dir`` for
    ``identities``, ``--primes`` and ``--work-budget`` for ``verify``.
    """
    import argparse

    class _CommandParser(argparse.ArgumentParser):
        """Subcommand parser that reads ``-H(1)``-style arguments as positionals.

        argparse takes any unknown token that starts with ``-`` for an option,
        so an expression such as ``-H(1)`` or ``-hres(3)`` would be rejected.
        The only single-dash option is ``-h``; every other single-dash token is
        an expression.  Long options (``--order`` etc.) are parsed as before.
        """

        def _parse_optional(self, arg_string):
            if (
                arg_string.startswith("-")
                and not arg_string.startswith("--")
                and arg_string not in self._option_string_actions
            ):
                return None
            return super()._parse_optional(arg_string)

    order = argparse.ArgumentParser(add_help=False)
    order.add_argument(
        "--order",
        type=_int_at_least(0),
        default=None,
        help="truncation order for series evaluation (default 8 for "
        "expand/valuation; prove expands congruence statements at their "
        "modulus power unless --order asks for more)",
    )
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="directory for cached relation bases (default: PADICMHS_CACHE_DIR "
        "or a user cache directory)",
    )
    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument(
        "--primes",
        type=_parse_window,
        default=None,
        help="prime window lo..hi for numeric checks (default 11..97)",
    )
    oracle.add_argument(
        "--work-budget",
        type=_int_at_least(0),
        default=None,
        help="oracle work budget, in the steps of work that eval_quantity charges",
    )

    parser = argparse.ArgumentParser(
        prog="padicmhs",
        description="Expand prime-indexed quantities into p-adic series of "
        "multiple harmonic sums, prove supercongruences against generated "
        "double-shuffle relations, and verify them numerically.",
    )
    parser.add_argument(
        "--version", action="version", version=f"padicmhs {__version__}"
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser
    )

    p = sub.add_parser("expand", parents=[order, cache], help="expand an expression")
    p.add_argument("expr")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser(
        "valuation", parents=[order, cache], help="proved valuation lower bound"
    )
    p.add_argument("expr")
    p.set_defaults(func=cmd_valuation)

    p = sub.add_parser(
        "prove", parents=[order, cache], help="prove a congruence symbolically"
    )
    p.add_argument("congruence", help="inline congruence or statement file")
    p.add_argument("--dump", default=None, help="write certificates to a file")
    p.add_argument(
        "--show-certificates",
        action="store_true",
        help="print certificate text after the verdicts",
    )
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser(
        "verify", parents=[oracle], help="check a congruence numerically"
    )
    p.add_argument("congruence", help="inline congruence or statement file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "identities", parents=[cache], help="generate and dump a relation basis"
    )
    p.add_argument(
        "--modulus", type=_int_at_least(1), required=True, help="modulus power n"
    )
    p.add_argument("--dump", default=None, help="write the basis to a file")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser(
        "verify-certificate", help="arithmetically replay a certificate file"
    )
    p.add_argument("path")
    p.set_defaults(func=cmd_verify_certificate)
    return parser


def _quietly(stream, method: str, *args) -> None:
    """``stream.<method>(*args)``, dropped when the reader has left the pipe
    early (``| head``); the descriptor then points at os.devnull, so later
    output and the flush at interpreter exit are dropped too."""
    try:
        getattr(stream, method)(*args)
    except BrokenPipeError:
        with contextlib.suppress(OSError, ValueError):  # no descriptor in memory
            fd, null = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # a closed stdout ends the output, not the command, which returns its own code
    stdout = sys.stdout
    quiet = types.SimpleNamespace(write=lambda text: _quietly(stdout, "write", text))
    with contextlib.redirect_stdout(quiet):
        try:
            code = args.func(args)
            _quietly(stdout, "flush")  # a block-buffered pipe may break only here
            return code
        except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
