"""End-to-end tests for the command-line front end: grammar, evaluation,
subcommand behavior, exit codes, and the render/parse round trip."""

import io
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import padicmhs
from padicmhs import clear_caches, cli, quantities
from padicmhs.arith import padic_valuation
from padicmhs.cli import eval_series, eval_statement, main
from padicmhs.oracle import PrimeWindow, eval_at_prime, eval_series_terms
from padicmhs.prover import RelationBasis
from padicmhs.quantities import ExprAst, ExprSyntaxError, parse
from padicmhs.series import MhsSeries
from reference_sums import check_expansion

APPENDIX_EXPR = "12 - 9*binp(2,1,1) + 2*binp(3,1,1) - 24*p^3*H(3)"


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


class TestParse:
    def test_appendix_expression_parses(self):
        ast = parse(APPENDIX_EXPR)
        assert isinstance(ast, ExprAst)
        assert ast.kind == "sub"

    def test_single_mhs_atom(self):
        ast = parse("H(2,1)")
        assert ast.kind == "H"
        assert ast.payload == (2, 1)

    def test_empty_mhs_atom(self):
        assert parse("H()").payload == ()

    def test_incomplete_mod_is_syntax_error(self):
        with pytest.raises(ExprSyntaxError):
            parse("mod p^")

    def test_congruence_node(self):
        ast = parse("H(1) = 1 mod p^2")
        assert ast.kind == "cong"
        assert ast.payload == 2
        assert ast.children[0].kind == "H"
        assert ast.children[1].kind == "lit"

    def test_unknown_atom_lists_known_names(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("2 * hp(3)")
        msg = str(exc.value)
        assert "hp" in msg and "apery" in msg and "binp" in msg
        assert "position" in msg

    def test_error_position_reported(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("1 + ")
        assert exc.value.pos == 4

    def test_trailing_input_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 2")

    def test_bad_h_part(self):
        with pytest.raises(ExprSyntaxError):
            parse("H(0)")
        with pytest.raises(ExprSyntaxError):
            parse("H(2,-1)")

    def test_literal_division_by_zero(self):
        with pytest.raises(ExprSyntaxError):
            parse("1/0")

    def test_negative_prime_exponent(self):
        ast = parse("p^-2")
        assert ast.kind == "p" and ast.payload == -2

    def test_bare_p_is_first_power(self):
        ast = parse("p")
        assert ast.kind == "p" and ast.payload == 1

    def test_rational_literal(self):
        assert parse("22/7").payload == Fraction(22, 7)

    def test_nested_parens_inside_quantity(self):
        ast = parse("rat((2*p-1)/(3*p))")
        assert ast.kind == "quantity"

    def test_whitespace_insensitive(self):
        a = eval_series(parse("12-9*binp(2,1,1)+2*binp(3,1,1)"), 4)
        b = eval_series(parse("  12 - 9 * binp( 2 , 1 , 1 ) + 2*binp(3,1,1) "), 4)
        assert a.terms == b.terms and a.order == b.order

    def test_quantity_argument_error_has_one_position(self):
        # counted in the whole expression: 'q' is the 9th character
        with pytest.raises(ExprSyntaxError) as exc:
            parse("binpoly(q;p)")
        assert exc.value.pos == 8
        assert str(exc.value).count("position") == 1
        with pytest.raises(ExprSyntaxError) as exc:
            parse("1 + rat(p/(p-p))")
        assert exc.value.pos == 8 and "zero denominator" in str(exc.value)

    def test_division_is_a_term_operator(self):
        # a / b is a * inv(b); an INT/INT literal stays one lit node
        ast = parse("p/(1+p)")
        assert ast.kind == "mul" and ast.children[1].kind == "inv"
        assert parse("22/7") == ExprAst("lit", Fraction(22, 7))
        assert eval_series(parse("1/2/3"), 3) == MhsSeries.constant(Fraction(1, 6))
        assert eval_series(parse("p/3/4"), 3) == MhsSeries.term(Fraction(1, 12), 1, ())

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("binp(2,1")
        with pytest.raises(ExprSyntaxError):
            parse("(1 + p")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class TestEval:
    def test_simple_terms(self):
        s = eval_series(parse("2/3 + p^2*H(1) - H(2,1)"), 9)
        assert s.order is None
        assert s.terms == {
            (0, ()): Fraction(2, 3),
            (2, (1,)): Fraction(1),
            (0, (2, 1)): Fraction(-1),
        }

    def test_unary_minus_and_grouping(self):
        s = eval_series(parse("-(1 - p) * 2"), 6)
        assert s.terms == {(0, ()): Fraction(-2), (1, ()): Fraction(2)}

    def test_inverse_requires_unit(self):
        with pytest.raises(ValueError):
            eval_series(parse("inv(p)"), 5)

    def test_inverse_of_exact_series_truncates(self):
        s = eval_series(parse("inv(rat(1-p))"), 3)
        assert s.order == 3
        assert s.terms == {
            (0, ()): Fraction(1),
            (1, ()): Fraction(1),
            (2, ()): Fraction(1),
        }

    def test_congruence_not_a_series(self):
        with pytest.raises(ValueError):
            eval_series(parse("H(1) = 0 mod p^2"), 4)

    def test_statement_evaluates_at_modulus(self):
        series, n = eval_statement(parse("apery() = 1 mod p^3"))
        assert n == 3
        assert series.order == 3
        assert series.terms == {}  # apery() is 1 + O(p^3)

    def test_statement_rejects_plain_expression(self):
        with pytest.raises(ValueError):
            eval_statement(parse("H(1)"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


class TestExpandCommand:
    def test_curious_pinned(self, capsys):
        assert main(["expand", "curious(3,3)", "--order", "5"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "-2 * p^2 * H(2,1) + 2 * p^4 * H(4,1) + O(p^5)"

    def test_apery_pinned(self, capsys):
        assert main(["expand", "apery()", "--order", "4"]) == 0
        assert capsys.readouterr().out.strip() == "1 + 2/3 * p^3 * H(2,1) + O(p^4)"

    def test_rational_pinned(self, capsys):
        assert main(["expand", "rat(p^2)", "--order", "9"]) == 0
        assert capsys.readouterr().out.strip() == "p^2"

    def test_psum_with_positive_remainder_below_the_floor(self, capsys):
        # psum splits [1, p^2+p+1] at p^2; at order 3 its factors were once
        # requested below their valuation floors, and the product lost order
        text = "psum(p^2+p+1;0;2,2)"
        assert main(["expand", text, "--order", "3"]) == 0
        series = eval_series(parse(text), 3)
        assert capsys.readouterr().out.strip() == series.render()
        report = check_expansion(parse(text).payload, series, PrimeWindow(11, 23))
        assert report.passed, report.render()

    def test_psum_with_negative_remainder_below_the_floor(self, capsys):
        # psum splits [1, p^2] at p^2-p; from an empty memo the factors of
        # that split were once requested below their valuation floors, and
        # the run exited 2 with "cannot strengthen O(p^-4) to O(p^-3)"
        clear_caches()
        text = "psum(p^2-p;0;1,-2)"
        assert main(["expand", text, "--order", "3"]) == 0
        assert capsys.readouterr().out.strip() == "1/36 * p - 1/9 * p^2 + O(p^3)"
        series = eval_series(parse(text), 3)
        report = check_expansion(parse(text).payload, series, PrimeWindow(11, 29))
        assert report.passed, report.render()

    def test_congruence_rejected(self, capsys):
        assert main(["expand", "H(1) = 0 mod p^2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_output_is_ascii(self, capsys):
        for expr in ["curious(3,3)", "apery()", "zetap(3)", "hres(2)"]:
            assert main(["expand", expr, "--order", "5"]) == 0
        out = capsys.readouterr().out
        out.encode("ascii")


class TestValuationCommand:
    def test_appendix_expression(self, capsys):
        assert main(["valuation", APPENDIX_EXPR, "--order", "7"]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_zero_prints_order(self, capsys):
        assert main(["valuation", "0"]) == 0
        assert capsys.readouterr().out.strip() == "8"
        assert main(["valuation", "0", "--order", "5"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_wolstenholme(self, capsys):
        assert main(["valuation", "p*H(1)+p^2*H(1,1)", "--order", "4"]) == 0
        assert capsys.readouterr().out.strip() == "3"


class TestProveCommand:
    def test_wolstenholme_proved(self, capsys):
        assert main(["prove", "p*H(1) + p^2*H(1,1) = 0 mod p^3"]) == 0
        assert "PROVED" in capsys.readouterr().out

    def test_false_statement_unproven(self, capsys):
        assert main(["prove", "H(1) = 1 mod p^1"]) == 1
        assert "UNPROVEN" in capsys.readouterr().out

    def test_apery_binomial_product(self, capsys):
        assert main(["prove", "binp(2,1)*apery() = 2 mod p^5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PROVED")

    def test_statement_file(self, tmp_path, capsys):
        path = tmp_path / "statements.txt"
        path.write_text(
            "# classical congruences\n"
            "p*H(1) + p^2*H(1,1) = 0 mod p^3\n"
            "\n"
            "H(2) = 0 mod p^1\n",
            encoding="ascii",
        )
        assert main(["prove", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PROVED") == 2

    def test_empty_statement_file_is_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n", encoding="ascii")
        assert main(["prove", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_syntax_error_exit_code(self, capsys):
        assert main(["prove", "mod p^"]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "position" in err


class TestVerifyCommand:
    def test_wolstenholme_passes(self, capsys):
        assert main(
            ["verify", "p*H(1) + p^2*H(1,1) = 0 mod p^3", "--primes", "11..31"]
        ) == 0
        out = capsys.readouterr().out
        assert "summary: PASS" in out
        assert "11" in out and "31" in out

    def test_false_statement_fails(self, capsys):
        assert main(["verify", "H(1) = 1 mod p^1", "--primes", "11..23"]) == 1
        assert "summary: FAIL" in capsys.readouterr().out

    def test_bad_window_is_error(self, capsys):
        # argparse reports flag-value errors itself and exits with code 2
        with pytest.raises(SystemExit) as exc:
            main(["verify", "H(1) = 0 mod p^2", "--primes", "11-23"])
        assert exc.value.code == 2

    def test_reversed_window_is_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "H(1) = 0 mod p^2", "--primes", "97..11"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("window", ["97..11", "11-23", "a..b"])
    def test_window_error_names_the_rule(self, capsys, window):
        with pytest.raises(SystemExit):
            main(["verify", "H(1) = 0 mod p^2", "--primes", window])
        err = capsys.readouterr().err
        assert "lo <= hi" in err and "invalid _parse_window value" not in err

    def test_window_with_no_prime_is_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "H(1) = 0 mod p^1", "--primes", "24..28"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "prime window 24..28 holds no prime" in captured.err

    def test_window_wider_than_the_bound_is_refused_before_listing_primes(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr("padicmhs.oracle.primes_in", lambda lo, hi: pytest.fail("listed"))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "H(1) = 0 mod p^1", "--primes", "2..1000000000"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "wider than 10,000 integers" in captured.err
        monkeypatch.undo()
        assert main(["verify", "p = 0 mod p^1", "--primes", "10001..20000"]) == 0
        with pytest.raises(SystemExit):
            main(["verify", "p = 0 mod p^1", "--primes", "10001..20001"])

    def test_window_primes_are_listed_once_per_command(self, tmp_path, capsys, monkeypatch):
        calls = []
        primes_in = padicmhs.oracle.primes_in
        monkeypatch.setattr(
            "padicmhs.oracle.primes_in", lambda lo, hi: calls.append((lo, hi)) or primes_in(lo, hi)
        )
        path = tmp_path / "two.txt"
        path.write_text("p*H(1) = 0 mod p^1\nH(1) = 0 mod p^1\n")
        assert main(["verify", str(path), "--primes", "11..13"]) == 0
        assert calls == [(11, 13)]
        assert capsys.readouterr().out.count("summary: PASS") == 2

    def test_quantity_over_budget_is_refused(self, capsys):
        # hres(9) at p=11 needs 11^9 - 1 summation steps, far over the budget;
        # the series of hres(9) vanishes below p^9, so only the oracle refuses
        assert main(["verify", "hres(9) = 0 mod p^1", "--primes", "11..11"]) == 2
        out = capsys.readouterr().out
        assert "REFUSED" in out and "summary: UNDECIDED" in out
        assert "inf" not in out

    def test_binomial_over_budget_is_refused_at_once(self, capsys):
        # binp(2,1,4) at p=97 is C(2*97^4, 97^4), charged 2*97^4 > 10^8
        t0 = time.perf_counter()
        assert main(["verify", "binp(2,1,4) = 0 mod p^1", "--primes", "97..97"]) == 2
        assert time.perf_counter() - t0 < 1.0
        out = capsys.readouterr().out
        assert "refused  REFUSED" in out and "summary: UNDECIDED" in out

    def test_window_with_every_prime_skipped_is_undecided(self, capsys):
        assert main(["verify", "p*H(1)/3 = 0 mod p^1", "--primes", "3..3"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [
            "summary: UNDECIDED",
            "skipped (prime divides a coefficient denominator): 3",
        ]

    def test_pass_and_refused_window_is_undecided(self, capsys):
        argv = ["verify", "hres(3) = 0 mod p^1", "--primes", "11..13", "--work-budget", "2000"]
        assert main(argv) == 2
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[3:6]]
        assert rows == [
            ["11", "1", "6", "PASS"],
            ["13", "1", "refused", "REFUSED"],
            ["summary:", "UNDECIDED"],
        ]

    def test_a_failing_statement_outweighs_an_undecided_one(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("H(1) = 1 mod p^1\nbinp(2,1,4) = 0 mod p^1\n")
        assert main(["verify", str(path), "--primes", "97..97"]) == 1
        out = capsys.readouterr().out
        assert "summary: FAIL" in out and "summary: UNDECIDED" in out

    def test_window_with_every_prime_refused_is_undecided(self, capsys):
        # a run that decided nothing is not a counterexample: exit 2, not 1;
        # the prime column is as wide as the widest prime
        window = "1000000000000000000..1000000000000000100"
        assert main(["verify", "H(1) = 0 mod p^1", "--primes", window]) == 2
        header, rule, *rows, summary = capsys.readouterr().out.splitlines()[1:]
        end = header.index("achieved") + len("achieved")
        assert summary == "summary: UNDECIDED"
        assert len(rows) == 4 and len(rule) == len(header)
        for row in rows:
            assert row[end - len("refused"):end] == "refused" and row[end] == " "

    def test_curious_congruence_passes(self, capsys):
        stmt = "curious(3,3) = -2*p^2*H(2,1) + 2*p^4*H(4,1) mod p^6"
        assert main(["verify", stmt, "--primes", "11..13"]) == 0
        assert "summary: PASS" in capsys.readouterr().out

    def test_wrong_expansion_is_not_consulted(self, capsys, monkeypatch):
        """A false claim FAILs even when the expansion layer agrees with it."""
        wrong = MhsSeries({(2, (1,)): 2}, 6)  # hres(2) = p^2*H(1) mod p^6 (cr1)

        def patched(spec, order, cache_dir=None):
            assert spec.name == "hres"
            return wrong

        monkeypatch.setattr("padicmhs.expansions.expand_quantity", patched)
        stmt = "hres(2) = 2*p^2*H(1) mod p^6"
        assert main(["expand", "hres(2)", "--order", "6"]) == 0
        assert capsys.readouterr().out == "2 * p^2 * H(1) + O(p^6)\n"
        assert main(["verify", stmt, "--primes", "11..23"]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 6  # five primes and the summary

    def test_zetap_is_refused(self, capsys):
        assert main(["verify", "zetap(3) = 0 mod p^1", "--primes", "11..13"]) == 2
        captured = capsys.readouterr()
        assert "zetap" in captured.err and captured.out == ""

    def test_literal_denominator_primes_are_skipped(self, capsys):
        stmt = "p*H(1) + p^2*H(1,1) = 1/13 - 1/13 mod p^3"
        assert main(["verify", stmt, "--primes", "11..17"]) == 0
        out = capsys.readouterr().out
        assert "skipped (prime divides a coefficient denominator): 13" in out
        assert "    13 " not in out

    def test_literal_divisor_primes_are_skipped(self, capsys):
        # a literal divisor skips the primes dividing it, like a literal denominator
        reports = []
        for stmt in ("1/3*p*H(1) = 0 mod p^1", "p*H(1)/3 = 0 mod p^1", "inv(3)*p*H(1) = 0 mod p^1"):
            assert main(["verify", stmt, "--primes", "2..7"]) == 0
            header, report = capsys.readouterr().out.split("\n", 1)
            assert header == f"verify: {stmt}"
            reports.append(report)
        assert reports[0] == reports[1] == reports[2]
        assert "skipped (prime divides a coefficient denominator): 3" in reports[0]

    def test_constant_divisor_primes_are_skipped(self, capsys):
        # every constant divisor is folded to its value first, whatever its form
        reports = []
        for divisor in ("3", "(-3)", "(1+2)", "(6-3*1)", "-(-3)"):
            stmt = f"p*H(1)/{divisor} = 0 mod p^1"
            assert main(["verify", stmt, "--primes", "2..7"]) == 0, stmt
            reports.append(capsys.readouterr().out.split("\n", 1)[1])
        assert all(report == reports[0] for report in reports)
        assert "skipped (prime divides a coefficient denominator): 3" in reports[0]

    def test_constant_divisor_denominator_primes_are_skipped(self, capsys):
        assert main(["verify", "p*H(1)/(2/3) = 0 mod p^1", "--primes", "2..7"]) == 0
        assert "skipped (prime divides a coefficient denominator): 2, 3" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "pair",
        [
            ("rat(1/3)*p = 0 mod p^1", "p/3 = 0 mod p^1"),
            ("sumpoly(1/3;1) = rat((1-p)/3) mod p^2", "1/3*sumpoly(1;1) = (1-p)/3 mod p^2"),
        ],
    )
    def test_quantity_argument_denominators_skip_like_literal_ones(self, capsys, pair):
        # a constant rat denominator and sumpoly's coefficient denominators
        # skip the primes dividing them, as the same literal outside would
        codes, reports = [], []
        for stmt in pair:
            codes.append(main(["verify", stmt, "--primes", "2..7"]))
            reports.append(capsys.readouterr().out.split("\n", 1)[1])
        assert codes[0] == codes[1] and reports[0] == reports[1]
        assert reports[0].endswith("skipped (prime divides a coefficient denominator): 3\n")

    def test_one_number_gets_one_verdict_in_every_spelling(self, capsys):
        # p/(p+3) has the coefficient denominator 3 in every spelling, and
        # prove proves each: a rat, a quotient and an inv all skip p = 3
        reports = []
        for stmt in ("rat(1/(p+3))*p = 0 mod p^1", "p/(p+3) = 0 mod p^1", "p*inv(p+3) = 0 mod p^1"):
            assert main(["verify", stmt, "--primes", "2..7"]) == 0, stmt
            reports.append(capsys.readouterr().out.split("\n", 1)[1])
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].endswith("skipped (prime divides a coefficient denominator): 3\n")

    @pytest.mark.parametrize(
        "stmt, prime",
        [("rat(1/(p-11)) = 0 mod p^1", 11), ("inv(p) = 0 mod p^1", 11), ("p/(p-11) = 0 mod p^1", 11)],
    )
    def test_vanishing_or_non_unit_denominator_is_error(self, capsys, stmt, prime):
        assert main(["verify", stmt, "--primes", f"{prime}..{prime}"]) == 2
        assert capsys.readouterr().out == ""

    def test_negative_psum_bound_primes_are_skipped(self, capsys):
        # below p = 20 the range (p-20, p] holds the index 0: no value there
        assert main(["verify", "p*psum(p;p-20;1) = 1 mod p^1", "--primes", "11..29"]) == 0
        out = capsys.readouterr().out
        assert [line.split() for line in out.splitlines()[3:5]] == [
            ["23", "1", "1", "PASS"],
            ["29", "1", "1", "PASS"],
        ]
        assert out.endswith(
            "summary: PASS\n"
            "skipped (a power-sum range needs a lower bound M >= 0): 11, 13, 17, 19\n"
        )

    @pytest.mark.parametrize("divisor", ["(1-1)", "(2*3-6)", "inv(0)"])
    def test_zero_constant_divisor_is_error(self, capsys, divisor):
        assert main(["verify", f"p*H(1)/{divisor} = 0 mod p^1", "--primes", "2..7"]) == 2
        assert "unit" in capsys.readouterr().err

    def test_zero_literal_divisor_is_error(self, capsys):
        assert main(["verify", "p*H(1)/0 = 0 mod p^1", "--primes", "2..7"]) == 2
        assert "unit" in capsys.readouterr().err

    def test_non_unit_inverse_is_error(self, capsys):
        assert main(["verify", "inv(H(1)) = 0 mod p^1", "--primes", "11..11"]) == 2
        assert "unit" in capsys.readouterr().err

    def test_eval_at_prime_matches_series_terms(self):
        # an H-only expression: its value and its order-6 series agree mod p^6
        text = "(1 + p*H(1))*inv(1 - p^2*H(2)) - 3/4*p^-1*H(1,1)"
        series = eval_series(parse(text), 6)
        for p in (11, 13):
            diff = eval_at_prime(parse(text), p) - eval_series_terms(series, p)
            assert padic_valuation(diff, p) >= 6


# domain edges where expand and verify once disagreed: one refused what the
# other evaluated, or read the same empty range differently
DOMAIN_EDGES = [
    "binpoly(-p;1)",
    "binpoly(-p;0)",
    "binpoly(p;-1)",
    "binpoly(p-2*p^2;1)",
    "binpoly(p;p+1)",
    "psum(-p;0;1)",
    "psum(-p;1;1)",
    "psum(1-p;0;1)",
    "psum(-2*p;-p;1)",
    "psum(p;-p;1)",
    "psum(p-1;p;1,2)",
    "psum(p;p-20;1)",
]


class TestLayerAgreement:
    """expand and verify accept the same quantity texts and agree on their values."""

    @pytest.mark.parametrize("text", DOMAIN_EDGES)
    def test_expand_and_verify_agree(self, capsys, text):
        expanded = main(["expand", text])
        out, err = capsys.readouterr()
        try:
            parse(text)
        except ExprSyntaxError:
            # both refuse it at parse, with the same message
            assert expanded == 2 and out == ""
            assert main(["verify", f"{text} = 0 mod p^1", "--primes", "31..41"]) == 2
            assert capsys.readouterr() == ("", err)
            return
        assert expanded == 0
        body, tail, order = out.strip().rpartition("O(p^")
        if tail:  # "<terms> + O(p^k)": the terms, known mod p^k
            body, k = body.rstrip(" +") or "0", int(order.rstrip(")"))
        else:  # exact
            body, k = order, 8
        assert main(["verify", f"{text} = {body} mod p^{k}", "--primes", "31..41"]) == 0
        assert capsys.readouterr().out.count("PASS") == 4  # three primes and the summary


class TestBadInputs:
    def test_valuation_of_exact_prime_power(self, capsys):
        assert main(["valuation", "p^100"]) == 0
        assert capsys.readouterr().out.strip() == "100"

    def test_runtime_error_is_exit_2(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("scan limit reached")

        monkeypatch.setattr("padicmhs.prover.provable_valuation", refuse)
        assert main(["valuation", "p^2*H(1)"]) == 2
        assert capsys.readouterr().err == "error: scan limit reached\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "H(1)", "--order", "-3"],
            ["valuation", "p^2", "--order", "-1"],
            ["identities", "--modulus", "0"],
            ["identities", "--modulus", "-4"],
            ["verify", "H(1) = 0 mod p^1", "--work-budget", "-1"],
        ],
    )
    def test_negative_order_and_modulus_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be >=" in captured.err

    @pytest.mark.parametrize("power", ["0", "-1"])
    @pytest.mark.parametrize("command", ["prove", "verify"])
    def test_modulus_power_below_one_is_refused(self, capsys, command, power):
        # a congruence mod p^0 says nothing; verify once printed PASS for it
        argv = [command, f"H(1) = 5 mod p^{power}", "--primes", "11..13"]
        assert main(argv if command == "verify" else argv[:2]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"modulus power n must be >= 1, got {power} (at position 15)"
        assert captured.err == f"error: {message}\n"

    def test_vanishing_rat_denominator_is_exit_2(self, capsys):
        assert main(["verify", "rat(1/(p-11)) = 0 mod p^1", "--primes", "11..13"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rat denominator vanishes at p=11\n"

    @pytest.mark.parametrize(
        "argv,modulus",
        [
            # a weight-14 term at p-exponent 0 is a part modulo p^15
            (["valuation", "H(7,7)"], 15),
            (["prove", "H(7,7) = 0 mod p^1"], 15),
            (["expand", "curious(2,3)", "--order", "12"], 14),
        ],
    )
    def test_basis_above_the_cap_is_refused_at_once(self, tmp_path, capsys, argv, modulus):
        t0 = time.perf_counter()
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 2
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"modulus p^{modulus} " in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_order_zero_accepted(self, capsys):
        assert main(["expand", "H(1)", "--order", "0"]) == 0

    @pytest.mark.parametrize(
        "expr,expected", [("p^70*H(1)", "72"), ("p^60*H(1)", "62"), ("p^2*H(1)", "4")]
    )
    def test_exact_valuation_scan_starts_at_min_valuation(self, capsys, expr, expected):
        assert main(["valuation", expr]) == 0
        assert capsys.readouterr().out.strip() == expected


WOLSTENHOLME_NEGATED = "-p*H(1) - p^2*H(1,1) = 0 mod p^3"


class TestLeadingMinus:
    """An argument that starts with '-' is an expression or a file, not an option."""

    @pytest.mark.parametrize(
        "argv",
        [["expand", "-H(1)", "--order", "3"], ["expand", "--order", "3", "-H(1)"]],
    )
    def test_expand(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out == "-H(1)\n"

    def test_expand_expression_starting_with_h_is_not_help(self, capsys):
        assert main(["expand", "-hres(2)", "--order", "3"]) == 0
        assert capsys.readouterr().out == "-p * H(1) - 1/2 * p^2 * H(2) + O(p^3)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["valuation", "-p*H(1)-p^2*H(1,1)", "--order", "4"],
            ["valuation", "--order", "4", "-p*H(1)-p^2*H(1,1)"],
        ],
    )
    def test_valuation(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out == "3\n"

    @pytest.mark.parametrize(
        "command,options,first_line",
        [
            ("prove", ["--order", "3"], f"PROVED: {WOLSTENHOLME_NEGATED}"),
            ("verify", ["--primes", "11..23"], f"verify: {WOLSTENHOLME_NEGATED}"),
        ],
    )
    @pytest.mark.parametrize("options_first", [False, True])
    def test_statement_file(
        self, tmp_path, monkeypatch, capsys, command, options, first_line, options_first
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-wolstenholme.txt").write_text(
            WOLSTENHOLME_NEGATED + "\n", encoding="ascii"
        )
        args = ["-wolstenholme.txt"]
        argv = [command] + (options + args if options_first else args + options)
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(first_line + "\n")

    def test_parser_is_built_once(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        assert main(["valuation", "p*H(1)"]) == 0
        assert main(["valuation", "p^2*H(1)"]) == 0
        assert capsys.readouterr().out == "3\n4\n"

    def test_unknown_option_still_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["identities", "-x", "--modulus", "2"])
        assert exc.value.code == 2


# A minimal valid argv per subcommand, and the options each one does not read.
SUBCOMMAND_ARGV = {
    "expand": ["expand", "H(1)"],
    "valuation": ["valuation", "H(1)"],
    "prove": ["prove", "p*H(1) = 0 mod p^1"],
    "verify": ["verify", "p*H(1) = 0 mod p^1"],
    "identities": ["identities", "--modulus", "1"],
    "verify-certificate": ["verify-certificate", "missing.cert"],
}
UNREAD_OPTIONS = [
    (command, option)
    for command, options in [
        ("expand", ["--primes", "--work-budget"]),
        ("valuation", ["--primes", "--work-budget"]),
        ("prove", ["--primes", "--work-budget"]),
        ("verify", ["--order", "--cache-dir"]),
        ("identities", ["--order", "--primes", "--work-budget"]),
        ("verify-certificate", ["--order", "--cache-dir", "--primes", "--work-budget"]),
    ]
    for option in options
]
OPTION_VALUES = {"--order": "3", "--cache-dir": "cache", "--primes": "11..13", "--work-budget": "10"}


class TestSubcommandOptions:
    def test_fifteen_unread_option_slots(self):
        assert len(UNREAD_OPTIONS) == 15

    @pytest.mark.parametrize("command,option", UNREAD_OPTIONS)
    def test_unread_option_is_a_usage_error(self, tmp_path, monkeypatch, capsys, command, option):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(SUBCOMMAND_ARGV[command] + [option, OPTION_VALUES[option]])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestCertificateCommands:
    def test_dump_and_replay(self, tmp_path, capsys):
        cert = tmp_path / "wolstenholme.cert"
        assert main(
            ["prove", "p*H(1) + p^2*H(1,1) = 0 mod p^3", "--dump", str(cert)]
        ) == 0
        assert cert.exists()
        assert main(["verify-certificate", str(cert)]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out

    def test_tampered_certificate_rejected(self, tmp_path, capsys):
        cert = tmp_path / "good.cert"
        assert main(
            ["prove", "p*H(1) + p^2*H(1,1) = 0 mod p^3", "--dump", str(cert)]
        ) == 0
        text = cert.read_text(encoding="ascii")
        lines = text.splitlines(keepends=True)
        for i, line in enumerate(lines):
            if line.lstrip()[:1].isdigit() or line.lstrip().startswith("-"):
                coeff = line.split("*")[0].strip()
                lines[i] = line.replace(coeff, f"{coeff}00", 1)
                break
        bad = tmp_path / "bad.cert"
        bad.write_text("".join(lines), encoding="ascii")
        capsys.readouterr()
        assert main(["verify-certificate", str(bad)]) == 1

    def test_malformed_certificate_is_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.cert"
        path.write_text("garbage\n", encoding="ascii")
        assert main(["verify-certificate", str(path)]) == 2

    def _two_statement_dump(self, tmp_path, capsys) -> str:
        statements = tmp_path / "two.txt"
        statements.write_text(
            "p*H(1) + p^2*H(1,1) = 0 mod p^3\nH(1) = 0 mod p^1\n", encoding="ascii"
        )
        cert = tmp_path / "two.cert"
        assert main(["prove", str(statements), "--dump", str(cert)]) == 0
        capsys.readouterr()
        return cert.read_text(encoding="ascii")

    def test_one_certificate_holds_every_proved_statement(self, tmp_path, capsys):
        text = self._two_statement_dump(tmp_path, capsys)
        assert text.count("padicmhs-certificate") == 1
        assert main(["verify-certificate", str(tmp_path / "two.cert")]) == 0
        assert capsys.readouterr().out == "replayed 2 part(s) exactly\n"

    def test_tampered_second_statement_rejected(self, tmp_path, capsys):
        lines = self._two_statement_dump(tmp_path, capsys).splitlines(keepends=True)
        start = lines.index("part 2\n")
        i = next(i for i in range(start, len(lines)) if " * R[" in lines[i])
        mult, rest = lines[i].split(" * R", 1)
        lines[i] = f"{Fraction(mult) * 7} * R{rest}"
        bad = tmp_path / "bad.cert"
        bad.write_text("".join(lines), encoding="ascii")
        assert main(["verify-certificate", str(bad)]) == 1
        assert capsys.readouterr().out == "part 2 combination does not reproduce its target\n"

    @pytest.mark.parametrize("tail", ["junk\n", "copy"], ids=["line", "second-certificate"])
    def test_content_after_the_certificate_is_error(self, tmp_path, capsys, tail):
        text = self._two_statement_dump(tmp_path, capsys)
        path = tmp_path / "tailed.cert"
        path.write_text(text + (text if tail == "copy" else tail), encoding="ascii")
        assert main(["verify-certificate", str(path)]) == 2
        assert capsys.readouterr().err == "error: trailing content after 'end certificate'\n"

    @pytest.mark.parametrize(
        "old,new,error",
        [
            ("part 2\n", "part 3\n", "certificate parts out of order at part 2"),
            (
                "2/3 * R[s=(1);t=(1);u=()]",
                "2/3 * Q[s=(1);t=(1);u=()]",
                "malformed combination entry: '2/3 * Q[s=(1);t=(1);u=()]'",
            ),
            ("end part\npart 2", "part 2", "expected 'end part', got 'part 2'"),
            ("end part\npart 2", "end part 1\npart 2", "trailing text after 'end part'"),
        ],
        ids=["parts-out-of-order", "malformed-combination", "end-part-missing", "end-part-text"],
    )
    def test_malformed_part_is_error(self, tmp_path, capsys, old, new, error):
        text = self._two_statement_dump(tmp_path, capsys)
        assert text.count(old) == 1
        path = tmp_path / "malformed.cert"
        path.write_text(text.replace(old, new), encoding="ascii")
        assert main(["verify-certificate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_dump_with_nothing_proved_writes_no_file(self, tmp_path, capsys):
        cert = tmp_path / "un.cert"
        assert main(["prove", "H(1) = 0 mod p^3", "--dump", str(cert)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "UNPROVEN: H(1) = 0 mod p^3"
        assert out[-1] == f"no statement proved; nothing written to {cert}"
        assert not cert.exists()

    def test_show_certificates_prints_dump(self, capsys):
        assert main(
            ["prove", "p*H(1) + p^2*H(1,1) = 0 mod p^3", "--show-certificates"]
        ) == 0
        out = capsys.readouterr().out
        assert "padicmhs-certificate" in out
        assert "end certificate" in out


class TestIdentitiesCommand:
    def test_summary_and_dump(self, tmp_path, capsys):
        dump = tmp_path / "basis3.txt"
        assert main(["identities", "--modulus", "3", "--dump", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "rank 3" in out
        text = dump.read_text(encoding="ascii")
        assert text.startswith("padicmhs-basis")
        loaded = RelationBasis.load(text)
        assert loaded.rank == 3
        assert loaded.modulus_power == 3

    def test_dump_to_stdout(self, capsys):
        assert main(["identities", "--modulus", "2"]) == 0
        assert "padicmhs-basis" in capsys.readouterr().out

    def test_closed_stdout_is_not_an_error(self, tmp_path, capsys, monkeypatch):
        # the reader of a pipe has gone, as with `padicmhs identities ... | head -1`
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        argv = ["identities", "--modulus", "3", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_dump_into_missing_directory_is_exit_2(self, tmp_path, capsys):
        dump = tmp_path / "missing" / "basis.txt"
        assert main(["identities", "--modulus", "2", "--dump", str(dump)]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] ")


class TestStartupFootprint:
    def test_engine_import_loads_no_dataclasses(self):
        # the records are hand-written, so no process pays for dataclasses and inspect
        code = (
            "import sys, padicmhs.cli, padicmhs.oracle, padicmhs.prover;"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(padicmhs.__file__).parent.parent)}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout == "[]\n"

    def test_verify_loads_no_expansion_layer(self):
        # verify evaluates every atom with the oracle alone
        code = (
            "import sys, padicmhs.cli;"
            f"code = padicmhs.cli.main(['verify', {APPENDIX_EXPR + ' = 0 mod p^6'!r},"
            " '--primes', '11..13']);"
            "layers = ['expansions', 'powersums', 'prover', 'certificate'];"
            "print(code, [m for m in layers if 'padicmhs.' + m in sys.modules])"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(padicmhs.__file__).parent.parent)}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.splitlines()[-1] == "0 []"

    def test_clear_caches_loads_no_module(self):
        # clear_caches empties the tables of the loaded modules and imports none
        code = (
            "import sys, padicmhs, padicmhs.oracle as oracle;"
            "from padicmhs.quantities import QuantitySpec;"
            "oracle.eval_quantity(QuantitySpec('curious', (3, 3)), 13);"
            "oracle.eval_mhs(12, (2, 1));"
            "tables = (oracle.eval_mhs, oracle._lcm_steps);"
            "before = {m for m in sys.modules if m.startswith('padicmhs')};"
            "filled = [fn.cache_info().currsize > 0 for fn in tables];"
            "padicmhs.clear_caches();"
            "print(filled, [fn.cache_info().currsize for fn in tables],"
            " sorted({m for m in sys.modules if m.startswith('padicmhs')} - before))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(padicmhs.__file__).parent.parent)}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout == "[True, True] [0, 0] []\n"


class TestVersion:
    def test_version_string(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "padicmhs 0.1.0"


# ---------------------------------------------------------------------------
# render/parse round trip
# ---------------------------------------------------------------------------


class TestRoundTrip:
    COMPS = [
        (),
        (1,),
        (2,),
        (1, 1),
        (2, 1),
        (1, 2),
        (3,),
        (1, 1, 1),
        (4, 2),
        (2, 1, 3),
    ]

    def test_fifty_generated_series(self):
        rng = random.Random(20260814)
        for _ in range(50):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                key = (rng.randint(-3, 6), rng.choice(self.COMPS))
                c = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                terms[key] = terms.get(key, Fraction(0)) + c
            series = MhsSeries(
                {k: v for k, v in terms.items() if v}, None
            )
            back = eval_series(parse(series.render()), 12)
            assert back.order is None
            assert back.terms == series.terms


# ---------------------------------------------------------------------------
# the machine contract, fuzzed
# ---------------------------------------------------------------------------


def random_poly(rng: random.Random, rational: bool = False) -> str:
    """A polynomial in p of degree <= 2 with small (rational) coefficients."""
    terms = []
    for k in range(rng.randint(1, 3)):
        c = str(rng.randint(-1, 3))
        if rational and rng.random() < 0.5:
            c += f"/{rng.randint(1, 4)}"
        terms.append(f"{c}*p^{k}")
    return "+".join(terms)


def random_argument(rng: random.Random, kind, valid: bool = False) -> str:
    """A text argument of the ``_SIGNATURES`` kind ``kind``; an int kind may
    sit below its bound unless ``valid``, which draws it from bound..bound+2."""
    if type(kind) is int:
        if valid:
            return str(rng.randint(kind, kind + 2))
        return str(rng.choice([kind - 1, kind, kind, kind + 1]))
    if kind == "flag":
        return "restricted" if rng.random() < 0.5 else ""
    if kind == "ints":
        return ",".join(str(rng.randint(-2, 3)) for _ in range(rng.randint(1, 2)))
    if kind == "comp":
        return ",".join(str(rng.randint(1, 3)) for _ in range(rng.randint(1, 2)))
    return random_poly(rng, rational=kind == "qpoly")


def random_quantity(rng: random.Random, name: str | None = None, valid: bool = False) -> str:
    """A quantity atom's text, named ``name`` or at random; it may be outside
    the domain, and even with ``valid`` (see :func:`random_argument`)."""
    if name is None:
        name = rng.choice(sorted(quantities._SIGNATURES))
    if name == "rat":
        return f"rat(({random_poly(rng)})/({random_poly(rng)}))"
    sig = quantities._SIGNATURES[name]
    args = [random_argument(rng, kind, valid) for _, kind in sig]
    sep = "," if all(type(kind) is int for _, kind in sig) else ";"
    return f"{name}({sep.join(arg for arg in args if arg)})"  # an absent flag is ""


def random_expression(rng: random.Random, depth: int = 2) -> str:
    """An expression of the CLI grammar: atoms joined by + - * / and inv(...)."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([
            lambda: str(rng.randint(0, 5)),
            lambda: f"{rng.randint(-5, 5)}/{rng.randint(1, 6)}",
            lambda: f"p^{rng.randint(-1, 2)}",
            lambda: f"H({random_argument(rng, 'comp')})",
            lambda: random_quantity(rng),
        ])()
    if rng.random() < 0.2:
        return f"inv({random_expression(rng, depth - 1)})"
    op = rng.choice("+-*/")
    return f"({random_expression(rng, depth - 1)}){op}({random_expression(rng, depth - 1)})"


class TestMachineContract:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_command_returns_an_exit_code(self, tmp_path, capsys, seed):
        rng = random.Random(seed)
        cache = ["--cache-dir", str(tmp_path), "--order", "2"]
        for _ in range(12):
            lhs = random_expression(rng)
            rhs = lhs if rng.random() < 0.3 else random_expression(rng)  # some hold
            statement = f"{lhs} = {rhs} mod p^{rng.randint(1, 3)}"
            for argv in (
                ["expand", lhs, *cache],
                ["valuation", lhs, *cache],
                ["prove", statement, *cache],
                ["verify", statement, "--primes", "11..13"],
            ):
                assert main(argv) in (0, 1, 2), argv
            capsys.readouterr()


class TestGeneratedExpansions:
    """The expansion of a small valid quantity agrees with the oracle."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_kind_but_zetap_agrees_at_two_primes(self, tmp_path, seed):
        # zetap has no exact value at a single prime for the oracle to compare
        rng = random.Random(seed)
        for name in sorted(quantities._SIGNATURES.keys() - {"zetap"}):
            while True:
                text = random_quantity(rng, name, valid=True)
                try:
                    ast = parse(text)
                    break
                except ValueError:  # outside the quantity's domain: draw again
                    pass
            order = rng.choice([3, 4])
            series = eval_series(ast, order, tmp_path)
            report = check_expansion(ast.payload, series, PrimeWindow(11, 13))
            assert report.passed, (text, order, report.render())
            assert [p for p, _, _ in report.records] == [11, 13], (text, order)
