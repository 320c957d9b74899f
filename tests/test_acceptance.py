"""Acceptance suite: nine end-to-end criteria for the engine.

Each test prints exactly one ``ACCEPTANCE <k>: PASS/FAIL`` line (written to
the real stdout so it appears even under pytest capture) and then asserts.
The tests share one fresh relation cache so the stated runtime targets
honestly include basis generation.
"""

import hashlib
import math
import sys
import time
from fractions import Fraction

import pytest

from padicmhs.arith import bernoulli, binomial, padic_valuation
from padicmhs.cli import eval_series, eval_statement, main, parse
from padicmhs.compositions import enumerate_compositions, shuffle, stuffle, weight
from padicmhs.expansions import expand_apery
from padicmhs.oracle import (
    apery_number,
    check_numeric,
    eval_mhs,
    eval_quantity,
    eval_series_terms,
    primes_in,
    PrimeWindow,
)
from padicmhs.prover import (
    _offset_parts,
    _relation_coords,
    generate_relations,
    prove_supercongruence,
    prove_weighted,
    replay_certificate,
    verify_certificate_text,
)
from padicmhs.quantities import parse_quantity
from reference_sums import eval_polylog_sum

# ---------------------------------------------------------------------------
# shared fixtures and helpers
# ---------------------------------------------------------------------------

CACHE = {}
CERT_DIR = {}


@pytest.fixture(scope="module", autouse=True)
def _shared_dirs(tmp_path_factory):
    CACHE["dir"] = str(tmp_path_factory.mktemp("relation-cache"))
    CERT_DIR["dir"] = tmp_path_factory.mktemp("certificates")


# Collected pass/fail lines; a conftest hook echoes them in the terminal
# summary so they stay visible under captured output.
ACCEPTANCE_LINES: list[str] = []


def report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def cli(*argv: str) -> int:
    return main(list(argv) + ["--cache-dir", CACHE["dir"]])


def prove_via_cli(statement: str, dump_name: str, *extra: str) -> int:
    dump = str(CERT_DIR["dir"] / f"{dump_name}.cert")
    return cli("prove", statement, "--dump", dump, *extra)


def fail_fraction(diff_at, window, required) -> tuple[int, int]:
    """(#primes where v_p(diff) < required, #primes in window)."""
    primes = list(primes_in(window.lo, window.hi))
    fails = 0
    for p in primes:
        val = diff_at(p)
        if val == 0 or padic_valuation(val, p) >= required:
            continue
        fails += 1
    return fails, len(primes)


def numeric_ok(diff_at, window, required) -> bool:
    fails, _ = fail_fraction(diff_at, window, required)
    return fails == 0


def binp(a: int, p: int) -> int:
    return binomial(a * p, p)


def H(p: int, s: tuple) -> Fraction:
    return eval_mhs(p - 1, s)


# Statement texts (criterion 5's zeta-squared coefficient is +4: the exact
# linear solve in canonical coordinates gives (2, -16, +4, -100) uniquely,
# and the Apery numbers match that right-hand side to valuation >= 8 at every
# test prime, while a -14 coefficient caps the valuation at exactly 6.)
CB = "12 - 9*binp(2,1,1) + 2*binp(3,1,1) = 24*p^3*H(3) mod p^6"
WOLSTENHOLME = "p*H(1) + p^2*H(1,1) = 0 mod p^3"
CA1 = "binp(2,1,1)*apery() = 2 mod p^5"
CZ1 = "apery() = 1 + 2*zetap(3) - 16*zetap(5) + 4*zetap(3)*zetap(3) - 100*zetap(7) mod p^8"
CZ1_FALLBACK = "apery() = 1 + 2*zetap(3) - 16*zetap(5) + 4*zetap(3)*zetap(3) - 100*zetap(7) mod p^6"
CS1 = "2*sumpoly(1;1,1) + sumpoly(1;2) = 2*p - 2 + 1/3*p^2*(2*p-1)*H(2,1) mod p^4"
CS2 = "2*sumpoly(p^2;1,1) + sumpoly(p^2;2) = -4/9 + 79/108*p - 13/36*p^2 + 1/6*H(1) mod p^3"
CR1 = "hres(2) = p^2*H(1) mod p^6"
CONGALT = "p^-2*alt(2) = 3/4*H(2) mod p^3"
CC23 = "curious(2,3) = -2*p*H(2,1) + (2*p^3 - 11/5*p^5)*H(4,1) - 69/35*p^5*H(6,1) mod p^6"
CC24 = "curious(2,4) = -24/5*p^2*H(4,1) + 28/15*p^3*H(4,1,1) mod p^4"
CC33 = "curious(3,3) = -2*p^2*H(2,1) + 2*p^4*H(4,1) mod p^6"
CC34 = "curious(3,4) = -24/5*p^3*H(4,1) + 28/15*p^4*H(4,1,1) mod p^5"
CR3 = (
    "p^3*psum(p^2-1;0;2,1) = (1+p^3)*H(2,1) + (-11/10*p^5 + 11/10*p^7)*H(4,1)"
    " + 7/5*p^6*H(4,1,1) - 59/560*p^7*H(6,1) mod p^8"
)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_binomial_congruence(capsys):
    t0 = time.monotonic()
    proved = cli("prove", CB, "--dump", str(CERT_DIR["dir"] / "cb.cert")) == 0

    assert cli("valuation", "12 - 9*binp(2,1,1) + 2*binp(3,1,1) - 24*p^3*H(3)",
               "--order", "7") == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]

    def diff(p):
        return 12 - 9 * binp(2, p) + 2 * binp(3, p) - 24 * p**3 * H(p, (3,))

    numeric = numeric_ok(diff, PrimeWindow(7, 97), 6)
    dt = time.monotonic() - t0
    ok = proved and printed == "6" and numeric and dt < 60
    report(1, ok, f"cb proved={proved}, valuation printed {printed!r}, "
                  f"numeric 7..97 {'pass' if numeric else 'FAIL'}, {dt:.1f}s < 60s")
    assert ok


def test_criterion_2_wolstenholme():
    t0 = time.monotonic()
    proved = prove_via_cli(WOLSTENHOLME, "wolstenholme") == 0
    dt = time.monotonic() - t0
    ok = proved and dt < 5
    report(2, ok, f"Wolstenholme proved={proved} in {dt:.2f}s < 5s")
    assert ok


def test_criterion_3_apery_product():
    t0 = time.monotonic()
    proved = prove_via_cli(CA1, "ca1") == 0

    def diff(p):
        return binp(2, p) * apery_number(p - 1) - 2

    numeric = numeric_ok(diff, PrimeWindow(7, 97), 5)
    dt = time.monotonic() - t0
    ok = proved and numeric and dt < 120
    report(3, ok, f"ca1 proved={proved}, numeric 7..97 "
                  f"{'pass' if numeric else 'FAIL'}, {dt:.1f}s < 120s")
    assert ok


def test_criterion_4_apery_expansion():
    series = expand_apery(8, cache_dir=CACHE["dir"])
    expected = {
        (0, ()): Fraction(1),
        (3, (2, 1)): Fraction(2, 3),
        (5, (4, 1)): Fraction(-59, 15),
        (6, (4, 1, 1)): Fraction(-22, 45),
        (7, (6, 1)): Fraction(-11953, 2520),
    }
    ok = series.order == 8 and series.terms == expected
    report(4, ok, "Apery expansion exactly matches the five pinned "
                  "coefficients through order 7" if ok
           else f"Apery expansion mismatch: got {series.terms}")
    assert ok


def test_criterion_5_zeta_congruence():
    t0 = time.monotonic()
    proved = prove_via_cli(CZ1, "cz1") == 0
    dt = time.monotonic() - t0
    if proved and dt < 600:
        ok = True
        detail = f"cz1 mod p^8 proved in {dt:.1f}s < 600s (zeta-series atoms at order 8)"
    elif not proved:
        ok = False
        detail = f"cz1 mod p^8 NOT proved ({dt:.1f}s)"
    else:
        # over budget at n = 8: the fallback acceptance is modulus p^6
        t0 = time.monotonic()
        ok = prove_via_cli(CZ1_FALLBACK, "cz1-fallback") == 0
        dt = time.monotonic() - t0
        ok = ok and dt < 180
        detail = f"cz1 fallback mod p^6 proved={ok} in {dt:.1f}s < 180s"
    report(5, ok, detail)
    assert ok


def test_criterion_6_mixed_congruences():
    t0 = time.monotonic()
    window = PrimeWindow(11, 61)
    small = PrimeWindow(11, 31)
    results = {}

    proofs = [
        ("cs1", CS1, ()),
        ("cs2", CS2, ()),
        ("cr1", CR1, ()),
        ("congalt", CONGALT, ("--order", "5")),
        ("cc23", CC23, ()),
        ("cc24", CC24, ()),
        ("cc33", CC33, ()),
        ("cc34", CC34, ()),
    ]
    for name, stmt, extra in proofs:
        results[name + ".proved"] = prove_via_cli(stmt, name, *extra) == 0

    def sum_harmonic_sq(p):  # sum over k < p of H_k(1)^2
        return 2 * eval_quantity(parse_quantity("sumpoly", "1;1,1"), p) + \
            eval_quantity(parse_quantity("sumpoly", "1;2"), p)

    def sum_sq_harmonic_sq(p):  # sum over k < p of k^2 H_k(1)^2
        return 2 * eval_quantity(parse_quantity("sumpoly", "p^2;1,1"), p) + \
            eval_quantity(parse_quantity("sumpoly", "p^2;2"), p)

    results["cs1.numeric"] = numeric_ok(
        lambda p: sum_harmonic_sq(p)
        - (2 * p - 2 + Fraction(1, 3) * p**2 * (2 * p - 1) * H(p, (2, 1))),
        window, 4)
    results["cs2.numeric"] = numeric_ok(
        lambda p: sum_sq_harmonic_sq(p)
        - (Fraction(-4, 9) + Fraction(79, 108) * p - Fraction(13, 36) * p**2
           + Fraction(1, 6) * H(p, (1,))),
        window, 3)
    results["cr1.numeric"] = numeric_ok(
        lambda p: eval_quantity(parse_quantity("hres", "2"), p) - p**2 * H(p, (1,)),
        window, 6)
    results["congalt.numeric"] = numeric_ok(
        lambda p: eval_polylog_sum(p - 1, (2,), (-1,))
        - Fraction(3, 4) * H(p, (2,)),
        window, 3)

    for name, inner, rhs_text, modulus, win in [
        ("cc23", "2,3", "-2*p*H(2,1) + (2*p^3 - 11/5*p^5)*H(4,1) - 69/35*p^5*H(6,1)", 6, window),
        ("cc24", "2,4", "-24/5*p^2*H(4,1) + 28/15*p^3*H(4,1,1)", 4, window),
        ("cc33", "3,3", "-2*p^2*H(2,1) + 2*p^4*H(4,1)", 6, small),
        ("cc34", "3,4", "-24/5*p^3*H(4,1) + 28/15*p^4*H(4,1,1)", 5, small),
    ]:
        spec = parse_quantity("curious", inner)
        rhs = eval_series(parse(rhs_text), modulus)
        results[name + ".numeric"] = numeric_ok(
            lambda p, spec=spec, rhs=rhs: eval_quantity(spec, p)
            - eval_series_terms(rhs, p),
            win, modulus)

    dt = time.monotonic() - t0
    bad = sorted(k for k, v in results.items() if not v)
    ok = not bad
    report(6, ok, f"cs1/cs2/cr1/congalt and four cc displays: all proved and "
                  f"numeric on 11..61 (Curious(3,*) on 11..31), {dt:.0f}s"
           if ok else f"failures: {bad}")
    assert ok, bad


#: SHA-256 of a cold ``generate_relations(11).dump()`` (rank 1,012 of 1,024).
BASIS_DIGEST_N11 = "3445b6cae99dd4d279d3a63377a33730c223b1bdacb9ec7f8c9658058ea92602"


def test_criterion_7_restricted_double_harmonic():
    t0 = time.monotonic()

    rhs = eval_series(parse(
        "(1+p^3)*H(2,1) + (-11/10*p^5 + 11/10*p^7)*H(4,1)"
        " + 7/5*p^6*H(4,1,1) - 59/560*p^7*H(6,1)"), 8)
    spec = parse_quantity("psum", "p^2-1;0;2,1")

    numeric = numeric_ok(
        lambda p: p**3 * eval_quantity(spec, p) - eval_series_terms(rhs, p),
        PrimeWindow(11, 61), 8)

    # symbolic proof: every weighted part, bottom-up, up to the p^11 basis,
    # which must equal the pinned digest of a cold generation
    FEASIBLE_MODULUS = 11
    lhs_s, rhs_s, n = eval_statement(parse(CR3), cache_dir=CACHE["dir"])
    parts = _offset_parts((lhs_s - rhs_s).truncate(n), n)
    verdicts = []
    for k in sorted(parts):
        m = n + k
        if m > FEASIBLE_MODULUS:
            verdicts.append(f"offset {k} (mod p^{m}): skipped, basis beyond p^{FEASIBLE_MODULUS}")
            continue
        cert = prove_weighted(parts[k], m, cache_dir=CACHE["dir"])
        verdicts.append(f"offset {k} (mod p^{m}): {cert.verdict}")
    symbolic_verdict = "; ".join(verdicts)
    symbolic = len(parts) == 6 and all(v.endswith(": proved") for v in verdicts)
    digest = hashlib.sha256(generate_relations(11, CACHE["dir"]).dump().encode()).hexdigest()
    pinned = digest == BASIS_DIGEST_N11

    dt = time.monotonic() - t0
    ok = numeric and symbolic and pinned
    report(7, ok, f"cr3 numeric 11..61 {'pass' if numeric else 'FAIL'}; "
                  f"symbolic [{symbolic_verdict}]; p^11 basis digest "
                  f"{'pinned' if pinned else 'CHANGED'} ({dt:.0f}s)")
    assert ok


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    problems = []

    # stuffle law, exhaustive at weight <= 5, N <= 25
    comps = [c for c in enumerate_compositions(4) if c]
    memo = {}

    def mhs(N, s):
        if (N, s) not in memo:
            memo[(N, s)] = eval_mhs(N, s)
        return memo[(N, s)]

    for s in comps:
        for t in comps:
            if weight(s) + weight(t) > 5:
                continue
            prod = stuffle(s, t)
            for N in range(1, 26):
                lhs = mhs(N, s) * mhs(N, t)
                rhs = sum(c * mhs(N, u) for u, c in prod.items())
                if lhs != rhs:
                    problems.append(f"stuffle {s}x{t} at N={N}")
                    break

    # shuffle mass C(|s|+|t|, |s|) for weights <= 6
    for s in [c for c in enumerate_compositions(5) if c]:
        for t in [c for c in enumerate_compositions(5) if c]:
            if weight(s) + weight(t) > 6:
                continue
            mass = sum(shuffle(s, t).values())
            if mass != binomial(weight(s) + weight(t), weight(s)):
                problems.append(f"shuffle mass {s}x{t}")

    # the relation of every independent triple at n <= 7 has numeric
    # valuation >= n at 11..97
    primes = list(primes_in(11, 97))
    hmemo = {}

    def hval(p, s):
        if (p, s) not in hmemo:
            hmemo[(p, s)] = eval_mhs(p - 1, s)
        return hmemo[(p, s)]

    n_rel = 0
    for n in range(1, 8):
        basis = generate_relations(n, cache_dir=CACHE["dir"])
        for prov in basis._triples:
            n_rel += 1
            coords = _relation_coords(*prov, n)
            for p in primes:
                val = sum(c * p ** weight(s) * hval(p, s) for s, c in coords.items())
                if val != 0 and padic_valuation(val, p) < n:
                    problems.append(f"relation {prov} at n={n}, p={p}")
                    break

    # expansion soundness spot matrix: one numeric check per quantity kind
    # (the per-operation matrices run in full in the expansion test module)
    spot = [
        ("rat", "(1-p)/(1+p)", 6),
        ("binp", "2,1,1", 6),
        ("binpoly", "2*p^2;p^2", 5),
        ("apery", "", 6),
        ("psum", "p-1;0;2,1", 6),
        ("sumpoly", "p;1", 5),
        ("hres", "2", 6),
        ("half", "3", 6),
        ("alt", "2", 6),
        ("curious", "2,2", 6),
    ]
    from padicmhs.expansions import expand_quantity

    for name, inner, order in spot:
        spec = parse_quantity(name, inner)
        series = expand_quantity(spec, order, cache_dir=CACHE["dir"])
        rep = check_numeric((spec, series), PrimeWindow(11, 31))
        if not rep.passed:
            problems.append(f"expansion soundness {name}({inner})")
    # zetap has no finite closed value; its expansion is checked against the
    # Bernoulli-number congruence zeta_p(k) = B_(p-k)/k mod p
    for k in (2, 3):
        spec_series = expand_quantity(parse_quantity("zetap", str(k)), k + 2,
                                      cache_dir=CACHE["dir"])
        rep = check_numeric(
            lambda p, k=k, s=spec_series:
                eval_series_terms(s, p) - p**k * bernoulli(p - k) / k,
            PrimeWindow(11, 31), required=k + 1)
        if not rep.passed:
            problems.append(f"zetap({k}) Bernoulli congruence")

    # every proved certificate replays exactly
    n_certs = 0
    for path in sorted(CERT_DIR["dir"].glob("*.cert")):
        n_certs += 1
        ok, msg = verify_certificate_text(path.read_text(encoding="ascii"))
        if not ok:
            problems.append(f"certificate replay {path.name}: {msg}")
    lhs_s, rhs_s, n = eval_statement(parse(WOLSTENHOLME))
    for cert in prove_supercongruence(lhs_s, rhs_s, n, cache_dir=CACHE["dir"]):
        if not replay_certificate(cert):
            problems.append("in-memory certificate replay")

    dt = time.monotonic() - t0
    ok = not problems
    report(8, ok, f"stuffle exhaustive w<=5 N<=25, shuffle mass w<=6, "
                  f"{n_rel} relations n<=7 valuation-checked at 11..97, "
                  f"expansion soundness spot matrix, {n_certs} certificate "
                  f"dumps replayed ({dt:.0f}s)"
           if ok else f"failures: {problems[:8]}")
    assert ok, problems[:8]


def test_criterion_9_negative_controls():
    t0 = time.monotonic()
    results = {}

    # cb with 24 -> 25
    bad_cb = "12 - 9*binp(2,1,1) + 2*binp(3,1,1) = 25*p^3*H(3) mod p^6"
    results["cb.unproven"] = cli("prove", bad_cb) == 1
    fails, total = fail_fraction(
        lambda p: 12 - 9 * binp(2, p) + 2 * binp(3, p) - 25 * p**3 * H(p, (3,)),
        PrimeWindow(7, 97), 6)
    results["cb.fails"] = fails >= math.ceil(0.9 * total)

    # ca1 with 2 -> 3
    bad_ca1 = "binp(2,1,1)*apery() = 3 mod p^5"
    results["ca1.unproven"] = cli("prove", bad_ca1) == 1
    fails, total = fail_fraction(
        lambda p: binp(2, p) * apery_number(p - 1) - 3, PrimeWindow(7, 97), 5)
    results["ca1.fails"] = fails >= math.ceil(0.9 * total)

    # congalt with 3/4 -> 7/4
    bad_alt = "p^-2*alt(2) = 7/4*H(2) mod p^3"
    results["congalt.unproven"] = cli("prove", bad_alt, "--order", "5") == 1
    fails, total = fail_fraction(
        lambda p: eval_polylog_sum(p - 1, (2,), (-1,))
        - Fraction(7, 4) * H(p, (2,)),
        PrimeWindow(11, 61), 3)
    results["congalt.fails"] = fails >= math.ceil(0.9 * total)

    dt = time.monotonic() - t0
    bad = sorted(k for k, v in results.items() if not v)
    ok = not bad
    report(9, ok, f"three perturbed congruences all unproven and numeric FAIL "
                  f"at >=90% of window primes ({dt:.0f}s)" if ok
           else f"failures: {bad}")
    assert ok, bad
