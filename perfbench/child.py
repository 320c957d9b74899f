"""One benchmark run in a fresh interpreter: execute a job, check every answer.

Usage: ``python3 perfbench/child.py JOB.json`` with ``padicmhs`` importable
(``run.py`` puts the checkout's ``src`` on ``PYTHONPATH``).  The job holds the
operations (see ``workloads.py``), the cache directory, a directory for
certificate dumps and whether to trace.  The last stdout line is a JSON
object: ``attempted``, ``failed``, ``failures`` (one line per wrong answer),
``cpu_s`` and ``peak_rss_mb`` of this process, and ``layers`` when traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import sys
from fractions import Fraction

import padicmhs.cli
import padicmhs.oracle
import padicmhs.prover

import tracer

PART_LINE = re.compile(r"  part modulus p\^\d+: (proved|unproven) \(\d+ relation\(s\)\)")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = padicmhs.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def check_prove(op: dict, cache_dir: str, dump_dir: str, index: int) -> list[str]:
    """Exit code, verdict lines and, for PROVED, replay of the dumped certificates."""
    proved = op["expect"] == "PROVED"
    argv = ["prove", op["text"], *op["args"], "--cache-dir", cache_dir]
    dump = os.path.join(dump_dir, f"{index}.cert")
    if proved:
        argv += ["--dump", dump]
    rc, out, err = run_cli(argv)
    lines = out.splitlines()
    problems = []
    if rc != (0 if proved else 1):
        problems.append(f"exit {rc}{': ' + err.strip() if err else ''}")
    if not lines or lines[0] != f"{op['expect']}: {op['text']}":
        problems.append(f"verdict line {lines[:1]!r}")
    parts = [PART_LINE.fullmatch(line) for line in lines[1:]]
    parts = [m.group(1) for m in parts if m]
    if not parts or (proved and "unproven" in parts) or (not proved and "unproven" not in parts):
        problems.append(f"part lines {lines[1:]!r}")
    if proved and not problems:
        with open(dump, encoding="ascii") as fh:
            text = fh.read()
        ok, message = padicmhs.prover.verify_certificate_text(text)
        if not ok or not text:
            problems.append(f"certificate replay: {message}")
    return problems


def check_print(op: dict, cache_dir: str) -> list[str]:
    rc, out, err = run_cli([*op["argv"], "--cache-dir", cache_dir])
    if rc != 0:
        return [f"exit {rc}{': ' + err.strip() if err else ''}"]
    if "expect_sha256" in op:
        if hashlib.sha256(out.encode()).hexdigest() != op["expect_sha256"]:
            return [f"output digest differs ({len(out)} bytes)"]
    elif out != op["expect"] + "\n":
        return [f"output {out[:200]!r}"]
    return []


def value_at(ast, p: int) -> Fraction:
    """Exact value at the prime p of a parsed expression, by the oracle alone."""
    kind, oracle = ast.kind, padicmhs.oracle
    if kind == "lit":
        return ast.payload
    if kind == "p":
        return Fraction(p) ** ast.payload
    if kind == "H":
        return oracle.eval_mhs(p - 1, ast.payload)
    if kind == "quantity":
        return oracle.eval_quantity(ast.payload, p)
    if kind == "neg":
        return -value_at(ast.children[0], p)
    a, b = (value_at(child, p) for child in ast.children)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    raise ValueError(f"no direct value for {kind!r} nodes")


def check_numeric(op: dict) -> list[str]:
    """One oracle check per prime; returns one problem per wrong answer.

    The left-hand side is evaluated by direct summation; the right-hand side
    is parsed and put into series form (H atoms only, so no expansion runs)
    and evaluated term by term.
    """
    cli, oracle = padicmhs.cli, padicmhs.oracle
    cong = cli.parse(op["text"])
    lhs, rhs_ast = cong.children
    n = cong.payload
    rhs = cli.eval_series(rhs_ast, n)
    verdicts = {}
    for p in op["primes"]:
        report = oracle.check_numeric(
            lambda q: value_at(lhs, q) - oracle.eval_series_terms(rhs, q),
            oracle.PrimeWindow(p, p), required=n)
        verdicts[p] = "refused" if report.refused else "pass" if report.passed else "fail"
    if not op["negative"]:
        return [f"p={p} {v}" for p, v in verdicts.items() if v != "pass"]
    fails = sum(v == "fail" for v in verdicts.values())
    if fails >= math.ceil(0.9 * len(verdicts)):
        return [f"p={p} refused" for p, v in verdicts.items() if v == "refused"]
    return [f"p={p} {v} (negative control fails at only {fails}/{len(verdicts)})"
            for p, v in verdicts.items() if v != "fail"]


def run_job(job: dict) -> dict:
    for n in job["fill"]:
        padicmhs.prover.generate_relations(n, cache_dir=job["cache_dir"])
    tr = tracer.install() if job["trace"] else None
    attempted, failures = 0, []
    for index, op in enumerate(job["ops"]):
        weight = len(op["primes"]) if op["kind"] == "numeric" else 1
        attempted += weight
        try:
            if op["kind"] == "prove":
                problems = check_prove(op, job["cache_dir"], job["dump_dir"], index)
            elif op["kind"] == "print":
                problems = check_print(op, job["cache_dir"])
            else:
                problems = check_numeric(op)
        except Exception as exc:  # any exception is a wrong answer
            problems = [f"{type(exc).__name__}: {exc}"] * weight
        failures += [f"{op['id']}: {problem}" for problem in problems[:weight]]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    if tr is not None:
        result["layers"] = tracer.summarize(tr, job["cache_dir"])
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    print(json.dumps(run_job(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
