"""Equivalence corpus: one SHA-256 per command-line run of a fixed case list.

Run from any directory, with the standard library only::

    python tests/corpus.py                                # print the digests
    python tests/corpus.py --check tests/corpus.sha256    # compare with a file

Each case runs ``python -m padicmhs.cli ARGS`` in a fresh child process that
imports ``padicmhs`` from this checkout's ``src``.  All the cases of one run
share one fresh directory, which is both the children's working directory and
their relation cache (``PADICMHS_CACHE_DIR``); the cases run in the listed
order, so a ``verify-certificate`` case replays the dump that its ``prove``
case wrote there.  A case's digest covers its exit code, stdout, stderr and,
for ``prove --dump``, the bytes of the dump.

The output is one ``<case> <sha256>`` line per case.  ``--check FILE`` runs
every case, names each case whose digest differs from FILE's (changed), each
case of FILE that this list no longer has (missing) and each case that FILE
lacks (extra), and exits 1 if there is any; otherwise it exits 0.  A change
that means to alter an output regenerates FILE and names the changed cases.

The default ``verify`` window is never run: curious(3,3) and curious(3,4)
take minutes there, so the statements are checked on 11..23.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The acceptance statements, with the extra arguments their proofs take.
STATEMENTS = [
    ("cb", "12 - 9*binp(2,1,1) + 2*binp(3,1,1) = 24*p^3*H(3) mod p^6", ()),
    ("wolstenholme", "p*H(1) + p^2*H(1,1) = 0 mod p^3", ()),
    ("ca1", "binp(2,1,1)*apery() = 2 mod p^5", ()),
    ("cz1", "apery() = 1 + 2*zetap(3) - 16*zetap(5) + 4*zetap(3)*zetap(3)"
            " - 100*zetap(7) mod p^8", ()),
    ("cs1", "2*sumpoly(1;1,1) + sumpoly(1;2) = 2*p - 2 + 1/3*p^2*(2*p-1)*H(2,1) mod p^4", ()),
    ("cs2", "2*sumpoly(p^2;1,1) + sumpoly(p^2;2) = -4/9 + 79/108*p - 13/36*p^2"
            " + 1/6*H(1) mod p^3", ()),
    ("cr1", "hres(2) = p^2*H(1) mod p^6", ()),
    ("congalt", "p^-2*alt(2) = 3/4*H(2) mod p^3", ("--order", "5")),
    ("cc23", "curious(2,3) = -2*p*H(2,1) + (2*p^3 - 11/5*p^5)*H(4,1)"
             " - 69/35*p^5*H(6,1) mod p^6", ()),
    ("cc24", "curious(2,4) = -24/5*p^2*H(4,1) + 28/15*p^3*H(4,1,1) mod p^4", ()),
    ("cc33", "curious(3,3) = -2*p^2*H(2,1) + 2*p^4*H(4,1) mod p^6", ()),
    ("cc34", "curious(3,4) = -24/5*p^3*H(4,1) + 28/15*p^4*H(4,1,1) mod p^5", ()),
    ("cr3", "p^3*psum(p^2-1;0;2,1) = (1+p^3)*H(2,1) + (-11/10*p^5 + 11/10*p^7)*H(4,1)"
            " + 7/5*p^6*H(4,1,1) - 59/560*p^7*H(6,1) mod p^8", ()),
]

# Each distinct quantity atom of the statements, at its statement's modulus.
ATOMS = [
    ("binp(2,1,1)", 6), ("binp(3,1,1)", 6), ("apery()", 5), ("apery()", 8),
    ("zetap(3)", 8), ("zetap(5)", 8), ("zetap(7)", 8),
    ("sumpoly(1;1,1)", 4), ("sumpoly(1;2)", 4), ("sumpoly(p^2;1,1)", 3), ("sumpoly(p^2;2)", 3),
    ("hres(2)", 6), ("alt(2)", 3), ("curious(2,3)", 6), ("curious(2,4)", 4),
    ("curious(3,3)", 6), ("curious(3,4)", 5), ("psum(p^2-1;0;2,1)", 8),
]

# The acceptance negative controls: one coefficient of cb, ca1 and congalt changed.
NEGATIVE = [
    ("bad-cb", "12 - 9*binp(2,1,1) + 2*binp(3,1,1) = 25*p^3*H(3) mod p^6", ()),
    ("bad-ca1", "binp(2,1,1)*apery() = 3 mod p^5", ()),
    ("bad-congalt", "p^-2*alt(2) = 7/4*H(2) mod p^3", ("--order", "5")),
]

# The refusals and skips that the CI workflow checks, as (case, argv).
REFUSALS = [
    ("verify-reversed-window", ["verify", "H(1) = 0 mod p^2", "--primes", "97..11"]),
    ("verify-window-without-prime", ["verify", "H(1) = 0 mod p^1", "--primes", "24..28"]),
    ("verify-literal-divisor", ["verify", "p*H(1)/3 = 0 mod p^1", "--primes", "2..7"]),
    ("verify-rat-denominator", ["verify", "rat(1/(p+3))*p = 0 mod p^1", "--primes", "2..7"]),
    ("verify-quotient-denominator", ["verify", "p/(p+3) = 0 mod p^1", "--primes", "2..7"]),
    ("verify-inverse-denominator", ["verify", "p*inv(p+3) = 0 mod p^1", "--primes", "2..7"]),
    ("verify-wide-window", ["verify", "H(1) = 0 mod p^1", "--primes", "2..1000000000"]),
    ("verify-window-1e18", ["verify", "H(1) = 0 mod p^1", "--primes",
                            "1000000000000000000..1000000000000000100"]),
    ("verify-window-past-prime-bound", ["verify", "H(1) = 0 mod p^1", "--primes",
                                        "3317044064679887385961900..3317044064679887385961981"]),
    ("verify-binp-p4", ["verify", "binp(2,1,4) = 0 mod p^1", "--primes", "97..97"]),
    *(
        (f"verify-{name}-1e9", ["verify", f"{atom} = 0 mod p^1", "--primes", "999999937..999999937"])
        for name, atom in [("pH1", "p*H(1)"), ("alt2", "alt(2)"), ("half2", "half(2)"),
                           ("sumpoly11", "sumpoly(1;1)")]
    ),
    ("valuation-basis-cap", ["valuation", "H(7,7)"]),
    ("verify-binpoly-domain", ["verify", "binpoly(-p;1) = 0 mod p^1", "--primes", "11..13"]),
    ("verify-psum-negative-bound", ["verify", "p*psum(p;p-20;1) = 1 mod p^1", "--primes", "11..29"]),
    ("expand-psum-empty-range", ["expand", "psum(p-1;p;1,2)"]),
    ("verify-psum-empty-range", ["verify", "psum(p-1;p;1,2) = 0 mod p^2", "--primes", "11..13"]),
]


def cases() -> list[tuple[str, list[str], str | None]]:
    """Every case as (name, CLI arguments, dump file name or None), in run order."""
    out: list[tuple[str, list[str], str | None]] = []
    for name, text, extra in STATEMENTS:
        out.append((f"prove:{name}", ["prove", text, *extra, "--dump", f"{name}.cert"], f"{name}.cert"))
        out.append((f"verify-certificate:{name}", ["verify-certificate", f"{name}.cert"], None))
        out.append((f"verify:{name}", ["verify", text, "--primes", "11..23"], None))
    for atom, order in ATOMS:
        out.append((f"expand:{atom}@{order}", ["expand", atom, "--order", str(order)], None))
    out.append((
        "valuation:cb@7",
        ["valuation", "12 - 9*binp(2,1,1) + 2*binp(3,1,1) - 24*p^3*H(3)", "--order", "7"],
        None,
    ))
    for name, text, extra in NEGATIVE:
        out.append((f"prove:{name}", ["prove", text, *extra], None))
    out.append(("identities:5", ["identities", "--modulus", "5"], None))
    out += [(name, argv, None) for name, argv in REFUSALS]
    return out


def run_case(argv: list[str], dump: str | None, workdir: Path) -> str:
    """The SHA-256 of one child run: exit code, stdout, stderr and the dump's bytes."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PADICMHS_CACHE_DIR": str(workdir)}
    run = subprocess.run(
        [sys.executable, "-m", "padicmhs.cli", *argv],
        cwd=workdir, env=env, capture_output=True, timeout=300,
    )
    parts = [("exit", str(run.returncode).encode()), ("stdout", run.stdout), ("stderr", run.stderr)]
    if dump is not None:
        path = workdir / dump
        parts.append(("dump", path.read_bytes() if path.exists() else b"(no file)"))
    digest = hashlib.sha256()
    for label, data in parts:
        digest.update(f"{label} {len(data)}\n".encode())
        digest.update(data)
    return digest.hexdigest()


def read_corpus(path: str) -> dict[str, str]:
    table = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.strip():
                name, digest = line.rsplit(None, 1)
                table[name] = digest
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE", help="compare every digest with FILE")
    args = parser.parse_args(argv)
    expected = read_corpus(args.check) if args.check else None
    got: dict[str, str] = {}
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="padicmhs-corpus-") as tmp:
        for name, case_argv, dump in cases():
            got[name] = run_case(case_argv, dump, Path(tmp))
            if expected is None:
                print(f"{name} {got[name]}", flush=True)
    if expected is None:
        return 0
    problems = [f"changed: {name}" for name in got if name in expected and got[name] != expected[name]]
    problems += [f"missing: {name}" for name in expected if name not in got]
    problems += [f"extra: {name}" for name in got if name not in expected]
    for line in problems:
        print(line)
    print(f"{len(got)} cases in {time.monotonic() - start:.1f} s, {len(problems)} differ from {args.check}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
