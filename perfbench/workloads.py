"""Workload definitions: statement texts, pinned answers and operation lists.

The statement texts are the acceptance constants of the test suite, copied
here so the benchmark does not import the tests.  Every operation carries its
expected answer; ``child.py`` runs the operations and checks the answers.

Operation kinds (plain dicts, so a job can be written as JSON):

* ``prove``: ``padicmhs prove <text> [args]`` through ``padicmhs.cli.main``.
  ``expect`` is ``PROVED`` (exit 0, every certificate dump replays) or
  ``UNPROVEN`` (exit 1, a negative control).
* ``print``: any other CLI command whose whole stdout is pinned, either as
  text (``expect``) or as the SHA-256 of its bytes (``expect_sha256``).
* ``numeric``: one congruence checked with the oracle at each prime of
  ``primes`` (one operation per prime).  A ``negative`` check is a
  perturbed congruence that must FAIL at >= 90% of its primes.
"""

from __future__ import annotations

import random

CB = "12 - 9*binp(2,1,1) + 2*binp(3,1,1) = 24*p^3*H(3) mod p^6"
WOLSTENHOLME = "p*H(1) + p^2*H(1,1) = 0 mod p^3"
CA1 = "binp(2,1,1)*apery() = 2 mod p^5"
CZ1 = "apery() = 1 + 2*zetap(3) - 16*zetap(5) + 4*zetap(3)*zetap(3) - 100*zetap(7) mod p^8"
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

# Negative controls: one coefficient of cb, ca1 and congalt perturbed.
BAD_CB = "12 - 9*binp(2,1,1) + 2*binp(3,1,1) = 25*p^3*H(3) mod p^6"
BAD_CA1 = "binp(2,1,1)*apery() = 3 mod p^5"
BAD_CONGALT = "p^-2*alt(2) = 7/4*H(2) mod p^3"

CB_VALUATION = "12 - 9*binp(2,1,1) + 2*binp(3,1,1) - 24*p^3*H(3)"
APERY_ORDER8 = (
    "1 + 2/3 * p^3 * H(2,1) - 59/15 * p^5 * H(4,1) - 22/45 * p^6 * H(4,1,1)"
    " - 11953/2520 * p^7 * H(6,1) + O(p^8)"
)
# The order-8 power-sum render is 5,497 characters; its bytes are pinned by
# digest (stdout including the final newline).
PSUM_ORDER8_SHA256 = "585a542758e1837b567fc34f3e4972bac5f6e84c27556b2ab855c3216788c27d"

# Relation bases the warm cache holds: every statement of prove-warm needs
# at most modulus p^8.
WARM_MODULI = tuple(range(1, 9))

PROVE_COLD = [
    ("cb", CB, ()),
    ("wolstenholme", WOLSTENHOLME, ()),
    ("ca1", CA1, ()),
    ("cz1", CZ1, ()),
    ("cs1", CS1, ()),
    ("cs2", CS2, ()),
    ("cr1", CR1, ()),
    ("congalt", CONGALT, ("--order", "5")),
    ("cc23", CC23, ()),
    ("cc33", CC33, ()),
]
NEGATIVE_PROOFS = [
    ("bad-cb", BAD_CB, ()),
    ("bad-ca1", BAD_CA1, ()),
    ("bad-congalt", BAD_CONGALT, ("--order", "5")),
]


def primes_in(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, int(n**0.5) + 1))]


WINDOW = primes_in(11, 61)
# (name, congruence, primes, negative).  curious(3,3) and curious(3,4) stop
# at 23: p = 29 and 31 alone cost 8 s and 12 s of direct summation.
CROSSCHECK = [
    ("cs1", CS1, WINDOW, False),
    ("cs2", CS2, WINDOW, False),
    ("cr1", CR1, WINDOW, False),
    ("congalt", CONGALT, WINDOW, False),
    ("cc23", CC23, WINDOW, False),
    ("cc24", CC24, WINDOW, False),
    ("cc33", CC33, primes_in(11, 23), False),
    ("cc34", CC34, primes_in(11, 23), False),
    ("cr3", CR3, WINDOW, False),
    ("bad-cb", BAD_CB, primes_in(7, 97), True),
    ("bad-ca1", BAD_CA1, primes_in(7, 97), True),
    ("bad-congalt", BAD_CONGALT, WINDOW, True),
]

WORKLOADS = ("prove-cold", "prove-warm", "crosscheck")


def prove_op(name: str, text: str, args=(), negative: bool = False) -> dict:
    return {"id": f"prove:{name}", "kind": "prove", "text": text,
            "args": list(args), "expect": "UNPROVEN" if negative else "PROVED"}


def numeric_op(name: str, text: str, primes, negative: bool = False) -> dict:
    return {"id": f"numeric:{name}", "kind": "numeric", "text": text,
            "primes": list(primes), "negative": negative}


def _prove_ops(extra=()) -> list[dict]:
    ops = [prove_op(n, t, a) for n, t, a in list(PROVE_COLD) + list(extra)]
    ops += [prove_op(n, t, a, negative=True) for n, t, a in NEGATIVE_PROOFS]
    return ops


def build(workload: str, seed: int, reduced: bool = False) -> tuple[list[dict], tuple[int, ...]]:
    """Operations of one workload run and the moduli its set-up caches.

    The seed permutes the statement order (prove-*) or the prime order of
    each check (crosscheck); it changes no answer.  ``reduced`` gives the
    small form the self-test runs.
    """
    rng = random.Random(seed)
    if workload == "prove-cold":
        ops = ([prove_op("wolstenholme", WOLSTENHOLME),
                prove_op("bad-wolstenholme", WOLSTENHOLME.replace("= 0", "= 1"),
                         negative=True)]
               if reduced else _prove_ops())
        rng.shuffle(ops)
        return ops, ()
    if workload == "prove-warm":
        if reduced:
            ops = [prove_op("wolstenholme", WOLSTENHOLME),
                   {"id": "valuation:wolstenholme", "kind": "print",
                    "argv": ["valuation", "p*H(1) + p^2*H(1,1)", "--order", "3"],
                    "expect": "3"}]
            rng.shuffle(ops)
            return ops, (1, 2, 3, 4)
        ops = _prove_ops(extra=[("cc24", CC24, ())])
        ops += [
            {"id": "valuation:cb", "kind": "print",
             "argv": ["valuation", CB_VALUATION, "--order", "7"], "expect": "6"},
            {"id": "expand:apery", "kind": "print",
             "argv": ["expand", "apery()", "--order", "8"], "expect": APERY_ORDER8},
            {"id": "expand:psum", "kind": "print",
             "argv": ["expand", "psum(p^2-1;0;2,1)", "--order", "8"],
             "expect_sha256": PSUM_ORDER8_SHA256},
        ]
        rng.shuffle(ops)
        return ops, WARM_MODULI
    if workload == "crosscheck":
        checks = ([("cc23", CC23, [11], False), ("bad-cb", BAD_CB, [11, 13, 17], True)]
                  if reduced else CROSSCHECK)
        ops = []
        for name, text, primes, negative in checks:
            primes = list(primes)
            rng.shuffle(primes)
            ops.append(numeric_op(name, text, primes, negative))
        return ops, ()
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
