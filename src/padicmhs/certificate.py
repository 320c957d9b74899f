"""The trusted core: relations from their provenance, certificates and replay.

A proof is one :class:`ProofCertificate` record, the same in memory and in the
dumped text.  It names generating relations and their multipliers, and it
replays by integer arithmetic with no linear algebra (:func:`replay_certificate`).
This module imports only the standard library and ``compositions``, so a
"proved" verdict trusts those two modules and nothing else.

The relation (s, t, u), ``t`` nonempty, at modulus p^n is Jarossay's identity
(``h_p(s) = p^weight(s) * H_{p-1}(s)``, ``m = len(t)``, ``s sh t`` the shuffle
of the x/y-word encodings)

    h_p(s sh t)  =  (-1)^weight(t) * sum over a_1..a_m >= 0 of
                    prod C(a_i + t_i - 1, t_i - 1)
                    * h_p(t_m + a_m, ..., t_1 + a_1, s_1, ..., s_k)

cut to weight < n - weight(u) and multiplied by ``h_p(u)`` under the stuffle
product, which preserves weight; it holds mod p^n when weight(s, t, u) < n.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .compositions import (
    Comp,
    _stuffle_cached,
    bounded_tuples,
    check_comp,
    format_comp,
    parse_comp,
    shuffle,
    weight,
)

__all__ = [
    "CERTIFICATE_FORMAT_VERSION",
    "ProofCertificate",
    "all_proved",
    "dump_certificates",
    "replay_certificate",
    "verify_certificate_text",
]

Prov = tuple[Comp, Comp, Comp]  # provenance of a relation: the triple (s, t, u)

CERTIFICATE_FORMAT_VERSION = 1


def _col_key(w: Comp) -> tuple:
    """Sort key reproducing the enumerate_compositions column order."""
    return (weight(w), w)


@lru_cache(maxsize=None)
def _jarossay_identity(s: Comp, t: Comp, n: int) -> tuple[tuple[Comp, int], ...]:
    """LHS minus RHS of the double-shuffle identity, truncated to weight < n.

    Requires ``weight(s) + weight(t) < n``; with that precondition every
    retained composition automatically has weight < n, on both sides.  ``s``
    may be empty (the identity then rewrites ``h_p(t)`` itself); ``t`` empty
    gives the empty vector.  Returns a sorted tuple of (composition,
    integer coefficient) pairs with zero coefficients removed.
    """
    if weight(s) + weight(t) >= n:
        raise ValueError("identity truncation requires weight(s) + weight(t) < n")
    coords: dict[Comp, int] = dict(shuffle(s, t))
    sign = -1 if weight(t) % 2 else 1
    for head, coeff in _jarossay_tail(t, n - 1 - weight(s) - weight(t)):
        w = head + s
        coords[w] = coords.get(w, 0) - sign * coeff
    return tuple(sorted((w, c) for w, c in coords.items() if c != 0))


@lru_cache(maxsize=None)
def _jarossay_tail(t: Comp, budget: int) -> tuple[tuple[Comp, int], ...]:
    """The a-sum of the identity, without its sign and its suffix ``s``.

    One ``((t_m + a_m, ..., t_1 + a_1), prod C(a_i + t_i - 1, t_i - 1))`` per a.
    """
    m = len(t)
    return tuple(
        (
            tuple(t[i] + a[i] for i in range(m - 1, -1, -1)),
            math.prod(math.comb(ai + ti - 1, ti - 1) for ai, ti in zip(a, t)),
        )
        for a in bounded_tuples(m, budget)
    )


def _relation_coords(s: Comp, t: Comp, u: Comp, n: int) -> dict[Comp, int]:
    """Integer coordinates of the relation for the triple (s, t, u) at modulus n.

    The (s, t) identity is truncated to weight < n - weight(u) and then
    multiplied by ``h_p(u)`` via the stuffle product.  Stuffle preserves
    weight, so every retained composition has weight < n.
    """
    out: dict[Comp, int] = {}
    for w, c in _jarossay_identity(s, t, n - weight(u)):
        for v, mult in _stuffle_cached(w, u):
            out[v] = out.get(v, 0) + c * mult
    return {v: c for v, c in out.items() if c}


def _check_prov(prov: object) -> int:
    """Total weight of ``prov``; ValueError unless it is (s, t, u) with ``t`` nonempty."""
    if not (isinstance(prov, tuple) and len(prov) == 3):
        raise ValueError(f"provenance must be an (s, t, u) triple, got {prov!r}")
    s, t, u = prov
    check_comp(s, name="provenance component")
    check_comp(t, allow_empty=False, name="provenance component")
    check_comp(u, name="provenance component")
    return weight(s) + weight(t) + weight(u)


def _combine(
    combination: Sequence[tuple[Prov, Fraction]], n: int
) -> dict[Comp, Fraction]:
    """Exact sum of ``multiplier * relation(s, t, u)`` at modulus power n.

    The multipliers are scaled to one common denominator, so the integer
    relation vectors are summed as integers and each nonzero coordinate
    becomes one Fraction at the end.
    """
    den = math.lcm(*(mult.denominator for _, mult in combination))
    acc: dict[Comp, int] = {}
    for prov, mult in combination:
        scale = mult.numerator * (den // mult.denominator)
        for w, c in _relation_coords(*prov, n).items():
            acc[w] = acc.get(w, 0) + scale * c
    return {w: Fraction(c, den) for w, c in acc.items() if c}


def _line_reader(text: str, kind: str) -> Callable[..., str]:
    """Reader over the stripped nonblank lines of a basis or certificate text.

    ``read(prefix)`` returns the next line without ``prefix``; it raises
    ValueError when that line lacks the prefix or the text has ended, and
    ``read(inside=block)`` names the open block in the end-of-text message.
    A marker prefix ``end ...`` must be the whole line, and
    ``read(f"end {kind}")`` reads the last line: anything below it is a
    ValueError too.
    """
    lines = iter([ln.strip() for ln in text.splitlines() if ln.strip()])
    end = f"end {kind}"

    def read(prefix: str = "", inside: str = "") -> str:
        line = next(lines, None)
        if line is None:
            raise ValueError(
                f"{kind} text ended inside {inside}"
                if inside
                else f"{kind} text ended early, expected {prefix!r}"
            )
        if not line.startswith(prefix):
            raise ValueError(f"expected {prefix!r}, got {line!r}")
        rest = line[len(prefix):].strip()
        if prefix.startswith("end ") and rest:
            raise ValueError(f"trailing text after {prefix!r}")
        if prefix == end and next(lines, None) is not None:
            raise ValueError(f"trailing content after {prefix!r}")
        return rest

    return read


_PROV_PATTERN = r"\[s=(\([^)]*\));t=(\([^)]*\));u=(\([^)]*\))\]"


def _format_prov(prov: Prov) -> str:
    s, t, u = prov
    return f"[s={format_comp(s)};t={format_comp(t)};u={format_comp(u)}]"


def _parse_prov(text: str) -> Prov:
    m = re.fullmatch(_PROV_PATTERN, text.strip())
    if m is None:
        raise ValueError(f"malformed provenance: {text!r}")
    return tuple(map(parse_comp, m.groups()))


class ProofCertificate:
    """One certificate part: the outcome of a span-membership decision.

    The fields are those of a part of the dumped text, which
    :func:`dump_certificates` writes and :func:`verify_certificate_text`
    reads back into equal records.  ``coords`` is the target coordinate
    vector, given as a mapping or as pairs and kept as ``(composition,
    coefficient)`` pairs in column order; ``statement`` is the rendered
    statement, for the reader only.  When ``verdict`` is "proved", summing
    ``multiplier * relation(s, t, u)`` over the combination (each relation
    regenerated at ``modulus_power`` from its provenance alone) reproduces
    ``coords`` exactly, as :func:`replay_certificate` checks.  A record is
    immutable; records with equal fields are equal and hash alike.
    """

    __slots__ = ("modulus_power", "verdict", "statement", "coords", "combination")

    def __init__(self, modulus_power: int, verdict: str, statement: str, coords, combination=()):
        if verdict not in ("proved", "unproven"):
            raise ValueError(f"unknown verdict {verdict!r}")
        coords = sorted(dict(coords).items(), key=lambda it: _col_key(it[0]))
        coords = tuple((w, Fraction(c)) for w, c in coords)
        combination = tuple((prov, Fraction(mult)) for prov, mult in combination)
        for prov, _ in combination:
            _check_prov(prov)
        if verdict == "unproven" and combination:
            raise ValueError("an unproven certificate cannot carry a combination")
        fields = (modulus_power, verdict, statement, coords, combination)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # by class and fields: copies are rebuilt, and records compared
        return ProofCertificate, tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        same = type(other) is type(self)
        return self.__reduce__() == other.__reduce__() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        return f"ProofCertificate{self.__reduce__()[1]!r}"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"ProofCertificate is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def all_proved(certs: Iterable[ProofCertificate]) -> bool:
    """True when every certificate in the collection is proved."""
    return all(cert.verdict == "proved" for cert in certs)


def replay_certificate(cert: ProofCertificate) -> bool:
    """Re-derive a proved certificate by pure arithmetic (no elimination).

    Regenerates every referenced relation from its (s, t, u) provenance at
    the part's modulus power, sums the exact combination (see
    :func:`_combine`), and compares it with the target coordinates.  A part
    with modulus power < 1 is vacuously true; unproven parts never replay.
    """
    return _refusal(cert) is None


def _refusal(cert: ProofCertificate) -> str | None:
    """Why ``cert`` does not replay, or None when it does."""
    n = cert.modulus_power
    if cert.verdict != "proved":
        return f"has verdict {cert.verdict}"
    if n >= 1 and any(_check_prov(prov) >= n for prov, _ in cert.combination):
        return f"references a relation outside modulus power {n}"
    if n >= 1 and _combine(cert.combination, n) != dict(cert.coords):
        return "combination does not reproduce its target"
    return None


def dump_certificates(certs: Sequence[ProofCertificate]) -> str:
    """Plain-text, machine-replayable form of a list of certificate parts.

    Each part states its modulus power, verdict, the rendered statement,
    the target coordinate vector, and one line per combination entry in the
    form ``<multiplier> * R[s=(..);t=(..);u=(..)]``.
    """
    lines = [f"padicmhs-certificate {CERTIFICATE_FORMAT_VERSION}", f"parts {len(certs)}"]
    for i, cert in enumerate(certs, 1):
        lines += [
            f"part {i}",
            f"modulus {cert.modulus_power}",
            f"verdict {cert.verdict}",
            f"statement {cert.statement}",
            f"coords {len(cert.coords)}",
        ]
        lines += [f"c {format_comp(w)} {c}" for w, c in cert.coords]
        lines.append(f"combination {len(cert.combination)}")
        lines += [f"{mult} * R{_format_prov(prov)}" for prov, mult in cert.combination]
        lines.append("end part")
    lines.append("end certificate")
    return "\n".join(lines) + "\n"


_COMBO_LINE = re.compile(r"(-?\d+(?:/\d+)?)\s*\*\s*R" + _PROV_PATTERN)


def _parse_certificates(text: str) -> list[ProofCertificate]:
    """Inverse of :func:`dump_certificates`; raises ValueError on malformed input."""
    expect = _line_reader(text, "certificate")
    version = expect("padicmhs-certificate")
    if version != str(CERTIFICATE_FORMAT_VERSION):
        raise ValueError(f"unsupported certificate format version {version!r}")
    certs = []
    for i in range(1, int(expect("parts")) + 1):
        if expect("part") != str(i):
            raise ValueError(f"certificate parts out of order at part {i}")
        modulus = int(expect("modulus"))
        verdict = expect("verdict")
        statement = expect("statement")
        coords = []
        for _ in range(int(expect("coords"))):
            field, _, value = expect("c ").rpartition(" ")
            coords.append((parse_comp(field), Fraction(value)))
        combination = []
        for _ in range(int(expect("combination"))):
            line = expect(inside="a combination")
            m = _COMBO_LINE.fullmatch(line)
            if m is None:
                raise ValueError(f"malformed combination entry: {line!r}")
            prov = tuple(map(parse_comp, m.group(2, 3, 4)))
            combination.append((prov, Fraction(m.group(1))))
        expect("end part")
        certs.append(ProofCertificate(modulus, verdict, statement, coords, combination))
    expect("end certificate")
    return certs


def verify_certificate_text(text: str) -> tuple[bool, str]:
    """Replay a dumped certificate arithmetically.

    Returns (ok, message).  Raises ValueError when the text is malformed.
    The text is read back into :class:`ProofCertificate` records, and every
    part must pass :func:`replay_certificate`: its verdict is "proved", and
    its combination, with each relation regenerated from its provenance at
    the part's modulus power, reproduces its target coordinates exactly.
    The message names the first part that does not, and why.
    """
    certs = _parse_certificates(text)
    for i, cert in enumerate(certs, 1):
        reason = _refusal(cert)
        if reason is not None:
            return False, f"part {i} {reason}"
    return True, f"replayed {len(certs)} part(s) exactly"
