"""Relation generation and exact proof search for weighted congruences.

A *weighted congruence* asserts that a rational linear combination of
weighted multiple harmonic sums ``h_p(s) = p^weight(s) * H_{p-1}(s)``
vanishes modulo ``p^n`` for all but finitely many primes ``p``.  This module
generates a stock of such congruences by truncating Jarossay's double-shuffle
family of p-adically convergent identities, and decides whether a candidate
congruence lies in their Q-linear span.  A congruence on any series,
given as the series and a modulus power, is first split into weighted
parts, one per offset ``weight(s) - b`` (:func:`prove_mixed`).  Each
decision is one :class:`ProofCertificate` record, the same in memory and
in the dumped text, naming the generating identities and their
multipliers, so a proof replays later by integer arithmetic with no linear
algebra (:func:`replay_certificate`).  Reducing a series modulo the span
gives its canonical form (:func:`canonicalize`), whose lowest p-power is
the provable valuation.

The span is found modulo primes and lifted; modular arithmetic only
proposes, and exact checks decide:

* the relations (integer vectors) are row-reduced modulo 2^61 - 1, each
  one skipped unreduced when a fingerprint finds it in the span so far;
  this gives the pivot columns, the relations that raise the rank, and one
  annihilating functional per free column;
* the functionals are lifted to rationals by rational reconstruction and
  kept only after they vanish exactly on every generated relation (one
  packed big-integer dot product per relation), so a target is in the
  span exactly when every functional vanishes on it;
* the multipliers of a proof are solved for each target by the same
  elimination, run on the transposed system of the rank-raising relations
  with the target as its last column; they are lifted the same way and
  returned only after their exact sum reproduces the target.

A prime that loses rank (a fingerprint can err only that way) or whose
residues do not lift is passed over for the next prime of a fixed
sequence, so results do not depend on luck: in the worst case the run
stops with an error, never with a wrong verdict.

The underlying identity: for compositions ``s`` and ``t`` (``t`` nonempty),

    h_p(s sh t)  =  (-1)^weight(t) * sum over a_1..a_m >= 0 of
                    prod C(a_i + t_i - 1, t_i - 1)
                    * h_p(t_m + a_m, ..., t_1 + a_1, s_1, ..., s_k)

where ``s sh t`` is the shuffle of the x/y-word encodings and ``m = len(t)``.
Discarding all terms of weight >= n yields a weighted congruence mod p^n.
Multiplying a truncated identity by ``h_p(u)`` (a stuffle product, which
preserves weight) yields further congruences; the generator enumerates every
triple ``(s, t, u)`` with ``weight(s) + weight(t) + weight(u) < n``.
"""

from __future__ import annotations

import math
import os
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .arith import INFINITY
from .compositions import (
    Comp,
    _stuffle_cached,
    bounded_tuples,
    check_comp,
    check_int,
    enumerate_compositions,
    format_comp,
    parse_comp,
    shuffle,
    weight,
)
from .series import MhsSeries

__all__ = [
    "BASIS_FORMAT_VERSION",
    "CACHE_ENV_VAR",
    "CERTIFICATE_FORMAT_VERSION",
    "ProofCertificate",
    "RelationBasis",
    "all_proved",
    "canonicalize",
    "clear_relation_cache",
    "dump_certificates",
    "generate_relations",
    "prove_mixed",
    "prove_supercongruence",
    "prove_weighted",
    "provable_valuation",
    "replay_certificate",
    "verify_certificate_text",
]

#: Provenance of a generated relation: the triple (s, t, u).
Prov = tuple[Comp, Comp, Comp]

_ZERO = Fraction(0)

BASIS_FORMAT_VERSION = 3
CERTIFICATE_FORMAT_VERSION = 1

#: Environment variable overriding the on-disk relation cache directory.
CACHE_ENV_VAR = "PADICMHS_CACHE_DIR"

#: The largest modulus power a basis is generated for (p^11 takes 5-8 s; p^12
#: takes 42 s but 389 MB); a larger basis already held is still served.
MAX_MODULUS_POWER = 11


# -- small helpers --------------------------------------------------------


def _col_key(w: Comp) -> tuple:
    """Sort key reproducing the enumerate_compositions column order."""
    return (weight(w), w)


# -- relation construction ------------------------------------------------


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


def _relation_vectors(n: int) -> tuple[list[Prov], list[dict[int, int]]]:
    """Every triple at n and its :func:`_relation_coords` by column, zeros allowed.

    Each (s, t) identity is built once, at n, and cut for each u to the
    columns of weight < n - weight(u): the first 2^(n - 1 - weight(u)).
    """
    columns = enumerate_compositions(n - 1)
    col_index = {w: i for i, w in enumerate(columns)}
    stuffles: dict[tuple[int, Comp], list[tuple[int, int]]] = {}
    provs, vectors, key = list(_enumerate_triples(n)), [], None
    for s, t, u in provs:
        if key != (s, t):
            key = (s, t)
            ident = sorted((col_index[w], c) for w, c in _jarossay_identity(s, t, n))
            ident_cols = [col for col, _ in ident]
        vec: dict[int, int] = {}
        for col, c in ident[: bisect_left(ident_cols, 1 << (n - 1 - weight(u)))]:
            table = stuffles.get((col, u))
            if table is None:
                table = stuffles[col, u] = [
                    (col_index[v], mult) for v, mult in _stuffle_cached(columns[col], u)
                ]
            for j, mult in table:
                vec[j] = vec.get(j, 0) + c * mult
        vectors.append(vec)
    return provs, vectors


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


# -- modular arithmetic ----------------------------------------------------


#: The primes of the modular steps, tried in this order: 2^61 - 1 and the
#: next seven primes below it.  Together they lift fractions whose numerators
#: and denominators have up to about 240 bits.
_PRIMES = tuple((1 << 61) - 1 - d for d in (0, 30, 44, 228, 258, 282, 338, 390))


def _reconstruct(a: int, m: int) -> Fraction | None:
    """The fraction n/d with |n|, d <= sqrt(m/2) and n == a*d (mod m), if any.

    Rational reconstruction (Wang, Guy & Davenport 1982): such a fraction is
    unique when it exists, and the extended Euclidean algorithm finds it.
    """
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, a % m, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1, s0, s1 = r1, r0 - quo * r1, s1, s0 - quo * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _lift(
    residues_at: Callable[[int], tuple[tuple, dict] | None],
    exact: Callable[[dict], bool],
) -> tuple[tuple, dict]:
    """Rational values found modulo the primes of ``_PRIMES``.

    ``residues_at(q)`` returns None when the prime q is unusable, else a
    pair ``(key, residues)``: the values modulo q, and a key that is
    smallest for the primes that keep the most of the rational structure
    (smaller means higher rank, then earlier pivots).  Residues of the primes
    sharing the smallest key seen so far are combined by the Chinese
    remainder theorem and rationally reconstructed after each prime.  The
    first reconstruction that ``exact`` accepts is returned with its key;
    nothing unchecked is ever returned.  Raises RuntimeError when the primes
    run out first.
    """
    best: tuple | None = None
    acc: dict = {}
    modulus = 1
    for q in _PRIMES:
        found = residues_at(q)
        if found is None:
            continue
        key, residues = found
        if best is None or key < best:
            best, acc, modulus = key, residues, q
        elif key == best:
            inv = pow(modulus, -1, q)
            acc = {
                k: a + modulus * ((residues[k] - a) * inv % q) for k, a in acc.items()
            }
            modulus *= q
        else:
            continue
        values = {}
        for k, a in acc.items():
            value = _reconstruct(a, modulus)
            if value is None:
                break
            values[k] = value
        else:
            if exact(values):
                return best, values
    raise RuntimeError(
        f"no rational values lifted from {len(_PRIMES)} primes passed the exact check"
    )


def _fingerprint_weights(ncols: int, q: int) -> list[int]:
    """Fixed pseudo-random weights modulo q, one per column: powers of one base."""
    return [pow(0x9E3779B97F4A7C15, col, q) for col in range(ncols)]


def _echelon(
    vectors: Iterable[Mapping[int, int]], ncols: int, q: int
) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
    """Reduced row echelon form modulo q of integer vectors taken in order.

    Returns ``(rows, raised)``: ``rows`` maps each pivot column to its row
    without the pivot entry, 1 (zero in every other pivot column), and
    ``raised`` maps it to the position of the vector that raised the rank
    there.  A row's pivot is its smallest column, so the largest column is a
    pivot exactly when some combination of the vectors is nonzero in that
    column alone.  The span of the relations and the multipliers of a proof
    (see :meth:`RelationBasis.express`) are both read from this elimination.

    A vector whose fingerprint ``g . vec`` vanishes is skipped unreduced; g
    is kept through back-substitution so that ``g . x = r . reduced(x)``
    for the weights r of :func:`_fingerprint_weights`.  In the span that is
    always 0, outside it with probability about ncols/q: the rank then drops
    or a pivot moves to a later vector, which the callers' exact checks
    reject and ``_lift`` ranks below a prime that kept the rank.  Sums stay
    unreduced ints until the end.
    """
    g = _fingerprint_weights(ncols, q)
    rows: dict[int, dict[int, int]] = {}
    raised: dict[int, int] = {}
    for k, vec in enumerate(vectors):
        if not sum(g[col] * c for col, c in vec.items()) % q:
            continue
        acc: dict[int, int] = {}
        for col, c in vec.items():
            row = rows.get(col)
            if row is None:
                acc[col] = acc.get(col, 0) + c
            else:
                for j, a in row.items():
                    acc[j] = acc.get(j, 0) - c * a
        work = {col: c % q for col, c in acc.items() if c % q}
        piv = min(work)
        inv = pow(work.pop(piv), -1, q)
        new = {col: c * inv % q for col, c in work.items()}
        gp = -sum(g[col] * c for col, c in new.items()) % q
        step = g[piv] - gp
        for p, row in rows.items():
            c = row.pop(piv, 0) % q
            if c:
                for col, a in new.items():
                    row[col] = row.get(col, 0) - c * a
                g[p] = (g[p] + c * step) % q
        g[piv] = gp
        rows[piv] = new
        raised[piv] = k
    for p, row in rows.items():
        rows[p] = {col: c % q for col, c in row.items() if c % q}
    return rows, raised


def _annihilator_residues(
    vectors: Sequence[Mapping[int, int]], ncols: int, q: int
) -> tuple[tuple, dict[tuple[int, int], int]]:
    """Residues modulo q of the annihilating functionals of ``vectors``.

    For each free column f of the mod-q reduced row echelon form, the
    functional is ``e_f - sum_j a_{j,f} e_{pivot_j}`` (``a_{j,f}`` the entry
    of row j in column f); the residues are keyed ``(f, column)``.  The key
    ranks q by rank, then pivot columns, then the vectors that raised the
    rank at them.
    """
    rows, raised = _echelon(vectors, ncols, q)
    pivots = sorted(rows)
    residues: dict[tuple[int, int], int] = {}
    for f in range(ncols):
        if f not in rows:
            residues[(f, f)] = 1
            for p in pivots:
                if p > f:
                    break
                residues[(f, p)] = -rows[p].get(f, 0) % q
    return (-len(pivots), tuple(pivots), tuple(raised[p] for p in pivots)), residues


def _functionals(
    values: Mapping[tuple[int, int], Fraction]
) -> dict[int, dict[int, Fraction]]:
    """Group lifted ``(f, column)`` entries by free column, dropping zeros."""
    out: dict[int, dict[int, Fraction]] = {}
    for (f, col), v in values.items():
        if v:
            out.setdefault(f, {})[col] = v
    return out


def _annihilates(
    values: Mapping[tuple[int, int], Fraction], vectors: Sequence[Mapping[int, int]]
) -> bool:
    """Exact check that every lifted functional vanishes on every vector.

    Scaled to integers, functional i fills the signed slot ``2^(i * width)``
    of one packed integer per column.  A slot is wider than any lambda_i(vec),
    so the packed dot product with vec is zero exactly when every lambda_i(vec)
    is: the lowest nonzero slot leaves a sum not divisible by the next slot.
    """
    scaled = []
    for lam in _functionals(values).values():
        den = math.lcm(*(v.denominator for v in lam.values()))
        scaled.append({col: int(v * den) for col, v in lam.items()})
    top = max((abs(a) for lam in scaled for a in lam.values()), default=0)
    big = max((abs(c) for vec in vectors for c in vec.values()), default=0)
    width = (top * big * max(map(len, vectors), default=0)).bit_length() + 2
    packed: dict[int, int] = {}
    for i, lam in enumerate(scaled):
        for col, a in lam.items():
            packed[col] = packed.get(col, 0) + (a << (i * width))
    return not any(
        sum(packed[col] * c for col, c in vec.items() if col in packed) for vec in vectors
    )


# -- relation bases --------------------------------------------------------


class RelationBasis:
    """The span of the generated relations at one modulus power.

    Over the column order of ``enumerate_compositions(n - 1)``, the span has
    the pivot columns of its reduced row echelon form (RREF) and one free
    column f for each other column.  The basis stores the pivots, the
    *independent triples* (triple i is the (s, t, u) relation that raised
    the rank at pivot i; together they form a basis of the span), and for
    each free column f the annihilating functional

        lambda_f = e_f - sum_j a_{j,f} e_{pivot_j},

    where ``a_{j,f}`` is the RREF entry of row j in column f.  The
    functionals vanish on every generated relation, so a vector lies in the
    span exactly when every ``lambda_f`` vanishes on it.  The basis at any
    smaller modulus power is a prefix of this one (see :meth:`_prefix`).
    """

    __slots__ = (
        "_modulus",
        "_columns",
        "_col_index",
        "_pivots",
        "_triples",
        "_annihilators",
        "_triple_rows",
        "_prefixes",
    )

    def __init__(
        self,
        modulus_power: int,
        pivots: Sequence[Comp],
        triples: Sequence[Prov],
        annihilators: Mapping[Comp, Mapping[Comp, Fraction]],
    ) -> None:
        check_int(modulus_power, "modulus_power", 1)
        if len(pivots) != len(triples):
            raise ValueError("pivots and independent triples must align")
        self._init(modulus_power, pivots, triples, {})
        last = -1
        for piv in pivots:
            idx = self._col_index.get(piv)
            if idx is None:
                raise ValueError(f"pivot {format_comp(piv)} outside column range")
            if idx <= last:
                raise ValueError("pivot columns must be strictly increasing")
            last = idx
        for prov in triples:
            if _check_prov(prov) >= modulus_power:
                raise ValueError("independent triple outside the modulus power")
        pivot_set = set(pivots)
        free = [w for w in self._columns if w not in pivot_set]
        if set(annihilators) != set(free):
            raise ValueError("annihilators must be indexed by the free columns")
        kept: dict[Comp, dict[Comp, Fraction]] = {}
        for f in free:
            lam = {w: Fraction(c) for w, c in annihilators[f].items() if c != 0}
            if lam.get(f) != 1 or not set(lam) - {f} <= pivot_set:
                raise ValueError(
                    f"annihilator {format_comp(f)} must be e_f plus pivot columns"
                )
            kept[f] = lam
        self._annihilators = kept

    def _init(self, n: int, pivots, triples, annihilators) -> None:
        self._modulus = n
        self._columns = enumerate_compositions(n - 1)
        self._col_index = {w: i for i, w in enumerate(self._columns)}
        self._pivots = list(pivots)
        self._triples = list(triples)
        self._annihilators = annihilators
        self._triple_rows: dict[Comp, dict[int, int]] | None = None
        self._prefixes: dict[int, RelationBasis] = {}

    @property
    def modulus_power(self) -> int:
        return self._modulus

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivots(self) -> list[Comp]:
        return list(self._pivots)

    @property
    def columns(self) -> list[Comp]:
        return list(self._columns)

    def _prefix(self, n: int) -> "RelationBasis":
        """The basis at modulus power ``n <= modulus_power``, with no elimination.

        A relation of total weight >= n has no coordinate of weight < n and
        an RREF row is zero left of its pivot, so the elimination at n is
        this one on the columns of weight < n: the pivots of weight < n, the
        triples that raised the rank at them, and the lambda_f with
        weight(f) < n, already checked exactly on every relation.  So a
        prefix skips the checks of ``__init__``, shares the functionals, and
        is built once per n and kept with this basis.
        """
        if n == self._modulus:
            return self
        if n not in self._prefixes:
            r = sum(weight(piv) < n for piv in self._pivots)
            lams = {f: lam for f, lam in self._annihilators.items() if weight(f) < n}
            prefix = self._prefixes[n] = object.__new__(RelationBasis)
            prefix._init(n, self._pivots[:r], self._triples[:r], lams)
        return self._prefixes[n]

    def reduce(self, coords: Mapping[Comp, Fraction]) -> dict[Comp, Fraction]:
        """Canonical representative of ``coords`` modulo the span.

        It is supported on the free columns, with ``lambda_f(coords)`` in
        column f: the same vector as subtracting RREF rows until no pivot
        column is left.
        """
        for w in coords:
            if w not in self._col_index:
                raise ValueError(
                    f"coordinate {format_comp(w)} has weight >= modulus power "
                    f"{self._modulus}"
                )
        out: dict[Comp, Fraction] = {}
        for f, lam in self._annihilators.items():
            value = sum((lam[w] * c for w, c in coords.items() if w in lam), _ZERO)
            if value:
                out[f] = value
        return out

    def express(
        self, coords: Mapping[Comp, Fraction]
    ) -> dict[Prov, Fraction] | None:
        """Write ``coords`` as a combination of original relations, if possible.

        Returns a mapping from provenance triples to multipliers such that
        the exact sum of multiplier * relation reproduces ``coords``; returns
        None when ``coords`` is outside the span.  The multipliers are found
        modulo primes and lifted (see :func:`_lift`); they are returned only
        after the exact sum has been checked.
        """
        if self.reduce(coords):
            return None
        target = {w: Fraction(c) for w, c in coords.items() if c != 0}
        if not target:
            return {}
        _, values = _lift(
            lambda q: self._combination_residues(target, q),
            lambda values: self._replays(values, target),
        )
        return {self._triples[k]: v for k, v in values.items() if v}

    def _combination_residues(
        self, target: Mapping[Comp, Fraction], q: int
    ) -> tuple[tuple, dict[int, int]] | None:
        """Multipliers of the independent triples for ``target``, modulo q.

        Row-reduces the transposed system: one row per composition w, with
        w's coefficient in the relation of independent triple k in column k
        and the target's in column r = rank.  Fewer than r pivots among the
        columns below r means the triples are dependent modulo q, and q is
        passed over; otherwise a pivot in column r means the target is
        outside their span, and else column r holds the multipliers.
        """
        if any(c.denominator % q == 0 for c in target.values()):
            return None
        r = self.rank
        system = []
        for w, row in self._transposed_triples().items():
            c = target.get(w)
            if c is not None:
                row = {**row, r: c.numerator * pow(c.denominator, -1, q)}
            system.append(row)
        rows, _ = _echelon(system, r + 1, q)
        if not all(k in rows for k in range(r)):
            return None
        if r in rows:
            raise RuntimeError(
                f"relation basis at modulus p^{self._modulus} is inconsistent: "
                "a target its annihilators accept is outside the span of its "
                "independent triples"
            )
        return (), {k: rows[k].get(r, 0) for k in range(r)}

    def _transposed_triples(self) -> dict[Comp, dict[int, int]]:
        """Column w -> {k: w's coefficient in the relation of independent triple k}.

        The triple part of the transposed system, the same for every target
        and prime; built on first use and kept with the basis.
        """
        if self._triple_rows is None:
            system: dict[Comp, dict[int, int]] = {w: {} for w in self._columns}
            for k, prov in enumerate(self._triples):
                for w, c in _relation_coords(*prov, self._modulus).items():
                    system[w][k] = c
            self._triple_rows = system
        return self._triple_rows

    def _replays(self, values: Mapping[int, Fraction], target: Mapping) -> bool:
        combination = [(self._triples[k], mult) for k, mult in values.items()]
        return _combine(combination, self._modulus) == target

    # -- serialization ----------------------------------------------------

    def dump(self) -> str:
        """Self-describing text form (also the on-disk cache format)."""
        lines = [
            f"padicmhs-basis {BASIS_FORMAT_VERSION}",
            f"modulus {self._modulus}",
            f"columns {len(self._columns)}",
            f"rank {self.rank}",
        ]
        lines += [f"pivot {format_comp(p)}" for p in self._pivots]
        lines += [f"triple {_format_prov(t)}" for t in self._triples]
        for f, lam in self._annihilators.items():
            lines.append(f"annihilator {format_comp(f)}")
            for w in sorted(lam, key=_col_key):
                lines.append(f"a {format_comp(w)} {lam[w]}")
            lines.append("end annihilator")
        lines.append("end basis")
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, text: str) -> "RelationBasis":
        """Inverse of :meth:`dump`; raises ValueError on malformed input."""
        expect = _line_reader(text, "basis")
        version = expect("padicmhs-basis")
        if version != str(BASIS_FORMAT_VERSION):
            raise ValueError(f"unsupported basis format version {version!r}")
        modulus = int(expect("modulus"))
        ncols = int(expect("columns"))
        rank = int(expect("rank"))
        if ncols != len(enumerate_compositions(modulus - 1)):
            raise ValueError("column count does not match the modulus power")
        pivots = [parse_comp(expect("pivot ")) for _ in range(rank)]
        triples = [_parse_prov(expect("triple ")) for _ in range(rank)]
        annihilators: dict[Comp, dict[Comp, Fraction]] = {}
        for _ in range(ncols - rank):
            lam = annihilators.setdefault(parse_comp(expect("annihilator ")), {})
            while True:
                line = expect(inside="an annihilator")
                if line == "end annihilator":
                    break
                tag, _, rest = line.partition(" ")
                field, _, value = rest.rpartition(" ")
                if tag != "a":
                    raise ValueError(f"unexpected line in annihilator: {line!r}")
                lam[parse_comp(field)] = Fraction(value)
        expect("end basis")
        return cls(modulus, pivots, triples, annihilators)


def _line_reader(text: str, kind: str) -> Callable[..., str]:
    """Reader over the stripped nonblank lines of a basis or certificate text.

    ``read(prefix)`` returns the next line without ``prefix``; it raises
    ValueError when that line lacks the prefix or the text has ended, and
    ``read(inside=block)`` names the open block in the end-of-text message.
    ``read(f"end {kind}")`` reads the last line: anything after the marker,
    on its line or below it, is a ValueError too.
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
        if prefix == end and (rest or next(lines, None) is not None):
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


# -- generation with caching ----------------------------------------------

#: The basis at the largest modulus power asked for so far in this process.
_PROCESS_BASIS: RelationBasis | None = None


def clear_relation_cache() -> None:
    """Forget the in-process basis and its prefixes (the cache file is left alone)."""
    global _PROCESS_BASIS
    _PROCESS_BASIS = None


def _resolve_cache_dir(cache_dir: str | os.PathLike | None) -> Path:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "padicmhs"


def _cache_path(cache_dir: str | os.PathLike | None) -> Path:
    return _resolve_cache_dir(cache_dir) / f"relations-v{BASIS_FORMAT_VERSION}.txt"


def _enumerate_triples(n: int) -> Iterator[Prov]:
    """Triples (s, t, u), t nonempty, total weight < n, in a fixed order."""
    comps = enumerate_compositions(n - 1)  # weight-ascending; () first
    nonempty = [c for c in comps if c]
    for s in comps:
        ws = weight(s)
        for t in nonempty:
            wst = ws + weight(t)
            if wst >= n:
                break  # t is weight-ascending
            for u in comps:
                if wst + weight(u) >= n:
                    break  # u is weight-ascending
                yield (s, t, u)


def generate_relations(
    n: int, cache_dir: str | os.PathLike | None = None
) -> RelationBasis:
    """The span of all generated relations at modulus power ``n``.

    Enumerates every triple ``(s, t, u)`` with ``t`` nonempty (``s`` and
    ``u`` may be empty) and total weight below ``n``, truncates the (s, t)
    identity to weight < n - weight(u), multiplies by ``h_p(u)`` under the
    stuffle product, and finds the span of the resulting integer vectors
    modulo primes, keeping the annihilating functionals only once they
    vanish exactly on every vector (see :class:`RelationBasis`).  One basis,
    at the largest modulus power asked for so far, is kept per process and
    in one versioned text file in ``cache_dir`` (argument, else the
    PADICMHS_CACHE_DIR environment variable, else a per-user cache
    directory); a smaller ``n`` is read off it as a prefix.  A basis is
    generated only when ``n`` exceeds both, an unreadable or stale file
    counting as none, and then replaces the file.  Refuses to generate a
    basis above MAX_MODULUS_POWER; a larger one already held is served.
    """
    global _PROCESS_BASIS
    check_int(n, "modulus power n", 1)
    path = _cache_path(cache_dir)
    if _PROCESS_BASIS is None or _PROCESS_BASIS.modulus_power < n:
        try:
            _PROCESS_BASIS = RelationBasis.load(path.read_text())
        except (ValueError, OSError):
            pass
    if _PROCESS_BASIS is not None and _PROCESS_BASIS.modulus_power >= n:
        return _PROCESS_BASIS._prefix(n)
    if n > MAX_MODULUS_POWER:
        raise ValueError(
            f"relation basis at modulus p^{n} is beyond the largest, p^{MAX_MODULUS_POWER}"
        )

    columns = enumerate_compositions(n - 1)
    provs, vectors = _relation_vectors(n)
    (_, pivots, raised_by), values = _lift(
        lambda q: _annihilator_residues(vectors, len(columns), q),
        lambda values: _annihilates(values, vectors),
    )
    annihilators = {
        columns[f]: {columns[col]: v for col, v in lam.items()}
        for f, lam in _functionals(values).items()
    }
    basis = _PROCESS_BASIS = RelationBasis(
        n,
        [columns[p] for p in pivots],
        [provs[k] for k in raised_by],
        annihilators,
    )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(basis.dump())
        tmp.replace(path)
    except OSError:
        pass  # persisting is best-effort; the in-process basis is authoritative
    return basis


# -- proof search ----------------------------------------------------------


@dataclass(frozen=True)
class ProofCertificate:
    """One certificate part: the outcome of a span-membership decision.

    The fields are those of a part of the dumped text, which
    :func:`dump_certificates` writes and :func:`verify_certificate_text`
    reads back into equal records.  ``coords`` is the target coordinate
    vector, given as a mapping or as pairs and kept as ``(composition,
    coefficient)`` pairs in column order; ``statement`` is the rendered
    statement, for the reader only.  When
    ``verdict`` is "proved", summing ``multiplier * relation(s, t, u)`` over
    the combination (each relation regenerated at ``modulus_power`` from its
    provenance alone) reproduces ``coords`` exactly, as
    :func:`replay_certificate` checks.
    """

    modulus_power: int
    verdict: str
    statement: str
    coords: tuple[tuple[Comp, Fraction], ...]
    combination: tuple[tuple[Prov, Fraction], ...] = ()

    def __post_init__(self) -> None:
        if self.verdict not in ("proved", "unproven"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        coords = sorted(dict(self.coords).items(), key=lambda it: _col_key(it[0]))
        combo = tuple((prov, Fraction(mult)) for prov, mult in self.combination)
        for prov, _ in combo:
            _check_prov(prov)
        if self.verdict == "unproven" and combo:
            raise ValueError("an unproven certificate cannot carry a combination")
        object.__setattr__(self, "coords", tuple((w, Fraction(c)) for w, c in coords))
        object.__setattr__(self, "combination", combo)


def _check_congruence(series: MhsSeries, n: int) -> None:
    """Refuse ``series == 0 mod p^n`` unless it is a congruence the series can state.

    The modulus power is an int and not a bool (which would print as
    "modulus True" in a certificate), and a series known only to O(p^N)
    says nothing modulo p^n for n > N.
    """
    if not isinstance(series, MhsSeries):
        raise TypeError("series must be an MhsSeries")
    check_int(n, "modulus power n")
    if series.order is not None and n > series.order:
        raise ValueError(
            f"congruence mod p^{n} is not expressible from a series "
            f"known only to O(p^{series.order})"
        )


def _offset_parts(series: MhsSeries, n: int) -> dict[int, MhsSeries]:
    """Split ``series == 0 mod p^n`` into weighted parts, one per offset.

    The terms with offset ``k = weight(s) - b`` are rescaled by ``p^k``,
    which makes every one of them weighted, and part k is asserted modulo
    ``p^(n+k)``.  The parts together imply the input: multiplying each by
    ``p^(-k)`` and summing gives back its terms.  The zero series has none.
    """
    _check_congruence(series, n)
    groups: dict[int, dict[tuple[int, Comp], Fraction]] = {}
    for (b, s), c in series.terms.items():
        k = weight(s) - b
        groups.setdefault(k, {})[(b + k, s)] = c
    order = series.order
    return {  # rescaled terms of a normalized series
        k: MhsSeries._trusted(terms, None if order is None else order + k)
        for k, terms in groups.items()
    }


def prove_weighted(
    part: MhsSeries, n: int, cache_dir: str | os.PathLike | None = None
) -> ProofCertificate:
    """Decide the weighted congruence ``part == 0 mod p^n`` by span membership.

    Every term of ``part`` must be weighted, its p-exponent the weight of
    its composition.  The coordinate vector keeps the compositions of
    weight < n: any other ``h_p(w)`` has valuation >= weight(w) >= n on its
    own, so it does not affect provability.  The zero vector is proved with
    an empty combination, and one with a constant is unproven (no relation
    has weight 0).  Everything else is tested against
    :func:`generate_relations` at modulus power n; the verdict is "proved"
    exactly when the vector is a Q-linear combination of generated relations.
    """
    _check_congruence(part, n)
    coords: dict[Comp, Fraction] = {}
    for (b, s), c in part.terms.items():
        if b != weight(s):
            raise ValueError(
                f"expected a weighted series, but p^{b} * H{format_comp(s)} "
                f"has weight {weight(s)}"
            )
        if b < n:
            coords[s] = c
    statement = f"{part.render()} = 0 mod p^{n}"
    if () in coords:
        combo = None
    else:
        combo = generate_relations(n, cache_dir).express(coords) if coords else {}
    if combo is None:
        return ProofCertificate(n, "unproven", statement, coords)
    return ProofCertificate(n, "proved", statement, coords, sorted(combo.items()))


def prove_mixed(
    series: MhsSeries, n: int, cache_dir: str | os.PathLike | None = None
) -> list[ProofCertificate]:
    """Prove ``series == 0 mod p^n`` by its weighted parts (:func:`_offset_parts`).

    The parts are proved from the largest modulus down, so one basis
    generation serves them all, and returned one certificate per part in
    ascending offset order (a single trivially proved certificate for the
    zero series).  The input is proved iff every certificate is.
    """
    parts = _offset_parts(series, n) or {0: series}
    certs = {k: prove_weighted(parts[k], n + k, cache_dir) for k in sorted(parts, reverse=True)}
    return [certs[k] for k in sorted(certs)]


def all_proved(certs: Iterable[ProofCertificate]) -> bool:
    """True when every certificate in the collection is proved."""
    return all(cert.verdict == "proved" for cert in certs)


def prove_supercongruence(
    lhs: MhsSeries,
    rhs: MhsSeries,
    n: int,
    cache_dir: str | os.PathLike | None = None,
) -> list[ProofCertificate]:
    """Prove ``lhs == rhs (mod p^n)`` given series of order >= n.

    Both sides must be known at least to order ``n`` (exact series qualify);
    the difference is truncated to order ``n`` and handed to
    :func:`prove_mixed`.
    """
    check_int(n, "modulus power n", 1)
    for name, side in (("lhs", lhs), ("rhs", rhs)):
        if not isinstance(side, MhsSeries):
            raise TypeError(f"{name} must be an MhsSeries")
        if side.order is not None and side.order < n:
            raise ValueError(
                f"{name} is only known to O(p^{side.order}), cannot assert mod p^{n}"
            )
    return prove_mixed((lhs - rhs).truncate(n), n, cache_dir)


def canonicalize(
    series: MhsSeries, order: int | None = None, *, cache_dir=None
) -> MhsSeries:
    """Reduce each offset part of ``series`` modulo the relation span.

    The output is congruent to the input modulo ``p^order`` (default: the
    series order): each offset part becomes its ``lambda_f`` values, one per
    free column f of the basis at the part's modulus, reduced from the
    largest modulus down so that one generation serves every part.
    Constants pass through unchanged, with no basis.
    """
    if order is None:
        order = series.order
    if order is None:
        raise ValueError("canonicalize needs a finite truncation order")
    parts = _offset_parts(series.truncate(check_int(order, "order")), order)
    out: dict[tuple[int, Comp], Fraction] = {}
    for k in sorted(parts, reverse=True):
        # the truncation leaves every composition of part k below weight order + k
        coords = {s: c for (_, s), c in parts[k].terms.items()}
        reduced = {(): coords.pop(())} if () in coords else {}
        if coords:
            reduced.update(generate_relations(order + k, cache_dir).reduce(coords))
        for s, c in reduced.items():
            out[(weight(s) - k, s)] = c
    return MhsSeries(out, order)


def provable_valuation(
    series: MhsSeries, cache_dir: str | os.PathLike | None = None
):
    """Largest n <= series.order such that the series provably vanishes mod p^n.

    Each ``lambda_f`` involves only columns of weight <= weight(f) and the
    basis at a smaller modulus is a prefix, so the series lies in the span
    mod p^n exactly when its canonical form (:func:`canonicalize`) has no
    term below p^n: the answer is the form's lowest p-power (0 if negative).
    The exact zero series returns INFINITY; other exact series are
    canonicalized one order at a time upward from their guaranteed valuation
    until a form keeps a term or the basis is refused.  The answer is
    proved once by :func:`prove_mixed`; a failed proof raises RuntimeError.
    """
    if series.order is not None:
        form = canonicalize(series, series.order, cache_dir=cache_dir)
    elif series.is_zero():
        return INFINITY
    else:
        order = max(series.min_valuation(), 0)
        while True:
            order += 1
            form = canonicalize(series, order, cache_dir=cache_dir)
            if not form.is_zero():
                break
    v = max(form.min_valuation(), 0)
    if v:  # a congruence mod p^0 is vacuous
        if not all_proved(prove_mixed(series.truncate(v), v, cache_dir)):
            raise RuntimeError(f"canonical-form valuation {v} failed its proof")
    return v


# -- certificate serialization and replay ----------------------------------


def replay_certificate(cert: ProofCertificate) -> bool:
    """Re-derive a proved certificate by pure arithmetic (no elimination).

    Regenerates every referenced relation from its (s, t, u) provenance at
    the part's modulus power, sums the exact combination (see
    :func:`_combine`), and compares it with the target coordinates.  A part
    with modulus power < 1 is vacuously true; unproven parts never replay.
    """
    if _refusal(cert) is not None:
        return False
    n = cert.modulus_power
    return n < 1 or _combine(cert.combination, n) == dict(cert.coords)


def _refusal(cert: ProofCertificate) -> str | None:
    """Why ``cert`` fails before its combination is summed, or None."""
    n = cert.modulus_power
    if cert.verdict != "proved":
        return f"has verdict {cert.verdict}"
    if n >= 1 and any(_check_prov(prov) >= n for prov, _ in cert.combination):
        return f"references a relation outside modulus power {n}"
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
        if expect("end part") != "":
            raise ValueError(f"missing 'end part' after part {i}")
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
    """
    certs = _parse_certificates(text)
    for i, cert in enumerate(certs, 1):
        if not replay_certificate(cert):
            reason = _refusal(cert) or "combination does not reproduce its target"
            return False, f"part {i} {reason}"
    return True, f"replayed {len(certs)} part(s) exactly"
