"""Relation generation and exact proof search for weighted congruences.

A *weighted congruence* asserts that a rational linear combination of
weighted multiple harmonic sums ``h_p(s) = p^weight(s) * H_{p-1}(s)``
vanishes modulo ``p^n`` for all but finitely many primes ``p``.  This module
generates a stock of such congruences, the relations of
:mod:`padicmhs.certificate` (truncations of Jarossay's double-shuffle
identities, times ``h_p(u)``, for every triple ``(s, t, u)`` of total weight
< n), and decides whether a candidate congruence lies in their Q-linear
span.  A congruence on any series, given as the series and a modulus power,
is first split into weighted parts, one per offset ``weight(s) - b``
(:func:`prove_mixed`).  Each decision is one ``ProofCertificate``, which
replays without this module.  Reducing a series modulo the span gives its
canonical form (:func:`canonicalize`), whose lowest p-power is the provable
valuation.

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
"""

from __future__ import annotations

import math
import os
import re
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .arith import INFINITY
from .certificate import (
    ProofCertificate,
    Prov,
    _check_prov,
    _col_key,
    _combine,
    _format_prov,
    _line_reader,
    _parse_prov,
    _relation_coords,
    all_proved,
    # re-exported: the benchmark (perfbench/child.py, tracer.py) calls and traces it here
    verify_certificate_text,
)
from .compositions import (
    Comp,
    check_int,
    enumerate_compositions,
    format_comp,
    parse_comp,
    weight,
)
from .series import MhsSeries

__all__ = [
    "BASIS_FORMAT_VERSION",
    "CACHE_ENV_VAR",
    "RelationBasis",
    "canonicalize",
    "clear_relation_cache",
    "generate_relations",
    "prove_mixed",
    "prove_weighted",
    "provable_valuation",
]

_ZERO = Fraction(0)

BASIS_FORMAT_VERSION = 3

#: Environment variable overriding the on-disk relation cache directory.
CACHE_ENV_VAR = "PADICMHS_CACHE_DIR"

#: The largest modulus power a basis is generated for (p^11 takes 5-8 s; a cold p^12
#: took 37 s and 267 MB on Python 3.11); a larger basis already held is still served.
MAX_MODULUS_POWER = 11


#: A sparse integer vector as two tuples: its columns and their coefficients.
Vector = tuple[tuple[int, ...], tuple[int, ...]]


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
    vectors: Iterable[Vector], ncols: int, q: int
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
    for k, (cols, coeffs) in enumerate(vectors):
        if not sum(g[col] * c for col, c in zip(cols, coeffs)) % q:
            continue
        acc: dict[int, int] = {}
        for col, c in zip(cols, coeffs):
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
    vectors: Sequence[Vector], ncols: int, q: int
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


def _annihilates(values: Mapping[tuple, Fraction], vectors: Sequence[Vector]) -> bool:
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
    big = max((abs(c) for _, coeffs in vectors for c in coeffs), default=0)
    width = (top * big * max((len(cols) for cols, _ in vectors), default=0)).bit_length() + 2
    packed: dict[int, int] = {}
    for i, lam in enumerate(scaled):
        for col, a in lam.items():
            packed[col] = packed.get(col, 0) + (a << (i * width))
    return not any(
        sum(packed[col] * c for col, c in zip(cols, coeffs) if col in packed)
        for cols, coeffs in vectors
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
        "_system",
        "_prefixes",
    )

    def __init__(
        self,
        modulus_power: int,
        pivots: Sequence[Comp],
        triples: Sequence[Prov],
        annihilators: dict[Comp, dict[Comp, Fraction]],
    ) -> None:
        """A basis from parts that already fit together, kept as given.

        Generation, :meth:`load` (after its checks) and :meth:`_prefix` are
        the only builders; ``annihilators`` maps each free column, in column
        order, to its nonzero ``lambda_f`` entries.
        """
        self._modulus = modulus_power
        self._columns = enumerate_compositions(modulus_power - 1)
        self._col_index = {w: i for i, w in enumerate(self._columns)}
        self._pivots = list(pivots)
        self._triples = list(triples)
        self._annihilators = annihilators
        self._system: dict[Comp, Vector] | None = None
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
        prefix shares the functionals and is built once per n and kept with
        this basis.
        """
        if n == self._modulus:
            return self
        if n not in self._prefixes:
            r = sum(weight(piv) < n for piv in self._pivots)
            lams = {f: lam for f, lam in self._annihilators.items() if weight(f) < n}
            self._prefixes[n] = RelationBasis(n, self._pivots[:r], self._triples[:r], lams)
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
        outside their span, and else column r holds the multipliers.  The
        triples' part of the system is the same for every target and prime,
        so it is built from the triples on the first call and kept.
        """
        if any(c.denominator % q == 0 for c in target.values()):
            return None
        if self._system is None:
            relations = [_relation_coords(*t, self._modulus) for t in self._triples]
            self._system = _transpose(self._columns, relations)
        r = self.rank
        system = []
        for w, (ks, cs) in self._system.items():
            c = target.get(w)
            if c is not None:
                ks, cs = ks + (r,), cs + (c.numerator * pow(c.denominator, -1, q),)
            system.append((ks, cs))
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
        """Inverse of :meth:`dump`; raises ValueError on malformed input.

        The one way text from outside the program becomes a basis, so it is
        checked here: the pivots are the columns with no annihilator, no
        independent triple outweighs the pivot it raised (every coordinate of
        a relation weighs at least its triple), no triple is repeated, each
        annihilator is e_f plus pivot columns, and each vanishes exactly on
        the relation of every triple, regenerated from its provenance (one
        packed check, :func:`_annihilates`).  An edited entry of lambda_f at
        pivot j fails on RREF row j, which lies in the triples' span.  Still
        trusted: that the distinct triples are independent and span every
        generated relation, so that an annihilator that rejects a target
        shows it outside the span.  Dependent triples stop a proof search
        with an error (exit 2 from the CLI), and every proof replays, so a
        file that breaks this never yields a false "proved".
        """
        expect = _line_reader(text, "basis")
        version = expect("padicmhs-basis")
        if version != str(BASIS_FORMAT_VERSION):
            raise ValueError(f"unsupported basis format version {version!r}")
        modulus = check_int(int(expect("modulus")), "modulus power", 1)
        ncols = int(expect("columns"))
        rank = int(expect("rank"))
        columns = enumerate_compositions(modulus - 1)
        if ncols != len(columns):
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

        if list(annihilators) != [w for w in columns if w in annihilators]:
            raise ValueError("annihilators must be indexed by the free columns, in column order")
        if pivots != [w for w in columns if w not in annihilators]:
            raise ValueError("pivots must be the columns with no annihilator")
        for piv, prov in zip(pivots, triples):
            if _check_prov(prov) > weight(piv):
                raise ValueError(f"independent triple heavier than its pivot {format_comp(piv)}")
        if len(set(triples)) < rank:
            raise ValueError("an independent triple is repeated")
        kept: dict[Comp, dict[Comp, Fraction]] = {}
        pivot_set = set(pivots)
        for f, lam in annihilators.items():
            kept[f] = lam = {w: c for w, c in lam.items() if c}
            if lam.get(f) != 1 or not set(lam) - {f} <= pivot_set:
                raise ValueError(f"annihilator {format_comp(f)} must be e_f plus pivot columns")
        vectors = [_relation_coords(*prov, modulus) for prov in triples]
        values = {(f, w): c for f, lam in kept.items() for w, c in lam.items()}
        if not _annihilates(values, [(tuple(vec), tuple(vec.values())) for vec in vectors]):
            raise ValueError("an annihilator does not vanish on the independent triples")
        return cls(modulus, pivots, triples, kept)


def _transpose(
    columns: Sequence[Comp], vectors: Sequence[Mapping[Comp, int]]
) -> dict[Comp, Vector]:
    """Column w -> the :data:`Vector` of w's coefficient in each vectors[k]; every column."""
    rows: dict[Comp, dict[int, int]] = {w: {} for w in columns}
    for k, vec in enumerate(vectors):
        for w, c in vec.items():
            rows[w][k] = c
    return {w: (tuple(row), tuple(row.values())) for w, row in rows.items()}


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
    ``u`` may be empty) and total weight below ``n``, builds its relation
    with ``_relation_coords``, the builder a certificate replay uses (the
    (s, t) identity truncated to weight < n - weight(u), times ``h_p(u)``
    under the stuffle product), and finds the span of these integer vectors
    modulo primes, keeping the annihilating functionals only once they
    vanish exactly on every vector (see :class:`RelationBasis`).  One basis,
    at the largest modulus power asked for so far, is kept per process and
    in one versioned text file in ``cache_dir`` (argument, else the
    PADICMHS_CACHE_DIR environment variable, else a per-user cache
    directory); a smaller ``n`` is read off it as a prefix.  A basis is
    generated only when ``n`` exceeds both, an unreadable or stale file
    counting as none, and then replaces the file; a file whose ``modulus``
    line is below ``n`` is not parsed.  Refuses to generate a
    basis above MAX_MODULUS_POWER; a larger one already held is served.
    """
    global _PROCESS_BASIS
    check_int(n, "modulus power n", 1)
    path = _cache_path(cache_dir)
    if _PROCESS_BASIS is None or _PROCESS_BASIS.modulus_power < n:
        try:
            text = path.read_text()
            stated = re.search(r"^\s*modulus (\d+)\s*$", text, re.MULTILINE)
            if stated and int(stated[1]) >= n:  # a smaller file is not worth parsing
                _PROCESS_BASIS = RelationBasis.load(text)
        except (ValueError, OSError):
            pass
    if _PROCESS_BASIS is not None and _PROCESS_BASIS.modulus_power >= n:
        return _PROCESS_BASIS._prefix(n)
    if n > MAX_MODULUS_POWER:
        raise ValueError(
            f"relation basis at modulus p^{n} is beyond the largest, p^{MAX_MODULUS_POWER}"
        )

    columns = enumerate_compositions(n - 1)
    col_index = {w: i for i, w in enumerate(columns)}
    provs = list(_enumerate_triples(n))
    vectors = []
    for prov in provs:
        rel = _relation_coords(*prov, n)
        vectors.append((tuple(col_index[w] for w in rel), tuple(rel.values())))
    (_, pivots, raised_by), values = _lift(
        lambda q: _annihilator_residues(vectors, len(columns), q),
        lambda values: _annihilates(values, vectors),
    )
    annihilators = {
        columns[f]: {columns[col]: v for col, v in lam.items()}
        for f, lam in _functionals(values).items()
    }
    basis = _PROCESS_BASIS = RelationBasis(
        n, [columns[p] for p in pivots], [provs[k] for k in raised_by], annihilators
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
    parts = series.split(lambda key: weight(key[1]) - key[0])
    return {k: part.shift(k) for k, part in parts.items()}


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
