"""Compositions (finite tuples of positive integers) and their products.

A composition s = (s_1, ..., s_k) indexes the multiple harmonic sum
H_N(s) = sum over N >= n_1 > ... > n_k >= 1 of prod n_i^(-s_i).  Its weight
is s_1 + ... + s_k and its depth is k.

Two products act on the span of compositions:

* the stuffle (quasi-shuffle) product, which expands H_N(s) * H_N(t) for a
  common upper bound N, and
* the shuffle product, defined on the binary-word encoding
  (s_1, ..., s_k) <-> x^(s_1 - 1) y ... x^(s_k - 1) y.

Linear combinations are plain dicts mapping compositions to Fractions.

The composition generator, the bounded-tuple generator and the composition
and integer validators used by the other modules live here too.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

__all__ = [
    "bounded_tuples",
    "check_comp",
    "check_int",
    "comp_to_word",
    "compositions_of",
    "enumerate_compositions",
    "format_comp",
    "parse_comp",
    "shuffle",
    "stuffle",
    "weight",
    "word_to_comp",
]

Comp = tuple  # tuple[int, ...]


def weight(s: Comp) -> int:
    return sum(s)


def comp_to_word(s: Comp) -> str:
    """Encode a composition as a word in x, y ending in y."""
    if any(e < 1 for e in s):
        raise ValueError("word encoding needs positive parts")
    return "".join("x" * (e - 1) + "y" for e in s)


def word_to_comp(w: str) -> Comp:
    """Inverse of comp_to_word; the word must end in y (or be empty)."""
    if not w:
        return ()
    if w[-1] != "y" or set(w) - {"x", "y"}:
        raise ValueError(f"not a valid composition word: {w!r}")
    parts = []
    run = 0
    for ch in w:
        if ch == "x":
            run += 1
        else:
            parts.append(run + 1)
            run = 0
    return tuple(parts)


@lru_cache(maxsize=None)
def _shuffle_words(u: str, v: str) -> tuple[tuple[str, int], ...]:
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    acc: dict[str, int] = {}
    for w, m in _shuffle_words(u[1:], v):
        acc[u[0] + w] = acc.get(u[0] + w, 0) + m
    for w, m in _shuffle_words(u, v[1:]):
        acc[v[0] + w] = acc.get(v[0] + w, 0) + m
    return tuple(sorted(acc.items()))


def shuffle(s: Comp, t: Comp) -> dict[Comp, int]:
    """Shuffle product of two compositions via their word encodings.

    Every interleaving ends in y, so the result is again a sum of
    compositions.  Total multiplicity is C(|word s| + |word t|, |word s|)
    counted with multiplicity.
    """
    out: dict[Comp, int] = {}
    for w, m in _shuffle_words(comp_to_word(s), comp_to_word(t)):
        c = word_to_comp(w)
        out[c] = out.get(c, 0) + m
    return out


@lru_cache(maxsize=None)
def _stuffle_cached(s: Comp, t: Comp) -> tuple[tuple[Comp, int], ...]:
    if not s:
        return ((t, 1),)
    if not t:
        return ((s, 1),)
    acc: dict[Comp, int] = {}
    for head, rest_s, rest_t in (
        ((s[0],), s[1:], t),
        ((t[0],), s, t[1:]),
        ((s[0] + t[0],), s[1:], t[1:]),
    ):
        for c, m in _stuffle_cached(rest_s, rest_t):
            merged = head + c
            acc[merged] = acc.get(merged, 0) + m
    return tuple(sorted(acc.items()))


def stuffle(s: Comp, t: Comp) -> dict[Comp, int]:
    """Stuffle product: H_N(s) H_N(t) = sum of H_N over the result.

    Recursion on the leading parts: the larger index comes from s, from t,
    or the two leading indices coincide and their exponents add.
    """
    return dict(_stuffle_cached(tuple(s), tuple(t)))


def compositions_of(w: int) -> Iterator[Comp]:
    """Compositions of exact weight w, ascending lexicographic on parts.

    There are 2^(w-1) of them for w >= 1; w = 0 gives only ().
    """
    if w == 0:
        yield ()
        return
    for first in range(1, w + 1):
        for rest in compositions_of(w - first):
            yield (first,) + rest


def bounded_tuples(m: int, bound: int) -> Iterator[tuple[int, ...]]:
    """All m-tuples of non-negative integers with sum <= bound, lexicographic.

    A negative bound gives no tuples; m = 0 gives () when bound >= 0.
    """
    if bound < 0:
        return
    if m == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in bounded_tuples(m - 1, bound - first):
            yield (first,) + rest


def check_comp(s: object, *, allow_empty: bool = True, name: str = "composition") -> Comp:
    """Return ``s`` if it is a tuple of positive ints (not bools), else raise ValueError."""
    if not isinstance(s, tuple) or not all(type(e) is int and e >= 1 for e in s):
        raise ValueError(f"{name} must be a tuple of positive integers, got {s!r}")
    if not allow_empty and not s:
        raise ValueError(f"{name} must be a nonempty composition")
    return s


def check_int(value: object, name: str, low: int | None = None) -> int:
    """Return ``value`` if it is an int (not a bool) and at least ``low``, else raise ValueError."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def enumerate_compositions(max_weight: int) -> list[Comp]:
    """All compositions of weight <= max_weight in the canonical order.

    Canonical order: weight ascending, then lexicographic on parts, e.g.
    max_weight 2 gives [(), (1,), (1, 1), (2,)].  This order is shared
    with the prover's relation-matrix column indexing; with leading-column
    pivoting there, canonical reduced series are supported on the latest
    columns of each weight, preferring low depth and large leading parts
    (H(2,1) and H(3) rather than H(1,2) and H(1,1,1) at weight 3).
    """
    out: list[Comp] = []
    for w in range(max_weight + 1):
        out.extend(compositions_of(w))
    return out


def format_comp(s: Comp) -> str:
    """Render a composition as ``(2,1)`` (no spaces); ``()`` when empty."""
    return "(" + ",".join(str(e) for e in s) + ")"


def parse_comp(text: str) -> Comp:
    """Inverse of format_comp; accepts optional whitespace after commas."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"composition must be parenthesized: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    return tuple(int(part.strip()) for part in inner.split(","))

