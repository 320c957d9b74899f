"""Compositions (finite tuples of positive integers) and their products.

A composition s = (s_1, ..., s_k) indexes the multiple harmonic sum
H_N(s) = sum over N >= n_1 > ... > n_k >= 1 of prod n_i^(-s_i).  Its weight
is s_1 + ... + s_k and its depth is k.

Two products act on the span of compositions:

* the stuffle (quasi-shuffle) product, which expands H_N(s) * H_N(t) for a
  common upper bound N, and
* the shuffle product of the words x^(s_1 - 1) y ... x^(s_k - 1) y,
  computed on the compositions themselves.

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
    "compositions_of",
    "enumerate_compositions",
    "format_comp",
    "parse_comp",
    "shuffle",
    "stuffle",
    "weight",
]

Comp = tuple  # tuple[int, ...]


def weight(s: Comp) -> int:
    return sum(s)


@lru_cache(maxsize=None)
def _shuffle_cached(s: Comp, t: Comp) -> tuple[tuple[Comp, int], ...]:
    if not s:
        return ((t, 1),)
    if not t:
        return ((s, 1),)
    acc: dict[Comp, int] = {}
    for a, b in ((s, t), (t, s)):  # the first letter comes from a: x if a[0] > 1, else y
        x = a[0] > 1
        for c, m in _shuffle_cached((a[0] - 1,) + a[1:] if x else a[1:], b):
            merged = (c[0] + 1,) + c[1:] if x else (1,) + c
            acc[merged] = acc.get(merged, 0) + m
    return tuple(sorted(acc.items()))


def shuffle(s: Comp, t: Comp) -> dict[Comp, int]:
    """Shuffle product of the words x^(s_1 - 1) y ... x^(s_k - 1) y of s and t.

    Recursion on the first letter of an interleaving, taken from s or t: a
    leading part a > 1 is an x, which raises the first part of the shuffled
    rest by one; a leading part 1 is a y, which puts a new part 1 in front
    of it.  Every interleaving ends in y, so the result is again a sum of
    compositions, with total multiplicity C(weight(s) + weight(t), weight(s)).
    """
    return dict(_shuffle_cached(tuple(s), tuple(t)))


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

