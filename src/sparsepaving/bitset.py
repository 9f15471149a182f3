"""Bitmask encoding for subsets of the ground set {0, .., n-1}.

A subset is an int whose bit e is set iff element e is in the subset.
Set equality is encoding equality, so masks work as dict keys and sort
deterministically.  Python ints are unbounded, so nothing here caps n.
The helpers that read a mask's elements refuse a negative mask, which
would have infinitely many set bits.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

# An element set is just an int used as a bit vector.
ElementSet = int


def as_mask(s: ElementSet | Iterable[int]) -> int:
    """Coerce an int mask, or any iterable of elements, to a mask."""
    if isinstance(s, int):
        if s < 0:
            raise ValueError("element-set masks are non-negative")
        return s
    mask = 0
    for e in s:
        if not isinstance(e, int) or e < 0:
            raise ValueError("elements are non-negative integers")
        mask |= 1 << e
    return mask


def iter_elements(mask: int) -> Iterator[int]:
    """Yield the elements of a mask in ascending order."""
    if mask < 0:
        raise ValueError("element-set masks are non-negative")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def elements(mask: int) -> tuple[int, ...]:
    return tuple(iter_elements(mask))


def lowest_element(mask: int) -> int:
    if not mask:
        raise ValueError("the empty set has no lowest element")
    if mask < 0:
        raise ValueError("element-set masks are non-negative")
    return (mask & -mask).bit_length() - 1


def bits(mask: int) -> list[int]:
    """The one-element masks of mask, ascending."""
    if mask < 0:
        raise ValueError("element-set masks are non-negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def positions(mask: int) -> list[int]:
    """The set bits of mask, ascending, in time linear in its width.

    For the 2^n-bit family ints of the definition scans, where
    iter_elements would copy the whole int once per set bit.
    """
    if mask < 0:
        raise ValueError("element-set masks are non-negative")
    digits = bin(mask)[:1:-1]  # bit i at index i
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def swap(mask: int, x: int, y: int) -> int:
    """mask - x + y, for x in mask and y outside it."""
    return (mask ^ (1 << x)) | (1 << y)


def subsets(mask: int, k: int) -> Iterator[int]:
    """The k-element subsets of mask as masks, in lexicographic order."""
    return map(sum, combinations(bits(mask), k))


def subset_masks(n: int, r: int) -> Iterator[int]:
    """All r-element subsets of {0, .., n-1} as masks, in lexicographic order."""
    if r < 0:
        return iter(())
    return subsets((1 << n) - 1, r)


def format_set(mask: int) -> str:
    """Comma-joined ascending elements; '-' for the empty set."""
    if not mask:
        return "-"
    return ",".join(str(e) for e in iter_elements(mask))
