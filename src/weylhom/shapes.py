"""Partitions, compositions (weights), and first-row stabilization."""

from __future__ import annotations

import sys
from operator import index

from .gfp import check_prime


class FirstRowTooLargeError(ValueError):
    """A stabilized first row with more digits than the int-to-str limit."""


def integer(v, what: str) -> int:
    """v as an int (a bool is one); ValueError naming v if it is not.  The
    hot callers skip it when type(v) is int, so a cache hit pays no call."""
    try:
        return index(v)
    except TypeError:
        raise ValueError(f"{what} {v!r} is not an integer") from None


def partition(parts) -> tuple[int, ...]:
    """Canonical partition: weakly decreasing positive parts, trailing zeros dropped."""
    out = []
    for v in parts:
        if type(v) is not int:
            v = integer(v, "part")
        if v < 0:
            raise ValueError(f"negative part {v}")
        if out and v > out[-1]:
            raise ValueError(f"parts not weakly decreasing: {tuple(parts)}")
        out.append(v)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def transpose(lam) -> tuple[int, ...]:
    """The conjugate partition, the column lengths of the diagram:
    transpose(lam)[j] = #{i : lam_i >= j+1}."""
    lam = partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part >= j) for j in range(1, lam[0] + 1))


def composition(parts) -> tuple[int, ...]:
    """Canonical composition: nonnegative entries, trailing zeros dropped."""
    out = []
    for v in parts:
        if type(v) is not int:
            v = integer(v, "entry")
        if v < 0:
            raise ValueError(f"negative entry {v}")
        out.append(v)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def stabilize(lam, k: int, d: int, p: int) -> tuple[int, ...]:
    """Add k*p^d boxes to the first row (none when k = 0, however large d is).

    Raises FirstRowTooLargeError, before raising p to d, on a first row longer
    than Python's int-to-str limit, or 4300 digits where that limit is 0."""
    check_prime(p)
    try:
        k, d = index(k), index(d)
    except TypeError:
        raise ValueError(f"k and d must be integers, got k={k!r}, d={d!r}") from None
    if k < 0 or d < 0:
        raise ValueError("k and d must be nonnegative")
    lam = partition(lam)
    if k == 0:
        return lam
    top = lam[0] if lam else 0
    limit = getattr(sys, "get_int_max_str_digits", int)() or getattr(sys.int_info, "default_max_str_digits", 4300)
    # 2^(bits - d - 1) <= k*p^d < 2^bits and 8^limit < 10^limit < 16^limit:
    # the row is built only below 16^limit and compared only from 8^limit up
    bits = d * p.bit_length() + k.bit_length()
    if max(bits - d - 1, top.bit_length() - 1) < 4 * limit:
        row = top + k * p**d
        if max(bits, top.bit_length()) < 3 * limit or row < 10**limit:
            return (row,) + lam[1:]
    raise FirstRowTooLargeError(f"k*p^d = {k}*{p}^{d} is too large: a first row would exceed {limit} digits")


def all_partitions(r: int) -> list[tuple[int, ...]]:
    """All partitions of r in descending lexicographic order.  The prefixes
    are extended one part value at a time, from r down to 2: a prefix with
    `left` to place takes v as many times as fits, then one time fewer,
    down to none, so more copies of v come first; the 1s fill what is left."""
    if r < 0:
        raise ValueError("negative degree")
    prefixes: list[tuple[tuple[int, ...], int]] = [((), r)]
    for v in range(r, 1, -1):
        prefixes = [
            (prefix + (v,) * m, left - v * m)
            for prefix, left in prefixes
            for m in range(left // v, -1, -1)
        ]
    return [prefix + (1,) * left for prefix, left in prefixes]


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse "a,b,c" with optional "v^m" repetition shorthand, e.g. "28,5,2^9"."""
    parts: list[int] = []
    for pos, piece in enumerate(text.split(",")):
        piece = piece.strip()
        if not piece:
            raise ValueError(f"empty part at position {pos} in {text!r}")
        if "^" in piece:
            base, _, count = piece.partition("^")
            try:
                value, reps = int(base), int(count)
            except ValueError:
                raise ValueError(f"bad repetition {piece!r} at position {pos}") from None
            if reps < 0:
                raise ValueError(f"negative repetition at position {pos}")
            try:
                parts.extend([value] * reps)
            except OverflowError:
                raise ValueError(f"repetition {piece!r} at position {pos} is too large") from None
        else:
            try:
                parts.append(int(piece))
            except ValueError:
                raise ValueError(f"bad integer {piece!r} at position {pos}") from None
    return partition(parts)


def format_partition(lam) -> str:
    return ",".join(str(v) for v in lam) if lam else "0"
