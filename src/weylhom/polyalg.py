"""Divided-power monomials and tensors, comultiplication, and the exterior
realization map sending a tableau of shape mu into the column wedge space.
A realization is symmetric under permuting columns of equal height, so it
is returned on the representatives of that symmetry only (see `dprime`).

Monomials are tuples of (entry, exponent) pairs with entries ascending, so
1^(3)2^(2)4 is ((1, 3), (2, 2), (4, 1)).  Comultiplication splits
exponents coefficient-free.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import sub

Monomial = tuple[tuple[int, int], ...]
ExtMonomial = tuple[tuple[int, ...], ...]


class ExpansionLimitError(RuntimeError):
    """The exterior expansion of a tensor would exceed the configured term budget."""


def mono(items) -> Monomial:
    """Canonical monomial from (entry, exponent) pairs or a dict."""
    if isinstance(items, dict):
        items = items.items()
    agg: dict[int, int] = {}
    for e, c in items:
        if c < 0:
            raise ValueError(f"negative exponent for entry {e}")
        if c:
            agg[e] = agg.get(e, 0) + c
    return tuple(sorted(agg.items()))


def mono_degree(m: Monomial) -> int:
    return sum(c for _, c in m)


def bounded_compositions(total: int, caps) -> list[tuple[int, ...]]:
    """All (v_1, ..., v_n) with sum `total` and 0 <= v_j <= caps[j], in
    ascending lexicographic order.  The open slots (cap > 0) but the last
    are extended left to right: a prefix with `left` to place takes each v
    from max(0, left - room) to min(cap, left), `room` being the caps of
    the open slots after it; the last takes what is left, so one open slot
    is never stepped.  A total of 0, 1 or sum(caps) returns at once: a total
    of 1 gives the unit vectors of the open slots, last slot first."""
    caps = tuple(caps)
    if caps and min(caps) < 0:
        return []
    n = len(caps)
    zero = (0,) * n
    if total == 1:
        return [zero[:j] + (1,) + zero[j + 1 :] for j in range(n - 1, -1, -1) if caps[j]]
    room = sum(caps)
    if not 0 <= total <= room:
        return []
    if total == room:
        return [caps]
    if total == 0:
        return [zero]
    slots = [j for j, cap in enumerate(caps) if cap]
    comps: list[tuple[tuple[int, ...], int]] = [((), total)]
    end = 0
    for j in slots[:-1]:
        cap = caps[j]
        room -= cap
        pad = (0,) * (j - end)
        end = j + 1
        comps = [
            (comp + pad + (v,), left - v)
            for comp, left in comps
            for v in range(max(0, left - room), min(cap, left) + 1)
        ]
    last = slots[-1]
    pad = (0,) * (last - end)
    tail = (0,) * (n - last - 1)
    return [comp + pad + (left,) + tail for comp, left in comps]


def dp_comult(m: Monomial, degrees) -> list[tuple[Monomial, ...]]:
    """All splittings of m into slots of the given degrees, coefficient-free.

    Each entry's exponent is distributed independently; a component is one
    choice per entry, so the list has no repeats and every coefficient is 1.
    The splittings are extended entry by entry, each exponent going into the
    degrees the slots still lack in every `bounded_compositions` way.
    """
    degrees = tuple(int(d) for d in degrees)
    if any(d < 0 for d in degrees):
        raise ValueError("negative slot degree")
    if sum(degrees) != mono_degree(m):
        raise ValueError(
            f"degree mismatch: monomial has degree {mono_degree(m)}, slots sum to {sum(degrees)}"
        )
    splits: list[tuple[tuple[Monomial, ...], tuple[int, ...]]] = [(((),) * len(degrees), degrees)]
    for e, c in m:
        splits = [
            (tuple(s + ((e, v),) if v else s for s, v in zip(slots, parts)), tuple(map(sub, left, parts)))
            for slots, left in splits
            for parts in bounded_compositions(c, left)
        ]
    return [slots for slots, _ in splits]


def dprime(tab, p: int, limit: int | None = None) -> dict[ExtMonomial, int]:
    """Exterior realization of the class of the `Tableau` tab, kept on the
    representatives of its column symmetry.

    The shape is tab's, and row i's entries are read off its count row.
    They are dealt into columns 1..shape[i], one per column, over all
    distinct arrangements.  Each column wedges its cells top to bottom:
    an entry it already holds is skipped (the wedge is zero), and an entry
    inserted below k larger ones flips the sign k times.  Two columns of
    equal height are covered by the same rows, so swapping them maps a
    dealing to one with the same row contents and the same sign: the full
    realization is invariant under permuting the columns within each block
    of equal height, and its coefficients on the representative keys, whose
    columns are lexicographically non-decreasing within each block, fix it.
    Only those are returned, so nothing is lost.  The column word of a
    standard tableau is a representative.

    The columns are dealt left to right.  A column is dropped as soon as it
    takes an entry below the least entry of its left neighbour in the same
    block, or is complete and sorts below that neighbour.  The columns only
    row 1 covers form the last block; its one representative is row 1's
    leftovers in ascending order, so they are not dealt.  The result is a
    sparse vector mod p.  `limit` bounds the partial dealings the loop
    steps through: one for each way to deal the first j columns, for every
    j from 0 to the number of dealt columns, so each complete term counts
    too, before it cancels.  ExpansionLimitError is raised once it is
    passed.
    """
    shape = tab.shape
    budget = math.inf if limit is None else limit
    acc: dict[ExtMonomial, int] = {}
    left = [{e: c for e, c in enumerate(row, 1) if c} for row in tab]
    row1 = left[0] if left else {}
    # the heights of the columns that are dealt: those of height >= 2
    dealt = shape[1] if len(shape) > 1 else 0
    heights = [sum(1 for mu_i in shape if mu_i > j) for j in range(dealt)]
    columns: list[tuple[int, ...]] = [()] * len(heights)

    def deal(j, i, column, prev, sign):
        """Yield the sign of each way to finish column j from row i down.
        While the caller holds a yield, the column is in columns[j] and its
        entries are out of their rows.  `prev` is the left neighbour in the
        block, or () for the first column of a block."""
        row = left[i]
        completes = i + 1 == heights[j]
        floor = prev[0] if prev else -math.inf
        for e in row:
            if e < floor or not row[e]:
                continue
            pos = bisect_left(column, e)
            larger = len(column) - pos
            if larger and column[pos] == e:
                continue
            s = -sign if larger % 2 else sign
            filled = column[:pos] + (e,) + column[pos:]
            row[e] -= 1
            if not completes:
                yield from deal(j, i + 1, filled, prev, s)
            elif filled >= prev:
                columns[j] = filled
                yield s
            row[e] += 1

    # one generator per column being dealt, under a root that yields the
    # starting sign once; stack depth is the height of one column
    stack = [iter((1,))]
    while stack:
        sign = next(stack[-1], None)
        if sign is None:
            stack.pop()
            continue
        budget -= 1
        if budget < 0:
            raise ExpansionLimitError(f"expansion of shape {shape} tensor exceeds {limit} terms")
        j = len(stack) - 1
        if j < len(heights):
            prev = columns[j - 1] if j and heights[j - 1] == heights[j] else ()
            stack.append(deal(j, 0, (), prev, sign))
            continue
        key = tuple(columns) + tuple((e,) for e, c in row1.items() for _ in range(c))
        v = (acc.get(key, 0) + sign) % p
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)
    return acc
