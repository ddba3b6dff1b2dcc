"""Divided-power monomials and tensors, comultiplication, and the exterior
realization map sending a shape-mu tensor into the column wedge space.

Monomials are tuples of (entry, exponent) pairs with entries ascending, so
1^(3)2^(2)4 is ((1, 3), (2, 2), (4, 1)).  Comultiplication splits
exponents coefficient-free.
"""

from __future__ import annotations

import math
from bisect import bisect_left

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
    ascending lexicographic order; the last slot takes what is left."""
    n = len(caps)
    if n == 0:
        return [()] if total == 0 else []
    out: list[tuple[int, ...]] = []
    comp = [0] * n
    last = n - 1

    def rec(j, left):
        if j == last:
            if 0 <= left <= caps[last]:
                comp[last] = left
                out.append(tuple(comp))
            return
        for v in range(min(caps[j], left) + 1):
            comp[j] = v
            rec(j + 1, left - v)

    rec(0, total)
    return out


def dp_comult(m: Monomial, degrees) -> list[tuple[Monomial, ...]]:
    """All splittings of m into slots of the given degrees, coefficient-free.

    Each entry's exponent is distributed independently; a component is one
    choice per entry, so the list has no repeats and every coefficient is 1.
    """
    degrees = tuple(int(d) for d in degrees)
    if any(d < 0 for d in degrees):
        raise ValueError("negative slot degree")
    if sum(degrees) != mono_degree(m):
        raise ValueError(
            f"degree mismatch: monomial has degree {mono_degree(m)}, slots sum to {sum(degrees)}"
        )
    results: list[tuple[Monomial, ...]] = []
    slots: list[list[tuple[int, int]]] = [[] for _ in degrees]

    def rec(idx, remaining):
        if idx == len(m):
            results.append(tuple(tuple(s) for s in slots))
            return
        e, c = m[idx]
        for parts in bounded_compositions(c, remaining):
            for s, v in enumerate(parts):
                if v:
                    slots[s].append((e, v))
            rec(idx + 1, tuple(r - v for r, v in zip(remaining, parts)))
            for s, v in enumerate(parts):
                if v:
                    slots[s].pop()

    rec(0, degrees)
    return results


def tensor_expansion_count(shape, factors) -> int:
    """Number of raw terms the exterior expansion of the tensor would touch:
    the product over rows of multinomial(mu_i; entry counts)."""
    total = 1
    for mu_i, factor in zip(shape, factors):
        row = math.factorial(mu_i)
        for _, c in factor:
            row //= math.factorial(c)
        total *= row
    return total


def dprime(shape, factors, p: int, limit: int | None = None) -> dict[ExtMonomial, int]:
    """Exterior realization of a shape-`shape` tensor of monomials.

    Row i's entries are dealt into columns 1..shape[i], one per column, over
    all distinct arrangements, cell by cell in row-major order.  Each column
    wedges its cells top to bottom: a column stays sorted as it fills, an
    entry it already holds is skipped (the wedge is zero), and an entry
    inserted below k larger ones flips the sign k times.  The result is a
    sparse vector over column-strict exterior monomials mod p.
    """
    shape = tuple(shape)
    factors = tuple(mono(f) for f in factors)
    if len(factors) != len(shape):
        raise ValueError(f"tensor has {len(factors)} factors for shape {shape}")
    for mu_i, f in zip(shape, factors):
        if mono_degree(f) != mu_i:
            raise ValueError(f"factor {f} does not have degree {mu_i}")
    if limit is not None and tensor_expansion_count(shape, factors) > limit:
        raise ExpansionLimitError(
            f"expansion of shape {shape} tensor exceeds {limit} terms"
        )
    acc: dict[ExtMonomial, int] = {}
    columns: list[list[int]] = [[] for _ in range(shape[0] if shape else 0)]
    # one (entries left in the row, column) pair per cell, in row-major order
    cells = [
        (left, columns[j])
        for left, width in zip(map(dict, factors), shape)
        for j in range(width)
    ]

    def place(n, sign):
        if n == len(cells):
            key = tuple(map(tuple, columns))
            v = (acc.get(key, 0) + sign) % p
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)
            return
        left, column = cells[n]
        for e in left:
            if not left[e]:
                continue
            pos = bisect_left(column, e)
            larger = len(column) - pos
            if larger and column[pos] == e:
                continue
            left[e] -= 1
            column.insert(pos, e)
            place(n + 1, -sign if larger % 2 else sign)
            del column[pos]
            left[e] += 1

    place(0, 1)
    return acc
