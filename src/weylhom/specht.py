"""Brute-force symmetric-group oracle: Specht modules via polytabloids.

Entirely independent of the Weyl-module pipeline: modules are realized
inside the tabloid permutation module over GF(p), adjacent transpositions
act by permuting polytabloids, and Hom dimensions are cut out by the
intertwiner equations for those generators.  For odd p the dimensions match
the Weyl-side ones under the classical dictionary, which is what
oracle_compare checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import config
from .gfp import Echelon, MatrixGFp, add_scaled, check_prime
from .homspace import hom_dim
from .shapes import partition, transpose


class DegreeBoundError(ValueError):
    """Requested degree exceeds the configured oracle bound."""


def standard_young_tableaux(lam) -> list[tuple[tuple[int, ...], ...]]:
    """Classical standard Young tableaux: entries 1..r each once, rows and
    columns increasing."""
    lam = partition(lam)
    r = sum(lam)
    rows: list[list[int]] = [[] for _ in lam]
    out: list[tuple[tuple[int, ...], ...]] = []

    def rec(v):
        if v > r:
            out.append(tuple(tuple(row) for row in rows))
            return
        for i, row in enumerate(rows):
            j = len(row)
            if j >= lam[i]:
                continue
            if i > 0 and len(rows[i - 1]) <= j:
                continue
            rows[i].append(v)
            rec(v + 1)
            rows[i].pop()

    rec(1)
    return out


def hook_length_count(lam) -> int:
    """Number of standard Young tableaux by the hook length formula."""
    lam = partition(lam)
    r = sum(lam)
    tr = transpose(lam)
    result = 1
    for v in range(2, r + 1):
        result *= v
    for i, row_len in enumerate(lam):
        for j in range(row_len):
            result //= row_len - j + tr[j] - i - 1
    return result


def _tabloids(lam):
    """All row-set fillings of shape lam with 1..r, as tuples of sorted tuples."""
    r = sum(lam)
    out = []

    def rec(i, remaining, rows):
        if i == len(lam):
            out.append(tuple(rows))
            return
        for combo in itertools.combinations(sorted(remaining), lam[i]):
            rec(i + 1, remaining - set(combo), rows + [combo])

    rec(0, set(range(1, r + 1)), [])
    return out


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _polytabloid(tableau, p, tabloid_index) -> dict[int, int]:
    """Signed column-stabilizer sum of the tabloid of `tableau`, as a sparse
    vector over the tabloid basis."""
    lam = tuple(len(row) for row in tableau)
    columns = []
    for j in range(lam[0] if lam else 0):
        col = [tableau[i][j] for i in range(len(lam)) if lam[i] > j]
        columns.append(col)
    vec: dict[int, int] = {}
    pools = [list(itertools.permutations(range(len(col)))) for col in columns]
    for choice in itertools.product(*pools):
        sign = 1
        mapping = {}
        for col, perm in zip(columns, choice):
            sign *= _perm_sign(perm)
            for src, dst in enumerate(perm):
                mapping[col[src]] = col[dst]
        rows = tuple(
            tuple(sorted(mapping.get(v, v) for v in row)) for row in tableau
        )
        idx = tabloid_index[rows]
        v = (vec.get(idx, 0) + sign) % p
        if v:
            vec[idx] = v
        else:
            vec.pop(idx, None)
    return vec


@dataclass(frozen=True)
class SpechtRep:
    """Specht module over GF(p) with the actions of adjacent transpositions
    expressed on the standard polytabloid basis."""

    lam: tuple[int, ...]
    p: int
    dim: int
    gens: tuple[tuple[tuple[int, ...], ...], ...]  # gens[i] = matrix of s_{i+1}


@lru_cache(maxsize=None)
def specht_rep(lam, p: int) -> SpechtRep:
    """The Specht module of lam over GF(p), at any degree: the bound
    WEYLHOM_SPECHT_BOUND is checked by specht_hom_dim, on every call."""
    lam = partition(lam)
    check_prime(p)
    r = sum(lam)
    syts = standard_young_tableaux(lam)
    f = len(syts)
    tabloids = _tabloids(lam)
    tabloid_index = {t: i for i, t in enumerate(tabloids)}
    basis_matrix = MatrixGFp(len(tabloids), f, p)
    for col, t in enumerate(syts):
        for idx, v in _polytabloid(t, p, tabloid_index).items():
            basis_matrix.set(idx, col, v)
    ech = Echelon(basis_matrix, with_transform=True)
    if ech.rank != f:
        raise ArithmeticError(f"standard polytabloids of {lam} are dependent mod {p}")
    gens = []
    for i in range(1, r):
        swap = {i: i + 1, i + 1: i}
        cols = []
        for t in syts:
            moved = tuple(tuple(swap.get(v, v) for v in row) for row in t)
            cols.append(ech.solve(_polytabloid(moved, p, tabloid_index)))
        # cols[c][row]: coordinate of s_i e_{t_c}; store as row-major matrix
        gens.append(tuple(tuple(cols[c][row] for c in range(f)) for row in range(f)))
    return SpechtRep(lam, p, f, tuple(gens))


def specht_hom_dim(nu, nu_prime, p: int) -> int:
    """dim of module maps from the nu_prime Specht module to the nu one:
    solutions X of A_g X = X B_g over the adjacent transpositions, with A the
    nu action and B the nu_prime action.  DegreeBoundError above degree
    WEYLHOM_SPECHT_BOUND."""
    nu = partition(nu)
    nu_prime = partition(nu_prime)
    check_prime(p)
    if p == 2:
        raise ValueError("the Specht-side dictionary needs p > 2")
    r = sum(nu)
    if r != sum(nu_prime):
        raise ValueError(f"degree mismatch: {nu} vs {nu_prime}")
    limit = config.specht_degree_bound()
    if r > limit:
        raise DegreeBoundError(f"degree {r} exceeds oracle bound {limit}")
    rep_a = specht_rep(nu, p)
    rep_b = specht_rep(nu_prime, p)
    fa, fb = rep_a.dim, rep_b.dim
    rows: list[dict[int, int]] = []
    for ga, gb in zip(rep_a.gens, rep_b.gens):
        for a in range(fa):
            for b in range(fb):
                row = {c * fb + b: ga[a][c] for c in range(fa) if ga[a][c]}
                add_scaled(row, -1, {a * fb + c: gb[c][b] for c in range(fb) if gb[c][b]}, p)
                if row:
                    rows.append(row)
    matrix = MatrixGFp(len(rows), fa * fb, p, rows)
    return fa * fb - matrix.rank()


# Orientation of the dictionary between the two sides, pinned empirically
# against the degree <= 7 cases with asymmetric dimensions (see tests):
# hom_dim(lam, mu, p) agrees with maps from the mu Specht module to the
# lam one, i.e. specht_hom_dim(lam, mu, p).


def oracle_compare(lam, mu, p: int) -> bool:
    """True iff the Weyl-side dimension matches the symmetric-group side."""
    weyl = hom_dim(lam, mu, p)[0]
    specht = specht_hom_dim(lam, mu, p)
    return weyl == specht


def clear_caches() -> None:
    specht_rep.cache_clear()
