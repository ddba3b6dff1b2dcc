"""Brute-force symmetric-group oracle: Specht modules via polytabloids.

Entirely independent of the Weyl-module pipeline: modules are realized
inside the tabloid permutation module over GF(p), with a tabloid stored as
its row word (w[v-1] is the row that holds v).  Each standard polytabloid
e_t is built once.  An adjacent transposition s_i swaps w[i-1] and w[i], so
s_i e_t is e_t with its support relabelled, and its coordinates follow
Young's natural action (James, LNM 682, section 8): -e_t when i and i+1
share a column of t, e_{s_i t} when they share neither row nor column, and
an exact solve against the standard polytabloids when they share a row.
That solve needs no elimination: tabloids are indexed in row-word order, and
the lowest tabloid of e_t is the tabloid of t itself, with coefficient 1
(James, section 8), so the standard polytabloids form a unitriangular basis
and `gfp.reduce_lowest` solves against it term by term.  Every unit lead is
checked when the module is built.  Hom dimensions are cut out by the
intertwiner equations for those generators.  For odd p the dimensions match
the Weyl-side ones under the classical dictionary, which is what
oracle_compare checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import config
from .gfp import MatrixGFp, add_scaled, check_prime, reduce_lowest
from .homspace import hom_dim
from .shapes import partition


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


def _row_word(tableau) -> tuple[int, ...]:
    """Row word of a filling with 1..r: w[v-1] is the row that holds v."""
    word = [0] * sum(map(len, tableau))
    for i, row in enumerate(tableau):
        for v in row:
            word[v - 1] = i
    return tuple(word)


def _columns(tableau) -> list[tuple[int, ...]]:
    """The columns of a filling, top to bottom."""
    width = len(tableau[0]) if tableau else 0
    return [tuple(row[j] for row in tableau if len(row) > j) for j in range(width)]


def _swap(word, i: int) -> tuple[int, ...]:
    """s_i on a row word: v = i and v = i+1 trade rows."""
    return word[: i - 1] + (word[i], word[i - 1]) + word[i + 1 :]


def _tabloids(lam) -> list[tuple[int, ...]]:
    """All tabloids of shape lam, as row words (row i used lam[i] times), in
    lexicographic order."""
    r = sum(lam)
    left = list(lam)
    word: list[int] = []
    out: list[tuple[int, ...]] = []

    def rec():
        if len(word) == r:
            out.append(tuple(word))
            return
        for i, n in enumerate(left):
            if n:
                left[i] -= 1
                word.append(i)
                rec()
                word.pop()
                left[i] += 1

    rec()
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
    """e_t: the signed column-stabilizer sum of the tabloid of `tableau`, as a
    sparse vector over the tabloid basis.  A column permutation only rewrites
    the rows at that column's entries of the row word."""
    word = list(_row_word(tableau))
    column_positions = []
    pools = []
    for col in _columns(tableau):
        if len(col) > 1:
            column_positions.append([v - 1 for v in col])
            pools.append([(q, _perm_sign(q)) for q in itertools.permutations(range(len(col)))])
    vec: dict[int, int] = {}
    for choice in itertools.product(*pools):
        sign = 1
        for positions, (rows, s) in zip(column_positions, choice):
            sign *= s
            for pos, i in zip(positions, rows):
                word[pos] = i
        idx = tabloid_index[tuple(word)]
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
    WEYLHOM_SPECHT_BOUND is checked by specht_hom_dim, on every call.

    The column of s_i for a standard t comes from Young's rule (see the module
    docstring); each shortcut column is checked against the relabelled vector,
    and each solve must reduce the relabelled vector to exactly zero."""
    lam = partition(lam)
    check_prime(p)
    r = sum(lam)
    syts = standard_young_tableaux(lam)
    f = len(syts)
    tabloids = _tabloids(lam)
    tabloid_index = {t: i for i, t in enumerate(tabloids)}
    basis = [_polytabloid(t, p, tabloid_index) for t in syts]
    row_words = [_row_word(t) for t in syts]
    leads = {}
    for c, vec in enumerate(basis):
        lead = tabloid_index[row_words[c]]
        if min(vec, default=None) != lead or vec[lead] != 1:
            raise ArithmeticError(f"polytabloid of {syts[c]} lacks its unit lowest term mod {p}")
        leads[lead] = (c, vec)
    col_words = [_row_word(_columns(t)) for t in syts]  # w[v-1]: the column of v
    syt_index = {w: c for c, w in enumerate(row_words)}
    gens = []
    for i in range(1, r):
        relabel = [tabloid_index[_swap(w, i)] for w in tabloids]
        cols = []
        for c, vec in enumerate(basis):
            moved = {relabel[k]: v for k, v in vec.items()}
            row_word = row_words[c]
            if row_word[i - 1] == row_word[i]:
                col = [0] * f
                for target, v in reduce_lowest(moved, leads, p).items():
                    col[target] = v
                cols.append(col)
                continue
            if col_words[c][i - 1] == col_words[c][i]:
                target, sign = c, -1
            else:
                target, sign = syt_index[_swap(row_word, i)], 1
            if moved != {k: (sign * v) % p for k, v in basis[target].items()}:
                raise ArithmeticError(f"Young's rule fails for s_{i} on {syts[c]} mod {p}")
            col = [0] * f
            col[target] = sign % p
            cols.append(col)
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
