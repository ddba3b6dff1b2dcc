"""Brute-force symmetric-group oracle: Specht modules via polytabloids.

Entirely independent of the Weyl-module pipeline: modules are realized
inside the tabloid permutation module over GF(p).  A tabloid is an integer
code: its row word w (w[v-1] is the row that holds v) read as the digits of
a base-b number, b = max(2, number of rows), with w[0] most significant, so
numeric order is row-word order.  Each standard polytabloid e_t is built
once, column by column.  An adjacent transposition s_i swaps the digits of
i and i+1, so s_i e_t is e_t with each code of its support moved by one
table lookup, and its coordinates follow Young's natural action (James, LNM
682, section 8): -e_t when i and i+1 share a column of t, e_{s_i t} when
they share neither row nor column, and an exact solve against the standard
polytabloids when they share a row.  That solve needs no elimination: the
lowest tabloid of e_t is the tabloid of t itself, with coefficient 1
(James, section 8), so the standard polytabloids form a unitriangular basis
and `gfp.reduce_lowest` solves against it term by term.  Every unit lead is
checked when the module is built.

Hom dimensions use two more facts from James, section 8: a Specht module is
cyclic, generated by any one polytabloid, and s_i e_t = e_{s_i t} when i and
i+1 share neither row nor column of t.  So a module map is fixed by the
image v of e_{t0}, the first standard polytabloid, and a spanning tree of
those moves carries v to every e_t.  The intertwiner equations left over
are linear in the coordinates of v; they are built one row at a time and
streamed into a `gfp.Echelon`, the elimination the Weyl side uses too, and
the solve stops once their rank is full (Hom is then 0).

A polytabloid has one term per column permutation, 5,040 for (1^7), and
building the modules is most of the oracle's work.  So each Hom is solved
in whichever orientation has the smaller polytabloids.  Both orientations
give one dimension at every prime: over any field the dual of the lam
Specht module is the transpose(lam) one twisted by the sign (James, LNM
682, Theorem 8.15), so maps from the mu module to the lam one correspond
to maps from the transpose(lam) module to the transpose(mu) one.
Nothing here needs p odd.  For odd p the dimensions match the Weyl-side
ones under the classical dictionary, which is what oracle_compare checks,
and only there is p = 2 refused.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod
from operator import mul
from typing import NamedTuple

from . import config
from .gfp import Echelon, MatrixGFp, add_scaled, check_prime, reduce_lowest
from .homspace import hom_dim
from .shapes import partition, transpose


class DegreeBoundError(ValueError):
    """Requested degree exceeds the configured oracle bound."""


def standard_young_tableaux(lam) -> list[tuple[tuple[int, ...], ...]]:
    """Classical standard Young tableaux: entries 1..r each once, rows and
    columns increasing, in lexicographic order of their row words.  They
    are extended one entry at a time: v goes to each row i, in ascending
    order, that is shorter than lam_i and than row i-1."""
    lam = partition(lam)
    out: list[tuple[tuple[int, ...], ...]] = [((),) * len(lam)]
    for v in range(1, sum(lam) + 1):
        out = [
            t[:i] + (row + (v,),) + t[i + 1 :]
            for t in out
            for i, row in enumerate(t)
            if len(row) < lam[i] and (i == 0 or len(row) < len(t[i - 1]))
        ]
    return out


def _row_word(tableau) -> tuple[int, ...]:
    """Row word of a filling with 1..r: w[v-1] is the row that holds v."""
    word = [0] * sum(map(len, tableau))
    for i, row in enumerate(tableau):
        for v in row:
            word[v - 1] = i
    return tuple(word)


def _code(word, b: int) -> int:
    """A row word read as a base-b number, w[0] most significant: for words
    of one length, numeric order is row-word order."""
    code = 0
    for i in word:
        code = code * b + i
    return code


def _columns(tableau) -> list[tuple[int, ...]]:
    """The columns of a filling, top to bottom."""
    width = len(tableau[0]) if tableau else 0
    return [tuple(row[j] for row in tableau if len(row) > j) for j in range(width)]


def _polytabloid(tableau, p, b, signed) -> dict[int, int]:
    """e_t: the signed column-stabilizer sum of the tabloid of `tableau`, as a
    sparse vector over tabloid codes (`_code`, base b).  It is a convolution
    over the columns: a permutation q of a column's rows moves its k-th entry
    v from row k to row q[k], which adds (q[k] - k) * b^(r-v) to the code.
    Distinct choices give distinct tabloids, so every coefficient is +-1.
    `signed` maps a column height to its (permutation, sign) pairs and is
    filled here on first use."""
    r = sum(map(len, tableau))
    vec = {_code(_row_word(tableau), b): 1}
    for col in _columns(tableau):
        h = len(col)
        if h < 2:
            continue
        if h not in signed:
            # n inserted at position j of a permutation of range(n) lies
            # above the n - j entries after it: n - j more inversions
            pool = [((), 1)]
            for n in range(h):
                pool = [
                    (q[:j] + (n,) + q[j:], -s if (n - j) % 2 else s) for q, s in pool for j in range(n + 1)
                ]
            signed[h] = pool
        weights = [b ** (r - v) for v in col]
        base = sum(map(mul, range(h), weights))
        steps = [(sum(map(mul, q, weights)) - base, s) for q, s in signed[h]]
        vec = {x + step: c * s for x, c in vec.items() for step, s in steps}
    return {x: c % p for x, c in vec.items()}


class SpechtRep(NamedTuple):
    """Specht module over GF(p) with the actions of adjacent transpositions
    expressed on the standard polytabloid basis."""

    lam: tuple[int, ...]
    p: int
    dim: int
    gens: tuple[tuple[tuple[int, ...], ...], ...]  # gens[i] = matrix of s_{i+1}


def specht_rep(lam, p: int) -> SpechtRep:
    """The Specht module of lam over GF(p), at any degree: the bound
    WEYLHOM_SPECHT_BOUND is checked by specht_hom_dim, on every call.  The
    shape is canonicalized before the cache (`cache_info`, `cache_clear`) is
    consulted, so any spelling of a shape shares one entry."""
    return _specht_rep(partition(lam), p)


@lru_cache(maxsize=None)
def _specht_rep(lam, p: int) -> SpechtRep:
    """specht_rep on a canonical shape.

    The column of s_i for a standard t comes from Young's rule (see the module
    docstring); each shortcut column is checked against the relabelled vector,
    and each solve must reduce the relabelled vector to exactly zero."""
    check_prime(p)
    r = sum(lam)
    b = max(2, len(lam))
    syts = standard_young_tableaux(lam)
    f = len(syts)
    signed: dict[int, list] = {}
    basis = [_polytabloid(t, p, b, signed) for t in syts]
    codes = [_code(_row_word(t), b) for t in syts]
    leads = {}
    for c, vec in enumerate(basis):
        lead = codes[c]
        if min(vec, default=None) != lead or vec[lead] != 1:
            raise ArithmeticError(f"polytabloid of {syts[c]} lacks its unit lowest term mod {p}")
        leads[lead] = (c, vec)
    col_words = [_row_word(_columns(t)) for t in syts]  # w[v-1]: the column of v
    syt_index = {x: c for c, x in enumerate(codes)}
    # s_i trades the digits of i and i+1, the base-b digits t // b and t % b
    # of t = x // lo % b^2: one table lookup moves a code x
    window = b * b
    moves = []
    for i in range(1, r):
        lo = b ** (r - i - 1)
        moves.append((lo, [((t % b) * b + t // b - t) * lo for t in range(window)]))
    mats = [[[0] * f for _ in range(f)] for _ in moves]  # mats[i-1][row][c]: row of s_i e_{t_c}
    for c, vec in enumerate(basis):
        negated = None  # -e_t, built once for every s_i that fixes a column of t
        for i, (lo, shift), mat in zip(range(1, r), moves, mats):
            moved = {x + shift[x // lo % window]: v for x, v in vec.items()}
            dx = shift[codes[c] // lo % window]
            if not dx:  # i and i+1 share a row of t
                for target, v in reduce_lowest(moved, leads, p).items():
                    mat[target][c] = v
                continue
            if col_words[c][i - 1] == col_words[c][i]:
                if negated is None:
                    negated = {k: p - v for k, v in vec.items()}
                target, value, expected = c, p - 1, negated
            else:
                target = syt_index[codes[c] + dx]
                value, expected = 1, basis[target]
            if moved != expected:
                raise ArithmeticError(f"Young's rule fails for s_{i} on {syts[c]} mod {p}")
            mat[target][c] = value
    gens = tuple(tuple(map(tuple, mat)) for mat in mats)
    return SpechtRep(lam, p, f, gens)


specht_rep.cache_info = _specht_rep.cache_info
specht_rep.cache_clear = _specht_rep.cache_clear


def _sparse_columns(rep: SpechtRep) -> list[list[list[tuple[int, int]]]]:
    """cols[i][b]: the nonzero (c, coefficient) of s_{i+1} e_b, from rep.gens."""
    f = rep.dim
    return [[[(c, g[c][b]) for c in range(f) if g[c][b]] for b in range(f)] for g in rep.gens]


def _spanning_tree(lam, cols) -> tuple[list[int], dict[int, tuple[int, int] | None]]:
    """A spanning tree of the standard tableaux of lam, from the first one,
    t0, by the moves s_{i+1} e_b = e_c (c != b) that Young's rule gives when
    i+1 and i+2 share neither row nor column of t_b: the columns of the
    generators, in `_sparse_columns` form, that are a unit vector with
    coefficient 1 at another index.  Returns the tableau indices in
    breadth-first order and, for each, its tree edge (i, b), None for t0.
    ArithmeticError if some standard tableau is not reached."""
    f = len(cols[0]) if cols else 1
    edge: dict[int, tuple[int, int] | None] = {0: None}
    order = [0]
    for b in order:
        for i, gen_cols in enumerate(cols):
            col = gen_cols[b]
            if len(col) == 1 and col[0][1] == 1 and col[0][0] not in edge:
                edge[col[0][0]] = (i, b)
                order.append(col[0][0])
    if len(order) != f:
        raise ArithmeticError(
            f"Young's-rule moves reach {len(order)} of the {f} standard tableaux of {lam}"
        )
    return order, edge


def _polytabloid_size(lam) -> int:
    """Terms of one polytabloid of lam: one per column permutation, the
    product of (column height)! over its columns."""
    return prod(map(factorial, transpose(lam)))


def _oriented(nu, nu_prime) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pair whose Hom specht_hom_dim solves: (transpose(nu_prime),
    transpose(nu)) when its two polytabloids hold fewer terms together than
    those of (nu, nu_prime), else (nu, nu_prime), also on a tie.  The
    dimension is the same either way (see specht_hom_dim)."""
    conj = transpose(nu_prime), transpose(nu)
    if sum(map(_polytabloid_size, conj)) < _polytabloid_size(nu) + _polytabloid_size(nu_prime):
        return conj
    return nu, nu_prime


def specht_hom_dim(nu, nu_prime, p: int) -> int:
    """dim of module maps X from the nu_prime Specht module to the nu one, at
    any prime.  DegreeBoundError above degree WEYLHOM_SPECHT_BOUND.

    The nu_prime module is cyclic, generated by e_{t0} for its first
    standard tableau t0 (James, LNM 682, section 8), so X is fixed by
    v = X(e_{t0}), a vector of the fa-dimensional nu module.  Along the
    edges s_i e_b = e_c of `_spanning_tree`, X(e_c) = A_i X(e_b); so
    X(e_t) = M_t v with M_{t0} = I and M_c = A_i M_b (A the nu action, B
    the nu_prime action).  X is then a module map iff
    A_i M_b v = sum_c B_i[c][b] M_c v for every i and b off the tree.  The
    mirror of a move, s_i e_c = e_b after s_i e_b = e_c was used, gives
    A_i times the same rows (A_i^2 = 1) and is skipped.  Each row is built
    only when it is absorbed, with the rows of M it needs, and streamed into
    one `gfp.Echelon`, which reduces a repeated row to nothing and whose
    rank is current after every row: at rank fa only v = 0 is left, and the
    answer is 0 without reading the rest.

    All of this runs on the pair `_oriented` picks after the degree check,
    the given one or (transpose(nu_prime), transpose(nu)), whichever has the
    smaller polytabloids (the given one on a tie).  Both have one Hom
    dimension at every prime: the dual of the lam module is the
    transpose(lam) one twisted by the sign (James, LNM 682, Theorem 8.15),
    so dualizing turns maps from the nu_prime module to the nu one into
    maps from the transpose(nu) module to the transpose(nu_prime) one, and
    the sign twist of both sides cancels.
    """
    nu = partition(nu)
    nu_prime = partition(nu_prime)
    check_prime(p)
    r = sum(nu)
    if r != sum(nu_prime):
        raise ValueError(f"degree mismatch: {nu} vs {nu_prime}")
    limit = config.specht_degree_bound()
    if r > limit:
        raise DegreeBoundError(f"degree {r} exceeds oracle bound {limit}")
    nu, nu_prime = _oriented(nu, nu_prime)
    rep_a = specht_rep(nu, p)
    rep_b = specht_rep(nu_prime, p)
    fa = rep_a.dim
    a_rows = [[[(k, c) for k, c in enumerate(row) if c] for row in g] for g in rep_a.gens]
    b_cols = _sparse_columns(rep_b)
    order, edge = _spanning_tree(nu_prime, b_cols)
    tree = set(edge.values())
    pos = {t: n for n, t in enumerate(order)}
    m_rows: dict[tuple[int, int], dict[int, int]] = {}

    def m_row(t, a):
        """Row a of M_t, as a sparse vector over the coordinates of v."""
        row = m_rows.get((t, a))
        if row is None:
            if edge[t] is None:
                row = {a: 1}
            else:
                i, b = edge[t]
                row = {}
                for k, c in a_rows[i][a]:
                    add_scaled(row, c, m_row(b, k), p)
            m_rows[t, a] = row
        return row

    ech = Echelon(MatrixGFp(0, fa, p))
    for b in order:
        for i, a_gen in enumerate(a_rows):
            col = b_cols[i][b]
            if (i, b) in tree or (len(col) == 1 and col[0][1] == 1 and pos[col[0][0]] < pos[b]):
                continue
            for a in range(fa):
                row: dict[int, int] = {}
                for k, c in a_gen[a]:
                    add_scaled(row, c, m_row(b, k), p)
                for t, c in col:
                    add_scaled(row, -c, m_row(t, a), p)
                if not row:
                    continue
                ech.absorb([row])
                if ech.rank == fa:
                    return 0
    return fa - ech.rank


# Orientation of the dictionary between the two sides, pinned empirically
# against the degree <= 7 cases with asymmetric dimensions (see tests):
# hom_dim(lam, mu, p) agrees with maps from the mu Specht module to the
# lam one, i.e. specht_hom_dim(lam, mu, p).


def check_dictionary_prime(p: int) -> None:
    """The dictionary between the two sides is asserted for odd p only;
    ValueError at p = 2, where specht_hom_dim still computes."""
    if check_prime(p) == 2:
        raise ValueError("the Specht-side dictionary needs p > 2")


def oracle_compare(lam, mu, p: int) -> bool:
    """True iff the Weyl-side dimension matches the symmetric-group side;
    ValueError at p = 2 (see check_dictionary_prime)."""
    check_dictionary_prime(p)
    weyl = hom_dim(lam, mu, p)[0]
    specht = specht_hom_dim(lam, mu, p)
    return weyl == specht
