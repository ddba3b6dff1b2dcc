"""Shared oracles for the test suite.

Brute-force filling enumeration for Kostka numbers, the raw
exterior-realization solve for straightening, and the generic tensor
evaluation of phi_T (on the tensor a relation generator stands for) that
the closed-form relation images are checked against, and the relation
matrix over every generator x_{i,t} (`reference_relation_matrix`), which
`relation_matrix` cuts to the t that are powers of p.  The Kostka count is
independent of the library.  `reference_straighten` skips the ones-step
and the peel, and realizes tableaux with `reference_dprime`, the full
dealing over every column order that `polyalg.dprime` computed before it
kept only the representatives of the column symmetry; so it shares no
realization code with `WeylContext._solve`.  It solves by general
elimination (`gfp.Echelon`), where `_solve` reduces by lowest terms against
the unitriangular standard images.  `orbit_expansion` turns a
representative vector back into the full one, and `is_representative`
checks a key.  `standard_image_matrix` builds the library's standard
images as one matrix over a sorted monomial index, for the full-rank
checks.  `dprime` itself is checked against a brute-force dealing that
shares nothing with it
(`test_polyalg.py::test_dprime_matches_brute_force_dealing`).
`reference_ones_step` is the two-row ones-elimination as it rebuilt rows 1
and 2 across the whole width, which the slot-only `_ones_step` is checked
against term for term.
`reference_specht_gens` is the Specht oracle's brute-force construction: a
fresh polytabloid and an `Echelon.solve` for every adjacent transposition
and standard tableau, with no use of Young's rule.
`reference_specht_hom_dim` is the oracle's earlier Hom solve: the full
intertwiner system in all fa * fb entries of X, with no cyclic generator,
spanning tree or early stop.

`reference_rref` is dense Gauss-Jordan elimination over GF(p), column by
column with row swaps, that `Echelon`'s sparse elimination and
back-substitution are checked against.

The reference implementations the library itself never runs live here too:
dense and entrywise matrix construction (`from_dense`, `set_entry`), the
divided-power monomials `mono` (with `mono_degree`) and their product
`dp_mult`, on partitions `dominates` and the Weyl dimension formula
`weyl_dimension`, the relation generators
x_{i,t} for every t (`relation_generators`, with `is_power` picking the
t = p^j that `relation_matrix` walks) and their weights
(`generator_weight`), and the size of the full dealing over every column
order (`tensor_expansion_count`).  The tests take the conjugate
`transpose` from here too; it is the library's `weylhom.shapes.transpose`.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

import weylhom
from weylhom.gfp import Echelon, MatrixGFp, add_scaled, binom_mod, check_prime
from weylhom.homspace import phi_eval_terms
from weylhom.polyalg import (
    ExpansionLimitError,
    ExtMonomial,
    bounded_compositions,
    dp_comult,
    dprime,
)
from weylhom.shapes import composition, partition, transpose
from weylhom.specht import specht_rep, standard_young_tableaux
from weylhom.tableaux import Tableau, enumerate_standard
from weylhom.weyl import get_context


Monomial = tuple[tuple[int, int], ...]


def mono(items) -> Monomial:
    """Canonical divided-power monomial from (entry, exponent) pairs or a
    dict: entries ascending, zero exponents dropped, repeats summed."""
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


def run_python(args, str_digits=None) -> subprocess.CompletedProcess:
    """Run the interpreter on args with this weylhom importable, one scan
    worker, PYTHONINTMAXSTRDIGITS set to str_digits (unset when None) and a
    30 s timeout, so that a hang fails the test instead of the suite."""
    env = dict(os.environ, WEYLHOM_WORKERS="1")
    src = str(Path(weylhom.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if str_digits is not None:
        env["PYTHONINTMAXSTRDIGITS"] = str_digits
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=30)


def set_entry(m: MatrixGFp, i: int, j: int, value: int) -> None:
    """Store value mod p at (i, j) of m, dropping the entry when it is zero."""
    if not (0 <= i < m.nrows and 0 <= j < m.ncols):
        raise IndexError((i, j))
    v = value % m.p
    if v:
        m.rows[i][j] = v
    else:
        m.rows[i].pop(j, None)


def from_dense(entries, p: int) -> MatrixGFp:
    """The matrix with the given rows of entries, each reduced mod p."""
    nrows = len(entries)
    ncols = len(entries[0]) if nrows else 0
    m = MatrixGFp(nrows, ncols, p)
    for i, row in enumerate(entries):
        for j, v in enumerate(row):
            set_entry(m, i, j, v)
    return m


def reference_rref(m: MatrixGFp) -> tuple[dict[int, dict[int, int]], list[list[int]]]:
    """Reduced row echelon form of m by dense Gauss-Jordan elimination: the
    pivot rows keyed by pivot column, as sparse dicts, and the kernel basis
    with one vector per free column, ascending, 1 there and 0 in the other
    free columns."""
    p, n = m.p, m.ncols
    dense = [[row.get(j, 0) % p for j in range(n)] for row in m.rows]
    leads = []
    r = 0
    for col in range(n):
        pick = next((i for i in range(r, len(dense)) if dense[i][col]), None)
        if pick is None:
            continue
        dense[r], dense[pick] = dense[pick], dense[r]
        inv = pow(dense[r][col], -1, p)
        dense[r] = [v * inv % p for v in dense[r]]
        for i in range(len(dense)):
            if i != r and dense[i][col]:
                f = dense[i][col]
                dense[i] = [(a - f * b) % p for a, b in zip(dense[i], dense[r])]
        leads.append(col)
        r += 1
    pivots = {col: {j: v for j, v in enumerate(dense[k]) if v} for k, col in enumerate(leads)}
    kernel = []
    for free in range(n):
        if free in pivots:
            continue
        v = [0] * n
        v[free] = 1
        for k, col in enumerate(leads):
            v[col] = -dense[k][free] % p
        kernel.append(v)
    return pivots, kernel


def dp_mult(m1: Monomial, m2: Monomial, p: int) -> tuple[int, Monomial]:
    """Product in the divided power algebra: exponents add, coefficient is the
    product over entries of C(e1+e2, e1)."""
    coeff = 1
    counts = dict(m1)
    for e, c in m2:
        have = counts.get(e, 0)
        if have:
            coeff = (coeff * binom_mod(have + c, c, p)) % p
            if coeff == 0:
                return 0, ()
        counts[e] = have + c
    return coeff, tuple(sorted(counts.items()))


def dominates(mu, lam) -> bool:
    """True iff every prefix sum of mu covers the one of lam (sorted decreasingly).

    This is the nonemptiness criterion for weight-lam column-strict fillings
    of shape mu.  Degrees must agree.
    """
    mu = partition(mu)
    lam_sorted = tuple(sorted((int(v) for v in lam), reverse=True))
    if sum(mu) != sum(lam_sorted):
        raise ValueError(f"degree mismatch: {mu} vs {tuple(lam)}")
    total_mu = 0
    total_lam = 0
    for j in range(max(len(mu), len(lam_sorted))):
        total_mu += mu[j] if j < len(mu) else 0
        total_lam += lam_sorted[j] if j < len(lam_sorted) else 0
        if total_mu < total_lam:
            return False
    return True


def weyl_dimension(mu, n: int) -> int:
    """Classical product formula for dim of the highest-weight module of weight mu for GL_n."""
    mu = partition(mu)
    if len(mu) > n:
        raise ValueError(f"{mu} has more than n={n} parts")
    padded = mu + (0,) * (n - len(mu))
    result = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            result *= Fraction(padded[i] - padded[j] + j - i, j - i)
    assert result.denominator == 1
    return int(result)


def distinct_permutations(items):
    """All distinct orderings of a multiset, without relying on the library."""
    items = sorted(items)
    n = len(items)
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        last = None
        for i, v in enumerate(remaining):
            if v == last:
                continue
            last = v
            rec(prefix + [v], remaining[:i] + remaining[i + 1 :])

    rec([], items)
    return out


def kostka_bruteforce(mu, alpha) -> int:
    """Count column-strict fillings of shape mu with weight alpha by trying
    every distinct arrangement of the entry multiset on the grid."""
    mu = tuple(mu)
    entries = []
    for j, c in enumerate(alpha):
        entries.extend([j + 1] * c)
    if sum(mu) != len(entries):
        raise ValueError("degree mismatch")
    count = 0
    for arrangement in distinct_permutations(entries):
        rows = []
        pos = 0
        for length in mu:
            rows.append(arrangement[pos : pos + length])
            pos += length
        ok = True
        for row in rows:
            if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
                ok = False
                break
        if ok:
            for i in range(1, len(rows)):
                for j in range(len(rows[i])):
                    if rows[i - 1][j] >= rows[i][j]:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            count += 1
    return count


def tableau_monomials(tab: Tableau):
    return [mono({j + 1: c for j, c in enumerate(row)}) for row in tab.counts]


def tensor_expansion_count(shape, factors) -> int:
    """Number of raw terms the exterior expansion of the tensor touches when
    dealt over every column order: the product over rows of
    multinomial(mu_i; entry counts)."""
    total = 1
    for mu_i, factor in zip(shape, factors):
        row = math.factorial(mu_i)
        for _, c in factor:
            row //= math.factorial(c)
        total *= row
    return total


def reference_dprime(
    shape, factors, p: int, limit: int | None = None
) -> dict[ExtMonomial, int]:
    """Exterior realization of a shape-`shape` tensor of monomials, over
    every column order.

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


def column_blocks(shape) -> list[range]:
    """The column indices of each block of equal-height columns of shape,
    left to right."""
    heights = [sum(1 for mu_i in shape if mu_i > j) for j in range(shape[0] if shape else 0)]
    blocks: list[range] = []
    start = 0
    for j in range(1, len(heights) + 1):
        if j == len(heights) or heights[j] != heights[start]:
            blocks.append(range(start, j))
            start = j
    return blocks


def is_representative(shape, key) -> bool:
    """Whether the columns of key are lexicographically non-decreasing within
    every block of equal-height columns of shape."""
    return all(key[j] <= key[j + 1] for block in column_blocks(shape) for j in block[:-1])


def orbit_expansion(shape, vec) -> dict:
    """The full vector that a vector on representative keys stands for:
    every distinct reordering of the columns within each block of a key
    gets that key's coefficient."""
    blocks = column_blocks(shape)
    full = {}
    for key, v in vec.items():
        orders = [set(itertools.permutations(key[j] for j in block)) for block in blocks]
        for choice in itertools.product(*orders):
            full[tuple(col for part in choice for col in part)] = v
    return full


def reference_straighten(mu, tab: Tableau, p: int) -> dict[Tableau, int]:
    """Straighten [tab] purely by solving against the full exterior
    realizations of the standard tableaux; shares nothing with the
    closed-form paths or with the library's realization."""
    mu = tuple(mu)
    std = enumerate_standard(mu, tab.weight)
    images = [reference_dprime(mu, tableau_monomials(t), p) for t in std]
    target = reference_dprime(mu, tableau_monomials(tab), p)
    if not std:
        assert not target, f"{tab.render()} nonzero in an empty weight space"
        return {}
    keys = sorted(set(target) | {k for img in images for k in img})
    index = {k: i for i, k in enumerate(keys)}
    matrix = MatrixGFp(len(keys), len(std), p)
    for col, img in enumerate(images):
        for k, v in img.items():
            set_entry(matrix, index[k], col, v)
    solution = Echelon(matrix).solve({index[k]: v for k, v in target.items()})
    return {std[i]: v for i, v in enumerate(solution) if v}


def standard_image_matrix(mu, alpha, p: int) -> MatrixGFp:
    """Matrix of exterior realizations of the standard tableaux of shape mu,
    weight alpha: one column per tableau over a shared row index of exterior
    monomials (sorted), full column rank."""
    mu = partition(mu)
    images = [dprime(t, p) for t in enumerate_standard(mu, alpha)]
    keys = sorted({k for img in images for k in img})
    index = {k: i for i, k in enumerate(keys)}
    matrix = MatrixGFp(len(keys), len(images), p)
    for col, img in enumerate(images):
        for k, v in img.items():
            set_entry(matrix, index[k], col, v)
    return matrix


def generator_tensor(gen) -> tuple:
    """The shape-lam tensor of monomials that the relation generator
    x_{i,t} stands for: factor i+1 is i^(t)(i+1)^(lam_{i+1}-t), and every
    other factor j is j^(lam_j)."""
    lam, i, t = gen.lam, gen.i, gen.t
    return tuple(
        mono({i: t, i + 1: lam[i] - t}) if j == i + 1 else mono({j: lam[j - 1]})
        for j in range(1, len(lam) + 1)
    )


@dataclass(frozen=True)
class RelationGenerator:
    """Cyclic generator x_{i,t} of the (i, t) relation summand of Delta(lam):
    the shape-lam tensor whose factor i+1 is i^(t)(i+1)^(lam_{i+1}-t) and
    whose other factors j are j^(lam_j)."""

    lam: tuple[int, ...]
    i: int
    t: int


def relation_generators(lam) -> list[RelationGenerator]:
    """All x_{i,t} for i = 1..len(lam)-1 and t = 1..lam_{i+1}, in (i, t) order."""
    lam = partition(lam)
    return [
        RelationGenerator(lam, i, t)
        for i in range(1, len(lam))
        for t in range(1, lam[i] + 1)
    ]


def is_power(t: int, p: int) -> bool:
    """Whether t = p^j for some j >= 0."""
    while t % p == 0:
        t //= p
    return t == 1


def generator_weight(gen) -> tuple[int, ...]:
    """The weight of the relation generator x_{i,t}: lam with t moved from
    entry i+1 to entry i."""
    lam, i, t = gen.lam, gen.i, gen.t
    return composition(lam[: i - 1] + (lam[i - 1] + t, lam[i] - t) + lam[i + 1 :])


def reference_relation_matrix(lam, mu, p: int, keep=lambda t: True) -> MatrixGFp:
    """The relation matrix over every generator x_{i,t} whose t passes keep
    (all of them by default), one row per target tableau an image reaches;
    built from `relation_generators` and the public `phi_eval_terms` and
    `straighten_terms`, with no p-power rule."""
    std = enumerate_standard(mu, lam)
    ctx = get_context(mu, p)
    rows = []
    for gen in relation_generators(lam):
        if not keep(gen.t):
            continue
        block = {}
        for col, tab in enumerate(std):
            for s, v in ctx.straighten_terms(phi_eval_terms(tab, gen.i, gen.t, p)).items():
                block.setdefault(s, {})[col] = v
        rows.extend(block.values())
    return MatrixGFp(len(rows), len(std), p, rows)


def reference_generator_rows(ctx, std, cols, i: int, t: int, p: int) -> list[dict[int, int]]:
    """The block of x_{i,t} with every image straightened by the context,
    standard or not: one row per target standard tableau, in its order."""
    block: dict[Tableau, dict[int, int]] = {}
    for col in cols:
        for s, v in ctx.straighten_terms(phi_eval_terms(std[col], i, t, p)).items():
            block.setdefault(s, {})[col] = v
    return [block[s] for s in sorted(block)]


def reference_ones_step(mu, tab: Tableau, p: int) -> list[tuple[int, Tableau]]:
    """The two-row ones-elimination of a tableau of shape mu with a 1 in
    row 2, as `WeylContext._ones_step` computed it before it ran only over
    row 1's nonzero slots: compositions (i_s) of b_1 over every slot
    s = 2..width, each term's rows 1 and 2 rebuilt across the whole width
    and every coefficient a `binom_mod`."""
    a, b = tab[0], tab[1]
    b1 = b[0]
    if a[0] + b1 > mu[0]:
        return []
    width = tab.width
    sign = (-1) ** b1 % p
    terms = []
    caps = [a[j] for j in range(1, width)]
    for comp in bounded_compositions(b1, caps):
        coeff = sign
        for j, i_s in enumerate(comp, start=1):
            if i_s:
                coeff = (coeff * binom_mod(b[j] + i_s, b[j], p)) % p
        if not coeff:
            continue
        new_a = (a[0] + b1,) + tuple(a[j] - comp[j - 1] for j in range(1, width))
        new_b = (0,) + tuple(b[j] + comp[j - 1] for j in range(1, width))
        terms.append((coeff, Tableau._of((new_a, new_b) + tab[2:])))
    return terms


def reference_phi_terms(tab: Tableau, factors, p: int) -> list[tuple[int, Tableau]]:
    """Raw image of a tensor under phi_tab, before straightening.

    Factor j is comultiplied into the column-j multiplicities of tab (piece s
    routed to row s); the pieces landing in one row multiply in the divided
    power algebra, which is where all binomial coefficients originate.
    Terms whose coefficient vanishes mod p are dropped.
    """
    check_prime(p)
    nrows = len(tab.shape)
    if len(factors) != tab.width:
        raise ValueError(
            f"tensor has {len(factors)} factors but tableau weight has {tab.width} entries"
        )
    splits_per_factor = []
    for j, factor in enumerate(factors):
        degrees = tuple(tab.counts[i][j] for i in range(nrows))
        if mono_degree(factor) != sum(degrees):
            raise ValueError(
                f"factor {j + 1} has degree {mono_degree(factor)}, tableau column needs {sum(degrees)}"
            )
        splits_per_factor.append(dp_comult(factor, degrees))
    terms: list[tuple[int, Tableau]] = []

    def rec(j, rows, coeff):
        if j == len(factors):
            width = max((row[-1][0] for row in rows if row), default=0)
            counts = [[0] * width for _ in rows]
            for count, row in zip(counts, rows):
                for e, c in row:
                    count[e - 1] = c
            terms.append((coeff, Tableau(counts)))
            return
        for split in splits_per_factor[j]:
            c = coeff
            new_rows = []
            for row, piece in zip(rows, split):
                if piece:
                    f, row = dp_mult(row, piece, p)
                    c = c * f % p
                    if not c:
                        break
                new_rows.append(row)
            else:
                rec(j + 1, new_rows, c)

    rec(0, [()] * nrows, 1)
    return terms


def _sorted_row_tabloids(lam):
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


def _reference_polytabloid(tableau, p, tabloid_index) -> dict[int, int]:
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


def reference_specht_gens(lam, p: int) -> tuple:
    """The matrices of s_1, ..., s_{r-1} on the standard polytabloids of lam
    over GF(p), row-major: s_i e_t is rebuilt as the polytabloid of s_i t and
    solved against the basis, for every i and t."""
    lam = partition(lam)
    check_prime(p)
    r = sum(lam)
    syts = standard_young_tableaux(lam)
    f = len(syts)
    tabloids = _sorted_row_tabloids(lam)
    tabloid_index = {t: i for i, t in enumerate(tabloids)}
    basis_matrix = MatrixGFp(len(tabloids), f, p)
    for col, t in enumerate(syts):
        for idx, v in _reference_polytabloid(t, p, tabloid_index).items():
            set_entry(basis_matrix, idx, col, v)
    ech = Echelon(basis_matrix)
    if ech.rank != f:
        raise ArithmeticError(f"standard polytabloids of {lam} are dependent mod {p}")
    gens = []
    for i in range(1, r):
        swap = {i: i + 1, i + 1: i}
        cols = []
        for t in syts:
            moved = tuple(tuple(swap.get(v, v) for v in row) for row in t)
            cols.append(ech.solve(_reference_polytabloid(moved, p, tabloid_index)))
        # cols[c][row]: coordinate of s_i e_{t_c}; store as row-major matrix
        gens.append(tuple(tuple(cols[c][row] for c in range(f)) for row in range(f)))
    return tuple(gens)


def reference_specht_hom_dim(nu, nu_prime, p: int) -> int:
    """dim of module maps from the nu_prime Specht module to the nu one, by
    the full intertwiner system: solutions X of A_g X = X B_g over the
    adjacent transpositions, in all fa * fb entries of X, with A the nu
    action and B the nu_prime action.  No degree bound and any prime."""
    nu = partition(nu)
    nu_prime = partition(nu_prime)
    check_prime(p)
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
    return fa * fb - Echelon(matrix).rank


def assert_canonical(tab: Tableau) -> None:
    """tab is what the validating constructor makes of its own counts: the
    same counts, hash and equality, with rows stored as tuples of ints; and,
    like every tableau, equal to and hashing like the tuple of its rows."""
    ref = Tableau(tab.counts)
    assert tab.counts == ref.counts, tab.counts
    assert hash(tab) == hash(ref) and tab == ref, tab.counts
    assert type(tab) is Tableau and tab == tab.counts and hash(tab) == hash(tab.counts)
    assert type(tab.counts) is tuple, tab.counts
    assert all(
        type(row) is tuple and all(type(c) is int for c in row) for row in tab.counts
    ), tab.counts


def is_class_a(tab: Tableau, lam) -> bool:
    """Membership in the first-row-loaded class: row 1 starts with lam_1 + t ones
    (0 <= t <= lam_2) and no entry 1 appears below row 1."""
    lam = partition(lam)
    if not tab.counts:
        return not lam
    lam1 = lam[0] if lam else 0
    lam2 = lam[1] if len(lam) > 1 else 0
    ones_top = tab.counts[0][0]
    if not (lam1 <= ones_top <= lam1 + lam2):
        return False
    return all(row[0] == 0 for row in tab.counts[1:])


def compositions_of(total: int, parts: int):
    """All compositions of `total` into exactly `parts` nonnegative entries."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for head in range(total + 1):
        for tail in compositions_of(total - head, parts - 1):
            out.append((head,) + tail)
    return out


@pytest.fixture(autouse=True)
def _fresh_caches():
    import weylhom

    weylhom.clear_caches()
    yield
