"""Exact arithmetic over GF(p): binomials via Lucas digits, sparse matrices, kernels.

Everything is integer arithmetic on residues in [0, p).  No floats, no
probabilistic shortcuts: ranks and kernels are exact.  An `Echelon` keeps
the reduced echelon form of a matrix that grows by batches of rows, brought
up to date in two passes over every batch; the form depends only on the
row space and not on the order or batching of the rows, so bases are
reproducible across runs.  Each row is reduced once at every pivot column
it holds, so the arithmetic follows the nonzeros, not rank^2.  After any
batch it names the support of the kernel, the columns some kernel vector
is nonzero on: a caller that streams equations in can leave the other
columns out of later rows, since every solution is 0 there.  A linear
system is solved by reading the kernel of its augmented matrix.  A basis
that is already unitriangular (each element has its own lowest key, with
coefficient 1) needs no elimination at all: `reduce_lowest` solves against
it term by term.
"""

from __future__ import annotations

import math
from functools import lru_cache


class NonPrimeModulusError(ValueError):
    """Raised when a field context is requested for a modulus not known to be
    prime: a composite, or one at or past PRIMALITY_BOUND."""


class InconsistentSystemError(ArithmeticError):
    """Raised when a linear system guaranteed solvable turns out not to be."""


# Miller-Rabin on the 13 primes 2..41 decides primality below this bound
# (Sorenson and Webster, Math. Comp. 2017); the bound itself is a strong
# pseudoprime to all 13 bases.
PRIMALITY_BOUND = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin; NonPrimeModulusError at
    or past PRIMALITY_BOUND, where these witnesses no longer decide."""
    if n < 2:
        return False
    if n >= PRIMALITY_BOUND:
        raise NonPrimeModulusError(
            f"modulus {n} is too large: primality is decided exactly below {PRIMALITY_BOUND}"
        )
    for b in _WITNESSES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _WITNESSES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None, typed=True)
def check_prime(p: int) -> int:
    """p itself if it is an int known to be prime; the cache is typed, so
    3.0 is refused rather than answered from the entry for 3."""
    if not isinstance(p, int):
        raise NonPrimeModulusError(f"modulus {p!r} is not an integer")
    if not is_prime(p):
        raise NonPrimeModulusError(f"modulus {p} is not prime")
    return p


def binom_mod(a: int, b: int, p: int) -> int:
    """C(a, b) mod p by Lucas' digit decomposition; 0 when b > a.

    Digit-wise products avoid huge factorials: first-row entries in the
    stabilized computations reach a few dozen plus k*p^d, which is exactly
    the regime Lucas' theorem handles in O(log_p a).  Each digit's binomial
    is computed exactly, so nothing is kept per prime.
    """
    check_prime(p)
    if b < 0 or b > a:
        return 0
    result = 1
    while b > 0:
        ad, a = a % p, a // p
        bd, b = b % p, b // p
        if bd > ad:
            return 0
        result = (result * math.comb(ad, bd)) % p
        if result == 0:
            return 0
    return result


def add_scaled(dst: dict, factor: int, src: dict, p: int) -> None:
    """dst += factor * src over GF(p), in place, for sparse vectors stored as
    {key: nonzero residue}; entries that cancel are removed from dst."""
    for j, c in src.items():
        v = (dst.get(j, 0) + factor * c) % p
        if v:
            dst[j] = v
        else:
            dst.pop(j, None)


def reduce_lowest(vec: dict, basis: dict, p: int) -> dict:
    """Coordinates of vec over a unitriangular basis, by lowest-term reduction.

    `basis` maps each lead to (label, element): the element's lowest key is
    the lead, with coefficient 1, and no two elements share a lead.  The
    lowest key left in vec names the only element that can cancel it, so the
    coordinates {label: c} are unique, and a lowest key that is no lead
    means vec lies outside the span (InconsistentSystemError).  Every step
    removes the lowest key and adds only higher ones, and the loop ends only
    at exactly zero; an element whose lead is no unit would leave its lead
    behind, which raises rather than loops.
    """
    rest = dict(vec)
    coords = {}
    while rest:
        lead = min(rest)
        entry = basis.get(lead)
        if entry is None:
            raise InconsistentSystemError("no exact solution")
        label, element = entry
        c = coords[label] = rest[lead]
        add_scaled(rest, -c, element, p)
        if lead in rest:
            raise InconsistentSystemError(f"basis element {label} does not clear its lead")
    return coords


class MatrixGFp:
    """Sparse matrix over GF(p): rows stored as {col: nonzero residue}."""

    __slots__ = ("nrows", "ncols", "p", "rows")

    def __init__(self, nrows: int, ncols: int, p: int, rows=None):
        check_prime(p)
        self.nrows = nrows
        self.ncols = ncols
        self.p = p
        self.rows: list[dict[int, int]] = [dict() for _ in range(nrows)] if rows is None else rows

    def mul_vec(self, v) -> list[int]:
        p = self.p
        return [sum(c * v[j] for j, c in row.items()) % p for row in self.rows]


class Echelon:
    """Reduced echelon form of a growing MatrixGFp, reusable for kernels and solves.

    The form is reduced after every batch of rows: each pivot row has its
    lead as lowest key, with coefficient 1, and holds no other pivot column.
    It depends only on the row space, so the order and batching of the rows
    change its cost, never its result.  `Echelon(matrix)` absorbs the
    matrix's rows as one batch; `absorb` appends more rows to the matrix and
    brings the form up to date.  A batch works in two passes:

    * each row is reduced at every pivot column it holds; a pivot row
      holds no other pivot column, so one pass leaves the row with free
      columns only, and a row in the span of the pivots leaves nothing;
    * the rows left are taken in descending order of their lowest column
      (shorter first among ties).  Each is reduced at every pivot column
      it now holds, old or new, scaled to a unit lead, subtracted from
      every pivot row that holds its lead and stored under that lead; it
      holds no other pivot column, so the form stays reduced and nothing
      cascades.  In this order the new pivot rows taken before a row hold
      no column below their own leads, which are at or above the row's
      lowest column, so they hold its lead only when that column was
      cleared.

    The arithmetic follows the nonzeros of the rows involved; finding the
    pivot rows that hold a new lead takes one membership test per pivot
    row.
    """

    def __init__(self, matrix: MatrixGFp):
        self.matrix = matrix
        self.p = matrix.p
        self.ncols = matrix.ncols
        # pivot col -> reduced row
        self.pivot_rows: dict[int, dict[int, int]] = {}
        self._reduce(matrix.rows)

    def absorb(self, rows: list[dict[int, int]]) -> None:
        """Append rows to the matrix as one batch and reduce them in."""
        self.matrix.rows.extend(rows)
        self.matrix.nrows += len(rows)
        self._reduce(rows)

    def _reduce(self, rows) -> None:
        p = self.p
        pivots = self.pivot_rows
        pending = []
        for row in rows:
            row = dict(row)
            for col in [j for j in row if j in pivots]:
                add_scaled(row, -row[col], pivots[col], p)
            if row:
                pending.append((-min(row), len(row), row))
        pending.sort(key=lambda entry: entry[:2])
        for _, _, row in pending:
            for col in [j for j in row if j in pivots]:
                add_scaled(row, -row[col], pivots[col], p)
            if not row:
                continue
            lead = min(row)
            inv = pow(row[lead], -1, p)
            if inv != 1:
                row = {j: c * inv % p for j, c in row.items()}
            for other in [other for other in pivots.values() if lead in other]:
                add_scaled(other, -other[lead], row, p)
            pivots[lead] = row

    def support(self) -> list[int]:
        """The columns where some kernel vector is nonzero, ascending: the free
        columns and the pivots whose reduced row holds a free column."""
        pivots = self.pivot_rows
        return [j for j in range(self.ncols) if len(pivots.get(j, ())) != 1]

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def kernel_basis(self) -> list[list[int]]:
        """Reduced basis of the right kernel, one vector per free column, ascending."""
        p, n = self.p, self.ncols
        pivot_rows = self.pivot_rows
        basis = {free: [0] * n for free in range(n) if free not in pivot_rows}
        for free, v in basis.items():
            v[free] = 1
        # a reduced row holds no pivot column but its lead: the rest are free
        for lead, row in pivot_rows.items():
            for j, c in row.items():
                if j != lead:
                    basis[j][lead] = -c % p
        return list(basis.values())

    def solve(self, rhs: dict[int, int]) -> list[int]:
        """The x with M x = rhs and 0 in every free column of M.

        x is read off the reduced kernel of [M | -rhs]: the system is
        consistent exactly when the last column is free (Rouche-Capelli), and
        then the kernel vector of that column, which ends in 1, is (x, 1).
        """
        p, n = self.p, self.ncols
        rows = [dict(row) for row in self.matrix.rows]
        for i, v in rhs.items():
            if v % p:
                rows[i][n] = -v % p
        kernel = Echelon(MatrixGFp(len(rows), n + 1, p, rows)).kernel_basis()
        if not kernel or not kernel[-1][n]:
            raise InconsistentSystemError("no exact solution")
        return kernel[-1][:n]
