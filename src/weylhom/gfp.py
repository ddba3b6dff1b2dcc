"""Exact arithmetic over GF(p): binomials via Lucas digits, sparse matrices, kernels.

Everything is integer arithmetic on residues in [0, p).  No floats, no
probabilistic shortcuts: ranks and kernels are exact.  Elimination computes
the reduced echelon form, which depends only on the row space and not on the
order rows are absorbed in, so bases are reproducible across runs.
"""

from __future__ import annotations

from functools import lru_cache


class NonPrimeModulusError(ValueError):
    """Raised when a field context is requested for a composite modulus."""


class InconsistentSystemError(ArithmeticError):
    """Raised when a linear system guaranteed solvable turns out not to be."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def check_prime(p: int) -> int:
    if not is_prime(p):
        raise NonPrimeModulusError(f"modulus {p} is not prime")
    return p


@lru_cache(maxsize=None)
def _small_binomials(p: int) -> list[list[int]]:
    """Pascal triangle of C(a, b) mod p for 0 <= b <= a < p."""
    rows = [[1]]
    for a in range(1, p):
        prev = rows[-1]
        row = [1] * (a + 1)
        for b in range(1, a):
            row[b] = (prev[b - 1] + prev[b]) % p
        rows.append(row)
    return rows


def binom_mod(a: int, b: int, p: int) -> int:
    """C(a, b) mod p by Lucas' digit decomposition; 0 when b > a.

    Digit-wise products avoid huge factorials: first-row entries in the
    stabilized computations reach a few dozen plus k*p^d, which is exactly
    the regime Lucas' theorem handles in O(log_p a).
    """
    check_prime(p)
    if b < 0 or b > a:
        return 0
    table = _small_binomials(p)
    result = 1
    while b > 0:
        ad, a = a % p, a // p
        bd, b = b % p, b // p
        if bd > ad:
            return 0
        result = (result * table[ad][bd]) % p
        if result == 0:
            return 0
    return result


def multinomial_mod(parts, p: int) -> int:
    """(sum parts)! / prod(parts!) mod p, as a product of binomials over prefix sums."""
    total = 0
    result = 1
    for part in parts:
        total += part
        result = (result * binom_mod(total, part, p)) % p
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


class MatrixGFp:
    """Sparse matrix over GF(p): rows stored as {col: nonzero residue}."""

    __slots__ = ("nrows", "ncols", "p", "rows")

    def __init__(self, nrows: int, ncols: int, p: int, rows=None):
        check_prime(p)
        self.nrows = nrows
        self.ncols = ncols
        self.p = p
        self.rows: list[dict[int, int]] = [dict() for _ in range(nrows)] if rows is None else rows

    def set(self, i: int, j: int, value: int) -> None:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError((i, j))
        v = value % self.p
        if v:
            self.rows[i][j] = v
        else:
            self.rows[i].pop(j, None)

    @classmethod
    def from_dense(cls, entries, p: int) -> "MatrixGFp":
        nrows = len(entries)
        ncols = len(entries[0]) if nrows else 0
        m = cls(nrows, ncols, p)
        for i, row in enumerate(entries):
            for j, v in enumerate(row):
                m.set(i, j, v)
        return m

    def mul_vec(self, v) -> list[int]:
        p = self.p
        return [sum(c * v[j] for j, c in row.items()) % p for row in self.rows]

    def rank(self) -> int:
        return Echelon(self).rank

    def kernel_basis(self) -> list[list[int]]:
        return Echelon(self).kernel_basis()


class Echelon:
    """Reduced echelon form of a MatrixGFp, reusable for kernels and solves.

    Each distinct nonzero row is absorbed once, shortest first (ties by
    input index), and claims the lowest column not yet used as a pivot; empty
    and repeated rows add nothing to the row space, and the reduced form does
    not depend on the absorption order.  Pivot rows carry a transform (their
    expression in the original rows, a kept row standing for its first
    occurrence) so that solving against new right-hand sides is a cheap
    replay rather than a fresh elimination.
    """

    def __init__(self, matrix: MatrixGFp, with_transform: bool = False):
        self.matrix = matrix
        self.p = matrix.p
        self.ncols = matrix.ncols
        self.with_transform = with_transform
        # pivot col -> reduced row dict; transform kept alongside when asked
        self.pivot_rows: dict[int, dict[int, int]] = {}
        self.transforms: dict[int, dict[int, int]] = {}
        rows = matrix.rows
        first = {}
        for idx, row in enumerate(rows):
            if row:
                first.setdefault(frozenset(row.items()), idx)
        for idx in sorted(first.values(), key=lambda i: len(rows[i])):
            self._absorb(dict(rows[idx]), {idx: 1} if with_transform else None)
        self._back_substitute()

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def _absorb(self, row: dict[int, int], transform) -> None:
        p = self.p
        while row:
            lead = min(row)
            existing = self.pivot_rows.get(lead)
            if existing is None:
                inv = pow(row[lead], -1, p)
                self.pivot_rows[lead] = {j: (c * inv) % p for j, c in row.items()}
                if transform is not None:
                    self.transforms[lead] = {k: (c * inv) % p for k, c in transform.items()}
                return
            factor = row[lead]
            add_scaled(row, -factor, existing, p)
            if transform is not None:
                add_scaled(transform, -factor, self.transforms[lead], p)

    def _back_substitute(self) -> None:
        p = self.p
        for lead in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[lead]
            for other_lead, other in self.pivot_rows.items():
                if other_lead >= lead:
                    continue
                factor = other.get(lead, 0)
                if not factor:
                    continue
                add_scaled(other, -factor, row, p)
                if self.with_transform:
                    add_scaled(self.transforms[other_lead], -factor, self.transforms[lead], p)

    def kernel_basis(self) -> list[list[int]]:
        """Reduced basis of the right kernel, one vector per free column, ascending."""
        p = self.p
        basis = []
        for free in range(self.ncols):
            if free in self.pivot_rows:
                continue
            v = [0] * self.ncols
            v[free] = 1
            for lead, row in self.pivot_rows.items():
                c = row.get(free, 0)
                if c:
                    v[lead] = (-c) % p
            basis.append(v)
        return basis

    def solve(self, rhs: dict[int, int]) -> list[int]:
        """Unique solution of M x = rhs for a full-column-rank M; exact residual check."""
        if not self.with_transform:
            raise ValueError("Echelon built without transform cannot solve")
        p = self.p
        x = [0] * self.ncols
        for lead, transform in self.transforms.items():
            if len(rhs) < len(transform):
                x[lead] = sum(transform.get(k, 0) * v for k, v in rhs.items()) % p
            else:
                x[lead] = sum(c * rhs.get(k, 0) for k, c in transform.items()) % p
        # pivots alone cannot see an inconsistent residual, and a repeated row
        # may carry a different right-hand side: recheck every original row
        for i, row in enumerate(self.matrix.rows):
            s = sum(c * x[j] for j, c in row.items()) % p
            if s != rhs.get(i, 0) % p:
                raise InconsistentSystemError("no exact solution")
        return x
