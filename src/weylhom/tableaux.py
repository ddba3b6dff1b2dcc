"""Tableaux of partition shape as entry-count matrices.

A tableau is the tuple of its count rows: tab[i][j] is the number of
entries j+1 in row i+1.  Rows are therefore weakly increasing by
construction, which matches the exponential notation 1^(3)2^(2)4 used
throughout, and makes standardness a prefix-count comparison between
consecutive rows rather than a cell-by-cell scan.
"""

from __future__ import annotations

from functools import lru_cache

from .polyalg import bounded_compositions
from .shapes import composition, integer, partition


def _row_fits(row, prev) -> bool:
    """Whether count row `row` sits column-strictly under count row `prev`.

    With sorted rows, column strictness says the first sum(row[:e]) cells of
    the lower row sit under cells of the upper row with entries < e, i.e.
    prefix_row(e) <= prefix_prev(e-1) for every entry threshold e.
    """
    running = 0
    prev_running = 0
    for e in range(len(row)):
        running += row[e]
        if running > prev_running:
            return False
        prev_running += prev[e]
    return True


class Tableau(tuple):
    """A filling as the tuple of its count rows, in canonical form: rows of
    one width with a nonzero last column, no empty row, and row sums that
    form a partition.  Equality, hashing and order are the tuple's, so a
    tableau equals the plain tuple of its rows."""

    __slots__ = ()

    def __new__(cls, counts):
        rows = [composition(row) for row in counts]
        width = max(map(len, rows), default=0)
        rows = [row + (0,) * (width - len(row)) for row in rows]
        while rows and sum(rows[-1]) == 0:
            rows.pop()
        sums = [sum(row) for row in rows]
        if any(sums[i] < sums[i + 1] for i in range(len(sums) - 1)):
            raise ValueError(f"row sums {sums} are not a partition shape")
        return tuple.__new__(cls, rows)

    @classmethod
    def _of(cls, counts: tuple[tuple[int, ...], ...]) -> "Tableau":
        """Wrap counts already in canonical form, skipping validation: a tuple
        of int tuples of one width, last column nonzero, no empty row, and row
        sums forming a partition.  For internal sites that build such counts."""
        return tuple.__new__(cls, counts)

    # the rows as a plain tuple; internal sites index the tableau itself
    counts = property(tuple)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(map(sum, self))

    @property
    def width(self) -> int:
        return len(self[0]) if self else 0

    @property
    def weight(self) -> tuple[int, ...]:
        return composition(map(sum, zip(*self)))

    def __repr__(self):
        return f"Tableau({self.render()!r})"

    def render(self) -> str:
        """Exponential notation, rows separated by ' | ': "1^(3)2^(2)4 | 2^(2)34 | 25"."""
        if not self:
            return "(empty)"
        out = []
        for row in self:
            pieces = []
            for j, c in enumerate(row):
                if c == 1:
                    pieces.append(str(j + 1))
                elif c > 1:
                    pieces.append(f"{j + 1}^({c})")
            out.append("".join(pieces) if pieces else "()")
        return " | ".join(out)

    def is_standard(self) -> bool:
        """Column-strict check: each row's entry-prefix counts fit strictly above."""
        return all(_row_fits(row, prev) for prev, row in zip(self, self[1:]))

    def plus(self, m: int) -> "Tableau":
        """Insert m extra 1s at the front of the top row."""
        if m < 0:
            raise ValueError("m must be nonnegative")
        if m == 0:
            return self
        if not self:
            return Tableau._of(((m,),))
        return Tableau._of(((self[0][0] + m,) + self[0][1:],) + self[1:])


def from_row_entries(rows) -> Tableau:
    """Build a tableau from explicit row entry lists, e.g. [[1,1,2],[2,3]]."""
    counts = []
    for row in rows:
        entries = [integer(e, "entry") for e in row]
        if entries and min(entries) < 1:
            raise ValueError(f"entries are 1-based, got {min(entries)}")
        counts.append([entries.count(e) for e in range(1, max(entries, default=0) + 1)])
    return Tableau(counts)


def enumerate_standard(mu, alpha) -> tuple[Tableau, ...]:
    """All standard tableaux of shape mu and weight alpha, in lexicographic
    order of the concatenated count rows.  Empty when no column-strict
    filling exists.  Shape and weight are canonicalized before the cache
    (`cache_info`, `cache_clear`) is consulted, so any spelling of a key
    shares one entry."""
    return _enumerate_standard(partition(mu), composition(alpha))


@lru_cache(maxsize=None)
def _enumerate_standard(mu, alpha) -> tuple[Tableau, ...]:
    """enumerate_standard on a canonical key.

    Normal form: every 1 sits in row 1, so alpha_1 > mu_1 gives no tableau,
    and when alpha_1 > mu_2 each tableau has m = alpha_1 - mu_2 more 1s than
    the row below needs.  Such a key gives the T -> T.plus(m) images of the
    key (mu - m*e_1, alpha - m*e_1), which is enumerated and cached once for
    all first-row lengths; plus keeps the order, since all tableaux share
    the same count of 1s.

    Otherwise a standard tableau is a chain of horizontal strips: the
    entries e fill a strip of alpha_e cells on top of the shape `filled`
    that the entries below e occupy, with at most
    min(mu_i, filled_{i-1}) - filled_i of them in row i, so that each sits
    under a smaller entry.  The chains are extended one entry at a time,
    kept by the filling they reach, so the strips on a filling are listed
    once however many chains meet there."""
    if sum(mu) != sum(alpha):
        raise ValueError(f"degree mismatch: shape {mu} vs weight {alpha}")
    if not mu:
        return (Tableau(()),)
    if alpha[0] > mu[0]:
        return ()
    m = alpha[0] - (mu[1] if len(mu) > 1 else 0)
    if m > 0:
        reduced = enumerate_standard(
            (mu[0] - m,) + mu[1:], (alpha[0] - m,) + alpha[1:]
        )
        return tuple(t.plus(m) for t in reduced)
    chains: dict[tuple[int, ...], list] = {(0,) * len(mu): [()]}
    for size in alpha:
        step: dict[tuple[int, ...], list] = {}
        for filled, reach in chains.items():
            above = (mu[0],) + filled[:-1]
            caps = [min(m_i, a) - f for m_i, a, f in zip(mu, above, filled)]
            for strip in bounded_compositions(size, caps):
                after = tuple(f + v for f, v in zip(filled, strip))
                step.setdefault(after, []).extend(chain + (strip,) for chain in reach)
        chains = step
    # strip e is column e of the counts; rows of width len(alpha) with sums mu
    rows = sorted(tuple(zip(*chain)) for chain in chains.get(mu, ()))
    return tuple(map(Tableau._of, rows))


enumerate_standard.cache_info = _enumerate_standard.cache_info
enumerate_standard.cache_clear = _enumerate_standard.cache_clear
