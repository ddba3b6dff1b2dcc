"""Hom spaces between Weyl modules via the relation criterion.

A candidate map out of the shape-lambda Weyl module is a combination
sum c_T phi_T over standard tableaux T of shape mu and weight lambda; it
induces an honest module map exactly when it kills every relation generator
x_{i,t}.  Evaluating each phi_T on each generator, straightening, and
stacking the coordinates gives a sparse matrix whose kernel is the Hom
space.  The Schur algebra itself is never materialized.

Only the generators with t a power of p need rows.  In the hyperalgebra
E_i^(a) E_i^(b) = C(a+b, a) E_i^(a+b), so by Lucas E_i^(t) is a unit times
the product of E_i^(p^j) over the base-p digits t_j of t (each taken t_j
times); whatever every E_i^(p^j) kills, E_i^(t) kills too.  The rows of a
generator are keyed by the standard tableaux its images reach, so a target
no image reaches gives no row.

`relation_matrix` builds every row.  `hom_dim` instead streams the
generators' blocks, in (i, t) order, into one `gfp.Echelon`, and evaluates
each later generator only on the columns of the kernel's support so far;
once that support is empty, Hom is 0 and the rest is never evaluated.  This
is exact: every vector of the kernel so far is 0 off its support, so a row
cut to the support cuts the same vectors out of it as the whole row does.
The final kernel is therefore the kernel of `relation_matrix`, and since
the reduced form depends only on the row space, so is its basis.

Most images are already standard, and a standard tableau is its own
straightening, so those go into a generator's block as they are; only the
other images reach the straightening context, which does not test them
again.  The test needs no full standardness check: T is standard, and an
image only moves entries i+1 to i within their rows, which changes each
moved row's count of entries <= i and nothing else that column strictness
compares (see `_split_standard`).
"""

from __future__ import annotations

from typing import NamedTuple

from .gfp import Echelon, MatrixGFp, add_scaled, binom_mod, check_prime
from .polyalg import bounded_compositions
from .shapes import integer, partition, stabilize
from .tableaux import Tableau, enumerate_standard
from .weyl import get_context


class HomElement(NamedTuple):
    """A GF(p) coefficient vector over the standard tableaux of shape mu and
    weight lambda, representing sum coeffs[T] * phi_T."""

    lam: tuple[int, ...]
    mu: tuple[int, ...]
    p: int
    coeffs: tuple[int, ...]

    def support(self):
        std = enumerate_standard(self.mu, self.lam)
        return [(t, c) for t, c in zip(std, self.coeffs) if c]


def phi_eval_terms(tab: Tableau, i: int, t: int, p: int) -> list[tuple[int, Tableau]]:
    """Raw image phi_tab(x_{i,t}) of a relation generator, before straightening.

    Closed form: t of tab's entries i+1 become i, s_r of them in row r with
    s_r <= a_{r,i+1}, and the divided powers of i in row r multiply to the
    coefficient C(a_{r,i} + s_r, s_r).  Terms are in ascending lexicographic
    order of (s_r); those whose coefficient vanishes mod p are dropped.

    t = 1 gives the unit moves, one per row holding an i+1, last row first,
    with coefficient a_{r,i} + 1: each image is tab with the one row it
    changes replaced, and no composition is walked.  Otherwise the rows
    without an i+1 are shared by every term, and only the moved ones are
    rebuilt.
    """
    check_prime(p)
    if type(i) is not int:
        i = integer(i, "generator index")
    if type(t) is not int:
        t = integer(t, "generator degree")
    width = tab.width
    if not 1 <= i < width:
        raise ValueError(f"generator index {i} outside 1..{width - 1}")
    caps = [row[i] for row in tab]
    room = sum(caps)
    if not 0 <= t <= room:
        raise ValueError(f"generator x_({i},{t}) needs 0 <= t <= {room}")
    # moving every entry of the last column empties it; each term drops it
    trim = width - 1 if i == width - 1 and t == room else None
    slots = [r for r, c in enumerate(caps) if c]
    terms: list[tuple[int, Tableau]] = []
    # the unit moves, last row first: each replaces the one row it changes
    # (emptying the last column trims every row, so that is left to the loop)
    if t == 1 and trim is None:
        for r in reversed(slots):
            row = tab[r]
            a = row[i - 1] + 1
            coeff = a % p  # C(a, 1) = a
            if coeff:
                row = row[: i - 1] + (a, row[i] - 1) + row[i + 1 :]
                terms.append((coeff, Tableau._of(tab[:r] + (row,) + tab[r + 1 :])))
        return terms
    # rows without an i+1 are the same in every term
    rows = [row[:trim] for row in tab]
    # a full column moves every i+1: caps is the one composition
    for comp in [caps] if t == room else bounded_compositions(t, caps):
        coeff = 1
        for r in slots:
            row = tab[r]
            s = comp[r]
            if s:
                a = row[i - 1]
                # C(a + 1, 1) = a + 1
                coeff = coeff * (a + 1 if s == 1 else binom_mod(a + s, s, p)) % p
                if not coeff:
                    break
                row = row[: i - 1] + (a + s, row[i] - s) + row[i + 1 :]
            rows[r] = row[:trim]
        else:
            terms.append((coeff, Tableau._of(tuple(rows))))
    return terms


def _generators(lam, p: int):
    """The relation generators that get rows, as (i, t): i = 1..len(lam)-1
    and t = 1, p, p^2, ... <= lam_{i+1}, in that order."""
    for i in range(1, len(lam)):
        t = 1
        while t <= lam[i]:
            yield i, t
            t *= p


def _split_standard(tab: Tableau, i: int, terms):
    """Split the images (coeff, S) of phi_tab(x_{i,t}), for a standard tab,
    into the standard ones and the rest: two lists in the order of terms.

    S moves some of row r's entries i+1 to i, which changes only that row's
    count of entries <= i, and only upward.  So S is standard exactly when
    every row r >= 2 holding an i+1 has no more entries <= i than row r-1
    has entries < i.  No move changes l_r, the entries < i of row r, so
    that says row r of S holds at most l_{r-1} - l_r entries i.  Rows below
    row i+1 of a standard tab hold no i+1.  The cost is one comparison per
    such row and image; no standardness check runs.
    """
    bounds = []
    for r in range(1, min(len(tab), i + 1)):
        if tab[r][i]:
            bounds.append((r, sum(tab[r - 1][: i - 1]) - sum(tab[r][: i - 1])))
    if not bounds:
        return terms, []
    standard, rest = [], []
    for term in terms:
        image = term[1]
        for r, bound in bounds:
            if image[r][i - 1] > bound:
                rest.append(term)
                break
        else:
            standard.append(term)
    return standard, rest


def _generator_rows(ctx, std, cols, i: int, t: int, p: int) -> list[dict[int, int]]:
    """The block of x_{i,t}: one row per standard tableau that some image
    phi_T(x_{i,t}), T = std[col] for col in cols, reaches, in order of that
    tableau, holding the straightened coordinates of the images.

    A standard image is its own straightening, so it goes into the block as
    it is; only the other images of T go to the context, in one call that
    tells it they are not standard.  The test (`_split_standard`) is exact,
    so the block is the one that straightening every image gives."""
    block: dict[Tableau, dict[int, int]] = {}
    for col in cols:
        tab = std[col]
        terms = phi_eval_terms(tab, i, t, p)
        if not terms:
            continue
        standard, rest = _split_standard(tab, i, terms)
        if rest:
            coords = ctx._straighten_images(rest)
            add_scaled(coords, 1, {s: v for v, s in standard}, p)
            standard = [(v, s) for s, v in coords.items()]
        for v, s in standard:
            block.setdefault(s, {})[col] = v
    return [block[s] for s in sorted(block)]


def relation_matrix(lam, mu, p: int) -> MatrixGFp:
    """Rows: the nonzero standard-basis coordinates of phi_T(x_{i,t}) for
    i = 1..len(lam)-1 and t = 1, p, p^2, ... <= lam_{i+1}, stacked in (i, t)
    order and, within a generator, in order of the target standard tableau;
    columns: T over Std_lambda(mu).  The kernel is the space of induced Hom
    maps; the other generators cut nothing out (see the module docstring)."""
    lam = partition(lam)
    mu = partition(mu)
    check_prime(p)
    std = enumerate_standard(mu, lam)
    ctx = get_context(mu, p)
    cols = range(len(std))
    rows = [row for i, t in _generators(lam, p) for row in _generator_rows(ctx, std, cols, i, t, p)]
    return MatrixGFp(len(rows), len(std), p, rows)


_hom_cache: dict[tuple, tuple[int, tuple[tuple[int, ...], ...]]] = {}


def _kernel(lam, mu, p: int, std) -> tuple[tuple[int, ...], ...]:
    """The reduced kernel basis of relation_matrix(lam, mu, p), from one
    block per generator on the columns still live (see the module docstring)."""
    ctx = get_context(mu, p)
    ech = Echelon(MatrixGFp(0, len(std), p))
    live = range(len(std))
    for i, t in _generators(lam, p):
        rows = _generator_rows(ctx, std, live, i, t, p)
        if rows:
            ech.absorb(rows)
            live = ech.support()
            if not live:
                return ()
    return tuple(map(tuple, ech.kernel_basis()))


def hom_dim(lam, mu, p: int) -> tuple[int, list[HomElement]]:
    """Dimension and deterministic basis of Hom(Delta(lam), Delta(mu)) over GF(p)."""
    lam = partition(lam)
    mu = partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"degree mismatch: {lam} vs {mu}")
    check_prime(p)
    return _hom(lam, mu, p)


def _hom(lam, mu, p: int) -> tuple[int, list[HomElement]]:
    """hom_dim on canonical partitions of one degree and a checked prime."""
    key = (lam, mu, p)
    cached = _hom_cache.get(key)
    if cached is None:
        std = enumerate_standard(mu, lam)
        kernel = _kernel(lam, mu, p, std) if std else ()
        cached = _hom_cache[key] = (len(kernel), kernel)
    dim, vectors = cached
    return dim, [HomElement(lam, mu, p, v) for v in vectors]


def _in_kernel_span(v, kernel, p: int) -> bool:
    """Whether v lies in the span of a reduced kernel basis (Echelon.kernel_basis).

    Each basis vector's last nonzero entry is a 1 in its own free column, where
    every other basis vector is 0; a kernel vector is fixed by its free
    coordinates, so v is in the kernel exactly when v == sum v[free(b)] * b.
    """
    acc: dict[int, int] = {}
    for b in kernel:
        free = max(j for j, c in enumerate(b) if c)
        if v[free]:
            add_scaled(acc, v[free], {j: x for j, x in enumerate(b) if x}, p)
    return acc == {j: x for j, x in enumerate(v) if x}


def _power_exceeds(p: int, d: int, bound: int) -> bool:
    """Whether p^d > bound, without computing p^d: the product stops growing
    once it passes the bound, after at most log2(bound) + 1 steps."""
    power = 1
    for _ in range(d):
        if power > bound:
            break
        power *= p
    return power > bound


class StabilizationReport(NamedTuple):
    """Outcome of one row-stabilization check.

    When both hypotheses hold the two dimensions must agree and the
    transported kernel basis must again be a kernel basis; for odd p a False
    `correspondence_verified` in that regime signals a library bug, not a
    mathematical possibility.  The theorem is proved for odd p only, and
    `hypotheses_hold` does not check parity: at p = 2 the check tests an
    unproved extension.
    """

    p: int
    k: int
    d: int
    lam: tuple[int, ...]
    mu: tuple[int, ...]
    lam_plus: tuple[int, ...]
    mu_plus: tuple[int, ...]
    hyp_power: bool  # p^d > min(lambda_2, mu_1 - lambda_1)
    hyp_overlap: bool  # mu_2 <= lambda_1
    dim: int
    dim_plus: int
    basis: tuple[HomElement, ...]
    basis_plus: tuple[HomElement, ...]
    transport_in_kernel: bool | None
    correspondence_verified: bool | None

    @property
    def hypotheses_hold(self) -> bool:
        return self.hyp_power and self.hyp_overlap

    @property
    def theorem_violated(self) -> bool:
        return self.hypotheses_hold and self.correspondence_verified is not True


def verify_stabilization(lam, mu, p: int, k: int, d: int) -> StabilizationReport:
    """Compute both Hom dimensions, record the hypotheses, and when they hold
    check that transport carries the kernel basis into the stabilized kernel.

    The stabilization theorem is proved for odd p; the recorded hypotheses
    leave out parity, so at p = 2 a verified correspondence is evidence for
    an unproved extension rather than an instance of the theorem.  Raises
    FirstRowTooLargeError, before any Hom space is computed, where
    `stabilize` refuses the stabilized first rows."""
    lam = partition(lam)
    mu = partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"degree mismatch: {lam} vs {mu}")
    lam_plus = stabilize(lam, k, d, p)  # checks p, k and d
    mu_plus = stabilize(mu, k, d, p)
    lam1 = lam[0] if lam else 0
    lam2 = lam[1] if len(lam) > 1 else 0
    mu1 = mu[0] if mu else 0
    mu2 = mu[1] if len(mu) > 1 else 0
    hyp_power = _power_exceeds(p, d, min(lam2, mu1 - lam1))
    hyp_overlap = mu2 <= lam1
    # the four shapes are canonical, of one degree per pair, and p is checked
    dim, basis = _hom(lam, mu, p)
    dim_plus, basis_plus = _hom(lam_plus, mu_plus, p)
    transport_in_kernel: bool | None = None
    if hyp_overlap:
        # T -> T^+ keeps the order of Std, so each h is its own transport
        kernel_plus = [h.coeffs for h in basis_plus]
        transport_in_kernel = all(_in_kernel_span(h.coeffs, kernel_plus, p) for h in basis)
    correspondence = None
    if hyp_power and hyp_overlap:
        correspondence = (dim == dim_plus) and bool(transport_in_kernel)
    return StabilizationReport(
        p=p,
        k=k,
        d=d,
        lam=lam,
        mu=mu,
        lam_plus=lam_plus,
        mu_plus=mu_plus,
        hyp_power=hyp_power,
        hyp_overlap=hyp_overlap,
        dim=dim,
        dim_plus=dim_plus,
        basis=tuple(basis),
        basis_plus=tuple(basis_plus),
        transport_in_kernel=transport_in_kernel,
        correspondence_verified=correspondence,
    )
