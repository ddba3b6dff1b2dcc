"""Straightening: Weyl module coordinates over the standard tableau basis.

A module element is a GF(p)-combination of classes [T] of tableaux of shape
mu; every class has a unique expansion over the standard tableaux of its
weight.  Straightening computes that expansion, and `straighten` returns it
as a new {standard tableau: coefficient} dict.  Three mechanisms cooperate:

* the two-row ones-elimination closed form, applied to rows 1 and 2 (valid
  inside any shape because a relation supported on two adjacent rows stays a
  relation when the other rows ride along unchanged);
* first-row peeling: once no 1 appears below row 1 and row 1 holds at least
  mu_2 ones, the expansion of the tableau is the expansion of its row-deleted
  part with the first row reattached, which recurses into a strictly smaller
  shape;
* an exact solve against the exterior realizations of the standard
  tableaux, for the residual small cases the closed forms do not reach.

The first two cover every computation in the stabilized regime (mu_2 <=
lambda_1), where first rows grow without bound; the solve only ever sees
weight spaces of the original, small degree.  It needs no elimination: the
realization of a standard tableau S has the column word of S as its lowest
exterior monomial, with coefficient 1 (the leading-term half of the standard
basis theorem, Akin-Buchsbaum-Weyman 1982), so the standard images form a
unitriangular basis and `gfp.reduce_lowest` solves against it term by term.
Each weight space checks every such unit lead on first use.  A solve whose
realizations would pass the WEYLHOM_EXPANSION_LIMIT budget raises
ExpansionLimitError, naming the tableau, instead of truncating.

Realizations are kept on the representatives of their column symmetry
(`polyalg.dprime`): every realization is unchanged by swapping two columns
of equal height, and restricting such vectors to the monomials whose
columns are non-decreasing within each block of equal height is injective.
A column word of a standard tableau is such a monomial, since its columns
increase entrywise left to right, so it is still the unit lowest term; a
reduction that ends at zero on the representatives ends at zero on the
full vectors, and the unit-lead check means what it meant before.

A context's caches hold only the tableaux that reached it.  The relation
blocks (`homspace._generator_rows`) hand it only the images that are not
standard, so the standard images, most of them, are never cached here; and
it takes that verdict as given, so such an image pays for no second
standardness test.  Every other tableau is tested on its first miss.
"""

from __future__ import annotations

from . import config
from .gfp import InconsistentSystemError, add_scaled, binom_mod, check_prime, reduce_lowest
from .polyalg import ExpansionLimitError, bounded_compositions, dprime
from .shapes import integer, partition
from .tableaux import Tableau, enumerate_standard


class WeylContext:
    """Straightening engine for one (shape, p), with memoized expansions;
    `get_context` checks p and builds each one once.

    On a miss, `straighten_tableau` checks the shape and keeps a standard
    tableau as it is; `_compute` expands the others.  The relation images
    that `homspace._split_standard` found not standard come in through
    `_straighten_images`, which sends its misses to `_compute` unchecked."""

    def __init__(self, mu, p: int):
        self.mu = partition(mu)
        self.p = p
        self.fallback_solves = 0
        # the context of mu[1:] that _peel straightens in, once first needed
        self._sub: WeylContext | None = None
        self._expansions: dict[Tableau, dict[Tableau, int]] = {}
        # weight -> {lead: (standard tableau, its exterior realization)}
        self._bases: dict[tuple[int, ...], dict] = {}

    # -- public ---------------------------------------------------------

    def straighten_tableau(self, tab: Tableau) -> dict[Tableau, int]:
        """Expansion of [tab] over the standard tableaux of its weight."""
        cached = self._expansions.get(tab)
        if cached is None:
            # a cached tableau passed this check, or came from a relation
            # image of shape mu, when it was computed
            if tab.shape != self.mu:
                raise ValueError(f"tableau of shape {tab.shape} in context {self.mu}")
            cached = self._expansions[tab] = {tab: 1} if tab.is_standard() else self._compute(tab)
        return cached

    def straighten_terms(self, terms) -> dict[Tableau, int]:
        """Expansion of a combination sum(coeff * [tab]) given as (coeff, tab) pairs."""
        p = self.p
        expansions = self._expansions
        acc: dict[Tableau, int] = {}
        for coeff, tab in terms:
            coeff %= p
            if not coeff:
                continue
            expansion = expansions.get(tab)
            if expansion is None:
                expansion = self.straighten_tableau(tab)
            add_scaled(acc, coeff, expansion, p)
        return acc

    def _straighten_images(self, terms) -> dict[Tableau, int]:
        """straighten_terms for the relation images that
        `homspace._split_standard` found not standard, with nonzero
        coefficients.  straighten_terms reads them through a generator that
        first expands each one not yet cached by `_compute`, with no shape
        or standardness check, so the straightening still runs inside that
        one straighten_terms call and finds each image cached."""
        expansions = self._expansions

        def expanded():
            for term in terms:
                tab = term[1]
                if tab not in expansions:
                    expansions[tab] = self._compute(tab)
                yield term

        return self.straighten_terms(expanded())

    # -- straightening cases ---------------------------------------------

    def _compute(self, tab: Tableau) -> dict[Tableau, int]:
        """Expansion of a tableau of shape mu that is not standard."""
        if len(tab) >= 2 and tab[1][0] > 0:
            expanded = self._ones_step(tab)
            return self.straighten_terms(expanded)
        ones_below = any(row[0] for row in tab[1:])
        mu2 = self.mu[1] if len(self.mu) > 1 else 0
        if not ones_below and tab[0][0] >= mu2:
            return self._peel(tab)
        return self._solve(tab)

    def _ones_step(self, tab: Tableau) -> list[tuple[int, Tableau]]:
        """Move every 1 out of row 2, trading them against larger row-1 entries.

        Closed form of the two-row straightening: with a_s, b_s the row-1 and
        row-2 multiplicities, either a_1 + b_1 exceeds mu_1 and the class is
        zero, or
        [T] = (-1)^{b_1} sum over i_s >= 0, sum i_s = b_1, i_s <= a_s of
              prod_s C(b_s + i_s, b_s) [T'],
        where T' has rows 1, 2 replaced by 1^(a_1+b_1) s^(a_s - i_s) and
        s^(b_s + i_s).  Rows below ride along unchanged.

        Only the slots s with a_s > 0 can take an i_s > 0, so the (i_s) run
        over those slots alone, in ascending lexicographic order, and each
        term writes only them into copies of rows 1 and 2.
        """
        p = self.p
        a, b = tab[0], tab[1]
        b1 = b[0]
        if a[0] + b1 > self.mu[0]:
            return []
        sign = (-1) ** b1 % p
        slots = [s for s in range(1, tab.width) if a[s]]
        rest = tab[2:]
        terms = []
        for comp in bounded_compositions(b1, [a[s] for s in slots]):
            coeff = sign
            new_a = list(a)
            new_b = list(b)
            new_a[0] += b1
            new_b[0] = 0
            for s, i_s in zip(slots, comp):
                if i_s:
                    b_s = b[s]
                    # C(b_s + 1, b_s) = b_s + 1
                    coeff = coeff * (b_s + 1 if i_s == 1 else binom_mod(b_s + i_s, i_s, p)) % p
                    if not coeff:
                        break
                    new_a[s] -= i_s
                    new_b[s] = b_s + i_s
            else:
                # row sums and column totals are unchanged, so the counts stay canonical
                terms.append((coeff, Tableau._of((tuple(new_a), tuple(new_b)) + rest)))
        return terms

    def _peel(self, tab: Tableau) -> dict[Tableau, int]:
        """Straighten rows 2.. in the first-row-deleted shape and reattach row 1.

        Sound whenever no 1 lives below row 1 and row 1 carries at least mu_2
        ones: every reattachment is then automatically standard.  Reattaching
        is injective, so the coefficients carry over unchanged.

        Both tableaux are built from counts already in canonical form.  The
        rows below row 1 hold no 1, so dropping their first column and
        trimming the all-zero columns at the end leaves tab's nonempty rows
        of partition shape mu[1:].  A straightened tableau has the weight of
        bar, hence its width; padding it back to tab's width under row 1
        restores tab's weight, whose last entry is nonzero.
        """
        sub = self._sub
        if sub is None:
            sub = self._sub = get_context(self.mu[1:], self.p)
        rows = tab[1:]
        width = tab.width - 1
        while not any(row[width] for row in rows):
            width -= 1
        bar = Tableau._of(tuple(row[1 : width + 1] for row in rows))
        row1 = (tab[0],)
        pad = (0,) * (tab.width - 1 - width)
        return {
            Tableau._of(row1 + tuple((0,) + r + pad for r in sbar)): c
            for sbar, c in sub.straighten_tableau(bar).items()
        }

    def _solve(self, tab: Tableau) -> dict[Tableau, int]:
        """Express the exterior realization of tab over the standard images."""
        self.fallback_solves += 1
        try:
            basis = self._standard_basis(tab.weight)
            image = dprime(tab, self.p, config.expansion_limit())
        except ExpansionLimitError as exc:
            raise ExpansionLimitError(
                f"straightening {tab.render()} in shape {self.mu} needs an exterior "
                f"expansion beyond the budget: {exc}"
            ) from exc
        # an empty weight space has no leads, so any nonzero image fails here
        try:
            return reduce_lowest(image, basis, self.p)
        except InconsistentSystemError:
            raise InconsistentSystemError(
                f"class {tab.render()} leaves the span of standard images"
            ) from None

    def _standard_basis(self, alpha) -> dict:
        """The standard images of weight alpha keyed by their unit leads, with
        the exterior monomials interned across the weight space.  Each lead
        must be the column word of its own tableau, so no two coincide and
        the images are independent."""
        basis = self._bases.get(alpha)
        if basis is None:
            keys: dict = {}
            basis = {}
            for std in enumerate_standard(self.mu, alpha):
                image = dprime(std, self.p, config.expansion_limit())
                image = {keys.setdefault(k, k): v for k, v in image.items()}
                lead = min(image, default=None)
                if lead != column_word(std) or image[lead] != 1:
                    raise InconsistentSystemError(
                        f"the standard image of {std.render()} in shape {self.mu} "
                        f"lacks its unit lowest term"
                    )
                basis[lead] = (std, image)
            self._bases[alpha] = basis
        return basis


_contexts: dict[tuple[tuple[int, ...], int], WeylContext] = {}


def get_context(mu, p: int) -> WeylContext:
    key = (partition(mu), check_prime(p))  # 3.0 must not find the context of 3
    ctx = _contexts.get(key)
    if ctx is None:
        ctx = _contexts[key] = WeylContext(*key)
    return ctx


def straighten(mu, tab: Tableau, coeff: int, p: int) -> dict[Tableau, int]:
    """Standard-basis coordinates of coeff * [tab] in Delta(mu), as a new dict;
    ValueError on a coefficient that is not an integer."""
    return get_context(mu, p).straighten_terms([(integer(coeff, "coefficient"), tab)])


def column_word(tab: Tableau) -> tuple[tuple[int, ...], ...]:
    """The columns of tab, top to bottom, as an exterior monomial."""
    rows = [[e for e, c in enumerate(row, start=1) for _ in range(c)] for row in tab]
    return tuple(
        tuple(row[j] for row in rows if len(row) > j) for j in range(len(rows[0]) if rows else 0)
    )
