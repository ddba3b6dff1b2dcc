import random
from collections import Counter

import pytest

from conftest import (
    assert_canonical,
    compositions_of,
    generator_tensor,
    generator_weight,
    is_class_a,
    orbit_expansion,
    reference_dprime,
    reference_ones_step,
    reference_relation_matrix,
    reference_straighten,
    relation_generators,
    standard_image_matrix,
    tableau_monomials,
)
import weylhom.weyl as weyl
from weylhom.gfp import Echelon, InconsistentSystemError
from weylhom.homspace import relation_matrix
from weylhom.polyalg import ExpansionLimitError, dprime, mono
from weylhom.shapes import all_partitions, composition
from weylhom.tableaux import Tableau, enumerate_standard, from_row_entries
from weylhom.weyl import WeylContext, column_word, get_context, straighten


def test_relation_generators_two_rows():
    gens = relation_generators((8, 3))
    assert [(g.i, g.t) for g in gens] == [(1, 1), (1, 2), (1, 3)]
    assert generator_tensor(gens[0]) == (mono({1: 8}), mono({1: 1, 2: 2}))
    assert generator_tensor(gens[1]) == (mono({1: 8}), mono({1: 2, 2: 1}))
    assert generator_tensor(gens[2]) == (mono({1: 8}), mono({1: 3}))
    assert generator_weight(gens[0]) == (9, 2)
    assert generator_weight(gens[2]) == (11,)


def test_relation_generators_trivial_and_column():
    assert relation_generators((7,)) == []
    gens = relation_generators((1, 1, 1, 1))
    assert [(g.i, g.t) for g in gens] == [(1, 1), (2, 1), (3, 1)]
    assert generator_tensor(gens[1]) == (
        mono({1: 1}),
        mono({2: 1}),
        mono({2: 1}),
        mono({4: 1}),
    )
    assert generator_weight(gens[1]) == (1, 2, 0, 1)


def test_relation_generator_weight_is_its_tensor_weight():
    # the closed-form weight against the entry totals of the tensor itself
    for r in range(0, 9):
        for lam in all_partitions(r):
            for gen in relation_generators(lam):
                totals = Counter()
                for factor in generator_tensor(gen):
                    for e, c in factor:
                        totals[e] += c
                width = max(totals)
                assert generator_weight(gen) == tuple(
                    totals[e] for e in range(1, width + 1)
                ), gen


def test_two_row_examples():
    # [12/12] = -2 [11/22]
    res = straighten((2, 2), from_row_entries([[1, 2], [1, 2]]), 1, 5)
    assert {t.render(): c for t, c in res.items()} == {"1^(2) | 2^(2)": 3}
    # overloaded first column vanishes: 1-counts 2 + 2 > mu_1 = 3
    assert straighten((3, 2), from_row_entries([[1, 1, 2], [1, 1]]), 1, 5) == {}
    # standard input is already a unit vector
    t = from_row_entries([[1, 1, 2], [2, 3]])
    assert straighten((3, 2), t, 1, 5) == {t: 1}


def test_straighten_single_row_sorts():
    t = from_row_entries([[3, 1, 2, 1]])
    assert straighten((4,), t, 1, 7) == {t: 1} and t.is_standard()


def test_straighten_hand_checked_case():
    # [133/23] = -[123/33]: the shifted-alphabet shortcut would give -2, the
    # honest expansion gives -1
    t = from_row_entries([[1, 3, 3], [2, 3]])
    res = straighten((3, 2), t, 1, 3)
    assert {s.render(): c for s, c in res.items()} == {"123 | 3^(2)": 2}
    res7 = straighten((3, 2), t, 1, 7)
    assert {s.render(): c for s, c in res7.items()} == {"123 | 3^(2)": 6}


def _all_tableaux(mu, alphabet):
    rows_choices = [compositions_of(length, alphabet) for length in mu]
    out = []

    def rec(i, rows):
        if i == len(mu):
            out.append(Tableau(tuple(rows)))
            return
        for row in rows_choices[i]:
            rows.append(row)
            rec(i + 1, rows)
            rows.pop()

    rec(0, [])
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_two_row_matches_reference_exhaustive_small(p):
    # every two-row tableau of degree 2..6 on at most 4 letters
    for r in range(2, 7):
        for mu2 in range(1, r // 2 + 1):
            mu = (r - mu2, mu2)
            for tab in _all_tableaux(mu, min(r, 4)):
                got = straighten(mu, tab, 1, p)
                want = reference_straighten(mu, tab, p)
                assert got == want, (mu, tab.render())


@pytest.mark.parametrize("p", [3, 5])
def test_multirow_straighten_matches_reference(p):
    rng = random.Random(p)
    shapes = [(2, 1, 1), (2, 2, 1), (3, 2, 1), (2, 2, 2), (3, 2, 2)]
    for mu in shapes:
        pool = _all_tableaux(mu, min(sum(mu), 4))
        rng.shuffle(pool)
        for tab in pool[:120]:
            got = straighten(mu, tab, 1, p)
            want = reference_straighten(mu, tab, p)
            assert got == want, (mu, tab.render())


def test_straighten_is_linear_in_coefficient():
    tab = from_row_entries([[1, 3, 3], [2, 3]])
    single = straighten((3, 2), tab, 1, 5)
    scaled = straighten((3, 2), tab, 3, 5)
    assert scaled == {t: (3 * c) % 5 for t, c in single.items()}


def test_standard_image_matrix_examples():
    m = standard_image_matrix((2, 2), (1, 1, 1, 1), 3)
    assert m.ncols == 2 and Echelon(m).rank == 2
    m = standard_image_matrix((4,), (2, 2), 5)
    assert m.ncols == 1 and Echelon(m).rank == 1
    m = standard_image_matrix((2, 1), (1, 1, 1), 3)
    assert m.ncols == 2 and Echelon(m).rank == 2
    # dominance failure gives the empty-column matrix
    m = standard_image_matrix((1, 1), (2,), 3)
    assert m.ncols == 0


def test_standard_image_full_rank_sweep():
    for r in range(1, 7):
        shapes = all_partitions(r)
        for mu in shapes:
            for alpha in shapes:
                m = standard_image_matrix(mu, alpha, 3)
                assert Echelon(m).rank == m.ncols, (mu, alpha)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_standard_images_have_unit_lowest_terms(p):
    # the lowest exterior monomial of dprime(S) is the column word of S,
    # with coefficient 1, for every standard S of degree <= 6 and every
    # weight of at most 6 parts; and dprime(S), expanded over the column
    # orders within each block, is the full dealing
    checked = 0
    for r in range(0, 7):
        weights = {composition(a) for a in compositions_of(r, r)}
        for mu in all_partitions(r):
            for alpha in sorted(weights):
                for std in enumerate_standard(mu, alpha):
                    image = dprime(std, p)
                    lead = column_word(std)
                    assert min(image) == lead and image[lead] == 1, (mu, std.render())
                    full = reference_dprime(mu, tableau_monomials(std), p)
                    assert orbit_expansion(mu, image) == full, (mu, std.render())
                    checked += 1
    assert checked == 6_444


def test_column_word_examples():
    assert column_word(from_row_entries([[1, 1, 2], [2, 3]])) == ((1, 2), (1, 3), (2,))
    assert column_word(from_row_entries([[1], [2], [3]])) == ((1, 2, 3),)
    assert column_word(Tableau(())) == ()


@pytest.mark.parametrize("p", [2, 3])
def test_lowest_term_solve_matches_reference(monkeypatch, p):
    # every tableau that reaches the exterior solve while the relation
    # matrices of all pairs of degree <= 6 are built, over every generator,
    # gets the expansion of the general-elimination reference
    solve = WeylContext._solve
    seen = 0

    def checked(self, tab):
        nonlocal seen
        got = solve(self, tab)
        assert got == reference_straighten(self.mu, tab, self.p), (self.mu, tab.render())
        seen += 1
        return got

    monkeypatch.setattr(WeylContext, "_solve", checked)
    for r in range(1, 7):
        shapes = all_partitions(r)
        for lam in shapes:
            for mu in shapes:
                if enumerate_standard(mu, lam):
                    reference_relation_matrix(lam, mu, p)
    assert seen


@pytest.mark.parametrize("scale", [0, 2])
def test_broken_standard_image_lead_is_caught(monkeypatch, scale):
    # a standard image whose lowest term is lost (scale 0) or is no longer a
    # unit (scale 2) must stop the weight space before anything is solved
    def broken(tab, p, limit=None):
        image = dprime(tab, p, limit)
        if tab.is_standard():
            lead = min(image)
            image = dict(image)
            image[lead] = image[lead] * scale % p
            image = {k: v for k, v in image.items() if v}
        return image

    monkeypatch.setattr(weyl, "dprime", broken)
    # a three-row shape below the class-A regime is forced onto the solve path
    tab = from_row_entries([[2, 3], [1, 3], [1, 2]])
    with pytest.raises(InconsistentSystemError, match="unit lowest term"):
        straighten((2, 2, 2), tab, 1, 3)


def test_class_outside_the_standard_span_is_caught():
    # an image with a lowest monomial that is no standard lead has no
    # expansion, and the reduction says so rather than truncating
    ctx = get_context((2, 2, 2), 3)
    tab = from_row_entries([[2, 3], [1, 3], [1, 2]])
    basis = ctx._standard_basis(tab.weight)
    ctx._bases[tab.weight] = {
        lead: entry for lead, entry in basis.items() if lead != min(basis)
    }
    with pytest.raises(InconsistentSystemError, match="leaves the span"):
        ctx._solve(tab)


def _random_class_a(rng, lam, mu, alphabet):
    """Random tableau of shape mu with 1s confined to a loaded first row."""
    lam1, lam2 = lam[0], (lam[1] if len(lam) > 1 else 0)
    t_cap = min(lam2, mu[0] - lam1)
    if t_cap < 0:
        return None
    t = rng.randrange(0, t_cap + 1)
    ones = lam1 + t
    rows = []
    first = [ones] + [0] * (alphabet - 1)
    for _ in range(mu[0] - ones):
        first[rng.randrange(1, alphabet)] += 1
    rows.append(tuple(first))
    for length in mu[1:]:
        row = [0] * alphabet
        for _ in range(length):
            row[rng.randrange(1, alphabet)] += 1
        rows.append(tuple(row))
    return Tableau(tuple(rows))


def test_class_a_coefficients_survive_stabilization():
    # the standard expansions of [U] and [U^+] carry identical coefficients
    # under T -> T^+, whenever mu_2 <= lambda_1
    rng = random.Random(42)
    cases = 0
    while cases < 200:
        r = rng.randrange(2, 8)
        shapes = [s for s in all_partitions(r) if s]
        lam = rng.choice(shapes)
        mus = [
            m
            for m in shapes
            if (m[1] if len(m) > 1 else 0) <= lam[0] and m[0] >= lam[0]
        ]
        if not mus:
            continue
        mu = rng.choice(mus)
        tab = _random_class_a(rng, lam, mu, alphabet=max(len(mu) + 1, 3))
        if tab is None or not is_class_a(tab, lam):
            continue
        p = rng.choice([3, 5])
        m = rng.choice([1, 2]) * p ** rng.choice([1, 2])
        expansion = get_context(mu, p).straighten_tableau(tab)
        mu_plus = (mu[0] + m,) + mu[1:]
        expansion_plus = get_context(mu_plus, p).straighten_tableau(tab.plus(m))
        assert expansion_plus == {t.plus(m): c for t, c in expansion.items()}, (
            lam,
            mu,
            tab.render(),
        )
        cases += 1


def test_class_a_combinations_vanish_together():
    # random combinations over the class vanish before stabilization iff after
    rng = random.Random(17)
    zeros = 0
    for _ in range(150):
        r = rng.randrange(2, 8)
        shapes = [s for s in all_partitions(r) if s]
        lam = rng.choice(shapes)
        mus = [
            m
            for m in shapes
            if (m[1] if len(m) > 1 else 0) <= lam[0] and m[0] >= lam[0]
        ]
        if not mus:
            continue
        mu = rng.choice(mus)
        p = rng.choice([3, 5])
        m = rng.choice([1, 2]) * p ** rng.choice([1, 2])
        tabs = []
        while len(tabs) < 3:
            t = _random_class_a(rng, lam, mu, alphabet=max(len(mu) + 1, 3))
            if t is not None:
                tabs.append(t)
        coeffs = [rng.randrange(p) for _ in tabs]
        ctx = get_context(mu, p)
        ctx_plus = get_context((mu[0] + m,) + mu[1:], p)
        combo = ctx.straighten_terms(zip(coeffs, tabs))
        combo_plus = ctx_plus.straighten_terms(
            zip(coeffs, (t.plus(m) for t in tabs))
        )
        assert (not combo) == (not combo_plus)
        if not combo:
            zeros += 1
    assert zeros > 0  # the vanishing branch must actually be exercised


def _random_mono_counts(rng, deg, alphabet):
    row = [0] * alphabet
    for _ in range(deg):
        row[rng.randrange(alphabet)] += 1
    return tuple(row)


@pytest.mark.parametrize("p", [3, 5])
def test_defining_relations_straighten_to_zero(p):
    """Independent soundness check against the presentation itself.

    A relation element on rows (i, i+1) is built from a monomial w of degree
    mu_i + t and a monomial z of degree mu_{i+1} - t: summing over the
    degree-(mu_i, t) splittings w -> w1 (x) w2 and multiplying w2 into z
    gives sum coeff * [rows with (w1, w2 z) at (i, i+1)] = 0 in the module.
    Straightening must therefore annihilate every such combination.
    """
    from weylhom.gfp import binom_mod
    from weylhom.polyalg import dp_comult, mono, mono_degree

    rng = random.Random(100 + p)
    shapes = [(3, 2), (4, 2), (3, 3), (2, 2, 1), (3, 2, 2), (2, 2, 2, 1)]
    for mu in shapes:
        ctx = get_context(mu, p)
        for _ in range(25):
            i = rng.randrange(0, len(mu) - 1)  # 0-based row pair (i, i+1)
            t = rng.randrange(1, mu[i + 1] + 1)
            alphabet = min(sum(mu), 4)
            w = mono(
                {e + 1: c for e, c in enumerate(_random_mono_counts(rng, mu[i] + t, alphabet))}
            )
            z_counts = _random_mono_counts(rng, mu[i + 1] - t, alphabet)
            spectators = [
                _random_mono_counts(rng, mu[r], alphabet)
                for r in range(len(mu))
            ]
            terms = []
            for w1, w2 in dp_comult(w, (mu[i], t)):
                coeff = 1
                merged = list(z_counts)
                for e, c in w2:
                    have = merged[e - 1]
                    coeff = coeff * binom_mod(have + c, c, p) % p
                    merged[e - 1] = have + c
                if not coeff:
                    continue
                rows = list(spectators)
                row_i = [0] * alphabet
                for e, c in w1:
                    row_i[e - 1] = c
                rows[i] = tuple(row_i)
                rows[i + 1] = tuple(merged)
                assert mono_degree(w1) == mu[i]
                terms.append((coeff, Tableau(tuple(rows))))
            assert ctx.straighten_terms(terms) == {}, (mu, i, t, w, z_counts)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ones_step_terms_are_canonical(monkeypatch, p):
    # the ones-step builds its terms without validation; check every term it
    # produces while straightening the relation images of degree <= 6 (of
    # every generator)
    ones_step = WeylContext._ones_step
    seen = 0

    def checked(self, tab):
        nonlocal seen
        terms = ones_step(self, tab)
        for _, term in terms:
            assert_canonical(term)
        seen += len(terms)
        return terms

    monkeypatch.setattr(WeylContext, "_ones_step", checked)
    for r in range(2, 7):
        shapes = all_partitions(r)
        for lam in shapes:
            for mu in shapes:
                if enumerate_standard(mu, lam):
                    reference_relation_matrix(lam, mu, p)
    assert seen


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ones_step_matches_the_whole_width_rebuild(monkeypatch, p):
    # the ones-step runs over row 1's nonzero slots only; its term lists must
    # be those of the whole-width rebuild, in order, on every tableau that
    # reaches it in the relation blocks of degree <= 7 and of the paper's
    # (28,5,2^9) -> (31,20) family at first rows 28 and 109
    ones_step = WeylContext._ones_step
    seen = 0

    def checked(self, tab):
        nonlocal seen
        terms = ones_step(self, tab)
        assert terms == reference_ones_step(self.mu, tab, self.p), (self.mu, tab.render())
        seen += 1
        return terms

    monkeypatch.setattr(WeylContext, "_ones_step", checked)
    for r in range(2, 8):
        shapes = all_partitions(r)
        for lam in shapes:
            for mu in shapes:
                if enumerate_standard(mu, lam):
                    relation_matrix(lam, mu, p)
    small = seen
    assert small
    if p != 2:
        for lam, mu in [((28, 5) + (2,) * 9, (31, 20)), ((109, 5) + (2,) * 9, (112, 20))]:
            relation_matrix(lam, mu, p)
        assert seen > small


@pytest.mark.parametrize("p", [2, 3])
def test_peel_tableaux_are_canonical(monkeypatch, p):
    # the peel builds the first-row-deleted tableau and every reattached one
    # without validation; check both on the peels of every relation matrix
    # of degree <= 6 (each bar is straightened in the context of mu[1:])
    peel = WeylContext._peel
    straighten_tableau = WeylContext.straighten_tableau
    peels = 0

    def checked_peel(self, tab):
        nonlocal peels
        expansion = peel(self, tab)
        for term in expansion:
            assert_canonical(term)
        peels += 1
        return expansion

    def checked_straighten(self, tab):
        assert_canonical(tab)
        return straighten_tableau(self, tab)

    monkeypatch.setattr(WeylContext, "_peel", checked_peel)
    monkeypatch.setattr(WeylContext, "straighten_tableau", checked_straighten)
    for r in range(2, 7):
        shapes = all_partitions(r)
        for lam in shapes:
            for mu in shapes:
                if enumerate_standard(mu, lam):
                    relation_matrix(lam, mu, p)
    assert peels


def test_stabilization_chain_on_dim_two_family():
    # the dim-2 family is stable along repeated first-row growth: a = 28 -> 46
    # directly (k = 2), consistent with the two verified single steps
    import weylhom as wh

    lam = (28, 5) + (2,) * 9
    mu = (31, 20)
    rep = wh.verify_stabilization(lam, mu, 3, 2, 2)
    assert rep.hypotheses_hold and rep.correspondence_verified
    assert rep.dim == rep.dim_plus == 2


def test_expansion_limit_reported(monkeypatch):
    monkeypatch.setenv("WEYLHOM_EXPANSION_LIMIT", "2")
    # a three-row shape below the class-A regime is forced onto the solve path
    tab = from_row_entries([[2, 3], [1, 3], [1, 2]])
    message = r"^straightening .* in shape \(2, 2, 2\) needs an exterior expansion beyond the budget: "
    with pytest.raises(ExpansionLimitError, match=message) as info:
        straighten((2, 2, 2), tab, 1, 3)
    # the budget error of the realization, chained
    assert isinstance(info.value.__cause__, ExpansionLimitError)


def test_solve_in_an_empty_weight_space_is_zero():
    # no standard tableau of weight (2,) or (4,): the row index is empty and the
    # realization vanishes (a repeat in every column), so the solve gives zero
    for mu, counts, p in [((1, 1), ((1,), (1,)), 3), ((2, 2), ((2,), (2,)), 2)]:
        ctx = get_context(mu, p)
        tab = Tableau(counts)
        assert not enumerate_standard(mu, tab.weight)
        assert ctx._solve(tab) == {}


def test_weylcoords_coeffs_are_over_the_enumeration():
    tab = from_row_entries([[1, 2], [1, 2]])
    res = straighten((2, 2), tab, 1, 3)
    assert set(res) <= set(enumerate_standard((2, 2), (2, 2)))
    assert all(0 < c < 3 for c in res.values())
    # each call returns a new dict: mutating one leaves the cache intact
    expected = dict(res)
    res.clear()
    assert straighten((2, 2), tab, 1, 3) == expected
