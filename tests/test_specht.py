import pytest

import weylhom
import weylhom.specht as specht
from conftest import (
    _reference_polytabloid,
    _sorted_row_tabloids,
    reference_specht_gens,
    reference_specht_hom_dim,
    transpose,
)
from weylhom.gfp import add_scaled
from weylhom.homspace import hom_dim
from weylhom.shapes import all_partitions, partition
from weylhom.specht import (
    DegreeBoundError,
    SpechtRep,
    oracle_compare,
    specht_hom_dim,
    specht_rep,
    standard_young_tableaux,
)


def _mat_mul(a, b, p):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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


def test_syt_counts_match_hook_lengths():
    for r in range(0, 8):
        for lam in all_partitions(r):
            assert len(standard_young_tableaux(lam)) == hook_length_count(lam), lam


def test_trivial_and_sign_modules():
    rep = specht_rep((4,), 3)
    assert rep.dim == 1 and all(g == ((1,),) for g in rep.gens)
    rep = specht_rep((1, 1, 1, 1), 3)
    assert rep.dim == 1 and all(g == ((2,),) for g in rep.gens)


def test_a_row_of_1200_is_built_with_no_recursion():
    # the standard tableaux are extended one entry at a time, with no frame
    # per entry; the one tableau of (1200,) gives 1,199 generators, each 1
    rep = specht_rep((1200,), 3)
    assert rep.dim == 1 and len(rep.gens) == 1199
    assert all(g == ((1,),) for g in rep.gens)


def test_two_one_over_gf3():
    rep = specht_rep((2, 1), 3)
    assert rep.dim == 2


def test_specht_rep_canonicalizes_its_shape_before_the_cache():
    # a list is no hashable key, and a trailing zero spells the same shape:
    # all three spellings share one cache entry
    rep = specht_rep([2, 1], 3)
    assert rep.lam == (2, 1)
    assert specht_rep((2, 1, 0), 3) is rep is specht_rep((2, 1), 3)
    info = specht_rep.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    weylhom.clear_caches()
    assert specht_rep.cache_info().currsize == 0


@pytest.mark.parametrize("p", [3, 5])
def test_coxeter_relations_exact(p):
    for r in range(2, 7):
        for lam in all_partitions(r):
            rep = specht_rep(lam, p)
            ident = _identity(rep.dim)
            gens = rep.gens
            for g in gens:
                assert _mat_mul(g, g, p) == ident, lam
            for i in range(len(gens) - 1):
                ab = _mat_mul(gens[i], gens[i + 1], p)
                ba = _mat_mul(gens[i + 1], gens[i], p)
                assert _mat_mul(ab, gens[i], p) == _mat_mul(ba, gens[i + 1], p), lam
            for i in range(len(gens)):
                for j in range(i + 2, len(gens)):
                    assert _mat_mul(gens[i], gens[j], p) == _mat_mul(
                        gens[j], gens[i], p
                    ), lam


@pytest.mark.parametrize("p", [3, 5])
def test_young_rule_matches_bruteforce_reference(p):
    # every shape of degree <= 6: the generators equal the construction that
    # rebuilds and solves every s_i e_t, and the two closed-form cases of
    # Young's rule give exactly the columns they claim
    seen = {"same column": 0, "apart": 0, "same row": 0}
    for r in range(0, 7):
        for lam in all_partitions(r):
            rep = specht_rep(lam, p)
            assert rep.gens == reference_specht_gens(lam, p), lam
            syts = standard_young_tableaux(lam)
            index = {t: c for c, t in enumerate(syts)}
            for i, g in enumerate(rep.gens, start=1):
                swap = {i: i + 1, i + 1: i}
                for c, t in enumerate(syts):
                    pos = {v: (a, b) for a, row in enumerate(t) for b, v in enumerate(row)}
                    (row_i, col_i), (row_j, col_j) = pos[i], pos[i + 1]
                    column = [g[k][c] for k in range(rep.dim)]
                    if col_i == col_j:
                        case, target, value = "same column", c, p - 1
                    elif row_i != row_j:
                        moved = tuple(tuple(swap.get(v, v) for v in row) for row in t)
                        case, target, value = "apart", index[moved], 1
                    else:
                        seen["same row"] += 1
                        continue
                    seen[case] += 1
                    assert column == [value if k == target else 0 for k in range(rep.dim)], (
                        lam, i, t
                    )
    assert min(seen.values()) > 0, seen


def test_young_rule_shortcut_is_checked(monkeypatch):
    # shape (2, 1): tabloids in row-word order are {1,2}/{3}, {1,3}/{2},
    # {2,3}/{1}, with codes 1, 2, 4 in base 2, and e_t for t = ((1, 2), (3,))
    # is the first minus the last.  Adding 1 at the last tabloid, above t's
    # own, keeps the unit lead and leaves the same-row solve for s_1
    # consistent, but s_2 e_t is then no longer e_{s_2 t}, so the closed-form
    # column must be caught
    real = specht._polytabloid
    top = specht._code(specht._row_word(((2, 3), (1,))), 2)

    def perturbed(tableau, p, b, signed):
        vec = real(tableau, p, b, signed)
        if tableau == ((1, 2), (3,)):
            add_scaled(vec, 1, {top: 1}, p)
        return vec

    monkeypatch.setattr(specht, "_polytabloid", perturbed)
    with pytest.raises(ArithmeticError, match="Young's rule fails for s_2"):
        specht_rep((2, 1), 3)


def _tabloid_codes(lam):
    """Each row-set tabloid of lam (`_sorted_row_tabloids`) with its code."""
    b = max(2, len(lam))
    return {t: specht._code(specht._row_word(t), b) for t in _sorted_row_tabloids(lam)}


def test_tabloid_codes_follow_row_word_order():
    # brute force over every shape of degree <= 7, one-row shapes (base 2)
    # included: sorted by row word, the codes strictly increase
    for r in range(0, 8):
        for lam in all_partitions(r):
            codes = _tabloid_codes(lam)
            ordered = [codes[t] for t in sorted(codes, key=specht._row_word)]
            assert all(x < y for x, y in zip(ordered, ordered[1:])), lam


def test_standard_polytabloids_have_unit_lowest_terms():
    # the tabloid of t is the lowest tabloid of e_t in row-word order, with
    # coefficient 1: every standard polytabloid of degree 1..7
    checked = 0
    for r in range(1, 8):
        for lam in all_partitions(r):
            b = max(2, len(lam))
            signed = {}
            for t in standard_young_tableaux(lam):
                vec = specht._polytabloid(t, 3, b, signed)
                lead = specht._code(specht._row_word(t), b)
                assert min(vec) == lead and vec[lead] == 1, t
                checked += 1
    assert checked == 351


@pytest.mark.parametrize("p", [3, 5])
def test_polytabloid_matches_reference(p):
    # every standard tableau of degree <= 6: e_t over tabloid codes, read
    # back as row-set tabloids, is the brute-force column-stabilizer sum
    for r in range(0, 7):
        for lam in all_partitions(r):
            codes = _tabloid_codes(lam)
            index = {t: k for k, t in enumerate(codes)}
            by_code = {x: index[t] for t, x in codes.items()}
            signed = {}
            for t in standard_young_tableaux(lam):
                vec = specht._polytabloid(t, p, max(2, len(lam)), signed)
                translated = {by_code[x]: v for x, v in vec.items()}
                assert translated == _reference_polytabloid(t, p, index), t


@pytest.mark.parametrize("scale", [0, 2])
def test_broken_polytabloid_lead_is_caught(monkeypatch, scale):
    # a standard polytabloid whose lowest term is lost (scale 0) or is no
    # longer a unit (scale 2) must stop the build before any column is read
    real = specht._polytabloid

    def broken(tableau, p, b, signed):
        vec = real(tableau, p, b, signed)
        if tableau == ((1, 3), (2,)):
            lead = min(vec)
            vec = dict(vec)
            vec[lead] = vec[lead] * scale % p
            vec = {k: v for k, v in vec.items() if v}
        return vec

    monkeypatch.setattr(specht, "_polytabloid", broken)
    with pytest.raises(ArithmeticError, match="unit lowest term"):
        specht_rep((2, 1), 3)


def test_identity_intertwiner_always_present():
    for r in range(1, 6):
        for lam in all_partitions(r):
            assert specht_hom_dim(lam, lam, 3) >= 1


def test_semisimple_regime_schur_lemma():
    # p = 5 > r = 4: pairwise non-isomorphic irreducibles
    shapes = all_partitions(4)
    for nu in shapes:
        for nu2 in shapes:
            expected = 1 if nu == nu2 else 0
            assert specht_hom_dim(nu, nu2, 5) == expected, (nu, nu2)


def test_adjacent_transpositions_suffice_cross_check():
    # the (2,1)/(3) value forced on the Weyl side by C(3,1) = 0 mod 3
    assert specht_hom_dim((2, 1), (3,), 3) == 1
    assert hom_dim((2, 1), (3,), 3)[0] == 1


def test_orientation_is_pinned_by_asymmetric_cases():
    # the dictionary reads maps S^mu -> S^lambda; the swapped orientation
    # fails on these, so agreement is not vacuous
    assert specht_hom_dim((2, 1), (3,), 3) == 1 and specht_hom_dim((3,), (2, 1), 3) == 0
    assert hom_dim((2, 1), (3,), 3)[0] == 1 and hom_dim((3,), (2, 1), 3)[0] == 0
    assert specht_hom_dim((1, 1, 1, 1), (2, 2), 3) == 1
    assert specht_hom_dim((2, 2), (1, 1, 1, 1), 3) == 0


def test_orientation_on_low_degree_hook_pairs():
    # the degree-4 and degree-7 hook pairs, on the oracle side
    assert specht_hom_dim((1, 1, 1, 1), (2, 2), 3) == 1
    assert specht_hom_dim((4, 1, 1, 1), (5, 2), 3) == 0
    assert oracle_compare((4, 1, 1, 1), (5, 2), 3)


def test_oracle_reaches_one_row_pairs_past_default_bound(monkeypatch):
    # with mu a single row both Specht modules stay small even at degree 14,
    # so the two one-row-target hook pairs are reachable with a raised
    # bound: dims 1 (degree 11) and 0 (degree 14)
    monkeypatch.setenv("WEYLHOM_SPECHT_BOUND", "11")
    assert specht_hom_dim((8, 3), (11,), 3) == 1
    assert oracle_compare((8, 3), (11,), 3)
    monkeypatch.setenv("WEYLHOM_SPECHT_BOUND", "14")
    assert specht_hom_dim((11, 3), (14,), 3) == 0
    assert oracle_compare((11, 3), (14,), 3)


def test_oracle_compare_exhaustive_small():
    for p in (3, 5, 7):
        for r in range(0, 6):
            shapes = all_partitions(r)
            for lam in shapes:
                for mu in shapes:
                    assert oracle_compare(lam, mu, p), (lam, mu, p)


def test_p_two_rejected_and_degree_bound(monkeypatch):
    # the dictionary is asserted for odd p only; the Hom solve itself runs at p = 2
    with pytest.raises(ValueError, match="p > 2"):
        oracle_compare((2, 1), (3,), 2)
    with pytest.raises(DegreeBoundError):
        specht_hom_dim((8,), (8,), 3)
    monkeypatch.setenv("WEYLHOM_SPECHT_BOUND", "8")
    with pytest.raises(DegreeBoundError):
        specht_hom_dim((9,), (9,), 3)
    # the environment bound overrides the default
    assert specht_hom_dim((8,), (8,), 3) == 1
    # the module itself is built at any degree; the bound guards the Hom solve
    assert specht_rep((8,), 3).dim == 1


def test_lowered_bound_applies_to_cached_modules(monkeypatch):
    monkeypatch.setenv("WEYLHOM_SPECHT_BOUND", "8")
    assert specht_hom_dim((8,), (8,), 3) == 1
    # the degree-8 modules are cached now; the bound is still checked
    monkeypatch.setenv("WEYLHOM_SPECHT_BOUND", "7")
    with pytest.raises(DegreeBoundError):
        specht_hom_dim((8,), (8,), 3)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        specht_hom_dim((2, 1), (2,), 3)


def test_hom_dims_at_p_two():
    # maps S^(1,1) -> S^(2) exist at p = 2 (the sign and trivial modules
    # coincide), and none S^(3,1) -> S^(4): the degree-2 witness that
    # Specht-side Hom spaces need not stabilize at p = 2
    assert specht_hom_dim((2,), (1, 1), 2) == 1
    assert specht_hom_dim((4,), (3, 1), 2) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hom_dim_matches_full_intertwiner_system(p):
    # the cyclic-generator solve against all fa * fb entries of X, on every
    # pair of degree <= 6
    for r in range(0, 7):
        shapes = all_partitions(r)
        for nu in shapes:
            for nu_prime in shapes:
                expected = reference_specht_hom_dim(nu, nu_prime, p)
                assert specht_hom_dim(nu, nu_prime, p) == expected, (nu, nu_prime, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_orientation_choice_keeps_the_dimension(p, monkeypatch):
    # every ordered pair of degree <= 6: the dimension in the orientation
    # specht_hom_dim picks equals the one solved in the given orientation
    # (James, LNM 682, Thm 8.15); p = 2 lies outside the SPECHT_HOM digest
    pairs = [(nu, nu2) for r in range(0, 7) for nu in all_partitions(r) for nu2 in all_partitions(r)]
    assert len(pairs) == 210
    chosen = [specht_hom_dim(nu, nu2, p) for nu, nu2 in pairs]
    flipped = sum(specht._oriented(nu, nu2) != (nu, nu2) for nu, nu2 in pairs)
    monkeypatch.setattr(specht, "_oriented", lambda nu, nu2: (nu, nu2))
    assert chosen == [specht_hom_dim(nu, nu2, p) for nu, nu2 in pairs]
    assert flipped > 0


def test_orientation_choice_takes_the_smaller_polytabloids():
    assert specht._polytabloid_size((1,) * 7) == 5040
    assert specht._polytabloid_size((4, 2, 1)) == 12
    # 5,040 + 720 terms against 1 + 2: transposed
    assert specht._oriented((1,) * 7, (2, 1, 1, 1, 1, 1)) == ((6, 1), (7,))
    # 24 + 12 against 24 + 48: kept
    assert specht._oriented((4, 1, 1, 1), (4, 2, 1)) == ((4, 1, 1, 1), (4, 2, 1))
    # a tie keeps the given pair
    assert specht._oriented((2, 1), (2, 1)) == ((2, 1), (2, 1))


def test_spanning_tree_reaches_every_standard_tableau():
    # every shape of degree <= 8 (at p = 2, where same-column moves are
    # diagonal units and must not be taken): the tree reaches every
    # standard tableau, and each edge is the move t -> s_{i+1} t of Young's rule
    for r in range(0, 9):
        for lam in all_partitions(r):
            rep = specht_rep(lam, 2)
            syts = standard_young_tableaux(lam)
            order, edge = specht._spanning_tree(lam, specht._sparse_columns(rep))
            assert sorted(order) == list(range(rep.dim)) and order[0] == 0, lam
            for c, e in edge.items():
                if e is None:
                    assert c == 0
                    continue
                i, b = e
                swap = {i + 1: i + 2, i + 2: i + 1}
                moved = tuple(tuple(swap.get(v, v) for v in row) for row in syts[b])
                assert moved == syts[c], (lam, i, syts[b])


def test_tree_without_moves_is_an_error(monkeypatch):
    # generators with no off-diagonal unit column leave only t0 reachable:
    # the solve must raise, never return a dimension
    real = specht.specht_rep

    def no_moves(lam, p):
        rep = real(lam, p)
        ident = tuple(tuple(int(j == k) for k in range(rep.dim)) for j in range(rep.dim))
        return SpechtRep(rep.lam, rep.p, rep.dim, tuple(ident for _ in rep.gens))

    monkeypatch.setattr(specht, "specht_rep", no_moves)
    with pytest.raises(ArithmeticError, match=r"reach 1 of the 2 standard tableaux of \(2, 1\)"):
        specht_hom_dim((2, 1), (2, 1), 3)
    # a one-tableau source needs no move
    assert specht_hom_dim((3,), (3,), 3) == 1
