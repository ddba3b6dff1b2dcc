import math
import random

import pytest

from conftest import (
    assert_canonical,
    generator_tensor,
    generator_weight,
    is_power,
    mono,
    p_core,
    reference_generator_rows,
    reference_phi_terms,
    reference_relation_matrix,
    relation_generators,
    run_python,
    stream_kernel,
    transpose,
)
from weylhom.gfp import Echelon, binom_mod
from weylhom.homspace import (
    HomElement,
    _generator_rows,
    _generators,
    _power_exceeds,
    _split_standard,
    _stream_start,
    hom_dim,
    phi_eval_terms,
    relation_matrix,
    verify_stabilization,
)
from weylhom.shapes import all_partitions, stabilize
from weylhom.tableaux import Tableau, enumerate_standard, from_row_entries
from weylhom.weyl import get_context


def test_phi_eval_worked_two_row_example():
    # T = 1^(a)2^(2) / 2^(2)3^(2), x = x_{1,2} = 1^(a) (x) 1^(2)2^(2) (x) 3^(2);
    # the image is C(a+2,2) [1^(a+2)/2^(2)3^(2)] + C(a+1,1) [1^(a+1)2/123^(2)]
    # + [1^(a)2^(2)/1^(2)3^(2)], coefficients from divided-power multiplication
    for a in (2, 3, 4):
        for p in (3, 5, 7):
            T = Tableau(((a, 2, 0), (0, 2, 2)))
            x = (mono({1: a}), mono({1: 2, 2: 2}), mono({3: 2}))
            got = {tab: c for c, tab in phi_eval_terms(T, 1, 2, p)}
            assert got == {tab: c for c, tab in reference_phi_terms(T, x, p)}
            expected = {}
            c1 = math.comb(a + 2, 2) % p
            if c1:
                expected[Tableau(((a + 2, 0, 0), (0, 2, 2)))] = c1
            c2 = math.comb(a + 1, 1) % p
            if c2:
                expected[Tableau(((a + 1, 1, 0), (1, 1, 2)))] = c2
            expected[Tableau(((a, 2, 0), (2, 0, 2)))] = 1
            assert got == expected, (a, p)


def test_phi_eval_highest_weight_tensor_is_unit():
    # x_{i,0} is the highest-weight tensor 1^(lam_1) (x) ... (x) n^(lam_n)
    for r in range(1, 7):
        shapes = all_partitions(r)
        for lam in shapes:
            for mu in shapes:
                for T in enumerate_standard(mu, lam):
                    for i in range(1, len(lam)):
                        for p in (2, 3, 5):
                            assert phi_eval_terms(T, i, 0, p) == [(1, T)], (lam, mu, T.render())


def _closed_form_first_row_terms(T, t, p):
    """Rows-1,2 relation image straight from the closed formula:
    sum over j1+j2=t of C(lam_1+j1, j1) times T with j1 entries 2->1 moved in
    row 1 and j2 fresh 1s replacing 2s in row 2."""
    counts = T.counts
    lam1 = counts[0][0]
    a12 = counts[0][1] if T.width > 1 else 0
    has_row2 = len(counts) > 1
    a22 = counts[1][1] if has_row2 and T.width > 1 else 0
    out = []
    for j1 in range(0, t + 1):
        j2 = t - j1
        if j1 > a12 or j2 > a22:
            continue
        coeff = binom_mod(lam1 + j1, j1, p)
        if not coeff:
            continue
        pad = (0,) * max(0, 2 - T.width)
        rows = [(lam1 + j1, a12 - j1) + counts[0][2:] + pad]
        if has_row2:
            rows.append((j2, a22 - j2) + counts[1][2:] + pad)
        rows.extend(counts[2:])
        out.append((coeff, Tableau(tuple(rows))))
    return out


def _closed_form_deeper_row_terms(T, i, t, p):
    """Rows-i,i+1 relation image: distribute t entries i+1 -> i over rows
    1..i+1 with multiplicities j_s <= a_{s,i+1}, coefficient
    prod_{s<=i} C(a_{s,i} + j_s, j_s)."""
    counts = T.counts
    nrows = len(counts)
    width = T.width
    col = i  # 0-based index of entry i+1
    caps = [counts[s][col] if s < nrows and col < width else 0 for s in range(i + 1)]
    out = []

    def rec(s, left, js):
        if s == i + 1:
            if left == 0:
                coeff = 1
                for idx in range(i):
                    j_s = js[idx]
                    if j_s:
                        a_si = counts[idx][i - 1] if i - 1 < width else 0
                        coeff = coeff * binom_mod(a_si + j_s, j_s, p) % p
                if coeff:
                    rows = []
                    for idx in range(nrows):
                        row = list(counts[idx]) + [0] * (max(i, 1))
                        if idx <= i:
                            row[i - 1] += js[idx]
                            row[i] -= js[idx]
                        rows.append(tuple(row))
                    out.append((coeff, Tableau(tuple(rows))))
            return
        for j_s in range(0, min(caps[s], left) + 1):
            rec(s + 1, left - j_s, js + [j_s])

    rec(0, t, [])
    return out


def _aggregate(terms, p):
    acc = {}
    for c, tab in terms:
        v = (acc.get(tab, 0) + c) % p
        if v:
            acc[tab] = v
        else:
            acc.pop(tab, None)
    return acc


# the paper's (28,5,2^9) -> (31,20) family at its first and its largest
# benchmarked first rows
PAPER_PAIRS = [((28, 5) + (2,) * 9, (31, 20)), ((109, 5) + (2,) * 9, (112, 20))]


def _closed_form_terms(T, i, t, p):
    if i == 1:
        return _closed_form_first_row_terms(T, t, p)
    return _closed_form_deeper_row_terms(T, i, t, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_phi_eval_matches_closed_forms(p):
    # the production closed form against the generic tensor evaluation and
    # against the two test-side closed-form patterns, as ordered lists
    for r in range(2, 7):
        shapes = all_partitions(r)
        for lam in shapes:
            if len(lam) < 2:
                continue
            for mu in shapes:
                std = enumerate_standard(mu, lam)
                if not std:
                    continue
                for gen in relation_generators(lam):
                    for T in std:
                        terms = phi_eval_terms(T, gen.i, gen.t, p)
                        assert terms == reference_phi_terms(T, generator_tensor(gen), p), (
                            lam, mu, T.render(), gen.i, gen.t
                        )
                        # built without validation, so check each against it
                        for _, tab in terms:
                            assert_canonical(tab)
                        assert terms == _closed_form_terms(T, gen.i, gen.t, p), (
                            lam, mu, T.render(), gen.i, gen.t
                        )
    if p == 2:
        return
    # every generator x_{i,t} (t = 1 takes the unit moves) and column of the
    # paper pairs, where the tensor evaluation is out of reach
    unit = 0
    for lam, mu in PAPER_PAIRS:
        std = enumerate_standard(mu, lam)
        for gen in relation_generators(lam):
            for T in std:
                terms = phi_eval_terms(T, gen.i, gen.t, p)
                assert terms == _closed_form_terms(T, gen.i, gen.t, p), (
                    lam, mu, T.render(), gen.i, gen.t
                )
                for _, tab in terms:
                    assert_canonical(tab)
                unit += gen.t == 1 and len(terms) > 1
    assert unit


def test_phi_eval_trims_emptied_last_column():
    # x_{1,1} on 1^(2)2 moves the only 2, which leaves the last column empty
    terms = phi_eval_terms(from_row_entries([[1, 1, 2]]), 1, 1, 5)
    assert terms == [(3, Tableau(((3,),)))]
    assert terms[0][1].width == 1
    assert_canonical(terms[0][1])


def test_split_standard_agrees_with_is_standard():
    # every image of every standard T of degree <= 7 under every x_{i,t},
    # t = 0..lambda_{i+1} (so also the trimmed last column), is put on the
    # side that Tableau.is_standard names, in the order of the images
    seen = {True: 0, False: 0}
    for r in range(1, 8):
        shapes = all_partitions(r)
        for lam in shapes:
            for mu in shapes:
                for T in enumerate_standard(mu, lam):
                    for i in range(1, len(lam)):
                        for t in range(lam[i] + 1):
                            for p in (2, 3, 5):
                                terms = phi_eval_terms(T, i, t, p)
                                standard, rest = _split_standard(T, i, terms)
                                verdicts = [tab.is_standard() for _, tab in terms]
                                assert standard == [x for x, ok in zip(terms, verdicts) if ok]
                                assert rest == [x for x, ok in zip(terms, verdicts) if not ok]
                                seen[True] += len(standard)
                                seen[False] += len(rest)
    assert seen == {True: 17746, False: 3684}


def test_generator_rows_match_straightening_every_image():
    # standard images skip the context; the blocks must still be those of
    # straightening every image, row for row and entry for entry
    split = 0
    for r in range(1, 7):
        shapes = all_partitions(r)
        for p in (2, 3, 5):
            for lam in shapes:
                for mu in shapes:
                    std = enumerate_standard(mu, lam)
                    if not std:
                        continue
                    ctx = get_context(mu, p)
                    cols = range(len(std))
                    for i, t in _generators(lam, p, 1):
                        got = _generator_rows(ctx, std, cols, i, t, p)
                        want = reference_generator_rows(ctx, std, cols, i, t, p)
                        assert [list(row.items()) for row in got] == [
                            list(row.items()) for row in want
                        ], (lam, mu, p, i, t)
                        split += any(
                            _split_standard(std[c], i, phi_eval_terms(std[c], i, t, p))[1]
                            for c in cols
                        )
    # blocks that mix standard and straightened images
    assert split


def test_relation_matrix_examples():
    m = relation_matrix((4,), (4,), 3)
    assert (m.nrows, m.ncols) == (0, 1)
    # every image vanishes mod 3, so no target row is reached
    m = relation_matrix((8, 3), (11,), 3)
    assert (m.nrows, m.ncols) == (0, 1)
    # t = 1 and t = 3 reach the one target, t = 2 is no power of 3
    m = relation_matrix((11, 3), (14,), 3)
    assert (m.nrows, m.ncols) == (1, 1) and m.rows == [{0: 1}]


def _kernel_pairs():
    for r in range(1, 7):
        shapes = all_partitions(r)
        for p in (2, 3, 5):
            yield from ((lam, mu, p) for lam in shapes for mu in shapes)
    # longer rows, where more t are no power of p (3, 5, 6, 7, 9 at p = 2;
    # 2, 4, 5, 6, 7, 8 at p = 3) and are dropped
    for lam, mu in [((9, 9), (18,)), ((8, 4, 4), (10, 6)), ((4, 4, 4, 4), (8, 8))]:
        for p in (2, 3):
            yield lam, mu, p


def test_p_power_generators_keep_the_kernel_of_all_generators():
    # relation_matrix keeps only t = p^j, with the rows of the generators
    # x_{i,p^j}; the matrix over every t must have the same reduced kernel basis
    checked = 0
    for lam, mu, p in _kernel_pairs():
        if not enumerate_standard(mu, lam):
            continue
        cut = reference_relation_matrix(lam, mu, p, keep=lambda t: is_power(t, p))
        rows = sorted(sorted(row.items()) for row in relation_matrix(lam, mu, p).rows)
        assert rows == sorted(sorted(row.items()) for row in cut.rows), (lam, mu, p)
        want = [list(h.coeffs) for h in hom_dim(lam, mu, p)[1]]
        assert Echelon(reference_relation_matrix(lam, mu, p)).kernel_basis() == want, (lam, mu, p)
        checked += 1
    assert checked == 357


def test_hom_dim_streams_to_the_kernel_of_relation_matrix():
    # hom_dim evaluates later generators only on the kernel's live columns
    # and stops once none is left; relation_matrix evaluates every column of
    # every generator.  Their reduced kernel bases must be the same: on every
    # pair of degree <= 7 with a nonempty Std, and on the paper's large
    # family with its stabilizations
    checked = 0
    for r in range(1, 8):
        shapes = all_partitions(r)
        for p in (2, 3, 5):
            for lam in shapes:
                for mu in shapes:
                    if not enumerate_standard(mu, lam):
                        continue
                    want = Echelon(relation_matrix(lam, mu, p)).kernel_basis()
                    assert [list(h.coeffs) for h in hom_dim(lam, mu, p)[1]] == want, (lam, mu, p)
                    checked += 1
    assert checked == 699
    lam, mu = (28, 5) + (2,) * 9, (31, 20)
    for p, k, d in ((3, 1, 2), (3, 2, 3), (3, 3, 3), (5, 1, 1), (5, 2, 2)):
        for pair in ((lam, mu), (stabilize(lam, k, d, p), stabilize(mu, k, d, p))):
            want = Echelon(relation_matrix(*pair, p)).kernel_basis()
            assert [list(h.coeffs) for h in hom_dim(*pair, p)[1]] == want, (pair, p)


def test_stream_start_puts_the_x1_blocks_last_exactly_when_mu2_le_lam1():
    # with mu_2 <= lambda_1 the blocks of x_{i,t}, i >= 2, go first in (i, t)
    # order and those of x_{1,t} last; otherwise (i, t) order stands
    sides = {True: 0, False: 0}
    for r in range(1, 9):
        shapes = all_partitions(r)
        for lam in shapes:
            for mu in shapes:
                overlap = len(mu) < 2 or mu[1] <= lam[0]
                for p in (2, 3, 5):
                    got = list(_generators(lam, p, _stream_start(lam, mu)))
                    plain = list(_generators(lam, p, 1))
                    ones = [g for g in plain if g[0] == 1]
                    rest = [g for g in plain if g[0] > 1]
                    assert got == (rest + ones if overlap else plain), (lam, mu, p)
                sides[overlap] += 1
    assert sides == {True: 854, False: 64}
    lam, mu = (28, 5) + (2,) * 9, (31, 20)
    assert list(_generators(lam, 3, _stream_start(lam, mu))) == [(i, 1) for i in range(2, 11)] + [(1, 1), (1, 3)]
    assert list(_generators((2, 2, 2), 2, _stream_start((2, 2, 2), (3, 3)))) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_stream_order_leaves_the_kernel_unchanged():
    # the live-column cut and the Hom = 0 exit are exact in any order: the
    # (i, t) order, the stream order and the full reverse give the reduced
    # kernel basis of hom_dim, on every pair of degree <= 7 with a nonempty
    # Std and on the paper's large family with its stabilizations
    def check(lam, mu, p):
        plain = list(_generators(lam, p, 1))
        orders = (plain, list(_generators(lam, p, _stream_start(lam, mu))), plain[::-1])
        want = [list(h.coeffs) for h in hom_dim(lam, mu, p)[1]]
        for order in orders:
            assert stream_kernel(lam, mu, p, order) == want, (lam, mu, p, order)

    checked = 0
    for r in range(1, 8):
        shapes = all_partitions(r)
        for p in (2, 3, 5):
            for lam in shapes:
                for mu in shapes:
                    if enumerate_standard(mu, lam):
                        check(lam, mu, p)
                        checked += 1
    assert checked == 699
    lam, mu = (28, 5) + (2,) * 9, (31, 20)
    for p, k, d in ((3, 1, 2), (3, 2, 3), (3, 3, 3), (5, 1, 1), (5, 2, 2)):
        check(lam, mu, p)
        check(stabilize(lam, k, d, p), stabilize(mu, k, d, p), p)


def _hook_lengths(nu):
    cols = transpose(nu)
    return [nu[i] - j + cols[j] - i - 1 for i in range(len(nu)) for j in range(nu[i])]


def test_nonzero_hom_needs_equal_p_cores():
    # linkage (Donkin): a nonzero Hom puts Delta(lambda) and Delta(mu) in one
    # block of S(n, r), n >= r, and its blocks are the classes of one p-core,
    # as for the symmetric group (Nakayama's conjecture); `p_core` reads the
    # cores off an abacus, with no use of the library
    nonzero = 0
    for lam, mu, p in _pairs_to_degree_7():
        core = p_core(lam, p)
        assert (sum(lam) - sum(core)) % p == 0, (lam, p)
        assert all(h % p for h in _hook_lengths(core)), (lam, p, core)
        if hom_dim(lam, mu, p)[0]:
            assert core == p_core(mu, p), (lam, mu, p)
            nonzero += 1
    assert nonzero == 261


@pytest.mark.parametrize("lam, mu, p", [((5, 2), (7,), 2), ((5, 3), (8,), 3)])
def test_rows_of_t_equal_p_are_needed(lam, mu, p):
    # the t = 1 rows alone leave a spurious map; the t = p row removes it
    ones_only = reference_relation_matrix(lam, mu, p, keep=lambda t: t == 1)
    assert len(Echelon(ones_only).kernel_basis()) == 1
    assert hom_dim(lam, mu, p) == (0, [])


def test_hom_dim_hook_examples():
    assert hom_dim((8, 3), (11,), 3)[0] == 1
    assert hom_dim((11, 3), (14,), 3)[0] == 0
    assert hom_dim((1, 1, 1, 1), (2, 2), 3)[0] == 1
    assert hom_dim((4, 1, 1, 1), (5, 2), 3)[0] == 0
    assert hom_dim((2,), (1, 1), 3) == (0, [])
    # 500 weight entries: the standard enumeration needs no frame per entry
    assert hom_dim((1,) * 500, (500,), 3) == (0, [])
    with pytest.raises(ValueError):
        hom_dim((2, 1), (2,), 3)


def test_hom_dim_identity_and_semisimple():
    for r in range(1, 7):
        shapes = all_partitions(r)
        for lam in shapes:
            for p in (3, 5, 7):
                assert hom_dim(lam, lam, p)[0] == 1, (lam, p)
        for lam in shapes:
            for mu in shapes:
                expected = 1 if lam == mu else 0
                assert hom_dim(lam, mu, 7)[0] == expected, (lam, mu)


def _pairs_to_degree_7():
    for r in range(1, 8):
        shapes = all_partitions(r)
        for p in (2, 3, 5):
            yield from ((lam, mu, p) for lam in shapes for mu in shapes)


def test_hom_dim_is_invariant_under_transposing_the_pair():
    # hom(lambda, mu) = hom(mu', lambda') at every prime: S(n, r) with n >= r
    # is its own Ringel dual, Delta(lambda) going to nabla(lambda') (Donkin,
    # The q-Schur algebra, ch. 4); for odd p also James, LNM 682, Thm 8.15.
    # The two sides solve different systems, over K_{mu lambda} and
    # K_{lambda' mu'} columns, and p = 2 is checked too.
    pairs = 0
    for lam, mu, p in _pairs_to_degree_7():
        assert hom_dim(lam, mu, p)[0] == hom_dim(transpose(mu), transpose(lam), p)[0], (lam, mu, p)
        pairs += 1
    assert pairs == 1302


def _basis(lam, mu, p):
    return [h.coeffs for h in hom_dim(lam, mu, p)[1]]


# Three exact reductions (row and column removal: Donkin 1985, Fayers-Lyle
# 2003).  Each removal maps Std onto the reduced pair's Std in order, so the
# bases agree vector for vector, at p = 2 too.  The engine runs on both
# sides, so these catch a fault that breaks a reduction, not one that
# commutes with it.


def test_row_removal_keeps_the_basis():
    # lambda_1 = mu_1: the 1s fill row 1 of every T, which carries nothing
    cases = 0
    for lam, mu, p in _pairs_to_degree_7():
        if lam[0] == mu[0]:
            assert _basis(lam, mu, p) == _basis(lam[1:], mu[1:], p), (lam, mu, p)
            cases += 1
    assert cases == 270


def test_column_removal_keeps_the_basis():
    # l(lambda) = l(mu) = n: the first column of every T is 1..n
    def strip(nu):
        return tuple(part - 1 for part in nu if part > 1)

    cases = 0
    for lam, mu, p in _pairs_to_degree_7():
        if len(lam) == len(mu):
            assert _basis(lam, mu, p) == _basis(strip(lam), strip(mu), p), (lam, mu, p)
            cases += 1
    assert cases == 270


def test_row_split_gives_the_kronecker_products_of_the_bases():
    # lambda_1+...+lambda_k = mu_1+...+mu_k: the entries <= k fill the top k
    # rows, and Std is the product of the two halves' Std in lexicographic order
    cases = 0
    for lam, mu, p in _pairs_to_degree_7():
        for k in range(1, min(len(lam), len(mu))):
            if sum(lam[:k]) == sum(mu[:k]):
                top, bottom = _basis(lam[:k], mu[:k], p), _basis(lam[k:], mu[k:], p)
                kron = {tuple(a * b % p for a in u for b in v) for u in top for v in bottom}
                assert set(_basis(lam, mu, p)) == kron, (lam, mu, p, k)
                cases += 1
    assert cases == 519


def test_kernel_vectors_kill_every_generator():
    # soundness, independently of the elimination: rebuild each image and check
    rng = random.Random(23)
    pairs = []
    for r in range(2, 7):
        shapes = all_partitions(r)
        pairs.extend((lam, mu) for lam in shapes for mu in shapes)
    rng.shuffle(pairs)
    checked = 0
    for lam, mu in pairs:
        if checked >= 40:
            break
        p = rng.choice([3, 5])
        dim, basis = hom_dim(lam, mu, p)
        if dim == 0:
            continue
        checked += 1
        std = enumerate_standard(mu, lam)
        ctx = get_context(mu, p)
        for h in basis:
            for gen in relation_generators(lam):
                acc = {}
                for T, c in zip(std, h.coeffs):
                    if not c:
                        continue
                    for s, v in ctx.straighten_terms(
                        reference_phi_terms(T, generator_tensor(gen), p)
                    ).items():
                        nv = (acc.get(s, 0) + c * v) % p
                        if nv:
                            acc[s] = nv
                        else:
                            acc.pop(s, None)
                assert not acc, (lam, mu, p, gen.i, gen.t)
    assert checked == 40


def test_stabilize_hom_transport():
    # transport along T -> T^+ keeps the coefficients: h.coeffs over
    # Std_{lambda^+}(mu^+) is the transported vector
    dim, basis = hom_dim((8, 3), (11,), 3)
    assert dim == 1
    h = basis[0]
    # hypotheses fail here (p^d equals the min), and indeed the transported
    # vector no longer kills the relations
    m_plus = relation_matrix((11, 3), (14,), 3)
    assert any(m_plus.mul_vec(list(h.coeffs)))
    # the same coefficients over the stabilized shapes mean T -> T^+ on every
    # basis element: each coefficient sits on the shifted tableau
    checked = 0
    for r in range(0, 7):
        shapes = all_partitions(r)
        for lam in shapes:
            for mu in shapes:
                if len(mu) > 1 and mu[1] > lam[0]:
                    continue
                for h in hom_dim(lam, mu, 3)[1]:
                    for k, d in ((1, 1), (2, 1)):
                        moved = HomElement(stabilize(lam, k, d, 3), stabilize(mu, k, d, 3), 3, h.coeffs)
                        expected = [(t.plus(k * 3**d), c) for t, c in h.support()]
                        assert moved.support() == expected, (lam, mu, k, d)
                        checked += 1
    assert checked > 0


def test_stabilize_hom_identity_and_precondition():
    # k = 0 leaves both shapes as they are, so transport is the identity
    # however large d is
    lam, mu = (8, 3), (11,)
    dim, basis = hom_dim(lam, mu, 3)
    assert dim == 1
    for h in basis:
        assert HomElement(stabilize(lam, 0, 3, 3), stabilize(mu, 0, 3, 3), 3, h.coeffs) == h
    # mu_2 > lambda_1: no bijection onto Std_{lambda^+}(mu^+), so the
    # transport is not checked and no correspondence is claimed
    rep = verify_stabilization((1, 1, 1, 1), (2, 2), 3, 1, 1)
    assert not rep.hyp_overlap and not rep.hypotheses_hold
    assert rep.transport_in_kernel is None and rep.correspondence_verified is None


@pytest.mark.parametrize("str_digits", [None, "0"], ids=["limit-unset", "limit-0"])
def test_library_refuses_a_huge_first_row(str_digits):
    # in a subprocess, so that computing 3^(10^11) would time out rather
    # than hang the suite; a limit of 0 falls back to 4300 digits
    script = """
from weylhom import verify_stabilization
from weylhom.shapes import FirstRowTooLargeError
try:
    verify_stabilization((2, 1), (3,), 3, 1, 10**11)
except FirstRowTooLargeError as exc:
    print(exc)
"""
    proc = run_python(["-c", script], str_digits)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "k*p^d = 1*3^100000000000 is too large: a first row would exceed 4300 digits\n"


def test_import_loads_no_dataclasses():
    # the result types are NamedTuples, so importing the package loads
    # neither dataclasses nor the inspect, ast, dis and tokenize behind it
    script = """
import sys
import weylhom
print("dataclasses" in sys.modules)
"""
    proc = run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_results_are_named_tuples():
    # same fields, in the same order, with the same repr and properties
    h = hom_dim((2, 1), (3,), 3)[1][0]
    assert h == ((2, 1), (3,), 3, (1,)) and h._fields == ("lam", "mu", "p", "coeffs")
    assert repr(h) == "HomElement(lam=(2, 1), mu=(3,), p=3, coeffs=(1,))"
    rep = verify_stabilization((3, 1), (4,), 3, 1, 2)
    assert isinstance(rep, tuple) and rep._fields[:3] == ("p", "k", "d")
    assert rep._fields[-2:] == ("transport_in_kernel", "correspondence_verified")
    assert rep.hypotheses_hold and not rep.theorem_violated


def test_verify_stabilization_hypotheses_hold():
    rep = verify_stabilization((3, 1), (4,), 3, 1, 2)
    assert rep.hyp_power and rep.hyp_overlap
    assert rep.dim == rep.dim_plus
    assert rep.correspondence_verified is True
    assert not rep.theorem_violated


def test_verify_stabilization_counterexamples():
    rep = verify_stabilization((8, 3), (11,), 3, 1, 1)
    assert not rep.hyp_power and rep.hyp_overlap
    assert (rep.dim, rep.dim_plus) == (1, 0)
    assert rep.correspondence_verified is None
    assert not rep.theorem_violated

    rep = verify_stabilization((1, 1, 1, 1), (2, 2), 3, 1, 1)
    assert rep.hyp_power and not rep.hyp_overlap
    assert (rep.dim, rep.dim_plus) == (1, 0)
    assert rep.correspondence_verified is None


def test_power_hypothesis_without_the_power():
    # p^d > bound decided by bounded multiplication, equal to the direct
    # comparison, negative bounds (mu_1 < lambda_1) included
    for p in (2, 3, 5):
        for d in range(0, 8):
            for bound in range(-3, 130):
                assert _power_exceeds(p, d, bound) == (p**d > bound), (p, d, bound)
    assert _power_exceeds(3, 10**11, 10**6)


def test_verify_stabilization_small_grid():
    for r in range(0, 6):
        shapes = all_partitions(r)
        for lam in shapes:
            for mu in shapes:
                rep = verify_stabilization(lam, mu, 3, 1, 1)
                if rep.hypotheses_hold:
                    assert rep.correspondence_verified, (lam, mu)


def test_phi_eval_weight_bookkeeping():
    T = enumerate_standard((2, 2), (1, 1, 1, 1))[0]
    gen = relation_generators((1, 1, 1, 1))[0]
    weight = generator_weight(gen)
    assert weight == (2, 0, 1, 1)
    terms = phi_eval_terms(T, gen.i, gen.t, 3)
    assert terms and all(tab.shape == (2, 2) and tab.weight == weight for _, tab in terms)


def test_phi_eval_generator_validation():
    T = Tableau(((1, 1, 0), (0, 1, 1)))  # 12/23, weight (1, 2, 1)
    # i = 0, i = len(weight), t = -1, t = weight[i] + 1, p = 4
    for i, t, p in [(0, 1, 3), (3, 1, 3), (1, -1, 3), (1, 3, 3), (1, 1, 4)]:
        with pytest.raises(ValueError):
            phi_eval_terms(T, i, t, p)


def test_transport_check_matches_relation_matrix():
    # the transport check reads membership off the stabilized reduced kernel
    # basis; the reference multiplies by the stabilized relation matrix
    checked = 0
    for r in range(0, 7):
        shapes = all_partitions(r)
        for lam in shapes:
            for mu in shapes:
                for p in (2, 3, 5):
                    for k in (1, 2):
                        for d in (1, 2):
                            rep = verify_stabilization(lam, mu, p, k, d)
                            if not rep.hyp_overlap:
                                continue
                            basis = hom_dim(lam, mu, p)[1]
                            expected = True
                            if basis:
                                matrix_plus = relation_matrix(rep.lam_plus, rep.mu_plus, p)
                                expected = not any(
                                    any(matrix_plus.mul_vec(h.coeffs))
                                    for h in basis
                                )
                            assert rep.transport_in_kernel is expected, (lam, mu, p, k, d)
                            checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "lam, mu, p",
    [
        ((3, 2), (5,), 2),
        ((3, 3), (6,), 2),
        ((4, 3), (6, 1), 2),
        ((3, 3, 1), (7,), 2),
        ((8, 3), (11,), 3),
    ],
)
def test_transport_fails_outside_the_power_hypothesis(lam, mu, p):
    rep = verify_stabilization(lam, mu, p, 1, 1)
    assert rep.hyp_overlap and not rep.hyp_power
    assert rep.transport_in_kernel is False
