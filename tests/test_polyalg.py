import itertools
import math
import random
from collections import Counter

import pytest

from conftest import (
    compositions_of,
    distinct_permutations,
    dp_mult,
    is_representative,
    orbit_expansion,
    tableau_monomials,
    tensor_expansion_count,
)
from weylhom.polyalg import (
    ExpansionLimitError,
    bounded_compositions,
    dp_comult,
    dprime,
    mono,
    mono_degree,
)
from weylhom.tableaux import Tableau


def test_mono_canonical():
    assert mono({2: 1, 1: 3}) == ((1, 3), (2, 1))
    assert mono([(1, 2), (1, 1)]) == ((1, 3),)
    assert mono({1: 0}) == ()
    assert mono_degree(mono({1: 3, 2: 2})) == 5
    with pytest.raises(ValueError):
        mono({1: -1})


def test_dp_mult_examples():
    # 1^(2) * 1^(3): C(5,2) = 10 = 1 mod 3
    assert dp_mult(mono({1: 2}), mono({1: 3}), 3) == (1, ((1, 5),))
    m = mono({1: 1, 2: 1})
    assert dp_mult(m, (), 3) == (1, m)
    # 1 2 * 1: C(2,1) = 2
    assert dp_mult(mono({1: 1, 2: 1}), mono({1: 1}), 3) == (2, ((1, 2), (2, 1)))
    # coefficient collapse mod p returns zero monomial marker
    assert dp_mult(mono({1: 1}), mono({1: 2}), 3)[0] == 0


def test_dp_comult_two_slot_splittings():
    # 1^(2)2^(2) into (2,2): the three splittings of Example degrees
    got = dp_comult(mono({1: 2, 2: 2}), (2, 2))
    expected = {
        (mono({1: 2}), mono({2: 2})),
        (mono({1: 1, 2: 1}), mono({1: 1, 2: 1})),
        (mono({2: 2}), mono({1: 2})),
    }
    assert set(got) == expected
    assert len(got) == 3


def test_dp_comult_trivial_and_thin():
    m = mono({1: 2, 3: 1})
    assert dp_comult(m, (3,)) == [(m,)]
    # divided powers carry no multiplicity: a single splitting of 1^(2) into (1,1)
    assert dp_comult(mono({1: 2}), (1, 1)) == [(mono({1: 1}), mono({1: 1}))]
    with pytest.raises(ValueError):
        dp_comult(m, (1, 1))


def test_bounded_compositions_match_brute_force_in_order():
    # the one enumerator behind dp_comult, the relation images, the strips of
    # the standard enumeration and the two-row ones-step; zero caps mixed in,
    # and totals from below 0 to past the sum of the caps
    for n in range(8):
        for caps in itertools.product(range(4 if n <= 4 else 3), repeat=n):
            by_total: dict[int, list] = {}
            for c in itertools.product(*[range(k + 1) for k in caps]):
                by_total.setdefault(sum(c), []).append(c)
            for total in range(-2, sum(caps) + 3):
                expected = by_total.get(total, [])
                assert bounded_compositions(total, caps) == expected, (total, caps)


def test_bounded_compositions_of_many_caps_need_no_recursion():
    # 3,000 caps, three of them open: the enumeration steps only those, with
    # no frame per cap
    caps = [0] * 3000
    caps[5], caps[1700], caps[2999] = 1, 2, 1
    comps = bounded_compositions(2, caps)
    expected = []
    for a, b, c in itertools.product(range(2), range(3), range(2)):
        if a + b + c == 2:
            v = [0] * 3000
            v[5], v[1700], v[2999] = a, b, c
            expected.append(tuple(v))
    assert comps == expected
    assert bounded_compositions(2, [0] * 3000) == []
    assert bounded_compositions(0, [1] * 3000) == [(0,) * 3000]
    assert bounded_compositions(3000, [1] * 3000) == [(1,) * 3000]


def test_dp_comult_of_1200_entries_needs_no_recursion():
    # the splittings are extended entry by entry, with no frame per entry
    m = mono({i: 1 for i in range(1, 1201)})
    assert dp_comult(m, (1200,)) == [(m,)]


def test_dp_comult_counts_match_multinomial_of_supports():
    # number of splittings = product over entries of compositions of the exponent
    rng = random.Random(2)
    for _ in range(50):
        m = mono({e: rng.randrange(0, 3) for e in range(1, 5)})
        k = rng.randrange(1, 4)
        deg = mono_degree(m)
        total = 0
        for degrees in compositions_of(deg, k):
            total += len(dp_comult(m, degrees))
        expected = 1
        for _, c in m:
            expected *= math.comb(c + k - 1, k - 1)
        assert total == expected


def test_hopf_compatibility_mult_of_comult():
    # re-multiplying the pieces of every splitting reproduces the monomial,
    # and the coefficients total the multinomial of the slot degrees
    rng = random.Random(9)
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        m = mono({e: rng.randrange(0, 4) for e in range(1, 4)})
        deg = mono_degree(m)
        if deg == 0:
            continue
        k = rng.randrange(1, 4)
        degrees = rng.choice(compositions_of(deg, k))
        total = 0
        for split in dp_comult(m, degrees):
            coeff = 1
            acc = ()
            for piece in split:
                c, acc = dp_mult(acc, piece, p)
                coeff = coeff * c % p
            if coeff:
                assert acc == m
            total = (total + coeff) % p
        exact = math.factorial(deg)
        for dpart in degrees:
            exact //= math.factorial(dpart)
        assert total == exact % p


def test_dprime_examples():
    p = 5
    # unique distribution, both columns sorted
    v = dprime(Tableau([(2,), (0, 2)]), p)
    assert v == {((1, 2), (1, 2)): 1}
    # 12 (x) 12: two surviving distributions, each with sign -1
    v = dprime(Tableau([(1, 1), (1, 1)]), p)
    assert v == {((1, 2), (1, 2)): (-2) % p}
    # repeated entry in a height-2 column
    assert dprime(Tableau([(1,), (1,)]), p) == {}


def _dprime_bruteforce(shape, factors, p):
    """Deal every distinct ordering of each row into columns 1..shape[i];
    drop arrangements with a repeat in a column, sign each by the inversions
    of its columns read top to bottom, and key it by the sorted columns."""
    rows = [distinct_permutations([e for e, c in f for _ in range(c)]) for f in factors]
    ncols = shape[0] if shape else 0
    acc = {}
    for arrangement in itertools.product(*rows):
        columns = [[row[j] for row in arrangement if j < len(row)] for j in range(ncols)]
        if any(len(set(col)) < len(col) for col in columns):
            continue
        inversions = sum(
            col[a] > col[b]
            for col in columns
            for a in range(len(col))
            for b in range(a + 1, len(col))
        )
        key = tuple(tuple(sorted(col)) for col in columns)
        acc[key] = (acc.get(key, 0) + (-1) ** inversions) % p
    return {k: v for k, v in acc.items() if v}


def test_dprime_matches_brute_force_dealing():
    from weylhom.shapes import all_partitions

    rng = random.Random(4)
    # the trailing empty rows of [(1, 1), (), ()] are dropped: shape (2,)
    cases = [Tableau(()), Tableau([(1, 1), (), ()])]
    for r in range(1, 7):
        for shape in all_partitions(r):
            for _ in range(3):
                rows = [Counter(rng.randrange(1, 5) for _ in range(w)) for w in shape]
                cases.append(Tableau([[row[e] for e in range(1, 5)] for row in rows]))
    for tab in cases:
        shape = tab.shape
        for p in (2, 3, 5):
            expected = _dprime_bruteforce(shape, tableau_monomials(tab), p)
            got = dprime(tab, p)
            assert all(is_representative(shape, key) for key in got), (tab, p)
            assert orbit_expansion(shape, got) == expected, (tab, p)
    # the two height-1 columns form one block: only its sorted order is kept
    assert dprime(cases[1], 3) == {((1,), (2,)): 1}


def test_dprime_shape_validation():
    # dprime reads the shape off the tableau, so no factor can miss it: a
    # key has one column per box of row 1, column j as tall as the shape's
    # column j
    from weylhom.shapes import all_partitions, transpose

    for r in range(1, 7):
        for mu in all_partitions(r):
            tab = Tableau([[0] * i + [w] for i, w in enumerate(mu)])
            (key,) = dprime(tab, 3)
            assert tuple(map(len, key)) == transpose(mu), mu


def test_dprime_needs_a_weakly_decreasing_shape():
    # the column blocks are read off a partition, and Tableau refuses rows
    # whose sums are not one: increasing sums in test_tableaux.py::
    # test_counts_canonicalization, an empty row above a filled one here;
    # trailing empty rows are dropped
    with pytest.raises(ValueError, match="not a partition shape"):
        Tableau([(2,), (), (0, 1)])
    assert dprime(Tableau([(1,), (0, 1), ()]), 3) == {((1, 2),): 1}


def test_dprime_depth_does_not_grow_with_the_width():
    # 960 cells in 480 columns of height 2: the dealing recurses only down
    # a column, so the default recursion limit is far away
    v = dprime(Tableau([(480,), (0, 480)]), 3)
    assert v == {((1, 2),) * 480: 1}


def test_dprime_standard_classes_are_nonzero():
    from weylhom.shapes import all_partitions
    from weylhom.tableaux import enumerate_standard

    for r in range(1, 7):
        shapes = all_partitions(r)
        for mu in shapes:
            for alpha in shapes:
                for t in enumerate_standard(mu, alpha):
                    assert dprime(t, 3), t.render()


def test_dprime_deterministic_and_reduces_mod_p():
    tab = Tableau([(1, 2), (0, 1, 1)])
    a = dprime(tab, 7)
    b = dprime(tab, 7)
    assert a == b
    # the coefficients are integers reduced mod p, so a larger prime sees them
    # exactly and reduces to the p = 7 vector
    wide = dprime(tab, 101)
    assert a == {k: v % 7 for k, v in wide.items() if v % 7}


def test_expansion_count_and_limit():
    # the budget counts the partial dealings dprime steps through, not the
    # full dealing over every column order: here the empty dealing, four
    # ways to deal column 1 and four to deal both, onto three monomials
    tab = Tableau([(1, 1, 1), (1, 1)])
    assert tensor_expansion_count((3, 2), tableau_monomials(tab)) == 12
    with pytest.raises(ExpansionLimitError):
        dprime(tab, 3, limit=8)
    assert dprime(tab, 3, limit=9) == dprime(tab, 3)
    assert len(dprime(tab, 3)) == 3
