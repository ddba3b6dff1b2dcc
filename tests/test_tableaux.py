import itertools
import random

import pytest

from conftest import (
    assert_canonical,
    compositions_of,
    dominates,
    is_class_a,
    kostka_bruteforce,
    weyl_dimension,
)
from weylhom.shapes import all_partitions, composition
from weylhom.tableaux import Tableau, enumerate_standard, from_row_entries


def minus(tab: Tableau, m: int) -> Tableau:
    """Delete m 1s from the top row; inverse of Tableau.plus."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return tab
    if not tab.counts or tab.counts[0][0] < m:
        have = tab.counts[0][0] if tab.counts else 0
        raise ValueError(f"cannot delete {m} ones: top row has {have}")
    first = (tab.counts[0][0] - m,) + tab.counts[0][1:]
    return Tableau((first,) + tab.counts[1:])


def test_counts_canonicalization():
    t = Tableau([(1, 2, 0, 0), (0, 1, 0)])
    assert t.counts == ((1, 2), (0, 1))
    assert t.shape == (3, 1)
    assert t.weight == (1, 3)
    assert t.width == 2
    # a tableau is the tuple of its count rows: it equals and hashes like
    # them, and `counts` is that tuple with the Tableau type dropped
    assert t == ((1, 2), (0, 1)) and hash(t) == hash(((1, 2), (0, 1)))
    assert type(t.counts) is tuple and type(Tableau._of(t.counts)) is Tableau
    assert Tableau._of(((1, 2), (0, 1))) == t
    # the empty tableau is the empty tuple, so it is falsy
    empty = Tableau([(0, 0), ()])
    assert empty == Tableau(()) == () and hash(empty) == hash(()) and not empty
    assert (empty.shape, empty.weight, empty.width, empty.render()) == ((), (), 0, "(empty)")
    assert empty.is_standard() and empty.plus(2).counts == ((2,),)
    with pytest.raises(ValueError):
        Tableau([(1,), (1, 1)])  # row sums must decrease
    with pytest.raises(ValueError):
        Tableau([(-1, 2)])


def test_render_exponential_notation():
    t = from_row_entries([[1, 1, 1, 2, 2, 4], [2, 2, 3, 4], [2, 5]])
    assert t.render() == "1^(3)2^(2)4 | 2^(2)34 | 25"
    assert from_row_entries([[1, 1], [2, 2]]).render() == "1^(2) | 2^(2)"


def test_standard_three_row_violation():
    # violation sits in the first column: rows 2 and 3 both start with 2
    t = from_row_entries([[1, 1, 1, 2, 2, 4], [2, 2, 3, 4], [2, 5]])
    assert t.shape == (6, 4, 2)
    assert not t.is_standard()


def test_standard_basic_cases():
    assert from_row_entries([[1, 1, 3, 5, 5]]).is_standard()
    assert not from_row_entries([[1, 2], [1, 2]]).is_standard()
    assert from_row_entries([[1, 1], [2, 2]]).is_standard()
    assert from_row_entries([[1, 2], [2, 3]]).is_standard()
    assert not from_row_entries([[1, 2], [2, 2]]).is_standard()


def standard_bruteforce(mu, alpha):
    """Standard count matrices of shape mu and weight alpha, sorted
    lexicographically: every row is tried as any count vector that fits the
    entries still unplaced, and column strictness is checked cell by cell on
    the explicit entry lists."""
    found = []

    def row_vectors(length, caps):
        for rest in itertools.product(*(range(min(c, length) + 1) for c in caps[1:])):
            first = length - sum(rest)
            if 0 <= first <= caps[0]:
                yield (first,) + rest

    def cells(row):
        return [j + 1 for j, c in enumerate(row) for _ in range(c)]

    def rec(i, remaining, rows, above):
        if i == len(mu):
            if not any(remaining):
                found.append(tuple(rows))
            return
        for row in row_vectors(mu[i], remaining):
            below = cells(row)
            # rows shrink down the shape, so zip pairs each cell with the one above
            if any(b <= a for b, a in zip(below, above)):
                continue
            rec(i + 1, tuple(r - a for r, a in zip(remaining, row)), rows + [row], below)

    rec(0, composition(alpha), [], [])
    return sorted(Tableau(rows) for rows in found)


def test_enumerate_matches_ordered_bruteforce():
    # every composition with at most 4 parts (zero-padded to 4), and each key's
    # first-row stabilizations (mu + m*e_1, alpha + m*e_1)
    for r in range(0, 8):
        for mu in all_partitions(r):
            for alpha in compositions_of(r, 4):
                for m in (0, 1, 9, 27):
                    mu_m = (mu[0] + m,) + mu[1:] if mu else ((m,) if m else ())
                    alpha_m = (alpha[0] + m,) + alpha[1:]
                    expected = standard_bruteforce(mu_m, alpha_m)
                    got = enumerate_standard(mu_m, alpha_m)
                    assert list(got) == expected, (mu_m, alpha_m)
                    # tableaux sort as their count rows do
                    assert [t.counts for t in got] == sorted(t.counts for t in expected)
                    # built without validation, so check each against it
                    for t in got:
                        assert_canonical(t)


def test_enumerate_single_row():
    std = enumerate_standard((11,), (8, 3))
    assert len(std) == 1
    assert std[0].render() == "1^(8)2^(3)"


def test_enumerate_examples():
    std = enumerate_standard((2, 2), (1, 1, 1, 1))
    assert [t.render() for t in std] == ["13 | 24", "12 | 34"]
    std = enumerate_standard((3, 1), (2, 2))
    assert [t.render() for t in std] == ["1^(2)2 | 2"]
    assert enumerate_standard((1, 1), (2,)) == ()


def test_enumerate_is_lexicographic_and_deterministic():
    std = enumerate_standard((3, 2), (2, 2, 1))
    flat = [sum(t.counts, ()) for t in std]
    assert flat == sorted(flat)
    assert list(std) == sorted(std) == sorted(std, key=lambda t: t.counts)
    assert std == enumerate_standard((3, 2), (2, 2, 1))


def test_enumerate_canonicalizes_its_cache_key():
    assert enumerate_standard([2, 1], [1, 1, 1]) == enumerate_standard((2, 1), (1, 1, 1))
    enumerate_standard.cache_clear()
    enumerate_standard((2, 1, 0), (1, 1, 1, 0))
    enumerate_standard((2, 1), (1, 1, 1))
    assert enumerate_standard.cache_info().currsize == 1


def test_enumerate_degree_mismatch():
    with pytest.raises(ValueError):
        enumerate_standard((3, 1), (1, 1))


def test_kostka_against_bruteforce_partition_weights():
    for r in range(0, 9):
        shapes = all_partitions(r)
        for mu in shapes:
            for alpha in shapes:
                expected = kostka_bruteforce(mu, alpha)
                assert len(enumerate_standard(mu, alpha)) == expected, (mu, alpha)


def test_kostka_against_bruteforce_random_compositions():
    rng = random.Random(5)
    for _ in range(150):
        r = rng.randrange(1, 8)
        mu = rng.choice(all_partitions(r))
        parts = rng.randrange(1, 5)
        alpha = rng.choice(compositions_of(r, parts))
        assert len(enumerate_standard(mu, alpha)) == kostka_bruteforce(mu, alpha)


def test_emptiness_iff_not_dominating():
    for r in range(1, 9):
        shapes = all_partitions(r)
        for mu in shapes:
            for alpha in shapes:
                empty = len(enumerate_standard(mu, alpha)) == 0
                assert empty == (not dominates(mu, alpha)), (mu, alpha)


def test_standard_count_matches_weyl_dimension():
    for r in range(0, 7):
        for mu in all_partitions(r):
            n = max(5, len(mu))
            total = sum(
                len(enumerate_standard(mu, alpha))
                for alpha in compositions_of(r, n)
            )
            assert total == weyl_dimension(mu, n), mu


def test_plus_minus_examples():
    t = from_row_entries([[1] * 8 + [2] * 3])
    assert t.plus(3).render() == "1^(11)2^(3)"
    assert t.plus(0) is t
    assert minus(t.plus(3), 3) == t
    x = from_row_entries([[1, 1, 2, 2], [2, 2, 3, 3]])
    assert x.plus(9).counts[0] == (11, 2, 0)
    assert x.plus(9).counts[1] == x.counts[1]
    assert_canonical(x.plus(9))
    assert Tableau(()).plus(9) == Tableau(((9,),))
    assert_canonical(Tableau(()).plus(9))
    with pytest.raises(ValueError):
        minus(from_row_entries([[1, 1, 2]]), 3)


def test_plus_minus_bijection_on_standard_sets():
    # T -> T^+ carries Std_alpha(mu) onto Std_{alpha^+}(mu^+) when mu_2 <= alpha_1
    for r in range(1, 9):
        shapes = all_partitions(r)
        for mu in shapes:
            for alpha in shapes:
                mu2 = mu[1] if len(mu) > 1 else 0
                if not alpha or mu2 > alpha[0]:
                    continue
                for m in (1, 3):
                    mu_plus = (mu[0] + m,) + mu[1:]
                    alpha_plus = (alpha[0] + m,) + alpha[1:]
                    std = standard_bruteforce(mu, alpha)
                    std_plus = standard_bruteforce(mu_plus, alpha_plus)
                    mapped = [t.plus(m) for t in std]
                    for t in mapped:
                        assert_canonical(t)
                    assert all(t.is_standard() for t in mapped)
                    assert mapped == std_plus
                    assert [minus(t.plus(m), m) for t in std] == list(std)


def test_class_a_recognizer():
    lam = (3, 2)
    # row 1 = 1^(lam1 + t) followed by entries >= 2, none below
    assert is_class_a(from_row_entries([[1, 1, 1, 2], [2, 2]]), lam)  # t = 0
    assert is_class_a(from_row_entries([[1, 1, 1, 1, 1], [3, 3]]), lam)  # t = 2
    assert not is_class_a(from_row_entries([[1, 1, 2, 2], [2, 2]]), lam)  # too few 1s
    assert not is_class_a(from_row_entries([[1] * 6, [2]]), lam)  # t > lam_2
    assert not is_class_a(from_row_entries([[1, 1, 1, 2], [1, 2]]), lam)  # 1 below row 1


def test_weight_trims_trailing_entries():
    t = from_row_entries([[1, 1], [2, 2]])
    assert t.weight == (2, 2)
    assert Tableau(((2, 0), (0, 2))) == t
