import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dominates, transpose, weyl_dimension
from weylhom.shapes import (
    all_partitions,
    composition,
    format_partition,
    parse_partition,
    partition,
    stabilize,
)


def test_partition_normalization():
    assert partition([3, 2, 0, 0]) == (3, 2)
    assert partition([]) == ()
    with pytest.raises(ValueError):
        partition([2, 3])
    with pytest.raises(ValueError):
        partition([3, -1])


def test_composition_allows_inner_zeros():
    assert composition([2, 0, 1, 0]) == (2, 0, 1)
    with pytest.raises(ValueError):
        composition([1, -2])


def test_transpose_examples():
    assert transpose((8, 3)) == (2, 2, 2, 1, 1, 1, 1, 1)
    assert transpose((5,)) == (1, 1, 1, 1, 1)
    assert transpose((2, 2)) == (2, 2)
    assert transpose(()) == ()


def test_transpose_involution_exhaustive():
    for r in range(0, 13):
        for lam in all_partitions(r):
            assert transpose(transpose(lam)) == lam
            assert sum(transpose(lam)) == r


def test_dominates_examples():
    assert dominates((11,), (8, 3))
    assert not dominates((1, 1), (2,))
    assert dominates((3, 1), (2, 2))
    # composition weights are sorted before comparing
    assert dominates((3, 1), (1, 2, 1))
    with pytest.raises(ValueError):
        dominates((2, 1), (2,))


def test_dominates_reflexive_transitive():
    for r in range(0, 7):
        shapes = all_partitions(r)
        for a in shapes:
            assert dominates(a, a)
        for a in shapes:
            for b in shapes:
                for c in shapes:
                    if dominates(a, b) and dominates(b, c):
                        assert dominates(a, c)


def test_stabilize_examples():
    assert stabilize((8, 3), 1, 1, 3) == (11, 3)
    assert stabilize((1, 1, 1, 1), 1, 1, 3) == (4, 1, 1, 1)
    assert stabilize((5, 2), 0, 3, 7) == (5, 2)
    assert stabilize((), 2, 1, 3) == (6,)
    with pytest.raises(ValueError):
        stabilize((2, 1), -1, 1, 3)


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(min_value=0, max_value=9),
    idx=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=0, max_value=4),
    d=st.integers(min_value=0, max_value=3),
    p=st.sampled_from([2, 3, 5]),
)
def test_stabilize_degree_growth(r, idx, k, d, p):
    shapes = all_partitions(r)
    lam = shapes[idx % len(shapes)]
    assert sum(stabilize(lam, k, d, p)) == r + k * p**d


def test_all_partitions_counts():
    counts = [len(all_partitions(r)) for r in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert all_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_weyl_dimension_small():
    # single box: the natural module
    assert weyl_dimension((1,), 4) == 4
    # one row of length 2 for GL_2: Sym^2, dimension 3
    assert weyl_dimension((2,), 2) == 3
    # determinant-like column
    assert weyl_dimension((1, 1, 1), 3) == 1
    with pytest.raises(ValueError):
        weyl_dimension((1, 1, 1), 2)


def test_parse_partition():
    assert parse_partition("8,3") == (8, 3)
    assert parse_partition("28,5,2^9") == (28, 5) + (2,) * 9
    assert parse_partition("4") == (4,)
    assert parse_partition("3,0") == (3,)
    with pytest.raises(ValueError, match="position 1"):
        parse_partition("3,,1")
    with pytest.raises(ValueError, match="position 0"):
        parse_partition("x")
    with pytest.raises(ValueError):
        parse_partition("1,3")  # increasing


def test_format_roundtrip():
    for text in ("8,3", "11", "28,5,2,2"):
        assert format_partition(parse_partition(text)) == text
    assert format_partition(()) == "0"
