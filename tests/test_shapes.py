import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compositions_of, dominates, transpose, weyl_dimension
from weylhom import hom_dim, phi_eval_terms, specht_hom_dim, straighten, verify_stabilization
from weylhom.gfp import NonPrimeModulusError
from weylhom.shapes import (
    FirstRowTooLargeError,
    all_partitions,
    composition,
    format_partition,
    parse_partition,
    partition,
    stabilize,
)
from weylhom.tableaux import Tableau, enumerate_standard, from_row_entries


def test_partition_normalization():
    assert partition([3, 2, 0, 0]) == (3, 2)
    assert partition([]) == ()
    with pytest.raises(ValueError):
        partition([2, 3])
    with pytest.raises(ValueError):
        partition([3, -1])
    # a bool is an int, and comes back as one
    assert [type(v) for v in partition([True, True, False])] == [int, int]
    assert stabilize((2, 1), True, True, 3) == (5, 1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: partition((2.7, 1)), ValueError, "part 2.7 is not an integer", id="partition-float"),
        pytest.param(lambda: partition(("3", "2")), ValueError, "part '3' is not an integer", id="partition-str"),
        pytest.param(lambda: composition((1, 0.5)), ValueError, "entry 0.5 is not an integer", id="composition-float"),
        pytest.param(
            lambda: enumerate_standard((2.9,), (2,)), ValueError, "part 2.9 is not an integer", id="enumerate-float"
        ),
        pytest.param(lambda: Tableau([[1.5]]), ValueError, "entry 1.5 is not an integer", id="tableau-float"),
        pytest.param(
            lambda: hom_dim((2, 1), (3,), 3.0), NonPrimeModulusError, "modulus 3.0 is not an integer", id="hom-p-float"
        ),
        pytest.param(
            lambda: hom_dim((2, 1), (3,), 43.0), NonPrimeModulusError, "modulus 43.0 is not", id="hom-p-float-43"
        ),
        pytest.param(
            lambda: specht_hom_dim((2, 1), (3,), 3.0), NonPrimeModulusError, "modulus 3.0 is not", id="specht-p-float"
        ),
        pytest.param(
            lambda: straighten((2, 2), from_row_entries([[1, 2], [1, 2]]), 1, 3.0),
            NonPrimeModulusError,
            "modulus 3.0 is not",
            id="straighten-p-float",
        ),
        pytest.param(lambda: stabilize((2, 1), 1.5, 1, 3), ValueError, "k and d must be integers", id="stabilize-k"),
        pytest.param(
            lambda: verify_stabilization((2, 1), (3,), 3, 1, 1.0), ValueError, "k and d must be integers", id="verify-d"
        ),
        pytest.param(
            lambda: straighten((2, 2), from_row_entries([[1, 2], [1, 2]]), 1.5, 5),
            ValueError,
            "coefficient 1.5 is not an integer",
            id="straighten-coeff-float",
        ),
        pytest.param(
            lambda: from_row_entries([[1.0, 2]]), ValueError, "entry 1.0 is not an integer", id="row-entry-float"
        ),
        pytest.param(
            lambda: phi_eval_terms(from_row_entries([[1, 2], [2, 3]]), 1, 1.0, 5),
            ValueError,
            "generator degree 1.0 is not an integer",
            id="phi-t-float",
        ),
        pytest.param(
            lambda: phi_eval_terms(from_row_entries([[1, 2], [2, 3]]), 1.0, 1, 5),
            ValueError,
            "generator index 1.0 is not an integer",
            id="phi-i-float",
        ),
    ],
)
def test_non_integers_are_refused_at_the_boundary(call, error, message):
    # with p = 3 cached first, so that 3.0 cannot be answered from its entry
    hom_dim((2, 1), (3,), 3)
    straighten((2, 2), from_row_entries([[1, 2], [1, 2]]), 1, 3)
    with pytest.raises(error, match=message):
        call()


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


def test_stabilize_refuses_exactly_past_the_digit_limit(monkeypatch):
    # the bit-length screen decides far from the limit and the exact
    # comparison near it: together they refuse exactly the rows of more than
    # L digits
    for limit in range(1, 7):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
        for p in (2, 3, 5, 7):
            for k in (0, 1, 2, 9):
                for d in range(0, 26):
                    for top in (*range(12), 99):
                        lam = (top,) + (1,) * (top > 0)
                        refuse = k > 0 and top + k * p**d >= 10**limit
                        try:
                            row = stabilize(lam, k, d, p)
                        except FirstRowTooLargeError as exc:
                            assert refuse, (limit, p, k, d, top)
                            assert str(exc) == (
                                f"k*p^d = {k}*{p}^{d} is too large: a first row would exceed {limit} digits"
                            )
                        else:
                            assert not refuse, (limit, p, k, d, top)
                            assert row == partition((top + k * p**d,) + lam[1:])
    # the same edge at the default limit, reached by the first row or by p^d
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    assert stabilize((10**4300 - 2,), 1, 0, 2) == (10**4300 - 1,)
    with pytest.raises(FirstRowTooLargeError):
        stabilize((10**4300 - 1,), 1, 0, 2)
    assert stabilize((), 1, 14284, 2) == (2**14284,)  # 4300 digits
    with pytest.raises(FirstRowTooLargeError):
        stabilize((), 1, 14285, 2)  # 4301 digits


def test_stabilize_limit_zero_or_absent_falls_back_to_the_default(monkeypatch):
    assert issubclass(FirstRowTooLargeError, ValueError)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
    assert stabilize((2, 1), 1, 9000, 2)[0] == 2 + 2**9000  # 2710 digits
    with pytest.raises(FirstRowTooLargeError, match="exceed 4300 digits"):
        stabilize((2, 1), 1, 10**11, 3)
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    with pytest.raises(FirstRowTooLargeError, match="exceed 4300 digits"):
        stabilize((2, 1), 1, 10**400, 3)
    assert stabilize((2, 1), 0, 10**400, 3) == (2, 1)


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
    # every partition once, in descending lexicographic order: the sorted
    # parts of every composition of r into r entries, zeros dropped
    for r in range(11):
        brute = {tuple(sorted(filter(None, c), reverse=True)) for c in compositions_of(r, r)}
        assert all_partitions(r) == sorted(brute, reverse=True), r


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
    # a count past the index range is refused like any other bad repetition
    with pytest.raises(ValueError, match=r"repetition '1\^99999999999999999999' at position 1 is too large"):
        parse_partition("2,1^99999999999999999999")


def test_format_roundtrip():
    for text in ("8,3", "11", "28,5,2,2"):
        assert format_partition(parse_partition(text)) == text
    assert format_partition(()) == "0"
