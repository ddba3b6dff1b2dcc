import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_dense, reference_rref, set_entry
from weylhom.gfp import (
    PRIMALITY_BOUND,
    Echelon,
    InconsistentSystemError,
    MatrixGFp,
    NonPrimeModulusError,
    add_scaled,
    binom_mod,
    check_prime,
    is_prime,
    reduce_lowest,
)


def test_binom_examples():
    # C(14,3)=364 and C(5,3)=10 both reduce to 1 mod 3 (equal via 3^2 > 3)
    assert binom_mod(14, 3, 3) == 1
    assert binom_mod(5, 3, 3) == 1
    assert binom_mod(4, 2, 3) == 0  # C(4,2)=6
    for n in (0, 1, 7, 123456):
        for p in (2, 3, 5, 11):
            assert binom_mod(n, 0, p) == 1
    assert binom_mod(3, 5, 7) == 0  # b > a


def test_binom_rejects_composite_modulus():
    with pytest.raises(NonPrimeModulusError):
        binom_mod(5, 2, 6)
    with pytest.raises(NonPrimeModulusError):
        binom_mod(5, 2, 1)


def test_binom_matches_exact_small():
    for p in (2, 3, 5, 7):
        for a in range(40):
            for b in range(40):
                assert binom_mod(a, b, p) == math.comb(a, b) % p


@settings(max_examples=300, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=10**6),
    b=st.integers(min_value=0, max_value=200),
    k=st.integers(min_value=0, max_value=50),
    d=st.integers(min_value=0, max_value=8),
    p=st.sampled_from([2, 3, 5, 7, 11]),
)
def test_lucas_row_shift_property(a, b, k, d, p):
    # shifting the top argument by k*p^d leaves C(a, b) unchanged mod p once p^d > b
    if p**d > b:
        assert binom_mod(a + k * p**d, b, p) == binom_mod(a, b, p)
        assert binom_mod(a, b, p) == math.comb(a, b) % p


def test_binom_memory_does_not_grow_with_p():
    # each Lucas digit's binomial is computed on the spot: no per-prime
    # table of p^2/2 residues (about 300 MB at p = 4001)
    tracemalloc.start()
    try:
        assert binom_mod(10**6 + 3, 3, 4001) == math.comb(10**6 + 3, 3) % 4001
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("p", [9973, 10007, 999983, 1000003])
def test_binom_matches_exact_at_large_primes(p):
    rng = random.Random(p)
    for _ in range(50):
        a = rng.randrange(3 * p)
        b = rng.randrange(8)
        assert binom_mod(a, b, p) == math.comb(a, b) % p
    assert binom_mod(p + 2, p, p) == math.comb(p + 2, p) % p == 1


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(0) and not is_prime(1) and not is_prime(-3)

    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if trial(n)]


def _strong_probable_prime(n, b):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(b, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def test_is_prime_past_trial_division():
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)
    # strong pseudoprimes to every prime base up to 23 and up to 37: only the
    # later witnesses expose them
    for n, last in ((3825123056546413051, 23), (318665857834031151167461, 37)):
        assert all(_strong_probable_prime(n, b) for b in range(2, last + 1) if is_prime(b))
        assert not is_prime(n)


def test_primality_bound_is_refused():
    # the bound is a strong pseudoprime to all 13 witnesses, so Miller-Rabin
    # on them would call it prime; it is refused instead
    n = PRIMALITY_BOUND
    assert all(_strong_probable_prime(n, b) for b in range(2, 42) if is_prime(b))
    assert is_prime(n - 2) is False
    for m in (n, n + 2, 2**127 - 1):
        with pytest.raises(NonPrimeModulusError, match="decided exactly below"):
            check_prime(m)


def test_kernel_zero_matrix():
    m = MatrixGFp(2, 3, 3)
    basis = m.kernel_basis()
    assert len(basis) == 3
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernel_identity():
    m = from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 5)
    assert m.kernel_basis() == []
    assert Echelon(m).rank == 3


def test_kernel_rank_one():
    m = from_dense([[1, 2], [2, 4]], 5)
    basis = m.kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    # proportional to (2, -1): the kernel line of x + 2y = 0
    assert (v[0] + 2 * v[1]) % 5 == 0 and any(v)
    assert m.mul_vec(v) == [0, 0]


def test_rank_plus_kernel_dimension_random():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        nrows = rng.randrange(0, 7)
        ncols = rng.randrange(0, 7)
        m = MatrixGFp(nrows, ncols, p)
        for i in range(nrows):
            for j in range(ncols):
                set_entry(m, i, j, rng.randrange(p))
        kernel = m.kernel_basis()
        assert Echelon(m).rank + len(kernel) == ncols
        for v in kernel:
            assert all(c == 0 for c in m.mul_vec(v))


def test_kernel_is_reduced_and_deterministic():
    m = from_dense([[1, 1, 1, 0], [0, 0, 1, 1]], 7)
    first = m.kernel_basis()
    second = from_dense([[1, 1, 1, 0], [0, 0, 1, 1]], 7).kernel_basis()
    assert first == second
    # pivots at columns 0 and 2; free columns 1 and 3 carry unit entries
    assert [v[1] for v in first] == [1, 0]
    assert [v[3] for v in first] == [0, 1]


def test_echelon_solve_roundtrip():
    rng = random.Random(3)
    for _ in range(40):
        p = rng.choice([3, 5])
        ncols = rng.randrange(1, 5)
        nrows = ncols + rng.randrange(0, 4)
        while True:
            m = MatrixGFp(nrows, ncols, p)
            for i in range(nrows):
                for j in range(ncols):
                    set_entry(m, i, j, rng.randrange(p))
            if Echelon(m).rank == ncols:
                break
        x = [rng.randrange(p) for _ in range(ncols)]
        rhs = dict(enumerate(m.mul_vec(x)))
        solved = Echelon(m).solve(rhs)
        assert solved == x


def test_echelon_solve_detects_inconsistency():
    m = from_dense([[1], [1]], 3)
    ech = Echelon(m)
    with pytest.raises(InconsistentSystemError):
        ech.solve({0: 1, 1: 2})


def test_echelon_solve_contract_by_brute_force():
    # over all of GF(p)^n: solve returns a solution exactly when one exists,
    # that solution is 0 in every free column, and every other system raises,
    # a nonzero right-hand side on an empty row included
    rng = random.Random(41)
    for _ in range(400):
        p = rng.choice([2, 3, 5])
        ncols = rng.randrange(0, 4)
        rows = [
            {j: v for j in range(ncols) if (v := rng.randrange(p)) and rng.random() < 0.6}
            for _ in range(rng.randrange(0, 5))
        ]
        if rows and rng.random() < 0.5:
            rows.append(dict(rng.choice(rows)))
        if rng.random() < 0.3:
            rows.append({})
        m = MatrixGFp(len(rows), ncols, p, rows)
        # a consistent right-hand side, with one entry redrawn half the time
        b = m.mul_vec([rng.randrange(p) for _ in range(ncols)])
        if rows and rng.random() < 0.5:
            b[rng.randrange(len(rows))] = rng.randrange(p)
        rhs = {i: v for i, v in enumerate(b) if v}
        solutions = [list(x) for x in itertools.product(range(p), repeat=ncols) if m.mul_vec(x) == b]
        ech = Echelon(m)
        if not solutions:
            with pytest.raises(InconsistentSystemError):
                ech.solve(rhs)
            continue
        x = ech.solve(rhs)
        assert x in solutions
        assert all(x[j] == 0 for j in range(ncols) if j not in ech.pivot_rows)


def test_echelon_absorb_is_a_streaming_reduced_form():
    # rows absorbed in batches of 0 to 4, in their given order: after every
    # batch the form equals that of the whole prefix built at once and dense
    # Gauss-Jordan's, every lead is its row's lowest key with coefficient
    # 1, the matrix holds exactly the rows given, and the support is where
    # the kernel basis is nonzero
    rng = random.Random(31)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        ncols = rng.randrange(1, 9)
        rows = [
            {j: v for j in range(ncols) if (v := rng.randrange(p)) and rng.random() < 0.5}
            for _ in range(rng.randrange(0, 14))
        ]
        if rows and rng.random() < 0.5:
            rows.append(dict(rng.choice(rows)))
        ech = Echelon(MatrixGFp(0, ncols, p))
        n = 0
        while True:
            batch = [dict(r) for r in rows[n : n + rng.randrange(0, 5)]]
            ech.absorb(batch)
            n += len(batch)
            prefix = MatrixGFp(n, ncols, p, [dict(r) for r in rows[:n]])
            assert (ech.matrix.nrows, ech.matrix.rows) == (n, prefix.rows)
            pivots, kernel = reference_rref(prefix)
            assert ech.pivot_rows == Echelon(prefix).pivot_rows == pivots
            for lead, pivot in ech.pivot_rows.items():
                assert min(pivot) == lead and pivot[lead] == 1
            assert ech.kernel_basis() == kernel
            assert ech.support() == sorted({j for v in kernel for j, c in enumerate(v) if c})
            if n == len(rows):
                break


def test_reduce_lowest_on_random_unitriangular_bases():
    # random unitriangular bases over keys 0..n-1: a combination reduces to
    # its own coordinates, the input is left alone, and adding 1 at a key
    # that is no lead leaves the span
    rng = random.Random(23)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        nkeys = rng.randrange(1, 9)
        leads = sorted(rng.sample(range(nkeys), rng.randrange(0, nkeys + 1)))
        basis = {}
        for label, lead in enumerate(leads):
            element = {lead: 1}
            for k in range(lead + 1, nkeys):
                v = rng.randrange(p) if rng.random() < 0.5 else 0
                if v:
                    element[k] = v
            basis[lead] = (label, element)
        coords = {}
        for label in range(len(leads)):
            c = rng.randrange(p)
            if c:
                coords[label] = c
        vec: dict = {}
        for label, element in basis.values():
            add_scaled(vec, coords.get(label, 0), element, p)
        before = dict(vec)
        assert reduce_lowest(vec, basis, p) == coords
        assert vec == before
        free = [k for k in range(nkeys) if k not in basis]
        if free:
            bad = dict(vec)
            add_scaled(bad, 1, {rng.choice(free): 1}, p)
            with pytest.raises(InconsistentSystemError):
                reduce_lowest(bad, basis, p)


def test_reduce_lowest_rejects_a_lead_that_is_no_unit():
    # an element with lead coefficient 2 cannot clear its lead: an error, not a loop
    basis = {0: ("a", {0: 2, 1: 1}), 1: ("b", {1: 1})}
    with pytest.raises(InconsistentSystemError, match="does not clear its lead"):
        reduce_lowest({0: 1}, basis, 5)


def test_matrix_set_bounds_and_zero_removal():
    m = MatrixGFp(2, 2, 3)
    set_entry(m, 0, 0, 5)
    assert m.rows[0] == {0: 2}
    set_entry(m, 0, 0, 3)
    assert m.rows[0] == {}
    with pytest.raises(IndexError):
        set_entry(m, 2, 0, 1)


def test_echelon_ignores_row_order_repeats_and_empty_rows():
    # the reduced form depends only on the row space, and solve still checks
    # every original row, repeats included
    rng = random.Random(17)
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        nrows = rng.randrange(0, 7)
        ncols = rng.randrange(1, 6)
        m = MatrixGFp(nrows, ncols, p)
        for i in range(nrows):
            for j in range(ncols):
                if rng.random() < 0.6:
                    set_entry(m, i, j, rng.randrange(p))
        # the shuffled matrix's row k is row source[k] of m, or empty for None
        source = list(range(nrows)) + [None] * rng.randrange(0, 3)
        if nrows:
            source += [rng.randrange(nrows) for _ in range(3)]
        rng.shuffle(source)
        shuffled = MatrixGFp(
            len(source), ncols, p,
            [dict(m.rows[i]) if i is not None else {} for i in source],
        )
        ech = Echelon(m)
        other = Echelon(shuffled)
        # the rank is the pivot count, unchanged by reading the pivot rows
        ranks = (ech.rank, other.rank)
        assert other.pivot_rows == ech.pivot_rows
        assert (ech.rank, other.rank) == ranks
        assert other.rank == ech.rank == len(ech.pivot_rows) == ncols - len(ech.kernel_basis())
        assert other.kernel_basis() == ech.kernel_basis()
        x = [rng.randrange(p) for _ in range(ncols)]
        b = m.mul_vec(x)
        rhs = {i: v for i, v in enumerate(b) if v}
        shuffled_rhs = {k: b[i] for k, i in enumerate(source) if i is not None and b[i]}
        assert other.solve(shuffled_rhs) == ech.solve(rhs)
        # two copies of one nonzero row asked for different values
        copies = [k for k, i in enumerate(source) if i is not None and m.rows[i]]
        copies = [k for k in copies if source.count(source[k]) > 1]
        if copies:
            k = copies[-1]
            bad = dict(shuffled_rhs)
            bad[k] = (bad.get(k, 0) + 1) % p
            with pytest.raises(InconsistentSystemError):
                other.solve(bad)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_echelon_matches_dense_gauss_jordan(p):
    # sparse matrices up to 40 x 40, many of them rank-deficient (rows drawn
    # from the span of a few) and with repeated rows: the reduced pivot rows
    # and the kernel basis equal dense Gauss-Jordan's exactly, which takes
    # back-substitution through many pivots
    rng = random.Random(1800 + p)
    for _ in range(60):
        nrows, ncols = rng.randrange(0, 41), rng.randrange(0, 41)
        density = rng.choice([0.05, 0.1, 0.25, 0.5])
        base = [
            {j: v for j in range(ncols) if rng.random() < density and (v := rng.randrange(1, p))}
            for _ in range(nrows if rng.random() < 0.5 else rng.randrange(1, 6))
        ]
        rows = []
        for _ in range(nrows):
            if rows and rng.random() < 0.2:
                rows.append(dict(rng.choice(rows)))
                continue
            row: dict[int, int] = {}
            for b in rng.sample(base, min(len(base), rng.randrange(1, 3))):
                add_scaled(row, rng.randrange(1, p), b, p)
            rows.append(row)
        m = MatrixGFp(nrows, ncols, p, rows)
        pivots, kernel = reference_rref(m)
        ech = Echelon(m)
        assert ech.pivot_rows == pivots
        assert ech.kernel_basis() == kernel
        assert ech.rank == len(pivots) == ncols - len(kernel)
