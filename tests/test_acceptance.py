"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is exact (GF(p) arithmetic); the only
numeric thresholds are the stated wall-clock budgets, asserted here.
"""

import math
import random
import time

from conftest import (
    compositions_of,
    kostka_bruteforce,
    reference_straighten,
    relation_generators,
    standard_image_matrix,
    weyl_dimension,
)
from weylhom.gfp import Echelon, binom_mod
from weylhom.homspace import hom_dim, phi_eval_terms, verify_stabilization
from weylhom.shapes import all_partitions, parse_partition
from weylhom.tableaux import Tableau, enumerate_standard
from weylhom.weyl import get_context
import weylhom.weyl as weyl_module


def _report(num, label, start):
    print(f"ACCEPTANCE {num}: PASS ({time.perf_counter() - start:.2f}s) - {label}")


def test_criterion_01_hook_example_one_row():
    start = time.perf_counter()
    assert hom_dim((8, 3), (11,), 3)[0] == 1
    assert hom_dim((11, 3), (14,), 3)[0] == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.3f}s exceeds the 1s budget"
    _report(1, "dims 1 and 0 at p=3 for (8,3)->(11) and (11,3)->(14)", start)


def test_criterion_02_hook_example_column():
    start = time.perf_counter()
    assert hom_dim((1, 1, 1, 1), (2, 2), 3)[0] == 1
    assert hom_dim((4, 1, 1, 1), (5, 2), 3)[0] == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.3f}s exceeds the 1s budget"
    _report(2, "dims 1 and 0 at p=3 for (1^4)->(2,2) and (4,1^3)->(5,2)", start)


def test_criterion_03_large_two_row_family():
    start = time.perf_counter()
    lam = parse_partition("28,5,2^9")
    mu = (31, 20)
    dim, _ = hom_dim(lam, mu, 3)
    assert dim == 2
    # the straightening must run on the closed-form/peel path throughout:
    # no context may have needed the exterior-realization fallback
    for (shape, p), ctx in weyl_module._contexts.items():
        assert ctx.fallback_solves == 0, (shape, p)
    rep = verify_stabilization(lam, mu, 3, 1, 2)
    assert rep.hypotheses_hold
    assert rep.dim == 2 and rep.dim_plus == 2
    assert rep.correspondence_verified is True
    for (shape, p), ctx in weyl_module._contexts.items():
        assert ctx.fallback_solves == 0, (shape, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"{elapsed:.1f}s exceeds the 5 minute budget"
    _report(3, "dim 2 for a=28 and a=37 (via k=1, d=2) on the two-row path", start)


def test_criterion_04_stabilization_grid():
    start = time.perf_counter()
    checked = 0
    failures = []
    for r in range(0, 9):
        shapes = all_partitions(r)
        pairs = [(lam, mu) for lam in shapes for mu in shapes]
        for lam, mu in pairs:
            lam1 = lam[0] if lam else 0
            lam2 = lam[1] if len(lam) > 1 else 0
            mu1 = mu[0] if mu else 0
            mu2 = mu[1] if len(mu) > 1 else 0
            for p in (3, 5):
                for k in (1, 2):
                    for d in (1, 2):
                        if p**d <= min(lam2, mu1 - lam1) or mu2 > lam1:
                            continue
                        rep = verify_stabilization(lam, mu, p, k, d)
                        checked += 1
                        if not rep.correspondence_verified:
                            failures.append((lam, mu, p, k, d, rep.dim, rep.dim_plus))
    assert not failures, failures[:5]
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"{elapsed:.1f}s exceeds the 15 minute budget"
    _report(4, f"{checked} hypothesis-satisfying grid cases, zero failures", start)


def test_criterion_05_oracle_equivalence():
    from weylhom.specht import oracle_compare, specht_hom_dim

    start = time.perf_counter()
    mismatches = []
    checked = 0
    for p in (3, 5, 7):
        for r in range(0, 7):
            shapes = all_partitions(r)
            for lam in shapes:
                for mu in shapes:
                    checked += 1
                    if not oracle_compare(lam, mu, p):
                        mismatches.append(
                            (lam, mu, p, hom_dim(lam, mu, p)[0], specht_hom_dim(lam, mu, p))
                        )
    assert not mismatches, mismatches[:5]
    _report(5, f"{checked} Weyl/Specht pairs agree (r <= 6, p in 3,5,7)", start)


def _all_two_row_tableaux(mu, alphabet):
    out = []
    for top in compositions_of(mu[0], alphabet):
        for bottom in compositions_of(mu[1], alphabet):
            out.append(Tableau((top, bottom)))
    return out


def test_criterion_06_straightening_equivalence():
    # every two-row shape of degree <= 8; entries capped at 4 for degrees > 5
    # (every structural case: inert prefixes, partial violations, repeats)
    # and uncapped for degrees <= 5
    start = time.perf_counter()
    checked = 0
    for r in range(2, 9):
        for mu1 in range((r + 1) // 2, r):
            mu2 = r - mu1
            if mu2 == 0 or mu2 > mu1:
                continue
            mu = (mu1, mu2)
            alphabet = r if r <= 5 else 4
            for p in (3, 5):
                ctx = get_context(mu, p)
                for tab in _all_two_row_tableaux(mu, alphabet):
                    got = ctx.straighten_tableau(tab)
                    want = reference_straighten(mu, tab, p)
                    assert got == want, (mu, p, tab.render())
                    checked += 1
    _report(6, f"{checked} two-row straightenings match the exterior solve", start)


def _weight_permutation_count(beta, n):
    """Distinct length-n weight tuples whose nonzero entries form beta."""
    from collections import Counter

    if len(beta) > n:
        return 0
    count = math.factorial(n) // math.factorial(n - len(beta))
    for m in Counter(beta).values():
        count //= math.factorial(m)
    return count


def test_criterion_07_standard_basis_integrity():
    # full column rank of the standard images for every shape and every
    # partition weight (compositions reduce to these by entry relabeling;
    # a random sample of genuine compositions is checked as well), and the
    # standard-tableau census against the classical dimension formula
    start = time.perf_counter()
    rng = random.Random(31)
    rank_checks = 0
    for r in range(1, 9):
        shapes = all_partitions(r)
        for mu in shapes:
            for alpha in shapes:
                m = standard_image_matrix(mu, alpha, 3)
                assert Echelon(m).rank == m.ncols, (mu, alpha)
                rank_checks += 1
            n = max(5, len(mu))
            total = 0
            for beta in shapes:
                total += _weight_permutation_count(beta, n) * len(
                    enumerate_standard(mu, beta)
                )
            assert total == weyl_dimension(mu, n), mu
    for _ in range(120):
        r = rng.randrange(1, 9)
        mu = rng.choice(all_partitions(r))
        alpha = rng.choice(compositions_of(r, rng.randrange(1, 6)))
        m = standard_image_matrix(mu, alpha, 3)
        assert Echelon(m).rank == m.ncols == kostka_bruteforce(mu, alpha), (mu, alpha)
        rank_checks += 1
    _report(7, f"{rank_checks} full-rank checks and 22+ dimension censuses", start)


def test_criterion_08_relation_image_closed_forms():
    # phi_T on x_{i,t} must reproduce the closed-form coefficient patterns
    # (first-row case and deeper-row case) before any straightening
    from test_homspace import (
        _aggregate,
        _closed_form_deeper_row_terms,
        _closed_form_first_row_terms,
    )

    start = time.perf_counter()
    checked = 0
    for p in (3, 5):
        for r in range(2, 9):
            shapes = all_partitions(r)
            for lam in shapes:
                if len(lam) < 2:
                    continue
                gens = relation_generators(lam)
                for mu in shapes:
                    std = enumerate_standard(mu, lam)
                    for T in std:
                        for gen in gens:
                            got = _aggregate(phi_eval_terms(T, gen.i, gen.t, p), p)
                            if gen.i == 1:
                                want = _aggregate(
                                    _closed_form_first_row_terms(T, gen.t, p), p
                                )
                            else:
                                want = _aggregate(
                                    _closed_form_deeper_row_terms(T, gen.i, gen.t, p), p
                                )
                            assert got == want, (lam, mu, T.render(), gen.i, gen.t)
                            checked += 1
    _report(8, f"{checked} pre-straightening relation images match the closed forms", start)


def test_criterion_09_first_row_loading_property():
    # 1000 random combinations over first-row-loaded tableaux: vanishing in
    # the original module iff vanishing after adding k*p^d boxes to row 1
    start = time.perf_counter()
    rng = random.Random(2024)
    cases = 0
    vanished = 0
    while cases < 1000:
        r = rng.randrange(2, 9)
        shapes = [s for s in all_partitions(r) if s]
        lam = rng.choice(shapes)
        lam1 = lam[0]
        lam2 = lam[1] if len(lam) > 1 else 0
        mus = [
            m
            for m in shapes
            if m[0] >= lam1 and (m[1] if len(m) > 1 else 0) <= lam1
        ]
        if not mus:
            continue
        mu = rng.choice(mus)
        p = rng.choice([3, 5])
        shift = rng.choice([1, 2]) * p ** rng.choice([1, 2])
        alphabet = max(len(mu) + 1, 3)
        tabs = []
        for _ in range(rng.randrange(1, 4)):
            t_load = rng.randrange(0, min(lam2, mu[0] - lam1) + 1)
            ones = lam1 + t_load
            first = [ones] + [0] * (alphabet - 1)
            for _ in range(mu[0] - ones):
                first[rng.randrange(1, alphabet)] += 1
            rows = [tuple(first)]
            for length in mu[1:]:
                row = [0] * alphabet
                for _ in range(length):
                    row[rng.randrange(1, alphabet)] += 1
                rows.append(tuple(row))
            tabs.append(Tableau(tuple(rows)))
        coeffs = [rng.randrange(p) for _ in tabs]
        ctx = get_context(mu, p)
        ctx_plus = get_context((mu[0] + shift,) + mu[1:], p)
        combo = ctx.straighten_terms(zip(coeffs, tabs))
        combo_plus = ctx_plus.straighten_terms(
            zip(coeffs, (t.plus(shift) for t in tabs))
        )
        assert (not combo) == (not combo_plus), (lam, mu, p, shift)
        cases += 1
        if not combo:
            vanished += 1
    assert vanished > 0
    _report(9, f"1000 loaded-row combinations agree on vanishing ({vanished} vanished)", start)


def test_criterion_10_binomial_row_shift_suite():
    start = time.perf_counter()
    rng = random.Random(99)
    for _ in range(10_000):
        p = rng.choice([2, 3, 5, 7, 11])
        b = rng.randrange(0, 400)
        d = 1
        while p**d <= b:
            d += 1
        d += rng.randrange(0, 2)
        a = rng.randrange(0, 10**6)
        k = rng.randrange(0, 60)
        lhs = binom_mod(a + k * p**d, b, p)
        rhs = binom_mod(a, b, p)
        assert lhs == rhs == math.comb(a, b) % p, (a, b, k, d, p)
    _report(10, "10^4 randomized row-shift binomial identities", start)
