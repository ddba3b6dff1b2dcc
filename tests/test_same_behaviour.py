"""The same-behaviour gate, pinned: digests of outputs that a refactor must
not change.  The scan and Hom-basis digests were recorded before the
one-pass exterior realization replaced the sort-and-sign pass, and both
reach exterior solves.  The enumeration digest was recorded before the
horizontal-strip enumerator replaced the row-by-row one.  The Specht digest
was recorded before Young's rule replaced a fresh polytabloid and a solve
for every adjacent transposition and standard tableau.  The Specht Hom
digest was recorded before the Hom solve on one cyclic generator replaced
the full intertwiner system in all fa * fb entries.  The degree-8 p = 2
scan digest was recorded before the exterior realizations were kept on the
representatives of their column symmetry; that scan makes about two
thousand exterior solves.  A change that alters any of these outputs on
purpose must say why and re-record."""

import hashlib

import pytest

import weylhom.cli as cli
from conftest import compositions_of
from weylhom.homspace import hom_dim
from weylhom.shapes import all_partitions, composition
from weylhom.specht import specht_hom_dim, specht_rep
from weylhom.tableaux import enumerate_standard

SCAN_DIGEST = "01ec56f0a00e6a402b8acecf881320d9c41c422b11949c205fba1837163b8745"
SCAN_DEG8_P2_DIGEST = "4d97adae386ae31771bfb13bc8f81daf6f4c16abc8bb4977963843142a6f66d4"
HOM_DEG7_P2_DIGEST = "67e66951753988c68b0e4396b901a8fc7fa9e39b8f468df4f46937f88195a59f"
ENUMERATE_DIGEST = "81c50d554ebcee6595fb1e286b7ca80b88f882d69cca0f7a65ba1fea9933fa17"
SPECHT_GENS_DIGEST = "10aa92b45bbb1097ae92aab7e32db47989fd7d4a3524dea09a61bf4a0715660e"
SPECHT_HOM_DIGEST = "2319d93b4cb053f0a23331b0e21ac15d6be0e0c386ffe12c8a6de1679247d0f1"


@pytest.fixture(autouse=True)
def _default_knobs(monkeypatch):
    for name in (
        "WEYLHOM_EXPANSION_LIMIT",
        "WEYLHOM_WORKERS",
        "WEYLHOM_MAX_SCAN_DEGREE",
        "WEYLHOM_SPECHT_BOUND",
    ):
        monkeypatch.delenv(name, raising=False)


def test_scan_json_is_unchanged(capsys):
    argv = ["scan", "--max-degree", "6", "--primes", "2,3", "--format", "json"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_DIGEST


def test_scan_json_degree_8_p2_is_unchanged(capsys):
    argv = ["scan", "--max-degree", "8", "--primes", "2", "--format", "json"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_DEG8_P2_DIGEST


def test_hom_bases_degree_7_p2_are_unchanged():
    digest = hashlib.sha256()
    shapes = all_partitions(7)
    for lam in shapes:
        for mu in shapes:
            basis = hom_dim(lam, mu, 2)[1]
            digest.update(repr((lam, mu, [h.coeffs for h in basis])).encode())
    assert digest.hexdigest() == HOM_DEG7_P2_DIGEST


def test_enumerated_tableaux_are_unchanged():
    # ordered count matrices for every shape of degree <= 8 against every
    # weight of at most 5 parts, and each key's first-row stabilizations by
    # m in {0, 1, 9, 27}: 78,092 calls, 69,458 distinct keys
    digest = hashlib.sha256()
    for r in range(9):
        for mu in all_partitions(r):
            for alpha in compositions_of(r, 5):
                for m in (0, 1, 9, 27):
                    mu_m = (mu[0] + m,) + mu[1:] if mu else ((m,) if m else ())
                    alpha_m = composition((alpha[0] + m,) + alpha[1:])
                    std = enumerate_standard(mu_m, alpha_m)
                    digest.update(repr((mu_m, alpha_m, [t.counts for t in std])).encode())
    assert digest.hexdigest() == ENUMERATE_DIGEST


def test_specht_generators_are_unchanged():
    # the oracle's matrices of s_1, ..., s_{r-1} for every shape of degree
    # 1..7 at p in {3, 5, 7}
    digest = hashlib.sha256()
    for r in range(1, 8):
        for lam in all_partitions(r):
            for p in (3, 5, 7):
                rep = specht_rep(lam, p)
                digest.update(repr((rep.lam, p, rep.dim, rep.gens)).encode())
    assert digest.hexdigest() == SPECHT_GENS_DIGEST


def test_specht_hom_dims_are_unchanged():
    # the oracle's Hom dimension for every ordered pair of shapes of degree
    # 1..7 at p in {3, 5, 7}: 1,302 pairs
    digest = hashlib.sha256()
    for r in range(1, 8):
        shapes = all_partitions(r)
        for p in (3, 5, 7):
            for nu in shapes:
                for nu_prime in shapes:
                    dim = specht_hom_dim(nu, nu_prime, p)
                    digest.update(repr((nu, nu_prime, p, dim)).encode())
    assert digest.hexdigest() == SPECHT_HOM_DIGEST
