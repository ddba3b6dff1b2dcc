"""The same-behaviour gate, pinned: digests of outputs that a refactor must
not change.  Both digests were recorded before the one-pass exterior
realization replaced the sort-and-sign pass, and both reach exterior solves.
A change that alters either output on purpose must say why and re-record."""

import hashlib

import pytest

import weylhom.cli as cli
from weylhom.homspace import hom_dim
from weylhom.shapes import all_partitions

SCAN_DIGEST = "01ec56f0a00e6a402b8acecf881320d9c41c422b11949c205fba1837163b8745"
HOM_DEG7_P2_DIGEST = "67e66951753988c68b0e4396b901a8fc7fa9e39b8f468df4f46937f88195a59f"


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


def test_hom_bases_degree_7_p2_are_unchanged():
    digest = hashlib.sha256()
    shapes = all_partitions(7)
    for lam in shapes:
        for mu in shapes:
            basis = hom_dim(lam, mu, 2)[1]
            digest.update(repr((lam, mu, [h.coeffs for h in basis])).encode())
    assert digest.hexdigest() == HOM_DEG7_P2_DIGEST
