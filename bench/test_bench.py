"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py

The traced-round tests run every workload's traced round twice (a few
minutes in all); the rest take seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, case_key, digest, run_round  # noqa: E402

wh = run.import_program()


def traced_round(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1", "--child", "round"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=run.CHILD_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs_and_only_reorders_them(name):
    build = WORKLOADS[name].build
    assert build(wh, 3) == build(wh, 3)
    assert sorted(build(wh, 3)) == sorted(build(wh, 4))


def test_digest_ignores_order():
    records = [{"a": 1, "b": [2]}, {"a": 2, "b": []}]
    assert digest(records) == digest(records[::-1])
    assert digest(records) != digest(records[:1])


def test_checks_count_mismatches():
    ref = run.load_reference("stab_large")
    records = [dict(r) for r in ref["cases"].values()]
    assert WORKLOADS["stab_large"].check(ref, records) == 0
    records[0]["dim_plus"] += 1
    records[1] = None
    assert WORKLOADS["stab_large"].check(ref, records) == 2
    # a changed basis shows only in the digest, which fails the whole round
    hom = run.load_reference("hom_deep")
    cases = WORKLOADS["hom_deep"].build(wh, 0)
    fake = [
        {"lambda": list(lam), "mu": list(mu), "dim": hom["dims"][case_key(lam, mu)], "basis": []}
        for lam, mu, _ in cases
    ]
    assert WORKLOADS["hom_deep"].check(hom, fake) == len(fake)


def test_tracer_restores_the_program():
    from weylhom import gfp, homspace, specht, tableaux, weyl

    before = (homspace.hom_dim, tableaux.enumerate_standard, weyl.enumerate_standard,
              specht.hom_dim, gfp.Echelon.__init__, weyl.WeylContext.straighten_terms)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert homspace.enumerate_standard is tableaux.enumerate_standard
        assert tableaux.enumerate_standard is not before[1]
        assert specht.hom_dim is homspace.hom_dim is wh.hom_dim
        wh.clear_caches()  # cached entry points keep cache_clear while traced
        assert tracer.op(wh.hom_dim, (2, 1), (3,), 3)[0] == 1
    finally:
        tracer.uninstall()
    after = (homspace.hom_dim, tableaux.enumerate_standard, weyl.enumerate_standard,
             specht.hom_dim, gfp.Echelon.__init__, weyl.WeylContext.straighten_terms)
    assert after == before
    metrics = tracer.layer_metrics(wall_s=tracer.root_total())
    assert metrics["homspace.hom_dim.calls"] == 1
    assert abs(spans.reconcile(metrics)) <= run.RECONCILE_TOLERANCE_S
    # every per-layer metric in BENCHMARK.json is taken, even by a tiny round
    reported = run.report("per_layer", dict(metrics, **{"trace.overhead_s": 0.0}))
    assert reported["specht.specht_rep.misses"]["value"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_reconcile(name):
    first, second = traced_round(name, 7), traced_round(name, 7)
    counts = [
        {k: v for k, v in r["layers"].items() if not k.endswith("_s")} for r in (first, second)
    ]
    assert counts[0] == counts[1]
    for r in (first, second):
        assert r["failed"] == 0, r["errors"]
        assert abs(spans.reconcile(r["layers"])) <= run.RECONCILE_TOLERANCE_S
        assert all(v >= 0 for k, v in r["layers"].items() if k.endswith(".self_s"))
    solves = first["layers"].get("weyl.solve.calls", 0)
    if name == "stab_large":
        assert solves == 0
    if name == "hom_deep":
        assert solves > 0


def test_cold_workload_counts_ignore_order():
    # caches are cleared before every op, so the seed's order changes no count
    first, second = traced_round("oracle_deg7", 1), traced_round("oracle_deg7", 3)
    counts = [
        {k: v for k, v in r["layers"].items() if not k.endswith("_s")} for r in (first, second)
    ]
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hom_deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_factor_is_the_mean_kernel_time_around_an_op():
    from calibrate import KERNEL_REF_S, Speed, kernel

    assert kernel() == kernel()  # the yardstick is a fixed amount of work
    speed = Speed(window=0.5, nearest=3)
    speed.times = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    speed.kernel_s = [KERNEL_REF_S * f for f in (1.0, 1.0, 4.0, 2.0, 3.0, 4.0)]
    assert speed.factor(10.0, 2.0) == 3.0  # the samples during the op
    assert speed.factor(0.5, 1.0) == 2.0  # too few within 0.5 s: the nearest three
    assert speed.median_factor() == pytest.approx(2.5)


def test_calibration_time_is_taken_out_of_op_times():
    from calibrate import Speed

    speed = Speed(interval=0.02)
    speed.start()
    try:
        result = run_round(wh, WORKLOADS["stab_large"]._replace(call=lambda wh, case: busy(0.3)),
                           [None], excluded=lambda: speed.excluded)
    finally:
        speed.stop()
    assert len(speed.times) >= 5 and speed.excluded > 0
    # the op waits 0.3 s of wall time, of which the ticks took speed.excluded
    assert result.op_times[0] == pytest.approx(0.3 - speed.excluded, abs=0.01)


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
