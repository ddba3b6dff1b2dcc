"""Benchmark of the weylhom Hom / stabilization pipeline.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else, with ``WEYLHOM_WORKERS=1``.

``--trace 0`` measures the end-to-end metrics.  The set-up time is the
median over several fresh processes, each timing ``import weylhom`` plus
building the workload's inputs.  Then whole rounds of the workload run in
this process, one client in a closed loop, for as many rounds as fit in
``--seconds`` (at least one); only the calls into the public API are timed.
Op times are scaled to reference host speed by a calibration kernel
(calibrate.py); the unscaled figures are in the run-info line.

``--trace 1`` runs one plain and one traced round, each in a fresh process,
and reports the per-layer split (see spans.py) and the tracing overhead.

Every op's output is checked against reference.json.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it records the run's settings.  The exit code
is 0 only when every op matched its reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
# names, units and bounds of every reported metric
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
from calibrate import Speed  # noqa: E402
from workloads import WORKLOADS, run_round  # noqa: E402

SETUP_PROBES = 15
# calibration kernels timed before the first op
WARMUP_KERNELS = 10
CHILD_TIMEOUT_S = 170
# |sum of self times + other - wall| allowed in a traced round: float rounding
RECONCILE_TOLERANCE_S = 1e-6


def report(kind: str, values: dict) -> dict:
    """The metrics of one kind ("end_to_end" or "per_layer") named in
    BENCHMARK.json, with their units."""
    with open(SPEC) as fh:
        spec = json.load(fh)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def import_program():
    """Import weylhom from this checkout's src/ only, with one worker."""
    os.environ["WEYLHOM_WORKERS"] = "1"
    package = SRC / "weylhom"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no weylhom sources under {package}")
    sys.path.insert(0, str(SRC))
    import weylhom

    if Path(weylhom.__file__).resolve().parent != package:
        raise SystemExit(f"error: weylhom imported from {weylhom.__file__}, not {package}")
    return weylhom


def run_info(args) -> dict:
    """The run's settings; call after import_program."""
    from weylhom import config

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "limits": {
            "WEYLHOM_WORKERS": config.worker_count(),
            "WEYLHOM_EXPANSION_LIMIT": config.expansion_limit(),
            "WEYLHOM_MAX_SCAN_DEGREE": config.scan_degree_cap(),
            "WEYLHOM_SPECHT_BOUND": config.specht_degree_bound(),
        },
    }


def child(args, role: str, trace: int = 0) -> dict:
    """Run this script in a fresh process in the given role; its last stdout
    line is a JSON object."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--child", role,
    ]
    env = dict(os.environ, WEYLHOM_WORKERS="1")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: {role} process failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference(workload: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)[workload]


def quantile(values, q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: a weighted mean of all
    order statistics, with weights from the Beta(q(n+1), (1-q)(n+1))
    distribution over n equal cells of [0, 1].  Unlike a single order
    statistic it moves smoothly when two ops of similar cost swap places,
    which matters on workloads with few, unequal ops.  The weights are
    integrated by the midpoint rule and normalised."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = max(4, 512 // n)  # points per cell
    weights = []
    for i in range(n):
        w = 0.0
        for j in range(steps):
            t = (i + (j + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


# -- child roles ----------------------------------------------------------------


def child_setup(args) -> dict:
    start = time.perf_counter()
    wh = import_program()
    WORKLOADS[args.workload].build(wh, args.seed)
    return {"setup_s": time.perf_counter() - start}


def child_round(args) -> dict:
    wh = import_program()
    workload = WORKLOADS[args.workload]
    cases = workload.build(wh, args.seed)
    ref = load_reference(args.workload)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    result = run_round(wh, workload, cases, tracer)
    if tracer is not None:
        tracer.uninstall()
    out = {
        "wall_s": result.wall_s,
        "attempted": len(cases),
        "failed": workload.check(ref, result.records),
        "errors": result.errors[:5],
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(result.wall_s)
    return out


# -- measurements -----------------------------------------------------------------


def measure(args):
    """End-to-end metrics, tracing off.  Op times are scaled to reference
    host speed by the calibration kernel timed during them (calibrate.py)."""
    # set-up is not scaled: starting a process and importing did not follow
    # the kernel's speed (runs where the kernel ran 40% fast set up no
    # faster), and scaling it only widened its spread
    setup = [child(args, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    wh = import_program()
    info = run_info(args)
    workload = WORKLOADS[args.workload]
    cases = workload.build(wh, args.seed)
    ref = load_reference(args.workload)
    speed = Speed()
    speed.burst(WARMUP_KERNELS)  # samples before the first op
    raw_times: list[float] = []
    op_spans: list[tuple[float, float]] = []
    attempted = failed = rounds = 0
    errors: list[str] = []
    measured = 0.0
    speed.start()
    try:
        while True:
            result = run_round(wh, workload, cases, excluded=lambda: speed.excluded)
            rounds += 1
            measured += result.wall_s
            raw_times += result.op_times
            op_spans += zip(result.op_starts, result.op_times)
            attempted += len(cases)
            failed += workload.check(ref, result.records)
            errors += result.errors
            del result  # the records are not part of the program's memory
            # whole rounds only, so that every run covers the same cases;
            # stop when one more round of the mean length would overrun
            if measured * (rounds + 1) / rounds > args.seconds:
                break
    finally:
        speed.stop()
    op_times = [dt / speed.factor(t0, dt) for t0, dt in op_spans]
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(op_times) / sum(op_times),
        "op_p50_ms": 1000 * quantile(op_times, 0.5),
        "op_p90_ms": 1000 * quantile(op_times, 0.9),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info.update(
        rounds=rounds,
        ops=len(op_times),
        measured_s=measured,
        setup_probes=SETUP_PROBES,
        # the op figures in unscaled wall time, and the host's slowness
        raw={
            "ops_per_s": len(raw_times) / sum(raw_times),
            "op_p50_ms": 1000 * quantile(raw_times, 0.5),
            "op_p90_ms": 1000 * quantile(raw_times, 0.9),
        },
        host_slowness=speed.median_factor(),
        calibration_samples=len(speed.times),
        calibration_s=speed.excluded,
        error_rate=failed / attempted,
        errors=errors[:5],
    )
    return info, attempted, failed, report("end_to_end", values)


def measure_traced(args):
    """Per-layer metrics: a plain and a traced round, each in a fresh process."""
    plain = child(args, "round", trace=0)
    traced = child(args, "round", trace=1)
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    residual = spans.reconcile(layers)
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    import_program()
    info = run_info(args)
    info.update(
        reconcile_residual_s=residual,
        error_rate=failed / attempted,
        errors=plain["errors"] + traced["errors"],
    )
    if abs(residual) > RECONCILE_TOLERANCE_S:
        failed = max(failed, 1)
    return info, attempted, failed, report("per_layer", layers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "round"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child == "setup":
        print(json.dumps(child_setup(args)))
        return 0
    if args.child == "round":
        print(json.dumps(child_round(args)))
        return 0

    info, attempted, failed, metrics = (measure_traced if args.trace else measure)(args)
    print(json.dumps({"run": info}, sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
