"""The four benchmark workloads.

Each workload is one round of public-API calls ("ops") built from a seed.
The seed only chooses the order of the cases (the scan keeps the CLI's
order), so every round covers the same set of cases and its outputs can be
checked against one order-independent reference.  The program sees only the
generated inputs.

A workload defines:

* ``build(wh, seed)``: the op inputs of one round, made with weylhom's own
  parsers, which is part of the set-up time being measured;
* ``call(wh, case)``: the single timed public-API call of one op;
* ``record(wh, case, result)``: the JSON-able output the op is checked by;
  it runs untimed and, in a traced round, with tracing paused;
* ``cold``: whether caches are cleared before every op (a fresh ``weylhom
  verify``-like invocation) or only once at the start of the round;
* ``reference(records)``: what reference.json keeps of a round's records;
* ``check(ref, records)``: the number of failed ops in a round.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from typing import Callable, NamedTuple

# The paper's large family: (28,5,2^9) -> (31,20), every (p, k, d) below
# satisfying both stabilization hypotheses, first rows 33..109.
STAB_LAM = "28,5,2^9"
STAB_MU = (31, 20)
STAB_PKD = ((3, 1, 2), (3, 2, 3), (3, 3, 3), (5, 1, 1), (5, 2, 2))

# The CLI scan grid: `weylhom scan --max-degree 7 --primes 3,5 --k-values 1,2
# --d-values 1,2`.
SCAN_MAX_DEGREE = 7
SCAN_PRIMES = (3, 5)
SCAN_KS = (1, 2)
SCAN_DS = (1, 2)

HOM_DEGREE = 8
HOM_P = 2

ORACLE_DEGREE = 7
ORACLE_PRIMES = (3, 5, 7)


def digest(records) -> str:
    """Order-independent SHA-256 of JSON-able records."""
    lines = sorted(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def case_key(*parts) -> str:
    return "|".join(",".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in parts)


# -- stab_large ---------------------------------------------------------------


def _stab_build(wh, seed):
    lam = wh.parse_partition(STAB_LAM)
    mu = wh.partition(STAB_MU)
    cases = [(lam, mu, p, k, d) for p, k, d in STAB_PKD]
    random.Random(seed).shuffle(cases)
    return cases


def _verify_call(wh, case):
    return wh.verify_stabilization(*case)


def _stab_record(wh, case, rep):
    return {
        "p": rep.p,
        "k": rep.k,
        "d": rep.d,
        "lam_plus": list(rep.lam_plus),
        "mu_plus": list(rep.mu_plus),
        "dim": rep.dim,
        "dim_plus": rep.dim_plus,
        "transport_in_kernel": rep.transport_in_kernel,
        "correspondence_verified": rep.correspondence_verified,
    }


def _stab_reference(records):
    return {"cases": {case_key(r["p"], r["k"], r["d"]): r for r in records}}


def _stab_check(ref, records):
    expected = ref["cases"]
    return sum(
        1 for r in records if r is None or expected.get(case_key(r["p"], r["k"], r["d"])) != r
    )


# -- scan_grid ----------------------------------------------------------------


def _scan_build(wh, seed):
    # The CLI's enumeration order (degree, lexicographic shapes, p, k, d),
    # whatever the seed.  With caches warm across cases the order decides
    # which op pays for each cache fill: reordering the grid moved op_p50_ms
    # by up to 15%, more than run-to-run noise leaves room for.
    cases = []
    for r in range(SCAN_MAX_DEGREE + 1):
        shapes = wh.all_partitions(r)
        for lam in shapes:
            for mu in shapes:
                for p in SCAN_PRIMES:
                    for k in SCAN_KS:
                        for d in SCAN_DS:
                            cases.append((lam, mu, p, k, d))
    return cases


def _scan_record(wh, case, rep):
    # the per-case record of `weylhom scan`
    if rep.hypotheses_hold:
        status = "pass" if rep.correspondence_verified else "fail"
    else:
        status = "skipped_dims_differ" if rep.dim != rep.dim_plus else "skipped"
    lam, mu, p, k, d = case
    return {
        "lambda": list(lam),
        "mu": list(mu),
        "p": p,
        "k": k,
        "d": d,
        "hypotheses_hold": rep.hypotheses_hold,
        "dim": rep.dim,
        "dim_plus": rep.dim_plus,
        "status": status,
    }


def scan_summary(records):
    summary = {"pass": 0, "fail": 0, "skipped": 0, "skipped_dims_differ": 0}
    for r in records:
        summary[r["status"]] += 1
    return summary


def _scan_reference(records):
    summary = scan_summary(records)
    if summary["fail"]:
        raise ValueError(f"scan_grid has failures: {summary}")
    return {"digest": digest(records), "summary": summary}


def _scan_check(ref, records):
    bad = sum(1 for r in records if r is None or r["status"] == "fail")
    if bad:
        return bad
    if digest(records) != ref["digest"] or scan_summary(records) != ref["summary"]:
        return len(records)
    return 0


# -- hom_deep -----------------------------------------------------------------


def _hom_build(wh, seed):
    shapes = wh.all_partitions(HOM_DEGREE)
    cases = [(lam, mu, HOM_P) for lam in shapes for mu in shapes]
    random.Random(seed).shuffle(cases)
    return cases


def _hom_call(wh, case):
    return wh.hom_dim(*case)


def _hom_record(wh, case, result):
    lam, mu, _ = case
    dim, basis = result
    return {"lambda": list(lam), "mu": list(mu), "dim": dim, "basis": [list(h.coeffs) for h in basis]}


def _hom_reference(records):
    dims = {case_key(tuple(r["lambda"]), tuple(r["mu"])): r["dim"] for r in records}
    return {"digest": digest(records), "dims": dims}


def _hom_check(ref, records):
    dims = ref["dims"]
    bad = sum(
        1
        for r in records
        if r is None or dims.get(case_key(tuple(r["lambda"]), tuple(r["mu"]))) != r["dim"]
    )
    if bad:
        return bad
    return len(records) if digest(records) != ref["digest"] else 0


# -- oracle_deg7 --------------------------------------------------------------


def _oracle_build(wh, seed):
    # Every degree-7 shape once as lambda, paired with the shape before it in
    # the lexicographic list (so mu often dominates lambda and the Weyl side
    # has work too), with p cycling through 3, 5, 7.  The set is fixed and the
    # seed picks the order: one op costs from 1 ms to over 10 s depending on
    # the pair and p, so a seeded sample of pairs would move a round's work
    # by more than any useful bound.
    shapes = wh.all_partitions(ORACLE_DEGREE)
    cases = [
        (lam, shapes[i - 1], ORACLE_PRIMES[i % len(ORACLE_PRIMES)])
        for i, lam in enumerate(shapes)
    ]
    random.Random(seed).shuffle(cases)
    return cases


def _oracle_call(wh, case):
    return wh.oracle_compare(*case)


def _oracle_record(wh, case, agree):
    lam, mu, p = case
    # a cache hit after the op: the Weyl-side dimension that was compared
    return {"lambda": list(lam), "mu": list(mu), "p": p, "agree": agree, "dim": wh.hom_dim(lam, mu, p)[0]}


def _oracle_reference(records):
    if not all(r["agree"] for r in records):
        raise ValueError("oracle_deg7 has a disagreement")
    return {
        "dims": {case_key(tuple(r["lambda"]), tuple(r["mu"]), r["p"]): r["dim"] for r in records}
    }


def _oracle_check(ref, records):
    dims = ref["dims"]
    return sum(
        1
        for r in records
        if r is None
        or not r["agree"]
        or dims.get(case_key(tuple(r["lambda"]), tuple(r["mu"]), r["p"])) != r["dim"]
    )


class Workload(NamedTuple):
    name: str
    build: Callable
    call: Callable
    record: Callable
    reference: Callable
    check: Callable
    cold: bool


class Round(NamedTuple):
    """Outcome of one round; a record is None for an op that raised."""

    wall_s: float
    op_starts: list
    op_times: list
    records: list
    errors: list


def run_round(wh, workload, cases, tracer=None, excluded=None) -> Round:
    """Run every case once, starting from cleared caches; only the public-API
    call of each op is timed.  With a tracer, each op is a root span and
    recording the output runs with tracing paused.  `excluded()`, if given,
    is the running total of time spent outside the program (calibration),
    which is taken out of each op's time."""
    op_starts, op_times, records, errors = [], [], [], []

    def op_time(t0, x0):
        dt = time.perf_counter() - t0
        return dt if excluded is None else dt - (excluded() - x0)

    def clear():
        if tracer is not None:
            tracer.harvest_solves()
        wh.clear_caches()

    start = time.perf_counter()
    clear()
    for i, case in enumerate(cases):
        if workload.cold and i:
            clear()
        t0 = time.perf_counter()
        x0 = excluded() if excluded is not None else 0.0
        op_starts.append(t0)
        try:
            if tracer is None:
                result = workload.call(wh, case)
            else:
                result = tracer.op(workload.call, wh, case)
        except Exception as exc:  # an op that raises is a failed op, not the end of the run
            op_times.append(op_time(t0, x0))
            records.append(None)
            errors.append(f"{case}: {exc!r}")
            continue
        op_times.append(op_time(t0, x0))
        if tracer is not None:
            tracer.active = False
        try:
            records.append(workload.record(wh, case, result))
        except Exception as exc:
            records.append(None)
            errors.append(f"{case}: recording the output raised {exc!r}")
        finally:
            if tracer is not None:
                tracer.active = True
    if tracer is not None:
        tracer.harvest_solves()
    return Round(time.perf_counter() - start, op_starts, op_times, records, errors)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stab_large", _stab_build, _verify_call, _stab_record, _stab_reference,
                 _stab_check, cold=True),
        Workload("scan_grid", _scan_build, _verify_call, _scan_record, _scan_reference,
                 _scan_check, cold=False),
        Workload("hom_deep", _hom_build, _hom_call, _hom_record, _hom_reference,
                 _hom_check, cold=False),
        Workload("oracle_deg7", _oracle_build, _oracle_call, _oracle_record, _oracle_reference,
                 _oracle_check, cold=True),
    )
}
