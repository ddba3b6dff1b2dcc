"""Command-line surface: dimension and basis queries, stabilization checks,
parameter scans, and oracle comparisons, with JSON or text reports.

Exit codes: 0 success, 1 invalid input, 2 when a verify or scan finds the
stabilization conclusion violated under satisfied hypotheses (which would
mean a library bug, so scans double as regression tests).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import config
from .gfp import NonPrimeModulusError, check_prime
from .homspace import hom_dim, verify_stabilization
from .polyalg import ExpansionLimitError
from .shapes import FirstRowTooLargeError, all_partitions, format_partition, parse_partition, stabilize
from .specht import check_dictionary_prime, specht_hom_dim
from .tableaux import enumerate_standard

EXIT_OK = 0
EXIT_THEOREM_VIOLATED = 2


class CliError(Exception):
    pass


def _parse_common(args):
    try:
        check_prime(args.p)
    except NonPrimeModulusError as exc:
        raise CliError(str(exc)) from None
    try:
        lam = parse_partition(args.lam)
        mu = parse_partition(args.mu)
    except ValueError as exc:
        raise CliError(f"bad partition: {exc}") from None
    if sum(lam) != sum(mu):
        raise CliError(f"degree mismatch: |{args.lam}| != |{args.mu}|")
    return lam, mu


def _check_nonnegative(name: str, values) -> None:
    if any(v < 0 for v in values):
        raise CliError(f"{name} must be nonnegative, got {','.join(map(str, values))}")


def _emit(report: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _basis_payload(basis):
    out = []
    for h in basis:
        out.append({t.render(): c for t, c in h.support()})
    return out


def cmd_dim(args) -> int:
    lam, mu = _parse_common(args)
    start = time.perf_counter()
    dim, basis = hom_dim(lam, mu, args.p)
    elapsed = time.perf_counter() - start
    report = {
        "command": "basis" if args.with_basis else "dim",
        "p": args.p,
        "lambda": list(lam),
        "mu": list(mu),
        "dim": dim,
        "std_count": len(enumerate_standard(mu, lam)),
        "wall_time_s": round(elapsed, 6),
    }
    lines = [f"dim Hom(Delta({format_partition(lam)}), Delta({format_partition(mu)})) = {dim} over GF({args.p})"]
    if args.with_basis:
        report["basis"] = _basis_payload(basis)
        for i, h in enumerate(basis):
            rendered = " + ".join(f"{c}*phi[{t.render()}]" for t, c in h.support())
            lines.append(f"  basis[{i}] = {rendered}")
    _emit(report, args.format, lines)
    return EXIT_OK


def _verify_report(lam, mu, p, k, d) -> dict:
    start = time.perf_counter()
    rep = verify_stabilization(lam, mu, p, k, d)
    elapsed = time.perf_counter() - start
    return {
        "command": "verify",
        "p": p,
        "k": k,
        "d": d,
        "lambda": list(rep.lam),
        "mu": list(rep.mu),
        "lambda_plus": list(rep.lam_plus),
        "mu_plus": list(rep.mu_plus),
        "hypotheses": {
            "power": rep.hyp_power,
            "overlap": rep.hyp_overlap,
            "both": rep.hypotheses_hold,
        },
        "dim": rep.dim,
        "dim_plus": rep.dim_plus,
        "basis": _basis_payload(rep.basis),
        "basis_plus": _basis_payload(rep.basis_plus),
        "transport_in_kernel": rep.transport_in_kernel,
        "correspondence_verified": rep.correspondence_verified,
        "theorem_violated": rep.theorem_violated,
        "wall_time_s": round(elapsed, 6),
    }


def cmd_verify(args) -> int:
    lam, mu = _parse_common(args)
    _check_nonnegative("-k", [args.k])
    _check_nonnegative("-d", [args.d])
    report = _verify_report(lam, mu, args.p, args.k, args.d)
    flags = report["hypotheses"]
    lines = [
        f"lambda={format_partition(lam)} mu={format_partition(mu)} p={args.p} k={args.k} d={args.d}",
        f"hypotheses: p^d > min(lam_2, mu_1-lam_1): {flags['power']}; mu_2 <= lam_1: {flags['overlap']}",
        f"dims: {report['dim']} -> {report['dim_plus']}",
    ]
    if flags["both"]:
        status = "verified" if report["correspondence_verified"] else "VIOLATED"
        lines.append(f"stabilization: {status}")
    else:
        lines.append("stabilization: hypotheses not satisfied, dims reported without assertion")
    _emit(report, args.format, lines)
    return EXIT_THEOREM_VIOLATED if report["theorem_violated"] else EXIT_OK


def _scan_case(case):
    lam, mu, p, k, d = case
    rep = verify_stabilization(lam, mu, p, k, d)
    return {
        "lambda": list(lam),
        "mu": list(mu),
        "p": p,
        "k": k,
        "d": d,
        "hypotheses_hold": rep.hypotheses_hold,
        "dim": rep.dim,
        "dim_plus": rep.dim_plus,
        "status": (
            ("pass" if rep.correspondence_verified else "fail")
            if rep.hypotheses_hold
            else ("skipped_dims_differ" if rep.dim != rep.dim_plus else "skipped")
        ),
    }


def cmd_scan(args) -> int:
    try:
        primes = [int(v) for v in args.primes.split(",")]
        for p in primes:
            check_prime(p)
        ks = [int(v) for v in args.k_values.split(",")]
        ds = [int(v) for v in args.d_values.split(",")]
    except (ValueError, NonPrimeModulusError) as exc:
        raise CliError(f"bad scan grid: {exc}") from None
    _check_nonnegative("--max-degree", [args.max_degree])
    _check_nonnegative("--k-values", ks)
    _check_nonnegative("--d-values", ds)
    cap = config.scan_degree_cap()
    complete = args.max_degree <= cap
    top = min(args.max_degree, cap)
    # before any work: no shape of degree top has a first row longer than top
    for p in primes:
        for k in ks:
            for d in ds:
                stabilize((top,), k, d, p)
    cases = []
    for r in range(0, top + 1):
        shapes = all_partitions(r)
        for lam in shapes:
            for mu in shapes:
                for p in primes:
                    for k in ks:
                        for d in ds:
                            cases.append((lam, mu, p, k, d))
    workers = config.worker_count()
    if workers > 1 and len(cases) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_case, cases, chunksize=16))
    else:
        results = [_scan_case(c) for c in cases]
    summary = {"pass": 0, "fail": 0, "skipped": 0, "skipped_dims_differ": 0}
    for res in results:
        summary[res["status"]] += 1
    report = {
        "command": "scan",
        "max_degree": args.max_degree,
        "effective_degree": top,
        "complete": complete,
        "primes": primes,
        "k_values": ks,
        "d_values": ds,
        "cases": results,
        "summary": summary,
    }
    lines = [
        f"scanned {len(results)} cases up to degree {top}"
        + ("" if complete else f" (requested {args.max_degree}, capped: partial report)"),
        f"pass={summary['pass']} fail={summary['fail']} "
        f"skipped={summary['skipped']} skipped_dims_differ={summary['skipped_dims_differ']}",
    ]
    _emit(report, args.format, lines)
    return EXIT_THEOREM_VIOLATED if summary["fail"] else EXIT_OK


def cmd_oracle(args) -> int:
    lam, mu = _parse_common(args)
    try:
        check_dictionary_prime(args.p)
        specht = specht_hom_dim(lam, mu, args.p)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    weyl = hom_dim(lam, mu, args.p)[0]
    report = {
        "command": "oracle",
        "p": args.p,
        "lambda": list(lam),
        "mu": list(mu),
        "weyl_dim": weyl,
        "specht_dim": specht,
        "agree": weyl == specht,
    }
    lines = [
        f"weyl={weyl} specht={specht} agree={weyl == specht}",
    ]
    _emit(report, args.format, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylhom",
        description="Hom spaces between Weyl modules over GF(p) and row-stabilization checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_kd=False):
        sp.add_argument("-p", type=int, required=True, help="prime characteristic")
        sp.add_argument("--lambda", dest="lam", required=True, help='source partition, e.g. "8,3" or "28,5,2^9"')
        sp.add_argument("--mu", required=True, help="target partition")
        if with_kd:
            sp.add_argument("-k", type=int, default=1)
            sp.add_argument("-d", type=int, default=1)
        sp.add_argument("--format", choices=("json", "text"), default="text")

    sp = sub.add_parser("dim", help="dimension of Hom(Delta(lambda), Delta(mu))")
    add_common(sp)
    sp.set_defaults(func=cmd_dim, with_basis=False)

    sp = sub.add_parser("basis", help="dimension and explicit Hom basis")
    add_common(sp)
    sp.set_defaults(func=cmd_dim, with_basis=True)

    sp = sub.add_parser("verify", help="check the row-stabilization theorem for one case")
    add_common(sp, with_kd=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("scan", help="verify the theorem over a degree/prime/k/d grid")
    sp.add_argument("--max-degree", type=int, required=True)
    sp.add_argument("--primes", default="3,5")
    sp.add_argument("--k-values", default="1,2")
    sp.add_argument("--d-values", default="1,2")
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("oracle", help="compare with the symmetric-group Specht oracle")
    add_common(sp)
    sp.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        # a bad knob fails every command, not only the ones that read it
        config.expansion_limit()
        config.worker_count()
        config.scan_degree_cap()
        config.specht_degree_bound()
        return args.func(args)
    except (CliError, config.ConfigError, ExpansionLimitError, FirstRowTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input too deep: Python's recursion limit was reached", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
