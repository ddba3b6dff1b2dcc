import json
import sys

import pytest

from conftest import run_python
import weylhom.cli as cli
from weylhom import config, homspace
from weylhom.homspace import StabilizationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_dim_json(capsys):
    code, report = run_json(
        capsys, "dim", "-p", "3", "--lambda", "8,3", "--mu", "11", "--format", "json"
    )
    assert code == 0
    assert report["dim"] == 1
    assert report["lambda"] == [8, 3] and report["mu"] == [11]
    assert report["std_count"] == 1


def test_dim_empty_standard_set(capsys):
    code, report = run_json(
        capsys, "dim", "-p", "3", "--lambda", "2", "--mu", "1,1", "--format", "json"
    )
    assert code == 0 and report["dim"] == 0


def test_basis_lists_tableau_indexed_vectors(capsys):
    code, report = run_json(
        capsys,
        "basis",
        "-p",
        "3",
        "--lambda",
        "1,1,1,1",
        "--mu",
        "2,2",
        "--format",
        "json",
    )
    assert code == 0
    assert report["dim"] == 1
    assert report["basis"] == [{"13 | 24": 2, "12 | 34": 1}]


def test_verify_counterexample_exit_zero(capsys):
    code, report = run_json(
        capsys,
        "verify",
        "-p",
        "3",
        "--lambda",
        "1,1,1,1",
        "--mu",
        "2,2",
        "-k",
        "1",
        "-d",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    assert report["hypotheses"] == {"power": True, "overlap": False, "both": False}
    assert [report["dim"], report["dim_plus"]] == [1, 0]
    assert report["theorem_violated"] is False


def test_verify_good_case(capsys):
    code, report = run_json(
        capsys,
        "verify",
        "-p",
        "3",
        "--lambda",
        "3,1",
        "--mu",
        "4",
        "-k",
        "1",
        "-d",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    assert report["hypotheses"]["both"] is True
    assert report["correspondence_verified"] is True


def test_repetition_shorthand(capsys):
    code, report = run_json(
        capsys,
        "dim",
        "-p",
        "3",
        "--lambda",
        "4,2^2",
        "--mu",
        "5,3",
        "--format",
        "json",
    )
    assert code == 0
    assert report["lambda"] == [4, 2, 2]


def test_invalid_inputs_exit_one(capsys):
    code, out, err = run(capsys, "dim", "-p", "4", "--lambda", "2", "--mu", "1,1")
    assert code == 1 and "not prime" in err
    code, out, err = run(capsys, "dim", "-p", "3", "--lambda", "3,,1", "--mu", "4")
    assert code == 1 and "position" in err
    code, out, err = run(capsys, "dim", "-p", "3", "--lambda", "2", "--mu", "3")
    assert code == 1 and "degree mismatch" in err
    # a repetition count past the index range: one line, no traceback
    code, out, err = run(capsys, "dim", "-p", "3", "--lambda", "1^99999999999999999999", "--mu", "2")
    assert code == 1 and out == ""
    assert err == (
        "error: bad partition: repetition '1^99999999999999999999' at position 0 is too large\n"
    )
    code, out, err = run(capsys, "nonsense")
    assert code == 1


def test_verify_rejects_negative_k_and_d(capsys):
    for flag in ("-k", "-d"):
        code, out, err = run(
            capsys, "verify", "-p", "3", "--lambda", "2,1", "--mu", "3", flag, "-1"
        )
        assert code == 1 and out == ""
        assert err == f"error: {flag} must be nonnegative, got -1\n"


def test_deep_input_exits_one_with_one_line(capsys, monkeypatch):
    # input past Python's recursion limit, stood in for by a library call
    # that raises RecursionError
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "hom_dim", too_deep)
    code, out, err = run(capsys, "dim", "-p", "3", "--lambda", "2,1", "--mu", "3")
    assert code == 1 and out == ""
    assert err == "error: input too deep: Python's recursion limit was reached\n"


def test_a_weight_of_1200_entries_is_computed(capsys):
    # the strip enumeration takes one step per weight entry, with no frame
    # per entry, so a weight 1^1200 is past no recursion limit
    code, report = run_json(
        capsys, "dim", "-p", "3", "--lambda", "1^1200", "--mu", "1200", "--format", "json"
    )
    assert code == 0
    assert report["dim"] == 0 and report["std_count"] == 1


def test_oracle_on_a_row_of_1200_is_computed(capsys, monkeypatch):
    # both sides of the oracle on a degree-1200 one-row pair: no recursion
    # limit on the Specht side's standard tableaux
    monkeypatch.setenv("WEYLHOM_SPECHT_BOUND", "1200")
    code, report = run_json(
        capsys, "oracle", "-p", "3", "--lambda", "1200", "--mu", "1200", "--format", "json"
    )
    assert code == 0
    assert report["agree"] is True and report["specht_dim"] == 1 and report["weyl_dim"] == 1


def test_budget_counts_what_dprime_deals(capsys, monkeypatch):
    # dealt over every column order, a class of 1^12 in shape (10, 2) has
    # 7,257,600 terms; dprime deals about a hundred, inside any budget here
    argv = ["dim", "-p", "3", "--lambda", "1^12", "--mu", "10,2", "--format", "json"]
    code, report = run_json(capsys, *argv)
    assert code == 0 and report["dim"] == 0
    monkeypatch.setenv("WEYLHOM_EXPANSION_LIMIT", "1000")
    assert run_json(capsys, *argv)[1]["dim"] == 0


def test_verify_refuses_a_first_row_too_long_to_print(capsys, monkeypatch):
    # 3^10000 has 4772 digits, past Python's default int-to-str limit of 4300,
    # so the report could not print the stabilized rows: verify_stabilization
    # refuses them before any Hom space is computed
    def never(*args):
        raise AssertionError("hom_dim ran")

    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    monkeypatch.setattr(homspace, "hom_dim", never)
    monkeypatch.setattr(homspace, "_hom", never)
    code, out, err = run(capsys, "verify", "-p", "3", "--lambda", "2,1", "--mu", "3", "-d", "10000")
    assert code == 1 and out == ""
    assert err == "error: k*p^d = 1*3^10000 is too large: a first row would exceed 4300 digits\n"


@pytest.mark.parametrize("k, d", [("1", "3000"), ("0", "10000")])
def test_verify_prints_long_first_rows_within_the_limit(capsys, k, d):
    # 3^3000 has 1432 digits; with k = 0 nothing is added whatever d is
    code, report = run_json(
        capsys, "verify", "-p", "3", "--lambda", "2,1", "--mu", "3", "-k", k, "-d", d,
        "--format", "json",
    )
    assert code == 0
    assert report["lambda_plus"] == [2 + int(k) * 3 ** int(d), 1]
    assert report["dim"] == report["dim_plus"] == 1


def run_module(argv, str_digits=None):
    return run_python(["-m", "weylhom", *argv], str_digits)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "-p", "3", "--lambda", "2,1", "--mu", "3", "-k", "0", "-d", "100000000000"],
        ["scan", "--max-degree", "3", "--k-values", "0", "--d-values", "100000000000"],
    ],
)
def test_k_zero_with_huge_d_finishes(argv):
    # with k = 0 nothing is added, so 3^(10^11) is never computed, neither
    # for the stabilized rows nor for the hypothesis p^d > min(...)
    proc = run_module(argv)
    assert proc.returncode == 0, proc.stderr


def test_huge_prime_finishes():
    # Miller-Rabin, not trial division up to 10^9
    proc = run_module(["dim", "-p", "1000000000000000003", "--lambda", "1", "--mu", "1"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "dim Hom(Delta(1), Delta(1)) = 1 over GF(1000000000000000003)\n"


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["dim", "-p", "3317044064679887385961981", "--lambda", "1", "--mu", "1"], "error: "),
        (["scan", "--max-degree", "1", "--primes", "3317044064679887385961981"], "error: bad scan grid: "),
    ],
)
def test_modulus_past_the_primality_bound_exits_one(capsys, argv, prefix):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == (
        f"{prefix}modulus 3317044064679887385961981 is too large: primality is"
        " decided exactly below 3317044064679887385961981\n"
    )


# a limit of 0 switches Python's int-to-str check off; the first-row rule
# then falls back to the interpreter default of 4300 digits
STR_DIGITS = pytest.mark.parametrize("str_digits", [None, "0"], ids=["limit-unset", "limit-0"])


@STR_DIGITS
def test_scan_refuses_a_huge_first_row_before_any_work(str_digits):
    # 3^(10^11) would never finish in shapes.stabilize: the first-row rule
    # that verify applies refuses it, with the effective degree as the row
    argv = ["scan", "--max-degree", "1", "--primes", "3", "--k-values", "1", "--d-values", "100000000000"]
    proc = run_module(argv, str_digits)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: k*p^d = 1*3^100000000000 is too large: a first row would exceed 4300 digits\n"


@STR_DIGITS
def test_verify_refuses_a_huge_first_row_before_any_work(str_digits):
    proc = run_module(["verify", "-p", "3", "--lambda", "2,1", "--mu", "3", "-d", "100000000000"], str_digits)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: k*p^d = 1*3^100000000000 is too large: a first row would exceed 4300 digits\n"


def test_scan_checks_every_grid_point(capsys, monkeypatch):
    # with a 1-digit limit, 3 + 3^2 = 12 is too long for degree 3 while
    # 0 + 3^2 = 9 fits degree 0: the effective degree is the first row, one
    # (p, k, d) refuses the whole grid before any work, and k = 0 never does
    def never(*args):
        raise AssertionError("the scan did work")

    grid = ["--primes", "3", "--k-values", "0,1", "--d-values", "1,2", "--format", "json"]
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 1, raising=False)
    all_partitions = cli.all_partitions
    monkeypatch.setattr(cli, "all_partitions", never)
    code, out, err = run(capsys, "scan", "--max-degree", "3", *grid)
    assert code == 1 and out == ""
    assert err == "error: k*p^d = 1*3^2 is too large: a first row would exceed 1 digits\n"
    monkeypatch.setattr(cli, "all_partitions", all_partitions)
    code, report = run_json(capsys, "scan", "--max-degree", "0", *grid)
    assert code == 0 and len(report["cases"]) == 4
    monkeypatch.undo()
    code, report = run_json(
        capsys, "scan", "--max-degree", "3", "--primes", "3", "--k-values", "0", "--d-values", "100000000000",
        "--format", "json",
    )
    assert code == 0 and report["summary"]["fail"] == 0


def test_scan_rejects_negative_k_and_d(capsys):
    for flag in ("--k-values", "--d-values"):
        code, out, err = run(capsys, "scan", "--max-degree", "2", flag, "1,-1")
        assert code == 1 and out == ""
        assert err == f"error: {flag} must be nonnegative, got 1,-1\n"
    code, out, err = run(capsys, "scan", "--max-degree", "-2")
    assert code == 1 and out == ""
    assert err == "error: --max-degree must be nonnegative, got -2\n"


SCAN_2 = ["scan", "--max-degree", "2"]
DIM_2_2 = ["dim", "-p", "2", "--lambda", "1,1,1,1", "--mu", "2,2"]
DIM_3 = ["dim", "-p", "3", "--lambda", "2,1", "--mu", "3"]
# a dim that needs five exterior solves, however few columns stay live
DIM_1_5 = ["dim", "-p", "2", "--lambda", "1^5", "--mu", "2,2,1"]


@pytest.mark.parametrize(
    "name, value, argv, message",
    [
        # ids in pytest's default name-value-argv form, left out of the message
        pytest.param(*case, id=f"{case[0]}-{case[1]}-argv{i}")
        for i, case in enumerate([
            ("WEYLHOM_WORKERS", "abc", SCAN_2, "must be an integer"),
            ("WEYLHOM_MAX_SCAN_DEGREE", "abc", SCAN_2, "must be an integer"),
            ("WEYLHOM_EXPANSION_LIMIT", "1", DIM_1_5, "beyond the budget"),
            ("WEYLHOM_MAX_SCAN_DEGREE", "-3", SCAN_2, "must be at least 0"),
            ("WEYLHOM_EXPANSION_LIMIT", "0", DIM_2_2, "must be at least 1"),
            ("WEYLHOM_EXPANSION_LIMIT", "-1", DIM_2_2, "must be at least 1"),
            # a dim that never reaches an exterior solve or the oracle
            ("WEYLHOM_EXPANSION_LIMIT", "-1", DIM_3, "must be at least 1"),
            ("WEYLHOM_SPECHT_BOUND", "abc", DIM_3, "must be an integer"),
            ("WEYLHOM_SPECHT_BOUND", "-1", DIM_3, "must be at least 0"),
        ])
    ],
)
def test_bad_limits_exit_one_with_one_line(capsys, monkeypatch, name, value, argv, message):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_bad_knob_fails_every_command(capsys, monkeypatch):
    # every knob is read before dispatch, whether or not the command uses it
    commands = [
        DIM_3,
        ["basis", "-p", "3", "--lambda", "2,1", "--mu", "3"],
        ["verify", "-p", "3", "--lambda", "2,1", "--mu", "3"],
        ["oracle", "-p", "3", "--lambda", "2,1", "--mu", "3"],
        ["scan", "--max-degree", "1"],
    ]
    knobs = [
        "WEYLHOM_EXPANSION_LIMIT",
        "WEYLHOM_WORKERS",
        "WEYLHOM_MAX_SCAN_DEGREE",
        "WEYLHOM_SPECHT_BOUND",
    ]
    for name in knobs:
        monkeypatch.setenv(name, "zz")
        for argv in commands:
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", (name, argv)
            assert err == f"error: {name} must be an integer, got 'zz'\n", (name, argv)
        monkeypatch.delenv(name)


def test_worker_count_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setenv("WEYLHOM_WORKERS", "1000000")
    monkeypatch.setattr(config.os, "cpu_count", lambda: 3)
    assert config.worker_count() == 3
    monkeypatch.setattr(config.os, "cpu_count", lambda: None)
    assert config.worker_count() == 1
    monkeypatch.setenv("WEYLHOM_WORKERS", "0")
    monkeypatch.setattr(config.os, "cpu_count", lambda: 3)
    assert config.worker_count() == 1


def test_scan_text_and_json(capsys):
    code, report = run_json(
        capsys,
        "scan",
        "--max-degree",
        "3",
        "--primes",
        "3",
        "--k-values",
        "1",
        "--d-values",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    assert report["complete"] is True
    assert report["summary"]["fail"] == 0
    assert len(report["cases"]) == 1 + 1 + 4 + 9
    # deterministic enumeration order: degree ascending, shapes in lex order
    assert report["cases"][0]["lambda"] == []
    assert report["cases"][-1]["p"] == 3


def test_scan_respects_degree_cap(capsys, monkeypatch):
    monkeypatch.setenv("WEYLHOM_MAX_SCAN_DEGREE", "2")
    code, report = run_json(
        capsys,
        "scan",
        "--max-degree",
        "5",
        "--primes",
        "3",
        "--k-values",
        "1",
        "--d-values",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    assert report["complete"] is False
    assert report["effective_degree"] == 2


def test_scan_worker_pool_preserves_order(capsys, monkeypatch):
    argv = ["scan", "--max-degree", "4", "--format", "json"]
    monkeypatch.setenv("WEYLHOM_WORKERS", "1")
    _, sequential, _ = run(capsys, *argv)
    monkeypatch.setenv("WEYLHOM_WORKERS", "2")
    _, pooled, _ = run(capsys, *argv)
    assert pooled == sequential  # byte-identical report


def test_scan_counterexample_case_reported_as_skipped():
    res = cli._scan_case(((8, 3), (11,), 3, 1, 1))
    assert res["status"] == "skipped_dims_differ"
    assert res["dim"] == 1 and res["dim_plus"] == 0


def test_oracle_command(capsys):
    code, report = run_json(
        capsys, "oracle", "-p", "3", "--lambda", "2,1", "--mu", "3", "--format", "json"
    )
    assert code == 0
    assert report == {
        "agree": True,
        "command": "oracle",
        "lambda": [2, 1],
        "mu": [3],
        "p": 3,
        "specht_dim": 1,
        "weyl_dim": 1,
    }
    code, out, err = run(capsys, "oracle", "-p", "2", "--lambda", "2,1", "--mu", "3")
    assert code == 1 and "p > 2" in err


def test_json_reports_are_deterministic(capsys):
    argv = ["verify", "-p", "3", "--lambda", "3,1", "--mu", "4", "--format", "json"]
    _, first = run_json(capsys, *argv)
    _, second = run_json(capsys, *argv)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "dim", "-p", "3", "--lambda", "8,3", "--mu", "11", "--format", "json"
    )
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report


def test_exit_two_wiring(capsys, monkeypatch):
    # a violated conclusion under satisfied hypotheses cannot be produced by
    # the mathematics, so fake one to check the sentinel exit code
    broken = StabilizationReport(
        p=3,
        k=1,
        d=1,
        lam=(2, 1),
        mu=(3,),
        lam_plus=(5, 1),
        mu_plus=(6,),
        hyp_power=True,
        hyp_overlap=True,
        dim=1,
        dim_plus=0,
        basis=(),
        basis_plus=(),
        transport_in_kernel=False,
        correspondence_verified=False,
    )
    monkeypatch.setattr(cli, "verify_stabilization", lambda *a, **k: broken)
    code, out, err = run(
        capsys, "verify", "-p", "3", "--lambda", "2,1", "--mu", "3", "--format", "json"
    )
    assert code == 2
    assert json.loads(out)["theorem_violated"] is True


def test_text_format_human_readable(capsys):
    code, out, err = run(capsys, "dim", "-p", "3", "--lambda", "8,3", "--mu", "11")
    assert code == 0
    assert "dim Hom(Delta(8,3), Delta(11)) = 1 over GF(3)" in out
