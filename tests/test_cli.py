"""Command-line interface: pass-through values, CSV round-trips, exit codes."""

import argparse
import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import boxkernel
from boxkernel import pathsum, spectral, verify
from boxkernel import SUITES, DomainError, PathSumConfig, TruncationPolicy, compare_methods, kernel_closed, kernel_spectral, run_suites
from boxkernel.cli import EXIT_CHECK_FAILED, EXIT_DOMAIN, EXIT_OK, EXIT_POLICY, EXIT_USAGE, _fmt, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernelCommand:
    def test_matches_library_call(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--nu", "1", "--lambda", "0.5",
            "--theta", "1.0", "--theta-p", "2.0", "--method", "spectral",
        )
        assert code == EXIT_OK
        value = float(next(l for l in out.splitlines() if l.startswith("value_re:")).split(":")[1])
        assert value == kernel_spectral(1.0, 1.0, 2.0, 0.5).real

    def test_csv_value_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--nu", "1.3", "--lambda", "0.2",
            "--theta", "1.0", "--theta-p", "1.4", "--method", "pathsum-general",
            "--output", "csv",
        )
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header == "value_re,value_im"
        re_s, im_s = row.split(",")
        from boxkernel import kernel_pathsum_general

        ref = kernel_pathsum_general(1.3, 1.0, 1.4, 0.2).value
        assert float(re_s) == ref.real
        assert float(im_s) == ref.imag


    @pytest.mark.parametrize(
        "spelling, method",
        [
            ("spectral", "spectral"),
            ("closed", "closed_form"),
            ("closed-form", "closed_form"),
            ("closed_form", "closed_form"),
            ("pathsum-nu1", "path_sum_nu1"),
            ("path-sum-nu1", "path_sum_nu1"),
            ("path_sum_nu1", "path_sum_nu1"),
            ("pathsum_nu1", "path_sum_nu1"),
            ("pathsum-nu2", "path_sum_nu2"),
            ("path-sum-nu2", "path_sum_nu2"),
            ("path_sum_nu2", "path_sum_nu2"),
            ("pathsum_nu2", "path_sum_nu2"),
            ("pathsum-general", "path_sum_general"),
            ("path-sum-general", "path_sum_general"),
            ("path_sum_general", "path_sum_general"),
            ("pathsum_general", "path_sum_general"),
        ],
    )
    def test_every_method_spelling(self, capsys, spelling, method):
        nu = "2" if method == "path_sum_nu2" else "1"
        code, out, _ = run_cli(
            capsys, "kernel", "--nu", nu, "--lambda", "0.5",
            "--theta", "1.0", "--theta-p", "2.0", "--method", spelling,
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == f"method: {method}"


class TestCompareCommand:
    ARGS = (
        "compare", "--nu", "1", "--methods", "spectral,pathsum-nu1",
        "--lambda-chain", "0.4,0.2,0.1", "--theta", "1.0", "--theta-p", "1.3",
        "--output", "csv",
    )

    def test_csv_round_trip_reproduces_report(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == (
            "theta,theta_p,lambda,method_a,method_b,"
            "value_a_re,value_a_im,value_b_re,value_b_im,abs_dev,rel_dev"
        )
        report = compare_methods(1.0, [(1.0, 1.3)], [0.4, 0.2, 0.1], "spectral", "path_sum_nu1")
        assert len(lines) - 1 == len(report.grid)
        for line, (grid_row, va, vb, ad, rd) in zip(
            lines[1:], zip(report.grid, report.value_a, report.value_b, report.abs_dev, report.rel_dev)
        ):
            cells = line.split(",")
            assert (float(cells[0]), float(cells[1]), float(cells[2])) == grid_row
            assert cells[3] == "spectral" and cells[4] == "path_sum_nu1"
            assert float(cells[5]) == va.real and float(cells[6]) == va.imag
            assert float(cells[7]) == vb.real and float(cells[8]) == vb.imag
            assert float(cells[9]) == ad and float(cells[10]) == rd

    def test_csv_rows_are_the_per_row_formatter(self, monkeypatch):
        # the rows come from one template over prefixes formatted once per pair and per lambda; the
        # reference is the per-row f-string, over values that print as nan, +-inf, -0 and subnormals
        from boxkernel import cli

        nan, inf = math.nan, math.inf
        parts = {  # (real parts, imaginary parts) per method, one per row; the second lambda's rows are ordinary
            "spectral": ([nan, inf, 0.1, 1.0 / 3.0, -inf, -0.0, 5e-324, 1e308], [0.0, -0.0, 0.0, 0.0, nan, 1e308, -inf, 5e-324]),
            "path_sum_general": ([-0.0, 5e-324, 0.7, 2.0 / 3.0, 1e308, nan, inf, -1e308], [inf, nan, 1e-17, -0.3, -0.0, 5e-324, 0.0, -1e308]),
        }
        monkeypatch.setattr(verify, "_evaluate_chain", lambda method, *args: list(map(complex, *parts[method])))
        report = compare_methods(2.5, [(0.1, 3.0), (1.0 / 3.0, 5e-324)], [0.4, 1e-3, 1e-300, 5e-324], "spectral", "path_sum_general")

        def reference(report):
            lines = [cli._COMPARE_HEADER]
            for (theta, theta_p, lam), va, vb, ad, rd in zip(report.grid, report.value_a, report.value_b, report.abs_dev, report.rel_dev):
                lines.append(
                    f"{theta:.17g},{theta_p:.17g},{lam:.17g},{report.method_a},{report.method_b},"
                    f"{va.real:.17g},{va.imag:.17g},{vb.real:.17g},{vb.imag:.17g},{ad:.17g},{rd:.17g}"
                )
            return lines

        assert cli._compare_csv(report) == reference(report)
        assert len(reference(report)) == 1 + 8

    def test_exact_identity_stays_tiny(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        rel_devs = [float(l.split(",")[10]) for l in out.strip().splitlines()[1:]]
        assert max(rel_devs) <= 1e-10

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert out1 == out2

    def test_grid_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--nu", "1", "--methods", "spectral,pathsum-nu1",
            "--lambda-chain", "0.5", "--grid-n", "3", "--output", "csv",
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 1 + 9

    def test_grid_angles_are_checked_once(self, capsys, check_calls):
        # the CLI builds the grid inside (0, pi) from its checked flags, and compare_methods checks the two angles
        # of each of the 9 pairs once: 18 calls, where the CLI checking them first made 36
        code, _, _ = run_cli(capsys, "compare", "--nu", "1", "--methods", "spectral,pathsum-nu1", "--lambda-chain", "0.5", "--grid-n", "3")
        assert code == EXIT_OK
        assert check_calls["require_theta"] == 18

    def test_non_halving_chain_prints_no_ratios(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--nu", "2", "--methods", "spectral,pathsum-nu2",
            "--lambda-chain", "0.4,0.3,0.1", "--grid-n", "2", "--output", "pretty",
        )
        assert code == EXIT_OK
        assert "max_rel_dev:" in out
        assert "convergence_ratios" not in out

    def test_halving_chain_prints_the_report_ratios(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--nu", "2.5", "--methods", "spectral,pathsum-general",
            "--lambda-chain", "0.4,0.2,0.1,0.05", "--theta", "1.0", "--theta-p", "1.3", "--output", "pretty",
        )
        report = compare_methods(2.5, [(1.0, 1.3)], [0.4, 0.2, 0.1, 0.05], "spectral", "path_sum_general")
        assert code == EXIT_OK and len(report.convergence_ratios) == 3
        assert out.splitlines()[-1] == "convergence_ratios: " + ",".join(map(_fmt, report.convergence_ratios))


class TestSweepCommand:
    def test_reports_ratios(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--nu", "2", "--methods", "spectral,pathsum-nu2",
            "--lambda-chain", "0.4,0.2,0.1,0.05", "--theta", "1.0", "--theta-p", "1.0",
            "--output", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,max_abs_dev,max_rel_dev,ratio"
        assert len(lines) == 5
        ratios = [float(l.split(",")[3]) for l in lines[2:]]
        assert all(r > 1.0 for r in ratios)  # deviations shrink along the chain

    def test_csv_rows_are_the_report_per_lambda(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--nu", "2", "--methods", "spectral,pathsum-nu2",
            "--lambda-chain", "0.4,0.2,0.1,0.05", "--grid-n", "3", "--output", "csv",
        )
        assert code == EXIT_OK
        margin = math.pi / 10.0
        step = (math.pi - 2.0 * margin) / 2
        axis = [margin + i * step for i in range(3)]
        grid = [(a, b) for a in axis for b in axis]
        report = compare_methods(2.0, grid, [0.4, 0.2, 0.1, 0.05], "spectral", "path_sum_nu2")
        expected, prev = [], None
        for lam, max_abs, max_rel in report.per_lambda:
            ratio = "" if prev is None else format(prev / max_rel, ".17g")
            expected.append(f"{format(lam, '.17g')},{format(max_abs, '.17g')},{format(max_rel, '.17g')},{ratio}")
            prev = max_rel
        assert out.splitlines()[1:] == expected

    def test_identical_methods_print_inf_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--nu", "1", "--methods", "spectral,spectral",
            "--lambda-chain", "0.4,0.3", "--grid-n", "2", "--output", "csv",
        )
        assert code == EXIT_OK
        assert out.splitlines()[1:] == ["0.40000000000000002,0,0,", "0.29999999999999999,0,0,inf"]


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "phases")
        assert code == EXIT_OK
        assert "[pass] phases" in out

    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--nu", "2.7")
        assert code == EXIT_OK
        assert "all suites passed" in out
        assert "FAIL" not in out

    def test_csv_rows_are_the_library_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--nu", "2.7", "--output", "csv")
        assert code == EXIT_OK
        expected = [
            f"{suite},\"{check}\",{format(measured, '.17g')},"
            f"{'' if math.isinf(tol) else format(tol, '.17g')},{'pass' if passed else 'FAIL'}"
            for suite, check, measured, tol, passed in run_suites(SUITES, 2.7)
        ]
        assert out.splitlines() == ["suite,check,measured,tolerance,status"] + expected

    def test_suite_choices_come_from_the_registry(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == ("all",) + SUITES

    def test_refused_suite_keeps_the_other_rows(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--nu", "40")
        assert code == EXIT_DOMAIN
        assert err.startswith("domain error: semigroup: ") and len(err.splitlines()) == 1
        assert "underflows" in err
        for suite in SUITES:
            assert (f"] {suite}: " in out) == (suite != "semigroup"), suite
        assert out.splitlines()[-1] == "FAILURES detected"

    def test_orthonormality_at_large_nu_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--nu", "40", "--suite", "orthonormality")
        assert code == EXIT_OK
        assert "[pass] orthonormality" in out


class TestExitCodes:
    def test_usage_error_is_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["kernel", "--nu", "1"])  # missing required flags
        assert excinfo.value.code == 2

    def test_domain_error_names_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "kernel", "--nu", "1", "--lambda", "0.5",
            "--theta", "4.0", "--theta-p", "2.0", "--method", "spectral",
        )
        assert code == EXIT_DOMAIN
        assert "--theta" in err

    def test_domain_error_on_nu(self, capsys):
        code, _, err = run_cli(
            capsys, "kernel", "--nu", "0.3", "--lambda", "0.5",
            "--theta", "1.0", "--theta-p", "2.0", "--method", "spectral",
        )
        assert code == EXIT_DOMAIN
        assert "nu" in err

    def test_policy_unresolvable_is_exit_4(self, capsys):
        code, _, err = run_cli(
            capsys, "kernel", "--nu", "1", "--lambda", "1e-7",
            "--theta", "1.0", "--theta-p", "1.1", "--method", "spectral",
            "--n-cap", "50",
        )
        assert code == EXIT_POLICY
        assert "unresolvable" in err

    def test_infinite_tail_target_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "kernel", "--nu", "1", "--lambda", "0.5",
            "--theta", "1.0", "--theta-p", "2.0", "--method", "spectral",
            "--epsilon-tail", "inf",
        )
        assert code == EXIT_DOMAIN
        assert "epsilon_tail" in err

    def test_tail_target_is_validated_with_fixed_terms(self, capsys):
        code, _, err = run_cli(
            capsys, "kernel", "--nu", "1", "--lambda", "0.5",
            "--theta", "1.0", "--theta-p", "2.0", "--method", "spectral",
            "--n-terms", "5", "--epsilon-tail", "inf",
        )
        assert code == EXIT_DOMAIN
        assert "epsilon_tail" in err

    def test_unknown_method_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "kernel", "--nu", "1", "--lambda", "0.5",
            "--theta", "1.0", "--theta-p", "2.0", "--method", "sorcery",
        )
        assert code == EXIT_DOMAIN
        assert "method" in err

    def test_path_sum_overflow_is_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "kernel", "--nu", "2.5", "--theta", "1e-200", "--theta-p", "1",
            "--lambda", "0.1", "--method", "pathsum-general",
        )
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("overflow:") and len(err.splitlines()) == 1

    def test_path_sum_overflow_in_compare_is_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--nu", "2.5", "--methods", "spectral,pathsum-general",
            "--lambda-chain", "5", "--grid-n", "3", "--grid-margin", "0.01",
        )
        assert code == EXIT_DOMAIN
        assert err.startswith("overflow:")

    @pytest.mark.parametrize("nu, theta, method, route, lam", [
        ("2.5", "1e-200", "pathsum-general", "path sum", "0.1"),  # sin theta sin theta' underflows to 0
        ("1e160", "1", "pathsum-general", "path sum", "0.1"),  # nu (nu - 1) overflows
        ("1", "1", "spectral", "spectral sum", "1e308"),  # lambda (n + nu)^2 / 2 overflows
        ("1e160", "1", "closed-form", "Bessel function", "0.1"),  # the order is past ive's range: NaN
    ])
    def test_correction_or_weights_past_the_float_range_name_the_route(self, capsys, nu, theta, method, route, lam):
        code, out, err = run_cli(
            capsys, "kernel", "--nu", nu, "--theta", theta, "--theta-p", theta, "--lambda", lam, "--method", method,
        )
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith(f"domain error: {route}: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("nu, methods, chain, code, message", [
        # 5e306 / sin(0.01)^2 leaves the float range inside the array image sum over 28 pairs
        ("1e154", "pathsum-general,spectral", "0.1", EXIT_DOMAIN, "domain error: path sum: "),
        # every saddle distance squared over 2 lambda leaves the float range; the spectral sum then refuses
        ("1", "pathsum-nu1,spectral", "1e-307", EXIT_POLICY, "truncation policy unresolvable: "),
    ])
    def test_compare_past_the_float_range_writes_only_the_refusal(self, capsys, array_sums, nu, methods, chain, code, message):
        # a 7x7 grid's 28 unordered pairs reach the path sums' array threshold; numpy's float warnings
        # there must not reach stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run_cli(
                capsys, "compare", "--nu", nu, "--methods", methods, "--lambda-chain", chain,
                "--grid-n", "7", "--grid-margin", "0.01",
            )
        assert array_sums[0] == (28, DomainError if nu == "1e154" else None) and 28 >= pathsum._ARRAY_MIN_POINTS
        assert got == code
        assert out == "" and err.startswith(message) and len(err.splitlines()) == 1

    def test_norms_past_float_precision_write_only_the_refusal(self, capsys):
        # from nu ~ 1e16 a log1p ratio of the norms is -inf; numpy's divide warning must not reach stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "kernel", "--nu", "1e17", "--theta", "1", "--theta-p", "1", "--lambda", "1e-30",
                "--method", "spectral", "--n-terms", "100",
            )
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("domain error: eigenfunction table") and len(err.splitlines()) == 1

    def test_norms_past_their_accuracy_are_exit_3(self, capsys):
        # the one kept mode's norm was off by e^4.9: the command printed 2.03e11 where mpmath gives 1.08e7
        code, out, err = run_cli(
            capsys, "kernel", "--nu", "1e15", "--theta", "1.5707963267948966", "--theta-p", "1.5707963267948966",
            "--lambda", "1e-30", "--method", "spectral", "--n-terms", "1",
        )
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("domain error: eigenfunction table") and "nu <= 10000" in err

    @pytest.mark.parametrize("nu, n_cap", [("15000", "4096"), ("15000", "100000"), ("1e160", "4096")])
    def test_coupling_past_the_norms_range_is_exit_3_before_any_resolve(self, capsys, monkeypatch, nu, n_cap):
        # the documented exit 3 for nu > 1e4, whatever the cap; at the default cap nu = 15000 scanned
        # 4,096 tail bounds and exited 4, and nu = 1e160 refused for the weights' float range
        calls = []
        monkeypatch.setattr(spectral, "_tail_bound", lambda *args: calls.append(args))
        code, out, err = run_cli(
            capsys, "kernel", "--nu", nu, "--theta", "1", "--theta-p", "1.2", "--lambda", "1e-4",
            "--method", "spectral", "--n-cap", n_cap,
        )
        assert (code, out, calls) == (EXIT_DOMAIN, "", [])
        assert err == f"domain error: eigenfunction table: the normalisation is accurate for nu <= 10000 only, got nu = {float(nu):g}\n"

    def test_a_refused_chain_is_replayed_point_by_point_at_the_refusing_lambda_only(self, capsys, monkeypatch):
        # the spectral sum refuses at lambda = 1e-7; the chain cores run again one lambda at a time and
        # refuse at 1e-7 as the scalar kernel does, so no scalar kernel is called
        calls = []
        scalar = verify.evaluate_method
        monkeypatch.setattr(verify, "evaluate_method", lambda *args: calls.append(args[:5]) or scalar(*args))
        code, out, err = run_cli(
            capsys, "compare", "--nu", "2.5", "--methods", "spectral,pathsum-general",
            "--lambda-chain", "0.4,0.2,0.1,1e-7", "--grid-n", "40",
        )
        assert code == EXIT_POLICY and out == "" and "lambda=1e-07" in err
        assert calls == []

    def test_spectral_tail_overflow_is_the_term_cap(self, capsys):
        code, out, err = run_cli(
            capsys, "kernel", "--nu", "168.28", "--theta", "0.00268", "--theta-p", "1.180",
            "--lambda", "1.03e-4", "--method", "spectral",
        )
        assert code == EXIT_POLICY
        assert out == "" and "4096 modes" in err and "path-sum" not in err

    def test_overflowing_eigenfunction_table_is_exit_3(self, capsys):
        # the wall angle's C_n^nu leaves the float range; the recurrence on the bounded phi_n gives the
        # library's value, 0.0 (the sum lies far below the float range), and exit 0
        code, out, err = run_cli(
            capsys, "kernel", "--nu", "90.733019776225", "--theta", "1.1191147329250895e-08",
            "--theta-p", "0.3725420803085231", "--lambda", "0.00012424117182030517", "--method", "spectral",
        )
        assert code == EXIT_OK and err == ""
        value = float(next(l for l in out.splitlines() if l.startswith("value_re:")).split(":")[1])
        expected = kernel_spectral(90.733019776225, 1.1191147329250895e-08, 0.3725420803085231, 0.00012424117182030517)
        assert math.isfinite(value) and value == expected.real == 0.0
        assert "terms_used: 3371" in out

    def test_underflowed_semigroup_reference_is_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--nu", "40", "--suite", "semigroup")
        assert code == EXIT_DOMAIN
        assert "underflows" in err

    def test_theta_outside_pi_in_grid(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--nu", "1", "--methods", "spectral,pathsum-nu1",
            "--lambda-chain", "0.4", "--theta", "1.0", "--theta-p", str(math.pi + 0.1),
        )
        assert code == EXIT_DOMAIN


class TestUsageErrors:
    BASE = ("--nu", "1", "--methods", "spectral,closed")

    @pytest.mark.parametrize("argv, message", [
        (("--lambda-chain", "0.4,x", "--grid-n", "2"), "--lambda-chain must be comma-separated floats: could not convert string to float: 'x'"),
        (("--lambda-chain", ",", "--grid-n", "2"), "--lambda-chain is empty"),
        (("--lambda-chain", "0.4", "--grid-n", "0"), "--grid-n must be >= 1"),
        # N^2 pairs are built as a list before any evaluation: past 316 (99,856 pairs), --grid-n 100000 grew memory
        (("--lambda-chain", "0.4", "--grid-n", "317"), "--grid-n must be at most 316 (100000 pairs), got 317"),
        (("--lambda-chain", "0.4", "--grid-n", "100000"), "--grid-n must be at most 316 (100000 pairs), got 100000"),
        (("--lambda-chain", "0.4", "--grid-n", "2", "--grid-margin", "0"), "--grid-margin must lie in (0, pi/2)"),
        (("--lambda-chain", "0.4", "--grid-n", "2", "--grid-margin", "1.6"), "--grid-margin must lie in (0, pi/2)"),
        (("--lambda-chain", "0.4", "--theta", "1"), "provide either --grid-n or both --theta and --theta-p"),
        (("--lambda-chain", "0.4"), "provide either --grid-n or both --theta and --theta-p"),
        # the grid was used and the angle dropped without a word
        (("--lambda-chain", "0.4", "--grid-n", "2", "--theta", "1"), "provide either --grid-n or both --theta and --theta-p"),
        (("--lambda-chain", "0.4", "--grid-n", "2", "--theta-p", "1"), "provide either --grid-n or both --theta and --theta-p"),
    ])
    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_malformed_grid_or_chain_is_exit_3(self, capsys, command, argv, message):
        code, out, err = run_cli(capsys, command, *self.BASE, *argv)
        assert (code, out, err) == (EXIT_DOMAIN, "", f"domain error: {message}\n")

    @pytest.mark.parametrize("margin, grid_n", [("5e-324", 3), ("1e-300", 3), ("1e-17", 3), ("5e-16", 100)])
    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_a_margin_whose_last_angle_rounds_onto_pi_is_exit_3(self, capsys, command, margin, grid_n):
        # margin + (N - 1) step rounds onto pi; the refusal was "--theta-p/--grid-n must lie strictly inside (0, pi),
        # got 3.141592653589793", naming a flag that was not given
        code, out, err = run_cli(capsys, command, *self.BASE, "--lambda-chain", "0.4", "--grid-n", str(grid_n), "--grid-margin", margin)
        assert (code, out, err) == (EXIT_DOMAIN, "", f"domain error: --grid-margin {float(margin)!r} puts the last of {grid_n} grid angles on pi\n")

    @pytest.mark.parametrize("margin", ["5e-16", "1e-15"])
    def test_a_margin_whose_last_angle_stays_below_pi_builds_a_grid(self, capsys, margin):
        # at --grid-n 3 the last angle of 5e-16 is 3.1415926535897927, one ulp below pi
        code, out, err = run_cli(capsys, "compare", *self.BASE, "--lambda-chain", "0.4", "--grid-n", "3", "--grid-margin", margin, "--output", "csv")
        angles = {float(theta) for line in out.splitlines()[1:] for theta in line.split(",")[:2]}
        assert (code, err, len(out.splitlines())) == (EXIT_OK, "", 1 + 9)
        assert len(angles) == 3 and 0.0 < min(angles) and max(angles) < math.pi

    @pytest.mark.parametrize("methods", ["spectral", "spectral,closed,pathsum-nu1", ","])
    def test_methods_need_exactly_two_tags(self, capsys, methods):
        code, out, err = run_cli(capsys, "sweep", "--nu", "1", "--methods", methods, "--lambda-chain", "0.4", "--grid-n", "2")
        assert (code, out, err) == (EXIT_DOMAIN, "", "domain error: --methods needs exactly two comma-separated method tags\n")


class TestOutputPath:
    @pytest.mark.parametrize("argv", [
        ("kernel", "--nu", "2.5", "--lambda", "0.05", "--theta", "0.02", "--theta-p", "1.3", "--method", "pathsum-general"),
        ("compare", "--nu", "2.5", "--methods", "spectral,pathsum-general", "--lambda-chain", "0.4,0.2", "--grid-n", "3", "--output", "csv"),
        ("sweep", "--nu", "2", "--methods", "spectral,pathsum-nu2", "--lambda-chain", "0.4,0.2", "--grid-n", "2"),
        ("verify", "--suite", "phases", "--output", "csv"),
    ])
    def test_file_holds_exactly_the_stdout_bytes(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv)
        path = tmp_path / "out.txt"
        code_to_file, out_to_file, err_to_file = run_cli(capsys, *argv, "--output-path", str(path))
        assert (code_to_file, out_to_file, err_to_file) == (code, "", err) and code == EXIT_OK
        assert path.read_bytes() == out.encode()

    def test_an_unwritable_path_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.csv"
        argv = ("kernel", "--nu", "1", "--lambda", "0.5", "--theta", "1", "--theta-p", "2", "--method", "spectral")
        code, out, err = run_cli(capsys, *argv, "--output-path", str(path))
        assert (code, out) == (EXIT_USAGE, "") and not path.parent.exists()
        assert err == f"usage error: cannot write --output-path {path}: {os.strerror(errno.ENOENT)}\n"

    def test_a_failing_stdout_propagates(self, capsys, monkeypatch):
        # an OSError without --output-path is not the file's: no exit 2 and no usage error, the error propagates
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            main(["kernel", "--nu", "1", "--lambda", "0.5", "--theta", "1", "--theta-p", "2", "--method", "spectral"])
        assert capsys.readouterr().err == ""


class TestDefaults:
    REQUIRED = {
        "kernel": ("--nu", "1", "--lambda", "0.5", "--theta", "1", "--theta-p", "2", "--method", "spectral"),
        "compare": ("--nu", "1", "--methods", "spectral,closed", "--lambda-chain", "0.4"),
        "sweep": ("--nu", "1", "--methods", "spectral,closed", "--lambda-chain", "0.4"),
        "verify": (),
    }

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_parsed_defaults_are_the_config_defaults(self, command):
        args = build_parser().parse_args([command, *self.REQUIRED[command]])
        policy, path = TruncationPolicy(), PathSumConfig()
        assert (args.n_terms, args.epsilon_tail, args.n_cap) == (policy.n_terms, policy.epsilon_tail, policy.n_cap)
        assert (args.k_max, args.prescription) == (path.k_max, path.prescription)

    def test_shared_defaults_are_the_field_defaults(self):
        # a call that passes no config uses one shared instance per class, equal to a fresh default
        shared = verify._DEFAULT_CONFIG
        assert shared == verify.EvalConfig() and shared.policy is spectral._DEFAULT_POLICY and shared.path is pathsum._DEFAULT_PATH
        args = build_parser().parse_args(["verify"])
        for instance in (shared.policy, shared.path):
            for field in dataclasses.fields(instance):
                assert getattr(instance, field.name) == field.default == getattr(args, field.name)


class TestColdStart:
    def test_only_the_bessel_routes_import_scipy_special(self):
        # a fresh interpreter: scipy.special is most of a cold start and only the closed form needs it
        script = """if True:
            import contextlib, io, json, sys
            import boxkernel.cli as cli
            loaded = ["scipy.special" in sys.modules]
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(["compare", "--nu", "2.5", "--methods", "spectral,pathsum-general",
                                   "--lambda-chain", "0.2,0.1", "--grid-n", "3", "--output", "csv"]),
                         cli.main(["verify", "--suite", "nu1-exact"])]
            loaded.append("scipy.special" in sys.modules)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes.append(cli.main(["kernel", "--nu", "2.5", "--lambda", "0.1", "--theta", "1.0",
                                       "--theta-p", "1.2", "--method", "closed-form", "--output", "csv"]))
            loaded.append("scipy.special" in sys.modules)
            print(json.dumps({"loaded": loaded, "codes": codes, "csv": out.getvalue()}))
        """
        src = os.path.dirname(os.path.dirname(boxkernel.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout)
        assert result["codes"] == [EXIT_OK] * 3
        assert result["loaded"] == [False, False, True]
        row = result["csv"].splitlines()[1]
        assert float(row.split(",")[0]) == kernel_closed(2.5, 1.0, 1.2, 0.1).real
