"""Command-line interface: pass-through values, CSV round-trips, exit codes."""

import argparse
import math

import pytest

from boxkernel import SUITES, PathSumConfig, TruncationPolicy, compare_methods, kernel_spectral, run_suites
from boxkernel.cli import EXIT_CHECK_FAILED, EXIT_DOMAIN, EXIT_OK, EXIT_POLICY, build_parser, main


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

    def test_non_halving_chain_prints_no_ratios(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--nu", "2", "--methods", "spectral,pathsum-nu2",
            "--lambda-chain", "0.4,0.3,0.1", "--grid-n", "2", "--output", "pretty",
        )
        assert code == EXIT_OK
        assert "max_rel_dev:" in out
        assert "convergence_ratios" not in out


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

    def test_spectral_tail_overflow_is_the_term_cap(self, capsys):
        code, out, err = run_cli(
            capsys, "kernel", "--nu", "168.28", "--theta", "0.00268", "--theta-p", "1.180",
            "--lambda", "1.03e-4", "--method", "spectral",
        )
        assert code == EXIT_POLICY
        assert out == "" and "4096 modes" in err and "path-sum" not in err

    def test_overflowing_eigenfunction_table_is_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "kernel", "--nu", "90.733019776225", "--theta", "1.1191147329250895e-08",
            "--theta-p", "0.3725420803085231", "--lambda", "0.00012424117182030517", "--method", "spectral",
        )
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("domain error: eigenfunction table")

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
