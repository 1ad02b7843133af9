"""Command-line front end: kernel evaluation, method comparison, verification
suites, and convergence sweeps, with CSV or human-readable output.

Exit codes
----------
0   success; every requested check passed its tolerance
1   at least one requested check exceeded its tolerance
2   usage error (malformed flags, or an --output-path that cannot be written)
3   domain error (theta outside (0, pi), lambda <= 0, nu < 1/2), an overflowing
    path-sum term, eigenfunction norms at nu > 1e4, or an underflowed reference
    value
4   spectral truncation policy unresolvable (term cap reached)

Output is deterministic: identical invocations produce byte-identical
output, floats are printed with 17 significant digits, and CSV row order
follows the grid order, never completion order.
"""

import argparse
import functools
import math
import sys

from .errors import _MAX_TERMS, DomainError, PolicyUnresolvableError, require_lambda, require_nu, require_theta
from .pathsum import PRESCRIPTIONS, PathSumConfig
from .spectral import TruncationPolicy
from .verify import METHODS, SUITES, EvalConfig, compare_methods, evaluate_method, run_suites

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_POLICY = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_method(label: str) -> str:
    key = label.strip().lower().replace("-", "_").replace("pathsum", "path_sum")
    key = "closed_form" if key == "closed" else key
    if key not in METHODS:
        raise DomainError(f"unknown method {label!r}; expected one of {', '.join(METHODS)}")
    return key


def _parse_chain(text: str) -> list[float]:
    try:
        chain = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise DomainError(f"--lambda-chain must be comma-separated floats: {exc}") from None
    if not chain:
        raise DomainError("--lambda-chain is empty")
    return [require_lambda(lam, "--lambda-chain") for lam in chain]


def _refuse(exc: DomainError | PolicyUnresolvableError, where: str = "") -> int:
    """Report a library refusal on stderr; return its exit code."""
    if isinstance(exc, DomainError):
        print(f"domain error: {where}{exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(f"truncation policy unresolvable: {where}{exc}", file=sys.stderr)
    return EXIT_POLICY


def _emit(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _eval_config(args) -> EvalConfig:
    policy = TruncationPolicy(args.n_terms, args.epsilon_tail, args.n_cap)
    return EvalConfig(policy=policy, path=PathSumConfig(k_max=args.k_max, prescription=args.prescription))


def _add_eval_flags(sub) -> None:
    # the class attributes are the dataclass field defaults, read without building an instance
    policy, path = TruncationPolicy, PathSumConfig
    sub.add_argument("--n-terms", type=int, default=policy.n_terms, help="fixed spectral term count (default: resolve from --epsilon-tail)")
    sub.add_argument("--epsilon-tail", type=float, default=policy.epsilon_tail, help=f"spectral tail target (default {policy.epsilon_tail:g})")
    sub.add_argument("--n-cap", type=int, default=policy.n_cap, help=f"spectral term cap (default {policy.n_cap})")
    sub.add_argument("--k-max", type=int, default=path.k_max, help=f"reflection sum truncation |k| <= k_max (default {path.k_max})")
    sub.add_argument("--prescription", choices=PRESCRIPTIONS, default=path.prescription, help=f"reflection phase prescription (default {path.prescription})")
    sub.add_argument("--output", choices=("csv", "pretty"), default="pretty", help="output format")
    sub.add_argument("--output-path", default=None, help="write output to a file instead of stdout")


def _grid_points(args) -> list[tuple[float, float]]:
    """The pairs of the flags: a ``--grid-n`` grid, built strictly inside (0, pi), whose angles the library checks
    once, or the point of ``--theta`` and ``--theta-p``, checked under the flags' names."""
    if args.grid_n is None and args.theta is not None and args.theta_p is not None:
        return [(require_theta(args.theta, "--theta/--grid-n"), require_theta(args.theta_p, "--theta-p/--grid-n"))]
    if args.grid_n is None or args.theta is not None or args.theta_p is not None:
        raise DomainError("provide either --grid-n or both --theta and --theta-p")
    if args.grid_n < 1:
        raise DomainError("--grid-n must be >= 1")
    if args.grid_n ** 2 > _MAX_TERMS:  # the N^2 pairs are built as a list before anything is evaluated
        raise DomainError(f"--grid-n must be at most {math.isqrt(_MAX_TERMS)} ({_MAX_TERMS} pairs), got {args.grid_n}")
    margin = args.grid_margin
    if not (0.0 < margin < math.pi / 2.0):
        raise DomainError("--grid-margin must lie in (0, pi/2)")
    step = (math.pi - 2.0 * margin) / (args.grid_n - 1) if args.grid_n > 1 else 0.0
    axis = [margin + i * step for i in range(args.grid_n)]  # increasing from margin > 0
    if not axis[-1] < math.pi:  # a margin below ~1e-15, whose last angle rounds onto pi
        raise DomainError(f"--grid-margin {margin!r} puts the last of {args.grid_n} grid angles on pi")
    return [(a, b) for a in axis for b in axis]


def _cmd_kernel(args) -> int:
    nu = require_nu(args.nu)
    theta = require_theta(args.theta, "--theta")
    theta_p = require_theta(args.theta_p, "--theta-p")
    lam = require_lambda(args.lam, "--lambda")
    method = _parse_method(args.method)
    est = evaluate_method(method, nu, theta, theta_p, lam, _eval_config(args))
    if args.output == "csv":
        lines = ["value_re,value_im", f"{_fmt(est.value.real)},{_fmt(est.value.imag)}"]
    else:
        lines = [
            f"method: {est.method}",
            f"value_re: {_fmt(est.value.real)}",
            f"value_im: {_fmt(est.value.imag)}",
            f"terms_used: {est.terms_used}",
        ]
        if est.tail_bound is not None:
            lines.append(f"tail_bound: {_fmt(est.tail_bound)}")
        if est.near_boundary:
            lines.append("near_boundary: true")
    _emit(lines, args.output_path)
    return EXIT_OK


_COMPARE_HEADER = (
    "theta,theta_p,lambda,method_a,method_b,"
    "value_a_re,value_a_im,value_b_re,value_b_im,abs_dev,rel_dev"
)


def _compare_csv(report) -> list[str]:
    """The CSV rows of ``report``, whose grid is lambda-major over one list of pairs: each pair's
    text and each lambda's (with the method names) are formatted once, and each row adds its six
    values through one ``%.17g`` template, which prints every float as ``format(x, '.17g')`` does."""
    n_pairs = len(report.grid) // len(report.per_lambda)
    pair_texts = ["%.17g,%.17g," % (theta, theta_p) for theta, theta_p, _ in report.grid[:n_pairs]]
    lam_texts = ["%.17g,%s,%s," % (lam, report.method_a, report.method_b) for lam, _, _ in report.per_lambda]
    prefixes = [pair_text + lam_text for lam_text in lam_texts for pair_text in pair_texts]
    values = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"
    return [_COMPARE_HEADER] + [
        prefix + values % (va.real, va.imag, vb.real, vb.imag, ad, rd)
        for prefix, va, vb, ad, rd in zip(prefixes, report.value_a, report.value_b, report.abs_dev, report.rel_dev)
    ]


def _run_comparison(args):
    nu = require_nu(args.nu)
    methods = [_parse_method(m) for m in args.methods.split(",") if m.strip()]
    if len(methods) != 2:
        raise DomainError("--methods needs exactly two comma-separated method tags")
    chain = _parse_chain(args.lambda_chain)
    return compare_methods(nu, _grid_points(args), chain, methods[0], methods[1], _eval_config(args))


def _cmd_compare(args) -> int:
    report = _run_comparison(args)
    if args.output == "csv":
        lines = _compare_csv(report)
    else:
        lines = [
            f"compare {report.method_a} vs {report.method_b}: {len(report.grid)} rows",
            f"max_abs_dev: {_fmt(report.max_abs_dev)}",
            f"max_rel_dev: {_fmt(report.max_rel_dev)}",
        ]
        if report.convergence_ratios is not None:
            lines.append("convergence_ratios: " + ",".join(_fmt(r) for r in report.convergence_ratios))
    _emit(lines, args.output_path)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    report = _run_comparison(args)
    lines = ["lambda,max_abs_dev,max_rel_dev,ratio"]
    ratios = [""] + [_fmt(r) for r in report.per_lambda_ratios]
    for (lam, max_abs, max_rel), ratio in zip(report.per_lambda, ratios):
        lines.append(f"{_fmt(lam)},{_fmt(max_abs)},{_fmt(max_rel)},{ratio}")
    if args.output == "pretty":
        lines = ["sweep " + report.method_a + " vs " + report.method_b] + lines
    _emit(lines, args.output_path)
    return EXIT_OK


def _cmd_verify(args) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    nu, config = require_nu(args.nu), _eval_config(args)
    rows, refusals = [], []
    for suite in suites:  # one at a time, so that a suite's refusal keeps the other suites' rows
        try:
            rows += run_suites((suite,), nu, config)
        except (DomainError, PolicyUnresolvableError) as exc:
            refusals.append((suite, exc))
    all_pass = not refusals and all(r[4] for r in rows)
    if args.output == "csv":
        lines = ["suite,check,measured,tolerance,status"]
        for suite, check, measured, tol, passed in rows:
            tol_text = "" if math.isinf(tol) else _fmt(tol)
            lines.append(f"{suite},\"{check}\",{_fmt(measured)},{tol_text},{'pass' if passed else 'FAIL'}")
    else:
        lines = []
        for suite, check, measured, tol, passed in rows:
            tol_text = "structural" if math.isinf(tol) else _fmt(tol)
            lines.append(
                f"[{'pass' if passed else 'FAIL'}] {suite}: {check} "
                f"(measured {measured:.3e}, tolerance {tol_text})"
            )
        lines.append("all suites passed" if all_pass else "FAILURES detected")
    _emit(lines, args.output_path)
    codes = [_refuse(exc, f"{suite}: ") for suite, exc in refusals]
    return codes[0] if codes else (EXIT_OK if all_pass else EXIT_CHECK_FAILED)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxkernel",
        description="Euclidean kernels for a particle in a box with an inverse-sine-squared potential.",
        epilog=(
            "exit codes: 0 ok; 1 check failed; 2 usage error or unwritable --output-path; "
            "3 domain error (theta outside (0,pi), lambda <= 0, nu < 1/2) or path-sum overflow; "
            "4 spectral truncation cap reached"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel", help="evaluate one kernel value")
    p_kernel.add_argument("--nu", type=float, required=True)
    p_kernel.add_argument("--lambda", dest="lam", type=float, required=True)
    p_kernel.add_argument("--theta", type=float, required=True)
    p_kernel.add_argument("--theta-p", type=float, required=True)
    spellings = (method.replace("path_sum", "pathsum").replace("_", "-") for method in METHODS)  # as _parse_method reads them
    p_kernel.add_argument("--method", required=True, help=" | ".join(spellings))
    _add_eval_flags(p_kernel)
    p_kernel.set_defaults(func=_cmd_kernel)

    for name, helptext, func in (
        ("compare", "compare two methods over a grid and lambda chain", _cmd_compare),
        ("sweep", "lambda-chain deviations and convergence ratios", _cmd_sweep),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--nu", type=float, required=True)
        p.add_argument("--methods", required=True, help="two comma-separated method tags")
        p.add_argument("--lambda-chain", required=True, help="comma-separated, strictly decreasing")
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--theta-p", type=float, default=None)
        p.add_argument("--grid-n", type=int, default=None, help="use an N x N interior grid instead of a single point")
        p.add_argument("--grid-margin", type=float, default=math.pi / 10.0, help="grid inset from the walls")
        _add_eval_flags(p)
        p.set_defaults(func=func)

    p_verify = sub.add_parser("verify", help="run the invariant suites and print a pass/fail table")
    p_verify.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p_verify.add_argument("--nu", type=float, default=1.0, help="coupling for the nu-parameterised suites (default 1)")
    _add_eval_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


_parser = functools.cache(build_parser)  # main's one parser: building costs ~1.2 ms, parsing ~0.07 ms


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, PolicyUnresolvableError) as exc:
        return _refuse(exc)
    except OverflowError as exc:
        print(f"overflow: {exc} (a path-sum term exceeds the float range)", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:  # the library reads and writes no file: this is _emit's
        if not args.output_path:
            raise
        print(f"usage error: cannot write --output-path {args.output_path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
