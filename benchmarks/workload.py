"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script with ``src/`` on ``sys.path`` and BLAS pinned to
one thread.  It builds the workload's fixed operation list from the seed,
warms up with one untimed pass, then repeats the list in a closed loop (one
client, one thread, the next operation starts when the previous returns) for
the requested seconds.  Every output is gated outside the timed region.  The
last stdout line is one JSON object that ``run.py`` turns into the result.

An operation is one entry of the list.  It is attempted once per run and
repeated in every pass for timing; it fails if any of its repetitions raises,
fails the gate or differs from the first.  So ``attempted`` and ``failed``
depend on the seed alone, not on how many passes fit in the time.

With ``--trace 1`` the first half of the time runs untraced and the second
half under :class:`layertrace.Tracer`; the per-layer metrics come from the
fastest traced pass, and the difference of the fastest traced and untraced
passes is the tracing overhead.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

import boxkernel
from boxkernel import cli, closedform, verify

from layertrace import Tracer

GRID_ARGV = ("compare", "--nu", "2.5", "--methods", "spectral,pathsum-general",
             "--lambda-chain", "0.4,0.2,0.1,0.05", "--grid-n", "3", "--output", "csv")
GRID_ROWS = 3 * 3 * 4  # grid points x lambdas per compare call
GRID_CALLS = 48  # compare calls per pass, each on its own seeded grid margin
GRID_MARGIN = (0.1, 1.2)  # radians from the walls; pi/2 is the largest the CLI takes
VERIFY_NU = "2.7"
# Every suite of verify --suite all but "addition": as one 0.15 s call its
# time does not settle within a run, even rescaled, and the addition pairs
# below run the same lhs/rhs comparison as short operations.
VERIFY_SUITES = ("orthonormality", "bessel-link", "nu1-exact", "phases", "nu2-decomposition",
                 "general-decomposition", "semigroup", "closed-form-order")
POINT_EVAL_OPS = 2000  # divisible by the five method tags
POINT_EVAL_LOG10_LAMBDA = (-4.0, 0.0)
POINT_EVAL_NU = (0.5, 4.0)
INTEGER_NU = {"path_sum_nu1": 1.0, "path_sum_nu2": 2.0}
ADDITION_NU = 2.7
ADDITION_LAMBDAS = (0.1, 0.01, 0.002)
ADDITION_PAIRS = 4  # seeded angle pairs per lambda
ADDITION_RTOL = 1e-8
ORACLE_SAMPLES = 6  # seeded spectral (or Bessel) values checked by the mpmath oracle
MIN_PASSES = 3  # timed passes, however short --seconds is
CAL_SLOTS = 48  # calibrate() runs per pass, spread evenly over the operation list
# calibrate()'s fastest time on the reference machine (x86_64, 2 vCPUs,
# Python 3.11.7): timings are reported at the speed where it takes this long.
CAL_REF_S = 75e-6
SETUP_SAMPLES = 9  # cold starts spread over the timed run, after one discarded start
SETUP_SNIPPET = (
    "import time; t0 = time.perf_counter(); import boxkernel.cli as cli; cli.build_parser(); "
    "print(time.perf_counter() - t0)"
)
REAL_METHODS = ("spectral", "closed_form", "path_sum_nu1", "path_sum_nu2")
# The kernel is positive.  The spectral sum promises an absolute error of at
# most its tail target (1e-12 by default), and where the kernel is ~0 it
# returns values of either sign below that; the closed form is a product of
# positive factors.  A value below -floor fails; smaller negatives are counted
# in the run record.
NEGATIVE_FLOOR = {"spectral": 1e-12, "closed_form": 0.0}
# The one raise the gate tolerates as a known defect: the path sums with a
# potential (nu2 and general share one summation) overflow in exp() near a
# wall at large lambda.  It still counts as a failed operation; any other
# raise makes the run incorrect.
KNOWN_RAISE_METHODS = ("path_sum_nu2", "path_sum_general")


# -- operations ----------------------------------------------------------------
#
# An operation is (kind, args).  Functions are looked up on their modules at
# call time, so the traced run sees the same calls through its wrappers.

def run_op(op):
    kind, args = op
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(args))
        return rc, buf.getvalue()
    if kind == "eval":
        est = verify.evaluate_method(*args)
        return est.value.real, est.value.imag, est.terms_used
    if kind == "addition":
        return closedform.addition_formula_lhs(*args), closedform.addition_formula_rhs(*args)
    raise ValueError(f"unknown operation kind {kind!r}")


def _stratified(rng, n, lo, hi):
    """n draws, one from each of n equal strata of [lo, hi), in random order.

    Each draw is uniform on [lo, hi); stratifying cuts the seed-to-seed
    spread of pass time and tail latency.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def build_ops(workload, rng):
    if workload == "grid-sweep":
        # Many short calls rather than one 40 x 40 grid (1.4 s): a short call
        # is rescaled by the calibrate() runs around it, a call that long
        # spans too many of the machine's changes of speed.
        margins = _stratified(rng, GRID_CALLS, *GRID_MARGIN)
        return [("cli", GRID_ARGV + ("--grid-margin", repr(float(m)))) for m in margins]
    if workload == "point-eval":
        per_method = POINT_EVAL_OPS // len(verify.METHODS)
        ops = []
        for method in verify.METHODS:
            lam = 10.0 ** _stratified(rng, per_method, *POINT_EVAL_LOG10_LAMBDA)
            theta = _stratified(rng, per_method, 0.0, math.pi)
            theta_p = _stratified(rng, per_method, 0.0, math.pi)
            if method in INTEGER_NU:
                nu = np.full(per_method, INTEGER_NU[method])
            else:
                nu = _stratified(rng, per_method, *POINT_EVAL_NU)
            ops += [("eval", (method, float(n), float(a), float(b), float(l)))
                    for n, a, b, l in zip(nu, theta, theta_p, lam)]
        return [ops[i] for i in rng.permutation(len(ops))]
    if workload == "crosscheck":
        # verify, one suite per call, so each is timed on its own
        ops = [("cli", ("verify", "--suite", suite, "--nu", VERIFY_NU)) for suite in VERIFY_SUITES]
        for lam in ADDITION_LAMBDAS:
            for _ in range(ADDITION_PAIRS):
                # The rule of the CLI's addition suite: theta' within a few
                # Gaussian widths of theta, so the regulated sides stay above
                # underflow and the 1e-8 relative gate is meaningful.
                ta = rng.uniform(0.2, math.pi - 0.2)
                delta = rng.uniform(-1.0, 1.0) * min(1.0, 3.0 * math.sqrt(lam))
                tb = min(max(ta + delta, 0.1), math.pi - 0.1)
                ops.append(("addition", (ADDITION_NU, float(ta), float(tb), lam)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# -- correctness gate ----------------------------------------------------------

def _sign_problem(method, re_, im_, tally):
    if method not in NEGATIVE_FLOOR:
        return None
    if re_ < 0.0:
        tally["negative_values"] = tally.get("negative_values", 0) + 1
    if re_ < -NEGATIVE_FLOOR[method] or im_ != 0.0:
        return f"{method} value {re_}+{im_}j not real non-negative"
    return None


def _csv_problems(text, tally):
    """Problems in a ``compare`` CSV: row count, finiteness, sign and reality."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    if len(rows) != GRID_ROWS:
        problems.append(f"{len(rows)} rows, expected {GRID_ROWS}")
    for col in ("a", "b"):
        i_re, i_im = header.index(f"value_{col}_re"), header.index(f"value_{col}_im")
        i_method = header.index(f"method_{col}")
        for row in rows:
            re_, im_ = float(row[i_re]), float(row[i_im])
            if not (math.isfinite(re_) and math.isfinite(im_)):
                problems.append(f"non-finite value in {row}")
            else:
                problem = _sign_problem(row[i_method], re_, im_, tally)
                if problem:
                    problems.append(problem)
    return problems


def gate(op, out, tally):
    """Problems with one operation's output; empty when it passes."""
    kind, args = op
    if kind == "cli":
        rc, text = out
        if rc != 0:
            return [f"exit code {rc}"]
        return _csv_problems(text, tally) if args[0] == "compare" else []
    if kind == "eval":
        method = args[0]
        re_, im_, _ = out
        if not (math.isfinite(re_) and math.isfinite(im_)):
            return [f"{method} non-finite {re_}+{im_}j"]
        if method in REAL_METHODS and im_ != 0.0:
            return [f"{method} imaginary part {im_}"]
        problem = _sign_problem(method, re_, im_, tally)
        return [problem] if problem else []
    lhs, rhs = out
    if not (math.isfinite(lhs) and rhs > 0.0 and math.isfinite(rhs)):
        return [f"addition sides {lhs}, {rhs}"]
    if abs(lhs - rhs) > ADDITION_RTOL * rhs:
        return [f"addition lhs {lhs!r} vs rhs {rhs!r}"]
    return []


def known_raise(op, raised):
    """True for the tolerated overflow of KNOWN_RAISE_METHODS; any other raise is wrong."""
    kind, args = op
    return kind == "eval" and args[0] in KNOWN_RAISE_METHODS and raised.type == "OverflowError"


def oracle_samples(ops, outs, ok, rng):
    """A seeded subsample of returned values for the mpmath oracle in run.py."""
    candidates = []
    for i, (op, out) in enumerate(zip(ops, outs)):
        if not ok[i]:
            continue
        kind, args = op
        if kind == "cli" and args[0] == "compare":
            for row in out[1].splitlines()[1:]:
                theta, theta_p, lam, method_a, _, value = row.split(",")[:6]
                if method_a != "spectral":
                    continue
                candidates.append({"op": i, "kind": "spectral", "nu": float(args[2]),
                                   "theta": float(theta), "theta_p": float(theta_p),
                                   "lam": float(lam), "value": float(value)})
        elif kind == "eval" and args[0] == "spectral":
            _, nu, theta, theta_p, lam = args
            candidates.append({"op": i, "kind": "spectral", "nu": nu, "theta": theta,
                               "theta_p": theta_p, "lam": lam, "value": out[0]})
        elif kind == "addition":
            nu, theta, theta_p, lam = args
            candidates.append({"op": i, "kind": "bessel_product", "nu": nu, "theta": theta,
                               "theta_p": theta_p, "lam": lam, "value": out[1]})
    picks = rng.choice(len(candidates), size=min(ORACLE_SAMPLES, len(candidates)), replace=False)
    return [candidates[j] for j in sorted(picks)]


# -- the closed loop -----------------------------------------------------------

def calibrate():
    """Fixed interpreter work that shares no code with boxkernel: a speed probe."""
    acc = 0.0
    table = {}
    for i in range(1, 301):
        acc += math.exp(-((i % 97) * 0.01) ** 2) * (i & 3)
        table[i & 31] = acc
    return acc


class Raised:
    """An operation's exception, kept without its traceback.

    A traceback pins the frames of its pass, and with them that pass's
    outputs, which would inflate ``peak_rss_mb`` on seeds that hit a raise.
    """

    def __init__(self, exc):
        self.type = type(exc).__name__
        self.error = f"{self.type}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.error == self.error


class Loop:
    """Runs passes over the operation list and keeps the failure tally."""

    def __init__(self, ops):
        self.ops = ops
        self.passes = 0
        self.failed = set()  # indices of operations that failed in some pass
        self.wrong = set()  # the failed ones that make the run incorrect
        self.errors = []  # the first few problems, for the run record
        self.tally = {}  # reference-pass counts for the run record
        self.ref = None
        self.ok = None
        self.last_calibrate_s = CAL_REF_S  # mean calibrate() time of the last pass

    def run_pass(self):
        """One pass; returns (wall seconds, per-op seconds, calibrate() seconds, outputs, cli bytes)."""
        outs, lat, cal = [], [], []
        every = max(1, len(self.ops) // CAL_SLOTS)
        clock = time.perf_counter
        start = clock()
        for i, op in enumerate(self.ops):
            if i % every == 0:
                t0 = clock()
                calibrate()
                cal.append(clock() - t0)
            t0 = clock()
            try:
                out = run_op(op)
            except Exception as exc:  # every raise is a counted failure, not a crash
                out = Raised(exc)
                if self.ref is None and not any(isinstance(o, Raised) for o in outs):
                    traceback.print_exception(exc, file=sys.stderr)  # the first one only
            lat.append(clock() - t0)
            outs.append(out)
        wall = clock() - start
        self.last_calibrate_s = sum(cal) / len(cal)
        self.passes += 1
        self._check(outs)
        out_bytes = sum(len(o[1].encode()) for op, o in zip(self.ops, outs)
                        if op[0] == "cli" and not isinstance(o, Raised))
        return wall, lat, cal, outs, out_bytes

    def _check(self, outs):
        if self.ref is None:  # reference pass: full gate
            self.ref = outs
            self.ok = []
            for i, (op, out) in enumerate(zip(self.ops, outs)):
                if isinstance(out, Raised):
                    problems = [out.error]
                    if not known_raise(op, out):
                        self.wrong.add(i)
                else:
                    problems = gate(op, out, self.tally)
                    if problems:
                        self.wrong.add(i)
                if problems:
                    self.failed.add(i)
                self.errors += [f"op {i} {op}: {p}" for p in problems][:10 - len(self.errors)]
                self.ok.append(not problems)
            return
        for i, out in enumerate(outs):
            # later passes must reproduce the reference exactly, raises too
            if out != self.ref[i] and i not in self.wrong:
                self.failed.add(i)
                self.wrong.add(i)
                if len(self.errors) < 10:
                    self.errors.append(f"op {i}: output changed between passes")


def timed_passes(loop, seconds, after_pass=None):
    """Passes for ``seconds`` (at least MIN_PASSES); returns [(wall, per-op s, calibrate s)], cli bytes.

    Time spent in ``after_pass`` does not count towards ``seconds``.
    """
    passes, out_bytes, aside = [], 0, 0.0
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() - aside < deadline:
        wall, lat, cal, _, out_bytes = loop.run_pass()
        passes.append((wall, lat, cal))
        if after_pass:
            t0 = time.perf_counter()
            after_pass()
            aside += time.perf_counter() - t0
    return passes, out_bytes


def cold_start_seconds():
    """One set-up: a fresh interpreter imports ``boxkernel.cli`` and builds the parser."""
    out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class SetupSampler:
    """Takes SETUP_SAMPLES cold starts spread evenly over ``seconds`` of passes.

    Each is rescaled to the reference speed by the mean calibrate() time of
    the pass just before it, like the operations of that pass.
    """

    def __init__(self, seconds, loop):
        cold_start_seconds()  # may compile bytecode; dropped
        self.loop = loop
        self.every = seconds / SETUP_SAMPLES
        self.elapsed = 0.0
        self.last = time.perf_counter()
        self.values = []  # (seconds, calibrate() seconds of the pass before)

    def __call__(self):
        self.elapsed += time.perf_counter() - self.last
        if self.elapsed >= self.every * len(self.values):
            self.sample()
        self.last = time.perf_counter()

    def sample(self):
        self.values.append((cold_start_seconds(), self.loop.last_calibrate_s))

    def median(self):
        while len(self.values) < SETUP_SAMPLES:  # runs too short to spread them
            self.sample()
        return statistics.median(s * CAL_REF_S / c for s, c in self.values)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timing_metrics(times):
    """pass_s and per-call percentiles from a passes x operations array of seconds."""
    per_op = np.median(times, axis=0)
    return {"pass_s": float(np.median(times.sum(axis=1))),
            "call_us_p50": 1e6 * percentile(per_op, 0.50),
            "call_us_p99": 1e6 * percentile(per_op, 0.99)}


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "boxkernel": boxkernel.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid-sweep", "point-eval", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="traced run: write the last pass's spans here")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    ops = build_ops(args.workload, rng)
    loop = Loop(ops)
    _, _, _, ref_outs, _ = loop.run_pass()  # warm-up and reference pass, untimed

    if args.trace == 0:
        # Other work on a shared machine slows the processor by 20-60 % for
        # stretches of seconds to minutes.  Each pass therefore times
        # calibrate() between its operations, and every operation time of the
        # pass is rescaled by CAL_REF_S over the pass's mean calibrate() time:
        # its time at the reference speed.  The metrics are medians over the
        # passes of these rescaled times.
        setup = SetupSampler(args.seconds, loop)
        passes, out_bytes = timed_passes(loop, args.seconds, after_pass=setup)
        times = np.array([lat for _, lat, _ in passes])  # passes x operations
        calibrate_s = np.array([np.mean(cal) for _, _, cal in passes])
        metrics = timing_metrics(times * (CAL_REF_S / calibrate_s)[:, None])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["setup_s"] = setup.median()
        unscaled = dict(timing_metrics(times), setup_s=statistics.median(s for s, _ in setup.values))
        extra = {"timed_passes": len(passes), "cli.output_bytes": out_bytes,
                 "calibrate_s_median": float(np.median(calibrate_s)), "unscaled": unscaled,
                 "pass_walls": [round(wall, 6) for wall, _, _ in passes],
                 "setup_samples": setup.values}
    else:
        untraced, _ = timed_passes(loop, args.seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        per_pass = []
        traced, out_bytes = timed_passes(loop, args.seconds / 2.0,
                                         after_pass=lambda: per_pass.append(tracer.end_pass()))
        # Counts repeat exactly from pass to pass; times come from the fastest traced pass.
        fastest = min(range(len(traced)), key=lambda i: traced[i][0])
        untraced_s = min(wall for wall, _, _ in untraced)
        traced_s = traced[fastest][0]
        metrics = dict(per_pass[fastest])
        metrics["cli.output_bytes"] = out_bytes
        metrics["trace.overhead_s"] = traced_s - untraced_s
        extra = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
                 "untraced_passes": len(untraced), "traced_passes": len(traced),
                 "counts_repeat": all(p[k] == per_pass[-1][k] for p in per_pass
                                      for k in p if not k.endswith("_s")),
                 "missing_targets": tracer.missing}
        if args.spans:
            tracer.write_spans(args.spans)

    result = {
        "ops_per_pass": len(ops),
        "passes": loop.passes,
        "failed_ops": sorted(loop.failed),
        "wrong_ops": sorted(loop.wrong),
        "errors": loop.errors,
        "tally": loop.tally,
        "oracle": oracle_samples(ops, ref_outs, loop.ok, rng),
        "metrics": metrics,
        "extra": extra,
        "environment": environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
