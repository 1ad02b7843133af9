"""Benchmark entry point: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload grid-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nothing is installed.  The run

1. runs ``workload.py`` in its own fresh interpreter with BLAS pinned to one
   thread, which measures the workload and gates every output, and (with
   ``--trace 0``) times set-up: fresh interpreters that import
   ``boxkernel.cli`` and call ``build_parser()``, spread over the run;
2. checks a seeded subsample of the returned values against the mpmath
   oracle in this process, which never imports boxkernel;
3. prints a record line (environment, counts, errors) and, last, the result:
   ``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
   metric of BENCHMARK.json (``--trace 0``) or every per-layer one (``--trace 1``).

``attempted`` is the number of distinct operations in the workload's list;
each is repeated in every pass for timing.  ``correct`` is false when any
operation raised (except the known overflow of the path sums with a
potential) or any returned value failed the gate, the oracle or reproduction
across passes.  ``failed`` counts those operations plus the known overflows;
``failed / attempted`` is the failure fraction.  Both depend on the seed only.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_SLACK_S = 140.0  # warm-up, set-up samples, the pass that overruns the deadline
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env():
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description="boxkernel benchmark: one workload, one seed.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "boxkernel" / "__init__.py").is_file():
        print(f"no boxkernel sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    started = time.perf_counter()
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz")]
    try:
        child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=args.seconds + CHILD_SLACK_S)
    except subprocess.TimeoutExpired:
        print(f"workload process did not end within {args.seconds + CHILD_SLACK_S:.0f} s",
              file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    run = json.loads(child.stdout.strip().splitlines()[-1])

    # An oracle failure makes its operation failed and wrong, like the gate does.
    checked = [(sample["op"], oracle.check(sample)) for sample in run["oracle"]]
    oracle_problems = [problem for _, problem in checked if problem]
    oracle_wrong = {op for op, problem in checked if problem}
    attempted = run["ops_per_pass"]
    failed = len(set(run["failed_ops"]) | oracle_wrong)
    wrong = len(set(run["wrong_ops"]) | oracle_wrong)

    computed = run["metrics"]
    missing = [m["name"] for m in wanted if computed.get(m["name"]) is None]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops_per_pass": run["ops_per_pass"], "passes": run["passes"],
        "fail_frac": failed / attempted, "wrong": wrong, "failed_ops": run["failed_ops"],
        "errors": run["errors"] + oracle_problems, "tally": run["tally"], "oracle_checked": len(run["oracle"]),
        "extra": run["extra"], "environment": run["environment"],
        "run_wall_s": time.perf_counter() - started,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
