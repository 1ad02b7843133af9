"""Run every workload once and print its metrics as a table.

    python3 benchmarks/report.py --seed 1 --seconds 30            # end-to-end metrics
    python3 benchmarks/report.py --seed 1 --seconds 30 --trace    # per-layer metrics too

For each workload: the correctness verdict, operations attempted and failed,
the failure fraction, then every metric by name with its unit.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true", help="also run the traced mode")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: run failed with exit code {proc.returncode}")
                status = 1
                continue
            lines = proc.stdout.strip().splitlines()
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
            print(f"{workload} (trace={trace}, seed={args.seed}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"fail_frac={result['failed'] / result['attempted']:.3g} "
                  f"ops_per_pass={record['ops_per_pass']} passes={record['passes']}")
            for problem in record["errors"]:
                print(f"    ! {problem}")
            for name, metric in result["metrics"].items():
                print(f"    {name:42s} {metric['value']:>16.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
