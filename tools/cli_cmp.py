"""Byte-for-byte comparison of the CLI between this checkout and another source tree.

Runs every command of ``cli_cmp_commands.txt`` as ``python -m boxkernel.cli ...``
in a fresh interpreter, once with this checkout's ``src/`` and once with the
``--parent`` directory (the one that holds the other tree's ``boxkernel``
package) on ``PYTHONPATH``, and reports each command whose stdout, stderr or
exit code differs; where stdout differs, also the largest absolute difference
between its numeric fields.  Exits 0 when every command matches, 1 otherwise.

    python tools/cli_cmp.py --parent ../boxkernel-parent/src
"""

import argparse
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMANDS = HERE / "cli_cmp_commands.txt"
SRC = HERE.parent / "src"


def read_commands(path: Path) -> list[list[str]]:
    lines = (line.strip() for line in path.read_text().splitlines())
    return [shlex.split(line) for line in lines if line and not line.startswith("#")]


def run(src: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "boxkernel.cli", *argv], env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def numeric_fields(text: bytes) -> list[float]:
    """Every field of ``text`` that parses as a float, in order; fields end at blanks and ``,:=()[]``."""
    fields = []
    for token in re.split(r"[\s,:=()\[\]]+", text.decode(errors="replace")):
        try:
            fields.append(float(token))
        except ValueError:
            pass
    return fields


def numeric_diff(theirs: bytes, ours: bytes) -> str:
    """The largest absolute difference between the numeric fields of two outputs, field by field."""
    a, b = numeric_fields(theirs), numeric_fields(ours)
    if len(a) != len(b):
        return f"{len(a)} numeric fields against {len(b)}: not comparable"
    diffs = [abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
             for x, y in zip(a, b) if not (x == y or (math.isnan(x) and math.isnan(y)))]
    return f"largest absolute difference {max(diffs, default=0.0):.3g} in {len(diffs)} of {len(a)} numeric fields"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="directory holding the other tree's boxkernel package")
    args = parser.parse_args()
    parent = args.parent.resolve()
    if not (parent / "boxkernel" / "__init__.py").is_file():
        parser.error(f"no boxkernel package under {parent}")
    commands = read_commands(COMMANDS)
    differ = 0
    for argv in commands:
        ours, theirs = run(SRC, argv), run(parent, argv)
        if ours != theirs:
            differ += 1
            fields = [name for name, a, b in zip(("exit code", "stdout", "stderr"), ours, theirs) if a != b]
            print(f"DIFFERS ({', '.join(fields)}): {shlex.join(argv)}")
            for name, a, b in zip(("exit code", "stdout", "stderr"), theirs, ours):
                if a != b:
                    print(f"  parent {name}: {a!r:.300}\n  this   {name}: {b!r:.300}")
            if ours[1] != theirs[1]:
                print(f"  stdout: {numeric_diff(theirs[1], ours[1])}")
    print(f"{len(commands) - differ} of {len(commands)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
