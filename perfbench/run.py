"""Benchmark entry point for marketrec.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Generates the workload's synthetic input from the seed (untimed) under
``.perfbench-data/`` in the checkout, then measures the workload in a fresh
single-threaded child process, so that its peak RSS covers the workload alone.
The last line of standard output is the JSON result; the exit code is 0 only
when every operation succeeded and every output check passed. ``--smoke``
shrinks every input so all workload paths and both correctness checks run in
seconds. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description="marketrec benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so the child is killed and the input removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads.require_program()
    workload = workloads.WORKLOADS[args.workload]
    data_root = workloads.ROOT / ".perfbench-data"
    data_root.mkdir(exist_ok=True)
    data_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-s{args.seed}-", dir=data_root))
    try:
        workloads.generate_input(workload, args.seed, args.smoke, data_dir)
        command = [
            sys.executable, str(HERE / "measure.py"),
            "--workload", workload.name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--data", str(data_dir),
        ] + (["--smoke"] if args.smoke else [])
        sys.stdout.flush()
        try:
            return subprocess.run(command, timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"perfbench: measurement exceeded {CHILD_TIMEOUT_S}s and was stopped", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
        try:
            data_root.rmdir()
        except OSError:
            pass  # another run still holds its input here


if __name__ == "__main__":
    sys.exit(main())
