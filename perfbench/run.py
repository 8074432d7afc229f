"""Benchmark entry point: run one workload in a child process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The child (``measure.py``) gets numpy's BLAS pinned to ``BLAS_THREADS``
threads through its environment; the DCT denoiser's ``einsum`` calls BLAS,
which would otherwise start one thread per CPU.  The child's peak resident
memory is then that of a process running only the workload.

On success this prints the child's report, whose last line is the JSON
result, and exits 0.  Otherwise it prints the child's output to stderr and
exits 1 without a result.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv: list[str]) -> int:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    command = [sys.executable, str(Path(__file__).resolve().parent / "measure.py"), *argv]
    try:
        child = subprocess.run(command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        print(f"workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        partial = exc.stderr or b""
        sys.stderr.write(partial.decode(errors="replace") if isinstance(partial, bytes) else partial)
        return 1
    lines = child.stdout.splitlines()
    try:
        ok = child.returncode == 0 and set(json.loads(lines[-1])) == RESULT_KEYS
    except (IndexError, ValueError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(child.stdout + child.stderr)
        print(f"workload failed (exit code {child.returncode})", file=sys.stderr)
        return 1
    sys.stderr.write(child.stderr)
    print(child.stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
