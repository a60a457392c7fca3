"""Time one cold set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED

Set-up is everything before the first timed call: importing numpy and
wordsource, generating the first round, resolving its configs and building
its models and codebooks. Prints the elapsed seconds. run.py reports the
median over several probes as ``setup_s``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main(workload, seed):
    ws = workloads.import_package()
    out_dir = Path(__file__).resolve().parent.parent / ".bench_run" / "probe"
    for item in workloads.round_items(workload, int(seed), 0):
        workloads.prepare(item, ws, out_dir)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(*sys.argv[1:])
