"""Self-test of the reference checks.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all four by default) one unit runs clean and one runs
with its first expected value corrupted.  The clean unit must fail no check;
the corrupted one must fail exactly one and still attempt every other check,
so a wrong result registers as a failure without aborting the run.  Exits 0
when every workload passes.
"""

import sys
import time

import run
import workloads


def main(argv: list) -> int:
    names = argv or list(workloads.WORKLOADS)
    client = run.Client(time.monotonic() + run.HARD_LIMIT_S * len(names))
    status = 0
    for name in names:
        inputs = workloads.make_inputs(name, 1)
        clean = run.run_unit(client, name, inputs, traced=False)
        bad = run.run_unit(client, name, inputs, traced=False, corrupt=True)
        ok = clean["failed"] == 0 and bad["failed"] == 1 and bad["attempted"] == clean["attempted"]
        print(
            f"{name}: clean {clean['failed']}/{clean['attempted']} failed, "
            f"corrupted {bad['failed']}/{bad['attempted']} failed: {'ok' if ok else 'FAILED'}"
        )
        status |= not ok
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
