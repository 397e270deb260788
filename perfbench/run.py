"""covercount benchmark: a closed-loop client running one workload.

    python3 perfbench/run.py --workload brackets --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the library is imported from ``src/``.
One client, one child process at a time: each unit of work (a job, or for
``cli`` one round of every command) runs in a fresh interpreter, because
every layer of covercount caches in module globals and a CLI user pays the
cold cost on every command.  A new unit starts only while the run is
expected to end within ``--seconds``; at least one unit always runs.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
medians over the run's units.  The times are scaled to a reference
interpreter speed by a speed probe sampled while the work runs (speed.py),
because the machine's own speed drifts by 15-30%; the unscaled medians are
printed on the line before the metrics.

  wall_s       job time in the child, after import to the last result,
               reference checks excluded; for cli the sum of the command
               processes' wall times
  setup_s      fresh interpreter start until ``import covercount`` returns,
               median over the set-up probes and job children of the run
  cpu_s        user + system CPU time of the child (cli: of all commands)
  peak_rss_mb  maximum resident set of the child (cli: max over commands)

With ``--trace 1`` untraced and traced units alternate, and the last line
carries the per-layer metrics of the traced units (see layers.py), with
``trace.overhead_s`` = traced minus untraced unscaled ``wall_s``.  Failed
reference checks and raised exceptions count in ``failed``; the error rate
is failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import statistics
import subprocess
import sys
import threading
import time

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
HARD_LIMIT_S = 170  # the whole run, children included, ends before this
SETUP_PROBES = 3  # before each unit, so the set-up samples span the run

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


class Client:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def spawn(self, argv: list, stdin: bytes = b"", check_exit: bool = True) -> dict:
        """Run one child to completion; return its output, exit code, wall
        time and resource usage."""
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable] + argv,
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        killer = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            proc.stdin.write(stdin)
            proc.stdin.close()
            out = proc.stdout.read()
            proc.stdout.close()
            # wait4 reaps the child and returns its own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if check_exit and proc.returncode != 0:
            raise ChildFailed(f"{' '.join(argv[:3])} exited with {proc.returncode}")
        return {
            "start": start,
            "out": out,
            "code": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }

    def record(self, argv: list, stdin: bytes = b"") -> dict:
        """Run a child.py unit and parse its JSON record."""
        run = self.spawn([CHILD] + argv, stdin)
        lines = run["out"].decode().strip().splitlines()
        if not lines:
            raise ChildFailed(f"{' '.join(argv[:2])} printed no record")
        rec = json.loads(lines[-1])
        raw = rec["imported"] - run["start"]
        rec.update(setup_s=raw * rec["setup_factor"], raw_setup_s=raw)
        rec.update(wall=run["wall"], cpu=run["cpu"], rss_mb=run["rss_mb"])
        return rec


def job_unit(client: Client, workload: str, inputs: dict, traced: bool, corrupt=False) -> dict:
    argv = ["job", workload]
    if traced:
        argv += ["--trace", "--spans", os.path.join(OUT, f"spans-{workload}.jsonl")]
    if corrupt:
        argv.append("--corrupt")
    rec = client.record(argv, json.dumps(inputs).encode())
    return {
        "wall_s": rec["wall_s"] * rec["factor"],
        "raw_wall_s": rec["wall_s"],
        "setups": [rec],
        "cpu_s": rec["cpu"] * rec["factor"],
        "raw_cpu_s": rec["cpu"],
        "peak_rss_mb": rec["rss_mb"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "errors": rec["errors"],
        "layers": rec.get("layers"),
    }


def cli_unit(client: Client, inputs: dict, traced: bool, corrupt: bool = False) -> dict:
    """One round of every command, each in its own process."""
    checks = workloads.Checks(corrupt)
    expected = workloads.cli_expected()
    unit = dict.fromkeys(("raw_wall_s", "raw_cpu_s", "peak_rss_mb"), 0.0)
    unit["setups"] = []
    samples: list[float] = []
    layers: dict = {}
    for k, argv in enumerate(inputs["commands"]):
        key = workloads.cli_key(argv)
        if traced:
            child = ["cli", "--spans", os.path.join(OUT, f"spans-cli-{k}.jsonl")]
            if corrupt and k == 0:
                child.append("--corrupt")
            run = client.record(child, json.dumps({"argv": argv}).encode())
            checks.attempted += run["attempted"]
            checks.failed += run["failed"]
            checks.errors += run["errors"]
            for name, value in run["layers"].items():
                merge = max if name == "monodromy.max_n" else operator.add
                layers[name] = merge(layers.get(name, 0), value)
        else:
            record = os.path.join(OUT, "command.json")
            run = client.spawn([CHILD, "command", record] + argv, check_exit=False)
            checks.expect(f"{key} exit code", run["code"], 0)
            checks.expect(f"{key} stdout", run["out"].decode(), expected[key])
            with open(record) as fh:
                samples += json.load(fh)["samples"]
        unit["raw_wall_s"] += run["wall"]
        unit["raw_cpu_s"] += run["cpu"]
        unit["peak_rss_mb"] = max(unit["peak_rss_mb"], run["rss_mb"])
    # one speed factor for the round: a command of 0.1 s has too few
    # samples of its own
    factor = speed.REFERENCE_S / statistics.fmean(samples) if samples else 1.0
    unit.update(wall_s=unit["raw_wall_s"] * factor, cpu_s=unit["raw_cpu_s"] * factor)
    unit.update(checks.result(), layers=layers if traced else None)
    return unit


def run_unit(client, workload, inputs, traced, corrupt=False):
    if workload == "cli":
        return cli_unit(client, inputs, traced, corrupt)
    return job_unit(client, workload, inputs, traced, corrupt)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run units until the next one would end after ``seconds``; return the
    set-up times and the untraced and traced units."""
    start = time.monotonic()
    client = Client(start + HARD_LIMIT_S)
    inputs = workloads.make_inputs(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    client.record(["setup"])  # warm-up: file cache, and bytecode caches where enabled
    setups: list[dict] = []
    plain: list[dict] = []
    traced: list[dict] = []

    def next_kind() -> list:
        return traced if trace and len(traced) < len(plain) else plain

    while True:
        began = time.monotonic()
        setups += [client.record(["setup"]) for _ in range(SETUP_PROBES)]
        units = next_kind()
        unit = run_unit(client, workload, inputs, units is traced)
        unit["duration"] = time.monotonic() - began
        units.append(unit)
        setups += unit["setups"]
        if not plain or (trace and not traced):
            continue
        expected = statistics.median([u["duration"] for u in next_kind()])
        if time.monotonic() - start + expected > seconds:
            return setups, plain, traced


def report(workload: str, seed: int, setups: list, plain: list, traced: list) -> None:
    """Print the run's metrics by name with their units; the last line is JSON."""
    units = plain + traced
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    for u in units:
        for err in u["errors"]:
            print(f"check failed: {err}", file=sys.stderr)
    print(f"workload {workload}, seed {seed}: {len(plain)} untraced and "
          f"{len(traced)} traced runs, {len(setups)} set-ups")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.4f}")
    if traced:
        metrics = {
            name: statistics.median([u["layers"][name] for u in traced])
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_s"] = statistics.median(
            [u["raw_wall_s"] for u in traced]
        ) - statistics.median([u["raw_wall_s"] for u in plain])
        units_of = {name: ("s" if name.endswith("_s") else "count") for name in metrics}
    else:
        print("unscaled: " + ", ".join(
            f"{name} {statistics.median([u['raw_' + name] for u in plain]):.6f} s"
            for name in ("wall_s", "cpu_s")
        ) + f", setup_s {statistics.median([r['raw_setup_s'] for r in setups]):.6f} s")
        metrics = {
            "wall_s": statistics.median([u["wall_s"] for u in plain]),
            "setup_s": statistics.median([r["setup_s"] for r in setups]),
            "cpu_s": statistics.median([u["cpu_s"] for u in plain]),
            "peak_rss_mb": statistics.median([u["peak_rss_mb"] for u in plain]),
        }
        units_of = END_TO_END
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6f} {units_of[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units_of[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "covercount", "__init__.py")):
        print(f"error: no covercount sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            setups, plain, traced = measure(name, args.seed, args.seconds, bool(args.trace))
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(name, args.seed, setups, plain, traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
