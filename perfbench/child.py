"""One unit of benchmark work in a fresh interpreter.

    python3 perfbench/child.py setup
    python3 perfbench/child.py job WORKLOAD [--trace] [--corrupt] [--spans PATH] < inputs.json
    python3 perfbench/child.py command RECORD ARGV...
    python3 perfbench/child.py cli [--corrupt] [--spans PATH] < argv.json

``setup`` only imports covercount.  ``job`` runs one workload's operations
and times them.  ``command`` runs one CLI command as ``python -m
covercount.cli ARGV`` would, leaving stdout to the command, and writes its
record to the file RECORD.  ``cli`` runs one command through
``covercount.cli.main`` with tracing on.  Otherwise the last line of stdout
is a JSON record.  ``imported`` is the monotonic clock when ``import
covercount`` returned, so the client can take set-up time from its own clock
reading before the start; ``setup_factor`` and ``factor`` scale set-up and
job times to the reference speed (see speed.py), and ``samples`` are a
command's speed samples, which the client pools over a round.  Traced units are not
scaled, because the speed probe's handler would land inside the spans.

Every layer caches in module globals, so each unit runs in its own process:
an in-process repeat would time cache hits.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import covercount  # noqa: E402

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import runpy  # noqa: E402
import statistics  # noqa: E402

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def run_job(workload: str, inputs: dict, checks: workloads.Checks, tracer) -> tuple:
    """Run the operations, checks outside the timed region.

    Returns the job's raw seconds and its seconds scaled to the reference
    speed, with one speed meter per operation (traced jobs are not scaled).
    """
    wall = scaled = 0.0
    for label, compute, check in workloads.job(workload, inputs, covercount):
        meter = speed.Speedometer() if tracer is None else contextlib.nullcontext()
        error = None
        with meter:
            if tracer is not None:
                tracer.on = True
            start = time.perf_counter()
            try:
                result = compute()
            except Exception as exc:  # a raised exception is one failed operation
                error = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.on = False
        if tracer is None:
            elapsed -= meter.overhead
        scaled += elapsed * (meter.factor() if tracer is None else 1.0)
        wall += elapsed
        if error is not None:
            checks.error(label, error)
            continue
        try:
            check(result, checks.expect)
        except Exception as exc:
            checks.error(label, exc)
    return wall, scaled


def rerun_oracle(tracer: layers.Tracer, originals: dict) -> float:
    """Re-issue the job's distinct oracle calls after ``clear_caches``.

    This relies on ``clear_caches`` dropping the memoized counts but keeping
    the class graph, so the rerun times only the walk and the start-state
    enumeration, and ``monodromy.graph_s`` (cold minus rerun) is the graph
    construction.  A change that makes ``clear_caches`` free the graph
    redefines both metrics and must say so.
    """
    importlib.import_module("covercount.monodromy").clear_caches()
    hurwitz_connected = originals["monodromy.hurwitz_connected"]
    start = time.perf_counter()
    for args, kwargs in tracer.oracle_calls.values():
        hurwitz_connected(*args, **kwargs)
    return time.perf_counter() - start


def run_command(record_path: str, argv: list) -> int:
    """Run ``covercount.cli`` as ``python -m`` does, under a speed meter."""
    sys.argv = ["covercount"] + argv
    code = 0
    with speed.Speedometer() as meter:
        try:
            runpy.run_module("covercount.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    sys.stdout.flush()
    with open(record_path, "w") as fh:
        json.dump({"samples": meter.samples}, fh)
    return code


def run_cli(argv: list, checks: workloads.Checks, tracer) -> float:
    cli = importlib.import_module("covercount.cli")
    out = io.StringIO()
    tracer.on = True
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        wall = time.perf_counter() - start
        checks.error(workloads.cli_key(argv), exc)
        return wall
    finally:
        tracer.on = False
    wall = time.perf_counter() - start
    key = workloads.cli_key(argv)
    checks.expect(f"{key} exit code", code, 0)
    checks.expect(f"{key} stdout", out.getvalue(), workloads.cli_expected()[key])
    return wall


def main(argv: list) -> int:
    if not os.path.realpath(covercount.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"covercount imported from {covercount.__file__}, not {SRC}", file=sys.stderr)
        return 2
    mode = argv[0]
    if mode == "command":
        return run_command(argv[1], argv[2:])
    record = {
        "imported": IMPORTED,
        "setup_factor": speed.REFERENCE_S / statistics.median(speed.sample() for _ in range(3)),
    }
    if mode != "setup":
        flags = set(argv[1:])
        spans = argv[argv.index("--spans") + 1] if "--spans" in argv else None
        inputs = json.load(sys.stdin)
        checks = workloads.Checks(corrupt="--corrupt" in flags)
        tracer = layers.Tracer() if mode == "cli" or "--trace" in flags else None
        originals = layers.install(tracer) if tracer is not None else {}
        if mode == "cli":
            wall = scaled = run_cli(inputs["argv"], checks, tracer)
        else:
            wall, scaled = run_job(argv[1], inputs, checks, tracer)
        record.update(checks.result(), wall_s=wall, factor=scaled / wall)
        if tracer is not None:
            metrics = layers.layer_metrics(tracer, wall)
            rerun = rerun_oracle(tracer, originals) if tracer.oracle_calls else 0.0
            metrics["monodromy.rerun_s"] = rerun
            metrics["monodromy.graph_s"] = metrics.pop("monodromy.cold_s") - rerun
            record["layers"] = metrics
            if spans:
                tracer.write_spans(spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
