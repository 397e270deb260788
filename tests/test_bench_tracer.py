"""The benchmark's layer tracer still installs on the library, and the
benchmark's jobs still run on it.

perfbench/layers.py wraps the public functions of every covercount module
and the methods of the classes it names (`covercount.algebra.ZPoly` and
`LaurentPolyX` among them), with no fallback for a missing name.  Every
traced unit and every `cli` round of the benchmark installs it, so a
renamed or removed class breaks the benchmark while the rest of the suite
still passes; this test runs the install in a fresh interpreter.  Its
series product and inverse hooks read only `TruncatedSeries.order` and the
call arguments, so one product and one inverse must each count once, whatever
fields the series stores.

The benchmark's jobs (perfbench/workloads.py) call the library by name
too, and compare the CLI's stdout with pinned bytes; the second test runs
one seeded job of each in-process workload and every CLI command of the
`cli` workload, and asks for no failed check.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import layers
tracer = layers.Tracer()
layers.install(tracer)
tracer.on = True
import covercount
print(covercount.dkz_poly(2), covercount.hg_empty_leading(2))
assert tracer.self_s["algebra"] > 0 and tracer.counts["hurwitz_series.fit_calls"] == 1
before = dict(tracer.counts)
z = covercount.series_z(6)
z * z, (1 + z).inverse()
grew = {{k: v - before[k] for k, v in tracer.counts.items() if v != before[k]}}
assert grew == {{"exact.mul_calls": 1, "exact.mul_coeff_ops": 28, "exact.inverse_calls": 1}}, grew
"""


def test_layer_tracer_installs_and_runs():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


JOBS = """
import contextlib, io, sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
import covercount
from covercount import cli
failed = []
for w in ("brackets", "profiles", "series"):
    checks = workloads.Checks()
    for label, compute, check in workloads.job(w, workloads.make_inputs(w, 1), covercount):
        try:
            check(compute(), checks.expect)
        except Exception as exc:
            checks.error(label, exc)
    assert checks.attempted > 0, w
    failed += checks.errors
expected = workloads.cli_expected()
for argv in workloads.CLI_COMMANDS:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    key = workloads.cli_key(argv)
    if code != 0 or out.getvalue() != expected[key]:
        failed.append(f"{{key}}: exit {{code}}")
assert not failed, failed
"""


def test_benchmark_jobs_and_cli_commands_pass_their_checks():
    script = JOBS.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
