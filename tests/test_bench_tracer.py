"""The benchmark's layer tracer still installs on the library.

perfbench/layers.py wraps the public functions of every covercount module
and the methods of the classes it names (`covercount.algebra.ZPoly` and
`LaurentPolyX` among them), with no fallback for a missing name.  Every
traced unit and every `cli` round of the benchmark installs it, so a
renamed or removed class breaks the benchmark while the rest of the suite
still passes; this test runs the install in a fresh interpreter.
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
"""


def test_layer_tracer_installs_and_runs():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
