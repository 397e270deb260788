"""Each demo script runs to completion against the library in src/, and each
prints exactly its pinned output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


# Demo 01 prints D(Z) as a ZPoly and Z^3 over the spanning list; its output
# is fixed byte for byte.
DEMO_01_STDOUT = """\
The two generators, as exponential generating functions:
  Y counts rooted labeled trees:    [1, 2, 9, 64, 625, 7776]
  Z counts vertex-marked ones:      [1, 4, 27, 256, 3125, 46656]

Defining identities, checked to order 20
  (1 - Y)(1 + Z) == 1: True
  Y == q * exp(Y):     True
  Z == D(Y):           True

The total-height numbers A_n (= n! [q^n] Z^2): [0, 2, 24, 312, 4720, 82800]

D(Z) as a polynomial in Z: ZPoly(1*Z^1 + 2*Z^2 + 1*Z^3)
Z^3 over the spanning list [Z, Z^2, DZ]: [Fraction(-1, 1), Fraction(-2, 1), Fraction(1, 1)]

A series is pinned down by finitely many coefficients.
The doubly-rooted tree series n^{n-2}/n! identifies as:
   LaurentPolyX(1/2*X^0 + -1/2*X^2) (verified on 14 surplus orders)

And identification hands out coefficient asymptotics for free:
  [q^n] Z ~ 1 * (2*pi)^(-1/2) * e^n * n^(1/2 - 1)
"""


# Demo 02 prints the library's rows beside its own closed-form histogram sums.
DEMO_02_STDOUT = """\
n  k   p_{n,k}   n![q^n]Z^{k+1}   m_{n,k}
2  1          2              2           2
2  2          0              0           2
2  3          0              0           2
3  1         24             24          24
3  2          6              6          36
3  3          0              0          60
4  1        312            312         312
4  2        144            144         600
4  3         24             24        1320
5  1       4720           4720        4720
5  2       3060           3060       10840
5  3        960            960       28840
6  1      82800          82800       82800
6  2      67680          67680      218160
6  3      30240          30240      670320
7  1    1662024        1662024     1662024
7  2    1617210        1617210     4896444
7  3     920640         920640    16889124

k = 1 recovers the total height of labeled trees (the A sequence):
  Z-powers:    [2, 24, 312, 4720, 82800, 1662024]
  closed form: [2, 24, 312, 4720, 82800, 1662024]
"""


# Demo 03 prints counts (one with a (2, 2) profile) and phi fits; demo 04
# prints brackets and the Painleve and gravity constants.  Both read the count
# table end to end, so their output is fixed byte for byte.
DEMO_03_STDOUT = """\
Genus 0, three sheets, no profile: four branch points
  connected count:    4
  disconnected count: 9/2

Oracle vs the genus-zero closed formula:
  n=4, profile (2,): oracle 120, formula 120, equal: True
  n=5, profile (3, 1): oracle 3240, formula 3240, equal: True
  n=6, profile (2, 2): oracle 241920, formula 241920, equal: True

Genus 1 with no profile is the lone series outside the algebra:
  identification status: inconsistent
  first values h_{1,n}: ['0', '1/2', '40', '5460']

Normal-form inversion: fit the polynomial phi from counts alone.
  genus 0, profile (1,): phi = ZPoly(1 + 1/2*Z^1) (4 surplus orders verified)
  genus 1, profile (1,): phi = ZPoly(1/24*Z^1) (4 surplus orders verified)
  genus 1, profile (2,): phi = ZPoly(1/24 + 1/24*Z^1) (4 surplus orders verified)
"""


DEMO_04_STDOUT = """\
Brackets straight from covering counts:
  <tau (0, 0, 0)>_0 = 1
  <tau (1,)>_1 = 1/24
  <tau (0, 2)>_1 = 1/24
  <tau (0, 0, 2, 2)>_1 = 1/6

String and dilaton reductions hold exactly at genus 1:
  string on (1,2):  <tau_0 tau_1 tau_2> = 1/12 = <tau_0 tau_2> + <tau_1 tau_1> = 1/12
  dilaton on (0,2): <tau_1 tau_0 tau_2> = 1/12 = 2 <tau_0 tau_2> = 1/12

The bracket series collapses to a single power of (Z+1):
  H[tau_1]_1 identifies as LaurentPolyX(1/24*X^-1) (6 surplus orders)

Painleve I, solved order by order (exact):
  e_2 = 7/1440
  e_3 = 245/20736
  e_4 = 259553/2488320
  e_5 = 1337455/663552
  e_6 = 245229441961/3583180800

The gravity constants, radicals and all:
  b_0 = 1 * (2*pi)^(-1/2)
  b_1 = 1/48
  b_2 = 7/4320 * (2*pi)^(-1/2)
  b_3 = 245/15925248
  b_4 = 37079/48037017600 * (2*pi)^(-1/2)

Free-energy coefficients carry sqrt(2) exactly at even genus:
  g=2: 7/11520 * sqrt(2)
  g=3: 245/663552
  g=4: 259553/637009920 * sqrt(2)
  g=5: 1337455/679477248

Two independent routes to the same number at genus 2:
  normal-form fit:     7/1440
  Painleve recursion:  7/1440
"""


def run_demo(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    run_demo(demo)


def test_demo_01_stdout_is_pinned():
    assert run_demo(ROOT / "demos" / "01_tree_series_algebra.py") == DEMO_01_STDOUT


def test_demo_02_stdout_is_pinned():
    assert run_demo(ROOT / "demos" / "02_tree_statistics.py") == DEMO_02_STDOUT


def test_demo_03_stdout_is_pinned():
    assert run_demo(ROOT / "demos" / "03_covering_counts.py") == DEMO_03_STDOUT


def test_demo_04_stdout_is_pinned():
    assert run_demo(ROOT / "demos" / "04_gravity_constants.py") == DEMO_04_STDOUT
