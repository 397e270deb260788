import math

import pytest

from covercount import cli, exact
from covercount.algebra import a_closed, series_z
from covercount.errors import BudgetExceeded
from covercount.exact import TruncatedSeries
from covercount.trees import dendrology

from .oracles import (
    LabeledTree,
    cauchy_product,
    distance_histogram,
    enumerate_trees,
    histogram_m,
    histogram_p,
    moment_from_binomials,
    pruefer_distance_histogram,
    stirling_second,
)

# (n, k) -> (m_{n,k}, p_{n,k}), every row of one table
TABLE = {(n, k): (m, p) for n, k, m, p in dendrology(7, 3)}


def test_tree_validation():
    LabeledTree(3, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        LabeledTree(3, ((1, 2),))  # wrong edge count
    with pytest.raises(ValueError):
        LabeledTree(4, ((1, 2), (1, 2), (3, 4)))  # disconnected multi-edge


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125)])
def test_cayley_counts_small(n, count):
    assert sum(1 for _ in enumerate_trees(n)) == count


def test_cayley_count_n7_full_enumeration():
    trees = list(enumerate_trees(7))
    assert len(trees) == 7**5
    # spot-check distinctness
    assert len({tuple(sorted(tuple(sorted(e)) for e in t.edges)) for t in trees}) == 7**5


def test_enumeration_limit_refusal():
    with pytest.raises(BudgetExceeded):
        list(enumerate_trees(9))


@pytest.mark.parametrize("n", range(1, 8))
def test_closed_form_histogram_matches_pruefer_enumeration(n):
    assert distance_histogram(n) == pruefer_distance_histogram(n)


def test_histogram_refuses_above_limit():
    with pytest.raises(ValueError):
        distance_histogram(0)


def test_cayley_builds_one_table(capsys, monkeypatch):
    # Z^2..Z^(kmax+1) come from the X-power recurrence and serve every n at
    # once: neither a series product nor the convolution kernel is reached
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)

        return wrapper

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted("mul", TruncatedSeries.__mul__))
    monkeypatch.setattr(exact, "_convolve", counted("convolve", exact._convolve))
    assert cli.main(["cayley", "--nmax", "40", "--kmax", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 39 * 3
    assert calls == []


def test_rooted_tree_forest_bijection():
    # rooted labeled trees on n vertices number n^{n-1} = n! [q^n] Y
    for n in range(1, 8):
        assert sum(n for _ in enumerate_trees(n)) == n ** (n - 1)


def test_p21_is_two():
    assert TABLE[2, 1] == (2, 2)


@pytest.mark.parametrize("n", range(2, 8))
def test_total_height_matches_a_sequence(n):
    assert TABLE[n, 1] == (a_closed(n), a_closed(n))


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("k", range(1, 4))
def test_binomial_statistic_matches_z_power(n, k):
    # Z^(k+1) by the Fraction convolution, which shares no kernel with the table
    z = series_z(n).coeffs
    power = z
    for _ in range(k):
        power = cauchy_product(power, z)
    assert TABLE[n, k][1] == power[n] * math.factorial(n)


def test_rows_match_distance_histogram():
    # the two routes meet on every row, k > n - 1 (p = 0) included
    rows = dendrology(60, 6)
    assert [(n, k) for n, k, _, _ in rows] == [(n, k) for n in range(2, 61) for k in range(1, 7)]
    for n, k, m, p in rows:
        assert (m, p) == (histogram_m(n, k), histogram_p(n, k))
    assert sum(p == 0 for _, _, _, p in rows) == 15


def test_table_is_empty_outside_its_range():
    assert dendrology(1, 3) == dendrology(5, 0) == dendrology(-3, 2) == []


def test_table_refuses_bool_sizes():
    for nmax, kmax in [(3, True), (True, 2), (False, 2)]:
        with pytest.raises(TypeError):
            dendrology(nmax, kmax)


def test_moment_via_stirling_transform_agrees():
    # two independent computations of m_{n,k}
    for (n, k), (m, _) in TABLE.items():
        assert m == moment_from_binomials(k, [TABLE[n, j][1] for j in range(1, k + 1)])


def test_stirling_numbers_small_table():
    assert stirling_second(3, 2) == 3
    assert stirling_second(4, 2) == 7
    assert stirling_second(4, 4) == 1
    assert stirling_second(4, 0) == 0


def test_mark_symmetry_makes_statistics_even():
    # ordered pairs double each unordered pair: all statistics are even
    for m, p in TABLE.values():
        assert m % 2 == 0 and p % 2 == 0


def test_distances_bfs_simple_path():
    t = LabeledTree(4, ((1, 2), (2, 3), (3, 4)))
    assert t.distances_from(1)[1:] == [0, 1, 2, 3]
