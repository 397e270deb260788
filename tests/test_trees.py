import math
from fractions import Fraction as F

import pytest

from covercount import cli
from covercount.algebra import a_closed, series_z
from covercount.errors import BudgetExceeded
from covercount.trees import dendrology_m, dendrology_p, distance_histogram

from .oracles import (
    LabeledTree,
    enumerate_trees,
    moment_from_binomials,
    pruefer_distance_histogram,
    stirling_second,
)


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


def test_cayley_builds_one_histogram_per_n(capsys):
    # every k of one n reads the histogram the first k built
    distance_histogram.cache_clear()
    assert cli.main(["cayley", "--nmax", "40", "--kmax", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 39 * 3
    assert distance_histogram.cache_info().misses == 39


def test_rooted_tree_forest_bijection():
    # rooted labeled trees on n vertices number n^{n-1} = n! [q^n] Y
    for n in range(1, 8):
        assert sum(n for _ in enumerate_trees(n)) == n ** (n - 1)


def test_p21_is_two():
    assert dendrology_p(2, 1) == 2
    assert dendrology_m(2, 1) == 2


@pytest.mark.parametrize("n", range(2, 8))
def test_total_height_matches_a_sequence(n):
    assert dendrology_p(n, 1) == a_closed(n)
    assert dendrology_m(n, 1) == a_closed(n)


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("k", range(1, 4))
def test_binomial_statistic_matches_z_power(n, k):
    zk1 = series_z(n) ** (k + 1)
    assert dendrology_p(n, k) == zk1.egf_coefficient(n)


def test_moment_via_stirling_transform_agrees():
    # two independent computations of m_{n,k}
    for n in range(2, 6):
        for k in range(1, 4):
            assert dendrology_m(n, k) == moment_from_binomials(n, k)


def test_stirling_numbers_small_table():
    assert stirling_second(3, 2) == 3
    assert stirling_second(4, 2) == 7
    assert stirling_second(4, 4) == 1
    assert stirling_second(4, 0) == 0


def test_mark_symmetry_makes_statistics_even():
    # ordered pairs double each unordered pair: all statistics are even
    for n in range(2, 7):
        for k in range(1, 4):
            assert dendrology_p(n, k) % 2 == 0
            assert dendrology_m(n, k) % 2 == 0


def test_distances_bfs_simple_path():
    t = LabeledTree(4, ((1, 2), (2, 3), (3, 4)))
    assert t.distances_from(1)[1:] == [0, 1, 2, 3]
