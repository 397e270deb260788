"""The value-type contract: construction, defaults, equality, hashing, repr,
immutability, pickling and the post-construction validators."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from covercount import (
    ConsistencyError,
    CoveringSpec,
    DomainError,
    GravityConstant,
    Identification,
    LabeledTree,
    LinearSolution,
    LinearSystem,
    Partition,
    PhiPolynomial,
    Radical,
    ScaledRational,
    TauSpec,
    ZPoly,
)

ROOT = Path(__file__).resolve().parent.parent


def records():
    return [
        CoveringSpec(1, 3, [(2,)]),
        TauSpec(2, [3, 0, 1]),
        LinearSolution("unique", (F(1, 2), 3)),
        LinearSystem([[1, 2], [3, 4]], [5, 6]),
        Identification("inconsistent"),
        ScaledRational(F(7, 12), Radical.INV_SQRT_2PI),
        GravityConstant(2, ScaledRational(F(7, 12), Radical.INV_SQRT_2PI)),
        LabeledTree(3, ((1, 2), (2, 3))),
        Partition([1, 3, 2]),
    ]


def test_reprs_are_pinned():
    assert repr(CoveringSpec(1, 3, [(2,)])) == "CoveringSpec(g=1, n=3, mus=(Partition(parts=(2,)),))"
    assert repr(TauSpec(2, [3, 0, 1])) == "TauSpec(g=2, ds=(0, 1, 3))"
    assert (
        repr(LinearSolution("unique", (F(1, 2), 3)))
        == "LinearSolution(status='unique', solution=(Fraction(1, 2), 3))"
    )
    assert (
        repr(Identification("inconsistent"))
        == "Identification(status='inconsistent', element=None, verified_orders=0)"
    )
    assert repr(ScaledRational(F(-3, 4))) == (
        "ScaledRational(value=Fraction(-3, 4), radical=<Radical.ONE: '1'>)"
    )
    # str falls back to repr where a record defines no __str__
    assert str(TauSpec(1, [1])) == "TauSpec(g=1, ds=(1,))"


def test_equality_is_per_class_and_hash_follows_it():
    a, b = CoveringSpec(1, 3, [(2,)]), CoveringSpec(1, 3, [[2]])
    assert a == b and hash(a) == hash(b)
    assert a != CoveringSpec(1, 4, [(2,)])
    assert LinearSolution("unique") != ("unique", None)
    assert Partition([2, 1]) != ((2, 1),)
    assert TauSpec(1, [1]) != (1, (1,))
    assert len({a, b, CoveringSpec(0, 3)}) == 2
    for r in records():
        assert r == copy.copy(r) and hash(r) == hash(copy.copy(r))


def test_records_are_immutable():
    spec = CoveringSpec(1, 3, [(2,)])
    with pytest.raises(AttributeError):
        spec.g = 2
    with pytest.raises(AttributeError):
        del spec.n
    with pytest.raises(AttributeError):
        spec.extra = 1
    sol = LinearSolution("unique")
    with pytest.raises(AttributeError):
        sol.solution = (1,)
    with pytest.raises(AttributeError):
        del sol.status
    assert spec == CoveringSpec(1, 3, [(2,)]) and sol == LinearSolution("unique")


@pytest.mark.parametrize("r", records(), ids=lambda r: type(r).__name__)
def test_pickle_and_deepcopy_round_trip(r):
    for clone in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert clone == r and clone is not r
        assert type(clone) is type(r) and repr(clone) == repr(r)
        assert hash(clone) == hash(r)


def test_construction_fields_and_defaults():
    assert LinearSolution("unique").solution is None
    assert Identification("x").verified_orders == 0
    assert Identification("x").element is None
    assert ScaledRational(F(1)).radical is Radical.ONE
    assert Identification(status="x", verified_orders=3) == Identification("x", None, 3)
    with pytest.raises(TypeError):
        LinearSolution()  # missing field
    with pytest.raises(TypeError):
        LinearSolution("unique", bogus=1)  # unknown field
    with pytest.raises(TypeError):
        LinearSolution("unique", None, 3)  # too many values
    with pytest.raises(TypeError):
        GravityConstant(g=2)  # missing field, no default


def test_validators_fire():
    with pytest.raises(ValueError):
        LabeledTree(3, ((1, 2),))  # too few edges
    with pytest.raises(ConsistencyError):
        GravityConstant(2, ScaledRational(F(1), Radical.ONE))  # even genus needs (2 pi)^(-1/2)
    with pytest.raises(DomainError):
        PhiPolynomial(0, Partition([2]), ZPoly([1, 1, 1]))  # degree 2 > bound 1
    # the valid neighbours construct
    GravityConstant(3, ScaledRational(F(1), Radical.ONE))
    PhiPolynomial(0, Partition([2]), ZPoly([1, 1]))


def test_import_loads_no_dataclass_machinery():
    # every CLI command is a fresh process; dataclasses pulls these modules in,
    # and with the decorators it cost ~25 ms of import on each one
    probe = (
        "import sys; before = set(sys.modules); import covercount, covercount.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = set(proc.stdout.split())
    assert "covercount.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, loaded
