"""The value-type contract: construction, defaults, equality, hashing, repr,
immutability, pickling and the post-construction validators."""

import copy
import enum
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import covercount
from covercount import (
    AsymptoticTerm,
    ConsistencyError,
    CoveringSpec,
    DomainError,
    GravityConstant,
    HurwitzSeries,
    Identification,
    LaurentPolyX,
    LinearSolution,
    LinearSystem,
    Partition,
    PhiFit,
    PhiPolynomial,
    Radical,
    ScaledRational,
    TauSpec,
    TruncatedSeries,
    ZPoly,
    conjugacy_class_size,
    hurwitz_connected,
    hurwitz_disconnected,
    monodromy,
    painleve_solve,
)
from covercount.errors import Record
from covercount.gravity import TauSeriesResult

from .oracles import LabeledTree

ROOT = Path(__file__).resolve().parent.parent


def records():
    """A small hashable instance of each value type, keyed by its test id."""
    series = TruncatedSeries([0, 1, F(1, 2)])
    identified = Identification("identified", LaurentPolyX({-1: F(1, 24), 0: 2}), 3)
    phi = PhiPolynomial(0, Partition([2]), ZPoly([F(1, 4), F(1, 12)]))
    return {
        "CoveringSpec": CoveringSpec(1, 3, [(2,)]),
        "TauSpec": TauSpec(2, [3, 0, 1]),
        "LinearSolution": LinearSolution("unique", (F(1, 2), 3)),
        "LinearSystem": LinearSystem([[1, 2], [3, 4]], [5, 6]),
        "Identification": Identification("inconsistent"),
        "ScaledRational": ScaledRational(F(7, 12), Radical.INV_SQRT_2PI),
        "GravityConstant": GravityConstant(2, ScaledRational(F(7, 12), Radical.INV_SQRT_2PI)),
        "LabeledTree": LabeledTree(3, ((1, 2), (2, 3))),
        "Partition": Partition([1, 3, 2]),
        "TruncatedSeries": series,
        "ZPoly": ZPoly([1, F(-2, 3), 0, 5]),
        "LaurentPolyX": LaurentPolyX({-2: 3, 0: F(1, 2), 1: -1}),
        "Identification-identified": identified,
        "PhiPolynomial": phi,
        "PhiFit": PhiFit(phi, 2),
        "HurwitzSeries": HurwitzSeries(0, (Partition([2]),), series, identified),
        "TauSeriesResult": TauSeriesResult(TauSpec(0, [0, 0, 0]), F(1), series, identified),
        "AsymptoticTerm": AsymptoticTerm(ScaledRational(F(1, 2)), 3),
    }


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
    for r in records().values():
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


@pytest.mark.parametrize(
    "value, field",
    [
        (TruncatedSeries([1, 2]), "coeffs"),
        (ZPoly([0, 1]), "coeffs"),
        (LaurentPolyX({-1: 2}), "coeffs"),
    ],
    ids=["TruncatedSeries", "ZPoly", "LaurentPolyX"],
)
def test_series_and_polynomial_types_are_immutable(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


@pytest.mark.parametrize("r", list(records().values()), ids=list(records()))
def test_pickle_and_deepcopy_round_trip(r):
    for clone in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert clone == r and clone is not r
        assert type(clone) is type(r) and repr(clone) == repr(r)
        assert hash(clone) == hash(r)


def test_painleve_solution_round_trips_and_repr_is_stable():
    sol = painleve_solve(3)
    for clone in (pickle.loads(pickle.dumps(sol)), copy.deepcopy(sol)):
        assert clone == sol and clone is not sol
        assert clone.e == sol.e and clone.e is not sol.e
        assert repr(clone) == repr(sol)
    assert sol != painleve_solve(2)
    # records holding a dict are unhashable, as the dict is
    with pytest.raises(TypeError):
        hash(sol)
    assert repr(painleve_solve(2)) == "PainleveSolution(e={2: Fraction(7, 1440)})"


def test_every_exported_class_is_a_picklable_record():
    solution = painleve_solve(2)
    samples = {type(r): r for r in [*records().values(), solution]}
    for name, obj in vars(covercount).items():
        if not isinstance(obj, type):
            continue
        if issubclass(obj, (BaseException, enum.Enum)):
            continue
        assert issubclass(obj, Record), f"{name} is not a Record"
        assert obj in samples, f"no sample instance of {name}"
        clone = pickle.loads(pickle.dumps(samples[obj]))
        assert type(clone) is obj and clone == samples[obj], name


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


class SubSpec(CoveringSpec):
    pass


class SubSeries(TruncatedSeries):
    pass


def test_subclass_keeps_its_base_fields():
    assert SubSpec._fields == ("g", "n", "mus")
    assert SubSpec(1, 3) != SubSpec(0, 5)
    assert hash(SubSpec(1, 3)) != hash(SubSpec(0, 5))
    assert SubSpec(1, 3) == SubSpec(1, 3) != CoveringSpec(1, 3)
    assert repr(SubSpec(1, 3)) == "SubSpec(g=1, n=3, mus=())"
    assert SubSeries([1]) != SubSeries([2])


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


NOT_INTS = (2.5, 0.9, 1.0, True, False, F(1), "1", None)


@pytest.mark.parametrize("bad", NOT_INTS)
def test_partition_refuses_non_int_parts(bad):
    with pytest.raises(TypeError):
        Partition([bad, 1])
    if bad is not None:  # None is the default: no padding to n
        with pytest.raises(TypeError):
            conjugacy_class_size(Partition([1]), bad)
    assert Partition([2, 1]).parts == (2, 1)


@pytest.mark.parametrize("bad", NOT_INTS)
def test_covering_spec_refuses_non_int_genus_and_sheets(bad):
    for args in ((bad, 3), (0, bad), (0, 3, [(bad,)])):
        with pytest.raises(TypeError):
            CoveringSpec(*args)
    assert CoveringSpec(0, 3, [(2,)]).mus == (Partition([2]),)
    # a budget is refused before any table: True is no budget of 1, 1e12 none of 10^12
    monodromy.clear_caches()
    for count in (hurwitz_connected, hurwitz_disconnected):
        with pytest.raises(TypeError):
            count(CoveringSpec(2, 3), bad)
    assert not monodromy._CONN and not monodromy._DISC and not monodromy._PLANS


@pytest.mark.parametrize("bad", NOT_INTS)
def test_tau_spec_refuses_non_int_genus_and_indices(bad):
    for args in ((bad, [1]), (1, [bad])):
        with pytest.raises(TypeError):
            TauSpec(*args)
    assert TauSpec(1, [1]).ds == (1,)


@pytest.mark.parametrize("bad", NOT_INTS)
def test_laurent_poly_refuses_non_int_exponents(bad):
    with pytest.raises(TypeError):
        LaurentPolyX({bad: 2})
    assert LaurentPolyX({1: 2}).coeffs == {1: 2}
    # parsed input keeps its domain-error exit
    with pytest.raises(DomainError):
        LaurentPolyX.from_json({"1.5": "2"})


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
