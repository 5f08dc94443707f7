"""Value semantics shared by every record class (oddbouquet.record.Record)."""

import copy
import inspect
import pickle

import pytest

from oddbouquet.cli import SweepRange, UsageError
from oddbouquet.composition import (
    CycleParts,
    LabeledGraph,
    OddCycleComposition,
    build_from_k,
)
from oddbouquet.record import Record
from oddbouquet.ringinv import GorensteinReport, classify
from oddbouquet.srcomplex import DecompositionReport, FVector, SimplicialComplex
from oddbouquet.toric import Binomial, Monomial

X0 = Monomial(0b01)
X1 = Monomial(0b10)
REPORT = classify(build_from_k((1, 1, 1)))

# class, field names in constructor order, one valid set of field values,
# and a second set that differs in one field
CASES = [
    (OddCycleComposition, ["k"], ((2, 1),), ((1, 2),)),
    (CycleParts, ["odd", "even"], (0b101, 0b010), (0b101, 0b1000)),
    (LabeledGraph, ["n_vertices", "endpoints"],
     (3, ((0, 1), (1, 2), (0, 2))), (3, ((0, 1), (1, 2), (0, 1)))),
    (Monomial, ["mask"], (0b1001,), (0b1011,)),
    (Binomial, ["plus", "minus"], (X0, X1), (X1, X0)),
    (GorensteinReport,
     ["h", "s", "cm_type", "e_tilde", "h_prime", "is_gorenstein",
      "is_almost_gorenstein"],
     tuple(getattr(REPORT, name) for name in REPORT._fields),
     tuple(getattr(REPORT, name) for name in REPORT._fields)[:-1] + (False,)),
    (SimplicialComplex, ["ground_size", "facets"],
     (3, (0b011, 0b110)), (3, (0b011,))),
    (FVector, ["counts"], ((1, 3, 2),), ((1, 3, 3),)),
    (DecompositionReport, ["union_ok", "intersection_ok"], (True, True), (True, False)),
    (SweepRange, ["max_n", "max_N", "hilbert_degree"], (2, 4, 3), (2, 4, 5)),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, values, other", CASES, ids=IDS)
def test_record_semantics(cls, fields, values, other):
    assert issubclass(cls, Record)
    # equality and hashing have one owner, whatever the class
    assert cls.__eq__ is Record.__eq__ and cls.__hash__ is Record.__hash__
    assert list(cls._fields) == fields
    assert list(inspect.signature(cls).parameters) == fields

    obj = cls(*values)
    assert tuple(getattr(obj, name) for name in fields) == values

    # positional and keyword construction agree, and equal fields give
    # equal objects with equal hashes
    twin = cls(**dict(zip(fields, values)))
    assert twin is not obj
    assert twin == obj and not twin != obj
    assert hash(twin) == hash(obj)
    assert cls(*other) != obj
    assert len({obj, twin, cls(*other)}) == 2

    # a record never equals the tuple of its fields, nor a lone field
    assert obj != values
    assert obj != values[0]

    # fields are read-only; no new attributes either
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == twin

    assert repr(obj) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, values)) + ")"
    assert copy.copy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


@pytest.mark.parametrize("first, second", [
    (SimplicialComplex(0, ()), LabeledGraph(0, ())),
    (OddCycleComposition((1, 2)), FVector((1, 2))),
    (FVector(0b1001), Monomial(0b1001)),
    (CycleParts(0b01, 0b10), Binomial(0b01, 0b10)),
    (OddCycleComposition((1,)), FVector((1,))),
])
def test_records_of_different_classes_are_unequal(first, second):
    assert first._values() == second._values()
    assert first != second and second != first
    assert not first == second


def test_defaults():
    assert SweepRange(3, 5) == SweepRange(3, 5, 4)
    assert SweepRange(max_N=5, max_n=3).hilbert_degree == 4


@pytest.mark.parametrize("build, error", [
    (lambda: OddCycleComposition(()), ValueError),
    (lambda: Binomial(X0, Monomial(0b01)), ValueError),
    (lambda: SimplicialComplex(2, (0b100,)), ValueError),
    (lambda: SimplicialComplex(3, (0b001, 0b001),), ValueError),
    (lambda: SimplicialComplex(3, (0b001, 0b011)), ValueError),
    (lambda: Monomial(-1), ValueError),
    (lambda: SweepRange(0, 4), UsageError),
    (lambda: SweepRange(3, 2), UsageError),
    (lambda: SweepRange(2, 2, hilbert_degree=-1), UsageError),
])
def test_validation_still_raises(build, error):
    with pytest.raises(error):
        build()


def test_cached_properties_are_stable():
    c = build_from_k((3, 1, 2))
    before = hash(c)
    assert c.N == 6 and c.N is c.N
    assert c.edge_labels is c.edge_labels
    assert c._offsets == (0, 7, 10)
    assert hash(c) == before and c == build_from_k((3, 1, 2))
    with pytest.raises(AttributeError):
        c.N = 7
    assert c.N == 6


def test_record_subclass_must_declare_slots():
    with pytest.raises(TypeError, match="__slots__"):
        class Loose(Record):
            pass
