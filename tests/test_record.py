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
from oddbouquet.polyarith import ZERO, IntPoly
from oddbouquet.record import Record
from oddbouquet.ringinv import GorensteinReport, classify
from oddbouquet.srcomplex import DecompositionReport, FVector, SimplicialComplex
from oddbouquet.toric import Binomial, Monomial

X0 = Monomial(((0, 1),))
X1 = Monomial(((1, 1),))
REPORT = classify(build_from_k((1, 1, 1)))

# class, field names in constructor order, one valid set of field values,
# and a second set that differs in one field
CASES = [
    (OddCycleComposition, ["r", "k"], ((1, 1), (2, 1)), ((1, 1), (1, 2))),
    (CycleParts, ["odd", "even"], (0b101, 0b010), (0b101, 0b1000)),
    (LabeledGraph, ["n_vertices", "labels", "endpoints"],
     (3, ((1, 1), (1, 2), (1, 3)), ((0, 1), (1, 2), (0, 2))),
     (3, ((1, 1), (1, 2), (1, 3)), ((0, 1), (1, 2), (0, 1)))),
    (IntPoly, ["coeffs"], ((1, 2, 1),), ((1, 2),)),
    (Monomial, ["exps"], (((0, 2), (3, 1)),), (((0, 1), (3, 1)),)),
    (Binomial, ["plus", "minus"], (X0, X1), (X1, X0)),
    (GorensteinReport,
     ["h", "s", "cm_type", "e_tilde", "h_prime", "is_gorenstein",
      "is_almost_gorenstein"],
     tuple(getattr(REPORT, name) for name in REPORT._fields),
     tuple(getattr(REPORT, name) for name in REPORT._fields)[:-1] + (False,)),
    (SimplicialComplex, ["ground_size", "facets"],
     (3, (0b011, 0b110)), (3, (0b011,))),
    (FVector, ["counts"], ((1, 3, 2),), ((1, 3, 3),)),
    (DecompositionReport,
     ["union_ok", "intersection_ok", "facet_count", "cone_family_size", "join_family_size"],
     (True, True, 3, 2, 1), (True, False, 3, 2, 1)),
    (SweepRange,
     ["max_n", "max_N", "hilbert_degree", "enable_buchberger", "enable_bruteforce_complex"],
     (2, 4, 3, False, True), (2, 4, 3, False, False)),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, values, other", CASES, ids=IDS)
def test_record_semantics(cls, fields, values, other):
    assert issubclass(cls, Record)
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
    (IntPoly(()), FVector(())),
    (IntPoly((1, 2)), FVector((1, 2))),
    (FVector(((0, 1),)), Monomial(((0, 1),))),
    (CycleParts(0b01, 0b10), Binomial(0b01, 0b10)),
    (OddCycleComposition((1,), (1,)), CycleParts((1,), (1,))),
])
def test_records_of_different_classes_are_unequal(first, second):
    assert first._values() == second._values()
    assert first != second and second != first
    assert not first == second


def test_defaults():
    assert IntPoly() == IntPoly(()) == ZERO
    assert SweepRange(3, 5) == SweepRange(3, 5, 4, True, True)
    rng = SweepRange(max_N=5, max_n=3, enable_buchberger=False)
    assert (rng.hilbert_degree, rng.enable_buchberger) == (4, False)


@pytest.mark.parametrize("build, error", [
    (lambda: OddCycleComposition((1,), (2,)), ValueError),
    (lambda: OddCycleComposition((), ()), ValueError),
    (lambda: OddCycleComposition((1,), (1, 1)), ValueError),
    (lambda: OddCycleComposition((-1, 1), (2,)), ValueError),
    (lambda: OddCycleComposition((1, 0), (1,)), ValueError),
    (lambda: Binomial(X0, Monomial(((0, 1),))), ValueError),
    (lambda: SimplicialComplex(2, (0b100,)), ValueError),
    (lambda: SimplicialComplex(3, (0b001, 0b001),), ValueError),
    (lambda: SimplicialComplex(3, (0b001, 0b011)), ValueError),
    (lambda: SweepRange(0, 4), UsageError),
    (lambda: SweepRange(3, 2), UsageError),
    (lambda: SweepRange(2, 2, hilbert_degree=-1), UsageError),
])
def test_validation_still_raises(build, error):
    with pytest.raises(error):
        build()


def test_int_poly_trims_on_construction():
    p = IntPoly([3, 0, 1, 0, 0])
    assert p.coeffs == (3, 0, 1)
    assert IntPoly((0, 0)) == ZERO and IntPoly((0, 0)).coeffs == ()
    assert hash(IntPoly((1, 0))) == hash(IntPoly((1,)))


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

    m = Monomial(((0, 2), (3, 1)))
    assert m.degree == 3 and m.support == 0b1001
    assert m.support is m.support
    assert m == Monomial(((0, 2), (3, 1)))
    assert pickle.loads(pickle.dumps(m)).degree == 3


def test_record_subclass_must_declare_slots():
    with pytest.raises(TypeError, match="__slots__"):
        class Loose(Record):
            pass
