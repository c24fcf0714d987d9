"""The contract every record of the package keeps: immutable fields,
equality within one class, hashing, repr, pickling and copying."""

from __future__ import annotations

import copy
import pickle

import pytest

from edgegraceful import (
    Graph, InducedLabels, QuadraticDiophantine, SearchOptions, Verdict, fan,
    lo_check, reduce, search, solve_factor_pairs, verify,
)
from edgegraceful.graphs import Record

FAN_EQUATION = QuadraticDiophantine(7, -2, 0, -5, -2, 0)
WITNESS = search(fan(1, 3)).solutions[0]
RECORDS = [
    Graph(3, [(0, 1), (1, 2)]),
    WITNESS,
    verify(WITNESS).induced,
    Verdict(False, InducedLabels((0, 0)), witness=(0, 1)),
    lo_check(12, 21),
    SearchOptions(mode="count", limit=5),
    search(fan(1, 3), SearchOptions(mode="all", limit=2)),
    FAN_EQUATION,
    reduce(FAN_EQUATION),
    solve_factor_pairs(reduce(FAN_EQUATION))[1],
]
IDS = [type(r).__name__ for r in RECORDS]


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


def test_every_record_class_is_covered():
    assert sorted(IDS) == sorted(cls.__name__ for cls in Record.__subclasses__())
    assert len(IDS) == 10


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_are_the_slots(record):
    assert type(record).__bases__ == (Record,)
    assert record.__reduce__() == (type(record), fields(record))


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
class TestRecordContract:
    def test_equal_records_hash_alike(self, record):
        again = type(record)(*fields(record))
        assert again == record and again is not record
        assert hash(again) == hash(record)
        by_name = dict(zip(type(record).__slots__, fields(record)))
        assert type(record)(**by_name) == record

    def test_equality_needs_the_same_class(self, record):
        class Sub(type(record)):  # declares no slots, so it keeps its base's fields
            pass

        assert record != fields(record) and fields(record) != record
        assert Sub(*fields(record)) != record
        assert record != Sub(*fields(record))

    def test_fields_cannot_be_assigned_or_deleted(self, record):
        for name in type(record).__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert not hasattr(record, "__dict__")

    def test_pickle_and_deepcopy_give_an_equal_record(self, record):
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                      copy.copy(record)):
            assert type(clone) is type(record)
            assert clone == record and hash(clone) == hash(record)

    def test_unknown_keyword_raises_type_error(self, record):
        with pytest.raises(TypeError):
            type(record)(*fields(record), no_such_field=1)

    def test_repr_names_every_field(self, record):
        text = repr(record)
        assert text.startswith(f"{type(record).__name__}(")
        for name, value in zip(type(record).__slots__, fields(record)):
            assert f"{name}={value!r}" in text


# fields a constructor may leave out, with the value it then stores
DEFAULTS = {"SearchOptions": {"mode": "first", "limit": None}}


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
class TestConstructorContract:
    def test_missing_field_raises_type_error(self, record):
        cls = type(record)
        by_name = dict(zip(cls.__slots__, fields(record)))
        for name in cls.__slots__:
            rest = {k: v for k, v in by_name.items() if k != name}
            if name in DEFAULTS.get(cls.__name__, {}):
                assert getattr(cls(**rest), name) == DEFAULTS[cls.__name__][name]
            else:
                with pytest.raises(TypeError):
                    cls(**rest)
        if cls.__name__ not in DEFAULTS:
            with pytest.raises(TypeError):
                cls()
            with pytest.raises(TypeError):
                cls(*fields(record)[:-1])

    def test_field_given_by_position_and_by_keyword_raises_type_error(self, record):
        cls = type(record)
        for name, value in zip(cls.__slots__, fields(record)):
            with pytest.raises(TypeError):
                cls(*fields(record), **{name: value})
        with pytest.raises(TypeError):
            cls(fields(record)[0], **dict(zip(cls.__slots__, fields(record))))

    def test_one_positional_argument_too_many_raises_type_error(self, record):
        with pytest.raises(TypeError):
            type(record)(*fields(record), fields(record)[0])

    def test_keywords_in_any_order_equal_positions(self, record):
        cls = type(record)
        pairs = list(zip(cls.__slots__, fields(record)))
        for order in (pairs[::-1], pairs[1:] + pairs[:1], pairs[::2] + pairs[1::2]):
            assert cls(**dict(order)) == cls(*fields(record))
        assert cls(pairs[0][1], **dict(pairs[:0:-1])) == record


def test_readme_repr():
    assert repr(lo_check(12, 21)) == "LoReport(p=12, q=21, residual=396, divides=True)"
