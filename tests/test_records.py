"""Value semantics of the record types: equality, hash, repr, immutability, pickling and copying."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from crossmaps.algebra import to_matrix
from crossmaps.core import Crossmap, Edge, EdgeListDraft, MassArray, validate_draft
from crossmaps.extraction import ExternalCommandTransform, InProcessTransform, probe_blackbox
from crossmaps.graph import components, imputation_metrics, summarize
from crossmaps.transform import TransformOptions, apply_transform
from crossmaps.validation import check_coverage

HALF = Fraction(1, 2)


def _crossmap() -> Crossmap:
    return Crossmap([Edge("b", "x", HALF), Edge("b", "y", HALF), Edge("a", "x", 1)])


def _array() -> MassArray:
    return MassArray({"a": 3, "b": Fraction(5, 2)})


def _moved(array: MassArray) -> MassArray:
    return apply_transform(_crossmap(), array)[0]


def _bad_report():
    return validate_draft(EdgeListDraft([Edge("b", "x", Fraction(3, 2))]))


# (factory, field names in order, hashable); each factory builds a fresh, equal instance.
CASES = {
    "Edge": (lambda: Edge("a", "b", HALF), ("source", "target", "weight"), True),
    "EdgeListDraft": (lambda: EdgeListDraft([Edge("a", "b", 2)]), ("edges",), True),
    "Finding": (lambda: _bad_report().findings[0], ("severity", "code", "subject", "message", "value"), True),
    "ValidationReport": (_bad_report, ("findings",), True),
    "Crossmap": (_crossmap, ("edges",), True),
    "TransformOptions": (lambda: TransformOptions(False, "drop_and_report"), ("emit_zero_targets", "on_uncovered"), True),
    "TransformReceipt": (
        lambda: apply_transform(_crossmap(), _array())[1],
        ("input_total", "output_total", "dropped_mass", "split_mass"),
        True,
    ),
    "CoverageReport": (
        lambda: check_coverage(_crossmap(), MassArray({"a": 1, "z": 2})),
        ("conformable", "uncovered_keys", "mass_at_risk"),
        True,
    ),
    "MatrixEncoding": (lambda: to_matrix(_crossmap()), ("row_keys", "col_keys", "cells"), True),
    "Component": (lambda: components(_crossmap())[0], ("sources", "targets", "edges", "relation_type"), True),
    "TargetSummary": (
        lambda: summarize(_crossmap()).target_rows[0],
        ("target", "incoming_count", "incoming_keys"),
        True,
    ),
    "CrossmapSummary": (
        lambda: summarize(_crossmap()),
        ("target_rows", "edge_count", "source_count", "target_count", "component_type_counts"),
        False,
    ),
    "ImputationMetrics": (
        lambda: imputation_metrics(_crossmap(), _array()),
        (
            "component_type_counts",
            "fractional_edge_count",
            "split_source_count",
            "potential_split_share",
            "realized_split_mass_share",
        ),
        False,
    ),
    "InProcessTransform": (lambda: InProcessTransform(_moved), ("fn",), True),
    "ExternalCommandTransform": (lambda: ExternalCommandTransform(["cat", "-"]), ("argv",), True),
    "ExtractionResult": (
        lambda: probe_blackbox(InProcessTransform(_moved), ["a", "b"]),
        ("crossmap", "raw_weights", "nonconforming_sources", "tolerance_used", "rationalized"),
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_value_semantics(name):
    make, fields, hashable = CASES[name]
    record, twin = make(), make()
    cls = type(record)
    assert cls.__name__ == name
    assert record == twin and not record != twin

    class Other(cls):
        __slots__ = ()

    other = Other(*(getattr(record, f) for f in fields))
    assert record != other and other != record
    assert record.__eq__(other) is NotImplemented
    assert record != tuple(getattr(record, f) for f in fields)

    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)

    inner = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{name}({inner})"
    assert cls.__match_args__ == fields

    for field in (*fields, "not_a_field"):
        before = getattr(record, field, None)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field, None) is before
    assert record == twin

    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls
        assert clone == record
        assert repr(clone) == repr(record)


def test_match_binds_fields_by_position():
    match Edge("a", "b", HALF):
        case Edge(source, target, weight):
            assert (source, target, weight) == ("a", "b", HALF)


def test_copied_crossmap_rebuilds_its_views():
    crossmap = _crossmap()
    assert crossmap.outgoing  # fills the cache
    clone = copy.deepcopy(crossmap)
    assert clone.outgoing == crossmap.outgoing and clone.incoming == crossmap.incoming
    assert components(clone) == components(crossmap)


class TestMassArrayRecordRules:
    @pytest.mark.parametrize(
        "roundtrip",
        [lambda a: pickle.loads(pickle.dumps(a)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips(self, roundtrip):
        array = MassArray({"y": HALF, "x": None, "z": 0})
        clone = roundtrip(array)
        assert type(clone) is MassArray
        assert clone == array and list(clone.items()) == list(array.items())
        assert repr(clone) == repr(array)

    def test_entries_cannot_be_replaced_or_deleted(self):
        array = _array()
        for name in ("_entries", "total"):
            with pytest.raises(AttributeError):
                setattr(array, name, {})
            with pytest.raises(AttributeError):
                delattr(array, name)
        assert dict(array) == {"a": 3, "b": Fraction(5, 2)}
        assert array.total == Fraction(11, 2)

    def test_extraction_result_with_arrays_pickles(self):
        result = probe_blackbox(InProcessTransform(_moved), ["a", "b"])
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.raw_weights["b"] == {"x": HALF, "y": HALF}
