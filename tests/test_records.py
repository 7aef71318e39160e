"""Value semantics of the record types: equality, hash, repr, immutability, pickling, copying, JSON documents and exact fields."""

from __future__ import annotations

import copy
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crossmaps.algebra import to_matrix
from crossmaps.core import Crossmap, Edge, EdgeListDraft, Finding, MassArray, validate_draft
from crossmaps.extraction import ExternalCommandTransform, InProcessTransform, probe_blackbox
from crossmaps.graph import ImputationMetrics, components, imputation_metrics, summarize
from crossmaps.transform import CoverageError, TransformOptions, TransformReceipt, apply_transform
from crossmaps.validation import CoverageReport, check_array, check_coverage

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_rebuilt_from_its_fields(name):
    make, fields, _ = CASES[name]
    record = make()
    cls, values = type(record), [getattr(record, f) for f in fields]
    assert cls(*values) == record
    assert cls(**dict(zip(fields, values))) == record
    assert all(f in fields for f in getattr(cls, "_exact", ()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_wrong_call_names_the_class(name):
    make, fields, _ = CASES[name]
    record = make()
    cls, values = type(record), [getattr(record, f) for f in fields]
    wrong_calls = [
        lambda: cls(*values, not_a_field=1),
        lambda: cls(*values, **{fields[0]: values[0]}),
        lambda: cls(*values, None),
    ]
    required = len(fields) - len(getattr(cls, "_defaults", ()))
    if required:
        wrong_calls.append(lambda: cls(*values[: required - 1]))
    for call in wrong_calls:
        with pytest.raises(TypeError, match=name):
            call()


def test_trailing_fields_default_to_none():
    assert Finding("error", "duplicate_edge", "a->x", "message").value is None
    assert ImputationMetrics(COUNTS, 0, 1, HALF).realized_split_mass_share is None
    assert TransformOptions() == TransformOptions(True, "error")


def test_misspelled_severity_refused():
    # A finding that is neither an error nor a warning would leave its report ok.
    with pytest.raises(ValueError, match="'error', 'warning'"):
        Finding("eror", "weight_sum_not_one", "a", "message")
    with pytest.raises(ValueError, match="'error', 'warning'"):
        Finding(severity="Error", code="weight_sum_not_one", subject="a", message="message")


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
        for name in ("_pairs", "_view", "total"):
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


COUNTS = {"one_to_one": 0, "one_to_many": 0, "many_to_one": 0, "many_to_many": 1}

# Library-built records and the exact documents their hand-written
# to_json_dict methods returned, key order included.
FIELD_DOCUMENTS = {
    "finding_with_value": (
        lambda: _bad_report().findings[0],
        {
            "severity": "error",
            "code": "weight_out_of_range",
            "subject": "b->x",
            "message": "weight 3/2 outside (0, 1]",
            "value": "3/2",
        },
    ),
    "finding_without_value": (
        lambda: validate_draft(EdgeListDraft([Edge("a", "x", HALF), Edge("a", "x", HALF)])).findings[0],
        {
            "severity": "error",
            "code": "duplicate_edge",
            "subject": "a->x",
            "message": "duplicate edge (a, x)",
            "value": None,
        },
    ),
    "finding_missing_value": (
        lambda: check_array(MassArray({"a": None}))[0],
        {
            "severity": "error",
            "code": "missing_value",
            "subject": "a",
            "message": "'a' is missing (NA); replace it with zero explicitly before transforming",
            "value": None,
        },
    ),
    "receipt": (
        lambda: apply_transform(_crossmap(), _array())[1],
        {"input_total": "11/2", "output_total": "11/2", "dropped_mass": "0", "split_mass": "5/2"},
    ),
    "receipt_with_dropped_mass": (
        lambda: apply_transform(
            _crossmap(), MassArray({"a": 3, "z": Fraction(1, 3)}), TransformOptions(on_uncovered="drop_and_report")
        )[1],
        {"input_total": "10/3", "output_total": "3", "dropped_mass": "1/3", "split_mass": "0"},
    ),
    "coverage_with_uncovered_keys": (
        lambda: check_coverage(_crossmap(), MassArray({"a": 1, "z": 2, "y": None})),
        {"conformable": False, "uncovered_keys": ["y", "z"], "mass_at_risk": "2"},
    ),
    "coverage_fully_covered": (
        lambda: check_coverage(_crossmap(), _array()),
        {"conformable": True, "uncovered_keys": [], "mass_at_risk": "0"},
    ),
    "metrics_with_array": (
        lambda: imputation_metrics(_crossmap(), _array()),
        {
            "component_type_counts": COUNTS,
            "fractional_edge_count": 2,
            "split_source_count": 1,
            "potential_split_share": "1/2",
            "realized_split_mass_share": "5/11",
        },
    ),
    "metrics_without_array": (
        lambda: imputation_metrics(_crossmap()),
        {
            "component_type_counts": COUNTS,
            "fractional_edge_count": 2,
            "split_source_count": 1,
            "potential_split_share": "1/2",
            "realized_split_mass_share": None,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(FIELD_DOCUMENTS))
def test_field_documents_render_each_field_in_order(case):
    make, expected = FIELD_DOCUMENTS[case]
    record = make()
    document = record.to_json_dict()
    assert document == expected
    assert json.dumps(document) == json.dumps(expected)  # key order too, nested dicts included
    for name, value in document.items():
        field = getattr(record, name)
        if isinstance(field, dict):
            assert value is not field  # a copy: changing the document leaves the record alone


def test_only_report_records_have_documents():
    documented = {"Finding", "ValidationReport", "TransformReceipt", "CoverageReport", "Component"}
    documented |= {"CrossmapSummary", "ImputationMetrics", "ExtractionResult"}
    for name, (make, _, _) in CASES.items():
        assert hasattr(make(), "to_json_dict") == (name in documented), name


# Each record or error with exact fields, built from exact values given as a
# list: the report records' fields, and CoverageError's mass_at_risk.
EXACT_FIELD_BUILDERS = {
    "TransformReceipt": (lambda v: TransformReceipt(v[0] + v[1], v[0], v[1], v[2]), 3),
    "CoverageReport": (lambda v: CoverageReport(False, ("k",), v[0]), 1),
    "Finding": (lambda v: Finding("error", "negative_value", "k", "message", v[0]), 1),
    "ImputationMetrics": (lambda v: ImputationMetrics(COUNTS, 0, 1, v[0], v[1]), 2),
    "ImputationMetrics_by_keyword": (
        lambda v: ImputationMetrics(COUNTS, 0, 1, realized_split_mass_share=v[1], potential_split_share=v[0]),
        2,
    ),
    "Finding_by_keyword": (lambda v: Finding("error", "negative_value", "k", message="message", value=v[0]), 1),
    "CoverageError": (lambda v: CoverageError(("k",), v[0]), 1),
}


def test_caller_int_renders_as_a_library_built_receipt():
    _, built = apply_transform(Crossmap([Edge("a", "x", 1)]), MassArray({"a": 5}))
    caller = TransformReceipt(5, 5, 0, 0)
    assert caller == built and hash(caller) == hash(built)
    assert json.dumps(caller.to_json_dict()) == json.dumps(built.to_json_dict())
    assert all(type(getattr(caller, name)) is Fraction for name in caller._fields)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TransformReceipt(1.0, 1, 0, 0),
        lambda: TransformReceipt(1, 1.0, 0, 0),
        lambda: TransformReceipt(1, 1, 0.0, 0),
        lambda: TransformReceipt(1, 1, 0, 0.5),
        lambda: TransformReceipt(True, True, 0, 0),
        lambda: CoverageReport(False, ("k",), 1.5),
        lambda: Finding("error", "negative_value", "k", "message", -0.5),
        lambda: Finding("error", "negative_value", "k", "message", False),
        lambda: ImputationMetrics(COUNTS, 0, 1, 0.5),
        lambda: ImputationMetrics(COUNTS, 0, 1, HALF, 0.25),
        lambda: CoverageError(("k",), 1.5),
        lambda: CoverageReport(False, ("k",), None),
        lambda: ImputationMetrics(COUNTS, 0, 1, None),
        lambda: TransformReceipt(None, 1, 0, 0),
        lambda: TransformReceipt(1, 1, dropped_mass=0, split_mass=None),
    ],
    ids=[
        "receipt_input",
        "receipt_output",
        "receipt_dropped",
        "receipt_split",
        "receipt_bool",
        "coverage_report",
        "finding",
        "finding_bool",
        "metrics_potential",
        "metrics_realized",
        "coverage_error",
        "coverage_report_none",
        "metrics_potential_none",
        "receipt_none",
        "receipt_keyword_none",
    ],
)
def test_inexact_field_refused(build):
    with pytest.raises(TypeError):
        build()


@given(
    st.sampled_from(sorted(EXACT_FIELD_BUILDERS)),
    st.lists(st.integers(0, 10**30), min_size=3, max_size=3),
    st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_equal_values_render_equal_documents(name, values, as_fraction):
    build, arity = EXACT_FIELD_BUILDERS[name]
    ints = values[:arity]
    mixed = [Fraction(v) if f else v for v, f in zip(ints, as_fraction)]
    a, b = build(ints), build(mixed)
    if isinstance(a, CoverageError):
        assert str(a) == str(b)
    else:
        assert a == b
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
    assert json.dumps(a.to_json_dict()) == json.dumps(build([Fraction(v) for v in ints]).to_json_dict())
