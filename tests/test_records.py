"""The plain result records: tuples with named fields, defaults and a
truth value where they carry a verdict."""

from __future__ import annotations

import pickle

import pytest

from cmlab import (
    RATIONALS,
    ClassificationReport,
    Fixture,
    LeafOrder,
    MultiplicityAssignment,
    OracleVerdict,
    SatisfyingVerdict,
    SimplicialComplex,
    classify,
    find_leaf_order,
    get_fixture,
    is_cm_ideal_oracle,
    is_quasitree_satisfying,
)

SEGMENT = SimplicialComplex(2, [(1, 2)])


def _records():
    square = get_fixture("square").complex
    star = get_fixture("star").complex
    return [
        (OracleVerdict(False, (0, 2, 2, 0)), "OracleVerdict(is_cm=False, witness=(0, 2, 2, 0))"),
        (is_cm_ideal_oracle(get_fixture("square-alpha").assignment(), RATIONALS),
         "OracleVerdict(is_cm=False, witness=(0, 2, 2, 0))"),
        (SatisfyingVerdict(False, ((1, (2, 3), (1, 2)),)),
         "SatisfyingVerdict(satisfied=False, violations=((1, (2, 3), (1, 2)),),"
         " witness_tree=None)"),
        (is_quasitree_satisfying(MultiplicityAssignment.constant(star)), None),
        (LeafOrder((1, 2, 3), (None, 1, 2)), "LeafOrder(order=(1, 2, 3), branches=(None, 1, 2))"),
        (find_leaf_order(get_fixture("triangle-tree").complex),
         "LeafOrder(order=(6, 4, 5, 3, 2, 1), branches=(None, 6, 4, 4, 3, 3))"),
        (classify(square),
         "ClassificationReport(field=FieldSpec(characteristic=0), pure=True,"
         " strongly_connected=True, shellable=True, cohen_macaulay=True,"
         " minimal_multiplicity=False, quasi_tree=False, facet_graph_is_tree=False,"
         " cm_without_codim1_cycles=False, strongly_connected_quasi_tree=False)"),
        (Fixture("segment", "one edge", SEGMENT, ((1, 2, 3),), 2),
         f"Fixture(name='segment', description='one edge', complex={SEGMENT!r},"
         " overrides=((1, 2, 3),), char=2)"),
        (get_fixture("square-alpha"), None),
    ]


RECORDS = _records()
IDS = [f"{type(record).__name__}-{k}" for k, (record, _) in enumerate(RECORDS)]


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_a_record_is_the_tuple_of_its_fields(record, text):
    fields = tuple(getattr(record, name) for name in record._fields)
    assert isinstance(record, tuple)
    assert record == fields and tuple(record) == fields
    *head, last = record
    assert (*head, last) == fields
    assert record._asdict() == dict(zip(record._fields, fields))
    if text is not None:
        assert repr(record) == text


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_a_record_survives_replace_and_pickle(record, text):
    name, value = record._fields[0], record[0]
    changed = record._replace(**{name: "other"})
    assert type(changed) is type(record)
    assert changed == ("other", *record[1:])
    assert changed._replace(**{name: value}) == record
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record
    assert repr(back) == repr(record)


def test_record_fields_and_defaults():
    assert OracleVerdict._fields == ("is_cm", "witness")
    assert SatisfyingVerdict._fields == ("satisfied", "violations", "witness_tree")
    assert LeafOrder._fields == ("order", "branches")
    assert Fixture._fields == ("name", "description", "complex", "overrides", "char")
    assert ClassificationReport._fields[:2] == ("field", "pure")
    assert len(ClassificationReport._fields) == 10
    assert SatisfyingVerdict(True) == (True, (), None)
    assert SatisfyingVerdict(False, ((1, (2, 3), (1, 2)),)).witness_tree is None
    assert Fixture("segment", "one edge", SEGMENT, ()).char == 0
    with pytest.raises(TypeError):
        OracleVerdict(True)
    with pytest.raises(AttributeError):
        OracleVerdict(True, None).extra = 1


def test_a_verdict_is_true_exactly_when_it_holds():
    # not the tuple's length, which is never 0
    assert not SatisfyingVerdict(False, ((1, (2, 3), (1, 2)),))
    assert bool(SatisfyingVerdict(False, ((1, (2, 3), (1, 2)),))) is False
    assert bool(SatisfyingVerdict(True)) is True
    assert bool(OracleVerdict(False, (0, 2, 2, 0))) is False
    assert bool(OracleVerdict(True, None)) is True


def test_a_report_lists_its_flags_without_the_field():
    report = classify(get_fixture("square").complex)
    assert report.flags() == tuple(zip(report._fields[1:], report[1:]))
