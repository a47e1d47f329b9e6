"""Complex construction, face enumeration, and exponent tables."""

from __future__ import annotations

import copy
import gc
import pickle
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    canonical_facets_reference,
    random_assignment,
    random_complex,
    random_pure_complex,
    random_pure_strongly_connected,
)

from cmlab import RATIONALS, complexes, fixture_names, get_fixture, is_cm_complex
from cmlab.complexes import (
    ExponentOffset,
    MultiplicityAssignment,
    SimplicialComplex,
    _exponent_domain,
    _per_complex,
)
from cmlab.errors import (
    CmLabError,
    EmptyFacet,
    FaceNotInComplex,
    MultiplicityDomainMismatch,
    NotPure,
    UncoveredVertex,
    VertexOutOfRange,
    VoidComplex,
)
from cmlab.graphs import FacetLevelGraph, facet_graph, relation_trees
from cmlab.homology import (
    GF2,
    ExactMatrix,
    FieldSpec,
    is_cm_ideal_oracle,
    reduced_homology_ranks,
)
from cmlab.ideals import MonomialIdeal
from cmlab.satisfying import (
    check_cm_tree_case,
    is_general_satisfying,
    is_quasitree_satisfying,
    is_tree_satisfying,
)
from cmlab.structure import classify

MAIN_FACETS = ((1, 2, 4), (2, 3, 5), (2, 4, 5), (4, 5, 7), (4, 6, 7), (5, 7, 8))


def test_canonical_facet_order(tree_fixture):
    assert tree_fixture.facets == MAIN_FACETS


def test_canonicalization_sorts_dedupes_and_absorbs():
    cx = SimplicialComplex.from_facets(4, [[2, 1], [1, 2], [3, 4], [4], [1]])
    assert cx.facets == ((1, 2), (3, 4))
    assert cx.m == 2


def test_canonical_facets_match_the_set_based_reference():
    # duplicates in any order, nested faces down to a vertex, the empty
    # face, no faces at all, and the 1,100-edge path
    rng = random.Random(59)
    inputs = [
        [],
        [()],
        [(), (3,)],
        [[2, 1], [1, 2], [3, 4], [4], [1], [1, 1, 2]],
        [(1, 2, 3), (1, 2), (2, 3), (1, 3), (3,), (1, 2, 3), (3, 2, 1)],
        [(1, 2, 3), (2, 3, 4), (2, 3), (1, 4), (4,)],
        [[k, k + 1] for k in range(1, 1101)],
    ]
    for _ in range(300):
        n = rng.randint(1, 7)
        faces = [rng.sample(range(1, n + 1), rng.randint(0, n)) for _ in range(rng.randint(1, 9))]
        # repeat and shrink some faces, so duplicates and nested faces occur
        faces += [rng.sample(f, rng.randint(0, len(f))) for f in rng.sample(faces, len(faces) // 2)]
        faces += rng.sample(faces, len(faces) // 3)
        inputs.append(faces)
    absorbed = 0
    for raw in inputs:
        expected = canonical_facets_reference(raw)
        assert complexes._canonical_facets(raw) == expected
        absorbed += len(expected) < len({tuple(sorted(set(f))) for f in raw})
    assert absorbed >= 200


def test_from_facets_rejects_empty_facet():
    with pytest.raises(EmptyFacet):
        SimplicialComplex.from_facets(2, [[1, 2], []])


def test_from_facets_rejects_vertex_out_of_range():
    with pytest.raises(VertexOutOfRange):
        SimplicialComplex.from_facets(2, [[1, 3]])
    with pytest.raises(VertexOutOfRange):
        SimplicialComplex.from_facets(2, [[0, 1]])


def test_from_facets_rejects_uncovered_vertex():
    with pytest.raises(UncoveredVertex):
        SimplicialComplex.from_facets(3, [[1, 2]])


def test_void_and_irrelevant_are_distinct():
    void = SimplicialComplex(0, ())
    irrelevant = SimplicialComplex(0, ((),))
    assert void.is_void and not irrelevant.is_void
    assert irrelevant.is_irrelevant
    assert void.dim == -2 and irrelevant.dim == -1
    assert void != irrelevant


def test_dim_purity_vertices(tree_fixture):
    assert tree_fixture.dim == 2
    assert tree_fixture.is_pure
    assert tree_fixture.vertices == tuple(range(1, 9))
    mixed = SimplicialComplex.from_facets(4, [[1, 2, 3], [3, 4]])
    assert not mixed.is_pure


def test_all_faces_count_and_order(tree_fixture):
    faces = tree_fixture.all_faces()
    # 1 empty + 8 vertices + 13 edges + 6 triangles
    assert len(faces) == 28
    assert faces[0] == ()
    assert list(faces) == sorted(faces, key=lambda f: (len(f), f))
    assert tree_fixture.faces_of_dim(1) == tuple(
        f for f in faces if len(f) == 2
    )
    assert tree_fixture.has_face((2, 4, 5))
    assert not tree_fixture.has_face((1, 8))


def test_link_of_empty_face_is_whole_complex(tree_fixture):
    assert tree_fixture.link(()) == tree_fixture


def test_link_of_facet_is_irrelevant(tree_fixture):
    lk = tree_fixture.link((1, 2, 4))
    assert lk.is_irrelevant
    assert lk.n == tree_fixture.n  # ambient vertex count is preserved


def test_link_of_vertex(tree_fixture):
    lk = tree_fixture.link((4,))
    assert lk.facets == ((1, 2), (2, 5), (5, 7), (6, 7))


def test_link_rejects_non_face(tree_fixture):
    with pytest.raises(FaceNotInComplex):
        tree_fixture.link((1, 8))


def test_f_and_h_vectors(tree_fixture):
    assert tree_fixture.f_vector() == (8, 13, 6)
    assert tree_fixture.h_vector() == (1, 5, 0, 0)
    single = SimplicialComplex.from_facets(2, [[1, 2]])
    assert single.h_vector() == (1, 0, 0)
    hollow = get_fixture("triangle-boundary").complex
    assert hollow.f_vector() == (3, 3)
    assert hollow.h_vector() == (1, 1, 1)


def test_h_vector_rejects_void():
    with pytest.raises(VoidComplex):
        SimplicialComplex(0, ()).h_vector()


def test_multiplicity(tree_fixture, square_fixture):
    assert tree_fixture.multiplicity() == 6
    assert tree_fixture.has_minimal_multiplicity()
    # square: 4 facets versus 1 + 4 - 2 = 3
    assert square_fixture.multiplicity() == 4
    assert not square_fixture.has_minimal_multiplicity()
    with pytest.raises(VoidComplex):
        SimplicialComplex(0, ()).multiplicity()


def test_multiplicity_counts_top_facets_without_listing_faces():
    # only the facets of dim + 1 vertices are top-dimensional faces
    mixed = SimplicialComplex.from_facets(6, [[1, 2, 3], [3, 4, 5], [5, 6], [1, 6]])
    assert mixed.multiplicity() == 2
    assert SimplicialComplex(3, ((),)).multiplicity() == 1
    with pytest.raises(VoidComplex):
        SimplicialComplex(3, ()).multiplicity()
    # the 18-vertex simplex has 2^18 faces, and classify lists none of them
    simplex = SimplicialComplex.from_facets(18, [range(1, 19)])
    misses = complexes._all_faces.cache_info().misses
    report = classify(simplex)
    assert report.minimal_multiplicity and report.cohen_macaulay
    assert complexes._all_faces.cache_info().misses == misses


def test_strongly_connected(tree_fixture):
    assert facet_graph(tree_fixture).is_connected()
    split = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    assert not facet_graph(split).is_connected()
    pinched = SimplicialComplex.from_facets(5, [[1, 2, 3], [3, 4, 5]])
    assert not facet_graph(pinched).is_connected()
    assert facet_graph(SimplicialComplex.from_facets(3, [[1, 2, 3]])).is_connected()
    assert not facet_graph(SimplicialComplex(0, ())).is_connected()
    with pytest.raises(NotPure):
        facet_graph(SimplicialComplex.from_facets(4, [[1, 2, 3], [3, 4]]))


def test_stanley_reisner_primes(square_fixture):
    primes = square_fixture.stanley_reisner_primes()
    assert primes[0] == (3, 4)  # complement of facet (1,2)


# -- exponent tables ---------------------------------------------------------


def test_constant_assignment_domain(tree_fixture):
    ones = MultiplicityAssignment.constant(tree_fixture)
    # each of the 6 facets omits 5 of the 8 vertices
    assert len(ones.entries) == 30
    assert all(v == 1 for _, _, v in ones.entries)
    assert ones.max_value() == 1
    assert ones.overrides() == {}


def test_constant_table_checks_its_value_once(tree_fixture, monkeypatch):
    # the table equals the validated one, and a bad value is reported as
    # the validating constructor reports it, at the first domain pair
    rng = random.Random(12)
    for cx in [tree_fixture] + [random_pure_strongly_connected(rng) for _ in range(10)]:
        for value in (1, 4):
            want = MultiplicityAssignment(cx, [(j, i, value) for j, i in _exponent_domain(cx)])
            assert MultiplicityAssignment.constant(cx, value) == want
    j, i = _exponent_domain(tree_fixture)[0]
    for bad in (0, -2, True, 1.0, "1"):
        message = f"exponent table value at facet {j}, vertex {i} must be an integer >= 1, got {bad!r}"
        with pytest.raises(MultiplicityDomainMismatch, match=re.escape(message)):
            MultiplicityAssignment.constant(tree_fixture, bad)
    # with no exponent slots there is nothing to check
    simplex = SimplicialComplex.from_facets(3, [[1, 2, 3]])
    assert MultiplicityAssignment.constant(simplex, 0).entries == ()

    def no_validation(*args):
        raise AssertionError("a constant table is built without validating its entries")

    monkeypatch.setattr(complexes, "_validated_entries", no_validation)
    assert MultiplicityAssignment.constant(tree_fixture, 2).max_value() == 2


def test_from_overrides_roundtrip(tree_fixture):
    am = MultiplicityAssignment.from_overrides(tree_fixture, {(3, 1): 2, (4, 8): 3})
    assert am.value(3, 1) == 2
    assert am.value(4, 8) == 3
    assert am.value(2, 1) == 1
    assert am.overrides() == {(3, 1): 2, (4, 8): 3}
    assert am.max_value() == 3
    assert am.vertex_values(1) == ((2, 1), (3, 2), (4, 1), (5, 1), (6, 1))


def test_trusted_table_equals_the_validated_one():
    # the table built from the raised entries alone answers as a scan of
    # the validated table's entries would
    rng = random.Random(47)
    for _ in range(30):
        cx = random_pure_strongly_connected(rng)
        am = random_assignment(rng, cx, 4)
        trusted = MultiplicityAssignment._of_canonical(cx, am.raised)
        assert trusted == am and hash(trusted) == hash(am)
        for i in range(1, cx.n + 1):
            expected = tuple((j, v) for j, i2, v in am.entries if i2 == i)
            assert trusted.vertex_values(i) == am.vertex_values(i) == expected
        assert all(trusted.value(j, i) == v for j, i, v in am.entries)
        with pytest.raises(MultiplicityDomainMismatch):
            trusted.value(1, cx.facets[0][0])


def test_table_validation_sorts_by_pair_and_names_the_first_bad_value(tree_fixture):
    ones = MultiplicityAssignment.constant(tree_fixture)
    shuffled = list(ones.entries)
    random.Random(3).shuffle(shuffled)
    assert MultiplicityAssignment(tree_fixture, shuffled) == ones
    cover = "exponent table must cover each (facet, missing vertex) pair exactly once"
    (j, i, _), rest = ones.entries[0], ones.entries[1:]
    # a repeated pair whose values do not compare is a domain mismatch
    for entries in (rest, rest + ((j + 1, i, 1),), ((j, i, "x"), (j, i, None)) + rest):
        with pytest.raises(MultiplicityDomainMismatch, match=re.escape(cover)):
            MultiplicityAssignment(tree_fixture, entries)
    bad = shuffled[:5] + [(a, b, 0) for a, b, _ in shuffled[5:7]] + shuffled[7:]
    a, b, _ = shuffled[5]
    with pytest.raises(
        MultiplicityDomainMismatch,
        match=re.escape(f"value at facet {a}, vertex {b} must be an integer >= 1, got 0"),
    ):
        MultiplicityAssignment(tree_fixture, bad)


def test_from_overrides_rejects_bad_keys(tree_fixture):
    with pytest.raises(MultiplicityDomainMismatch):
        MultiplicityAssignment.from_overrides(tree_fixture, {(1, 1): 2})
    with pytest.raises(MultiplicityDomainMismatch):
        MultiplicityAssignment.from_overrides(tree_fixture, {(7, 1): 2})
    with pytest.raises(MultiplicityDomainMismatch):
        MultiplicityAssignment.from_overrides(tree_fixture, {(2, 1): 0})


def test_bool_indices_name_no_exponent_slot():
    # True == 1, so a bool facet or vertex passes the range checks and
    # its pair compares equal to a domain pair; it is refused as an
    # index, as a bool is refused as a value
    cx = SimplicialComplex(3, ((1, 2), (2, 3)))  # domain (1, 3), (2, 1)
    for (j, i), entries in (
        ((True, 3), [(True, 3, 2), (2, 1, 1)]),
        ((2, True), [(1, 3, 1), (2, True, 2)]),
    ):
        message = re.escape(f"no exponent slot at facet {j}, vertex {i}")
        with pytest.raises(MultiplicityDomainMismatch, match=message):
            MultiplicityAssignment.from_overrides(cx, {(j, i): 2})
        with pytest.raises(MultiplicityDomainMismatch, match=message):
            MultiplicityAssignment(cx, entries)
        with pytest.raises(MultiplicityDomainMismatch, match=message):
            ExponentOffset(cx, entries)
        with pytest.raises(MultiplicityDomainMismatch, match=message):
            MultiplicityAssignment.constant(cx).value(j, i)
    assert MultiplicityAssignment(cx, [(1, 3, 2), (2, 1, 1)]).raised == ((1, 3, 2),)
    assert MultiplicityAssignment.from_overrides(cx, {(1, 3): 2}).raised == ((1, 3, 2),)


def test_from_overrides_equals_the_validated_table(tree_fixture, monkeypatch):
    # the table, or the first bad value in domain order, is what the
    # validating constructor gives; the overrides are drawn in random
    # order, so a check in their own order would name another pair
    def outcome(build):
        try:
            return build()
        except MultiplicityDomainMismatch as exc:
            return str(exc)

    rng = random.Random(58)
    domain = _exponent_domain(tree_fixture)
    for _ in range(200):
        picks = rng.sample(domain, rng.randint(0, 6))
        overrides = {pair: rng.choice((1, 2, 5, 0, -1, True, 2.0, "3")) for pair in picks}
        full = [(j, i, overrides.get((j, i), 1)) for j, i in domain]
        assert outcome(
            lambda: MultiplicityAssignment.from_overrides(tree_fixture, overrides)
        ) == outcome(lambda: MultiplicityAssignment(tree_fixture, full))

    def no_validation(*args):
        raise AssertionError("a table from overrides is built without validating every entry")

    monkeypatch.setattr(complexes, "_validated_entries", no_validation)
    am = MultiplicityAssignment.from_overrides(tree_fixture, {(3, 1): 2})
    assert am.overrides() == {(3, 1): 2}


def test_threshold_subcomplex_at_zero_is_identity():
    fx = get_fixture("square-alpha")
    am = fx.assignment()
    assert am.threshold_subcomplex((0, 0, 0, 0)) == fx.complex


def test_threshold_subcomplex_witness_survivors():
    am = get_fixture("square-alpha").assignment()
    sub = am.threshold_subcomplex((0, 2, 2, 0))
    assert sub.facets == ((1, 3), (2, 4))


def test_threshold_subcomplex_monotone(tree_fixture):
    # raising any threshold can only remove facets
    rng = random.Random(11)
    am = random_assignment(rng, tree_fixture, 3)
    for _ in range(40):
        a = tuple(rng.randint(0, 3) for _ in range(8))
        bump = rng.randrange(8)
        b = tuple(v + (k == bump) for k, v in enumerate(a))
        assert set(am.threshold_subcomplex(b).facets) <= set(
            am.threshold_subcomplex(a).facets
        )


def test_threshold_subcomplex_validates(tree_fixture):
    ones = MultiplicityAssignment.constant(tree_fixture)
    with pytest.raises(MultiplicityDomainMismatch):
        ones.threshold_subcomplex((0, 0))
    with pytest.raises(MultiplicityDomainMismatch):
        ones.threshold_subcomplex((-1,) * 8)


def test_offset_arithmetic(tree_fixture):
    z = ExponentOffset.zero(tree_fixture)
    ind = ExponentOffset.indicator(tree_fixture, 1, [3, 4])
    assert z + z == z and ind != z
    assert (z + ind) == ind
    assert ind.scale(2).value(3, 1) == 2
    assert ind.plus_one().value(3, 1) == 2
    assert ind.plus_one().value(2, 1) == 1
    other = ExponentOffset.zero(get_fixture("star").complex)
    with pytest.raises(MultiplicityDomainMismatch):
        ind + other


def test_offset_value_outside_the_domain_is_a_domain_mismatch(tree_fixture):
    # vertex tree_fixture.facets[0][0] lies in facet 1, so it has no slot there
    for table in (ExponentOffset.zero(tree_fixture), MultiplicityAssignment.constant(tree_fixture)):
        with pytest.raises(MultiplicityDomainMismatch, match="no exponent slot at facet 1"):
            table.value(1, tree_fixture.facets[0][0])


def test_value_outside_the_domain_names_the_pair(tree_fixture):
    # a vertex inside the facet, a facet or vertex out of range, and a
    # vertex no facet misses all have no slot
    cx = SimplicialComplex(3, ((1, 2), (2, 3)))
    for table in (MultiplicityAssignment.constant(cx, 2), ExponentOffset.zero(cx)):
        for j, i in ((1, 2), (1, 1), (0, 3), (3, 1), (1, 0), (1, 4), (2, 2)):
            with pytest.raises(MultiplicityDomainMismatch) as info:
                table.value(j, i)
            assert str(info.value) == f"no exponent slot at facet {j}, vertex {i}"
        assert table.value(1, 3) == table.entries[0][2]


def test_levels_group_each_vertex_values_by_value():
    # per vertex, the facets taking each value, as vertex_values lists
    # them; vertex 0 and vertices inside every facet have none
    rng = random.Random(61)
    corpus = [random_pure_strongly_connected(rng) for _ in range(60)]
    corpus += [random_pure_complex(rng) for _ in range(60)]
    corpus += [random_complex(rng, 6, 4, cone=rng.randint(0, 1)) for _ in range(60)]
    for cx in corpus:
        for am in (MultiplicityAssignment.constant(cx), random_assignment(rng, cx, 4)):
            expected = [()]
            for i in range(1, cx.n + 1):
                masks: dict[int, int] = {}
                for j, v in am.vertex_values(i):
                    masks[v] = masks.get(v, 0) | 1 << (j - 1)
                expected.append(tuple(sorted(masks.items())))
            assert am.levels == tuple(expected)
            assert am.levels is am.levels
            trusted = MultiplicityAssignment._of_canonical(cx, am.raised)
            assert trusted.levels == am.levels


def test_offset_of_assignment_roundtrip(tree_fixture):
    am = MultiplicityAssignment.from_overrides(tree_fixture, {(3, 1): 4})
    assert am.offset().plus_one() == am


class _DenseTable:
    """Reference table: every entry (j, i, v) of the domain, in its order,
    read by scans."""

    def __init__(self, cx, entries):
        self.cx, self.entries = cx, tuple(sorted(entries))

    def value(self, j, i):
        return next((v for j2, i2, v in self.entries if (j2, i2) == (j, i)), None)

    def vertex_values(self, i):
        return tuple((j, v) for j, i2, v in self.entries if i2 == i)

    def levels(self):
        out = []
        for i in range(self.cx.n + 1):
            masks: dict[int, int] = {}
            for j, v in self.vertex_values(i):
                masks[v] = masks.get(v, 0) | 1 << (j - 1)
            out.append(tuple(sorted(masks.items())))
        return tuple(out)

    def threshold_facets(self, a):
        return tuple(
            f for j, f in enumerate(self.cx.facets, start=1)
            if all(a[i - 1] < v for j2, i, v in self.entries if j2 == j)
        )

    def mapped(self, fn):
        return [(j, i, fn(v)) for j, i, v in self.entries]


def _table_complexes(rng):
    """Every fixture, random complexes, one with no exponent slots, one
    with a single facet, and the irrelevant and void complexes."""
    corpus = [get_fixture(name).complex for name in fixture_names()]
    corpus += [random_pure_strongly_connected(rng) for _ in range(15)]
    corpus += [random_complex(rng, 6, 4, cone=rng.randint(0, 1)) for _ in range(15)]
    corpus += [
        SimplicialComplex.from_facets(3, [[1, 2, 3]]),
        SimplicialComplex(4, ((1, 3),)),
        SimplicialComplex(3, [()]),
        SimplicialComplex(2, []),
    ]
    return corpus


def _dense_tables(rng, cx):
    """Entry lists for constant 1, constant 2 and random values, and each
    fixture's own table on its complex."""
    domain = _exponent_domain(cx)
    tables = [[(j, i, 1) for j, i in domain], [(j, i, 2) for j, i in domain]]
    tables += [[(j, i, rng.randint(1, 4)) for j, i in domain] for _ in range(2)]
    for name in fixture_names():
        fx = get_fixture(name)
        if fx.complex == cx and fx.overrides:
            values = {(j, i): v for j, i, v in fx.overrides}
            tables.append([(j, i, values.get((j, i), 1)) for j, i in domain])
    return tables


def test_tables_keeping_raised_entries_answer_as_dense_tables():
    # a table keeps only its entries above the minimum; every reader
    # answers as a scan of the whole domain's entries does
    rng = random.Random(97)
    built = 0
    for cx in _table_complexes(rng):
        domain = set(_exponent_domain(cx))
        for entries in _dense_tables(rng, cx):
            shuffled = rng.sample(entries, len(entries))
            am, ref = MultiplicityAssignment(cx, shuffled), _DenseTable(cx, entries)
            assert am.entries == ref.entries
            assert am.raised == tuple(e for e in ref.entries if e[2] > 1)
            for j in range(cx.m + 2):
                for i in range(cx.n + 2):
                    if (j, i) in domain:
                        assert am.value(j, i) == ref.value(j, i)
                    else:
                        with pytest.raises(MultiplicityDomainMismatch) as info:
                            am.value(j, i)
                        assert str(info.value) == f"no exponent slot at facet {j}, vertex {i}"
            for i in range(-1, cx.n + 2):
                if 1 <= i <= cx.n:
                    assert am.vertex_values(i) == ref.vertex_values(i)
                else:
                    with pytest.raises(VertexOutOfRange, match=f"^vertex {i} not in 1..{cx.n}$"):
                        am.vertex_values(i)
            assert am.levels == ref.levels()
            for a in [(0,) * cx.n] + [[rng.randint(0, 4) for _ in range(cx.n)] for _ in range(5)]:
                assert am.threshold_subcomplex(a).facets == ref.threshold_facets(a)
            assert am.max_value() == max((v for _, _, v in ref.entries), default=1)
            assert am.overrides() == {(j, i): v for j, i, v in ref.entries if v != 1}
            offset = am.offset()
            assert offset == ExponentOffset(cx, ref.mapped(lambda v: v - 1))
            assert offset.entries == tuple(ref.mapped(lambda v: v - 1))
            # equal exactly when the entries are, also through the other constructors
            trusted = MultiplicityAssignment._of_canonical(cx, am.raised)
            from_overrides = MultiplicityAssignment.from_overrides(cx, am.overrides())
            for other in (trusted, from_overrides, copy.deepcopy(am), pickle.loads(pickle.dumps(am))):
                assert other == am and hash(other) == hash(am) and other.entries == ref.entries
            if entries and {v for _, _, v in entries} != {1}:
                assert am != MultiplicityAssignment.constant(cx)
            built += 1
    assert built > 150


def test_offsets_keeping_raised_entries_add_and_scale_as_dense_offsets():
    # ExponentOffset keeps the entries above 0; its arithmetic and
    # constructors give what entrywise arithmetic on the domain gives
    rng = random.Random(98)
    checked = 0
    for cx in _table_complexes(rng):
        domain = _exponent_domain(cx)
        zero = ExponentOffset.zero(cx)
        assert zero.entries == tuple((j, i, 0) for j, i in domain) and zero.raised == ()
        dense = [[(j, i, rng.randint(0, 2)) for j, i in domain] for _ in range(3)]
        for first, second in zip(dense, dense[1:]):
            a, b = ExponentOffset(cx, first), ExponentOffset(cx, second)
            assert (a + b).entries == tuple((j, i, v + w) for (j, i, v), (_, _, w) in zip(first, second))
            assert a + zero == a and a.scale(0) == zero and a.scale(1) == a
            for bad in (-1, 1.5):
                with pytest.raises(MultiplicityDomainMismatch, match="offset scale factor"):
                    a.scale(bad)
            for k in (2, 3):
                assert a.scale(k).entries == tuple((j, i, v * k) for j, i, v in first)
            assert a.plus_one().entries == tuple((j, i, v + 1) for j, i, v in first)
            for copied in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
                assert copied == a and hash(copied) == hash(a)
            checked += 1
        for vertex in range(0, cx.n + 2):
            marked = set(rng.sample(range(0, cx.m + 2), rng.randint(0, cx.m + 2)))
            expected = tuple((j, i, int(i == vertex and j in marked)) for j, i in domain)
            if 1 <= vertex <= cx.n:
                assert ExponentOffset.indicator(cx, vertex, marked).entries == expected
            else:
                with pytest.raises(VertexOutOfRange, match=f"^vertex {vertex} not in 1..{cx.n}$"):
                    ExponentOffset.indicator(cx, vertex, marked)
    assert checked > 50


# -- property tests ----------------------------------------------------------

facet_lists = st.lists(
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    min_size=1,
    max_size=6,
)


@given(facet_lists)
@settings(max_examples=200, deadline=None)
def test_canonical_invariants(raw):
    used = sorted({v for f in raw for v in f})
    relabel = {v: k + 1 for k, v in enumerate(used)}
    cx = SimplicialComplex.from_facets(
        len(used), [[relabel[v] for v in f] for f in raw]
    )
    assert cx.facets == tuple(sorted(cx.facets))
    for f in cx.facets:
        assert f == tuple(sorted(set(f)))
        assert not any(set(f) < set(g) for g in cx.facets)
    # rebuilding from the canonical form is a fixed point
    assert SimplicialComplex.from_facets(cx.n, list(cx.facets)) == cx


@given(facet_lists)
@settings(max_examples=100, deadline=None)
def test_h_vector_sums_to_multiplicity(raw):
    used = sorted({v for f in raw for v in f})
    relabel = {v: k + 1 for k, v in enumerate(used)}
    cx = SimplicialComplex.from_facets(
        len(used), [[relabel[v] for v in f] for f in raw]
    )
    assert sum(cx.h_vector()) == cx.multiplicity()


def _check_codim_one_interpolation(cx: SimplicialComplex) -> None:
    d = cx.dim + 1
    for f in cx.facets:
        for g in cx.facets:
            shared = set(f) & set(g)
            if f == g or len(shared) >= d - 1:
                continue
            assert any(
                shared <= set(h) & set(g) and len(set(h) & set(g)) == d - 1
                for h in cx.facets
            ), (f, g)


def test_cm_fixtures_interpolate_low_overlaps():
    # any two facets meeting below codimension one admit a facet that
    # meets the second in codimension one and still contains the overlap
    seen = 0
    for name in fixture_names():
        cx = get_fixture(name).complex
        if not cx.is_pure or not is_cm_complex(cx, RATIONALS):
            continue
        seen += 1
        _check_codim_one_interpolation(cx)
    assert seen >= 4


def test_cm_random_complexes_interpolate_low_overlaps(tree_fixture):
    _check_codim_one_interpolation(tree_fixture)
    rng = random.Random(12)
    checked = 0
    while checked < 25:
        cx = random_pure_strongly_connected(rng)
        if not is_cm_complex(cx, RATIONALS):
            continue
        checked += 1
        _check_codim_one_interpolation(cx)


def test_links_and_threshold_subcomplexes_need_no_canonicalization():
    # link and threshold_subcomplex skip _canonical_facets; on canonical
    # complexes they must build what the canonicalizing constructor builds
    rng = random.Random(8)
    links = subcomplexes = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        cx = random_complex(rng, n, n)
        for face in cx.all_faces():
            star = [set(g) - set(face) for g in cx.facets if set(face) <= set(g)]
            assert cx.link(face).facets == SimplicialComplex(n, star).facets
            links += 1
        mult = random_assignment(rng, cx, 3)
        for _ in range(10):
            a = [rng.randint(0, 3) for _ in range(n)]
            alive = [
                f for j, f in enumerate(cx.facets, start=1)
                if all(a[i - 1] < mult.value(j, i) for i in range(1, n + 1) if i not in f)
            ]
            assert mult.threshold_subcomplex(a).facets == SimplicialComplex(n, alive).facets
            subcomplexes += 1
    assert links > 3000 and subcomplexes == 3000


_SQUARE = SimplicialComplex(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
# two equal but separately built values of each slotted value class
_VALUES = {
    "SimplicialComplex": lambda: SimplicialComplex(3, ((2, 3), (1, 2), (1,))),
    "MultiplicityAssignment": lambda: MultiplicityAssignment.constant(_SQUARE, 2),
    "ExponentOffset": lambda: ExponentOffset.indicator(_SQUARE, 1, [2]),
    "FacetLevelGraph": lambda: FacetLevelGraph((2, 1, 3), ((2, 1), (2, 3))),
    "FieldSpec": lambda: FieldSpec(3),
    "ExactMatrix": lambda: ExactMatrix(RATIONALS, 2, (((0, 1), (1, -1)),)),
    "MonomialIdeal": lambda: MonomialIdeal(2, ((1, 0), (2, 0), (0, 1))),
}


@pytest.mark.parametrize("name", _VALUES)
def test_value_classes_compare_and_hash_by_their_fields(name):
    a, b = _VALUES[name](), _VALUES[name]()
    assert type(a).__name__ == name
    assert a is not b and a == b and hash(a) == hash(b)
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    # another class never compares equal, not even a tuple of the fields
    assert a != tuple(getattr(a, field) for field in a._fields)
    for other in _VALUES:
        if other != name:
            assert a != _VALUES[other]()


@pytest.mark.parametrize("name", _VALUES)
def test_value_classes_hash_on_first_use(name):
    # construction hashes nothing; the first hash() keeps its value, and
    # equal values hash equal, one of them fresh from a pickle round trip
    a, b = _VALUES[name](), _VALUES[name]()
    back = pickle.loads(pickle.dumps(a))
    for value in (a, b, back):
        with pytest.raises(AttributeError):
            value._hash
    assert hash(back) == hash(a) == hash(b) == hash(a._key)
    assert a._hash == hash(a._key)
    assert {a: 1}[back] == 1


def test_value_classes_with_equal_fields_differ_by_class():
    assert SimplicialComplex(2, ((1, 2),)) != MonomialIdeal(2, ((1, 2),))
    ones = MultiplicityAssignment.constant(_SQUARE, 1)
    offset = ExponentOffset(_SQUARE, ones.entries)
    assert offset.entries == ones.entries and offset != ones


@pytest.mark.parametrize("name", _VALUES)
def test_value_classes_are_immutable(name):
    a = _VALUES[name]()
    for field in a._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)


@pytest.mark.parametrize("name", _VALUES)
def test_value_class_repr_names_the_class_and_compared_fields(name):
    a = _VALUES[name]()
    fields = ", ".join(f"{field}={getattr(a, field)!r}" for field in a._fields)
    assert repr(a) == f"{name}({fields})"


def test_a_record_takes_fields_by_position_keyword_or_trailing_default():
    class Pair(complexes._Record, fields="left right", defaults=(0,)):
        __slots__ = ()

    assert Pair(1, 2) == Pair(right=2, left=1) == Pair(1, right=2) == (1, 2)
    assert Pair(1) == Pair(left=1) == (1, 0)
    assert (Pair(1, 2).left, Pair(1, 2).right) == (1, 2)
    for args, kwargs in (((), {}), ((1, 2, 3), {}), ((1, 2), {"right": 3}), ((1,), {"up": 2})):
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)
    with pytest.raises(ValueError):
        Pair(1, 2)._replace(up=3)
    with pytest.raises(AttributeError):
        Pair(1, 2).left = 3
    info = complexes._CacheInfo(3, 4)
    assert info.misses == 4 and info[:2] == (3, 4) and repr(info) == "_CacheInfo(hits=3, misses=4)"


def test_equal_complex_built_anew_shares_no_derived_data():
    # what is worked out from a complex is kept on that complex: an equal
    # complex built anew works it out again, and neither equality, hashing
    # nor pickling sees it
    first = SimplicialComplex(5, ((1, 2, 5), (2, 3, 5), (3, 4, 5)))
    assert is_cm_complex(first, RATIONALS)
    hits, misses = is_cm_complex.cache_info()
    again = SimplicialComplex(5, ((3, 4, 5), (1, 2, 5), (2, 3, 5)))
    assert again == first and hash(again) == hash(first)
    assert is_cm_complex(again, RATIONALS)
    assert is_cm_complex.cache_info() == (hits, misses + 1)
    assert is_cm_complex(first, RATIONALS)
    assert is_cm_complex.cache_info() == (hits + 1, misses + 1)
    copied = pickle.loads(pickle.dumps(first))
    assert copied == first and not hasattr(copied, "_memo")


def _decide_every_route(cx: SimplicialComplex) -> None:
    """Run each route that keeps data on a complex: the tree criterion
    with the walks that order its violations, the quasi-tree, shelling
    and oracle criteria, classify, relation trees and homology."""
    ones = MultiplicityAssignment.constant(cx)
    grown = MultiplicityAssignment.from_overrides(cx, {(cx.m, 1): 2})
    assert check_cm_tree_case(ones) and not is_tree_satisfying(grown)
    assert is_quasitree_satisfying(ones) and is_general_satisfying(ones)
    assert is_cm_ideal_oracle(ones) and is_cm_ideal_oracle(ones, GF2)
    assert not is_cm_ideal_oracle(grown)
    assert classify(cx).facet_graph_is_tree and len(relation_trees(cx)) == 1
    assert reduced_homology_ranks(cx)[-1] == 0 and cx.f_vector()[0] == cx.n


def test_a_bounded_memo_drops_the_least_recently_used():
    calls = []

    @_per_complex(maxsize=2)
    def square(cx, k):
        calls.append(k)
        return k * k

    cx = SimplicialComplex(2, ((1, 2),))
    for k in (1, 2, 1, 3, 1, 2):
        assert square(cx, k) == k * k
    # the hit on 1 keeps it past the miss on 3, which drops 2 instead
    assert calls == [1, 2, 3, 2]
    assert square.cache_info() == (2, 4)


def _decide_every_fixture() -> None:
    """Run the tree, quasi-tree, shelling and oracle routes and classify
    on each fixture, built anew, as the registry keeps its own."""
    routes = (is_tree_satisfying, is_quasitree_satisfying, is_general_satisfying, is_cm_ideal_oracle)
    for name in fixture_names():
        fx = get_fixture(name)
        cx = SimplicialComplex(fx.complex.n, fx.complex.facets)
        mult = MultiplicityAssignment.from_overrides(cx, {(j, i): v for j, i, v in fx.overrides})
        for route in routes:
            try:
                route(mult)
            except CmLabError:
                pass
        classify(cx, FieldSpec(fx.char))


def test_derived_data_dies_with_its_complex():
    # deciding a few distinct paths and the fixtures and dropping them
    # leaves traced memory where it was and no cyclic garbage: the facet
    # masks, ridge groups, facet graph, clique trees and masks, walks,
    # sweeps, verdicts and shelling searches of a complex are kept on it
    # and go with it, by reference counting alone.  A full collection
    # empties the interpreter's free lists, which would otherwise keep a
    # few hundred kilobytes of tuples.
    def path(m):
        return SimplicialComplex.from_facets(m + 1, [(k, k + 1) for k in range(1, m + 1)])

    _decide_every_route(path(29))
    _decide_every_fixture()
    gc.disable()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for m in (30, 31, 32):
            _decide_every_route(path(m))
        _decide_every_fixture()
        found = gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert found == 0, found
    assert left < 10_000, left
