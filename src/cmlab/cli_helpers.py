"""Problem-file parsing and file-or-fixture resolution."""

from __future__ import annotations

import os

from .complexes import MultiplicityAssignment, SimplicialComplex
from .errors import CmLabError, InvalidCharacteristic, ParseError, UnknownFixture

__all__ = ["parse_problem_file", "resolve_source"]

_FIELDS = {"n", "facets", "alpha", "char"}
_RECORD_FIELDS = frozenset(("facet", "vertex", "value"))


def _require_int(value, minimum: int | None, label: str, *index: int) -> int:
    """value, if it is an int (not a bool) of at least minimum; else a
    ParseError labelled ``label % index``, formatted only then, since
    an alpha list can hold millions of values."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{label % index}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParseError(f"{label % index}: must be >= {minimum}, got {value}")
    return value


class _JsonDefaults:
    """json.loads's settings, as the C scanner reads them: strict
    strings, no hooks, and the plain int and float types, which it
    converts with its own fast paths.  float("NaN"), float("Infinity")
    and float("-Infinity") are the values json gives those constants."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_float = parse_constant = float
    parse_int = int


_BLANK = " \t\n\r"  # JSON's whitespace, which JSONDecoder.decode skips


def _read_json(text: str):
    """json.loads(text), read by json's own C scanner so that a valid
    file costs no ``import json`` (four modules and six regexes, none of
    which the scan uses).  Only a scan that covers the whole text is
    taken; anything else, including a text json.loads rejects, goes to
    json.loads, which returns or raises what it always has.  A BOM is no
    JSON value, so the scan stops at it and json.loads reports it.  The
    scan runs two Python frames shallower than in json.loads, so under a
    recursion limit that counts both (Python 3.11 and older) it reads
    arrays and objects nested two levels deeper than json.loads can."""
    try:
        from _json import make_scanner

        # index by index: stripping would copy the text, which can run to
        # 50 MB; past the scan, only the tail is copied
        start, end = 0, len(text)
        while start < end and text[start] in _BLANK:
            start += 1
        doc, stop = make_scanner(_JsonDefaults)(text, start)
        if not text[stop:].lstrip(_BLANK):
            return doc
    except (ImportError, ValueError, StopIteration, RecursionError):
        pass
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def parse_problem_file(
    text: str,
) -> tuple[SimplicialComplex, MultiplicityAssignment | None, int]:
    """Parse problem JSON into a complex, optional exponents, and char.

    The returned assignment is None when the file has no alpha field so
    callers can distinguish a stated all-ones table from an absent one.
    """
    doc = _read_json(text)
    if not isinstance(doc, dict):
        raise ParseError("top level: expected a JSON object")
    for key in doc:
        if key not in _FIELDS:
            raise ParseError(f"unknown field {key!r}")
    if "n" not in doc:
        raise ParseError("missing field 'n'")
    if "facets" not in doc:
        raise ParseError("missing field 'facets'")
    n = _require_int(doc["n"], 1, "n")
    raw_facets = doc["facets"]
    if not isinstance(raw_facets, list) or not raw_facets:
        raise ParseError("facets: expected a non-empty list")
    facets = []
    for k, item in enumerate(raw_facets):
        if not isinstance(item, list):
            raise ParseError(f"facets[{k}]: expected a list of vertices")
        facets.append([_require_int(v, None, "facets[%d]", k) for v in item])
    try:
        cx = SimplicialComplex.from_facets(n, facets)
    except CmLabError as exc:
        raise ParseError(f"facets: {exc}") from None

    mult = None
    if "alpha" in doc:
        raw_alpha = doc["alpha"]
        if not isinstance(raw_alpha, list):
            raise ParseError("alpha: expected a list of records")
        overrides: dict[tuple[int, int], int] = {}
        for k, record in enumerate(raw_alpha):
            if not isinstance(record, dict):
                raise ParseError(f"alpha[{k}]: expected an object")
            # the common case is checked at once; the checks that name
            # what is wrong run only when it fails
            if record.keys() != _RECORD_FIELDS:
                for key in record:
                    if key not in _RECORD_FIELDS:
                        raise ParseError(f"alpha[{k}]: unknown field {key!r}")
                for key in ("facet", "vertex", "value"):
                    if key not in record:
                        raise ParseError(f"alpha[{k}]: missing field {key!r}")
            j, i, v = record["facet"], record["vertex"], record["value"]
            if not (type(j) is type(i) is type(v) is int and j > 0 and i > 0 and v > 0):
                j = _require_int(j, 1, "alpha[%d].facet", k)
                i = _require_int(i, 1, "alpha[%d].vertex", k)
                v = _require_int(v, 1, "alpha[%d].value", k)
            if j > cx.m:
                raise ParseError(
                    f"alpha[{k}]: facet {j} out of range (the complex has {cx.m})"
                )
            if i > cx.n:
                raise ParseError(
                    f"alpha[{k}]: vertex {i} out of range (the complex has {cx.n})"
                )
            if i in cx.facets[j - 1]:
                raise ParseError(f"alpha[{k}]: vertex {i} lies inside facet {j}")
            if (j, i) in overrides:
                raise ParseError(f"alpha[{k}]: duplicate pair (facet {j}, vertex {i})")
            overrides[(j, i)] = v
        # every record is checked above, so the table needs no second pass
        raised = sorted((j, i, v) for (j, i), v in overrides.items() if v > 1)
        mult = MultiplicityAssignment._of_canonical(cx, tuple(raised))

    char = 0
    if "char" in doc:
        char = _require_int(doc["char"], 0, "char")
        from .homology import FieldSpec

        try:
            FieldSpec(char)
        except InvalidCharacteristic as exc:
            raise ParseError(f"char: {exc}") from None
    return cx, mult, char


def resolve_source(
    source: str,
) -> tuple[SimplicialComplex, MultiplicityAssignment | None, int, str]:
    """Load a problem from a file path, falling back to the fixture catalog."""
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
        cx, mult, char = parse_problem_file(text)
        return cx, mult, char, source
    from .fixtures import fixture_names, get_fixture

    if source in fixture_names():
        fx = get_fixture(source)
        mult = fx.assignment() if fx.has_alpha else None
        return fx.complex, mult, fx.char, source
    raise UnknownFixture(
        f"{source!r} is neither a readable file nor a built-in fixture"
        f" (available: {', '.join(fixture_names())})"
    )
