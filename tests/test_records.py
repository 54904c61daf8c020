"""The package's immutable records: value equality, hashing, repr,
immutability, construction, pickling, copying and positional `match`.

The eight public records are AdaptedChart, BundleChart, TransitionMap,
CheckResult, Report, DeclaredTransition, DocumentObject and Document.  The
sparse value types are records too: the six coefficient tables, the two
form kinds and BundleSection.  Tables and forms hold a dict, so they do not
hash; sections do.
"""

from __future__ import annotations

import copy
import pickle
import re
from pathlib import Path

import pytest

import folicalc as fc
from folicalc import (
    AdaptedChart,
    BundleChart,
    BundleSection,
    CheckResult,
    Connection,
    DeclaredTransition,
    Document,
    DocumentObject,
    Expression,
    ExteriorForm,
    LeafwiseConnection,
    LeafwiseForm,
    LeafwiseJetPoint,
    Report,
    SolderingForm,
    Splitting,
    TransitionMap,
    VerticalValuedLeafwiseForm,
)

SAMPLE = Path(__file__).resolve().parent.parent / "samples" / "foliated_bundle.fol"

z1 = Expression.variable("z1")
z2 = Expression.variable("z2")
z3 = Expression.variable("z3")
u = Expression.variable("u")

CHART_REPR = "AdaptedChart(leaf_coords=('z1', 'z2'), transverse_coords=('z3',))"
MAP_REPR = (
    f"TransitionMap(target={CHART_REPR}, "
    "components=(Expression('z1'), Expression('z2'), Expression('z1 + z3')))"
)


def _chart():
    return AdaptedChart(("z1", "z2"), ("z3",))


def _map():
    return TransitionMap(_chart(), (z1, z2, z3 + z1))


def _result():
    return CheckResult("transition.T.adapted", "pass")


def _bundle():
    return BundleChart(_chart(), ("u",))


def _object(value=z1):
    return DocumentObject("section", "s", BundleSection(_bundle(), (value,)))


# Per record: a factory of equal values, a different value, the exact repr
# of the factory's value and the field names in order.
RECORDS = {
    "AdaptedChart": (
        _chart,
        AdaptedChart(("z1",), ("z2", "z3")),
        CHART_REPR,
        ("leaf_coords", "transverse_coords"),
    ),
    "BundleChart": (
        lambda: BundleChart(_chart(), ("u", "v")),
        BundleChart(_chart(), ("u",)),
        f"BundleChart(base={CHART_REPR}, fibre_coords=('u', 'v'))",
        ("base", "fibre_coords"),
    ),
    "TransitionMap": (
        _map,
        TransitionMap(_chart(), (z1, z2, z3)),
        MAP_REPR,
        ("target", "components"),
    ),
    "CheckResult": (
        _result,
        CheckResult("transition.T.adapted", "fail", "z1"),
        "CheckResult(name='transition.T.adapted', status='pass', payload='')",
        ("name", "status", "payload"),
    ),
    "Report": (
        lambda: Report("check", (_result(),)),
        Report("check", ()),
        "Report(command='check', checks=(CheckResult(name='transition.T.adapted', "
        "status='pass', payload=''),))",
        ("command", "checks"),
    ),
    "DeclaredTransition": (
        lambda: DeclaredTransition(_map(), (z1,)),
        DeclaredTransition(_map()),
        f"DeclaredTransition(base_map={MAP_REPR}, fibre_components=(Expression('z1'),))",
        ("base_map", "fibre_components"),
    ),
    "DocumentObject": (
        _object,
        _object(z2),
        "DocumentObject(kind='section', name='s', value=<s[u] = z1>)",
        ("kind", "name", "value"),
    ),
    "Document": (
        lambda: Document(_bundle(), (_object(),)),
        Document(_bundle(), ()),
        f"Document(chart=BundleChart(base={CHART_REPR}, fibre_coords=('u',)), "
        "objects=(DocumentObject(kind='section', name='s', value=<s[u] = z1>),))",
        ("chart", "objects"),
    ),
}

# The sparse value types, in the same shape: one table, both form kinds and
# a section.
SPARSE = {
    "Connection": (
        lambda: Connection(_bundle(), {("u", "z3"): u * z1}),
        Connection(_bundle()),
        "<Connection[u][z3] = u*z1>",
        ("chart", "coefficients"),
    ),
    "LeafwiseForm": (
        lambda: LeafwiseForm(_bundle(), 1, {("z2",): u}),
        LeafwiseForm(_bundle(), 1),
        "LeafwiseForm('u ~dz2')",
        ("chart", "degree", "components"),
    ),
    "ExteriorForm": (
        lambda: ExteriorForm(_chart(), 2, {("z1", "z3"): z2}),
        ExteriorForm(_chart(), 2, {("z1", "z2"): 1}),
        "ExteriorForm('z2 dz1^dz3')",
        ("chart", "degree", "components"),
    ),
    "BundleSection": (
        lambda: BundleSection(_bundle(), (z1,)),
        BundleSection(_bundle(), (z3,)),
        "<s[u] = z1>",
        ("chart", "components"),
    ),
}
VALUES = {**RECORDS, **SPARSE}
UNHASHABLE = {"Connection", "LeafwiseForm", "ExteriorForm"}

value_type = pytest.mark.parametrize("name", sorted(VALUES))
hashable = pytest.mark.parametrize("name", sorted(set(VALUES) - UNHASHABLE))


@value_type
def test_value_equality(name):
    make, other, _, _ = VALUES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a == a and not a != a
    assert a != other and not a == other
    assert a != "x" and not a == "x"
    assert a != None  # noqa: E711
    assert a.__eq__(object()) is NotImplemented


def test_equality_needs_the_same_record_type():
    chart = _chart()
    base = BundleChart(chart, ("u",))
    # Same field values in a different record type are unequal.
    section = _object().value
    assert DocumentObject("section", "s", section) != CheckResult("section", "s", section)
    assert Report(_map(), ()) != DeclaredTransition(_map(), ())
    assert base.base == chart and base != chart


@hashable
def test_equal_values_hash_equal(name):
    make, other, _, _ = VALUES[name]
    assert hash(make()) == hash(make())
    assert len({make(), make(), other}) == 2


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_tables_and_forms_do_not_hash(name):
    make, _, _, _ = VALUES[name]
    with pytest.raises(TypeError):
        hash(make())


@value_type
def test_repr_text(name):
    make, _, text, _ = VALUES[name]
    assert repr(make()) == text


@value_type
def test_fields_cannot_be_assigned_or_deleted(name):
    make, other, _, fields = VALUES[name]
    value = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make()


@value_type
def test_keyword_construction(name):
    make, _, _, fields = VALUES[name]
    value = make()
    values = {field: getattr(value, field) for field in fields}
    assert type(value)(**values) == value
    assert type(value)(*values.values()) == value


def test_keyword_defaults():
    chart = AdaptedChart(leaf_coords=("z1",))
    assert chart.leaf_coords == ("z1",)
    assert chart.transverse_coords == ()
    assert chart == AdaptedChart(("z1",), ())
    result = CheckResult("diff.w", "pass")
    assert result.payload == ""
    assert result == CheckResult(name="diff.w", status="pass", payload="")
    declared = DeclaredTransition(_map())
    assert declared.fibre_components is None
    assert declared == DeclaredTransition(base_map=_map(), fibre_components=None)


def test_list_inputs_become_tuples():
    chart = AdaptedChart(["z1", "z2"], ["z3"])
    assert type(chart.leaf_coords) is tuple and type(chart.transverse_coords) is tuple
    assert chart == _chart()
    bundle = BundleChart(chart, ["u"])
    assert bundle.fibre_coords == ("u",) and type(bundle.fibre_coords) is tuple
    transition = TransitionMap(chart, [z1, z2, z3 + z1])
    assert type(transition.components) is tuple
    assert transition == _map()
    generated = AdaptedChart(name for name in ("z1", "z2"))
    assert generated.leaf_coords == ("z1", "z2")
    report = Report("check", [_result()])
    assert type(report.checks) is tuple
    assert report == Report("check", (_result(),))
    assert hash(report) == hash(Report("check", (_result(),)))
    objects = [_object()]
    document = Document(_bundle(), objects)
    assert type(document.objects) is tuple
    assert document == Document(_bundle(), tuple(objects))
    assert hash(document) == hash(Document(_bundle(), tuple(objects)))
    declared = DeclaredTransition(_map(), [z1])
    assert type(declared.fibre_components) is tuple
    assert declared == DeclaredTransition(_map(), (z1,))
    assert hash(declared) == hash(DeclaredTransition(_map(), (z1,)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AdaptedChart(()), "an adapted chart needs at least one leaf coordinate"),
        (lambda: AdaptedChart((), ("z1",)), "an adapted chart needs at least one leaf coordinate"),
        (lambda: AdaptedChart(("z1", "z1")), "chart coordinate names must be distinct"),
        (lambda: AdaptedChart(("z1",), ("z1",)), "chart coordinate names must be distinct"),
        (lambda: AdaptedChart(("1z",)), "invalid coordinate name '1z'"),
        (lambda: AdaptedChart(("z1",), ("a b",)), "invalid coordinate name 'a b'"),
        (lambda: BundleChart(("z1",), ("u",)), "BundleChart needs an AdaptedChart, not tuple"),
        (lambda: BundleChart(_chart(), ()), "a bundle chart needs at least one fibre coordinate"),
        (lambda: BundleChart(_chart(), ("u", "u")), "fibre names must be distinct"),
        (lambda: BundleChart(_chart(), ("z3",)), "fibre names must be distinct from base coordinates"),
        (lambda: BundleChart(_chart(), ("u-",)), "invalid fibre name 'u-'"),
        (lambda: AdaptedChart("xy"), "coordinate names are a sequence of names, not the string 'xy'"),
        (lambda: AdaptedChart(("z1",), "z2"), "coordinate names are a sequence of names, not the string 'z2'"),
        (lambda: BundleChart(_chart(), "uv"), "fibre names are a sequence of names, not the string 'uv'"),
        (lambda: TransitionMap(None, []), "TransitionMap needs an AdaptedChart, not NoneType"),
        (lambda: TransitionMap(_bundle(), (z1, z2, z3)), "TransitionMap needs an AdaptedChart, not BundleChart"),
        (lambda: TransitionMap(_chart(), (z1, z2, 3)), "TransitionMap needs an Expression, not int"),
        (lambda: TransitionMap(_chart(), (z1, z2)), "transition needs 3 components, got 2"),
        (lambda: Report("check", (z1,)), "Report needs a CheckResult, not Expression"),
        (lambda: DeclaredTransition(None), "DeclaredTransition needs a TransitionMap, not NoneType"),
        (lambda: DeclaredTransition(_chart(), (z1,)), "DeclaredTransition needs a TransitionMap, not AdaptedChart"),
        (
            lambda: DeclaredTransition(_map(), ("notexpr",)),
            "DeclaredTransition needs an Expression, not str",
        ),
        (lambda: DeclaredTransition(_map(), (z1, 2)), "DeclaredTransition needs an Expression, not int"),
        (lambda: DocumentObject("thing", "w", z1), "unknown object kind 'thing'"),
        # Printed, a form named "1w" reparsed to "7:6: expected '{', found '1'".
        (
            lambda: DocumentObject("form", "1w", LeafwiseForm(_chart(), 0, {(): z1})),
            "invalid object name '1w'",
        ),
        (lambda: DocumentObject("section", "s t", BundleSection(_bundle(), (z1,))), "invalid object name 's t'"),
        (lambda: DocumentObject("section", None, BundleSection(_bundle(), (z1,))), "invalid object name None"),
        (lambda: DocumentObject("form", "w", z1), "DocumentObject needs a LeafwiseForm, not Expression"),
        (
            lambda: DocumentObject("form", "w", ExteriorForm(_chart(), 0)),
            "DocumentObject needs a LeafwiseForm, not ExteriorForm",
        ),
        (
            lambda: DocumentObject("transition", "t", _map()),
            "DocumentObject needs a DeclaredTransition, not TransitionMap",
        ),
        (
            lambda: DocumentObject("connection", "G", LeafwiseConnection(_bundle())),
            "DocumentObject needs a Connection, not LeafwiseConnection",
        ),
        (lambda: Document(None, ()), "Document needs an AdaptedChart or BundleChart, not NoneType"),
        (lambda: Document(_map(), ()), "Document needs an AdaptedChart or BundleChart, not TransitionMap"),
        (lambda: Document(_chart(), (z1,)), "Document needs a DocumentObject, not Expression"),
        (lambda: Document(_chart(), (_object(), None)), "Document needs a DocumentObject, not NoneType"),
    ],
)
def test_validation_errors(build, message):
    with pytest.raises(fc.InputError, match=f"^{re.escape(message)}$"):
        build()


def _form_over(chart, name="w"):
    return DocumentObject("form", name, LeafwiseForm(chart, 0, {(): z1}))


@pytest.mark.parametrize(
    "build, message",
    [
        # Printed, this document reparsed to "8:7: variable 'z1' is not
        # available in a form coefficient".
        (
            lambda: Document(AdaptedChart(("a",), ("b",)), (_form_over(_chart()),)),
            "form 'w' is not over the document's chart",
        ),
        # Printed, this one reparsed to "11:6: duplicate name 'w'".
        (lambda: Document(_chart(), (_form_over(_chart()),) * 2), "duplicate name 'w'"),
        (
            lambda: Document(_chart(), (_form_over(_chart()), _object())),
            "section 's' is not over the document's chart",
        ),
        (
            lambda: Document(_bundle(), (_form_over(_chart()),)),
            "form 'w' is not over the document's chart",
        ),
        (
            lambda: Document(_bundle(), (
                DocumentObject("splitting", "B", Splitting(AdaptedChart(("z1",), ("z2", "z3")))),
            )),
            "splitting 'B' is not over the document's chart",
        ),
        (
            lambda: Document(_bundle(), (
                DocumentObject("transition", "t", DeclaredTransition(
                    TransitionMap(AdaptedChart(("z1",), ("z2", "z3")), (z1, z2, z3)))),
            )),
            "transition 't' is not over the document's chart",
        ),
        # Printed, these two fibre parts were dropped or cut short by zip.
        (
            lambda: Document(_chart(), (
                DocumentObject("transition", "t", DeclaredTransition(_map(), (z1,))),
            )),
            "transition 't' has fibre components, but the document has no bundle",
        ),
        (
            lambda: Document(_bundle(), (
                DocumentObject("transition", "t", DeclaredTransition(_map(), (u, z1))),
            )),
            "transition 't' needs 1 fibre components, got 2",
        ),
        (
            lambda: Document(BundleChart(_chart(), ("u", "v")), (
                DocumentObject("transition", "t", DeclaredTransition(_map(), (u,))),
            )),
            "transition 't' needs 2 fibre components, got 1",
        ),
        # Printed, these two reparsed to "12:11: variable 'u' is not available
        # in a base transition component" and "13:10: variable 'w' is not
        # available in a fibre transition component".
        (
            lambda: Document(_bundle(), (
                DocumentObject("transition", "t", DeclaredTransition(
                    TransitionMap(_chart(), (z1, z2, u)))),
            )),
            "transition 't': variable 'u' is not available in a base transition component",
        ),
        (
            lambda: Document(_bundle(), (
                DocumentObject("transition", "t", DeclaredTransition(
                    _map(), (Expression.variable("w"),))),
            )),
            "transition 't': variable 'w' is not available in a fibre transition component",
        ),
    ],
)
def test_documents_hold_what_their_text_parses_back_to(build, message):
    with pytest.raises(fc.InputError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "assignment, components, fibre",
    [
        ("t[z3] = u", (z1, z2, u), u),
        ("t[z1] = z1*u^2", (z1 * u**2, z2, z3), u),
        ("t[u] = w", (z1, z2, z3), Expression.variable("w")),
    ],
)
def test_documents_and_the_parser_share_the_transition_rule(assignment, components, fibre):
    # Document and parse_document check transition components by one rule,
    # and word the fault alike.
    text = (
        "manifold { dim 3 leaf 2 coords z1 z2 z3 }\nbundle { fibre u }\n"
        f"transition t {{ {assignment} }}\n"
    )
    with pytest.raises(fc.ParseError) as parsed:
        fc.parse_document(text)
    transition = DeclaredTransition(TransitionMap(_chart(), components), (fibre,))
    with pytest.raises(fc.InputError) as built:
        Document(_bundle(), (DocumentObject("transition", "t", transition),))
    assert str(built.value) == f"transition 't': {parsed.value.message}"


def test_documents_accept_each_kind_over_its_chart():
    # Forms, connections and sections over the document's chart; splittings
    # and transitions over its base.
    document = Document(_bundle(), (
        _form_over(_bundle()),
        DocumentObject("connection", "G", Connection(_bundle(), {("u", "z3"): u * z1})),
        DocumentObject("splitting", "B", Splitting(_chart(), {("z1", "z3"): z2})),
        DocumentObject("transition", "t", DeclaredTransition(_map(), (u * z1,))),
        _object(),
    ))
    assert fc.parse_document(fc.print_document(document)) == document


def test_identity_fibre_components_print_and_parse_back():
    # `t[u] = u` parses to fibre components (u, v): each is printed, so the
    # text reads back to the same transition, not to one without them.
    text = (
        "manifold { dim 3 leaf 2 coords z1 z2 z3 }\nbundle { fibre u v }\n"
        "transition t { t[u] = u }\n"
    )
    document = fc.parse_document(text)
    transition = document.lookup("t").value
    assert transition.fibre_components == (u, Expression.variable("v"))
    printed = fc.print_document(document)
    assert printed.endswith("transition t {\n  t[u] = u\n  t[v] = v\n}\n")
    assert fc.parse_document(printed) == document
    assert fc.print_document(fc.parse_document(printed)) == printed
    identity = Document(_bundle(), (
        DocumentObject("transition", "t", DeclaredTransition(TransitionMap.identity(_chart()), (u,))),
    ))
    assert fc.parse_document(fc.print_document(identity)) == identity


@pytest.fixture(scope="module")
def parsed():
    document = fc.parse_document(SAMPLE.read_text())
    return document, fc.run_command("check", document)


@pytest.mark.parametrize(
    "clone",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_document_and_report_round_trips(parsed, clone):
    for value in parsed:
        twin = clone(value)
        assert type(twin) is type(value)
        assert twin == value and repr(twin) == repr(value)
    document, report = parsed
    twin = clone(document)
    with pytest.raises(AttributeError):
        twin.objects = ()
    assert hash(clone(report)) == hash(report)
    assert fc.print_document(twin) == fc.print_document(document)
    assert fc.run_command("check", twin) == report
    assert clone(report).to_json() == report.to_json()


@value_type
def test_round_trips_of_each_record(name):
    make, _, _, _ = VALUES[name]
    value = make()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
        if name not in UNHASHABLE:
            assert hash(twin) == hash(value)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Connection(_bundle(), {("u", "z3"): u}),
        lambda: LeafwiseConnection(_bundle(), {("u", "z1"): u}),
        lambda: LeafwiseJetPoint(_bundle(), {("u", "z2"): z3}),
        lambda: VerticalValuedLeafwiseForm(_bundle(), {("u", "z1"): z2}),
        lambda: Splitting(_chart(), {("z1", "z3"): z2}),
        lambda: SolderingForm(_bundle(), {("u", "z3"): z1}),
    ],
    ids=lambda make: type(make()).__name__,
)
def test_every_table_type_is_a_record(make):
    table = make()
    assert table == make() and table != type(table)(table.chart)
    with pytest.raises(AttributeError):
        table.coefficients = {}
    assert pickle.loads(pickle.dumps(table)) == table
    table_type = type(table)
    match table:
        case table_type(chart, coefficients):
            assert chart is table.chart and coefficients is table.coefficients
        case _:
            pytest.fail("no match")


OWN_DICT_CASES = [
    (Connection, (_bundle(),), {("u", "z3"): u}),
    (LeafwiseConnection, (_bundle(),), {("u", "z1"): u}),
    (LeafwiseJetPoint, (_bundle(),), {("u", "z2"): z3}),
    (VerticalValuedLeafwiseForm, (_bundle(),), {("u", "z1"): z2}),
    (Splitting, (_chart(),), {("z1", "z3"): z2}),
    (SolderingForm, (_bundle(),), {("u", "z3"): z1}),
    (LeafwiseForm, (_bundle(), 1), {("z2",): u}),
    (ExteriorForm, (_chart(), 2), {("z1", "z3"): z2}),
    (BundleSection, (_bundle(),), {"u": z1}),
]


@pytest.mark.parametrize(
    "kind, args, entries", OWN_DICT_CASES, ids=[case[0].__name__ for case in OWN_DICT_CASES]
)
def test_constructors_keep_their_own_dict(kind, args, entries):
    # What the contract guarantees of the dicts: writing to the mapping a
    # caller passed in does not reach the record built from it.
    given = dict(entries)
    record = kind(*args, given)
    given.clear()
    given[next(iter(entries))] = z1 * z2
    assert record == kind(*args, dict(entries))


def test_copies_are_checked_again():
    # A copy goes through the constructor, which rejects what it would
    # reject from a caller: here an entry smuggled into the shared dict.
    form = LeafwiseForm(_chart(), 1, {("z1",): z3})
    form.components[(2,)] = z1
    with pytest.raises(fc.InputError, match="^leaf index 2 out of range$"):
        copy.copy(form)


def test_positional_match_patterns(parsed):
    document, report = parsed
    match document.chart:
        case BundleChart(AdaptedChart(leaf, transverse), fibres):
            assert (leaf, transverse, fibres) == (("z1", "z2"), ("z3", "z4"), ("u", "v"))
        case _:
            pytest.fail("no match")
    match document:
        case Document(chart, (DocumentObject("connection", name, value), *rest)):
            assert chart is document.chart and name == "Gamma"
            assert value is document.objects[0].value and len(rest) == 4
        case _:
            pytest.fail("no match")
    match document.lookup("twist").value:
        case DeclaredTransition(TransitionMap(target, components), fibre):
            assert target == document.base and len(components) == 4 and len(fibre) == 2
        case _:
            pytest.fail("no match")
    match report:
        case Report("check", (CheckResult(first, "pass", ""), *_)):
            assert first == "transition.twist.adapted"
        case _:
            pytest.fail("no match")


@value_type
def test_match_binds_every_field_in_order(name):
    make, _, _, fields = VALUES[name]
    value = make()
    record_type = type(value)
    expected = tuple(getattr(value, field) for field in fields)
    if len(fields) == 2:
        match value:
            case record_type(a, b):
                assert (a, b) == expected
            case _:
                pytest.fail("no match")
    else:
        match value:
            case record_type(a, b, c):
                assert (a, b, c) == expected
            case _:
                pytest.fail("no match")
    match value:
        case AdaptedChart() if record_type is not AdaptedChart:
            pytest.fail("matched another record type")
