"""The public surface rejects a wrong operand with a FolicalcError.

Every callable in `folicalc.__all__` is called with every tuple of one to
three values from a pool of thirteen (None, a str, a float, an int, an
Expression, both chart kinds, a form of each kind, a Connection, a
LeafwiseConnection, a Splitting and a BundleSection) that its signature
binds, and the records' operators are applied to every pair.  Only a
FolicalcError may escape, and for an operator also the TypeError that the
interpreter raises itself when both sides return NotImplemented.  Every
public method of the pool's records and every public class or static method
of the package's classes is called the same way with zero to two values.
The calls that leaked an AttributeError or TypeError from inside the
package before its operand checks were one `charts._require` (and, in
expr.py below it, one wording) are pinned below, each with its exact class
and message.
"""

from __future__ import annotations

import inspect
import itertools
import operator
import os
import re
from types import MappingProxyType

import pytest

import folicalc as fc
from folicalc import (
    AdaptedChart,
    BundleChart,
    BundleSection,
    ChartMismatchError,
    Connection,
    Expression,
    ExteriorForm,
    InputError,
    LeafwiseConnection,
    LeafwiseForm,
    LeafwiseJetPoint,
    Splitting,
)

z1 = Expression.variable("z1")
BASE = AdaptedChart(("z1", "z2"), ("z3",))
BUNDLE = BundleChart(BASE, ("u",))
LEAFWISE_FORM = LeafwiseForm(BASE, 1, {("z1",): z1})
EXTERIOR_FORM = ExteriorForm(BASE, 1, {("z3",): z1})
CONNECTION = Connection(BUNDLE, {("u", "z3"): z1})
LEAFWISE_CONNECTION = LeafwiseConnection(BUNDLE, {("u", "z1"): z1})
SPLITTING = Splitting(BASE, {("z1", "z3"): z1})
POOL = (
    None, "z1", 0.5, 2, z1, BASE, BUNDLE, LEAFWISE_FORM, EXTERIOR_FORM,
    CONNECTION, LEAFWISE_CONNECTION, SPLITTING, BundleSection(BUNDLE, (z1,)),
)
PACKAGE = os.path.dirname(fc.__file__)
OPERATORS = (operator.add, operator.sub, operator.mul, operator.pow)


def _public_callables():
    for name in fc.__all__:
        value = getattr(fc, name)
        if not (isinstance(value, type) and issubclass(value, BaseException)):
            yield name, value


def _public_methods():
    # Bound methods of the pool's package records, then the class and
    # static methods of every public class.
    for kind, value in {type(value): value for value in POOL}.items():
        for name in dir(kind) if kind.__module__.startswith("folicalc") else ():
            if not name.startswith("_") and callable(method := getattr(value, name)):
                yield f"{kind.__name__}.{name}", method
    for _, kind in _public_callables():
        for name in dir(kind) if isinstance(kind, type) else ():
            if not name.startswith("_") and isinstance(
                inspect.getattr_static(kind, name), (classmethod, staticmethod)
            ):
                yield f"{kind.__name__}.{name}", getattr(kind, name)


def _raised_by_the_interpreter(error: TypeError) -> bool:
    # The innermost frame of an operator's own TypeError is the caller's.
    tb = error.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return not tb.tb_frame.f_code.co_filename.startswith(PACKAGE)


def _shown(args) -> str:
    return "(" + ", ".join(type(arg).__name__ for arg in args) + ")"


def _leaks(name, call, arities):
    # Every tuple of pool values of these lengths that call's signature binds.
    signature = inspect.signature(call)
    for arity in arities:
        for args in itertools.product(POOL, repeat=arity):
            try:
                signature.bind(*args)
            except TypeError:
                continue
            try:
                call(*args)
            except fc.FolicalcError:
                pass
            except Exception as error:  # noqa: BLE001 - the leak under test
                yield f"{name}{_shown(args)}: {type(error).__name__}: {error}"


def test_public_calls_raise_only_folicalc_errors():
    leaks = [leak for name, call in _public_callables() for leak in _leaks(name, call, (1, 2, 3))]
    assert not leaks, f"{len(leaks)} leaks, e.g. {leaks[:5]}"


def test_public_methods_raise_only_folicalc_errors():
    methods = dict(_public_methods())
    assert {"Expression.substitute", "Expression.sum", "TransitionMap.identity"} <= set(methods)
    leaks = [leak for name, call in methods.items() for leak in _leaks(name, call, (0, 1, 2))]
    assert not leaks, f"{len(leaks)} leaks, e.g. {leaks[:5]}"


def test_record_operators_raise_only_folicalc_or_interpreter_errors():
    leaks = []
    cases = [(op, pair) for op in OPERATORS for pair in itertools.product(POOL, repeat=2)]
    cases += [(operator.neg, (value,)) for value in POOL]
    for op, args in cases:
        try:
            op(*args)
        except fc.FolicalcError:
            pass
        except TypeError as error:
            if not _raised_by_the_interpreter(error):
                leaks.append(f"{op.__name__}{_shown(args)}: {error}")
        except Exception as error:  # noqa: BLE001 - the leak under test
            leaks.append(f"{op.__name__}{_shown(args)}: {type(error).__name__}: {error}")
    assert not leaks, f"{len(leaks)} leaks, e.g. {leaks[:5]}"


def _document():
    return fc.parse_document("manifold { dim 2 leaf 1 coords x y }")


class _BadIterable:
    # An Iterable by its __iter__, whose iter() raises TypeError.
    def __iter__(self):
        return 5


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (lambda: LeafwiseForm(None, 0), ChartMismatchError,
         "LeafwiseForm needs an AdaptedChart or BundleChart, not NoneType"),
        (lambda: fc.is_foliated_function(z1, BUNDLE), ChartMismatchError,
         "is_foliated_function needs an AdaptedChart, not BundleChart"),
        (lambda: fc.is_foliated_function("z1", BASE), ChartMismatchError,
         "is_foliated_function needs an Expression, not str"),
        (lambda: fc.check_adapted_transition(None, BASE), ChartMismatchError,
         "check_adapted_transition needs a TransitionMap, not NoneType"),
        (lambda: fc.check_foliated_bundle_transition([z1], BASE), ChartMismatchError,
         "check_foliated_bundle_transition needs a BundleChart, not AdaptedChart"),
        (lambda: fc.check_foliated_bundle_transition(["u"], BUNDLE), ChartMismatchError,
         "check_foliated_bundle_transition needs an Expression, not str"),
        (lambda: fc.print_document(None), ChartMismatchError,
         "print_document needs a Document, not NoneType"),
        (lambda: fc.run_command("check", None), ChartMismatchError,
         "run_command needs a Document, not NoneType"),
        (lambda: fc.jet_section_as_connection(None), ChartMismatchError,
         "jet_section_as_connection needs a LeafwiseJetPoint, not NoneType"),
        # Rebuilt through LeafwiseJetPoint's constructor, a Connection's
        # transverse column read as "leaf index 2 out of range".
        (lambda: fc.connection_as_jet_section(CONNECTION), ChartMismatchError,
         "connection_as_jet_section needs a LeafwiseConnection, not Connection"),
        (lambda: fc.jet_section_as_connection(LEAFWISE_CONNECTION), ChartMismatchError,
         "jet_section_as_connection needs a LeafwiseJetPoint, not LeafwiseConnection"),
        (lambda: AdaptedChart(None), ChartMismatchError,
         "AdaptedChart needs an Iterable, not NoneType"),
        (lambda: BundleSection(BUNDLE, None), ChartMismatchError,
         "BundleSection needs an Iterable, not NoneType"),
        (lambda: fc.parse_document(None), ChartMismatchError,
         "parse_document needs a str, not NoneType"),
        (lambda: fc.parse_expression(b"z1"), ChartMismatchError,
         "parse_expression needs a str, not bytes"),
        (lambda: Expression("z1"), InputError, "Expression needs a Mapping, not str"),
        (lambda: Expression({5: 1}), InputError,
         "a monomial is (name, exponent) pairs, not 5"),
        (lambda: Expression({(("z1", 1, 2),): 1}), InputError,
         "a monomial is (name, exponent) pairs, not (('z1', 1, 2),)"),
        (lambda: Connection(BUNDLE, "x"), ChartMismatchError,
         "Connection needs a Mapping, not str"),
        (lambda: LeafwiseForm(BASE, 1, [z1]), ChartMismatchError,
         "LeafwiseForm needs a Mapping, not list"),
        (lambda: fc.Report("check", None), ChartMismatchError,
         "Report needs an Iterable, not NoneType"),
        (lambda: fc.run_command(["x"], _document()), ChartMismatchError,
         "run_command needs a str, not list"),
        (lambda: fc.run_command("check", _document(), None), ChartMismatchError,
         "run_command needs an Iterable, not NoneType"),
        (lambda: fc.DocumentObject(["form"], "w", LEAFWISE_FORM), ChartMismatchError,
         "DocumentObject needs a str, not list"),
        (lambda: LEAFWISE_FORM - None, ChartMismatchError,
         "form_add needs a LeafwiseForm, not NoneType"),
        (lambda: fc.wedge(LEAFWISE_FORM, EXTERIOR_FORM), ChartMismatchError,
         "wedge needs a LeafwiseForm, not ExteriorForm"),
        (lambda: fc.form_add(z1, z1), ChartMismatchError,
         "form_add needs a LeafwiseForm or ExteriorForm, not Expression"),
        (lambda: fc.extend_connection(LEAFWISE_CONNECTION, LEAFWISE_CONNECTION, SPLITTING),
         ChartMismatchError, "extend_connection needs a Connection, not LeafwiseConnection"),
        (lambda: z1.substitute(None), InputError, "substitute needs a Mapping, not NoneType"),
        (lambda: z1.evaluate(1.5), InputError, "evaluate needs a Mapping, not float"),
        (lambda: Expression.sum(None), InputError, "sum needs an Iterable, not NoneType"),
        (lambda: Expression.sum([z1], None), InputError, "sum needs an Iterable, not NoneType"),
        (lambda: fc.TransitionMap.identity(None), ChartMismatchError,
         "TransitionMap.identity needs an AdaptedChart, not NoneType"),
        (lambda: fc.TransitionMap(BASE, _BadIterable()), ChartMismatchError,
         "TransitionMap needs an Iterable, not _BadIterable"),
        (lambda: AdaptedChart(_BadIterable()), ChartMismatchError,
         "AdaptedChart needs an Iterable, not _BadIterable"),
        (lambda: fc.run_command("check", _document(), _BadIterable()), ChartMismatchError,
         "run_command needs an Iterable, not _BadIterable"),
    ],
)
def test_wrong_operands_are_named(call, kind, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is kind


def test_converters_carry_the_table_over_in_a_dict_of_their_own():
    connection = LEAFWISE_CONNECTION
    jet = fc.connection_as_jet_section(connection)
    assert type(jet) is LeafwiseJetPoint
    assert jet == LeafwiseJetPoint(BUNDLE, {("u", "z1"): z1})
    assert jet.coefficients == connection.coefficients
    assert jet.coefficients is not connection.coefficients
    back = fc.jet_section_as_connection(jet)
    assert back == connection and back.coefficients is not jet.coefficients


def test_operands_that_were_accepted_still_are():
    # A mapping that is not a dict, None for no entries, a generator of
    # names and a list of components keep working.
    assert Expression(MappingProxyType({(("z1", 1),): 2})) == 2 * z1
    assert Expression(None).is_zero() and Expression().is_zero()
    assert Connection(BUNDLE, MappingProxyType({("u", "z3"): z1})) == CONNECTION
    assert Connection(BUNDLE, None).is_zero()
    assert AdaptedChart(name for name in ("z1", "z2")).dim == 2
    assert fc.TransitionMap(BASE, [z1, z1, z1]).components == (z1, z1, z1)
    assert fc.check_foliated_bundle_transition(iter([Expression.variable("z3")]), BUNDLE)


def test_a_type_error_from_the_callers_own_iterator_propagates():
    def names():
        yield "z1"
        raise TypeError("raised by the caller's generator")

    with pytest.raises(TypeError, match="^raised by the caller's generator$"):
        AdaptedChart(names())


def test_a_monomial_keeps_its_own_checks():
    with pytest.raises(InputError, match="^monomial repeats a variable$"):
        Expression({(("z1", 1), ("z1", 2)): 1})
    with pytest.raises(InputError, match="^invalid variable name None$"):
        Expression({((None, 1),): 1})
    with pytest.raises(InputError, match="^monomial exponent for 'z1' must be a positive int$"):
        Expression({(("z1", 0),): 1})
    assert Expression({(("z2", 1), ("z1", 2)): 3}) == 3 * z1**2 * Expression.variable("z2")
