"""folicalc: exact leafwise differential calculus on adapted charts.

The package computes, in a single adapted coordinate chart and over an exact
polynomial coefficient ring, the leafwise differential calculus of a foliated
base, connections and leafwise connections on a trivialised fibre bundle over
it, and the constructive extension of any leafwise connection to a full
connection by way of a splitting of the conormal sequence.  A small text DSL
plus the `folicalc` command drive the same operations from files.
"""

from .errors import ChartMismatchError, FolicalcError, InputError, ParseError
from .expr import (
    Expression,
    is_identifier,
)
from .charts import (
    AdaptedChart,
    BundleChart,
    TransitionMap,
    base_chart,
    check_adapted_transition,
    check_foliated_bundle_transition,
    is_foliated_function,
)
from .forms import (
    ExteriorForm,
    LeafwiseForm,
    exterior_differential,
    form_add,
    leafwise_differential,
    restrict_form,
    wedge,
)
from .connections import (
    BundleSection,
    Connection,
    LeafwiseConnection,
    LeafwiseJetPoint,
    VerticalValuedLeafwiseForm,
    connection_as_jet_section,
    connection_difference,
    covariant_differential,
    jet_prolongation,
    jet_section_as_connection,
    restrict_connection,
    translate_connection,
)
from .extension import (
    SolderingForm,
    Splitting,
    apply_splitting,
    extend_connection,
    extension_dependence,
    verify_extension,
)
from .dsl import (
    DeclaredTransition,
    Document,
    DocumentObject,
    parse_document,
    parse_expression,
    print_document,
)
from .commands import CheckResult, Report, run_command

__version__ = "0.1.0"

__all__ = [
    "AdaptedChart",
    "BundleChart",
    "BundleSection",
    "ChartMismatchError",
    "CheckResult",
    "Connection",
    "DeclaredTransition",
    "Document",
    "DocumentObject",
    "Expression",
    "ExteriorForm",
    "FolicalcError",
    "InputError",
    "LeafwiseConnection",
    "LeafwiseForm",
    "LeafwiseJetPoint",
    "ParseError",
    "Report",
    "SolderingForm",
    "Splitting",
    "TransitionMap",
    "VerticalValuedLeafwiseForm",
    "apply_splitting",
    "base_chart",
    "check_adapted_transition",
    "check_foliated_bundle_transition",
    "connection_as_jet_section",
    "connection_difference",
    "covariant_differential",
    "extend_connection",
    "extension_dependence",
    "exterior_differential",
    "form_add",
    "is_foliated_function",
    "is_identifier",
    "jet_prolongation",
    "jet_section_as_connection",
    "leafwise_differential",
    "parse_document",
    "parse_expression",
    "print_document",
    "restrict_connection",
    "restrict_form",
    "run_command",
    "translate_connection",
    "verify_extension",
    "wedge",
]
