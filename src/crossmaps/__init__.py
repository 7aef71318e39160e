"""Mass-preserving key mappings with exact rational arithmetic.

Specify, validate, compose, apply, analyse, and extract crossmaps:
weighted mappings that redistribute key-indexed aggregate statistics
between classification standards without creating or destroying any of
the total.  Weights and masses are exact rationals throughout, so every
conservation claim is checkable with plain equality.
"""

from .algebra import (
    CompositionError,
    MatrixEncoding,
    compose,
    matvec_dense,
    reverse,
    to_matrix,
)
from .core import (
    Crossmap,
    CrossmapError,
    Edge,
    EdgeListDraft,
    Finding,
    InvalidCrossmapError,
    MassArray,
    ValidationReport,
    ValueTooLongError,
    build_crossmap,
    identity_crossmap,
    parse_rational,
    render_rational,
    validate_draft,
)
from .extraction import (
    BlackboxTransform,
    ExternalCommandTransform,
    ExtractionResult,
    InProcessTransform,
    ProbeError,
    probe_blackbox,
    rationalize,
)
from .formats import (
    ParseError,
    export_dot,
    import_crosswalk,
    read_array,
    read_crosswalk,
    read_edge_list,
    to_json,
    write_array,
    write_crosswalk,
    write_edge_list,
)
from .graph import (
    Component,
    CrossmapSummary,
    ImputationMetrics,
    components,
    imputation_metrics,
    summarize,
)
from .transform import (
    CoverageError,
    MissingValueError,
    NegativeMassError,
    TransformOptions,
    TransformReceipt,
    append_keys,
    apply_sequence,
    apply_transform,
    drop_keys,
)
from .validation import (
    CoverageReport,
    check_array,
    check_coverage,
    check_mass_preserving,
)

__version__ = "0.1.0"

__all__ = [
    "BlackboxTransform",
    "Component",
    "CompositionError",
    "CoverageError",
    "CoverageReport",
    "Crossmap",
    "CrossmapError",
    "CrossmapSummary",
    "Edge",
    "EdgeListDraft",
    "ExternalCommandTransform",
    "ExtractionResult",
    "Finding",
    "InvalidCrossmapError",
    "ImputationMetrics",
    "InProcessTransform",
    "MassArray",
    "MatrixEncoding",
    "MissingValueError",
    "NegativeMassError",
    "ParseError",
    "ProbeError",
    "TransformOptions",
    "TransformReceipt",
    "ValidationReport",
    "ValueTooLongError",
    "append_keys",
    "apply_sequence",
    "apply_transform",
    "build_crossmap",
    "check_array",
    "check_coverage",
    "check_mass_preserving",
    "components",
    "compose",
    "export_dot",
    "identity_crossmap",
    "import_crosswalk",
    "imputation_metrics",
    "matvec_dense",
    "parse_rational",
    "probe_blackbox",
    "rationalize",
    "read_array",
    "read_crosswalk",
    "read_edge_list",
    "render_rational",
    "reverse",
    "summarize",
    "to_json",
    "to_matrix",
    "validate_draft",
    "write_array",
    "write_crosswalk",
    "write_edge_list",
]
