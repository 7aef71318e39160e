"""Mass-preserving key mappings with exact rational arithmetic.

Specify, validate, compose, apply, analyse, and extract crossmaps:
weighted mappings that redistribute key-indexed aggregate statistics
between classification standards without creating or destroying any of
the total.  Weights and masses are exact rationals throughout, so every
conservation claim is checkable with plain equality.

Importing the package loads no submodule: each exported name is bound on
first use, from the module ``_EXPORTS`` lists it under (PEP 562).
``_EXPORTS`` is the one list of public names: each submodule's ``__all__``
is its entry.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodules read their __all__ from here with `from . import _EXPORTS`, so this
# table must stay above any import of a submodule.
_EXPORTS = {
    "algebra": ("CompositionError", "MatrixEncoding", "compose", "matvec_dense", "reverse", "to_matrix"),
    "core": (
        "Crossmap", "CrossmapError", "Edge", "EdgeListDraft", "Finding", "InvalidCrossmapError", "MassArray",
        "ProbeError", "Severity", "ValidationReport", "ValueTooLongError", "build_crossmap", "clean_key",
        "identity_crossmap", "parse_rational", "render_rational", "validate_draft",
    ),
    "extraction": (
        "ExternalCommandTransform", "ExtractionResult", "InProcessTransform", "probe_blackbox", "rationalize",
    ),
    "formats": (
        "ParseError", "SplitPolicy", "export_dot", "import_crosswalk", "read_array", "read_crosswalk",
        "read_edge_list", "to_json", "write_array", "write_crosswalk", "write_edge_list",
    ),
    "graph": (
        "Component", "CrossmapSummary", "ImputationMetrics", "RelationType", "TargetSummary", "components",
        "imputation_metrics", "summarize",
    ),
    "transform": (
        "CoverageError", "MissingValueError", "NegativeMassError", "TransformOptions", "TransformReceipt",
        "apply_sequence", "apply_transform",
    ),
    "validation": ("CoverageReport", "check_array", "check_coverage", "check_mass_preserving"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
