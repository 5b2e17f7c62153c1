"""Canonical, order-independent text descriptions of CNN architectures.

Build a graph of typed node specs, canonicalize it into a unique 1..n
numbering, and render one line of text per node; parse such text back into
an equivalent graph. Equal architectures yield byte-equal descriptions.
"""

from .canonical import (
    DEFAULT_MAX_PATHS,
    CanonicalOrder,
    PathCandidate,
    assign_positions,
    detect_terminals,
    longest_unnumbered_paths,
    path_digest,
)
from .codec import (
    Description,
    UnitLine,
    classify_line,
    description_from_text,
    parse_description,
    parse_line,
    render_description,
    render_unit,
)
from .errors import (
    AmbiguousSinkError,
    AmbiguousSourceError,
    ArcTextError,
    BrokenPathError,
    CycleDetectedError,
    DanglingConnectError,
    DuplicateEdgeError,
    DuplicateIdError,
    DuplicateNodeNameError,
    EmptyInputError,
    GraphFileSyntaxError,
    InvalidEdgeError,
    InvalidNodeNameError,
    InvalidSpecError,
    IoError,
    MalformedLineError,
    MultipleSinksError,
    NoNodesError,
    NonCanonicalSinkError,
    NonContiguousIdsError,
    NonPositiveOutputError,
    PathExplosionError,
    SchemaError,
    SelfLoopError,
    UnclassifiableLineError,
    UnknownEdgeEndpointError,
    UnknownTokenError,
    UnreachableNodeError,
)
from .graphio import (
    DescriptionDiff,
    LineChange,
    diff_descriptions,
    export_dot,
    graph_to_json,
    load_graph_file,
    parse_graph_json,
    save_graph_file,
)
from .lint import (
    ShapeEntry,
    ShapeReport,
    conv_output_extent,
    lint_shapes,
    pool_output_extent,
)
from .model import ArchGraph, Diagnostics, Finding, build_graph, validate_graph
from .unitformat import ConvSpec, FullSpec, MFSpec, NodeSpec, PoolSpec, basic_string, kind_of
from .vectorize import (
    VECTOR_SLOTS,
    Token,
    TokenStream,
    Vocabulary,
    detokenize,
    tokenize,
    unit_vector,
    vectors_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ArcTextError", "InvalidSpecError", "InvalidNodeNameError",
    "DuplicateNodeNameError", "InvalidEdgeError", "UnknownEdgeEndpointError", "SelfLoopError",
    "DuplicateEdgeError", "CycleDetectedError", "NoNodesError",
    "AmbiguousSourceError", "AmbiguousSinkError", "BrokenPathError",
    "PathExplosionError", "UnreachableNodeError", "UnclassifiableLineError",
    "MalformedLineError", "DuplicateIdError", "NonContiguousIdsError",
    "DanglingConnectError", "MultipleSinksError", "NonCanonicalSinkError",
    "EmptyInputError", "NonPositiveOutputError", "GraphFileSyntaxError",
    "SchemaError", "IoError", "UnknownTokenError",
    "ConvSpec", "PoolSpec", "FullSpec", "MFSpec", "NodeSpec",
    "ArchGraph", "build_graph", "validate_graph", "Diagnostics", "Finding",
    "CanonicalOrder", "PathCandidate", "DEFAULT_MAX_PATHS",
    "detect_terminals", "path_digest", "longest_unnumbered_paths",
    "assign_positions", "basic_string", "kind_of",
    "UnitLine", "Description", "render_unit", "render_description",
    "classify_line", "parse_line", "parse_description", "description_from_text",
    "conv_output_extent", "pool_output_extent", "lint_shapes",
    "ShapeReport", "ShapeEntry",
    "load_graph_file", "save_graph_file", "parse_graph_json", "graph_to_json",
    "export_dot", "diff_descriptions", "DescriptionDiff", "LineChange",
    "Vocabulary", "Token", "TokenStream", "tokenize", "detokenize",
    "unit_vector", "vectors_csv", "VECTOR_SLOTS",
]
