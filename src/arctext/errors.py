"""Exception hierarchy.

Every error carries a stable ``code`` string so callers (and the CLI) can
match failures without parsing messages. Codes mirror the diagnostic codes
emitted by graph validation, so a graph rejected during canonicalization
fails with the same code that validation reports. ``read_text`` is the one
place a failed file read is worded.
"""

from __future__ import annotations


class ArcTextError(Exception):
    """Base class for all errors raised by this package."""

    code = "ArcTextError"

    def __init__(self, message: str, *, subject: object = None):
        super().__init__(message)
        self.subject = subject


# --- graph construction -------------------------------------------------

class GraphError(ArcTextError):
    """A structural problem found while building a graph."""


class InvalidNodeNameError(GraphError):
    code = "InvalidNodeName"


class DuplicateNodeNameError(GraphError):
    code = "DuplicateNodeName"


class InvalidEdgeError(GraphError):
    code = "InvalidEdge"


class UnknownEdgeEndpointError(GraphError):
    code = "UnknownEdgeEndpoint"


class SelfLoopError(GraphError):
    code = "SelfLoop"


class DuplicateEdgeError(GraphError):
    code = "DuplicateEdge"


class CycleDetectedError(GraphError):
    code = "CycleDetected"


# --- terminals and ordering ----------------------------------------------

class NoNodesError(ArcTextError):
    code = "NoNodes"


class AmbiguousSourceError(ArcTextError):
    code = "AmbiguousSource"


class AmbiguousSinkError(ArcTextError):
    code = "AmbiguousSink"


class BrokenPathError(ArcTextError):
    code = "BrokenPath"


class PathExplosionError(ArcTextError):
    code = "PathExplosion"


class UnreachableNodeError(ArcTextError):
    # the ordering never raises it: every node of a 1-source, 1-sink DAG is on a path
    code = "UnreachableNode"


# --- unit specs and the text grammar --------------------------------------

class InvalidSpecError(ArcTextError):
    code = "InvalidSpec"


class UnclassifiableLineError(ArcTextError):
    code = "UnclassifiableLine"


class MalformedLineError(ArcTextError):
    code = "MalformedLine"


class DuplicateIdError(ArcTextError):
    code = "DuplicateId"


class NonContiguousIdsError(ArcTextError):
    code = "NonContiguousIds"


class DanglingConnectError(ArcTextError):
    code = "DanglingConnect"


class MultipleSinksError(ArcTextError):
    code = "MultipleSinks"


class NonCanonicalSinkError(ArcTextError):
    # the single connect_to:Null line must carry the highest id
    code = "NonCanonicalSink"


class EmptyInputError(ArcTextError):
    code = "EmptyInput"


# --- shape arithmetic ------------------------------------------------------

class NonPositiveOutputError(ArcTextError):
    code = "NonPositiveOutput"


# --- file I/O ---------------------------------------------------------------

class GraphFileSyntaxError(ArcTextError):
    code = "SyntaxError"


class SchemaError(ArcTextError):
    code = "SchemaError"


class IoError(ArcTextError):
    code = "IoError"


def read_text(path, undecodable: type[ArcTextError]) -> str:
    """A file's UTF-8 text; bytes that do not decode raise ``undecodable``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise undecodable(f"cannot read {path}: {exc}") from exc


# --- vectorizer -------------------------------------------------------------

class UnknownTokenError(ArcTextError):
    code = "UnknownToken"
