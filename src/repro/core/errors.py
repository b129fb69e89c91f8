"""Exception hierarchy for the NNexus reproduction.

Every error raised by this package derives from :class:`NNexusError`, so
callers embedding the linker can catch a single base class at an API
boundary while tests can assert on precise subclasses.
"""

from __future__ import annotations


class NNexusError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class DuplicateObjectError(NNexusError):
    """An object with the same identifier is already registered."""

    def __init__(self, object_id: int) -> None:
        super().__init__(f"object {object_id} is already registered")
        self.object_id = object_id


class UnknownObjectError(NNexusError):
    """The requested object identifier is not registered."""

    def __init__(self, object_id: int) -> None:
        super().__init__(f"object {object_id} is not registered")
        self.object_id = object_id


class UnknownDomainError(NNexusError):
    """A domain handle was used that has not been configured."""

    def __init__(self, domain: str) -> None:
        super().__init__(f"domain {domain!r} is not configured")
        self.domain = domain


class UnknownClassError(NNexusError):
    """A classification code does not exist in its scheme."""

    def __init__(self, scheme: str, code: str) -> None:
        super().__init__(f"class {code!r} is not part of scheme {scheme!r}")
        self.scheme = scheme
        self.code = code


class PolicyParseError(NNexusError):
    """A linking-policy text chunk could not be parsed."""

    def __init__(self, line_number: int, line: str, reason: str) -> None:
        super().__init__(f"policy line {line_number}: {reason}: {line!r}")
        self.line_number = line_number
        self.line = line
        self.reason = reason


class SchemeParseError(NNexusError):
    """A classification scheme definition could not be parsed."""


class CorpusFormatError(NNexusError):
    """A corpus file is not UTF-8 JSON of the documented corpus shape."""


class ProtocolError(NNexusError):
    """An XML request or response violates the NNexus wire protocol."""


class OverloadedError(NNexusError):
    """The server shed this request because it is at capacity.

    Transient by construction: the caller should back off and retry.
    """

    code = "overloaded"
    retryable = True


class DeadlineExceededError(NNexusError):
    """A request or connection outlived its time budget."""

    code = "deadline"
    retryable = True


class ReadOnlyError(NNexusError):
    """A mutation was attempted while the linker is in read-only mode.

    Raised after storage corruption degrades the deployment: reads keep
    serving from the recovered in-memory state, writes are refused so
    the journal cannot diverge further from disk.
    """

    code = "read-only"
    retryable = False


class StorageError(NNexusError):
    """A durable storage backend failed to read or journal corpus state."""


class StorageCorruptionError(StorageError):
    """Persistent state failed an integrity check and cannot be trusted.

    Carries enough context (which file, what kind of damage) for the
    operator to decide between restoring a backup and accepting the
    recovered prefix.
    """

    def __init__(self, path: object, reason: str) -> None:
        super().__init__(f"corrupt storage at {path}: {reason}")
        self.path = str(path)
        self.reason = reason
