"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing geometric, model, and query-language failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GeometryError(ReproError):
    """A geometric precondition was violated (degenerate input, etc.)."""


class RegionError(ReproError):
    """A region constructor received data that does not describe a valid
    region of its class (e.g. a self-intersecting polygon for ``Poly``)."""


class InstanceError(ReproError):
    """A spatial database instance is malformed (duplicate names, etc.)."""


class ArrangementError(ReproError):
    """The arrangement engine reached an inconsistent state."""


class InvariantError(ReproError):
    """A structure claimed to be a topological invariant is not one, or an
    invariant operation received incompatible arguments."""


class ValidationError(InvariantError):
    """An instance over the thematic schema failed one of the labeled
    planar graph conditions (1)-(7) of Section 3 of the paper.

    Attributes
    ----------
    condition:
        The number (1-7) of the first condition that failed, when known.
    """

    def __init__(self, message: str, condition: int | None = None):
        super().__init__(message)
        self.condition = condition


class SchemaError(ReproError):
    """A relational operation was applied to relations with incompatible
    schemas."""


class QueryError(ReproError):
    """A query-language expression is ill-formed or cannot be evaluated
    under the chosen semantics."""


class ParseError(QueryError):
    """The query parser rejected its input.

    Attributes
    ----------
    position:
        Character offset of the error in the source text, when known.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class EncodingError(ReproError):
    """An arithmetic-encoding construction received invalid parameters."""


class PipelineError(ReproError):
    """The batch pipeline was misconfigured or reached an inconsistent
    state (e.g. a canonical-hash bucket whose members fail the
    isomorphism verification)."""


class ComputeError(PipelineError):
    """Computing one instance's invariant failed (after any configured
    retries).  Unlike :class:`PipelineError` it is scoped to a single
    task: the batch machinery catches it per instance, so one bad
    instance never poisons its siblings.

    Attributes
    ----------
    key:
        The content-addressed instance key of the failed task, when
        known (``instance_key`` digest).
    stage:
        Where the failure happened (``"compute"``, a backend name,
        ``"universe_enumeration"``, ...), when known.
    attempts:
        How many times the task was attempted before giving up.
    """

    def __init__(
        self,
        message: str,
        key: str | None = None,
        stage: str | None = None,
        attempts: int = 0,
    ):
        super().__init__(message)
        self.key = key
        self.stage = stage
        self.attempts = attempts


class WorkerError(ComputeError):
    """A pool worker died (or was killed) while holding a task.  The
    task itself may be innocent: worker death is attributed to every
    task in flight when the pool broke."""


class TimeoutError(ComputeError, TimeoutError):
    """A task (or a cooperative deadline check inside one) exceeded its
    configured time budget.  Also subclasses the builtin
    :class:`TimeoutError` so generic timeout handlers catch it."""


class StoreError(ReproError):
    """The segment store hit malformed data or an invalid operation
    (torn record, checksum mismatch, append to a sealed segment, a
    failed fsync, a full disk, ...).

    Structured so callers can react without parsing messages:

    Attributes
    ----------
    op:
        The store operation that failed (``"append"``, ``"read"``,
        ``"seal"``, ``"fsync"``, ``"open"``, ...), when known.
    path:
        The segment file involved, when known.
    errno:
        The OS error number (``ENOSPC``, ``EIO``, ...) when the failure
        wrapped an :class:`OSError`, else None.
    """

    def __init__(
        self,
        message: str,
        op: str | None = None,
        path: str | None = None,
        errno: int | None = None,
    ):
        super().__init__(message)
        self.op = op
        self.path = path
        self.errno = errno


class ServiceError(ReproError):
    """A request to the query service failed at the service layer (as
    opposed to inside the evaluation it wraps).  Carries an HTTP-style
    ``status`` so a transport adapter can map it without inspecting
    types.

    Attributes
    ----------
    status:
        An HTTP-style status code (404, 503, ...).
    endpoint:
        The service endpoint that rejected the request, when known.
    """

    status = 500

    def __init__(self, message: str, endpoint: str | None = None):
        super().__init__(message)
        self.endpoint = endpoint


class UnknownInstanceError(ServiceError):
    """A request named a stored instance the service does not hold."""

    status = 404

    def __init__(
        self,
        message: str,
        endpoint: str | None = None,
        name: str | None = None,
    ):
        super().__init__(message, endpoint=endpoint)
        self.name = name


class OverloadError(ServiceError):
    """The service shed the request: the compute stage and its queue
    were both full when the request arrived.  The request was never
    started — retrying after backoff is safe.

    Attributes
    ----------
    queue_depth:
        How many requests were already waiting when this one was shed.
    """

    status = 503

    def __init__(
        self,
        message: str,
        endpoint: str | None = None,
        queue_depth: int = 0,
    ):
        super().__init__(message, endpoint=endpoint)
        self.queue_depth = queue_depth


class ServiceClosedError(ServiceError):
    """The service was shut down before (or while) handling the
    request."""

    status = 503


class StoreUnavailableError(ServiceError):
    """The service's circuit breaker is open: recent store reads
    failed consecutively, so further reads are short-circuited until a
    half-open probe succeeds.  Retrying after backoff is safe — the
    request never touched the store.

    Attributes
    ----------
    breaker_state:
        The breaker state that rejected the request (``"open"``).
    """

    status = 503

    def __init__(
        self,
        message: str,
        endpoint: str | None = None,
        breaker_state: str = "open",
    ):
        super().__init__(message, endpoint=endpoint)
        self.breaker_state = breaker_state
