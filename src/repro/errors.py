"""Exception hierarchy for the repro library.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class CapacityError(ReproError):
    """A structure ran out of capacity (memory pool, hash index, ...)."""


class CodingError(ReproError):
    """A flat-key coding layout could not be built or applied."""


class SimulationError(ReproError):
    """The hardware timeline was driven into an inconsistent state."""


class WorkloadError(ReproError):
    """A workload / dataset specification is invalid."""


class DegradedServiceError(ReproError):
    """The remote tier was unavailable and the degradation policy is
    ``fail``: the affected keys cannot be served."""


class AuditError(ReproError):
    """A declared metrics invariant (conservation law or registered audit
    check) does not hold at an audit barrier."""


class RefreshError(ReproError):
    """The model-refresh stream could not be read or applied: an offset
    fell out of the update log's retention window, the log is inside an
    outage window, or an update batch is malformed."""


class DenseWorkerError(ReproError):
    """The dense worker process (``repro.model.dcn``) died, stopped
    answering or was stopped before it computed a forward it owed."""
