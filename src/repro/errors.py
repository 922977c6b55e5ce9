"""Exception hierarchy for the PPHCR reproduction library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without accidentally swallowing
programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ValidationError(ReproError):
    """An input value violates a documented precondition."""


class NotFoundError(ReproError):
    """A referenced entity (user, clip, service, table row) does not exist."""


class DuplicateError(ReproError):
    """An entity with the same primary key already exists."""


class SchemaError(ReproError):
    """A record does not match the table schema it is being written to."""


class GeometryError(ReproError):
    """A geometric primitive was constructed from invalid coordinates."""


class TrajectoryError(ReproError):
    """A trajectory operation received malformed or insufficient fixes."""


class PredictionError(ReproError):
    """A predictor could not produce a usable prediction."""


class SchedulingError(ReproError):
    """The proactive scheduler could not build a feasible plan."""


class DeliveryError(ReproError):
    """A delivery/buffering operation was requested in an invalid state."""


class PipelineError(ReproError):
    """A pipeline component was used before its dependencies were ready."""


class ClassificationError(ReproError):
    """The text classifier was queried before training or with bad input."""


class ConfigurationError(ReproError):
    """A configuration object contains inconsistent settings."""
