"""Exception types shared across the toolkit."""


class DocTypeError(Exception):
    """Base class for all toolkit errors."""


class IngestError(DocTypeError):
    """Fatal problem reading a record stream."""


class ShortageError(DocTypeError):
    """A class does not have enough examples to satisfy a sampling request."""

    def __init__(self, doc_type, requested, available):
        self.doc_type = doc_type
        self.requested = requested
        self.available = available
        super().__init__(
            f"class {doc_type.label}: requested {requested} examples, "
            f"only {available} available"
        )


class SplitError(DocTypeError):
    """A stratified split cannot be built from the given data."""


class ThresholdError(DocTypeError):
    """A threshold cell cannot be derived from the given data."""


class ImputationError(DocTypeError):
    """Imputation is impossible: no row has an observed f1."""


class TrainingError(DocTypeError):
    """A model cannot be trained on the given data."""


class ModelFormatError(DocTypeError):
    """A model payload is malformed or corrupted."""


class UnsupportedVersionError(ModelFormatError):
    """A model file declares a format version this build does not support."""


class UndefinedRateError(DocTypeError):
    """A rate with a zero denominator was requested."""


class EventValidationError(DocTypeError):
    """A log event violates the impression/click consistency rules."""


class ConfigError(DocTypeError):
    """A run configuration is missing, malformed, or inconsistent."""
