"""Exception types shared across the toolkit."""


class WlflowError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(WlflowError, ValueError):
    """A value violates a type invariant or precondition."""


class DimensionMismatch(ValidationError):
    """Paired rasters or skeleton maps have incompatible shapes."""


class NoCandidates(WlflowError):
    """A subject has no skeleton to match against."""


class DegenerateConfiguration(WlflowError):
    """Point configuration too degenerate to fit the requested transform."""


class InsufficientHeadPoints(WlflowError):
    """Fewer than two usable head keypoints for head-anchor alignment."""


class EmptyPointSet(WlflowError):
    """An operation that requires points received an empty set."""


class EmptySubject(WlflowError):
    """The requested subject id has no pixels in the mask."""


class SpecOutOfBounds(ValidationError):
    """A synthetic scene does not fit inside its raster."""


class FileFormatError(WlflowError):
    """Base class for file reader/writer failures."""


class BadMagic(FileFormatError):
    """Flow file does not start with the Middlebury sanity tag."""


class TruncatedFile(FileFormatError):
    """File ended before the declared payload was read."""


class NonFiniteValue(FileFormatError):
    """Serialized payload contains NaN or infinity."""


class FormatError(FileFormatError):
    """Image file is not in the accepted binary format."""


class SchemaError(FileFormatError):
    """JSON document does not match the expected schema."""
