"""Exception hierarchy shared across the package."""


class EvasionLabError(Exception):
    """Base class for all errors raised by this package."""


# -- capture / packet decoding -------------------------------------------------

class BadMagicError(EvasionLabError):
    """Input file is not a classic pcap (unrecognized magic number)."""


class TruncatedFileError(EvasionLabError):
    """A pcap record header or body extends past end of file."""


class OddLengthError(EvasionLabError):
    """Checksum input has odd length; caller must pad to 16-bit words."""


class IncompleteStreamError(EvasionLabError):
    """Reassembly finished with a gap in fragment or sequence space."""


# -- synthesis / feature extraction -------------------------------------------

class EmptyPayloadError(EvasionLabError):
    """Transform needs payload bytes but the trace carries none."""


class TraceTooShortError(EvasionLabError):
    """Flow has fewer packets than the minimum window length."""


# -- neural core ---------------------------------------------------------------

class ShapeMismatchError(EvasionLabError):
    """Tensor shapes are inconsistent with the model configuration."""


class EmptySequenceError(EvasionLabError):
    """Input sequence mask has no real steps."""


class TapeReuseError(EvasionLabError):
    """A forward tape was consumed by backward() more than once."""


class CheckpointFormatError(EvasionLabError):
    """Model checkpoint header is invalid or disagrees with its parameter count."""


# -- optimizers ----------------------------------------------------------------

class KindMismatchError(EvasionLabError):
    """Optimizer state was created for a different update rule."""


class NonFiniteGradientError(EvasionLabError):
    """Gradient contains NaN or infinity."""


# -- dataset container ---------------------------------------------------------

class DatasetFormatError(EvasionLabError):
    """Dataset file is malformed (bad magic, counts, or record layout)."""


class DimMismatchError(EvasionLabError):
    """Sample feature width disagrees with the dataset dimension."""


class EmptyDatasetError(EvasionLabError):
    """Refusing to write or split a dataset with no samples."""


# -- training / evaluation -----------------------------------------------------

class DivergenceError(EvasionLabError):
    """Training loss became NaN or infinite."""


class EmptyTestSetError(EvasionLabError):
    """Evaluation requested on an empty test set."""
