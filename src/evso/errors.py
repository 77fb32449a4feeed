"""Exception types shared across the evso package.

Every error raised by the library derives from EvsoError so CLI code can
attribute failures to the pipeline stage that produced them.
"""


class EvsoError(Exception):
    """Base class for all evso errors."""


class MalformedDocument(EvsoError):
    """An analysis, schedule or trace document lacks a field or has a bad one."""


# --- ingestion -------------------------------------------------------------

class MalformedHeader(EvsoError):
    """Y4M signature line missing or lacking W/H/F parameters."""


class TruncatedFrame(EvsoError):
    """Frame payload ended before the expected byte count."""


class UnsupportedColorSpace(EvsoError):
    """Y4M color space other than 4:2:0 or mono."""


class SizeMismatch(EvsoError):
    """Raw YUV file size is not a multiple of the per-frame size."""


class BlockTooLarge(EvsoError):
    """Synthetic moving block does not fit inside the frame."""


class BadSynthOption(EvsoError, ValueError):
    """Synthetic clip option out of range, or a corpus entry of unknown kind."""


# --- similarity ------------------------------------------------------------

class DimsMismatch(EvsoError):
    """Operands do not share identical frame dimensions."""


class BlockOutOfRange(EvsoError):
    """Macroblock coordinates fall outside the full-block grid."""


class FrameTooSmall(EvsoError):
    """Frame smaller than the structural-similarity window."""


class TooFewFrames(EvsoError):
    """Operation needs at least two frames."""


class DegenerateInput(EvsoError):
    """Statistic undefined for the given input (e.g. constant series)."""


# --- scheduling ------------------------------------------------------------

class WindowOutOfRange(EvsoError):
    """Rolling window would reference pair indices outside the series."""


class ChunkTooSmall(EvsoError):
    """Chunk has no adjacent-frame pair to aggregate over."""


# --- processing ------------------------------------------------------------

class InvalidRate(EvsoError):
    """Target frame rate outside (0, source rate]."""


class ScheduleMismatch(EvsoError):
    """Schedule does not fit the sequence or lacks the requested profile."""


# --- manifest --------------------------------------------------------------

class ChunkCountMismatch(EvsoError):
    """Per-level inputs disagree on the number of chunks."""


class MalformedXml(EvsoError):
    """Manifest bytes are not well-formed XML."""


class InvariantViolation(EvsoError):
    """Parsed manifest violates a structural invariant."""


# --- streaming -------------------------------------------------------------

class NoVideoSets(EvsoError):
    """Manifest offers no usable video adaptation set."""


class BindFailure(EvsoError):
    """HTTP server could not bind the requested address."""


class MissingManifest(EvsoError):
    """Content directory lacks manifest.mpd."""
