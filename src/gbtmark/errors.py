"""Exception types shared across the package."""


class GbtmarkError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(GbtmarkError):
    """Invalid graph or embedding configuration."""


class ValidationError(GbtmarkError):
    """Input data violates an operation's contract."""


class NumericError(GbtmarkError):
    """A numerical routine failed to produce a usable result."""


class CapacityError(GbtmarkError):
    """Not enough eligible frames to hold every watermark bit."""

    def __init__(self, eligible, required):
        super().__init__(
            f"watermark needs {required} frames but only "
            f"{eligible} frames are eligible"
        )
        self.eligible = eligible
        self.required = required


class KeyFormatError(GbtmarkError):
    """Embedding key file is malformed or inconsistent."""


class AudioFormatError(GbtmarkError):
    """Unsupported or malformed audio or image file."""


class CodecError(GbtmarkError):
    """External codec command is missing or exited with an error."""
