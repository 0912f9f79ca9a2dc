"""Exception types shared across the package, and the one numeric-argument rule."""

import functools
import math
import operator

import numpy as np


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


def _number(convert, what, value, rule, allows, error):
    # value as a Python number once it is finite as a float and allows(it);
    # bools, text and complex values are refused, though convert takes some
    try:
        number = (math.nan if isinstance(value, (bool, np.bool_, str, bytes, bytearray,
                                                  complex, np.complexfloating))
                  else convert(value))
        if math.isfinite(number) and allows(number):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} must be {rule}, got {value!r}")


# _integer(what, value, rule, allows, error) gives an int (operator.index
# refuses 3.0, text and None), _real a float (float() refuses overflow)
_integer = functools.partial(_number, operator.index)
_real = functools.partial(_number, float)
