"""In-memory audio representation."""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class AudioSignal:
    """Mono audio: sample values in [-1, 1] plus a sample rate in Hz.

    The sample array is copied and frozen on construction, so a signal
    can be shared freely between workers.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValidationError("samples must be a non-empty 1-D sequence")
        # max and min propagate NaN, so this one test also rejects NaN
        # and +-inf; isfinite runs only to pick the message
        peak = max(samples.max(), -samples.min())
        if not peak <= 1.0:
            if not np.isfinite(samples).all():
                raise ValidationError("samples must be finite")
            raise ValidationError("samples must lie in [-1, 1]")
        rate = self.sample_rate
        if not (isinstance(rate, (int, np.integer)) and rate > 0):
            raise ValidationError(f"sample_rate must be a positive integer, got {rate!r}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(rate))

    def __len__(self):
        return self.samples.size


def _fit_length(samples, length):
    # the first length samples: a view when the samples reach that far,
    # otherwise a copy zero-padded at the end
    if samples.size >= length:
        return samples[:length]
    return np.concatenate([samples, np.zeros(length - samples.size)])
