"""In-memory audio representation."""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _integer

# samples per block for the calls that pass over a whole signal: 512 KB
# of float64, which stays in a core's L2 cache, so no call allocates a
# full-length float temporary
_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class AudioSignal:
    """Mono audio: sample values in [-1, 1] plus a sample rate in Hz.

    The public constructor copies the sample array and freezes the
    copy, so a signal can be shared freely between workers and no later
    write to the caller's array reaches it. Arrays the library has just
    made itself (a decoded WAV, an embed result, an attack result, a
    synthetic clip) are adopted instead: the same checks, then frozen in
    place, without the copy. A decoded WAV and an embed result skip the
    scan of the sample values, which cannot fail for them: int16 codes
    over 32768 lie in [-1, 1), and embed checks the frames it changed
    and keeps the host's checked samples everywhere else.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        _settle(self, np.array(self.samples, dtype=np.float64), self.sample_rate)

    def __len__(self):
        return self.samples.size


def _settle(signal, samples, rate, in_range=False):
    # the one validation of every signal: check the float64 samples (their
    # values unless in_range) and the rate, then freeze the samples and
    # store both on signal
    if samples.ndim != 1 or samples.size == 0:
        raise ValidationError("samples must be a non-empty 1-D sequence")
    if not in_range:
        _check_range(samples)
    rate = _integer("sample_rate", rate, "a positive integer", lambda r: r > 0,
                    ValidationError)
    samples.flags.writeable = False
    object.__setattr__(signal, "samples", samples)
    object.__setattr__(signal, "sample_rate", rate)


def _check_range(samples):
    # max and min propagate NaN, so this one test also rejects NaN
    # and +-inf; isfinite runs only to pick the message
    peak = max(samples.max(), -samples.min())
    if not peak <= 1.0:
        if not np.isfinite(samples).all():
            raise ValidationError("samples must be finite")
        raise ValidationError("samples must lie in [-1, 1]")


def _adopt(samples, rate, in_range=False):
    # a signal holding samples itself, not a copy (asarray copies only
    # a non-float64 array); only for an array the library has just made
    # and that nothing else holds; in_range vouches that every sample is
    # finite and in [-1, 1] by construction
    signal = object.__new__(AudioSignal)
    _settle(signal, np.asarray(samples, dtype=np.float64), rate, in_range)
    return signal


def _fit_length(samples, length):
    # the first length samples: a view when the samples reach that far,
    # otherwise a copy zero-padded at the end
    if samples.size >= length:
        return samples[:length]
    return np.concatenate([samples, np.zeros(length - samples.size)])


def _blocks(size):
    # a slice for each consecutive _BLOCK-sample block of range(size), and
    # a float64 buffer of the block's length; one buffer serves every block
    buffer = np.empty(min(size, _BLOCK))
    for start in range(0, size, _BLOCK):
        stop = min(start + _BLOCK, size)
        yield slice(start, stop), buffer[:stop - start]
