"""Sample arrays, float64 values in [-1, 1] or int16 PCM codes, and their
frames; only the helpers here tell values and codes apart."""

import math
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


def _blocks(shape):
    # the one block walk: a slice for each consecutive block of the leading
    # axis of the given shape, at most _BLOCK values and at least one row,
    # and a float64 buffer of the block's shape that every block shares
    step = max(_BLOCK // math.prod(shape[1:]), 1)
    buffer = np.empty((min(step, shape[0]), *shape[1:]))
    for start in range(0, shape[0], step):
        stop = min(start + step, shape[0])
        yield slice(start, stop), buffer[:stop - start]


_CODE_SCALE = 2.0**-15  # int16 PCM code p stands for p * 2**-15 = p / 32768


def _values(samples):
    # the float64 values samples stand for: codes scaled, floats not copied
    return samples * _CODE_SCALE if samples.dtype.kind == "i" else samples


def _pcm(samples):
    # int16 PCM of float64 values of any shape, block by block: scaled by
    # 32768 and rounded in the block buffer, then stored; |x| <= 1 gives
    # rint(32768 x) in -32768..32768, so only the top code is clipped, to 32767
    pcm = np.empty(samples.shape, dtype="<i2")
    for block, scaled in _blocks(samples.shape):
        np.multiply(samples[block], 1 / _CODE_SCALE, out=scaled)
        np.rint(scaled, out=scaled)
        np.minimum(scaled, 32767.0, out=scaled)
        pcm[block] = scaled
    return pcm


def _store(frames, rows, values):
    # _values' inverse, the one write-back of marked frames: float64 value
    # rows stored in the given rows of frames as stored, codes through _pcm
    frames[rows] = _pcm(values) if frames.dtype.kind == "i" else values


def _frames(samples, frame_size: int) -> np.ndarray:
    # the whole frames of the samples as a (count, frame_size) view; embed
    # writes through it, and a partial last frame is left out
    count = samples.size // frame_size
    return samples[:count * frame_size].reshape(count, frame_size)


def _gather(samples, frame_size: int, indices) -> np.ndarray:
    # A key's frames (indices strictly increasing), one row each in the
    # samples' dtype: frames past the end read as zeros, a partial last
    # frame is zero-padded. An index is compared, never multiplied, so any
    # int64 is safe, and a memmap is read only at the keyed frames.
    frames = _frames(samples, frame_size)
    full = len(frames)
    inside = int(np.searchsorted(indices, full))
    rows = frames[indices[:inside]]
    if inside < indices.size:
        past = np.zeros((indices.size - inside, frame_size), rows.dtype)
        if indices[inside] == full:
            past[0] = _fit_length(samples[full * frame_size:], frame_size)
        rows = np.concatenate([rows, past])
    return rows


def _energies(frames):
    # each frame's sum of squares of its _values. The squares of int16 codes
    # are whole numbers up to 2**30 and a frame's sum of them stays below
    # 2**41, so gemv sums them exactly, weighted by _CODE_SCALE**2 = 2**-30,
    # a _blocks block of whole frames at a time. Float samples take einsum:
    # gemv's sum of a non-integer row depends on its block.
    if frames.dtype.kind != "i":
        return np.einsum("ij,ij->i", frames, frames)
    energies, weights = np.empty(len(frames)), np.full(frames.shape[1], _CODE_SCALE**2)
    for block, squares in _blocks(frames.shape):
        squares[...] = frames[block]
        np.square(squares, out=squares)
        np.matmul(squares, weights, out=energies[block])
    return energies
