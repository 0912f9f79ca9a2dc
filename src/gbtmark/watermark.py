"""Embedding and extraction of image bits in audio frames.

One watermark bit goes into one frame: the frame's leading transform
coefficients are reshaped to a small matrix, and the bit is written by
nudging the matrix's largest singular value up (bit 1) or down (bit 0)
by the watermark strength. Extraction is non-blind: it compares the
current largest singular value against the value saved at embed time.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioSignal, _adopt, _fit_length
from .errors import (CapacityError, ConfigError, KeyFormatError, ValidationError,
                     _integer, _real)
from .transform import GraphConfig, TransformPlan, make_plan


@dataclass(frozen=True)
class EmbedParams:
    """Watermark strength and coefficient budget for embedding."""

    ws: float = 0.05
    coeff_fraction: float = 0.4
    graph: GraphConfig = field(default_factory=GraphConfig)

    def __post_init__(self):
        for name, what, rule, allows in (
                ("ws", "watermark strength", "finite and > 0", lambda ws: ws > 0),
                ("coeff_fraction", "coeff_fraction", "in (0, 1]", lambda f: 0 < f <= 1)):
            object.__setattr__(self, name, _real(what, getattr(self, name), rule, allows,
                                                 ConfigError))
        if self.coeff_count < 1:
            raise ConfigError(
                f"coeff_fraction {self.coeff_fraction} keeps no coefficients "
                f"of a {self.graph.frame_size}-sample frame")

    @property
    def coeff_count(self) -> int:
        # round half up, so the default 0.4 of a 10-sample frame keeps 4
        return int(math.floor(self.coeff_fraction * self.graph.frame_size + 0.5))


@dataclass(frozen=True, eq=False)
class WatermarkImage:
    """Binary image payload, bits stored row-major."""

    width: int
    height: int
    bits: np.ndarray

    def __post_init__(self):
        for name in ("width", "height"):
            object.__setattr__(self, name, _integer(
                "watermark dimensions", getattr(self, name), "positive integers",
                lambda n: n >= 1, ValidationError))
        size = self.width * self.height
        bits = np.asarray(self.bits)
        if bits.ndim != 1 or bits.size != size:
            raise ValidationError(f"expected {size} bits, got {bits.size}")
        if not np.isin(bits, (0, 1)).all():
            raise ValidationError("watermark bits must be 0 or 1")
        bits = bits.astype(np.uint8)
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    def grid(self) -> np.ndarray:
        """Bits as a height x width array."""
        return self.bits.reshape(self.height, self.width)


@dataclass(frozen=True, eq=False)
class EmbeddingKey:
    """Non-blind side channel written at embed time.

    The sample rate is a positive integer. Entry i of the read-only
    arrays ``frame_indices`` and ``s_max`` belongs to watermark bit i
    (row-major); frame indices are non-negative, strictly increasing
    integers, held as int64, and every ``s_max`` is finite and
    non-negative.
    """

    sample_rate: int
    params: EmbedParams
    watermark_width: int
    watermark_height: int
    frame_indices: np.ndarray
    s_max: np.ndarray

    def __post_init__(self):
        for name in ("sample_rate", "watermark_width", "watermark_height"):
            object.__setattr__(self, name, _integer(
                "key sample rate and watermark dimensions", getattr(self, name),
                "positive integers", lambda n: n >= 1, KeyFormatError))
        indices = np.array(self.frame_indices)
        if indices.dtype.kind not in "iu":
            raise KeyFormatError("key frame indices must be integers")
        s_max = np.array(self.s_max, dtype=np.float64)
        expected = self.watermark_width * self.watermark_height
        if indices.shape != (expected,) or s_max.shape != (expected,):
            raise KeyFormatError(f"key has {indices.size} frame indices and "
                                 f"{s_max.size} s_max values, watermark needs {expected}")
        if indices[0] < 0 or np.any(indices[1:] <= indices[:-1]):
            raise KeyFormatError(
                "key frame indices must be non-negative and strictly increasing")
        # held as int64, the widest type read_key parses back
        _integer("key frame index", int(indices[-1]), "a 64-bit signed integer",
                 lambda index: index < 2**63, KeyFormatError)
        indices = indices.astype(np.int64, copy=False)
        # a NaN or +inf reference reads every bit as 0, a negative one as 1
        if not np.all((0 <= s_max) & (s_max < math.inf)):
            raise KeyFormatError("key s_max values must be finite and non-negative")
        for name, array in (("frame_indices", indices), ("s_max", s_max)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)


@dataclass(frozen=True, eq=False)
class WatermarkedResult:
    """Watermarked signal plus the key needed to read it back."""

    signal: AudioSignal
    key: EmbeddingKey


def _frames(samples, frame_size: int, count: int) -> np.ndarray:
    # the first count frames as a (count, frame_size) array; a view when
    # the samples reach that far (embed writes through it)
    return _fit_length(samples, count * frame_size).reshape(count, frame_size)


def _leading(plan, frames, k):
    # each frame's leading k coefficients as a row-major r x c matrix, r
    # the largest divisor of k not above sqrt(k), one row for a prime k.
    # Not basis[:, :k]: at k = 1 BLAS sums in a batch-size-dependent order.
    rows = next(r for r in range(math.isqrt(k), 0, -1) if k % r == 0)
    return (frames @ plan.basis)[:, :k].reshape(-1, rows, k // rows)


def _halves(mats):
    # A 2x2 matrix [[a, b], [c, d]] is E*I + H*[[0, -1], [1, 0]] plus
    # F*[[1, 0], [0, -1]] + G*[[0, 1], [1, 0]], a scaled rotation plus a
    # scaled reflection, with E = (a+d)/2, H = (c-b)/2, F = (a-d)/2 and
    # G = (c+b)/2. With Q = hypot(E, H) and R = hypot(F, G) the singular
    # values are Q + R and |Q - R| (Blinn, "Consider the lowly 2x2
    # matrix", 1996). Returns the two parts as pairs (E, H) and (F, G).
    a, b, c, d = mats.reshape(-1, 4).T
    return ((a + d) / 2, (c - b) / 2), ((a - d) / 2, (c + b) / 2)


def _smax(mats):
    # Largest singular value of each matrix: Q + R for 2x2 matrices (see
    # _halves), LAPACK's SVD for any other shape. Eligibility, the key's
    # reference value and the extracted reading all come from this one
    # call, so an unmarked frame compares equal to its key and reads 0.
    if mats.shape[1:] != (2, 2):
        return np.linalg.svd(mats, compute_uv=False)[:, 0]
    (e, h), (f, g) = _halves(mats)
    return np.hypot(e, h) + np.hypot(f, g)


def _along(x, y, length):
    # the pair (x, y) rescaled to the given length; a zero pair has no
    # direction of its own and takes (length, 0)
    norm = np.hypot(x, y)
    zero = norm == 0
    scale = length / np.where(zero, 1.0, norm)
    return np.where(zero, length, x * scale), y * scale


def _smax_change(mats, delta):
    # delta * u1 v1^T for each matrix M and its delta: M plus it has its
    # largest singular value moved by delta, the other singular values
    # and all singular vectors kept. In the 2x2 form of _halves, u1 v1^T
    # is (E, H)/2Q + (F, G)/2R, so the change is each part rescaled to
    # length delta/2; a zero part takes the direction (delta/2, 0), one
    # valid choice of the (then tied) top singular pair.
    if mats.shape[1:] != (2, 2):
        u, _, vt = np.linalg.svd(mats, full_matrices=False)
        return delta[:, None, None] * u[:, :, :1] * vt[:, :1, :]
    rotation, reflection = _halves(mats)
    e, h = _along(*rotation, delta / 2)
    f, g = _along(*reflection, delta / 2)
    return np.stack([e + f, g - h, g + h, e - f], axis=1).reshape(-1, 2, 2)


@functools.lru_cache(maxsize=4)
def _plan(config: GraphConfig) -> TransformPlan:
    # one plan per GraphConfig (frozen, hashable) for embed and extract;
    # plans are read-only, and the small bound keeps a few 1024-sample
    # plans (8 MB each) at most
    return make_plan(config)


def select_frames(signal: AudioSignal, params: EmbedParams, bit_count: int,
                  plan: TransformPlan) -> np.ndarray:
    """Pick the frames that will each carry one watermark bit.

    Frames whose largest singular value does not exceed the watermark
    strength cannot take a bit-0 shift and are ineligible. Among the
    rest, the ``bit_count`` highest-energy frames win (ties to the lower
    index); the result is sorted by ascending frame index. ``plan``
    must be built for ``params.graph``.

    Cost: every frame's energy, but singular values only for a prefix
    of the frames ranked by (-energy, index). The prefix starts at the
    ``bit_count`` loudest frames (whole tie runs kept) and at least
    doubles while too few of it are eligible; each frame is tested at
    most once, so the worst case costs what a full scan costs. When
    loud frames are ineligible (e.g. high-frequency content the leading
    coefficients miss), the prefix can grow to a full scan of the host.
    """
    bit_count = _integer("bit_count", bit_count, "an integer >= 1", lambda n: n >= 1,
                         ValidationError)
    if plan.config != params.graph:
        raise ValidationError(f"plan is for {plan.config}, not {params.graph}")
    total = len(signal) // plan.frame_size
    if total < 1:
        raise ValidationError(f"signal has {len(signal)} samples, need at least "
                              f"{plan.frame_size} for one frame")
    frames = _frames(signal.samples, plan.frame_size, total)
    energies = np.einsum("ij,ij->i", frames, frames)
    winners = np.empty(0, dtype=np.intp)  # eligible frames, in rank order
    upper = np.inf  # frames at or above this energy are already tested
    tested = 0
    wanted = bit_count
    while True:
        # the wanted-th largest energy; every frame at or above it joins,
        # so a tie run is never split and the tested frames stay a prefix
        wanted = min(wanted, total)
        cut = np.partition(energies, total - wanted)[total - wanted]
        new = np.flatnonzero((energies >= cut) & (energies < upper))
        new = new[np.lexsort((new, -energies[new]))]
        smax = _smax(_leading(plan, frames[new], params.coeff_count))
        winners = np.concatenate([winners, new[smax > params.ws]])
        if winners.size >= bit_count:
            return np.sort(winners[:bit_count])
        tested += new.size
        if tested == total:
            raise CapacityError(eligible=int(winners.size), required=bit_count)
        upper = cut
        wanted = 2 * tested


def embed(host: AudioSignal, watermark: WatermarkImage,
          params: EmbedParams | None = None) -> WatermarkedResult:
    """Embed a binary image into the host signal.

    Bits map row-major onto the selected frames in ascending frame
    order. Each selected frame's leading coefficient matrix M becomes
    M + (+-ws) u1 v1^T, which moves its largest singular value by ws.
    Frames that carry no bit keep their exact samples; modified frames
    are clamped to [-1, 1].
    """
    params = params if params is not None else EmbedParams()
    plan = _plan(params.graph)
    chosen = select_frames(host, params, watermark.bits.size, plan)
    k = params.coeff_count
    samples = host.samples.copy()
    frames = _frames(samples, plan.frame_size, len(samples) // plan.frame_size)
    marked = frames[chosen]
    mats = _leading(plan, marked, k)
    s_ref = _smax(mats)
    shift = np.where(watermark.bits == 1, params.ws, -params.ws)
    marked += _smax_change(mats, shift).reshape(-1, k) @ plan.basis[:, :k].T
    frames[chosen] = np.clip(marked, -1.0, 1.0, out=marked)
    key = EmbeddingKey(
        sample_rate=host.sample_rate,
        params=params,
        watermark_width=watermark.width,
        watermark_height=watermark.height,
        frame_indices=chosen, s_max=s_ref,
    )
    return WatermarkedResult(signal=_adopt(samples, host.sample_rate), key=key)


def extract(signal: AudioSignal, key: EmbeddingKey) -> WatermarkImage:
    """Recover the watermark image from a (possibly attacked) signal.

    The signal must have the key's sample rate. A signal too short to
    reach the last keyed frame is zero-padded at the end, so frames past
    the signal read as zeros. Each bit is read independently from its
    own frame: 1 when the frame's largest singular value exceeds the
    key's, else 0, so an unmarked copy of the host reads all zeros.
    """
    if signal.sample_rate != key.sample_rate:
        raise ValidationError(
            f"signal is sampled at {signal.sample_rate} Hz but the key was "
            f"made at {key.sample_rate} Hz")
    plan = _plan(key.params.graph)
    # pad only up to the first all-zero frame; keyed frames past it read it
    count = min(int(key.frame_indices[-1]) + 1, len(signal) // plan.frame_size + 2)
    frames = _frames(signal.samples, plan.frame_size, count)
    keyed = frames[np.minimum(key.frame_indices, count - 1)]
    bits = _smax(_leading(plan, keyed, key.params.coeff_count)) > key.s_max
    return WatermarkImage(key.watermark_width, key.watermark_height, bits)
