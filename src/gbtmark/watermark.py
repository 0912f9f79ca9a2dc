"""The watermark scheme: embedding and extraction of image bits in audio frames.

One watermark bit goes into one frame: the frame's leading transform
coefficients are reshaped to a small matrix, and the bit is written by
nudging the matrix's largest singular value up (bit 1) or down (bit 0)
by the watermark strength. Extraction is non-blind: it compares the
current largest singular value against the value saved at embed time.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .audio import (AudioSignal, _adopt, _check_range, _energies, _frames, _gather,
                    _store, _values)
from .errors import (CapacityError, ConfigError, KeyFormatError, ValidationError,
                     _integer, _real)
from .metrics import QualityReport, _quality
from .transform import GraphConfig, make_plan


@dataclass(frozen=True)
class EmbedParams:
    """Watermark strength and coefficient budget for embedding."""

    ws: float = 0.05
    coeff_fraction: float = 0.4
    graph: GraphConfig = field(default_factory=GraphConfig)

    def __post_init__(self):
        if not isinstance(self.graph, GraphConfig):
            raise ConfigError(f"graph must be a GraphConfig, got {type(self.graph)}")
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
        # np.all, not .all(): numpy < 1.25 compares a str array to 0 as a
        # plain False, not an array
        if not np.all((bits == 0) | (bits == 1)):
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

    ``params`` is an :class:`EmbedParams` and the rate a positive integer,
    so a key file's header holds Python ints and floats. Entry i of the
    read-only arrays ``frame_indices`` and ``s_max`` belongs to bit i
    (row-major); frame indices are non-negative, strictly increasing
    integers, held as int64, and every ``s_max`` is finite and >= 0.
    """

    sample_rate: int
    params: EmbedParams
    watermark_width: int
    watermark_height: int
    frame_indices: np.ndarray
    s_max: np.ndarray

    def __post_init__(self):
        if not isinstance(self.params, EmbedParams):
            raise KeyFormatError(f"params must be EmbedParams, got {type(self.params)}")
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
    """Watermarked signal, the key to read it back, and its quality against the host."""

    signal: AudioSignal
    key: EmbeddingKey
    quality: QualityReport


def _leading(rows, params):
    # The one projection from stored frames: rows as stored, int16 codes or
    # float values, to each row's leading k = params.coeff_count coefficients
    # as a row-major r x c matrix, r the largest divisor of k not above
    # sqrt(k). On OpenBLAS the full-basis product reads a row bit-equal in
    # batches of 2 to 33 rows and in the full batch (checked at k = 1, 4, 6
    # and 9); basis[:, :k] does not at k = 1. A one-row batch goes to gemv
    # and differs in the last bits (ROADMAP item 2).
    k = params.coeff_count
    r = next(r for r in range(math.isqrt(k), 0, -1) if k % r == 0)
    return (_values(rows) @ make_plan(params.graph))[:, :k].reshape(-1, r, k // r)


def _halves(mats):
    # A 2x2 matrix [[a, b], [c, d]] is E*I + H*[[0, -1], [1, 0]] plus
    # F*[[1, 0], [0, -1]] + G*[[0, 1], [1, 0]], a scaled rotation plus a
    # scaled reflection, with E = (a+d)/2, H = (c-b)/2, F = (a-d)/2 and
    # G = (c+b)/2. With Q = hypot(E, H) and R = hypot(F, G) the singular
    # values are Q + R and |Q - R| (Blinn, "Consider the lowly 2x2
    # matrix", 1996). Returns each part with its length, (E, H, Q) and
    # (F, G, R).
    a, b, c, d = mats.reshape(-1, 4).T
    e, h, f, g = (a + d) / 2, (c - b) / 2, (a - d) / 2, (c + b) / 2
    return (e, h, np.hypot(e, h)), (f, g, np.hypot(f, g))


def _smax(mats):
    # Largest singular value of each matrix: Q + R for 2x2 matrices (see
    # _halves), LAPACK's SVD for any other shape. Eligibility, the key's
    # reference value (through _smax_change) and the extracted reading all
    # come from it, so an unmarked frame compares equal to its key and reads 0.
    if mats.shape[1:] != (2, 2):
        return np.linalg.svd(mats, compute_uv=False)[:, 0]
    (_, _, q), (_, _, r) = _halves(mats)
    return q + r


def _along(x, y, norm, length):
    # the pair (x, y) of the given norm rescaled to the given length; a
    # zero pair has no direction of its own and takes (length, 0)
    zero = norm == 0
    scale = length / np.where(zero, 1.0, norm)
    return np.where(zero, length, x * scale), y * scale


def _smax_change(mats, delta):
    # Each matrix M's s_max, as _smax gives it, and the change delta *
    # u1 v1^T: M plus it has its largest singular value moved by delta, the
    # other singular values and all singular vectors kept. In the 2x2 form
    # of _halves, u1 v1^T is (E, H)/2Q + (F, G)/2R, so the change is each
    # part rescaled to length delta/2; a zero part takes the direction
    # (delta/2, 0), one valid choice of the (then tied) top singular pair.
    # LAPACK's SVD with vectors can differ from _smax in the last bits.
    if mats.shape[1:] != (2, 2):
        u, _, vt = np.linalg.svd(mats, full_matrices=False)
        return _smax(mats), delta[:, None, None] * u[:, :, :1] * vt[:, :1, :]
    rotation, reflection = _halves(mats)
    e, h = _along(*rotation, delta / 2)
    f, g = _along(*reflection, delta / 2)
    change = np.stack([e + f, g - h, g + h, e - f], axis=1).reshape(-1, 2, 2)
    return rotation[2] + reflection[2], change


def _select(samples, params: EmbedParams, bit_count) -> np.ndarray:
    # The frames embed marks (see its docstring), from the samples as stored,
    # float64 values or the int16 codes read_wav makes them of, with the same
    # result. Cost: every frame's energy, in float64, but singular values only
    # for a prefix of the frames ranked by energy. The prefix starts at the
    # bit_count loudest frames (whole tie runs kept) and at least doubles
    # while too few of it are eligible; each frame is tested at most once, so
    # the worst case, loud frames that are ineligible (e.g. high-frequency
    # content the leading coefficients miss), costs a full scan of the host.
    size = params.graph.frame_size
    total = len(samples) // size
    if total < 1:
        raise ValidationError(f"signal has {len(samples)} samples, need at least "
                              f"{size} for one frame")
    frames = _frames(samples, size)
    energies = _energies(frames)
    # the tested bands' eligible frames, which outrank every untested frame
    winners = np.empty(0, dtype=np.intp)
    upper = np.inf  # frames at or above this energy are already tested
    tested = 0
    wanted = bit_count
    while True:
        # the wanted-th largest energy; every frame at or above it joins,
        # so a tie run is never split and the tested frames stay a prefix
        wanted = min(wanted, total)
        cut = np.partition(energies, total - wanted)[total - wanted]
        # the untested frames at or above it, in frame order; _leading
        # reads a row the same at any place in a batch of the band's size
        band = np.flatnonzero(energies >= cut)
        band = band[energies[band] < upper]
        eligible = band[_smax(_leading(frames[band], params)) > params.ws]
        short = bit_count - winners.size
        if eligible.size >= short:
            # only the band that overflows is ranked, by (-energy, index)
            if eligible.size > short:
                eligible = eligible[np.lexsort((eligible, -energies[eligible]))[:short]]
            return np.sort(np.concatenate([winners, eligible]))
        winners = np.concatenate([winners, eligible])
        tested += band.size
        if tested == total:
            raise CapacityError(eligible=int(winners.size), required=bit_count)
        upper = cut
        wanted = 2 * tested


def _mark(samples, sample_rate: int, watermark: WatermarkImage, params: EmbedParams):
    # the embedding of the host signal whose _values the samples are, which
    # it leaves as they are: the key, the keyed frames' marked rows for _store
    # to write back, and the signal's QualityReport, from the errors in those rows
    chosen = _select(samples, params, watermark.bits.size)
    frames = _frames(samples, params.graph.frame_size)
    host = _values(frames[chosen])
    shift = np.where(watermark.bits == 1, params.ws, -params.ws)
    s_ref, change = _smax_change(_leading(host, params), shift)
    change = change.reshape(len(host), -1)
    marked = change @ make_plan(params.graph)[:, :change.shape[1]].T
    marked += host
    np.clip(marked, -1.0, 1.0, out=marked)
    # the clip leaves a NaN change as NaN; every other sample is the
    # host's, already checked, so a marked signal needs no scan of its own
    _check_range(marked)
    key = EmbeddingKey(sample_rate=sample_rate, params=params,
                       watermark_width=watermark.width, watermark_height=watermark.height,
                       frame_indices=chosen, s_max=s_ref)
    error = np.subtract(marked, host, out=host)  # in place: temporaries slowed embed
    return key, marked, _quality(np.square(error, out=error).sum(), len(samples))


def embed(host: AudioSignal, watermark: WatermarkImage,
          params: EmbedParams | None = None) -> WatermarkedResult:
    """Embed a binary image into the host signal.

    Frames are cut on the ``params.graph.frame_size`` grid. A frame whose
    largest singular value is at most ``ws`` cannot take a bit-0 shift and
    is ineligible; of the rest, the highest-energy frames win, one per bit
    (ties to the lower index), and the bits map row-major onto them in
    ascending frame order. Each selected frame's leading coefficient
    matrix M becomes M + (+-ws) u1 v1^T, which moves its largest singular
    value by ws. Frames that carry no bit keep their exact samples in the
    returned signal, so write_wav writes a WAV host's codes back unchanged
    there; modified frames are clamped to [-1, 1].
    """
    params = params if params is not None else EmbedParams()
    key, marked, quality = _mark(host.samples, host.sample_rate, watermark, params)
    samples = host.samples.copy()
    _store(_frames(samples, params.graph.frame_size), key.frame_indices, marked)
    return WatermarkedResult(_adopt(samples, host.sample_rate, in_range=True), key,
                             quality)


def _read_bits(sample_rate: int, samples, key: EmbeddingKey) -> WatermarkImage:
    # the key's bits from a signal sampled at sample_rate, its samples as
    # stored (see _leading), a WAV file's map too: only the keyed frames are
    # gathered, after the rate check
    if sample_rate != key.sample_rate:
        raise ValidationError(
            f"signal is sampled at {sample_rate} Hz but the key was "
            f"made at {key.sample_rate} Hz")
    rows = _gather(samples, key.params.graph.frame_size, key.frame_indices)
    bits = _smax(_leading(rows, key.params)) > key.s_max
    return WatermarkImage(key.watermark_width, key.watermark_height, bits)


def extract(signal: AudioSignal, key: EmbeddingKey) -> WatermarkImage:
    """Recover the watermark image from a (possibly attacked) signal.

    The signal must have the key's sample rate. Frames past the signal
    read as zeros, and a partial last frame is zero-padded. Each bit is
    read independently from its own frame: 1 when the frame's largest
    singular value exceeds the key's, else 0, so an unmarked copy of the
    host reads all zeros.
    """
    return _read_bits(signal.sample_rate, signal.samples, key)
