"""File formats: PCM16 mono WAV audio, plain PBM watermark images, and
line-oriented embedding key files.

Readers reject anything outside the supported formats instead of
coercing (no down-mixing, no resampling); writers produce files the
readers round-trip exactly, up to the documented WAV quantization.
"""

import operator
import wave
from pathlib import Path

import numpy as np

from .audio import AudioSignal, _adopt, _blocks
from .errors import AudioFormatError, ConfigError, KeyFormatError, _integer
from .transform import GraphConfig
from .watermark import EmbeddingKey, EmbedParams, WatermarkImage

MAX_PBM_DIMENSION = 4096
# the header holds the byte rate, twice the sample rate, in 32 bits
MAX_WAV_RATE = 2**31 - 1
# the ASCII characters str.split() splits at
_SPACE = bytes(code for code in range(128) if chr(code).isspace())


def read_wav(path) -> AudioSignal:
    """Read a mono 16-bit PCM WAV file; integer sample i maps to i/32768."""
    try:
        with wave.open(str(path), "rb") as handle:
            channels = handle.getnchannels()
            sample_width = handle.getsampwidth()
            rate = handle.getframerate()
            data = handle.readframes(handle.getnframes())
    except wave.Error as exc:
        raise AudioFormatError(f"{path}: not a readable WAV file: {exc}") from exc
    except (EOFError, RuntimeError) as exc:
        # wave's chunk reader raises RuntimeError for a chunk past the end
        raise AudioFormatError(f"{path}: truncated WAV file") from exc
    if channels != 1:
        raise AudioFormatError(
            f"{path}: only mono is supported, file has {channels} channels")
    if sample_width != 2:
        raise AudioFormatError(
            f"{path}: only 16-bit PCM is supported, file has "
            f"{8 * sample_width}-bit samples")
    rate = _integer(f"{path}: sample rate", rate, f"in 1..{MAX_WAV_RATE}",
                    lambda hz: 1 <= hz <= MAX_WAV_RATE, AudioFormatError)
    # a data chunk shorter than its header says is read as it stands, as
    # streaming writers leave it; one that is empty or ends mid-sample is not
    if not data:
        raise AudioFormatError(f"{path}: WAV file holds no samples")
    if len(data) % 2:
        raise AudioFormatError(
            f"{path}: truncated WAV file, data ends mid-sample ({len(data)} bytes)")
    return _adopt(np.frombuffer(data, dtype="<i2") / 32768.0, rate)


def write_wav(path, signal: AudioSignal) -> None:
    """Write mono 16-bit PCM; samples scale by 32767 and clamp."""
    _integer(f"{path}: a WAV file's sample rate", signal.sample_rate,
             f"at most {MAX_WAV_RATE}", lambda hz: hz <= MAX_WAV_RATE, AudioFormatError)
    # block by block: scaled, rounded (half to even) and clamped in the
    # block buffer, then stored as PCM
    pcm = np.empty(len(signal), dtype="<i2")
    for block, scaled in _blocks(len(signal)):
        np.multiply(signal.samples[block], 32767.0, out=scaled)
        np.rint(scaled, out=scaled)
        np.clip(scaled, -32768, 32767, out=scaled)
        pcm[block] = scaled
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(signal.sample_rate)
        handle.writeframes(pcm)


def read_pbm(path) -> WatermarkImage:
    """Parse a plain PBM (P1) bitmap; black pixels become watermark 1 bits."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise AudioFormatError(f"{path}: not a plain-text PBM file") from exc
    # a comment runs from "#" to the end of its line, in the header or the raster
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    fields = text.split(maxsplit=3)
    if not fields or fields[0] != "P1":
        raise AudioFormatError(f"{path}: missing PBM magic 'P1'")
    if len(fields) < 3:
        raise AudioFormatError(f"{path}: missing PBM dimensions")
    try:
        width, height = int(fields[1]), int(fields[2])
    except ValueError as exc:
        raise AudioFormatError(f"{path}: bad PBM dimensions "
                               f"{fields[1]!r} x {fields[2]!r}") from exc
    if not (0 < width <= MAX_PBM_DIMENSION and 0 < height <= MAX_PBM_DIMENSION):
        raise AudioFormatError(
            f"{path}: dimensions {width}x{height} outside 1..{MAX_PBM_DIMENSION}")
    # digits come packed or spaced; uint8 maps all but "0" and "1" above 1
    digits = "".join(fields[3:]).encode("ascii").translate(None, _SPACE)
    bits = np.frombuffer(digits, dtype=np.uint8) - ord("0")
    if bits.size != width * height or np.any(bits > 1):
        raise AudioFormatError(
            f"{path}: expected {width * height} raster bits, "
            f"got {bits.size} usable characters")
    return WatermarkImage(width, height, bits)


def write_pbm(path, image: WatermarkImage) -> None:
    """Write a plain PBM (P1) file, one image row per line."""
    # each row is its digits with a space between, then a newline
    raster = np.full((image.height, 2 * image.width), ord(" "), dtype=np.uint8)
    raster[:, 0::2] = image.grid() + ord("0")
    raster[:, -1] = ord("\n")
    header = f"P1\n{image.width} {image.height}\n".encode("ascii")
    Path(path).write_bytes(header + raster.tobytes())


KEY_FORMAT_VERSION = 1
# The key's header lines in file order: name, type, and where write_key
# finds the value.
_KEY_HEADER = (
    ("version", int, lambda key: KEY_FORMAT_VERSION),
    ("sample_rate", int, lambda key: key.sample_rate),
    ("frame_size", int, lambda key: key.params.graph.frame_size),
    ("ws", float, lambda key: key.params.ws),
    ("coeff_fraction", float, lambda key: key.params.coeff_fraction),
    ("w1", float, lambda key: key.params.graph.w1),
    ("w2", float, lambda key: key.params.graph.w2),
    ("wm_width", int, lambda key: key.watermark_width),
    ("wm_height", int, lambda key: key.watermark_height),
)


def _key_text(kind, value):
    return repr(float(value)) if kind is float else str(operator.index(value))


def _key_numbers(names, values, first):
    # the lines from index first on: header values by their rows' int or float,
    # records as int64 indices and float64 s_max (numpy parses with int and float)
    head = max(len(_KEY_HEADER) - first, 0)
    header = {name: kind(value)
              for (name, kind, _), value in zip(_KEY_HEADER[first:], values)}
    return header, np.array(names[head:], np.int64), np.array(values[head:], np.float64)


def _bad_line(path, lines):
    # the error naming the first line that lacks two fields or does not
    # parse; read_key takes this pass per line only once it has failed
    for n, line in enumerate(lines or [""], 1):
        fields = line.split()
        try:
            if len(fields) != 2:
                raise ValueError("expected two fields")
            _key_numbers(fields[:1], fields[1:], n - 1)
        except (ValueError, OverflowError) as exc:
            return KeyFormatError(f"{path}: bad key record {line!r} on line {n}, {exc}")


def write_key(path, key: EmbeddingKey) -> None:
    """Serialize an embedding key as line-oriented text.

    Floats are written with repr of ``float``, the shortest decimal that
    reads back to the identical 64-bit value, and ints through
    ``operator.index``, which refuses (TypeError) rather than truncate.
    """
    lines = [f"{name} {_key_text(kind, get(key))}" for name, kind, get in _KEY_HEADER]
    # tolist gives Python ints and floats, so the same rule holds per bit
    lines += [f"{index} {s_max!r}" for index, s_max
              in zip(key.frame_indices.tolist(), key.s_max.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_key(path) -> EmbeddingKey:
    """Read an embedding key written by :func:`write_key`."""
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise KeyFormatError(f"{path}: not a plain-text key file") from exc
    # Every line holds two fields. Joined with " | ", the tokens then run
    # field, field, "|", field, field, ...; the "|"s in the separator
    # slots tell this from other line splits with the same token count.
    tokens = " | ".join(lines).split()
    if not (len(tokens) == 3 * len(lines) - 1
            and tokens[2::3].count("|") == len(lines) - 1):
        raise _bad_line(path, lines)
    names, values = tokens[0::3], tokens[1::3]
    expected = [name for name, _, _ in _KEY_HEADER]
    if names[:len(expected)] != expected:
        raise KeyFormatError(f"{path}: key header must name {', '.join(expected)} "
                             f"in order, got {', '.join(names[:len(expected)])}")
    try:
        header, indices, s_max = _key_numbers(names, values, 0)
    except (ValueError, OverflowError) as exc:
        raise _bad_line(path, lines) from exc
    _integer(f"{path}: key version", header["version"], str(KEY_FORMAT_VERSION),
             lambda version: version == KEY_FORMAT_VERSION, KeyFormatError)
    try:
        graph = GraphConfig(frame_size=header["frame_size"],
                            w1=header["w1"], w2=header["w2"])
        return EmbeddingKey(
            sample_rate=header["sample_rate"],
            params=EmbedParams(ws=header["ws"], graph=graph,
                               coeff_fraction=header["coeff_fraction"]),
            watermark_width=header["wm_width"],
            watermark_height=header["wm_height"],
            frame_indices=indices, s_max=s_max,
        )
    except (ConfigError, KeyFormatError) as exc:
        raise KeyFormatError(f"{path}: {exc}") from exc
