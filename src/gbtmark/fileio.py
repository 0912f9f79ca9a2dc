"""File formats: PCM16 mono WAV audio, plain PBM watermark images, and
line-oriented embedding key files.

Readers reject anything outside the supported formats instead of
coercing (no down-mixing, no resampling); writers produce files the
readers round-trip exactly, and a WAV read and written back keeps its
exact PCM codes.
"""

import os
import wave
from pathlib import Path

import numpy as np

from .audio import AudioSignal, _adopt, _blocks
from .errors import AudioFormatError, ConfigError, KeyFormatError, _integer
from .transform import GraphConfig
from .watermark import (EmbeddingKey, EmbedParams, WatermarkImage, _frames, _gather,
                        _values)

MAX_PBM_DIMENSION = 4096
# the header holds the byte rate, twice the sample rate, in 32 bits
MAX_WAV_RATE = 2**31 - 1
# the ASCII characters str.split() splits at
_SPACE = bytes(code for code in range(128) if chr(code).isspace())


def _wav_data(path, file):
    # The one header step of read_wav and _read_keyed_frames: every format
    # check, then the sample rate, the data's byte offset and the bytes of
    # it that wave would read. wave leaves the file just past the data
    # chunk's header, and reads at most as far as the RIFF chunk's size
    # and the file reach.
    try:
        with wave.open(file) as handle:
            channels = handle.getnchannels()
            sample_width = handle.getsampwidth()
            rate = handle.getframerate()
            frames = handle.getnframes()
            offset = file.tell()
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
    file.seek(4)
    riff_end = 8 + int.from_bytes(file.read(4), "little")
    size = min(2 * frames, riff_end - offset, os.fstat(file.fileno()).st_size - offset)
    # a data chunk shorter than its header says is read as it stands, as
    # streaming writers leave it; one that is empty or ends mid-sample is not
    if not size:
        raise AudioFormatError(f"{path}: WAV file holds no samples")
    if size % 2:
        raise AudioFormatError(
            f"{path}: truncated WAV file, data ends mid-sample ({size} bytes)")
    return rate, offset, size


def _read_pcm(path):
    # the sample rate and the int16 PCM codes of a WAV file, read once after
    # _wav_data's checks into a new array; a memmap of the host would break
    # an embed that writes over the file it reads
    with open(path, "rb") as file:
        rate, offset, size = _wav_data(path, file)
        file.seek(offset)
        return rate, np.fromfile(file, dtype="<i2", count=size // 2)


def read_wav(path) -> AudioSignal:
    """Read a mono 16-bit PCM WAV file; integer sample i maps to i/32768."""
    rate, pcm = _read_pcm(path)
    # an int16 code over 32768 is finite and in [-1, 32767/32768], so the
    # signal's value scan could never fail and is skipped
    return _adopt(_values(pcm), rate, in_range=True)


def _read_keyed_frames(path, key: EmbeddingKey):
    # The sample rate of a WAV file and the key's frames of it, as extract
    # reads them from read_wav's signal, with the same checks; only the
    # pages holding those frames are read from the file.
    with open(path, "rb") as file:
        rate, offset, size = _wav_data(path, file)
        pcm = np.memmap(file, dtype="<i2", mode="r", offset=offset, shape=(size // 2,))
        frames = _gather(pcm, key.params.graph.frame_size, key.frame_indices)
    return rate, _values(frames)


def _pcm(samples):
    # int16 PCM, block by block: scaled by 32768 and rounded in the block
    # buffer, then stored; |x| <= 1 gives rint(32768 x) in -32768..32768,
    # so only the top code is clipped, to 32767
    pcm = np.empty(len(samples), dtype="<i2")
    for block, scaled in _blocks(len(samples)):
        np.multiply(samples[block], 32768.0, out=scaled)
        np.rint(scaled, out=scaled)
        np.minimum(scaled, 32767.0, out=scaled)
        pcm[block] = scaled
    return pcm


def _write_pcm(path, rate, pcm):
    _integer(f"{path}: a WAV file's sample rate", rate, f"at most {MAX_WAV_RATE}",
             lambda hz: hz <= MAX_WAV_RATE, AudioFormatError)
    with wave.open(str(path), "wb") as handle:
        handle.setparams((1, 2, rate, 0, "NONE", "not compressed"))  # mono PCM16
        handle.writeframes(pcm)


def write_wav(path, signal: AudioSignal) -> None:
    """Write mono 16-bit PCM; samples scale by 32768 and round half to
    even, and only 1.0's code 32768 is clipped, to 32767. So the signal
    read_wav makes of a WAV file is written back as the same codes."""
    _write_pcm(path, signal.sample_rate, _pcm(signal.samples))


def _write_marked(path, pcm, key: EmbeddingKey, rows) -> None:
    # write_wav of embed's signal for the host read_wav makes of the PCM
    # codes pcm, made in pcm itself, so no second full-length array is
    # made: a keyed frame's codes are _pcm's of its row, every other code
    # is the host's, as write_wav writes it back
    _frames(pcm, rows.shape[1])[key.frame_indices] = _pcm(rows.ravel()).reshape(rows.shape)
    _write_pcm(path, key.sample_rate, pcm)


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

    Every value is a Python int or float (EmbeddingKey's checks see to
    it), written with repr: a float as the shortest decimal read back exactly.
    """
    lines = [f"{name} {get(key)!r}" for name, _, get in _KEY_HEADER]
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
