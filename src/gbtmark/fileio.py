"""File formats: PCM16 mono WAV audio, plain PBM watermark images, and
line-oriented embedding key files.

Readers reject anything outside the supported formats instead of
coercing (no down-mixing, no resampling); writers produce files the
readers round-trip exactly, and a WAV read and written back keeps its
exact PCM codes.
"""

import contextlib
import errno
import os
import warnings
import wave
from pathlib import Path

import numpy as np

from .audio import AudioSignal, _adopt, _pcm, _values
from .errors import (AudioFormatError, ConfigError, KeyFormatError, ValidationError,
                     _integer)
from .transform import GraphConfig
from .watermark import EmbeddingKey, EmbedParams, WatermarkImage

MAX_PBM_DIMENSION = 4096
# the header holds the byte rate, twice the sample rate, in 32 bits
MAX_WAV_RATE = 2**31 - 1
# the ASCII characters str.split() splits at
_SPACE = bytes(code for code in range(128) if chr(code).isspace())


def _wav_data(path, file):
    # The header step of _read_pcm: every format check, then the sample
    # rate, the data's byte offset and the bytes of it that wave would
    # read. wave leaves the file just past the data chunk's header, and
    # reads at most as far as the RIFF chunk's size and the file reach.
    try:
        with wave.open(file, "rb") as handle:
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


def _read_pcm(path, mode="r"):
    # The one PCM reader: the sample rate and a map of a WAV file's int16
    # codes, after _wav_data's checks, read-only or with mode "r+" writable
    # in place. Only the pages read or written are loaded.
    with open(path, "rb" if mode == "r" else "r+b") as file:
        rate, offset, size = _wav_data(path, file)
        return rate, np.memmap(file, "<i2", mode, offset=offset, shape=(size // 2,))


def read_wav(path) -> AudioSignal:
    """Read a mono 16-bit PCM WAV file; integer sample i maps to i/32768."""
    rate, pcm = _read_pcm(path)
    # scaled straight from the map, with no int16 copy; a code over 32768 is
    # finite and in [-1, 32767/32768], so the value scan is skipped
    return _adopt(_values(pcm), rate, in_range=True)


def _write_pcm(path, rate, pcm):
    _integer(f"{path}: a WAV file's sample rate", rate, f"at most {MAX_WAV_RATE}",
             lambda hz: hz <= MAX_WAV_RATE, AudioFormatError)
    # opened here: a failed open inside wave.open leaves a writer whose __del__ raises
    with open(path, "wb") as file, wave.open(file, "wb") as handle:
        handle.setparams((1, 2, rate, 0, "NONE", "not compressed"))  # mono PCM16
        handle.writeframes(pcm)


def _same_file(path, other) -> bool:
    # existing files by device and inode, which hard links share; two files
    # not made yet by their resolved paths; an existing and a missing never
    try:
        return os.path.samefile(path, other)
    except OSError:
        return not (os.path.exists(path) or os.path.exists(other)) and (
            os.path.realpath(path) == os.path.realpath(other))


@contextlib.contextmanager
def _staged(*outputs):
    # All-or-nothing outputs, each given as (path, *inputs it may not
    # replace), None for an input not given. An output that is the same file
    # as an earlier output or as one of its inputs is refused first. Then a
    # new temporary file beside each path's target (a symlink's target, not
    # the link), made with plain open's permissions before the block runs, so
    # a missing folder or a folder in the way fails before any write. They
    # replace the targets in the order given once the block completes; on
    # any failure none of them is left.
    for at, (path, *inputs) in enumerate(outputs):
        for other in [earlier for earlier, *_ in outputs[:at]] + inputs:
            if other is not None and _same_file(path, other):
                raise ValidationError(f"{path} is the same file as {other}")
    staged = []
    try:
        for path, *_ in outputs:
            target = os.path.realpath(path)
            # a short name, so that a target's name of any length can be staged
            temp = os.path.join(os.path.dirname(target), f".gbtmark-{os.urandom(4).hex()}")
            try:
                if os.path.isdir(target):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                open(temp, "xb").close()
            except OSError as exc:
                exc.filename = str(path)
                raise
            staged.append((temp, target))
        yield [temp for temp, _ in staged]
        for temp, target in staged:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temp)
        raise


def write_wav(path, signal: AudioSignal) -> None:
    """Write mono 16-bit PCM; samples scale by 32768 and round half to
    even, and only 1.0's code 32768 is clipped, to 32767. So the signal
    read_wav makes of a WAV file is written back as the same codes."""
    _write_pcm(path, signal.sample_rate, _pcm(signal.samples))


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


# One number grammar for the whole key: Python's int and float without the
# "_" digit groups (1_0) that numpy's C text reader refuses
def _number(kind, text):
    if "_" in text:
        raise ValueError(f"could not convert string {text!r} to {kind.__name__}")
    return kind(text)


_RECORD = np.dtype([("index", np.int64), ("s_max", np.float64)])


def _records(lines, dtype=_RECORD):
    # the record lines as int64 "index" and float64 "s_max" (or dtype's
    # columns), in one pass of numpy's C text reader. It skips blank lines,
    # so fewer rows than lines is a refusal, and so is any warning (numpy < 2
    # reads "5.0" as an int with a DeprecationWarning); no lines, no records
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = (np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
                 if lines else np.empty(0, dtype))
    if len(table) != len(lines):
        raise ValueError("expected two fields")
    return table


def _bad_line(path, lines):
    # the error naming the first line, and value, that does not parse;
    # read_key takes this pass per line only once it has failed
    for n, line in enumerate(lines or [""], 1):
        fields = line.split()
        try:
            if len(fields) != 2:
                raise ValueError("expected two fields")
            if n <= len(_KEY_HEADER):
                _number(_KEY_HEADER[n - 1][1], fields[1])
            else:
                for name, text in zip(_RECORD.names, fields):
                    try:
                        _records([text], _RECORD[[name]])
                    except (ValueError, Warning):
                        raise ValueError(f"could not convert string {text!r} "
                                         f"to {_RECORD[name]}") from None
                _records([line])  # and the two together, as read_key reads them
        except (ValueError, Warning) as exc:
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
    head = [line.split() for line in lines[:len(_KEY_HEADER)] or [""]]
    if any(len(fields) != 2 for fields in head):
        raise _bad_line(path, lines)
    names = [name for name, _ in head]
    expected = [name for name, _, _ in _KEY_HEADER]
    if names != expected:
        raise KeyFormatError(f"{path}: key header must name {', '.join(expected)} "
                             f"in order, got {', '.join(names)}")
    try:
        header = {name: _number(kind, value)
                  for (name, kind, _), (_, value) in zip(_KEY_HEADER, head)}
        records = _records(lines[len(_KEY_HEADER):])
    except (ValueError, Warning) as exc:
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
            frame_indices=records["index"], s_max=records["s_max"],
        )
    except (ConfigError, KeyFormatError) as exc:
        raise KeyFormatError(f"{path}: {exc}") from exc
