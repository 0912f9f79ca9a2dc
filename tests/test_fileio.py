import dataclasses
import struct
import wave

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbtmark import (
    AudioFormatError,
    AudioSignal,
    EmbeddingKey,
    EmbedParams,
    GraphConfig,
    KeyFormatError,
    WatermarkImage,
    embed,
    read_key,
    read_pbm,
    read_wav,
    write_key,
    write_pbm,
    write_wav,
)
from gbtmark.audio import _BLOCK
from gbtmark.fileio import _read_keyed_frames, _wav_data
from gbtmark.synth import speech_like
from gbtmark.watermark import _gather

from conftest import EDITS, mutate, random_watermark, with_wav_edit_examples


def write_raw_wav(path, pcm_values, channels=1, sampwidth=2, rate=8000):
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(channels)
        handle.setsampwidth(sampwidth)
        handle.setframerate(rate)
        fmt = {1: "b", 2: "h", 4: "i"}[sampwidth]
        handle.writeframes(struct.pack(f"<{len(pcm_values)}{fmt}", *pcm_values))


def with_chunk_past_the_end(wav):
    """WAV bytes with a LIST chunk, before the data, whose size points past the end."""
    at = wav.index(b"data")
    return wav[:at] + b"LIST" + struct.pack("<I", 10**6) + wav[at:]


def with_rate(wav, rate):
    """WAV bytes with the fmt chunk's sample rate replaced."""
    return wav[:24] + struct.pack("<I", rate) + wav[28:]


# ----------------------------------------------------------------- wav

def test_read_wav_sample_mapping(tmp_path):
    path = tmp_path / "extremes.wav"
    write_raw_wav(path, [32767, -32768, 0, 16384])
    signal = read_wav(path)
    assert signal.sample_rate == 8000
    assert signal.samples[0] == 0.999969482421875  # 32767/32768
    assert signal.samples[1] == -1.0
    assert signal.samples[2] == 0.0
    assert signal.samples[3] == 0.5


def test_read_wav_maps_any_pcm_exactly_into_the_unit_range(tmp_path):
    # read_wav skips the signal's value scan: every int16 code over
    # 32768 is exact and lies in [-1, 1)
    path = tmp_path / "pcm.wav"

    @example(pcm=[-32768, 32767, 0, -1, 1])
    @given(pcm=st.lists(st.integers(-32768, 32767), min_size=1, max_size=300))
    def check(pcm):
        codes = np.array(pcm, dtype="<i2")
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(2)
            handle.setframerate(8000)
            handle.writeframes(codes.tobytes())
        samples = read_wav(path).samples
        assert np.array_equal(samples, codes / 32768)
        assert samples.dtype == np.float64
        assert np.all((-1.0 <= samples) & (samples < 1.0))

    check()


def test_write_wav_of_read_wav_keeps_every_pcm_code(tmp_path):
    # read_wav maps code p to p/32768 and write_wav scales by 32768, so a
    # read and a write give back the data bytes, full scale included
    path, out = tmp_path / "pcm.wav", tmp_path / "out.wav"

    @example(pcm=[-32768, 32767, 16384, 16385, -16384, -16385, 0])
    @given(pcm=st.lists(st.integers(-32768, 32767), min_size=1, max_size=300))
    def check(pcm):
        write_raw_wav(path, pcm)
        write_wav(out, read_wav(path))
        with wave.open(str(out), "rb") as handle:
            assert handle.readframes(handle.getnframes()) == np.array(pcm, "<i2").tobytes()

    check()


def test_write_wav_zero_stored_as_zero(tmp_path):
    path = tmp_path / "zero.wav"
    write_wav(path, AudioSignal(np.zeros(4), 8000))
    with wave.open(str(path), "rb") as handle:
        raw = handle.readframes(4)
    assert struct.unpack("<4h", raw) == (0, 0, 0, 0)


def test_read_wav_signal_is_read_only(tmp_path):
    path = tmp_path / "clip.wav"
    write_raw_wav(path, [1, -2, 3])
    signal = read_wav(path)
    assert not signal.samples.flags.writeable
    with pytest.raises(ValueError):
        signal.samples[0] = 0.0


def test_write_wav_pcm_matches_round_clip_formula(tmp_path):
    # full scale and the steps just inside it, negative zero, subnormals,
    # every exact half step between two PCM codes (rounded half to even)
    # and random samples; only the top code, 1.0's 32768, is clipped
    k = np.arange(-32768, 32767)
    rng = np.random.default_rng(12)
    tiny = [5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308]
    inside = [np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)]
    samples = np.concatenate([[1.0, -1.0, -0.0, 0.0], tiny, inside, (k + 0.5) / 32768,
                              rng.uniform(-1.0, 1.0, 10_000)])
    path = tmp_path / "pcm.wav"
    write_wav(path, AudioSignal(samples, 8000))
    with wave.open(str(path), "rb") as handle:
        pcm = np.frombuffer(handle.readframes(handle.getnframes()), dtype="<i2")
    expected = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    assert np.array_equal(pcm, expected)
    assert list(pcm[:10]) == [32767, -32768, 0, 0, 0, 0, 0, 0, 32767, -32768]
    scaled = samples * 32768.0
    ties = scaled - np.floor(scaled) == 0.5
    assert ties.sum() > 30_000 and not (pcm[ties] % 2).any()


@pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_write_wav_bytes_match_one_pass_across_block_edges(tmp_path, size):
    # write_wav works block by block; its PCM must be the one-pass
    # formula's, with half steps and +-1 on both sides of each edge
    rng = np.random.default_rng(size)
    samples = rng.uniform(-1.0, 1.0, size)
    halves = (rng.integers(-32768, 32767, size) + 0.5) / 32768
    samples[::3] = halves[::3]
    for edge in range(_BLOCK, size, _BLOCK):
        samples[edge - 1], samples[edge] = 1.0, -1.0
        samples[edge - 2:edge + 2:3] = halves[edge - 2:edge + 2:3]
    samples[0], samples[-1] = -1.0, 1.0
    path = tmp_path / "blocks.wav"
    write_wav(path, AudioSignal(samples, 8000))
    with wave.open(str(path), "rb") as handle:
        raw = handle.readframes(handle.getnframes())
    expected = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2")
    assert raw == expected.tobytes()


def test_wav_roundtrip_quantization_bound(tmp_path):
    signal = speech_like(1.0, 8000, seed=1)
    path = tmp_path / "clip.wav"
    write_wav(path, signal)
    back = read_wav(path)
    assert back.sample_rate == signal.sample_rate
    assert len(back) == len(signal)
    assert np.max(np.abs(back.samples - signal.samples)) <= 1 / 32767


def test_wav_roundtrip_full_scale(tmp_path):
    # the writer scales by 32768, so -1.0 stores as -32768 and 1.0 as the
    # top code, 32767
    path = tmp_path / "fs.wav"
    write_wav(path, AudioSignal(np.array([1.0, -1.0]), 8000))
    back = read_wav(path)
    assert list(back.samples) == [32767 / 32768, -1.0]


def test_read_wav_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    write_raw_wav(path, [0, 0, 0, 0], channels=2)
    with pytest.raises(AudioFormatError, match="channels"):
        read_wav(path)


def test_read_wav_rejects_8bit(tmp_path):
    path = tmp_path / "8bit.wav"
    write_raw_wav(path, [0, 1, 2], sampwidth=1)
    with pytest.raises(AudioFormatError, match="16-bit"):
        read_wav(path)


def test_read_wav_rejects_zero_rate(tmp_path):
    path = tmp_path / "rate0.wav"
    write_raw_wav(path, [0, 1, 2])
    header = bytearray(path.read_bytes())
    header[24:28] = bytes(4)  # the fmt chunk's sample rate
    path.write_bytes(bytes(header))
    with pytest.raises(AudioFormatError, match="sample rate"):
        read_wav(path)


def test_read_wav_rejects_a_chunk_past_the_end(tmp_path):
    path = tmp_path / "list.wav"
    write_raw_wav(path, [1, -2, 3])
    path.write_bytes(with_chunk_past_the_end(path.read_bytes()))
    with pytest.raises(AudioFormatError, match="truncated"):
        read_wav(path)


def test_wav_sample_rate_fits_the_header(tmp_path):
    # the header holds the byte rate, twice the sample rate, in 32 bits
    path = tmp_path / "rate.wav"
    write_wav(path, AudioSignal(np.zeros(3), 2**31 - 1))
    assert read_wav(path).sample_rate == 2**31 - 1
    wav = path.read_bytes()
    for rate in (2**31, 2**32 - 1):
        path.write_bytes(with_rate(wav, rate))
        with pytest.raises(AudioFormatError, match="sample rate"):
            read_wav(path)
    out = tmp_path / "out.wav"
    with pytest.raises(AudioFormatError, match="sample rate"):
        write_wav(out, AudioSignal(np.zeros(3), 2**31))
    assert not out.exists()


def test_read_wav_rejects_empty_or_mid_sample_data(tmp_path):
    empty = tmp_path / "empty.wav"
    write_raw_wav(empty, [])
    with pytest.raises(AudioFormatError, match="no samples"):
        read_wav(empty)
    cut = tmp_path / "cut.wav"
    write_raw_wav(cut, [1, -2, 3])
    cut.write_bytes(cut.read_bytes()[:-1])
    with pytest.raises(AudioFormatError, match="mid-sample"):
        read_wav(cut)


def test_read_wav_accepts_a_short_data_chunk(tmp_path):
    # streaming writers may leave a data size larger than the data
    path = tmp_path / "short.wav"
    write_raw_wav(path, [1, -2, 3])
    path.write_bytes(path.read_bytes()[:-2])
    assert list(read_wav(path).samples * 32768) == [1, -2]


def test_read_wav_rejects_garbage(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"RIFFnonsense not a wave file at all")
    with pytest.raises(AudioFormatError):
        read_wav(path)


def test_read_wav_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_wav(tmp_path / "absent.wav")


# ------------------------------------------------------ keyed frames

# an 8 kHz key at the default settings, for keyed() to give frame indices
BASE_KEY = EmbeddingKey(8000, EmbedParams(), 1, 1, [0], [0.0])


def keyed(key, indices):
    """The key with the given frame indices in place of its own."""
    return dataclasses.replace(key, watermark_width=len(indices), watermark_height=1,
                               frame_indices=np.array(indices, dtype=np.int64),
                               s_max=np.zeros(len(indices)))


def frame_readings(path, key):
    """The key's frames of a WAV file as the keyed-frame reader gives them
    and as read_wav then the in-memory gather give them: each a (rate,
    frames) pair, or AudioFormatError."""
    def in_memory():
        signal = read_wav(path)
        return signal.sample_rate, _gather(signal.samples, key.params.graph.frame_size,
                                           key.frame_indices)

    readings = []
    for read in (lambda: _read_keyed_frames(path, key), in_memory):
        try:
            readings.append(read())
        except AudioFormatError:
            readings.append(AudioFormatError)
    return readings


def assert_same_frames(path, key):
    """Both readings agree, bit for bit where both accept; returns one."""
    frames, whole = frame_readings(path, key)
    if whole is AudioFormatError:
        assert frames is AudioFormatError
        return whole
    assert frames is not AudioFormatError
    assert frames[0] == whole[0]
    assert frames[1].dtype == whole[1].dtype == np.float64
    assert frames[1].tobytes() == whole[1].tobytes()
    return whole


def expected_frames(pcm, size, indices):
    """The frames from their definition: zero-padded past the samples."""
    padded = np.zeros(size * (max(indices) + 1))
    padded[:len(pcm)] = np.array(pcm) / 32768
    return np.array([padded[size * i:size * (i + 1)] for i in indices])


def with_list_chunk(wav, body):
    """WAV bytes with a LIST chunk before the data (padded to an even
    length) and the RIFF size grown to match."""
    chunk = b"LIST" + struct.pack("<I", len(body)) + body + bytes(len(body) % 2)
    wav = wav[:36] + chunk + wav[36:]
    return wav[:4] + struct.pack("<I", len(wav) - 8) + wav[8:]


@pytest.fixture(scope="module")
def small_marked(tmp_path_factory):
    """A folder holding a 0.5 s marked WAV, with its key and a key of the
    frames at the end: 400 full frames, so 399 is the last and 400 the
    first past the end (or a partial frame, after an edit that adds
    samples)."""
    folder = tmp_path_factory.mktemp("keyed")
    result = embed(speech_like(0.5, 8000, seed=2), random_watermark(4, 4))
    write_wav(folder / "marked.wav", result.signal)
    ends = keyed(result.key, [0, 398, 399, 400, 401, 10**6, 2**63 - 1])
    return folder, (result.key, ends)


@settings(max_examples=150)
@with_wav_edit_examples()
@given(edit=EDITS)
def test_keyed_frame_reader_matches_read_wav_on_every_edit(small_marked, edit):
    # the edits of the CLI mutation property: the same verdict and, where
    # both accept, the same frames; read_wav reads what wave itself reads
    folder, keys = small_marked
    path = folder / "mutated.wav"
    path.write_bytes(mutate((folder / "marked.wav").read_bytes(), edit))
    for key in keys:
        whole = assert_same_frames(path, key)
    if whole is not AudioFormatError:
        with wave.open(str(path)) as handle:
            pcm = np.frombuffer(handle.readframes(handle.getnframes()), "<i2")
        assert np.array_equal(read_wav(path).samples * 32768, pcm)


def test_keyed_frames_after_a_list_chunk(tmp_path):
    # the data starts past the LIST chunk, and past its pad byte when its
    # size is odd: 44 + 8 + 4 and 44 + 8 + 5 + 1
    path = tmp_path / "list.wav"
    pcm = list(range(-20, 25))  # 4 full frames, then a partial one of 5
    write_raw_wav(path, pcm)
    plain = path.read_bytes()
    key = keyed(BASE_KEY, [0, 3, 4, 5, 2**63 - 1])
    for body, offset in ((b"", 44), (b"abcd", 56), (b"abcde", 58)):
        path.write_bytes(with_list_chunk(plain, body) if body else plain)
        with open(path, "rb") as file:
            assert _wav_data(path, file) == (8000, offset, 2 * len(pcm))
        rate, frames = assert_same_frames(path, key)
        assert rate == 8000
        assert np.array_equal(frames, expected_frames(pcm, 10, [0, 3, 4, 5, 6]))


def test_keyed_frames_of_a_short_or_cut_data_chunk(tmp_path):
    # a data chunk shorter than its header says is read as it stands, so
    # its last frame is partial; one that ends mid-sample is refused
    path = tmp_path / "short.wav"
    pcm = list(range(1, 31))  # 3 full frames
    write_raw_wav(path, pcm)
    wav = path.read_bytes()
    key = keyed(BASE_KEY, [1, 2, 3])
    path.write_bytes(wav[:-12])
    _, frames = assert_same_frames(path, key)
    assert np.array_equal(frames, expected_frames(pcm[:-6], 10, [1, 2, 3]))
    path.write_bytes(wav[:-13])
    assert assert_same_frames(path, key) is AudioFormatError


def test_keyed_frames_stop_at_the_riff_size(tmp_path):
    # wave reads no further than the RIFF chunk's size, though the file
    # and the data chunk's size say there is more
    path = tmp_path / "riff.wav"
    pcm = list(range(1, 31))
    write_raw_wav(path, pcm)
    wav = path.read_bytes()
    path.write_bytes(wav[:4] + struct.pack("<I", len(wav) - 8 - 14) + wav[8:])
    _, frames = assert_same_frames(path, keyed(BASE_KEY, [0, 1, 2]))
    assert np.array_equal(frames, expected_frames(pcm[:23], 10, [0, 1, 2]))


# ----------------------------------------------------------------- pbm

def test_read_pbm_spec_example(tmp_path):
    path = tmp_path / "tiny.pbm"
    path.write_text("P1\n2 2\n1 0\n0 1\n")
    image = read_pbm(path)
    assert (image.width, image.height) == (2, 2)
    assert np.array_equal(image.bits, [1, 0, 0, 1])


def test_read_pbm_with_comments_and_packed_digits(tmp_path):
    path = tmp_path / "packed.pbm"
    for content in ("P1\n# a comment\n3 2 # trailing comment\n101\n010\n",
                    "P1#glued to the magic\n3 2\n101\n010\n",
                    "P1\n3 2\n10# inside the raster\n1\n010\n",
                    # whitespace to str.split(), like space and newline
                    "P1\n3 2\n1\x1c0\x1f1\x1d0\x1e10\n"):
        path.write_text(content)
        image = read_pbm(path)
        assert (image.width, image.height) == (3, 2)
        assert np.array_equal(image.bits, [1, 0, 1, 0, 1, 0])


def test_pbm_roundtrip_exact(tmp_path):
    image = random_watermark(seed=2)
    path = tmp_path / "wm.pbm"
    write_pbm(path, image)
    back = read_pbm(path)
    assert (back.width, back.height) == (image.width, image.height)
    assert np.array_equal(back.bits, image.bits)


def test_pbm_all_black(tmp_path):
    path = tmp_path / "black.pbm"
    write_pbm(path, WatermarkImage(25, 25, np.ones(625)))
    image = read_pbm(path)
    assert int(image.bits.sum()) == 625


def test_write_pbm_exact_bytes(tmp_path):
    # width, then height; one row per line, digits separated by spaces
    path = tmp_path / "wide.pbm"
    write_pbm(path, WatermarkImage(3, 2, [1, 0, 1, 0, 0, 1]))
    assert path.read_bytes() == b"P1\n3 2\n1 0 1\n0 0 1\n"
    write_pbm(path, WatermarkImage(1, 3, [0, 1, 1]))
    assert path.read_bytes() == b"P1\n1 3\n0\n1\n1\n"


@pytest.mark.parametrize("content", [
    "P4\n2 2\n1 0 0 1\n",          # wrong magic
    "P1\n2\n1 0 0 1\n",            # missing height
    "P1\n2 2\n1 0 0\n",            # too few bits
    "P1\n2 2\n1 0 0 1 1\n",        # too many bits
    "P1\n2 2\n1 0 0 2\n",          # non-binary digit
    "P1\n5000 5000\n",             # dimensions too large
    "P1\nx y\n1 0 0 1\n",          # unparseable dimensions
    "P1\n2 2\n1 0 0 /\n",          # "/" sits just below "0"
])
def test_read_pbm_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.pbm"
    path.write_text(content)
    with pytest.raises(AudioFormatError):
        read_pbm(path)


# ----------------------------------------------------------------- key

def sample_key():
    params = EmbedParams(ws=0.05, coeff_fraction=0.4,
                         graph=GraphConfig(10, 1.0, 0.3))
    # awkward floats on purpose: exact round-trip must survive them
    s_max = (0.1 + 0.2, 7.062499999999999e-05, 0.4517292817991246, 1.0 / 3.0)
    return EmbeddingKey(8000, params, 2, 2, (3, 17, 40, 41), s_max)


def assert_same_arrays(back, key):
    # frame indices equal, s_max bit for bit (tobytes tells -0.0 from 0.0)
    assert back.frame_indices.tolist() == key.frame_indices.tolist()
    assert back.s_max.tobytes() == key.s_max.tobytes()


def test_key_roundtrip_bit_exact(tmp_path):
    key = sample_key()
    path = tmp_path / "k.key"
    write_key(path, key)
    assert path.read_text().splitlines()[0] == "version 1"
    back = read_key(path)
    assert back.sample_rate == key.sample_rate
    assert back.params == key.params
    assert back.watermark_width == key.watermark_width
    assert back.watermark_height == key.watermark_height
    assert_same_arrays(back, key)  # exact float equality


def test_key_roundtrip_625_records(tmp_path):
    rng = np.random.default_rng(3)
    indices = np.sort(rng.choice(5000, 625, replace=False))
    key = EmbeddingKey(8000, EmbedParams(), 25, 25, indices, rng.uniform(0.05, 3.0, 625))
    path = tmp_path / "k625.key"
    write_key(path, key)
    assert_same_arrays(read_key(path), key)


def assert_same_key(back, key):
    # every field and key entry, bit for bit (float.hex tells -0.0 from 0.0)
    def bits(k):
        graph = k.params.graph
        return ([int(k.sample_rate), int(graph.frame_size), int(k.watermark_width),
                 int(k.watermark_height)]
                + [float(v).hex() for v in (k.params.ws, k.params.coeff_fraction,
                                            graph.w1, graph.w2)]
                + [(i, s.hex()) for i, s in zip(k.frame_indices.tolist(),
                                                 k.s_max.tolist())])
    assert bits(back) == bits(key)


def test_key_roundtrip_numpy_scalars(tmp_path):
    # keys built from numpy values write plain numbers read_key accepts
    params = EmbedParams(ws=np.float64(0.05), coeff_fraction=np.float64(0.4),
                         graph=GraphConfig(np.int64(10), np.float64(1.0),
                                           np.float32(0.3)))
    key = EmbeddingKey(np.int64(8000), params, np.int64(2), np.int64(1),
                       [np.int64(3), np.int32(17)], [np.float64(0.5), np.float32(0.1)])
    path = tmp_path / "np.key"
    write_key(path, key)
    assert "np." not in path.read_text()
    assert_same_key(read_key(path), key)
    # an int field takes no fraction, rather than lose it
    with pytest.raises(KeyFormatError, match="integers"):
        dataclasses.replace(key, sample_rate=8000.5)


def test_key_writes_any_integer_width_as_plain_decimals(tmp_path):
    path = tmp_path / "width.key"
    for dtype in (np.int32, np.uint64):
        indices = np.array([3, 17, 40, 2**31 - 1], dtype=dtype)
        write_key(path, dataclasses.replace(sample_key(), frame_indices=indices))
        lines = path.read_text().splitlines()[9:]
        assert [line.split()[0] for line in lines] == ["3", "17", "40", "2147483647"]
        assert read_key(path).frame_indices.tolist() == indices.tolist()


def test_key_indices_are_int64_so_every_accepted_key_round_trips(tmp_path):
    path = tmp_path / "wide.key"
    top = np.array([5, 2**63 - 1], dtype=np.uint64)
    key = dataclasses.replace(sample_key(), watermark_height=1, frame_indices=top,
                              s_max=[0.1, 0.2])
    assert key.frame_indices.dtype == np.int64
    write_key(path, key)
    assert_same_key(read_key(path), key)
    # 2**63 would be written as text that read_key cannot parse back
    with pytest.raises(KeyFormatError, match="64-bit"):
        dataclasses.replace(key, frame_indices=np.array([5, 2**63], dtype=np.uint64))
    # and such text, written by hand, is refused on reading
    path.write_text(path.read_text().replace(str(2**63 - 1), str(2**63)))
    with pytest.raises(KeyFormatError, match="bad key record"):
        read_key(path)
    # the error names the line and the token that does not fit
    with pytest.raises(KeyFormatError, match=f"bad key record '{2**63} 0.2' on line 11,"):
        read_key(path)


def maybe_numpy(strategy, numpy_type):
    return st.one_of(strategy, strategy.map(numpy_type))


FINITE_POSITIVE = st.floats(0.0, 1.7976931348623157e308, exclude_min=True)


@st.composite
def keys(draw):
    frame_size = draw(maybe_numpy(st.integers(3, 64), np.int64))
    graph = GraphConfig(frame_size,
                        draw(maybe_numpy(FINITE_POSITIVE, np.float64)),
                        draw(maybe_numpy(st.floats(0.0, 1e308), np.float64)))
    # at least 1/frame_size keeps one coefficient
    params = EmbedParams(ws=draw(maybe_numpy(FINITE_POSITIVE, np.float64)),
                         coeff_fraction=draw(st.floats(1.0 / frame_size, 1.0)),
                         graph=graph)
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    count = width * height
    # a list mixing Python and numpy scalars, or an array of any integer width
    index_type = draw(st.sampled_from([None, np.int32, np.int64, np.uint64]))
    top = 2**31 - 1 if index_type is np.int32 else 2**40
    indices = sorted(draw(st.lists(st.integers(0, top), min_size=count,
                                   max_size=count, unique=True)))
    s_max = st.one_of(st.sampled_from([0.0, 5e-324, 1.7e308]),
                      st.floats(0.0, 1.7976931348623157e308))
    if index_type is None:
        indices = [draw(maybe_numpy(st.just(i), np.int64)) for i in indices]
    else:
        indices = np.array(indices, dtype=index_type)
    values = [draw(maybe_numpy(s_max, np.float64)) for _ in range(count)]
    rate = draw(maybe_numpy(st.integers(1, 384000), np.int64))
    return EmbeddingKey(rate, params, width, height, indices, values)


def test_key_roundtrip_property(tmp_path):
    path = tmp_path / "prop.key"

    @given(key=keys())
    def check(key):
        write_key(path, key)
        assert_same_key(read_key(path), key)

    check()


def test_key_truncated_file(tmp_path):
    path = tmp_path / "trunc.key"
    write_key(path, sample_key())
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:6]) + "\n")
    with pytest.raises(KeyFormatError):
        read_key(path)


def test_key_missing_record(tmp_path):
    path = tmp_path / "short.key"
    write_key(path, sample_key())
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(KeyFormatError):
        read_key(path)


def test_key_version_mismatch(tmp_path):
    path = tmp_path / "vers.key"
    write_key(path, sample_key())
    text = path.read_text().replace("version 1", "version 9", 1)
    path.write_text(text)
    with pytest.raises(KeyFormatError, match="version"):
        read_key(path)


def test_key_non_monotone_indices(tmp_path):
    path = tmp_path / "mono.key"
    write_key(path, sample_key())
    lines = path.read_text().splitlines()
    lines[9], lines[10] = lines[10], lines[9]  # swap first two records
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(KeyFormatError, match="increasing"):
        read_key(path)


def test_key_bad_record_field_count(tmp_path):
    path = tmp_path / "fields.key"
    write_key(path, sample_key())
    path.write_text(path.read_text() + "99 0.5 extra\n")
    with pytest.raises(KeyFormatError):
        read_key(path)


@pytest.mark.parametrize("records", [
    "3 0.1\n17 0.2 40\n0.3\n41 0.4\n",   # the right token count, split wrongly
    "3 0.1\n17 |\n| 0.3\n41 0.4\n",      # tokens that look like line separators
    "3 0.1\n\n17 0.2 40 0.3\n41 0.4\n",  # a blank line
    "3 0.1\n17 0.2\n40 0.3\n41 0.4 0.5\n",  # a third field on the last line
])
def test_key_records_split_across_lines(tmp_path, records):
    path = tmp_path / "split.key"
    write_key(path, sample_key())
    header = path.read_text().splitlines()[:9]
    path.write_text("\n".join(header) + "\n" + records)
    with pytest.raises(KeyFormatError, match="bad key record"):
        read_key(path)


def test_key_records_take_any_whitespace(tmp_path):
    path = tmp_path / "spaced.key"
    write_key(path, sample_key())
    # header lines and records alike
    lines = ["\t" + line.replace(" ", "   ") + " "
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    assert_same_key(read_key(path), sample_key())


@pytest.mark.parametrize("text, number", [
    ("", 1),                      # an empty file
    ("\n \n\t\n", 1),             # blank lines only
    ("version 1\nsample_rate\n", 2),
    ("version 1 sample_rate 8000\n", 1),
    (None, 11),                   # a record's index moved to the line before
])
def test_key_names_the_first_line_without_two_fields(tmp_path, text, number):
    path = tmp_path / "lines.key"
    write_key(path, sample_key())
    if text is None:
        lines = path.read_text().splitlines()
        index, value = lines[11].split()
        lines[10:12] = [f"{lines[10]} {index}", value]  # the token count holds
        text = "\n".join(lines) + "\n"
    path.write_text(text)
    with pytest.raises(KeyFormatError, match=f"bad key record .* on line {number},"):
        read_key(path)


def test_key_header_only_file(tmp_path):
    path = tmp_path / "header.key"
    write_key(path, sample_key())
    path.write_text("\n".join(path.read_text().splitlines()[:9]) + "\n")
    with pytest.raises(KeyFormatError, match="s_max values"):
        read_key(path)


@pytest.mark.parametrize("edit", ["swap", "drop", "rename"])
def test_key_header_names_come_in_order(tmp_path, edit):
    path = tmp_path / "names.key"
    write_key(path, sample_key())
    lines = path.read_text().splitlines()
    if edit == "swap":
        lines[3], lines[4] = lines[4], lines[3]  # ws and coeff_fraction
    elif edit == "drop":
        del lines[6]  # w2
    else:
        lines[1] = lines[1].replace("sample_rate", "rate")
    path.write_text("\n".join(lines) + "\n")
    order = ("version, sample_rate, frame_size, ws, coeff_fraction, w1, w2, "
             "wm_width, wm_height")
    with pytest.raises(KeyFormatError, match=f"must name {order} in order"):
        read_key(path)


# characters that make numbers, separators and line breaks, plus two letters
EDIT_TEXT = st.text(alphabet="0123456789.-+_eE|nai \t\n\r\x0b\x1f", max_size=4)


def test_key_edits_give_a_key_or_a_key_format_error(tmp_path):
    path = tmp_path / "edited.key"
    write_key(path, sample_key())
    valid = path.read_text()

    @settings(max_examples=400)
    @given(edits=st.lists(st.tuples(st.integers(0, len(valid)), st.integers(0, 3),
                                    EDIT_TEXT), min_size=1, max_size=4))
    def check(edits):
        text = valid
        for at, removed, inserted in edits:
            text = text[:at] + inserted + text[at + removed:]
        path.write_text(text)
        try:
            assert isinstance(read_key(path), EmbeddingKey)
        except KeyFormatError:
            pass

    check()


def test_key_unparseable_float(tmp_path):
    path = tmp_path / "float.key"
    write_key(path, sample_key())
    text = path.read_text().replace("0.30000000000000004", "zero.three")
    path.write_text(text)
    with pytest.raises(KeyFormatError):
        read_key(path)


def test_key_non_ascii(tmp_path):
    path = tmp_path / "utf8.key"
    write_key(path, sample_key())
    path.write_bytes(path.read_bytes().replace(b"0.3", "0.3µ".encode(), 1))
    with pytest.raises(KeyFormatError, match="plain-text"):
        read_key(path)
