"""Peak memory of the calls that pass over a whole signal.

``tracemalloc`` sees numpy's array buffers, so each test's limit is what
the call must hold, as a multiple of the signal's float64 bytes, and a
peak above it means a full-length temporary, which these tests catch
before a benchmark run does. ``read_wav``, ``embed`` and ``extract`` may
hold one float64 copy; ``write_wav`` holds only its int16 PCM (0.25) plus
one 65 536-sample block (0.41 of this host), and ``psnr`` only one block.
``gbtmark extract`` reads only the keyed frames of the WAV file, so it
holds a small fraction of the host. ``gbtmark embed`` works on the host's
int16 PCM codes and makes no float64 copy of the host: it holds the codes
(0.25), the frame energies and their partitioned copy (0.1 each) and one
65 536-sample float64 block (0.41 of this host), 0.82 in all, under 1.0.
"""

import dataclasses
import tracemalloc

import pytest

from gbtmark import (AttackSpec, embed, extract, psnr, read_wav, write_key, write_pbm,
                     write_wav)
from gbtmark.cli import build_parser, main
from gbtmark.synth import speech_like

from conftest import random_watermark

PEAK_LIMIT = 1.5  # traced peak over the signal's float64 bytes
WRITE_WAV_PEAK_LIMIT = 0.75  # int16 PCM plus one float64 block
PSNR_PEAK_LIMIT = 0.5  # one float64 block
CLI_EXTRACT_PEAK_LIMIT = 0.1  # the key, the keyed frames and the bits
CLI_EMBED_PEAK_LIMIT = 1.0  # the codes, the energies and one float64 block


@pytest.fixture(scope="module")
def host():
    return speech_like(20.0, 8000, seed=1)  # 160 000 samples, 1.28 MB


def peak_ratio(call, host):
    # the peak counts what the call returns as well as its temporaries
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / host.samples.nbytes
    finally:
        tracemalloc.stop()


def test_read_wav_peak_memory(host, tmp_path):
    path = tmp_path / "host.wav"
    write_wav(path, host)
    assert peak_ratio(lambda: read_wav(path), host) <= PEAK_LIMIT


def test_write_wav_peak_memory(host, tmp_path):
    path = tmp_path / "out.wav"
    assert peak_ratio(lambda: write_wav(path, host), host) <= WRITE_WAV_PEAK_LIMIT


def test_embed_peak_memory(host):
    mark = random_watermark()
    assert peak_ratio(lambda: embed(host, mark), host) <= PEAK_LIMIT


def test_psnr_peak_memory(host):
    marked = embed(host, random_watermark()).signal
    assert peak_ratio(lambda: psnr(host, marked), host) <= PSNR_PEAK_LIMIT


def test_extract_far_key_peak_memory(host):
    # a key pointing far past the signal pads nothing: a frame past the
    # end is one zero row, not padding up to the last keyed frame
    key = embed(host, random_watermark()).key
    far = key.frame_indices.copy()
    far[-1] = 10**6
    far_key = dataclasses.replace(key, frame_indices=far)
    assert peak_ratio(lambda: extract(host, far_key), host) <= PEAK_LIMIT


def test_cli_extract_peak_memory(host, tmp_path):
    # the whole host would be 1.0: extract gathers only the 256 keyed
    # frames (0.02 of this host) from the file. Parsing the key text holds
    # about 290 bytes per bit (0.06 here), which grows with the mark, not
    # the host, so the mark is 16x16: 25x25 would read 0.14 from the key
    result = embed(host, random_watermark(16, 16))
    wav, key = tmp_path / "marked.wav", tmp_path / "marked.key"
    write_wav(wav, result.signal)
    write_key(key, result.key)
    build_parser()  # built once per process, before the traced call
    argv = ["extract", str(wav), str(key), str(tmp_path / "out.pbm")]
    assert peak_ratio(lambda: main(argv), host) <= CLI_EXTRACT_PEAK_LIMIT


def test_cli_embed_peak_memory(host, tmp_path):
    # a float64 copy of the host would take the peak past 1.0; the marked
    # frames of a 25x25 mark are 0.04 of this host
    wav, mark = tmp_path / "host.wav", tmp_path / "wm.pbm"
    write_wav(wav, host)
    write_pbm(mark, random_watermark(25, 25))
    build_parser()  # built once per process, before the traced call
    argv = ["embed", str(wav), str(mark), str(tmp_path / "m.wav"), str(tmp_path / "m.key")]
    assert peak_ratio(lambda: main(argv), host) <= CLI_EMBED_PEAK_LIMIT


# an attack's result plus the full-length temporaries it is made from;
# awgn adds its noise in place and the filters zero their tail in place,
# so they hold one temporary fewer
ATTACK_PEAK_LIMIT = 3.25
ATTACK_PEAK_LIMITS = {"awgn": 2.25, "lowpass": 2.25, "highpass": 2.25}


@pytest.mark.parametrize("spec", [
    AttackSpec("awgn", 10.0), AttackSpec("lowpass", 3000.0),
    AttackSpec("highpass", 50.0), AttackSpec("resample", 6000),
    AttackSpec("resample", 4000), AttackSpec("requantize", 8),
    AttackSpec("amplitude_scale", 0.7), AttackSpec("crop", 0.2),
], ids=lambda s: f"{s.kind}-{s.parameter:g}")
def test_attack_peak_memory(host, spec):
    limit = ATTACK_PEAK_LIMITS.get(spec.kind, ATTACK_PEAK_LIMIT)
    assert peak_ratio(lambda: spec.apply(host), host) <= limit
