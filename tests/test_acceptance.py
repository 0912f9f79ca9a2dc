"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
``-rA``) and enforces its stated tolerance. The MP3 criterion only runs
when an external codec is actually available; otherwise it is skipped
and the suite still passes.
"""

import csv
import os
import shutil
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gbtmark import (
    AttackSpec,
    CodecCommand,
    EmbedParams,
    GraphConfig,
    ber,
    build_adjacency,
    embed,
    extract,
    make_plan,
    payload,
    psnr,
    read_wav,
    report_to_csv,
    run_benchmark,
    write_wav,
)
from gbtmark.synth import speech_like

from conftest import embed_oracle_gap, random_watermark
from test_attacks import fake_codec
from test_transform import PUBLISHED_8x8


@contextmanager
def criterion(number, label):
    try:
        yield
    except AssertionError:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    print(f"criterion {number:2d} ({label}): PASS")


def attack_bers(embedded_clips, watermark, spec):
    return [ber(watermark, extract(spec.apply(result.signal), result.key))
            for result in embedded_clips]


def test_criterion_01_no_attack_fidelity(tmp_path, watermark):
    with criterion(1, "no-attack BER 0.000, < 5 s per clip"):
        start = time.monotonic()
        host = speech_like(3.0, 8000, seed=2)  # >= 1 s mono 8 kHz
        result = embed(host, watermark, EmbedParams())
        path = tmp_path / "marked.wav"
        write_wav(path, result.signal)
        recovered = extract(read_wav(path), result.key)
        elapsed = time.monotonic() - start
        assert ber(watermark, recovered) == 0.0
        assert elapsed < 5.0


def test_criterion_02_awgn_robustness(embedded_clips, watermark):
    with criterion(2, "AWGN 20 dB mean BER <= 0.01, 10 dB <= 0.05"):
        for snr_db, bound in ((20.0, 0.01), (10.0, 0.05)):
            values = [ber(watermark,
                          extract(AttackSpec("awgn", snr_db, seed=s).apply(result.signal),
                                  result.key))
                      for result in embedded_clips for s in range(5)]
            assert float(np.mean(values)) <= bound, (snr_db, np.mean(values))


def test_criterion_03_requantization(embedded_clips, watermark):
    with criterion(3, "requantize 24-bit BER 0.000, 8-bit <= 0.20"):
        exact = attack_bers(embedded_clips, watermark, AttackSpec("requantize", 24))
        assert exact == [0.0, 0.0, 0.0]
        coarse = attack_bers(embedded_clips, watermark, AttackSpec("requantize", 8))
        assert float(np.mean(coarse)) <= 0.20


def test_criterion_04_filtering(embedded_clips, watermark):
    with criterion(4, "lowpass 4 kHz BER <= 0.02, highpass 50 Hz <= 0.10"):
        low = attack_bers(embedded_clips, watermark, AttackSpec("lowpass", 4000.0))
        assert float(np.mean(low)) <= 0.02, low
        high = attack_bers(embedded_clips, watermark, AttackSpec("highpass", 50.0))
        assert float(np.mean(high)) <= 0.10, high


def test_criterion_05_resampling(embedded_clips, watermark):
    with criterion(5, "resample 6000 BER <= 0.01, 4000 <= 0.05"):
        mid = attack_bers(embedded_clips, watermark, AttackSpec("resample", 6000))
        assert float(np.mean(mid)) <= 0.01, mid
        low = attack_bers(embedded_clips, watermark, AttackSpec("resample", 4000))
        assert float(np.mean(low)) <= 0.05, low


def test_criterion_06_amplitude_scaling_weakness(embedded_clips, watermark):
    with criterion(6, "amplitude scale 0.7 BER >= 0.3 (documented weakness)"):
        values = attack_bers(embedded_clips, watermark, AttackSpec("amplitude_scale", 0.7))
        assert float(np.mean(values)) >= 0.3, values


def test_criterion_07_quality(speech_clips, embedded_clips, watermark):
    with criterion(7, "PSNR >= 35 dB and exact distortion identity"):
        for host, result in zip(speech_clips, embedded_clips):
            report = psnr(host, result.signal)
            assert report.psnr_db >= 35.0, report.psnr_db
            expected_mse = watermark.bits.size * 0.05 ** 2 / len(host)
            assert abs(report.mse - expected_mse) <= 1e-9


def test_criterion_08_payload():
    with criterion(8, "payload 800 bits/s at 8 kHz, 1600 at 16 kHz"):
        assert payload(8000, 10) == 800
        assert payload(16000, 10) == 1600


def test_criterion_09_transform_correctness(default_basis):
    with criterion(9, "transform identities and closed-form SVD oracle"):
        rng = np.random.default_rng(90)
        n = len(default_basis)
        assert np.max(np.abs(default_basis.T @ default_basis
                             - np.eye(n))) <= 1e-10
        frames = rng.uniform(-1.0, 1.0, (1000, n))
        recon = (frames @ default_basis) @ default_basis.T
        assert np.max(np.abs(recon - frames)) <= 1e-9

        assert np.array_equal(build_adjacency(GraphConfig(frame_size=8)),
                              PUBLISHED_8x8)

        # embed's rank-1 update against the closed-form 2x2 SVD, both bits
        kept, gap = embed_oracle_gap(rng.uniform(-0.5, 0.5, (60, n)), EmbedParams())
        assert kept >= 50
        assert gap <= 1e-9


def test_criterion_10_cropping_reported_not_asserted(tmp_path, watermark):
    with criterion(10, "crop: zero fraction exact, monotone, reported in CSV"):
        host = speech_like(3.0, 8000, seed=2)
        result = embed(host, watermark, EmbedParams())
        values = [ber(watermark, extract(AttackSpec("crop", fraction).apply(result.signal),
                                         result.key))
                  for fraction in (0.0, 0.1, 0.2, 0.3)]
        assert values[0] == 0.0
        assert all(a <= b for a, b in zip(values, values[1:])), values

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_wav(corpus / "clip.wav", host)
        report = run_benchmark(corpus, watermark, seed=0)
        crop_rows = [row for row in report.rows if row.attack == "crop"]
        assert len(crop_rows) == 2
        assert all(row.mean_ber is not None for row in crop_rows)


def _configured_codec():
    encode = os.environ.get("GBTMARK_CODEC_ENCODE")
    decode = os.environ.get("GBTMARK_CODEC_DECODE")
    if encode and decode:
        return CodecCommand(encode_template=encode, decode_template=decode)
    default = CodecCommand()
    if shutil.which(default.encode_template.split()[0]):
        return default
    return None


def test_criterion_11_mp3_when_codec_available(embedded_clips, watermark):
    codec = _configured_codec()
    if codec is None:
        print("criterion 11 (mp3 64 kbps BER <= 0.30): SKIP, no codec configured")
        pytest.skip("no external MP3 codec configured")
    with criterion(11, "mp3 64 kbps BER <= 0.30"):
        values = [ber(watermark,
                      extract(AttackSpec("mp3", 64).apply(result.signal, codec=codec),
                              result.key))
                  for result in embedded_clips]
        assert float(np.mean(values)) <= 0.30, values


def test_benchmark_grid_covers_every_documented_attack():
    # the default grid must contain each attack exactly as documented
    from gbtmark.benchmark import DEFAULT_GRID
    labels = [(kind, spec.parameter if spec else None) for kind, spec in DEFAULT_GRID]
    assert labels == [
        ("none", None),
        ("awgn", 20.0), ("awgn", 10.0),
        ("mp3", 64), ("mp3", 32), ("mp3", 16),
        ("resample", 6000), ("resample", 4000),
        ("lowpass", 4000.0), ("highpass", 50.0),
        ("amplitude_scale", 0.9), ("amplitude_scale", 0.7),
        ("requantize", 24), ("requantize", 8),
        ("crop", 0.20), ("crop", 0.30),
    ]
    for kind, spec in DEFAULT_GRID:
        if spec is not None:
            assert isinstance(spec, AttackSpec)


def test_benchmark_labels_tell_close_parameters_apart(tmp_path, watermark):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_wav(corpus / "clip.wav", speech_like(3.0, 8000, seed=2))
    grid = (("awgn", AttackSpec("awgn", 12.3456789)),
            ("awgn", AttackSpec("awgn", 12.3457)),
            ("crop", AttackSpec("crop", 0.2)))
    report = run_benchmark(corpus, watermark, grid=grid)
    assert [row.parameter for row in report.rows] == ["12.3456789", "12.3457", "0.2"]


def test_benchmark_header_says_whether_a_codec_ran(tmp_path, watermark):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_wav(corpus / "clip.wav", speech_like(3.0, 8000, seed=2))
    no_codec = (("none", None), ("crop", AttackSpec("crop", 0.2)))
    with_mp3 = no_codec + (("mp3", AttackSpec("mp3", 64)),)
    absent = CodecCommand("no-such-enc {input} {output} {bitrate}",
                          "no-such-dec {input} {output}")
    for grid, codec, expected in ((no_codec, absent, "unused"),
                                  (with_mp3, absent, "missing"),
                                  (with_mp3, fake_codec(tmp_path), "available")):
        report = run_benchmark(corpus, watermark, codec=codec, grid=grid)
        assert report_to_csv(report).splitlines()[1].endswith(f" codec={expected}")


def test_benchmark_csv_quotes_file_names(tmp_path, watermark):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    names = ["a,b.wav", 'say "hi".wav', "plain.wav"]
    for seed, name in enumerate(names, start=2):
        write_wav(corpus / name, speech_like(3.0, 8000, seed=seed))
    grid = (("none", None), ("crop", AttackSpec("crop", 0.2)))
    text = report_to_csv(run_benchmark(corpus, watermark, grid=grid))
    header, *rows = csv.reader(text.splitlines()[2:])
    assert header == ["file", "attack", "parameter", "ber", "psnr_embed"]
    assert all(len(row) == 5 for row in rows)
    assert [row[0] for row in rows] == [name for name in sorted(names)
                                        for _ in grid] + ["mean"] * len(grid)
    # only the fields that need quoting are quoted
    assert "\nplain.wav,none,," in text
