import math
import sys
from pathlib import Path

import numpy as np
import pytest

import gbtmark.attacks
import gbtmark.benchmark

from gbtmark import (
    AttackSpec,
    AudioSignal,
    CodecCommand,
    CodecError,
    ValidationError,
    WatermarkImage,
    embed,
    read_wav,
    report_to_csv,
    write_pbm,
    write_wav,
)
from gbtmark.cli import main
from gbtmark.synth import speech_like

from conftest import random_watermark
from oracles import ar_noise, tone


def rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


# ---------------------------------------------------------------- awgn

def test_awgn_hits_target_snr():
    signal = speech_like(10.0, 8000, seed=4)  # 80000 samples
    for target in (20.0, 10.0):
        noisy = AttackSpec("awgn", target, seed=9).apply(signal)
        noise = noisy.samples - signal.samples
        realized = 10 * np.log10(np.mean(signal.samples ** 2) / np.mean(noise ** 2))
        assert realized == pytest.approx(target, abs=0.5)


def test_awgn_deterministic_per_seed():
    signal = ar_noise(5000, seed=1, rms=0.1)
    assert np.array_equal(AttackSpec("awgn", 20, seed=7).apply(signal).samples,
                          AttackSpec("awgn", 20, seed=7).apply(signal).samples)
    assert not np.array_equal(AttackSpec("awgn", 20, seed=7).apply(signal).samples,
                              AttackSpec("awgn", 20, seed=8).apply(signal).samples)


def test_awgn_high_snr_nearly_identity():
    signal = ar_noise(20000, seed=2, rms=0.3)
    noisy = AttackSpec("awgn", 100.0, seed=3).apply(signal)
    assert rms(noisy.samples - signal.samples) <= 1e-4


def test_awgn_rejects_silence_and_bad_snr():
    with pytest.raises(ValidationError):
        AttackSpec("awgn", 20).apply(AudioSignal(np.zeros(100), 8000))
    with pytest.raises(ValidationError):
        AttackSpec("awgn", float("inf"))
    # 10 ** (snr / 10) would overflow or reach zero
    for snr in (4000.0, -4000.0):
        with pytest.raises(ValidationError, match="SNR"):
            AttackSpec("awgn", snr)


# ------------------------------------------------------------- filters

def test_lowpass_passband_preserved():
    probe = tone(100.0, 1.0, 8000)
    out = AttackSpec("lowpass", 4000.0).apply(probe)
    interior = slice(200, -200)  # skip edge transients
    ratio = rms(out.samples[interior]) / rms(probe.samples[interior])
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_lowpass_at_nyquist_is_identity_filter():
    # the filter is a unit impulse: every sample comes back bit for bit,
    # exact zeros included, and only the last min(63, n) samples are
    # lost to the delay compensation
    for rate in (8000, 16000):
        hosts = [speech_like(1.0, rate, seed=5).samples]
        for n in (1, 62, 63, 64, 200):
            x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
            x[::3] = 0.0
            hosts.append(x)
        for x in hosts:
            out = AttackSpec("lowpass", rate / 2).apply(AudioSignal(x, rate))
            tail = min(63, x.size)
            assert np.array_equal(out.samples[:x.size - tail], x[:x.size - tail])
            assert np.all(out.samples[x.size - tail:] == 0.0)


def test_lowpass_attenuates_stopband():
    probe = tone(3500.0, 1.0, 8000)
    out = AttackSpec("lowpass", 1000.0).apply(probe)
    assert rms(out.samples) < 0.01 * rms(probe.samples)


def test_highpass_passband_preserved():
    probe = tone(3900.0, 1.0, 8000)
    out = AttackSpec("highpass", 50.0).apply(probe)
    interior = slice(200, -200)
    ratio = rms(out.samples[interior]) / rms(probe.samples[interior])
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_highpass_removes_dc():
    signal = AudioSignal(np.full(8000, 0.25), 8000)
    out = AttackSpec("highpass", 50.0).apply(signal)
    assert abs(np.mean(out.samples)) <= 1e-3


@pytest.mark.parametrize("n", [1, 62, 63, 64, 200])
@pytest.mark.parametrize("kind", ["lowpass", "highpass"])
def test_filter_output_is_the_advanced_convolution_then_zeros(kind, n):
    # the full convolution advanced by the 63-sample group delay; the
    # last min(63, n) samples would need input past the end and are 0
    x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    taps = gbtmark.attacks._lowpass_taps(1000.0, 8000)
    if kind == "highpass":
        taps = -taps
        taps[63] += 1.0
    out = AttackSpec(kind, 1000.0).apply(AudioSignal(x, 8000))
    tail = min(63, n)
    assert np.all(out.samples[n - tail:] == 0.0)
    want = np.clip(np.convolve(x, taps)[63:n], -1.0, 1.0)
    assert np.array_equal(out.samples[:n - tail], want)


def test_filter_cutoff_validation():
    # > 0 when the spec is made; up to Nyquist when it meets a signal; both
    # messages state the whole rule
    probe = tone(100.0, 0.2, 8000)
    with pytest.raises(ValidationError, match="must be finite, > 0 and at most Nyquist"):
        AttackSpec("lowpass", 0.0)
    with pytest.raises(ValidationError, match=r"at most Nyquist .*: in \(0, 4000\] Hz "
                                              r"for this 8000 Hz signal, got 4001\.0"):
        AttackSpec("lowpass", 4001.0).apply(probe)
    # highpass needs its cutoff strictly below Nyquist
    with pytest.raises(ValidationError, match=r"below Nyquist .*: in \(0, 4000\) Hz "
                                              r"for this 8000 Hz signal, got 4000\.0"):
        AttackSpec("highpass", 4000.0).apply(probe)
    with pytest.raises(ValidationError, match="must be finite, > 0 and below Nyquist"):
        AttackSpec("highpass", -5.0)


def test_filters_take_a_subnormal_cutoff():
    # cutoff / rate underflows to 0 or to a subnormal; the filters still
    # apply the near-DC taps of a tiny normal cutoff, with no NaN
    probe = speech_like(0.2, 8000, seed=5)
    for kind in ("lowpass", "highpass"):
        near_dc = AttackSpec(kind, 1e-290).apply(probe).samples
        for cutoff in (5e-324, 1e-320, 1e-310):
            assert np.allclose(AttackSpec(kind, cutoff).apply(probe).samples, near_dc,
                               rtol=0, atol=1e-12)


# ------------------------------------------------------------ resample

def test_resample_identity_rate():
    signal = speech_like(1.0, 8000, seed=6)
    out = AttackSpec("resample", 8000).apply(signal)
    assert np.array_equal(out.samples, signal.samples)


def test_resample_6000_preserves_low_tone():
    probe = tone(1000.0, 1.0, 8000)
    out = AttackSpec("resample", 6000).apply(probe)
    interior = slice(400, -400)
    ratio = rms(out.samples[interior]) / rms(probe.samples[interior])
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_resample_4000_kills_high_tone():
    probe = tone(3000.0, 1.0, 8000)  # above the 2 kHz intermediate Nyquist
    out = AttackSpec("resample", 4000).apply(probe)
    assert rms(out.samples) < 0.05 * rms(probe.samples)


def test_resample_length_preserved_odd_sizes():
    signal = AudioSignal(ar_noise(10007, seed=3).samples, 8000)
    for rate in (6000, 4000, 11025, 16000):
        out = AttackSpec("resample", rate).apply(signal)
        assert len(out) == len(signal)
        assert out.sample_rate == 8000


def test_resample_rejects_nonpositive_rate():
    with pytest.raises(ValidationError):
        AttackSpec("resample", 0)
    # an integer parameter is checked, not truncated or overflowed
    for rate in (6000.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            AttackSpec("resample", rate)


def test_resample_bounds_the_ratio_before_allocating(monkeypatch):
    # resample_poly would hold rate / 8000 times the input and a filter
    # of about 20 * max(up, down) taps: 10**9 Hz on a 1 s clip is 7.5 GiB
    signal = ar_noise(8000, seed=0)
    real_resample_poly = gbtmark.attacks.sps.resample_poly
    calls = []

    def counting_resample_poly(*args):
        calls.append(args[1:])
        return real_resample_poly(*args)

    monkeypatch.setattr(gbtmark.attacks.sps, "resample_poly", counting_resample_poly)
    for rate in (32001, 10**9, 2**70):
        with pytest.raises(ValidationError, match="at most 32000 Hz"):
            AttackSpec("resample", rate).apply(signal)
    # 65537 Hz against 65536 Hz is within 4x, but its ratio does not reduce
    with pytest.raises(ValidationError, match="ratio 65537/65536 has a term over 65536"):
        AttackSpec("resample", 65537).apply(AudioSignal(signal.samples[:100], 65536))
    assert calls == []
    # every rate the tests, the grid and the README use still runs
    for rate in (4000, 6000, 8000, 11025, 16000, 32000):
        assert len(AttackSpec("resample", rate).apply(signal)) == 8000


# ---------------------------------------------------------- requantize

def test_requantize_24_bits_refines_pcm16():
    # snap to the 16-bit read grid first
    signal = ar_noise(5000, seed=4, rms=0.3)
    pcm = AudioSignal(np.round(signal.samples * 32768.0) / 32768.0, 8000)
    out = AttackSpec("requantize", 24).apply(pcm)
    # half a 24-bit step; the grids are not nested exactly
    assert np.max(np.abs(out.samples - pcm.samples)) <= 0.5 / (2 ** 23 - 1)


def test_requantize_8_bit_error_bound():
    signal = ar_noise(5000, seed=5, rms=0.3)
    out = AttackSpec("requantize", 8).apply(signal)
    assert np.max(np.abs(out.samples - signal.samples)) <= 1 / 254 + 1e-12


def test_requantize_2_bits_snaps_to_crude_grid():
    signal = AudioSignal(np.array([0.6, -0.6, 0.2, 0.0]), 8000)
    out = AttackSpec("requantize", 2).apply(signal)
    assert np.array_equal(out.samples, [1.0, -1.0, 0.0, 0.0])


def test_requantize_validates_depth():
    for bits in (1, 33, 8.7, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            AttackSpec("requantize", bits)


# ----------------------------------------------------- amplitude scale

def test_amplitude_scale_basic():
    signal = AudioSignal(np.array([0.5, -0.5, 0.8]), 8000)
    def scaled(factor):
        return AttackSpec("amplitude_scale", factor).apply(signal).samples

    assert np.array_equal(scaled(1.0), signal.samples)
    assert scaled(0.7)[0] == pytest.approx(0.35, abs=1e-15)
    assert scaled(2.0)[2] == 1.0  # clamped


def test_amplitude_scale_roundtrip_without_clamp():
    signal = ar_noise(1000, seed=6, rms=0.1)
    halved = AttackSpec("amplitude_scale", 0.5).apply(signal)
    out = AttackSpec("amplitude_scale", 2.0).apply(halved)
    assert np.allclose(out.samples, signal.samples, atol=1e-15)


def test_amplitude_scale_rejects_nonpositive():
    with pytest.raises(ValidationError):
        AttackSpec("amplitude_scale", 0.0)


# ---------------------------------------------------------------- crop

def test_crop_zero_fraction_is_identity():
    signal = ar_noise(1000, seed=7)
    assert np.array_equal(AttackSpec("crop", 0.0).apply(signal).samples, signal.samples)


def test_crop_fraction_02_len_100():
    signal = AudioSignal(np.linspace(-0.9, 0.9, 100), 8000)
    out = AttackSpec("crop", 0.2).apply(signal)
    assert len(out) == 100
    assert np.array_equal(out.samples[:80], signal.samples[20:])
    assert np.all(out.samples[80:] == 0)


def test_crop_validates_fraction():
    for fraction in (-0.1, 1.0):
        with pytest.raises(ValidationError):
            AttackSpec("crop", fraction)


# ----------------------------------------------------------------- mp3

def fake_codec(tmp_path, delay=0, rate=None):
    """Codec stand-in: encode copies the file; decode delays it by delay
    samples (a negative delay trims the start) and may relabel its rate."""
    decoder = tmp_path / "fake_decode.py"
    # the decoder runs in a child interpreter, which finds gbtmark where
    # this process imported it from, whatever its own sys.path holds
    package_root = Path(gbtmark.__file__).resolve().parent.parent
    decoder.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(package_root)!r})\n"
        "import numpy as np\n"
        "from gbtmark import AudioSignal, read_wav, write_wav\n"
        f"delay, rate = {delay}, {rate}\n"
        "x = read_wav(sys.argv[1])\n"
        "out = np.concatenate([np.zeros(max(delay, 0)), x.samples[max(-delay, 0):]])\n"
        "write_wav(sys.argv[2], AudioSignal(out, rate or x.sample_rate))\n"
    )
    # the copier ignores the trailing bitrate argument
    copier = "import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2])"
    return CodecCommand(
        encode_template=f'"{sys.executable}" -c "{copier}" {{input}} {{output}} '
                        f"{{bitrate}}",
        decode_template=f'"{sys.executable}" "{decoder}" {{input}} {{output}}',
    )


def assert_own_frozen_samples(out, signal):
    # a result holds a read-only array of its own, never a view of its input
    assert not out.samples.flags.writeable
    assert not np.shares_memory(out.samples, signal.samples)


def test_mp3_roundtrip_with_copy_codec(tmp_path):
    signal = speech_like(1.0, 8000, seed=8)
    out = AttackSpec("mp3", 64).apply(signal, codec=fake_codec(tmp_path))
    assert len(out) == len(signal)
    assert out.sample_rate == signal.sample_rate
    assert_own_frozen_samples(out, signal)
    # identity codec: only the 16-bit write/read quantization remains
    assert np.max(np.abs(out.samples - signal.samples)) <= 1 / 32767
    corr = np.corrcoef(out.samples, signal.samples)[0, 1]
    assert corr > 0.9


def test_mp3_roundtrip_alignment_cancels_decoder_delay(tmp_path):
    signal = speech_like(1.0, 8000, seed=9)
    out = AttackSpec("mp3", 64).apply(signal, codec=fake_codec(tmp_path, delay=576))
    assert len(out) == len(signal)
    assert np.max(np.abs(out.samples - signal.samples)) <= 1 / 32767


def test_mp3_roundtrip_alignment_restores_a_trimmed_start(tmp_path):
    # a decoder that drops the first samples: the lag is negative, and the
    # output starts with that many zeros, then the input
    signal = speech_like(1.0, 8000, seed=9)
    out = AttackSpec("mp3", 64).apply(signal, codec=fake_codec(tmp_path, delay=-300))
    assert len(out) == len(signal)
    assert not np.any(out.samples[:300])
    assert np.max(np.abs(out.samples[300:] - signal.samples[300:])) <= 1 / 32767


def test_mp3_decoder_rate_must_match(tmp_path):
    codec = fake_codec(tmp_path, rate=16000)
    with pytest.raises(CodecError, match="decoder returned 16000 Hz audio for a 8000 Hz"):
        AttackSpec("mp3", 64).apply(speech_like(0.5, 8000, seed=1), codec=codec)


def test_mp3_missing_codec(tmp_path):
    codec = CodecCommand(
        encode_template="definitely-not-a-real-encoder {input} {output} {bitrate}",
        decode_template="definitely-not-a-real-decoder {input} {output}",
    )
    with pytest.raises(CodecError, match="not found"):
        AttackSpec("mp3", 64).apply(speech_like(0.5, 8000, seed=1), codec=codec)


def test_mp3_failing_codec(tmp_path):
    codec = CodecCommand(
        encode_template=f'"{sys.executable}" -c "import sys; sys.exit(3)" '
                        f"{{input}} {{output}} {{bitrate}}",
        decode_template=f'"{sys.executable}" -c pass {{input}} {{output}}',
    )
    with pytest.raises(CodecError, match="status 3"):
        AttackSpec("mp3", 64).apply(speech_like(0.5, 8000, seed=1), codec=codec)


def test_mp3_validates_bitrate():
    for bitrate in (48, 64.9):
        with pytest.raises(ValidationError):
            AttackSpec("mp3", bitrate)


# templates that split or format badly: an unknown placeholder, an
# unbalanced quote and a stray brace
BAD_ENCODE_TEMPLATES = ("enc {input} {output} {bitrate} {x}",
                        'enc "{input} {output} {bitrate}',
                        "enc {input} {output} {bitrate} }")


def test_codec_template_placeholders_required():
    with pytest.raises(ValidationError):
        CodecCommand(encode_template="lame {input} {output}")  # no {bitrate}
    with pytest.raises(ValidationError):
        CodecCommand(decode_template="lame --decode {input}")
    # refused when the command is made, not when the codec first runs
    for template in BAD_ENCODE_TEMPLATES:
        with pytest.raises(ValidationError, match="encode template cannot be split"):
            CodecCommand(encode_template=template)
    with pytest.raises(ValidationError, match="decode template cannot be split"):
        CodecCommand(decode_template="lame --decode {input} {output} {bitrate}")


# ----------------------------------------------------- generic contract

GRID_SANS_MP3 = [
    AttackSpec("awgn", 20.0, seed=3),
    AttackSpec("awgn", 10.0, seed=3),
    AttackSpec("lowpass", 4000.0),
    AttackSpec("highpass", 50.0),
    AttackSpec("resample", 6000),
    AttackSpec("resample", 4000),
    AttackSpec("requantize", 24),
    AttackSpec("requantize", 8),
    AttackSpec("amplitude_scale", 0.9),
    AttackSpec("amplitude_scale", 0.7),
    AttackSpec("crop", 0.2),
    AttackSpec("crop", 0.3),
    AttackSpec("crop", 0.0),
]


@pytest.mark.parametrize("spec", GRID_SANS_MP3 + [AttackSpec("mp3", 64)],
                         ids=lambda s: f"{s.kind}-{s.parameter:g}")
def test_attack_preserves_length_rate_and_range(spec, tmp_path):
    # apply shapes every kind's result; the short hosts sit below and
    # around the FIR's 63-sample delay
    clip = speech_like(1.5, 8000, seed=10)
    codec = fake_codec(tmp_path) if spec.kind == "mp3" else None
    for size in (len(clip), 1, 50, 64):
        signal = AudioSignal(clip.samples[:size], 8000)
        out = spec.apply(signal, codec=codec)
        assert len(out) == len(signal)
        assert out.sample_rate == signal.sample_rate
        assert np.max(np.abs(out.samples)) <= 1.0
        assert_own_frozen_samples(out, signal)


def test_attack_spec_validation():
    with pytest.raises(ValidationError):
        AttackSpec("echo", 1.0)
    with pytest.raises(ValidationError):
        AttackSpec("mp3", 48)
    with pytest.raises(ValidationError):
        AttackSpec("crop", 1.0)
    with pytest.raises(ValidationError):
        AttackSpec("requantize", 1)
    with pytest.raises(ValidationError):
        AttackSpec("amplitude_scale", 0.0)
    with pytest.raises(ValidationError):
        AttackSpec("awgn", float("nan"))
    # integer kinds reject what int() would truncate or fail on, and no
    # kind takes an infinite parameter
    for kind, value in (("requantize", math.nan), ("mp3", math.nan),
                        ("resample", math.inf), ("resample", -math.inf),
                        ("requantize", 8.7), ("resample", 6000.5), ("mp3", 64.9),
                        ("lowpass", math.inf), ("amplitude_scale", math.inf)):
        with pytest.raises(ValidationError, match="must be"):
            AttackSpec(kind, value)


def test_attack_spec_refuses_non_numbers_and_keeps_the_checked_value():
    # text, bools and what float() refuses fail the row's rule
    for kind, value in (("awgn", "abc"), ("awgn", "10"), ("awgn", None), ("awgn", 1j),
                        ("awgn", True), ("requantize", np.True_), ("crop", b"0.2"),
                        ("resample", 10**400)):
        with pytest.raises(ValidationError, match="must be"):
            AttackSpec(kind, value)
    # a spec holds its parameter as its row's type
    for kind, value, kept in (("requantize", 8.0, 8), ("awgn", np.int64(10), 10.0),
                              ("resample", np.float64(6000), 6000), ("crop", 0.2, 0.2)):
        parameter = AttackSpec(kind, value).parameter
        assert (parameter, type(parameter)) == (kept, type(kept))
    # the grid label reads the same for an int or a float parameter
    for value in (8, 8.0):
        row = gbtmark.benchmark.BenchmarkRow("requantize",
                                             AttackSpec("requantize", value), ())
        assert row.parameter == "8"


def test_attack_spec_seed_follows_the_awgn_rule():
    # refused when the spec is made, for every kind, not when awgn runs
    for seed in (-1, np.int64(-3), 2.5, "1"):
        for kind, value in (("awgn", 20.0), ("crop", 0.2)):
            with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
                AttackSpec(kind, value, seed=seed)
    assert AttackSpec("awgn", 20.0, seed=np.int64(5)).seed == 5
    signal = ar_noise(100, seed=0)
    assert np.array_equal(AttackSpec("awgn", 20, seed=np.int64(5)).apply(signal).samples,
                          AttackSpec("awgn", 20, seed=5).apply(signal).samples)


def test_run_benchmark_checks_seed_before_any_work(tmp_path, monkeypatch):
    write_wav(tmp_path / "clip.wav", speech_like(2.0, 8000, seed=1))
    calls = []
    monkeypatch.setattr(gbtmark.benchmark, "embed",
                        lambda *args: calls.append(args))
    mark = WatermarkImage(2, 2, np.array([0, 1, 1, 0]))
    for seed in (-1, 1.5):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            gbtmark.benchmark.run_benchmark(tmp_path, mark, seed=seed)
    assert calls == []


def test_run_benchmark_reseeds_only_the_kinds_that_read_a_seed(tmp_path, monkeypatch):
    # every spec runs with the run's seed plus the file's position, and
    # apply hands it only to a kind that reads one (awgn); the report keeps
    # the grid's own specs
    for seed in (1, 2):
        write_wav(tmp_path / f"clip{seed}.wav", speech_like(2.0, 8000, seed=seed))
    calls = []
    for kind in ("awgn", "crop"):
        attack = gbtmark.attacks.ATTACKS[kind]

        def spy(signal, parameter, kind=kind, function=attack.function, **extras):
            calls.append((kind, extras))
            return function(signal, parameter, **extras)

        monkeypatch.setitem(gbtmark.attacks.ATTACKS, kind, attack._replace(function=spy))
    grid = (("awgn", AttackSpec("awgn", 20.0)), ("crop", AttackSpec("crop", 0.2)))
    mark = WatermarkImage(2, 2, np.array([0, 1, 1, 0]))
    report = gbtmark.benchmark.run_benchmark(tmp_path, mark, seed=5, grid=grid)
    assert calls == [("awgn", {"seed": 5}), ("crop", {}), ("awgn", {"seed": 6}), ("crop", {})]
    assert all(row.spec is spec for row, (_, spec) in zip(report.rows, grid))


@pytest.mark.parametrize("rate", [8000, 16000])
def test_run_benchmark_psnr_is_embeds_report(rate, tmp_path, capsys):
    # the grid's embedding PSNR is the report embed returns, and so the
    # CSV's psnr_embed is the figure gbtmark embed prints for the clip
    corpus, mark = tmp_path / "corpus", tmp_path / "wm.pbm"
    corpus.mkdir()
    write_wav(corpus / "clip.wav", speech_like(2.0, rate, seed=1))
    watermark = random_watermark()
    write_pbm(mark, watermark)
    report = gbtmark.benchmark.run_benchmark(corpus, watermark)
    host = read_wav(corpus / "clip.wav")
    assert report.psnrs[0] == embed(host, watermark).quality.psnr_db
    rows = [line.split(",") for line in report_to_csv(report).splitlines()]
    psnr_embed = next(row[4] for row in rows if row[:2] == ["clip.wav", "none"])
    outputs = (tmp_path / "m.wav", tmp_path / "m.key")
    assert main(["embed", *map(str, (corpus / "clip.wav", mark, *outputs))]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"psnr: {psnr_embed} dB"


def test_wav_helpers_roundtrip(tmp_path):
    # attacks lean on WAV I/O for the codec hop; sanity-check it here
    signal = speech_like(0.5, 8000, seed=11)
    path = tmp_path / "clip.wav"
    write_wav(path, signal)
    back = read_wav(path)
    assert back.sample_rate == 8000
    assert np.max(np.abs(back.samples - signal.samples)) <= 1 / 32767
