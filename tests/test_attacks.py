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
    amplitude_scale,
    awgn,
    crop_leading,
    highpass,
    lowpass,
    mp3_roundtrip,
    read_wav,
    requantize,
    resample_roundtrip,
    write_wav,
)
from gbtmark.synth import speech_like

from oracles import ar_noise, tone


def rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


# ---------------------------------------------------------------- awgn

def test_awgn_hits_target_snr():
    signal = speech_like(10.0, 8000, seed=4)  # 80000 samples
    for target in (20.0, 10.0):
        noisy = awgn(signal, target, seed=9)
        noise = noisy.samples - signal.samples
        realized = 10 * np.log10(np.mean(signal.samples ** 2) / np.mean(noise ** 2))
        assert realized == pytest.approx(target, abs=0.5)


def test_awgn_deterministic_per_seed():
    signal = ar_noise(5000, seed=1, rms=0.1)
    assert np.array_equal(awgn(signal, 20, seed=7).samples,
                          awgn(signal, 20, seed=7).samples)
    assert not np.array_equal(awgn(signal, 20, seed=7).samples,
                              awgn(signal, 20, seed=8).samples)


def test_awgn_high_snr_nearly_identity():
    signal = ar_noise(20000, seed=2, rms=0.3)
    noisy = awgn(signal, 100.0, seed=3)
    assert rms(noisy.samples - signal.samples) <= 1e-4


def test_awgn_rejects_silence_and_bad_snr():
    with pytest.raises(ValidationError):
        awgn(AudioSignal(np.zeros(100), 8000), 20)
    with pytest.raises(ValidationError):
        awgn(ar_noise(100, seed=0), float("inf"))
    # 10 ** (snr / 10) would overflow or reach zero
    for snr in (4000.0, -4000.0):
        with pytest.raises(ValidationError, match="SNR"):
            awgn(ar_noise(100, seed=0), snr)
        with pytest.raises(ValidationError, match="SNR"):
            AttackSpec("awgn", snr)


def test_awgn_seed_is_a_non_negative_integer():
    signal = ar_noise(100, seed=0)
    for seed in (-1, np.int64(-3), 2.5, "1"):
        with pytest.raises(ValidationError, match="seed"):
            awgn(signal, 20, seed=seed)
    assert np.array_equal(awgn(signal, 20, seed=np.int64(5)).samples,
                          awgn(signal, 20, seed=5).samples)


# ------------------------------------------------------------- filters

def test_lowpass_passband_preserved():
    probe = tone(100.0, 1.0, 8000)
    out = lowpass(probe, 4000.0)
    interior = slice(200, -200)  # skip edge transients
    ratio = rms(out.samples[interior]) / rms(probe.samples[interior])
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_lowpass_at_nyquist_is_identity_filter():
    probe = speech_like(1.0, 8000, seed=5)
    out = lowpass(probe, 4000.0)
    # taps collapse to a unit impulse; only the final 63 samples are
    # lost to the delay compensation
    assert np.allclose(out.samples[:-63], probe.samples[:-63], atol=1e-12)
    assert np.all(out.samples[-63:] == 0)


def test_lowpass_attenuates_stopband():
    probe = tone(3500.0, 1.0, 8000)
    out = lowpass(probe, 1000.0)
    assert rms(out.samples) < 0.01 * rms(probe.samples)


def test_highpass_passband_preserved():
    probe = tone(3900.0, 1.0, 8000)
    out = highpass(probe, 50.0)
    interior = slice(200, -200)
    ratio = rms(out.samples[interior]) / rms(probe.samples[interior])
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_highpass_removes_dc():
    signal = AudioSignal(np.full(8000, 0.25), 8000)
    out = highpass(signal, 50.0)
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
    out = (lowpass if kind == "lowpass" else highpass)(AudioSignal(x, 8000), 1000.0)
    tail = min(63, n)
    assert np.all(out.samples[n - tail:] == 0.0)
    want = np.clip(np.convolve(x, taps)[63:n], -1.0, 1.0)
    assert np.array_equal(out.samples[:n - tail], want)


def test_filter_cutoff_validation():
    probe = tone(100.0, 0.2, 8000)
    with pytest.raises(ValidationError):
        lowpass(probe, 0.0)
    with pytest.raises(ValidationError):
        lowpass(probe, 4001.0)
    with pytest.raises(ValidationError):
        highpass(probe, 4000.0)  # highpass needs cutoff strictly below Nyquist
    with pytest.raises(ValidationError):
        highpass(probe, -5.0)


def test_filters_take_a_subnormal_cutoff():
    # cutoff / rate underflows to 0 or to a subnormal; the filters still
    # apply the near-DC taps of a tiny normal cutoff, with no NaN
    probe = speech_like(0.2, 8000, seed=5)
    for filt in (lowpass, highpass):
        near_dc = filt(probe, 1e-290).samples
        for cutoff in (5e-324, 1e-320, 1e-310):
            assert np.allclose(filt(probe, cutoff).samples, near_dc, rtol=0, atol=1e-12)


# ------------------------------------------------------------ resample

def test_resample_identity_rate():
    signal = speech_like(1.0, 8000, seed=6)
    out = resample_roundtrip(signal, 8000)
    assert np.array_equal(out.samples, signal.samples)


def test_resample_6000_preserves_low_tone():
    probe = tone(1000.0, 1.0, 8000)
    out = resample_roundtrip(probe, 6000)
    interior = slice(400, -400)
    ratio = rms(out.samples[interior]) / rms(probe.samples[interior])
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_resample_4000_kills_high_tone():
    probe = tone(3000.0, 1.0, 8000)  # above the 2 kHz intermediate Nyquist
    out = resample_roundtrip(probe, 4000)
    assert rms(out.samples) < 0.05 * rms(probe.samples)


def test_resample_length_preserved_odd_sizes():
    signal = AudioSignal(ar_noise(10007, seed=3).samples, 8000)
    for rate in (6000, 4000, 11025, 16000):
        out = resample_roundtrip(signal, rate)
        assert len(out) == len(signal)
        assert out.sample_rate == 8000


def test_resample_rejects_nonpositive_rate():
    with pytest.raises(ValidationError):
        resample_roundtrip(ar_noise(100, seed=0), 0)
    # an integer parameter is checked, not truncated or overflowed
    for rate in (6000.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            resample_roundtrip(ar_noise(100, seed=0), rate)


# ---------------------------------------------------------- requantize

def test_requantize_24_bits_refines_pcm16():
    # snap to the 16-bit read grid first
    signal = ar_noise(5000, seed=4, rms=0.3)
    pcm = AudioSignal(np.round(signal.samples * 32768.0) / 32768.0, 8000)
    out = requantize(pcm, 24)
    # half a 24-bit step; the grids are not nested exactly
    assert np.max(np.abs(out.samples - pcm.samples)) <= 0.5 / (2 ** 23 - 1)


def test_requantize_8_bit_error_bound():
    signal = ar_noise(5000, seed=5, rms=0.3)
    out = requantize(signal, 8)
    assert np.max(np.abs(out.samples - signal.samples)) <= 1 / 254 + 1e-12


def test_requantize_2_bits_snaps_to_crude_grid():
    signal = AudioSignal(np.array([0.6, -0.6, 0.2, 0.0]), 8000)
    out = requantize(signal, 2)
    assert np.array_equal(out.samples, [1.0, -1.0, 0.0, 0.0])


def test_requantize_validates_depth():
    signal = ar_noise(100, seed=0)
    for bits in (1, 33, 8.7, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            requantize(signal, bits)


# ----------------------------------------------------- amplitude scale

def test_amplitude_scale_basic():
    signal = AudioSignal(np.array([0.5, -0.5, 0.8]), 8000)
    assert np.array_equal(amplitude_scale(signal, 1.0).samples, signal.samples)
    assert amplitude_scale(signal, 0.7).samples[0] == pytest.approx(0.35, abs=1e-15)
    assert amplitude_scale(signal, 2.0).samples[2] == 1.0  # clamped


def test_amplitude_scale_roundtrip_without_clamp():
    signal = ar_noise(1000, seed=6, rms=0.1)
    out = amplitude_scale(amplitude_scale(signal, 0.5), 2.0)
    assert np.allclose(out.samples, signal.samples, atol=1e-15)


def test_amplitude_scale_rejects_nonpositive():
    with pytest.raises(ValidationError):
        amplitude_scale(ar_noise(100, seed=0), 0.0)


# ---------------------------------------------------------------- crop

def test_crop_zero_fraction_is_identity():
    signal = ar_noise(1000, seed=7)
    assert np.array_equal(crop_leading(signal, 0.0).samples, signal.samples)


def test_crop_fraction_02_len_100():
    signal = AudioSignal(np.linspace(-0.9, 0.9, 100), 8000)
    out = crop_leading(signal, 0.2)
    assert len(out) == 100
    assert np.array_equal(out.samples[:80], signal.samples[20:])
    assert np.all(out.samples[80:] == 0)


def test_crop_validates_fraction():
    signal = ar_noise(100, seed=0)
    for fraction in (-0.1, 1.0):
        with pytest.raises(ValidationError):
            crop_leading(signal, fraction)


# ----------------------------------------------------------------- mp3

def fake_codec(tmp_path, delay=0):
    """Codec stand-in: encode copies the file, decode optionally delays it."""
    decoder = tmp_path / "fake_decode.py"
    # the decoder runs in a child interpreter, which finds gbtmark where
    # this process imported it from, whatever its own sys.path holds
    package_root = Path(gbtmark.__file__).resolve().parent.parent
    decoder.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(package_root)!r})\n"
        "import numpy as np\n"
        "from gbtmark import AudioSignal, read_wav, write_wav\n"
        f"delay = {delay}\n"
        "x = read_wav(sys.argv[1])\n"
        "out = np.concatenate([np.zeros(delay), x.samples])\n"
        "write_wav(sys.argv[2], AudioSignal(out, x.sample_rate))\n"
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
    out = mp3_roundtrip(signal, 64, codec=fake_codec(tmp_path))
    assert len(out) == len(signal)
    assert out.sample_rate == signal.sample_rate
    assert_own_frozen_samples(out, signal)
    # identity codec: only the 16-bit write/read quantization remains
    assert np.max(np.abs(out.samples - signal.samples)) <= 1 / 32767
    corr = np.corrcoef(out.samples, signal.samples)[0, 1]
    assert corr > 0.9


def test_mp3_roundtrip_alignment_cancels_decoder_delay(tmp_path):
    signal = speech_like(1.0, 8000, seed=9)
    out = mp3_roundtrip(signal, 64, codec=fake_codec(tmp_path, delay=576))
    assert len(out) == len(signal)
    assert np.max(np.abs(out.samples - signal.samples)) <= 1 / 32767


def test_mp3_missing_codec(tmp_path):
    codec = CodecCommand(
        encode_template="definitely-not-a-real-encoder {input} {output} {bitrate}",
        decode_template="definitely-not-a-real-decoder {input} {output}",
    )
    with pytest.raises(CodecError, match="not found"):
        mp3_roundtrip(speech_like(0.5, 8000, seed=1), 64, codec=codec)


def test_mp3_failing_codec(tmp_path):
    codec = CodecCommand(
        encode_template=f'"{sys.executable}" -c "import sys; sys.exit(3)" '
                        f"{{input}} {{output}} {{bitrate}}",
        decode_template=f'"{sys.executable}" -c pass {{input}} {{output}}',
    )
    with pytest.raises(CodecError, match="status 3"):
        mp3_roundtrip(speech_like(0.5, 8000, seed=1), 64, codec=codec)


def test_mp3_validates_bitrate(tmp_path):
    for bitrate in (48, 64.9):
        with pytest.raises(ValidationError):
            mp3_roundtrip(speech_like(0.5, 8000, seed=1), bitrate,
                          codec=fake_codec(tmp_path))


def test_codec_template_placeholders_required():
    with pytest.raises(ValidationError):
        CodecCommand(encode_template="lame {input} {output}")  # no {bitrate}
    with pytest.raises(ValidationError):
        CodecCommand(decode_template="lame --decode {input}")


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


@pytest.mark.parametrize("spec", GRID_SANS_MP3,
                         ids=lambda s: f"{s.kind}-{s.parameter:g}")
def test_attack_preserves_length_rate_and_range(spec):
    signal = speech_like(1.5, 8000, seed=10)
    out = spec.apply(signal)
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


def test_wav_helpers_roundtrip(tmp_path):
    # attacks lean on WAV I/O for the codec hop; sanity-check it here
    signal = speech_like(0.5, 8000, seed=11)
    path = tmp_path / "clip.wav"
    write_wav(path, signal)
    back = read_wav(path)
    assert back.sample_rate == 8000
    assert np.max(np.abs(back.samples - signal.samples)) <= 1 / 32767
