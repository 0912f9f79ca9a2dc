"""Signal-level attacks used to stress watermark extraction.

Every attack preserves the signal's length and sample rate and keeps
samples in [-1, 1]: each returns through ``_attacked``, the one place
that fits, clamps and adopts a result. All attacks are deterministic
functions of their parameters; the noise attack additionally takes a
seed.
"""

import math
import shlex
import shutil
import subprocess
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import signal as sps

from .audio import AudioSignal, _adopt, _fit_length
from .errors import CodecError, ValidationError
from .fileio import read_wav, write_wav

FIR_TAP_COUNT = 127  # type I linear phase, group delay 63 samples
MP3_ALIGN_MAX_LAG = 2048
MP3_BITRATES = (16, 32, 64)


def _attacked(signal, out):
    # every attack's result: out trimmed or zero-padded to the input's
    # length, clamped to [-1, 1] and adopted at the input's rate; np.clip
    # returns a fresh array, so nothing else holds what is adopted
    return _adopt(np.clip(_fit_length(out, len(signal)), -1.0, 1.0),
                  signal.sample_rate)


def awgn(signal: AudioSignal, snr_db: float, seed: int = 0) -> AudioSignal:
    """Add white Gaussian noise at the given signal-to-noise ratio in dB."""
    snr_db = _checked("awgn", snr_db)
    _check_seed(seed)
    x = signal.samples
    power = float(np.mean(x * x))
    if power == 0.0:
        raise ValidationError("SNR is undefined for a silent signal")
    sigma = math.sqrt(power / 10.0 ** (snr_db / 10.0))
    noise = np.random.default_rng(seed).normal(0.0, sigma, x.size)
    noise += x
    return _attacked(signal, noise)


def _lowpass_taps(cutoff_hz, sample_rate):
    mid = (FIR_TAP_COUNT - 1) // 2
    m = np.arange(FIR_TAP_COUNT) - mid
    fc = cutoff_hz / sample_rate  # cycles per sample
    taps = 2.0 * fc * np.sinc(2.0 * fc * m) * np.hamming(FIR_TAP_COUNT)
    return taps / taps.sum()  # exact unit gain at DC


def _apply_fir(x, taps):
    # causal filter, advanced by the group delay so the output stays
    # aligned with the input; the last delay samples read as zeros
    delay = (FIR_TAP_COUNT - 1) // 2
    out = np.convolve(x, taps)[delay:delay + x.size]
    out[max(x.size - delay, 0):] = 0.0
    return out


def lowpass(signal: AudioSignal, cutoff_hz: float) -> AudioSignal:
    """Windowed-sinc FIR lowpass, compensated to zero phase.

    A cutoff at the Nyquist frequency is allowed and degenerates to an
    identity filter.
    """
    cutoff_hz = _checked("lowpass", cutoff_hz)
    nyquist = signal.sample_rate / 2.0
    if not cutoff_hz <= nyquist:
        raise ValidationError(
            f"lowpass cutoff must be in (0, {nyquist:g}] Hz, got {cutoff_hz!r}")
    taps = _lowpass_taps(cutoff_hz, signal.sample_rate)
    return _attacked(signal, _apply_fir(signal.samples, taps))


def highpass(signal: AudioSignal, cutoff_hz: float) -> AudioSignal:
    """Spectral-inversion complement of the lowpass filter (zero gain at DC)."""
    cutoff_hz = _checked("highpass", cutoff_hz)
    nyquist = signal.sample_rate / 2.0
    if not cutoff_hz < nyquist:
        raise ValidationError(
            f"highpass cutoff must be in (0, {nyquist:g}) Hz, got {cutoff_hz!r}")
    taps = -_lowpass_taps(cutoff_hz, signal.sample_rate)
    taps[(FIR_TAP_COUNT - 1) // 2] += 1.0
    return _attacked(signal, _apply_fir(signal.samples, taps))


def resample_roundtrip(signal: AudioSignal, intermediate_rate_hz: int) -> AudioSignal:
    """Polyphase-resample down to an intermediate rate and back up."""
    rate = _checked("resample", intermediate_rate_hz)
    ratio = Fraction(rate, signal.sample_rate)
    up, down = ratio.numerator, ratio.denominator
    mid = sps.resample_poly(signal.samples, up, down)
    return _attacked(signal, sps.resample_poly(mid, down, up))


def requantize(signal: AudioSignal, bits: int) -> AudioSignal:
    """Mid-rise requantization onto a grid of 2**bits - 1 levels."""
    bits = _checked("requantize", bits)
    scale = float(2 ** (bits - 1) - 1)
    return _attacked(signal, np.round(signal.samples * scale) / scale)


def amplitude_scale(signal: AudioSignal, factor: float) -> AudioSignal:
    """Multiply every sample by a positive factor, clamping to [-1, 1]."""
    factor = _checked("amplitude_scale", factor)
    return _attacked(signal, signal.samples * factor)


def crop_leading(signal: AudioSignal, fraction: float) -> AudioSignal:
    """Remove the leading fraction of samples and zero-pad the end."""
    fraction = _checked("crop", fraction)
    cut = int(fraction * len(signal))
    return _attacked(signal, signal.samples[cut:])


@dataclass(frozen=True)
class CodecCommand:
    """Shell command templates for an external MP3 encoder/decoder pair.

    The encode template receives {input} (WAV path), {output} (MP3 path)
    and {bitrate} (kbit/s); the decode template receives {input} (MP3
    path) and {output} (WAV path). The decoder must produce mono 16-bit
    PCM at the input rate. Defaults target the ``lame`` command-line
    tool.
    """

    encode_template: str = "lame --quiet -b {bitrate} {input} {output}"
    decode_template: str = "lame --quiet --decode {input} {output}"

    def __post_init__(self):
        for label, template, needed in (
                ("encode", self.encode_template, ("{input}", "{output}", "{bitrate}")),
                ("decode", self.decode_template, ("{input}", "{output}"))):
            missing = [p for p in needed if p not in template]
            if missing:
                raise ValidationError(
                    f"{label} template is missing placeholders {missing}: "
                    f"{template!r}")


def _run_codec(step, template, mapping):
    # the template is split first, then each token formatted, so paths
    # containing spaces stay single arguments
    argv = [token.format(**mapping) for token in shlex.split(template)]
    if shutil.which(argv[0]) is None:
        raise CodecError(f"{step} command not found: {argv[0]!r}; "
                         f"install it or configure another codec")
    result = subprocess.run(argv, capture_output=True, text=True)
    if result.returncode != 0:
        detail = (result.stderr or result.stdout).strip().splitlines()
        tail = detail[-1] if detail else "no diagnostic output"
        raise CodecError(
            f"{step} command exited with status {result.returncode}: {tail}")


def _align_to(reference, decoded):
    # codecs delay their output; find the lag of best correlation and
    # undo it before comparing frame by frame
    corr = sps.correlate(decoded, reference, mode="full", method="fft")
    lags = sps.correlation_lags(decoded.size, reference.size, mode="full")
    window = np.abs(lags) <= MP3_ALIGN_MAX_LAG
    lag = int(lags[window][np.argmax(corr[window])])
    if lag >= 0:
        return decoded[lag:]
    return np.concatenate([np.zeros(-lag), decoded])


def mp3_roundtrip(signal: AudioSignal, bitrate_kbps: int,
                  codec: CodecCommand | None = None) -> AudioSignal:
    """Compress to MP3 and decode back using external commands.

    The decoded audio is re-aligned to the input by cross-correlation
    over lags up to +-2048 samples, then trimmed or zero-padded to the
    original length.
    """
    bitrate = _checked("mp3", bitrate_kbps)
    codec = codec if codec is not None else CodecCommand()
    with tempfile.TemporaryDirectory() as tmp:
        wav_in = str(Path(tmp) / "roundtrip_in.wav")
        mp3_path = str(Path(tmp) / "roundtrip.mp3")
        wav_out = str(Path(tmp) / "roundtrip_out.wav")
        write_wav(wav_in, signal)
        _run_codec("encode", codec.encode_template,
                   {"input": wav_in, "output": mp3_path, "bitrate": bitrate})
        _run_codec("decode", codec.decode_template,
                   {"input": mp3_path, "output": wav_out})
        decoded = read_wav(wav_out)
    if decoded.sample_rate != signal.sample_rate:
        raise CodecError(
            f"decoder returned {decoded.sample_rate} Hz audio for a "
            f"{signal.sample_rate} Hz input; fix the codec templates")
    return _attacked(signal, _align_to(signal.samples, decoded.samples))


class Attack(NamedTuple):
    """One attack: its function and the one parameter it takes."""

    function: Callable   # (signal, parameter, **extras) -> AudioSignal
    flag: str            # CLI option carrying the parameter, without "--"
    type: type           # int parameters must be integral
    meaning: str         # what the parameter is, with its unit
    rule: str            # the signal-independent range rule, as text
    allows: Callable     # the same rule as a test on a finite value
    extras: tuple = ()   # AttackSpec.apply arguments the function also takes


# Every attack, keyed by kind. AttackSpec, the attack functions and the
# CLI all read this table. Rate-relative rules (filter cutoffs below
# Nyquist) are checked by the functions when they run.
ATTACKS = {
    # the bound keeps 10 ** (snr / 10) a finite, non-zero float
    "awgn": Attack(awgn, "snr", float, "SNR in dB", "in [-300, 300]",
                   lambda db: -300 <= db <= 300, ("seed",)),
    "mp3": Attack(mp3_roundtrip, "bitrate", int, "bitrate in kbit/s",
                  f"one of {MP3_BITRATES}", MP3_BITRATES.__contains__,
                  ("codec",)),
    "lowpass": Attack(lowpass, "cutoff", float, "cutoff in Hz", "finite and > 0",
                      lambda hz: hz > 0),
    "highpass": Attack(highpass, "cutoff", float, "cutoff in Hz", "finite and > 0",
                       lambda hz: hz > 0),
    "resample": Attack(resample_roundtrip, "rate", int, "intermediate rate in Hz",
                       "an integer > 0", lambda hz: hz > 0),
    "requantize": Attack(requantize, "bits", int, "bit depth",
                         "an integer in [2, 32]", lambda bits: 2 <= bits <= 32),
    "amplitude_scale": Attack(amplitude_scale, "factor", float, "gain factor",
                              "finite and > 0", lambda factor: factor > 0),
    "crop": Attack(crop_leading, "fraction", float, "leading fraction removed",
                   "in [0, 1)", lambda fraction: 0 <= fraction < 1),
}


def _checked(kind, value):
    # the parameter as its row's type, once it passes the row's rule; no
    # kind takes NaN or +-inf, and int kinds take only integral values.
    # Text, bools and what float() refuses read as NaN, so fail the rule.
    attack = ATTACKS[kind]
    try:
        number = (math.nan if isinstance(value, (str, bytes, bool, np.bool_))
                  else float(value))
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not (math.isfinite(number) and attack.allows(number)) or (
            attack.type is int and not number.is_integer()):
        raise ValidationError(
            f"{kind} {attack.meaning} must be {attack.rule}, got {value!r}")
    return attack.type(number)


def _check_seed(seed):
    # the one seed rule, for awgn and for every AttackSpec
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class AttackSpec:
    """One attack plus its parameter, ready to apply to any signal.

    ``kind`` is a key of :data:`ATTACKS`, whose entry says what
    ``parameter`` means and may be, and the spec keeps it as that
    entry's type; ``seed`` must be a non-negative integer and only
    affects awgn.
    """

    kind: str
    parameter: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ATTACKS:
            raise ValidationError(
                f"unknown attack {self.kind!r}, expected one of {tuple(ATTACKS)}")
        object.__setattr__(self, "parameter", _checked(self.kind, self.parameter))
        _check_seed(self.seed)

    def apply(self, signal: AudioSignal,
              codec: CodecCommand | None = None) -> AudioSignal:
        """Run the attack on a signal; ``codec`` serves mp3."""
        attack = ATTACKS[self.kind]
        given = {"seed": self.seed, "codec": codec}
        return attack.function(signal, self.parameter,
                               **{name: given[name] for name in attack.extras})
