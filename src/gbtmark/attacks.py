"""Signal-level attacks used to stress watermark extraction.

:class:`AttackSpec` runs every attack. It checks its parameter against
the kind's row of :data:`ATTACKS` when it is made, and the rules that
need the signal when it is applied. Each attack returns a raw array that
:meth:`AttackSpec.apply` fits to the signal's length and rate, clamped
to [-1, 1]. Attacks are deterministic; awgn also takes a seed.
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
from .errors import CodecError, ValidationError, _integer, _real
from .fileio import read_wav, write_wav

FIR_TAP_COUNT = 127  # type I linear phase
_FIR_DELAY = (FIR_TAP_COUNT - 1) // 2  # the group delay, 63 samples
MP3_ALIGN_MAX_LAG = 2048
MP3_BITRATES = (16, 32, 64)
# resample_poly holds the intermediate signal, rate / sample_rate times
# the input's length, and a filter of about 20 * max(up, down) taps
RESAMPLE_MAX_RATIO = 4
RESAMPLE_MAX_TERM = 1 << 16


def _past_limit(kind, value, signal, limit):
    # the error for a parameter past a limit set by the signal: the
    # kind's rule from ATTACKS, then that limit for this signal
    attack = ATTACKS[kind]
    return ValidationError(f"{kind} {attack.meaning} must be {attack.rule}: {limit} "
                           f"for this {signal.sample_rate} Hz signal, got {value!r}")


def _awgn(signal, snr_db, seed):
    # white Gaussian noise at the given signal-to-noise ratio in dB
    x = signal.samples
    power = float(np.mean(x * x))
    if power == 0.0:
        raise ValidationError("SNR is undefined for a silent signal")
    sigma = math.sqrt(power / 10.0 ** (snr_db / 10.0))
    noise = np.random.default_rng(seed).normal(0.0, sigma, x.size)
    noise += x
    return noise


def _lowpass_taps(cutoff_hz, sample_rate):
    m = np.arange(FIR_TAP_COUNT) - _FIR_DELAY
    fc = max(cutoff_hz / sample_rate, 1e-300)  # cycles per sample, never subnormal
    taps = 2.0 * fc * np.sinc(2.0 * fc * m) * np.hamming(FIR_TAP_COUNT)
    return taps / taps.sum()  # exact unit gain at DC


def _zero_tail(out):
    # the last group-delay samples would need input past the end: zeros
    out[max(out.size - _FIR_DELAY, 0):] = 0.0
    return out


def _apply_fir(x, taps):
    # causal filter, advanced by the group delay so the output stays
    # aligned with the input
    return _zero_tail(np.convolve(x, taps)[_FIR_DELAY:_FIR_DELAY + x.size])


def _lowpass(signal, cutoff_hz):
    # windowed-sinc FIR lowpass, compensated to zero phase; at the Nyquist
    # frequency it is the identity filter, and only the zeroed tail is left
    nyquist = signal.sample_rate / 2.0
    if cutoff_hz > nyquist:
        raise _past_limit("lowpass", cutoff_hz, signal, f"in (0, {nyquist:g}] Hz")
    if cutoff_hz == nyquist:
        return _zero_tail(signal.samples.copy())
    taps = _lowpass_taps(cutoff_hz, signal.sample_rate)
    return _apply_fir(signal.samples, taps)


def _highpass(signal, cutoff_hz):
    # spectral-inversion complement of the lowpass filter (zero gain at DC)
    nyquist = signal.sample_rate / 2.0
    if cutoff_hz >= nyquist:
        raise _past_limit("highpass", cutoff_hz, signal, f"in (0, {nyquist:g}) Hz")
    taps = -_lowpass_taps(cutoff_hz, signal.sample_rate)
    taps[_FIR_DELAY] += 1.0
    return _apply_fir(signal.samples, taps)


def _resample_roundtrip(signal, rate):
    # polyphase-resample to an intermediate rate and back; the ratio is
    # bounded before resample_poly allocates anything
    ratio = Fraction(rate, signal.sample_rate)
    up, down = ratio.numerator, ratio.denominator
    if ratio > RESAMPLE_MAX_RATIO or max(up, down) > RESAMPLE_MAX_TERM:
        raise _past_limit("resample", rate, signal,
                          f"at most {RESAMPLE_MAX_RATIO * signal.sample_rate} Hz"
                          if ratio > RESAMPLE_MAX_RATIO else
                          f"the ratio {up}/{down} has a term over {RESAMPLE_MAX_TERM}")
    mid = sps.resample_poly(signal.samples, up, down)
    return sps.resample_poly(mid, down, up)


def _requantize(signal, bits):
    # mid-rise requantization onto a grid of 2**bits - 1 levels
    scale = float(2 ** (bits - 1) - 1)
    return np.round(signal.samples * scale) / scale


def _amplitude_scale(signal, factor):
    # every sample times a positive factor
    return signal.samples * factor


def _crop_leading(signal, fraction):
    # the leading fraction of samples removed (apply zero-pads the end)
    cut = int(fraction * len(signal))
    return signal.samples[cut:]


@dataclass(frozen=True)
class CodecCommand:
    """Shell command templates for an external MP3 encoder/decoder pair.

    The encode template receives {input} (WAV path), {output} (MP3 path)
    and {bitrate} (kbit/s); the decode template receives {input} (MP3
    path) and {output} (WAV path). The decoder must produce mono 16-bit
    PCM at the input rate. Defaults target the ``lame`` command-line
    tool. A template that does not split into shell words or format with
    its placeholders is refused when the command is made.
    """

    encode_template: str = "lame --quiet -b {bitrate} {input} {output}"
    decode_template: str = "lame --quiet --decode {input} {output}"

    def __post_init__(self):
        # each template is tried on stand-in values of the types it gets
        for label, template, mapping in (
                ("encode", self.encode_template,
                 {"input": "in.wav", "output": "out.mp3", "bitrate": 64}),
                ("decode", self.decode_template,
                 {"input": "in.mp3", "output": "out.wav"})):
            missing = [f"{{{name}}}" for name in mapping
                       if f"{{{name}}}" not in template]
            if missing:
                raise ValidationError(
                    f"{label} template is missing placeholders {missing}: "
                    f"{template!r}")
            try:
                _argv(template, mapping)
            except (ValueError, LookupError, AttributeError, TypeError) as exc:
                raise ValidationError(
                    f"{label} template cannot be split and formatted "
                    f"({type(exc).__name__}: {exc}): {template!r}") from None


def _argv(template, mapping):
    # the template is split first, then each token formatted, so paths
    # containing spaces stay single arguments
    return [token.format(**mapping) for token in shlex.split(template)]


def _run_codec(step, template, mapping):
    argv = _argv(template, mapping)
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


def _mp3_roundtrip(signal, bitrate, codec):
    # compress to MP3 and decode back with external commands; the decoded
    # audio is re-aligned to the input by cross-correlation over lags up
    # to +-2048 samples
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
    return _align_to(signal.samples, decoded.samples)


class Attack(NamedTuple):
    """One attack: its function and the one parameter it takes."""

    function: Callable   # (signal, parameter, **extras) -> raw output array
    flag: str            # CLI option carrying the parameter, without "--"
    type: type           # the parameter's type, int or float
    meaning: str         # what the parameter is, with its unit
    rule: str            # the range rule as text, the signal's limits included
    allows: Callable     # the signal-free part, on a finite float (integral for int)
    extras: tuple = ()   # AttackSpec.apply arguments the function also takes


# Every attack, keyed by kind. AttackSpec and the CLI read this table.
# Rules that need the signal (filter cutoffs up to Nyquist, the resample
# ratio, a non-silent awgn input) are checked by the functions when they run.
ATTACKS = {
    # the bound keeps 10 ** (snr / 10) a finite, non-zero float
    "awgn": Attack(_awgn, "snr", float, "SNR in dB", "in [-300, 300]",
                   lambda db: -300 <= db <= 300, ("seed",)),
    "mp3": Attack(_mp3_roundtrip, "bitrate", int, "bitrate in kbit/s",
                  f"one of {MP3_BITRATES}", MP3_BITRATES.__contains__,
                  ("codec",)),
    "lowpass": Attack(_lowpass, "cutoff", float, "cutoff in Hz",
                      "finite, > 0 and at most Nyquist (half the signal's rate)",
                      lambda hz: hz > 0),
    "highpass": Attack(_highpass, "cutoff", float, "cutoff in Hz",
                       "finite, > 0 and below Nyquist (half the signal's rate)",
                       lambda hz: hz > 0),
    "resample": Attack(_resample_roundtrip, "rate", int, "intermediate rate in Hz",
                       f"an integer > 0, at most {RESAMPLE_MAX_RATIO}x the signal's "
                       f"rate, whose ratio to that rate reduces to terms <= "
                       f"{RESAMPLE_MAX_TERM}", lambda hz: hz > 0 and hz.is_integer()),
    "requantize": Attack(_requantize, "bits", int, "bit depth", "an integer in [2, 32]",
                         lambda bits: 2 <= bits <= 32 and bits.is_integer()),
    "amplitude_scale": Attack(_amplitude_scale, "factor", float, "gain factor",
                              "finite and > 0", lambda factor: factor > 0),
    "crop": Attack(_crop_leading, "fraction", float, "leading fraction removed",
                   "in [0, 1)", lambda fraction: 0 <= fraction < 1),
}


def _check_seed(seed):
    # the one seed rule, for every AttackSpec and run_benchmark
    return _integer("seed", seed, "a non-negative integer", lambda n: n >= 0,
                    ValidationError)


@dataclass(frozen=True)
class AttackSpec:
    """One attack plus its parameter, ready to apply to any signal.

    ``kind`` is a key of :data:`ATTACKS`, whose entry says what
    ``parameter`` means and may be, and the spec keeps it as that
    entry's type; ``seed`` must be a non-negative integer and only
    affects awgn. Rules that depend on the signal are checked by
    :meth:`apply`.
    """

    kind: str
    parameter: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ATTACKS:
            raise ValidationError(
                f"unknown attack {self.kind!r}, expected one of {tuple(ATTACKS)}")
        # the row's rule on a finite float, then the row's type; no kind
        # takes NaN or +-inf
        attack = ATTACKS[self.kind]
        parameter = _real(f"{self.kind} {attack.meaning}", self.parameter, attack.rule,
                          attack.allows, ValidationError)
        object.__setattr__(self, "parameter", attack.type(parameter))
        object.__setattr__(self, "seed", _check_seed(self.seed))

    def apply(self, signal: AudioSignal,
              codec: CodecCommand | None = None) -> AudioSignal:
        """Run the attack on a signal (``codec`` serves mp3); the result
        keeps the signal's length and rate, its samples clamped to [-1, 1]."""
        attack = ATTACKS[self.kind]
        given = {"seed": self.seed, "codec": codec}
        out = attack.function(signal, self.parameter,
                              **{name: given[name] for name in attack.extras})
        # np.clip returns a fresh array, so nothing else holds what is adopted
        return _adopt(np.clip(_fit_length(out, len(signal)), -1.0, 1.0),
                      signal.sample_rate)
