"""Quality and robustness measures: PSNR, bit error rate, payload."""

import math
from dataclasses import dataclass

import numpy as np

from .audio import AudioSignal, _blocks
from .errors import ValidationError, _integer, _real


@dataclass(frozen=True)
class QualityReport:
    """Distortion of a test signal against a reference.

    PSNR uses a fixed full-scale peak of 1.0; identical signals report
    infinite PSNR. ``embed`` reports its marked signal's as ``WatermarkedResult.quality``.
    """

    psnr_db: float
    mse: float


def psnr(reference: AudioSignal, test: AudioSignal) -> QualityReport:
    """Peak signal-to-noise ratio and mean squared error of test vs reference."""
    if reference.sample_rate != test.sample_rate:
        raise ValidationError(
            f"sample rates differ: {reference.sample_rate} vs {test.sample_rate}")
    if len(reference) != len(test):
        raise ValidationError(
            f"signal lengths differ: {len(reference)} vs {len(test)}")
    # squared errors summed per block; up to one block this is np.mean's
    # own pairwise sum, so bit-equal to it
    total = 0.0
    for block, error in _blocks(test.samples.shape):
        np.subtract(test.samples[block], reference.samples[block], out=error)
        total += np.add.reduce(np.square(error, out=error))
    return _quality(total, len(test))


def _quality(squared_error_sum, count):
    # the one rule from a sum of squared errors over count samples to a
    # report; an error of exactly 0 is infinitely far below the peak
    mse = float(squared_error_sum / count)
    if mse == 0.0:
        return QualityReport(psnr_db=math.inf, mse=0.0)
    return QualityReport(psnr_db=10.0 * math.log10(1.0 / mse), mse=mse)


def ber(original, extracted) -> float:
    """Fraction of mismatched bits between two equally sized WatermarkImages."""
    if (original.width, original.height) != (extracted.width, extracted.height):
        raise ValidationError(
            f"image dimensions differ: {original.width}x{original.height} vs "
            f"{extracted.width}x{extracted.height}")
    return float(np.mean(original.bits != extracted.bits))


def payload(sample_rate_hz: float, frame_size: int) -> float:
    """Embeddable bits per second: one bit per frame."""
    rate = _real("sample rate", sample_rate_hz, "finite and > 0", lambda hz: hz > 0,
                 ValidationError)
    size = _integer("frame size", frame_size, "an integer >= 1", lambda n: n >= 1,
                    ValidationError)
    return rate / size
