"""Quality and robustness measures: PSNR, bit error rate, payload."""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .audio import AudioSignal, _blocks
from .errors import ValidationError
from .watermark import WatermarkImage


@dataclass(frozen=True)
class QualityReport:
    """Distortion of a test signal against a reference.

    PSNR uses a fixed full-scale peak of 1.0; identical signals report
    infinite PSNR.
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
    for block, error in _blocks(len(test)):
        np.subtract(test.samples[block], reference.samples[block], out=error)
        total += np.add.reduce(np.square(error, out=error))
    mse = float(total / len(test))
    if mse == 0.0:
        return QualityReport(psnr_db=math.inf, mse=0.0)
    return QualityReport(psnr_db=10.0 * math.log10(1.0 / mse), mse=mse)


def ber(original: WatermarkImage, extracted: WatermarkImage) -> float:
    """Fraction of mismatched bits between two equally sized images."""
    if (original.width, original.height) != (extracted.width, extracted.height):
        raise ValidationError(
            f"image dimensions differ: {original.width}x{original.height} vs "
            f"{extracted.width}x{extracted.height}")
    return float(np.mean(original.bits != extracted.bits))


def payload(sample_rate_hz: float, frame_size: int) -> float:
    """Embeddable bits per second: one bit per frame."""
    if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0):
        raise ValidationError(
            f"sample rate must be finite and > 0, got {sample_rate_hz!r}")
    if not (isinstance(frame_size, numbers.Integral) and frame_size >= 1):
        raise ValidationError(
            f"frame size must be an integer >= 1, got {frame_size!r}")
    return sample_rate_hz / frame_size
