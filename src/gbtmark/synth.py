"""Synthetic audio clips for tests, demos and benchmarks.

Real corpora stay out of the repository; these generators produce
deterministic stand-ins with the gross statistics the watermarking
pipeline cares about: most energy in the low band, loud voiced bursts
separated by near-silence, and a small noise floor.
"""

import numpy as np
from scipy import signal as sps

from .audio import AudioSignal, _adopt


def speech_like(duration_s: float = 3.0, sample_rate: int = 8000,
                seed: int = 0) -> AudioSignal:
    """Generate a clip that mimics a voiced utterance.

    A pitch-modulated harmonic buzz is gated by a syllabic envelope and
    mixed with a faint low-passed noise floor; the whole clip is scaled
    to an RMS of 0.05.
    """
    rng = np.random.default_rng(seed)
    count = int(round(duration_s * sample_rate))
    t = np.arange(count) / sample_rate

    # pitch contour around 170 Hz with slow vibrato; telephone-band
    # speech carries little energy below 150 Hz
    f0 = 170.0 + 25.0 * np.sin(2 * np.pi * 0.9 * t + rng.uniform(0, 2 * np.pi))
    phase = 2 * np.pi * np.cumsum(f0) / sample_rate
    voiced = (np.sin(phase)
              + 0.7 * np.sin(2 * phase + 0.3)
              + 0.4 * np.sin(3 * phase + 1.1)
              + 0.2 * np.sin(5 * phase + 2.0))

    # syllables: smooth bursts with genuine pauses in between
    gate = np.sin(2 * np.pi * 2.7 * t + rng.uniform(0, 2 * np.pi))
    envelope = np.clip(gate, 0.0, 1.0) ** 0.75

    # low-passed noise floor, always on
    floor = sps.lfilter([1.0], [1.0, -0.95], rng.normal(size=count))
    floor /= np.sqrt(np.mean(floor ** 2))

    clip = envelope * voiced + 0.06 * floor
    clip *= 0.05 / np.sqrt(np.mean(clip ** 2))
    return _adopt(np.clip(clip, -0.95, 0.95), sample_rate)

