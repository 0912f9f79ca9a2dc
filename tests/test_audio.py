import re

import numpy as np
import pytest

from gbtmark import AudioSignal, ValidationError
from gbtmark.audio import _adopt


@pytest.mark.parametrize("bad, message", [
    (np.nan, "samples must be finite"),
    (np.inf, "samples must be finite"),
    (-np.inf, "samples must be finite"),
    (1.0000001, r"samples must lie in \[-1, 1\]"),
    (-1.5, r"samples must lie in \[-1, 1\]"),
])
def test_audio_signal_rejects_bad_sample(bad, message):
    samples = np.linspace(-0.5, 0.5, 50)
    samples[17] = bad
    with pytest.raises(ValidationError, match=f"^{message}$"):
        AudioSignal(samples, 8000)


def test_audio_signal_nan_beside_out_of_range_reports_finite():
    with pytest.raises(ValidationError, match="^samples must be finite$"):
        AudioSignal([0.0, 2.0, np.nan], 8000)


@pytest.mark.parametrize("edge", [1.0, -1.0, -0.0])
def test_audio_signal_accepts_full_scale_and_negative_zero(edge):
    signal = AudioSignal([0.25, edge, -0.25], 8000)
    assert signal.samples[1] == edge
    assert np.signbit(signal.samples[1]) == np.signbit(edge)


def test_audio_signal_constructor_copies():
    samples = np.linspace(-0.5, 0.5, 50)
    before = samples.copy()
    signal = AudioSignal(samples, 8000)
    samples[3] = 0.9
    assert np.array_equal(signal.samples, before)
    assert not np.shares_memory(signal.samples, samples)
    assert not signal.samples.flags.writeable


def test_adopt_refuses_what_the_constructor_refuses():
    # one validation serves both ways in, message for message
    for samples, rate in ((np.array([0.0, np.nan]), 8000), (np.array([0.0, -np.inf]), 8000),
                          (np.array([0.0, 1.5]), 8000), (np.zeros(0), 8000),
                          (np.zeros((2, 3)), 8000), (np.zeros(4), 0),
                          (np.zeros(4), -8000), (np.zeros(4), 8000.0)):
        with pytest.raises(ValidationError) as refused:
            AudioSignal(samples, rate)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(refused.value))}$"):
            _adopt(samples, rate)


def test_adopt_keeps_and_freezes_the_array():
    samples = np.linspace(-0.5, 0.5, 50)
    signal = _adopt(samples, np.int64(8000))
    assert signal.samples is samples
    assert not samples.flags.writeable
    assert type(signal.sample_rate) is int and signal.sample_rate == 8000
