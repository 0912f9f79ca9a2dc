import numpy as np
import pytest

from gbtmark import AudioSignal, ValidationError


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
