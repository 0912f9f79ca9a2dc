import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gbtmark import (
    AudioSignal,
    ValidationError,
    WatermarkImage,
    ber,
    payload,
    psnr,
)
from gbtmark.audio import _BLOCK

from conftest import random_watermark
from oracles import ar_noise


def test_psnr_identical_signals_infinite():
    signal = ar_noise(1000, seed=0)
    report = psnr(signal, signal)
    assert math.isinf(report.psnr_db)
    assert report.mse == 0.0


def test_psnr_hand_computed():
    reference = AudioSignal(np.full(10, 0.5), 8000)
    test = AudioSignal(np.full(10, 0.4), 8000)
    report = psnr(reference, test)
    assert report.mse == pytest.approx(0.01, abs=1e-15)
    assert report.psnr_db == pytest.approx(20.0, abs=1e-9)


def test_psnr_decreases_with_noise_power():
    signal = ar_noise(20000, seed=1, rms=0.2)
    rng = np.random.default_rng(2)
    noise = rng.normal(size=len(signal))
    values = []
    for scale in (1e-4, 1e-3, 1e-2, 5e-2):
        noisy = AudioSignal(np.clip(signal.samples + scale * noise, -1, 1), 8000)
        values.append(psnr(signal, noisy).psnr_db)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_psnr_depends_only_on_error_multiset():
    rng = np.random.default_rng(3)
    reference = rng.uniform(-0.5, 0.5, 500)
    errors = rng.normal(0, 0.01, 500)
    perm = rng.permutation(500)
    a = psnr(AudioSignal(reference, 8000),
             AudioSignal(reference + errors, 8000))
    b = psnr(AudioSignal(reference[perm], 8000),
             AudioSignal(reference[perm] + errors[perm], 8000))
    assert a.psnr_db == pytest.approx(b.psnr_db, abs=1e-12)


unit_samples = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=300)


@given(reference=unit_samples, test=unit_samples)
def test_psnr_mse_is_bit_equal_to_mean_of_squares(reference, test):
    size = min(len(reference), len(test))
    reference, test = np.array(reference[:size]), np.array(test[:size])
    error = test - reference
    report = psnr(AudioSignal(reference, 8000), AudioSignal(test, 8000))
    assert report.mse == float(np.mean(error * error))


@pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_psnr_mse_across_block_edges(size):
    # psnr sums the squared errors per block: one block is np.mean's own
    # pairwise sum, and the sum of several is within a few ulp of it
    rng = np.random.default_rng(size)
    reference = rng.uniform(-0.5, 0.5, size)
    test = reference + rng.normal(0, 0.01, size)
    error = test - reference
    report = psnr(AudioSignal(reference, 8000), AudioSignal(test, 8000))
    expected = float(np.mean(error * error))
    if size <= _BLOCK:
        assert report.mse == expected
    else:
        assert abs(report.mse - expected) <= 4 * np.spacing(expected)
    assert report.psnr_db == 10.0 * math.log10(1.0 / report.mse)


def test_psnr_validates_inputs():
    a = ar_noise(100, seed=0)
    with pytest.raises(ValidationError):
        psnr(a, ar_noise(99, seed=0))
    with pytest.raises(ValidationError):
        psnr(a, ar_noise(100, seed=0, sample_rate=16000))


def test_ber_examples():
    image = random_watermark(seed=4)
    assert ber(image, image) == 0.0
    flipped = np.array(image.bits)
    flipped[0] ^= 1
    assert ber(image, WatermarkImage(25, 25, flipped)) == pytest.approx(1 / 625)
    complement = WatermarkImage(25, 25, 1 - image.bits)
    assert ber(image, complement) == 1.0


def test_ber_symmetric():
    a = random_watermark(seed=5)
    b = random_watermark(seed=6)
    assert ber(a, b) == ber(b, a)


def test_ber_validates_dimensions():
    with pytest.raises(ValidationError):
        ber(random_watermark(seed=0), WatermarkImage(5, 5, np.zeros(25)))


def test_payload_values():
    assert payload(8000, 10) == 800
    assert payload(16000, 10) == 1600
    assert payload(8000, 16) == 500


def test_payload_validates_inputs():
    with pytest.raises(ValidationError):
        payload(0, 10)
    with pytest.raises(ValidationError):
        payload(8000, 0)
    # a rate that is not finite, or a frame size that is not a whole count
    for rate, size in ((math.nan, 10), (math.inf, 10), (-8000, 10),
                       (8000, 0.5), (8000, 10.0), (8000, "10"), (8000, math.nan)):
        with pytest.raises(ValidationError):
            payload(rate, size)
    assert payload(8000.0, np.int64(16)) == 500
