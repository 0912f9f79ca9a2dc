"""One rule for every numeric argument of the library.

Each argument either keeps a plain Python number (``int`` or ``float``,
converted the documented way) or is refused with a ``GbtmarkError``;
no argument lets a ``TypeError``, ``ValueError`` or ``OverflowError``
escape, and none takes a bool as a number.
"""

import math
import operator
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gbtmark import (
    AttackSpec,
    AudioSignal,
    EmbeddingKey,
    EmbedParams,
    GbtmarkError,
    GraphConfig,
    WatermarkImage,
    payload,
    run_benchmark,
    write_wav,
)
from gbtmark.attacks import ATTACKS
from gbtmark.synth import speech_like

# the misuses every numeric argument must survive, valid numbers among them
LISTED = (True, False, np.True_, "1", b"1", None, math.nan, math.inf, -math.inf,
          2**70, 10**400, 1.5, 1j, np.int64(3), np.float32(0.1))

HOST = speech_like(0.5, 8000, seed=1)
PARAMS = EmbedParams()
MARK = WatermarkImage(2, 2, [0, 1, 1, 0])


def _integral_float(value):
    # an int attack parameter: any value float() reads as a whole number
    return int(float(value))


def _benchmark_seed(seed):
    with tempfile.TemporaryDirectory() as corpus:
        write_wav(Path(corpus) / "clip.wav", HOST)
        return run_benchmark(corpus, MARK, seed=seed, grid=()).seed


# (name, call with the value, the documented conversion of an accepted value)
SITES = [
    ("GraphConfig.frame_size", lambda v: GraphConfig(frame_size=v).frame_size,
     operator.index),
    ("GraphConfig.w1", lambda v: GraphConfig(w1=v).w1, float),
    ("GraphConfig.w2", lambda v: GraphConfig(w2=v).w2, float),
    ("EmbedParams.ws", lambda v: EmbedParams(ws=v).ws, float),
    ("EmbedParams.coeff_fraction",
     lambda v: EmbedParams(coeff_fraction=v).coeff_fraction, float),
    ("WatermarkImage.width", lambda v: WatermarkImage(v, 1, [0, 1, 1]).width,
     operator.index),
    ("WatermarkImage.height", lambda v: WatermarkImage(1, v, [0, 1, 1]).height,
     operator.index),
    ("EmbeddingKey.sample_rate",
     lambda v: EmbeddingKey(v, PARAMS, 1, 1, (0,), (0.5,)).sample_rate, operator.index),
    ("EmbeddingKey.watermark_width",
     lambda v: EmbeddingKey(8000, PARAMS, v, 1, (0, 1, 2), (0.5,) * 3).watermark_width,
     operator.index),
    ("EmbeddingKey.watermark_height",
     lambda v: EmbeddingKey(8000, PARAMS, 1, v, (0, 1, 2), (0.5,) * 3).watermark_height,
     operator.index),
    ("AudioSignal.sample_rate", lambda v: AudioSignal(HOST.samples, v).sample_rate,
     operator.index),
    ("payload.sample_rate_hz", lambda v: payload(v, 10), lambda v: float(v) / 10),
    ("payload.frame_size", lambda v: payload(8000, v),
     lambda v: 8000.0 / operator.index(v)),
    ("AttackSpec.seed", lambda v: AttackSpec("awgn", 10.0, seed=v).seed, operator.index),
    ("run_benchmark.seed", _benchmark_seed, operator.index),
    ("lowpass.cutoff_hz", lambda v: AttackSpec("lowpass", v).apply(HOST).samples,
     lambda v: AttackSpec("lowpass", float(v)).apply(HOST).samples),
    ("highpass.cutoff_hz", lambda v: AttackSpec("highpass", v).apply(HOST).samples,
     lambda v: AttackSpec("highpass", float(v)).apply(HOST).samples),
] + [
    (f"AttackSpec.parameter[{kind}]", lambda v, kind=kind: AttackSpec(kind, v).parameter,
     float if attack.type is float else _integral_float)
    for kind, attack in ATTACKS.items()
]


def _with_listed(test):
    # every listed value runs at every site, before the drawn ones
    for value in LISTED:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("site", SITES, ids=[name for name, _, _ in SITES])
@_with_listed
@given(value=st.one_of(st.integers(), st.floats(), st.integers().map(str),
                       st.integers(-2**63, 2**63 - 1).map(np.int64),
                       st.floats(width=32).map(np.float32), st.booleans()))
def test_numeric_argument_is_kept_as_a_plain_number_or_refused(site, value):
    _, call, convert = site
    if isinstance(value, (bool, np.bool_)):
        with pytest.raises(GbtmarkError):
            call(value)
        return
    try:
        kept = call(value)
    except GbtmarkError:
        return
    expected = convert(value)
    if isinstance(expected, np.ndarray):
        assert np.array_equal(kept, expected)
    else:
        assert (type(kept), kept) == (type(expected), expected)
