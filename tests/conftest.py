import struct

import numpy as np
import pytest
from hypothesis import example, settings
from hypothesis import strategies as st

from gbtmark import (
    AudioSignal,
    EmbedParams,
    GraphConfig,
    WatermarkImage,
    embed,
    make_plan,
)
from gbtmark.synth import speech_like
from gbtmark.watermark import _leading

from oracles import shift_top_singular_value

# Property tests draw the same examples on every run (derandomize) and
# have no per-example time limit, so a slow machine cannot fail them.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")

# Fixed corpus for the heavier end-to-end tests: three clips, one
# balanced random watermark. Clip seed 2 is also the anchor for the
# crop-monotonicity check, so do not change these without re-checking.
CLIP_SEEDS = (1, 2, 3)
WATERMARK_SEED = 7


def random_watermark(width=25, height=25, seed=WATERMARK_SEED):
    rng = np.random.default_rng(seed)
    return WatermarkImage(width, height, rng.integers(0, 2, width * height))


def mutate(data, edit):
    """Apply one (kind, position, argument) edit; positions wrap around."""
    kind, at, arg = edit
    at %= len(data)
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ arg]) + data[at + 1:]
    if kind == "delete":
        return data[:at] + data[at + arg:]
    if kind == "insert":
        return data[:at] + arg + data[at:]
    return data[:at]  # truncate


# Byte edits of an input file, for the properties that check that every
# edit ends in a value or a clean error. Most edits land in a header: the
# WAV's is 44 bytes, the PBM's and key's text lines come first.
POSITIONS = st.integers(0, 64) | st.integers(0, 2**20)
EDITS = st.one_of(
    st.tuples(st.just("flip"), POSITIONS, st.integers(1, 255)),
    st.tuples(st.just("delete"), POSITIONS, st.integers(1, 8)),
    st.tuples(st.just("insert"), POSITIONS,
              st.lists(st.sampled_from(b"0123456789 \t\n\r\x0b\x0c\x1c\x1f"),
                       min_size=1, max_size=4).map(bytes)),
    # a chunk header of odd size: RIFF pads such a chunk to an even length
    st.tuples(st.just("insert"), POSITIONS,
              st.builds(lambda name, half: name + struct.pack("<I", 2 * half + 1),
                        st.sampled_from([b"LIST", b"fmt ", b"data"]),
                        st.integers(0, 2**31 - 1))),
    st.tuples(st.just("truncate"), POSITIONS, st.none()),
)


def with_wav_edit_examples(**fixed):
    """The WAV edits every mutation property tries first, as examples of
    its ``edit`` argument; ``fixed`` gives its other arguments."""
    def decorate(test):
        # a LIST chunk whose size points past the end, and a sample rate
        # of 2**31 + 8000
        for edit in (("insert", 36, b"LIST" + struct.pack("<I", 10**6)),
                     ("flip", 27, 0x80)):
            test = example(edit=edit, **fixed)(test)
        return test
    return decorate


def embed_oracle_gap(candidates, params):
    """Largest gap between frames marked by ``embed`` and the 2x2 oracle.

    Keeps the candidate frames that are eligible and whose two singular
    values are at least 1e-6 apart (the oracle's top singular pair is
    ill-defined otherwise). A host made of exactly those frames gets an
    all-ones mark, then separately an all-zeros mark, so every kept
    frame carries both bits in turn. Each marked frame's leading
    coefficient matrix is compared with ``shift_top_singular_value``.
    Returns the number of frames kept and the largest absolute gap.
    """
    sv = np.linalg.svd(_leading(candidates, params), compute_uv=False)
    frames = candidates[(sv[:, 0] > params.ws) & (sv[:, 0] - sv[:, 1] >= 1e-6)]
    before = _leading(frames, params)
    host = AudioSignal(frames.reshape(-1), 8000)
    gap = 0.0
    for bit, delta in ((1, params.ws), (0, -params.ws)):
        mark = WatermarkImage(len(frames), 1, np.full(len(frames), bit))
        marked = embed(host, mark, params).signal.samples.reshape(frames.shape)
        after = _leading(marked, params)
        for got, mat in zip(after, before):
            gap = max(gap, np.max(np.abs(got - shift_top_singular_value(mat, delta))))
    return len(frames), gap


@pytest.fixture(scope="session")
def default_basis():
    return make_plan(GraphConfig())


@pytest.fixture(scope="session")
def watermark():
    return random_watermark()


@pytest.fixture(scope="session")
def speech_clips():
    return tuple(speech_like(3.0, 8000, seed=s) for s in CLIP_SEEDS)


@pytest.fixture(scope="session")
def embedded_clips(speech_clips, watermark):
    """Embedding results for every session clip, with default parameters."""
    return tuple(embed(clip, watermark, EmbedParams()) for clip in speech_clips)
