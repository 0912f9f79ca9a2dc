import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbtmark.transform
import gbtmark.watermark

from gbtmark import (
    AudioSignal,
    CapacityError,
    ConfigError,
    EmbedParams,
    EmbeddingKey,
    GraphConfig,
    KeyFormatError,
    ValidationError,
    WatermarkImage,
    embed,
    extract,
    make_plan,
    psnr,
    select_frames,
)
from gbtmark.audio import _frames, _gather, _store, _values
from gbtmark.synth import speech_like
from gbtmark.watermark import _leading, _mark, _read_bits, _smax, _smax_change

from conftest import embed_oracle_gap, random_watermark
from oracles import ar_noise, select_frames_full_scan


def constant_frames_signal(levels, frame_size=10, rate=8000):
    """One constant frame per level; frame energy is level**2 * frame_size."""
    samples = np.repeat(np.asarray(levels, dtype=float), frame_size)
    return AudioSignal(samples, rate)


def test_frame_signal_drops_partial_tail():
    samples = AudioSignal(np.linspace(-0.5, 0.5, 25), 8000).samples
    frames = _frames(samples, 10)
    assert frames.shape == (2, 10)
    assert np.array_equal(frames[0], samples[:10])
    assert np.array_equal(frames[1], samples[10:20])


def test_frame_signal_exact_fit():
    frames = _frames(AudioSignal(np.zeros(20), 8000).samples, 10)
    assert frames.shape == (2, 10)


def test_frame_signal_too_short():
    with pytest.raises(ValidationError, match="9 samples"):
        select_frames(AudioSignal(np.zeros(9), 8000), EmbedParams(), 1)


def leading_of_random_frames(k, count=5):
    # all coefficients of random frames of the default 10-sample graph,
    # and _leading's matrices of them
    frames = np.random.default_rng(k).uniform(-0.5, 0.5, (count, 10))
    params = EmbedParams(coeff_fraction=k / 10)
    return frames @ make_plan(params.graph), _leading(frames, params)


def test_reshape_k4_row_major():
    coeffs, mats = leading_of_random_frames(4)
    assert mats.shape == (5, 2, 2)
    for c, mat in zip(coeffs, mats):
        assert np.array_equal(mat, [[c[0], c[1]], [c[2], c[3]]])


def test_reshape_k6_is_2x3():
    coeffs, mats = leading_of_random_frames(6)
    assert mats.shape == (5, 2, 3)
    for c, mat in zip(coeffs, mats):
        assert np.array_equal(mat, [c[0:3], c[3:6]])
    # any shape but 2x2 keeps LAPACK's singular values
    assert np.array_equal(_smax(mats), np.linalg.svd(mats, compute_uv=False)[:, 0])


def test_reshape_prime_is_row_and_smax_is_norm():
    coeffs, mats = leading_of_random_frames(5)
    assert mats.shape == (5, 1, 5)
    assert np.array_equal(mats[:, 0], coeffs[:, :5])
    assert _smax(mats) == pytest.approx(np.linalg.norm(coeffs[:, :5], axis=1),
                                        abs=1e-12)


# ------------------------------------------------- closed-form 2x2 kernel

EPS = np.finfo(np.float64).eps


def rotation(angle, flip):
    # a 2x2 orthogonal matrix: a rotation, or a rotation then a reflection
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]]) @ np.diag([1.0, flip])


@st.composite
def two_by_two(draw):
    """A 2x2 matrix: random, near-equal singular values, rank 1 or zero."""
    kind = draw(st.sampled_from(["random", "near-equal", "rank-1", "zero"]))
    scale = 10.0 ** draw(st.integers(-6, 6))
    if kind == "zero":
        return np.zeros((2, 2))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.normal(size=(2, 2)) * scale
    angle = st.floats(0.0, 2 * np.pi)
    flip = st.sampled_from([1.0, -1.0])
    u = rotation(draw(angle), draw(flip))
    v = rotation(draw(angle), draw(flip))
    s2 = 0.0 if kind == "rank-1" else scale * (1 + 10.0 ** draw(st.integers(-15, -3)))
    return u @ np.diag([scale, s2]) @ v.T


BATCHES = st.lists(two_by_two(), min_size=1, max_size=8).map(np.stack)


def shifts(draw, mats):
    # one delta per matrix, either sign, from far below to above its size
    size = np.maximum(np.abs(mats).max(axis=(1, 2)), 1e-6)
    factor = draw(st.lists(st.floats(1e-3, 3.0), min_size=len(mats),
                           max_size=len(mats)))
    sign = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=len(mats),
                         max_size=len(mats)))
    return np.array(sign) * np.array(factor) * size


def test_smax_2x2_matches_lapack():
    @given(mats=BATCHES)
    def check(mats):
        want = np.linalg.svd(mats, compute_uv=False)[:, 0]
        assert np.all(np.abs(_smax(mats) - want) <= 16 * EPS * want)

    check()


def test_shift_smax_2x2_moves_only_the_largest_singular_value():
    @given(data=st.data(), mats=BATCHES)
    def check(data, mats):
        delta = shifts(data.draw, mats)
        s1, s2 = np.linalg.svd(mats, compute_uv=False).T
        s_max, change = _smax_change(mats, delta)
        assert np.array_equal(s_max, _smax(mats))
        got = np.linalg.svd(mats + change, compute_uv=False)
        want = np.sort([np.abs(s1 + delta), s2], axis=0)[::-1].T
        tolerance = 16 * EPS * (s1 + np.abs(delta))
        assert np.all(np.abs(got - want) <= tolerance[:, None])

    check()


def test_shift_smax_2x2_matches_lapack_rank_one_update():
    # where s1 and s2 are well apart, u1 v1^T is well defined and LAPACK's
    # M + delta u1 v1^T is the reference
    @given(data=st.data(), mats=BATCHES)
    def check(data, mats):
        u, s, vt = np.linalg.svd(mats)
        apart = s[:, 0] - s[:, 1] >= s[:, 0] / 4
        mats, u, s, vt = mats[apart], u[apart], s[apart], vt[apart]
        delta = shifts(data.draw, mats)
        want = mats + delta[:, None, None] * u[:, :, :1] * vt[:, :1, :]
        tolerance = 16 * EPS * (s[:, 0] + np.abs(delta))
        s_max, change = _smax_change(mats, delta)
        assert np.array_equal(s_max, _smax(mats))
        shifted = mats + change
        gap = np.abs(shifted - want).max(axis=(1, 2), initial=0.0)
        assert np.all(gap <= tolerance)

    check()


def test_shift_smax_2x2_zero_part_takes_the_first_direction():
    # with Q or R zero the top singular pair is tied; the zero part
    # grows along (delta/2, 0): E for the rotation, F for the reflection
    mats = np.array([np.zeros((2, 2)), 2 * np.eye(2), [[0.0, 3.0], [3.0, 0.0]]])
    s_max, change = _smax_change(mats, np.array([0.5, -0.5, 0.5]))
    assert np.array_equal(s_max, _smax(mats))
    got = mats + change
    assert np.array_equal(got, [[[0.5, 0.0], [0.0, 0.0]],
                                [[1.5, 0.0], [0.0, 2.0]],
                                [[0.25, 3.25], [3.25, 0.25]]])


def test_coeff_count_rounds_half_up():
    assert EmbedParams().coeff_count == 4
    assert EmbedParams(graph=GraphConfig(frame_size=9), coeff_fraction=0.5).coeff_count == 5
    assert EmbedParams(graph=GraphConfig(frame_size=11)).coeff_count == 4


@pytest.mark.parametrize("kwargs", [
    {"ws": 0.0}, {"ws": -0.1}, {"ws": np.inf},
    {"coeff_fraction": 0.0}, {"coeff_fraction": 1.1},
])
def test_embed_params_rejects_invalid(kwargs):
    with pytest.raises(ConfigError):
        EmbedParams(**kwargs)


def test_select_frames_top_energy_ascending():
    signal = constant_frames_signal([np.sqrt(0.01), np.sqrt(0.5), np.sqrt(0.3)])
    chosen = select_frames(signal, EmbedParams(), 2)
    assert list(chosen) == [1, 2]


def test_select_frames_tie_goes_to_lower_index():
    signal = constant_frames_signal([0.3, 0.3, 0.2])
    assert list(select_frames(signal, EmbedParams(), 1)) == [0]
    assert list(select_frames(signal, EmbedParams(), 2)) == [0, 1]


def test_select_frames_bit_count_is_an_integer_at_least_one():
    signal = speech_like(2.0, 8000, seed=1)
    for count in (2.5, "3", 3.0, None, 0, -1):
        with pytest.raises(ValidationError, match="bit_count"):
            select_frames(signal, EmbedParams(), count)
    assert np.array_equal(
        select_frames(signal, EmbedParams(), np.int64(3)),
        select_frames(signal, EmbedParams(), 3))


def test_select_frames_silent_signal_has_no_capacity():
    with pytest.raises(CapacityError) as info:
        select_frames(AudioSignal(np.zeros(100), 8000), EmbedParams(), 1)
    assert info.value.eligible == 0
    assert info.value.required == 1


def test_select_frames_real_clip_capacity():
    clip = speech_like(3.0, 8000, seed=1)  # 2400 frames available
    chosen = select_frames(clip, EmbedParams(), 625)
    assert len(chosen) == 625
    assert np.all(np.diff(chosen) > 0)


def test_select_frames_eligibility_threshold():
    # eligible means the kernel's smax > ws: a frame exactly at the
    # strength is out, and one a single ulp above it is in
    signal = ar_noise(10, seed=21, rms=0.2)
    smax = float(_smax(_leading(signal.samples.reshape(-1, 10), EmbedParams()))[0])
    with pytest.raises(CapacityError):
        select_frames(signal, EmbedParams(ws=smax), 1)
    below = EmbedParams(ws=np.nextafter(smax, 0.0))
    assert list(select_frames(signal, below, 1)) == [0]


def full_scan(signal, params, bit_count):
    # the oracle behind select_frames' signature
    return select_frames_full_scan(signal.samples, make_plan(params.graph),
                                   params.coeff_count, params.ws, bit_count)


@contextlib.contextmanager
def smax_batches(readings=None):
    """Record the batch size of every singular-value call select_frames
    makes, and append each call's readings to the given list."""
    sizes = []

    def counting(mats):
        sizes.append(len(mats))
        smax = _smax(mats)
        if readings is not None:
            readings.append(smax)
        return smax

    with mock.patch.object(gbtmark.watermark, "_smax", counting):
        yield sizes


# Loud alternating-sign (Nyquist) frames put little energy in the leading
# coefficients: at amplitude 0.34 their smax is 0.29, ineligible at
# ws = 0.3, while a quieter constant frame at 0.15 has smax 0.47.
NYQUIST = np.array([1.0, -1.0] * 5)


def test_select_frames_tie_run_straddling_the_cut():
    # frames 0, 2, 3 and 5 share one energy; the cut for 3 bits falls
    # inside that run, and its lowest indices win. Frames are cut on the
    # params' grid, so 16-sample frames pick the same indices.
    for frame_size in (10, 16):
        signal = constant_frames_signal([0.3, 0.5, -0.3, 0.3, 0.1, -0.3], frame_size)
        params = EmbedParams(graph=GraphConfig(frame_size=frame_size))
        with smax_batches() as sizes:
            chosen = select_frames(signal, params, 3)
        assert list(chosen) == [0, 1, 2]
        assert sizes == [5]  # the whole tie run is tested at once
        assert np.array_equal(chosen, full_scan(signal, params, 3))


def test_select_frames_prefix_grows_past_loud_ineligible_frames():
    # twelve loud frames of distinct energies outrank every quiet one
    loud = [(0.34 - 0.01 * i) * NYQUIST for i in range(12)]
    quiet = [np.full(10, 0.15), np.full(10, -0.15), np.full(10, 0.12)]
    signal = AudioSignal(np.concatenate(loud[:5] + quiet + loud[5:]), 8000)
    params = EmbedParams(ws=0.3)
    with smax_batches() as sizes:
        chosen = select_frames(signal, params, 2)
    assert list(chosen) == [5, 6]
    # the tested prefix doubles (2, 4, 8, then all 15 frames), and each
    # frame is tested once
    assert sizes == [2, 2, 4, 7]
    assert np.array_equal(chosen, full_scan(signal, params, 2))


def test_select_frames_capacity_error_reports_exact_eligible_count():
    # eligible count known from the full scan; the prefix has to reach
    # every frame before the error can be raised
    clip = speech_like(10.0, 8000, seed=5)
    params = EmbedParams(ws=0.2)
    with smax_batches() as sizes, pytest.raises(CapacityError) as info:
        select_frames(clip, params, 1600)
    assert (info.value.eligible, info.value.required) == (1594, 1600)
    assert sum(sizes) == 8000
    assert np.array_equal(select_frames(clip, params, 1594),
                          full_scan(clip, params, 1594))


def test_embed_with_full_scan_selection_gives_the_same_key(
        speech_clips, embedded_clips, watermark, monkeypatch):
    # embed selects through select_frames' core over the samples
    monkeypatch.setattr(gbtmark.watermark, "_select",
                        lambda samples, params, bit_count: select_frames_full_scan(
                            samples, make_plan(params.graph), params.coeff_count,
                            params.ws, bit_count))
    for clip, result in zip(speech_clips, embedded_clips):
        reference = embed(clip, watermark, EmbedParams())
        assert np.array_equal(reference.key.frame_indices, result.key.frame_indices)
        assert np.array_equal(reference.key.s_max, result.key.s_max)
        assert np.array_equal(reference.signal.samples, result.signal.samples)


def frame_strategy():
    # (kind, scale, seed); a frame's peak is scale * ws, capped at 1. A
    # Nyquist frame is ineligible below scale 1.17 (its smax is 0.85 of
    # its peak) and a smooth one above scale 0.32 is eligible, so loud
    # ineligible frames often outrank quieter eligible ones. Scales
    # partly come from a small set, so tie runs are common.
    scale = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.1]), st.floats(0.0, 1.5))
    return st.tuples(st.sampled_from(["nyquist", "smooth", "noise"]), scale,
                     st.integers(0, 2**16))


def build_frame(ws, kind, scale, seed):
    peak = min(1.0, scale * ws)
    if kind == "nyquist":
        return peak * NYQUIST
    if kind == "smooth":
        return np.full(10, peak)
    return np.random.default_rng(seed).uniform(-peak, peak, 10)


def test_select_frames_matches_full_scan_oracle():
    grew = []

    @settings(max_examples=300)
    @given(specs=st.lists(frame_strategy(), min_size=1, max_size=60),
           tail=st.integers(0, 9),
           ws=st.one_of(st.sampled_from([0.05, 0.3]), st.floats(0.001, 0.9)),
           data=st.data())
    def check(specs, tail, ws, data):
        samples = np.concatenate([build_frame(ws, *spec) for spec in specs]
                                 + [np.full(tail, 0.05)])
        signal = AudioSignal(samples, 8000)
        params = EmbedParams(ws=ws)
        # up to the frame count, small counts drawn more often
        bit_count = data.draw(st.one_of(st.integers(1, max(1, len(specs) // 4)),
                                        st.integers(1, len(specs))), label="bit_count")
        try:
            expected = full_scan(signal, params, bit_count)
        except CapacityError as error:
            expected = error
        with smax_batches() as sizes:
            try:
                chosen = select_frames(signal, params, bit_count)
            except CapacityError as error:
                chosen = error
        # every round tests new frames, and no frame is tested twice
        assert 0 not in sizes and sum(sizes) <= len(specs)
        if isinstance(expected, CapacityError):
            assert isinstance(chosen, CapacityError)
            assert (chosen.eligible, chosen.required) == (expected.eligible,
                                                          expected.required)
        else:
            assert np.array_equal(chosen, expected)
            grew.append(len(sizes) > 1)

    check()
    assert any(grew)  # some hosts made the tested prefix grow


def build_code_frame(kind, amplitude, seed):
    # an int16 code frame; the seed also picks a flat frame's sign, so
    # frames of different codes tie in energy
    if kind == "nyquist":
        return (amplitude * NYQUIST).astype(np.int16)
    if kind == "flat":
        return np.full(10, amplitude if seed % 2 else -amplitude, dtype=np.int16)
    rng = np.random.default_rng(seed)
    return rng.integers(-amplitude, amplitude, 10, endpoint=True).astype(np.int16)


def test_select_frames_on_codes_matches_full_scan_oracle():
    # gbtmark embed selects on a WAV's int16 codes, whose energies come from
    # _energies' exact gemv sums, not from einsum; a few amplitudes (smax of
    # a flat frame 0.03, 0.10, 0.29 and 1.93, of a Nyquist frame 0.85 of its
    # peak) make long tie runs, and loud ineligible frames
    cut, whole, grew = [], [], []

    @settings(max_examples=300)
    @given(specs=st.lists(st.tuples(st.sampled_from(["nyquist", "flat", "noise"]),
                                    st.sampled_from([0, 300, 1000, 3000, 20000]),
                                    st.integers(0, 2**16)), min_size=1, max_size=60),
           tail=st.integers(0, 9),
           ws=st.one_of(st.sampled_from([0.02, 0.08, 0.3, 0.6]), st.floats(0.001, 0.9)),
           data=st.data())
    def check(specs, tail, ws, data):
        codes = np.concatenate([build_code_frame(*spec) for spec in specs]
                               + [np.full(tail, 300, dtype=np.int16)])
        params = EmbedParams(ws=ws)
        bit_count = data.draw(st.one_of(st.integers(1, max(1, len(specs) // 4)),
                                        st.integers(1, len(specs))), label="bit_count")
        try:
            expected = select_frames_full_scan(_values(codes), make_plan(params.graph),
                                               params.coeff_count, ws, bit_count)
        except CapacityError as error:
            expected = error
        readings = []
        with smax_batches(readings) as sizes:
            try:
                chosen = gbtmark.watermark._select(codes, params, bit_count)
            except CapacityError as error:
                chosen = error
        assert 0 not in sizes and sum(sizes) <= len(specs)
        if isinstance(expected, CapacityError):
            assert isinstance(chosen, CapacityError)
            assert (chosen.eligible, chosen.required) == (expected.eligible,
                                                          expected.required)
        else:
            assert np.array_equal(chosen, expected)
            # the last band's eligible frames overflow bit_count, or fill it
            eligible = sum(int(np.sum(smax > ws)) for smax in readings)
            cut.append(eligible > bit_count)
            whole.append(eligible == bit_count)
            grew.append(len(sizes) > 1)

    check()
    # some hosts ranked the band they cut, some took it whole, and some
    # made the tested prefix grow
    assert any(cut) and any(whole) and any(grew)


def test_embed_k1_changes_coefficient_magnitude():
    params = EmbedParams(coeff_fraction=0.1)  # one coefficient, 1x1 matrix
    basis = make_plan(params.graph)
    host = constant_frames_signal([0.2, -0.3])
    result = embed(host, WatermarkImage(2, 1, [1, 0]), params)
    coeff = (host.samples.reshape(-1, 10) @ basis)[:, 0]
    new_coeff = (result.signal.samples.reshape(-1, 10) @ basis)[:, 0]
    assert result.key.s_max == pytest.approx(np.abs(coeff), abs=1e-12)
    assert new_coeff == pytest.approx(coeff + np.sign(coeff) * [params.ws, -params.ws],
                                      abs=1e-9)


def test_embed_prime_k_rescales_the_coefficient_row():
    # k = 5 gives a 1x5 matrix whose one singular value is the row's
    # norm, so a bit rescales the five coefficients to norm +- ws
    params = EmbedParams(coeff_fraction=0.5)
    basis = make_plan(params.graph)
    host = ar_noise(40, seed=22, rms=0.2)  # four frames, all of them carry a bit
    watermark = WatermarkImage(2, 2, [1, 0, 0, 1])
    result = embed(host, watermark, params)
    before = (host.samples.reshape(-1, 10) @ basis)[:, :5]
    after = (result.signal.samples.reshape(-1, 10) @ basis)[:, :5]
    norms = np.linalg.norm(before, axis=1)
    assert result.key.s_max == pytest.approx(norms, abs=1e-12)
    target = norms + np.where(watermark.bits == 1, params.ws, -params.ws)
    assert np.max(np.abs(after - before * (target / norms)[:, None])) <= 1e-9


@pytest.mark.parametrize("coeff_fraction, shape", [(0.4, (2, 2)), (0.5, (1, 5)),
                                                   (0.6, (2, 3))])
def test_a_bit_is_a_rank_one_change_of_the_leading_coefficients(coeff_fraction, shape):
    # on a host that does not clip, a marked frame's trailing N - k
    # coefficients keep their values, and its leading r x c matrix moves
    # by ws u1 v1^T: rank 1, Frobenius norm ws
    params = EmbedParams(coeff_fraction=coeff_fraction)
    basis = make_plan(params.graph)
    host = ar_noise(4000, seed=23, rms=0.1)
    result = embed(host, random_watermark(10, 10, seed=3), params)
    assert np.max(np.abs(result.signal.samples)) < 1.0
    change = (result.signal.samples - host.samples).reshape(-1, 10) @ basis
    k = params.coeff_count
    assert np.max(np.abs(change[:, k:])) <= 1e-12
    marked = change[result.key.frame_indices, :k].reshape(-1, *shape)
    sv = np.linalg.svd(marked, compute_uv=False)
    assert sv[:, 0] == pytest.approx(params.ws, abs=1e-12)
    assert np.max(sv[:, 1:], initial=0.0) <= 1e-12


def test_embed_matches_closed_form_oracle():
    # rank-1 singular value shift cross-checked against an independent
    # quadratic-formula SVD of the 2x2 coefficient matrix
    rng = np.random.default_rng(12)
    kept, gap = embed_oracle_gap(rng.uniform(-0.5, 0.5, (100, 10)), EmbedParams())
    assert kept >= 50
    assert gap <= 1e-9


def test_extract_unmarked_host_reads_zero(speech_clips, embedded_clips):
    # the key holds each frame's smax from the same kernel extract uses,
    # so the unmarked host ties everywhere, and a tie reads as bit 0
    for host, result in zip(speech_clips, embedded_clips):
        assert not np.any(extract(host, result.key).bits)


def test_code_rows_read_as_their_values():
    # samples as stored: a key's int16 code rows and their _values give
    # bit-equal matrices, and the codes and their _values the same image
    codes = np.random.default_rng(31).integers(-20_000, 20_000, 4000, dtype=np.int16)
    watermark = random_watermark(10, 10, seed=4)
    key, _, marked = _mark(codes, 8000, watermark, EmbedParams())
    _store(_frames(codes, 10), key.frame_indices, marked)
    rows = _gather(codes, 10, key.frame_indices)
    values = _values(rows)
    assert rows.dtype == np.int16 and values.dtype == np.float64
    assert _leading(rows, key.params).tobytes() == _leading(values, key.params).tobytes()
    image = _read_bits(8000, codes, key)
    assert np.array_equal(image.bits, _read_bits(8000, _values(codes), key).bits)
    assert np.array_equal(image.bits, watermark.bits)


def test_extract_rejects_rate_mismatch(embedded_clips):
    relabeled = AudioSignal(embedded_clips[0].signal.samples, 16000)
    with pytest.raises(ValidationError, match="16000"):
        extract(relabeled, embedded_clips[0].key)


def test_embed_extract_roundtrip_random_hosts():
    for host_seed, wm_seed in [(100, 1), (101, 2), (102, 3)]:
        host = ar_noise(70000, seed=host_seed, rms=0.1)
        watermark = random_watermark(seed=wm_seed)
        result = embed(host, watermark)
        recovered = extract(result.signal, result.key)
        assert np.array_equal(recovered.bits, watermark.bits)


def test_embed_and_extract_build_each_plan_once(watermark):
    # make_plan caches: a basis is built once per graph config and shared
    host = speech_like(3.0, 8000, seed=2)
    graph = GraphConfig(frame_size=12)
    make_plan.cache_clear()
    builds = []
    build_adjacency = gbtmark.transform.build_adjacency

    def counting(config):
        builds.append(config)
        return build_adjacency(config)

    with mock.patch.object(gbtmark.transform, "build_adjacency", counting):
        for _ in range(2):
            result = embed(host, watermark, EmbedParams(graph=graph))
            extract(result.signal, result.key)
    assert builds == [graph]
    assert make_plan(graph) is make_plan(graph)
    # so the shared basis cannot be written
    assert not make_plan(graph).flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        make_plan(graph)[0, 0] = 0.0


def test_embed_locality(watermark):
    host = speech_like(3.0, 8000, seed=2)
    result = embed(host, watermark)
    marked = np.array(result.signal.samples)
    original = np.array(host.samples)
    touched = np.zeros(len(host), dtype=bool)
    for index in result.key.frame_indices:
        touched[index * 10:(index + 1) * 10] = True
    assert np.array_equal(marked[~touched], original[~touched])
    assert not np.array_equal(marked[touched], original[touched])


def test_embed_result_is_frozen_and_apart_from_the_host(embedded_clips, speech_clips):
    # embed adopts its own copy of the host: one copy, not shared, read-only
    for result, host in zip(embedded_clips, speech_clips):
        assert not result.signal.samples.flags.writeable
        assert not np.shares_memory(result.signal.samples, host.samples)


def test_embed_detection_margin(embedded_clips, watermark, default_basis):
    # before any quantization the watermarked frame's largest singular
    # value sits exactly ws away from the recorded one
    params = EmbedParams()
    result = embedded_clips[0]
    frames = result.signal.samples.reshape(-1, 10)
    key = result.key
    for index, s_ref, bit in zip(key.frame_indices, key.s_max, watermark.bits):
        coeffs = frames[index] @ default_basis
        smax = np.linalg.svd(coeffs[:4].reshape(2, 2), compute_uv=False)[0]
        expected = s_ref + (params.ws if bit else -params.ws)
        assert smax == pytest.approx(expected, abs=1e-6)


def test_embed_distortion_identity(embedded_clips, speech_clips, watermark):
    # orthonormal transform + rank-1 shift: per-frame L2 distortion is
    # exactly ws, so MSE = bit_count * ws^2 / len
    for host, result in zip(speech_clips, embedded_clips):
        mse = psnr(host, result.signal).mse
        expected = watermark.bits.size * 0.05 ** 2 / len(host)
        assert mse == pytest.approx(expected, abs=1e-9)


def test_key_records_aligned_and_independent(embedded_clips, watermark):
    result = embedded_clips[1]
    indices = result.key.frame_indices
    assert all(b > a for a, b in zip(indices, indices[1:]))
    for i in (0, 17, 311, 624):  # each bit read alone, through a one-entry key
        single = dataclasses.replace(result.key, watermark_width=1,
                                     watermark_height=1,
                                     frame_indices=indices[i:i + 1],
                                     s_max=result.key.s_max[i:i + 1])
        assert extract(result.signal, single).bits[0] == watermark.bits[i]


def test_embed_refuses_a_change_that_is_not_finite(monkeypatch):
    # embed scans only the frames it changed, the rest being the host's
    # checked samples; a NaN change survives the clip and must be refused
    smax_change = gbtmark.watermark._smax_change

    def nan_change(mats, delta):
        s_ref, change = smax_change(mats, delta)
        change[-1, 0, 0] = np.nan
        return s_ref, change

    monkeypatch.setattr(gbtmark.watermark, "_smax_change", nan_change)
    with pytest.raises(ValidationError, match="^samples must be finite$"):
        embed(speech_like(2.0, 8000, seed=1), WatermarkImage(2, 2, [0, 1, 1, 0]))


def test_embed_capacity_error_propagates(watermark):
    host = ar_noise(4000, seed=5, rms=0.1)  # 400 frames < 625 bits
    with pytest.raises(CapacityError) as info:
        embed(host, watermark)
    assert info.value.required == 625
    assert info.value.eligible <= 400


def test_extract_zero_signal_yields_zero_bits(embedded_clips):
    key = embedded_clips[0].key
    zeros = AudioSignal(np.zeros(24000), 8000)
    recovered = extract(zeros, key)
    assert not np.any(recovered.bits)


def test_extract_zero_pads_short_signal(embedded_clips, watermark):
    result = embedded_clips[0]
    truncated = AudioSignal(result.signal.samples[:1000], 8000)
    recovered = extract(truncated, result.key)
    assert recovered.bits.shape == (625,)
    # frames past the truncation read zeros, hence bit 0
    cut = result.key.frame_indices * 10 >= 1000
    assert not np.any(recovered.bits[cut])


def test_watermark_image_validation():
    for bits in ([0, 1, 2, 0], [0.0, 1.0, 0.5, 0.0], [0.0, np.nan, 1.0, 0.0],
                 [0, 1, 1j, 0], [0, 1, None, 0]):
        with pytest.raises(ValidationError, match="^watermark bits must be 0 or 1$"):
            WatermarkImage(2, 2, np.array(bits))
    for bits in ([True, False, True, True], [1.0, 0.0, 1.0, 1.0],
                 np.array([1, 0, 1, 1], dtype=object)):
        assert WatermarkImage(2, 2, bits).bits.tolist() == [1, 0, 1, 1]
    with pytest.raises(ValidationError):
        WatermarkImage(2, 2, [0, 1, 1])
    with pytest.raises(ValidationError):
        WatermarkImage(0, 2, [])
    # a fractional dimension would give an image grid() cannot shape
    for width, height in ((2.0, 1), (1, np.float64(2.0))):
        with pytest.raises(ValidationError, match="integers"):
            WatermarkImage(width, height, [0, 1])


def test_embedding_key_validation():
    params = EmbedParams()
    indices, s_max = (0, 2, 1), (0.5, 0.4, 0.3)
    with pytest.raises(KeyFormatError):
        EmbeddingKey(8000, params, 1, 3, indices, s_max)
    with pytest.raises(KeyFormatError):
        EmbeddingKey(8000, params, 2, 2, indices, s_max)  # count mismatch
    with pytest.raises(KeyFormatError):
        EmbeddingKey(8000, params, 1, 3, (0, 1, 2), (0.5, 0.4))  # one s_max short
    # a NaN or +inf reference always reads 0, a negative one always 1
    for value in (float("nan"), float("inf"), -0.5):
        with pytest.raises(KeyFormatError, match="s_max"):
            EmbeddingKey(8000, params, 1, 2, (0, 1), (0.5, value))
    # extract indexes frames with these fields, so a fraction is refused
    indices, s_max = (3, 7), (0.1, 0.2)
    for fields in ((8000.0, 2, 1, indices, s_max), (8000, 2.0, 1, indices, s_max),
                   (8000, 2, np.float64(1.0), indices, s_max),
                   (8000, 2, 1, (3.5, 7), s_max),
                   (8000, 2, 1, (3, np.float64(7)), s_max),
                   (8000, 2, 1, np.array([3, 7], dtype=object), s_max),
                   # True/False would index frames 1 and 0, or act as a mask
                   (8000, 2, 1, [False, True], s_max)):
        with pytest.raises(KeyFormatError, match="integers"):
            EmbeddingKey(fields[0], params, *fields[1:])
    # a rate no signal has: extract would report a rate mismatch instead
    for rate in (0, -8000):
        with pytest.raises(KeyFormatError, match="sample rate"):
            EmbeddingKey(rate, params, 2, 1, indices, s_max)


def test_embedding_key_and_params_refuse_stand_ins():
    # write_key and extract read the params' numbers; a stand-in would
    # fail there with an AttributeError, or write a number read_key refuses
    with pytest.raises(KeyFormatError, match="params must be EmbedParams, got .*object"):
        EmbeddingKey(8000, object(), 1, 1, [0], [0.1])
    with pytest.raises(KeyFormatError, match="got <class 'dict'>"):
        EmbeddingKey(8000, {"ws": 0.05}, 1, 1, [0], [0.1])
    with pytest.raises(ConfigError, match="graph must be a GraphConfig, got .*object"):
        EmbedParams(graph=object())


def test_embedding_key_arrays_are_frozen_copies():
    indices, s_max = np.array([3, 7]), np.array([0.1, 0.2])
    key = EmbeddingKey(8000, EmbedParams(), 2, 1, indices, s_max)
    for array in (key.frame_indices, key.s_max):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    indices[0], s_max[0] = 5, 9.0  # the caller's arrays stay theirs
    assert key.frame_indices.tolist() == [3, 7]
    assert key.s_max.tolist() == [0.1, 0.2]


def test_embedding_key_rejects_negative_frame_index():
    # extract would read frame -5 counted from the end of the signal
    with pytest.raises(KeyFormatError, match="non-negative"):
        EmbeddingKey(8000, EmbedParams(), 2, 1, (-5, 2), (0.5, 0.4))


def test_embedding_key_rejects_empty_watermark():
    # no entries to read: extract would fail outside the error hierarchy
    for width, height in ((0, 3), (3, 0), (0, 0)):
        with pytest.raises(KeyFormatError, match="dimensions"):
            EmbeddingKey(8000, EmbedParams(), width, height, (), ())
