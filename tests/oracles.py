"""Independent reference implementations and probe signals used only by
the tests.

These deliberately avoid the library's code paths: the 2x2 SVD comes
from the quadratic formula applied to the eigenproblem of M^T M, frame
selection scans every frame instead of an energy-ranked prefix, and the
key reader parses tokens with int, float and np.array instead of numpy's
text reader.
"""

import math
from pathlib import Path

import numpy as np
from scipy import signal as sps

from gbtmark import (AudioSignal, CapacityError, ConfigError, EmbeddingKey, EmbedParams,
                     GraphConfig, KeyFormatError)
from gbtmark.fileio import _KEY_HEADER, KEY_FORMAT_VERSION


def tone(freq_hz, duration_s=1.0, sample_rate=8000):
    """Pure sine tone of amplitude 0.5, handy for measuring filter responses."""
    t = np.arange(int(round(duration_s * sample_rate))) / sample_rate
    return AudioSignal(0.5 * np.sin(2 * np.pi * freq_hz * t), sample_rate)


def ar_noise(count, seed=0, rms=0.1, sample_rate=8000):
    """First-order autoregressive noise (pole 0.95) at the requested RMS."""
    rng = np.random.default_rng(seed)
    x = sps.lfilter([1.0], [1.0, -0.95], rng.normal(size=count))
    x *= rms / np.sqrt(np.mean(x ** 2))
    return AudioSignal(np.clip(x, -0.99, 0.99), sample_rate)


def svd2_closed_form(mat):
    """Singular values and leading pair (u1, v1) of a 2x2 matrix."""
    mat = np.asarray(mat, dtype=np.float64)
    gram = mat.T @ mat
    trace = gram[0, 0] + gram[1, 1]
    det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    disc = math.sqrt(max(trace * trace / 4.0 - det, 0.0))
    lam1 = trace / 2.0 + disc
    lam2 = trace / 2.0 - disc
    s1 = math.sqrt(max(lam1, 0.0))
    s2 = math.sqrt(max(lam2, 0.0))
    if abs(gram[0, 1]) > 1e-14:
        v1 = np.array([gram[0, 1], lam1 - gram[0, 0]])
    elif gram[0, 0] >= gram[1, 1]:
        v1 = np.array([1.0, 0.0])
    else:
        v1 = np.array([0.0, 1.0])
    v1 = v1 / np.linalg.norm(v1)
    u1 = mat @ v1 / s1
    return s1, s2, u1, v1


def shift_top_singular_value(mat, delta):
    """Return mat with its largest singular value moved by delta.

    Rank-1 update M + delta * u1 v1^T, which is exactly what rebuilding
    U diag(s1 + delta, s2) V^T produces.
    """
    s1, _, u1, v1 = svd2_closed_form(mat)
    return np.asarray(mat, dtype=np.float64) + delta * np.outer(u1, v1)


def select_frames_full_scan(samples, basis, k, ws, bit_count):
    """Frame selection that computes the singular value of every frame.

    Splits the samples into frames of ``basis.shape[0]`` (dropping the
    tail), takes the largest singular value of each frame's leading k
    coefficients (the squarest matrix, row-major), keeps the frames
    above ws, ranks them by (-energy, index) and returns the first
    bit_count sorted by index. Raises CapacityError when fewer than
    bit_count frames are eligible.
    """
    size = basis.shape[0]
    count = len(samples) // size
    frames = np.asarray(samples, dtype=np.float64)[:count * size].reshape(count, size)
    energies = np.einsum("ij,ij->i", frames, frames)
    rows = max(r for r in range(1, math.isqrt(k) + 1) if k % r == 0)
    mats = (frames @ basis)[:, :k].reshape(count, rows, k // rows)
    smax = np.linalg.svd(mats, compute_uv=False)[:, 0]
    eligible = np.flatnonzero(smax > ws)
    if eligible.size < bit_count:
        raise CapacityError(eligible=int(eligible.size), required=int(bit_count))
    ranked = eligible[np.lexsort((eligible, -energies[eligible]))]
    return np.sort(ranked[:bit_count])


def read_key_token_slots(path):
    """Read a key file by token slots, as the library did before numpy's
    text reader; returns an EmbeddingKey or raises KeyFormatError.

    Joined with " | ", the lines of a key whose every line holds two
    fields split into tokens running field, field, "|", field, field, ...
    The header values parse with int or float and the records with
    np.array, so "_" digit groups (1_0) are taken here and refused by
    the library.
    """
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise KeyFormatError(f"{path}: not a plain-text key file") from exc
    tokens = " | ".join(lines).split()
    if not (len(tokens) == 3 * len(lines) - 1
            and tokens[2::3].count("|") == len(lines) - 1):
        raise KeyFormatError(f"{path}: a line without two fields")
    names, values = tokens[0::3], tokens[1::3]
    head = len(_KEY_HEADER)
    if names[:head] != [name for name, _, _ in _KEY_HEADER]:
        raise KeyFormatError(f"{path}: header names out of order")
    try:
        header = {name: kind(value) for (name, kind, _), value in zip(_KEY_HEADER, values)}
        indices = np.array(names[head:], np.int64)
        s_max = np.array(values[head:], np.float64)
    except (ValueError, OverflowError) as exc:
        raise KeyFormatError(f"{path}: a token that does not parse") from exc
    if header["version"] != KEY_FORMAT_VERSION:
        raise KeyFormatError(f"{path}: key version {header['version']}")
    try:
        graph = GraphConfig(header["frame_size"], header["w1"], header["w2"])
        params = EmbedParams(ws=header["ws"], graph=graph,
                             coeff_fraction=header["coeff_fraction"])
        return EmbeddingKey(header["sample_rate"], params, header["wm_width"],
                            header["wm_height"], indices, s_max)
    except ConfigError as exc:
        raise KeyFormatError(f"{path}: {exc}") from exc
